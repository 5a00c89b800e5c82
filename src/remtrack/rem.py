"""Relation encoding: recurrent graph-attention message passing over tracks.

Each frame, every tracked instance turns its box and positional offset into a
node feature through an input GRU, exchanges messages with spatially adjacent
instances, aggregates them with dot-product attention, and folds the result
into a per-instance relation embedding through a second GRU. Temporal edges
are realized by the GRU recurrences; attention only ever runs over spatial
neighbors.

Work that belongs to one node is done once per frame, straight after its node
feature: every node with a spatial neighbor is projected onto its share of
the message and attention layers (its receiver and sender parts of the first
message layer, its query and its key) by single matrix-vector products, and
every node is given a content rank that orders nodes by box, then by the
bytes of the node feature, equal content sharing a rank. Each receiver's
messages, attention and aggregation then run as one fused tape node over its
k neighbors: the block gathers the senders' projections, and only the second
message layer is a k-row product. Neighbors come in a canonical order,
distance then content rank, that never depends on instance ids. One sort per
frame, over both directions of the frame's edge arrays, puts every
receiver's senders in that order as one contiguous segment per receiver.
Neighbors equal in both keys give identical rows; the sort's last key puts
them in ascending id order only so that each segment is fully determined.
Node-level work (``node_feature``, the projections,
``spatiotemporal_update``) stays per node, so a node's numbers never depend
on how many other nodes share its frame. Together these make relabeling
instances permute the outputs bitwise, and leave an isolated instance's
embedding bitwise independent of the rest of the scene.

Relation importance replays each receiver's trailing window once. Node
features never depend on relation embeddings, so each window frame's node
features, projections and sender segments are computed once and shared by
every receiver, and a receiver's message block at each step is computed once
and shared by the full replay and all of its leave-one-out drops; each drop
only re-weights the block without its row. The drops run as one batch whose
rows follow the receiver's canonical neighbor order, so their values too
permute bitwise under relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruCellParams, ParameterStore, Tensor
from .geometry import BoundingBox
from .st_graph import GraphFrame, SpatioTemporalGraph

# The generic nonlinearity is LeakyReLU(0.1); attention logits use the
# steeper 0.2 slope customary for graph attention.
SIGMA_SLOPE = 0.1
ATTENTION_SLOPE = 0.2

DEFAULT_DIM = 128
DEFAULT_WINDOW = 10
BOX_FEATURES = 8  # box (4) concatenated with its one-step offset (4)

# Box coordinates are divided by this before entering the input affine so the
# recurrent gates stay in their sensitive range for scene-sized coordinates.
INPUT_SCALE = 10.0


@dataclass
class RemParameters:
    """All learnable weights of the relation module, embedding dim ``dim``."""

    w_in: Tensor
    b_in: Tensor
    gru_in: GruCellParams
    w_m1: Tensor
    b_m1: Tensor
    w_m2: Tensor
    b_m2: Tensor
    w_a1: Tensor
    w_a2: Tensor
    w_u: Tensor
    b_u: Tensor
    gru_rel: GruCellParams
    dim: int = DEFAULT_DIM

    @classmethod
    def create(
        cls,
        store: ParameterStore,
        dim: int = DEFAULT_DIM,
        *,
        rng: np.random.Generator,
    ) -> "RemParameters":
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        return cls(
            w_in=store.matrix("rem.w_in", dim, BOX_FEATURES, rng),
            b_in=store.zeros("rem.b_in", dim),
            gru_in=GruCellParams.create(store, "rem.gru_in", dim, dim, rng),
            w_m1=store.matrix("rem.w_m1", dim, 2 * dim + 1, rng),
            b_m1=store.zeros("rem.b_m1", dim),
            w_m2=store.matrix("rem.w_m2", dim, dim, rng),
            b_m2=store.zeros("rem.b_m2", dim),
            w_a1=store.matrix("rem.w_a1", dim, dim, rng),
            w_a2=store.matrix("rem.w_a2", dim, dim, rng),
            w_u=store.matrix("rem.w_u", dim, 2 * dim, rng),
            b_u=store.zeros("rem.b_u", dim),
            gru_rel=GruCellParams.create(store, "rem.gru_rel", dim, dim, rng),
            dim=dim,
        )


@dataclass
class RemState:
    """Recurrent per-instance state: node hidden v and relation embedding r.
    Keys are exactly the ids of the last frame stepped through; that frame's
    boxes are read from the graph, not kept here."""

    v: dict[int, Tensor] = field(default_factory=dict)
    r: dict[int, Tensor] = field(default_factory=dict)

    def live(self) -> set[int]:
        return set(self.v)


@dataclass(frozen=True)
class RelationEmbedding:
    instance: int
    t: int
    vector: np.ndarray


def node_feature(
    params: RemParameters,
    box: BoundingBox,
    prev_box: BoundingBox | None,
    v_prev: Tensor | None,
) -> Tensor:
    """Input feature: GRU over sigma(W_in [box || box - prev_box] + b_in).

    At an instance's first frame the offset is zero and the hidden state
    starts at zeros. Coordinates enter divided by ``INPUT_SCALE``.
    """
    p = box.as_array()
    offset = p - prev_box.as_array() if prev_box is not None else np.zeros(4)
    scaled = np.concatenate([p, offset]) / INPUT_SCALE
    x = ad.leaky_relu(ad.affine(params.w_in, Tensor(scaled), params.b_in), SIGMA_SLOPE)
    if v_prev is None:
        v_prev = Tensor(np.zeros(params.dim))
    return ad.gru_cell(params.gru_in, x, v_prev)


def message(params: RemParameters, v_i: Tensor, v_j: Tensor, d_ij: float) -> Tensor:
    """Directed message to receiver i from sender j, aware of their distance.

    One sender at a time; REM itself runs the fused ``_attend``, which this
    function and ``attention_coefficients`` specify."""
    if d_ij < 0:
        raise ValueError("distance must be non-negative")
    x = ad.concat([v_i, v_j, Tensor(np.array([d_ij]))])
    hidden = ad.leaky_relu(ad.affine(params.w_m1, x, params.b_m1), SIGMA_SLOPE)
    return ad.leaky_relu(ad.affine(params.w_m2, hidden, params.b_m2), SIGMA_SLOPE)


def attention_coefficients(
    params: RemParameters, v_i: Tensor, neighbor_feats: Sequence[Tensor]
) -> Tensor:
    """Softmax over LeakyReLU((W_a1 v_i)^T (W_a2 v_j)) for spatial neighbors."""
    neighbor_feats = list(neighbor_feats)
    if not neighbor_feats:
        raise ValueError("attention requires a non-empty neighbor set")
    query = ad.affine(params.w_a1, v_i)
    logits = [
        ad.leaky_relu(ad.dot(query, ad.affine(params.w_a2, v_j)), ATTENTION_SLOPE)
        for v_j in neighbor_feats
    ]
    return ad.softmax(ad.stack(logits))


def spatiotemporal_update(
    params: RemParameters,
    v_i: Tensor,
    aggregated: Tensor,
    r_prev: Tensor | None,
) -> Tensor:
    """Spatial perceptron over [v_i || aggregated], then the temporal GRU."""
    u = ad.leaky_relu(ad.affine(params.w_u, ad.concat([v_i, aggregated]), params.b_u), SIGMA_SLOPE)
    if r_prev is None:
        r_prev = Tensor(np.zeros(params.dim))
    return ad.gru_cell(params.gru_rel, u, r_prev)


class _Nodes(NamedTuple):
    """One frame's node features and every receiver's view of its senders.

    Nodes are addressed by position in the frame's ``ids``. A row of ``proj``
    is ``[w_m1[:, :f] v + b_m1, w_a1 v, w_m1[:, f:2f] v, w_a2 v]``: the node's
    share of the message and attention layers as a receiver (first two) and
    as a sender (last two); rows of isolated nodes, which are neither
    senders nor receivers, stay zero. Receiver p's senders, in canonical
    order, are ``senders[start[p]:start[p + 1]]``, at ``distances`` of the
    same slice.
    """

    v: dict[int, Tensor]
    ids: np.ndarray  # (n,) the frame's ids, ascending
    proj: np.ndarray  # (n, 4, f)
    senders: np.ndarray  # (2E,) sender positions, grouped by receiver
    distances: np.ndarray  # (2E,)
    start: np.ndarray  # (n + 1,)


def _projections(params: RemParameters, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """``_Nodes.proj`` rows of ``vectors``, one matrix-vector product each, so
    a node's row never depends on which other nodes are projected with it."""
    f = params.dim
    w = params.w_m1.data
    stacked = np.concatenate([w[:, :f], params.w_a1.data, w[:, f : 2 * f], params.w_a2.data])
    proj = np.empty((len(vectors), 4, f))
    for out, v in zip(proj.reshape(len(vectors), 4 * f), vectors):
        np.matmul(stacked, v, out=out)
    proj[:, 0] += params.b_m1.data
    return proj


def _content_rank(frame: GraphFrame, v: Mapping[int, Tensor]) -> np.ndarray:
    """Rank of each node by (cx, cy, w, h, bytes of its node feature); nodes
    equal in all of these share a rank."""
    keys = []
    for i in frame.ids:
        b = frame.boxes[i]
        keys.append((b.cx, b.cy, b.w, b.h, v[i].data.tobytes()))
    rank = np.empty(len(keys), dtype=np.intp)
    prev, r = None, -1
    for n in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[n] != prev:
            prev, r = keys[n], r + 1
        rank[n] = r
    return rank


def _frame_nodes(params: RemParameters, frame: GraphFrame, v: dict[int, Tensor]) -> _Nodes:
    """``v`` with the projections of the nodes that have a spatial neighbor
    in ``frame``, and every receiver's senders in the canonical order.

    Both directions of ``frame.edges`` are ordered by one sort on (receiver,
    distance, sender content rank, sender position). Senders that reach the
    last key are equal in distance, box and node feature, so they give
    identical rows; the key only fixes their order to ascending id.
    """
    n = len(frame.ids)
    a, b = frame.edges.T
    receivers = np.concatenate([a, b])
    senders = np.concatenate([b, a])
    distances = np.concatenate([frame.edge_distance, frame.edge_distance])
    order = np.lexsort((senders, _content_rank(frame, v)[senders], distances, receivers))
    start = np.searchsorted(receivers[order], np.arange(n + 1))
    ids = np.array(frame.ids, dtype=np.intp)
    linked = start[1:] > start[:-1]
    proj = np.zeros((n, 4, params.dim))
    proj[linked] = _projections(params, [v[i].data for i in ids[linked].tolist()])
    return _Nodes(v, ids, proj, senders[order], distances[order], start)


def _node_features(
    params: RemParameters,
    frame: GraphFrame,
    prev_boxes: Mapping[int, BoundingBox],
    prev_v: Mapping[int, Tensor],
) -> _Nodes:
    """Node features of every instance in ``frame``, with the projections and
    sender segments of ``_frame_nodes``; an instance continues its recurrence
    only if it has a hidden state in ``prev_v``."""
    v = {
        i: node_feature(params, frame.boxes[i], prev_boxes[i], prev_v[i])
        if i in prev_v
        else node_feature(params, frame.boxes[i], None, None)
        for i in frame.ids
    }
    return _frame_nodes(params, frame, v)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    # for 0 < slope < 1 the same bits as np.where(x >= 0, x, slope * x)
    return np.maximum(x, slope * x)


class _Block(NamedTuple):
    """Receiver i's messages and attention logits, one row per sender."""

    a1: np.ndarray
    hidden: np.ndarray
    a2: np.ndarray
    msgs: np.ndarray
    query: np.ndarray
    keys: np.ndarray
    scores: np.ndarray
    logits: np.ndarray


def _message_block(
    params: RemParameters, receiver: np.ndarray, projected: np.ndarray, distances: np.ndarray
) -> _Block:
    """The maths of ``message`` and ``attention_coefficients`` for k senders,
    from the receiver's two ``_Nodes.proj`` parts and the senders' two (k
    rows); only the second message layer is a k-row matrix product."""
    p, f = params, params.dim
    a1 = projected[:, 0] + receiver[0]
    a1 += distances[:, None] * p.w_m1.data[:, 2 * f]
    hidden = _leaky(a1, SIGMA_SLOPE)
    a2 = hidden @ p.w_m2.data.T + p.b_m2.data
    msgs = _leaky(a2, SIGMA_SLOPE)
    query, keys = receiver[1], projected[:, 1]
    scores = keys @ query
    return _Block(a1, hidden, a2, msgs, query, keys, scores, _leaky(scores, ATTENTION_SLOPE))


def _softmax_sum(logits: np.ndarray, msgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights over the rows of a block and the weighted sum."""
    exps = np.exp(logits - np.max(logits))
    alphas = exps / np.sum(exps)
    return alphas, alphas @ msgs


def _attend(
    params: RemParameters,
    v_i: Tensor,
    senders: Sequence[Tensor],
    distances: np.ndarray,
    receiver: np.ndarray,
    projected: np.ndarray,
) -> Tensor:
    """sum_j alpha_ij m_ij over receiver i's k senders, as one tape node.

    The forward is ``_message_block`` on i's ``receiver`` projections and
    the senders' ``projected`` ones, followed by ``_softmax_sum``. The
    backward closure builds the rows ``[v_i || v_j || d_ij]`` and returns
    each weight gradient as row factors (k rows for the message weights, one
    row for the attention weights), which ``ad.backward`` reduces together
    with every other receiver's rows.
    """
    p, f = params, params.dim
    a1, hidden, a2, msgs, query, keys, scores, logits = _message_block(params, receiver, projected, distances)
    alphas, out = _softmax_sum(logits, msgs)

    def bw(g):
        x = np.empty((len(senders), 2 * f + 1))
        x[:, :f] = v_i.data
        for row, v_j in enumerate(senders):
            x[row, f : 2 * f] = v_j.data
        x[:, 2 * f] = distances
        v_n = x[:, f : 2 * f]
        d_alphas = msgs @ g
        d_scores = alphas * (d_alphas - alphas @ d_alphas) * np.where(scores >= 0, 1.0, ATTENTION_SLOPE)
        d_query = d_scores @ keys
        d_a2 = np.outer(alphas, g) * np.where(a2 >= 0, 1.0, SIGMA_SLOPE)
        d_a1 = (d_a2 @ p.w_m2.data) * np.where(a1 >= 0, 1.0, SIGMA_SLOPE)
        d_x = d_a1 @ p.w_m1.data
        d_senders = d_x[:, f : 2 * f] + np.outer(d_scores, query @ p.w_a2.data)
        return (
            ad._Rows(d_a1, x),  # w_m1
            d_a1.sum(axis=0),  # b_m1
            ad._Rows(d_a2, hidden),  # w_m2
            d_a2.sum(axis=0),  # b_m2
            ad._Rows(d_query, v_i.data),  # w_a1
            ad._Rows(query, d_scores @ v_n),  # w_a2
            d_x[:, :f].sum(axis=0) + p.w_a1.data.T @ d_query,  # v_i
            *d_senders,
        )

    return ad._make(out, (p.w_m1, p.b_m1, p.w_m2, p.b_m2, p.w_a1, p.w_a2, v_i, *senders), bw)


def _canonical_senders(nodes: _Nodes, p: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The ids of the senders of the receiver at position ``p`` in the
    canonical order, their distances to it and their sender projections
    (k, 2, f)."""
    at = slice(nodes.start[p], nodes.start[p + 1])
    senders = nodes.senders[at]
    return nodes.ids[senders].tolist(), nodes.distances[at], nodes.proj[senders, 2:]


def _relation_update(params: RemParameters, nodes: _Nodes, p: int, r_prev: Tensor | None) -> Tensor:
    """Relation embedding of the instance at position ``p``: attention over
    messages from its spatial neighbors, then the spatiotemporal update."""
    v = nodes.v
    v_i = v[nodes.ids[p]]
    senders, distances, projected = _canonical_senders(nodes, p)
    if senders:
        aggregated = _attend(params, v_i, [v[j] for j in senders], distances, nodes.proj[p, :2], projected)
    else:
        aggregated = Tensor(np.zeros(params.dim))
    return spatiotemporal_update(params, v_i, aggregated, r_prev)


def rem_step(
    params: RemParameters,
    state: RemState,
    graph: SpatioTemporalGraph,
    t: int,
) -> list[RelationEmbedding]:
    """Advance the module through frame t of the graph.

    New instances start from zero hidden states; departed instances are
    dropped. The state must hold exactly the instances of frame t-1, whose
    boxes give each continuing instance's offset.
    """
    frame = graph.frames[t]
    prev_boxes = graph.frames[t - 1].boxes if t > 0 else {}
    if state.live() != prev_boxes.keys():
        raise ValueError(
            f"state instances {sorted(state.live())} do not match frame {t - 1} "
            f"instances {sorted(prev_boxes)}"
        )
    nodes = _node_features(params, frame, prev_boxes, state.v)
    r = {i: _relation_update(params, nodes, p, state.r.get(i)) for p, i in enumerate(frame.ids)}
    state.v = nodes.v
    state.r = r
    return [RelationEmbedding(i, t, r[i].data.copy()) for i in frame.ids]


# ---------------------------------------------------------------------------
# relation importance (leave-one-out)


def _phi(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos^2 similarity; zero-norm inputs mean nothing changed."""
    if np.array_equal(a, b):
        return 0.0  # unchanged embedding, exactly
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    c = float(np.dot(a, b)) / (na * nb)
    return 1.0 - min(c * c, 1.0)


def _window_node_features(
    params: RemParameters, graph: SpatioTemporalGraph, t: int, window: int
) -> list[_Nodes]:
    """Node features for frames [t-window+1, t], zero states at window start."""
    t0 = max(0, t - window + 1)
    out: list[_Nodes] = []
    for s in range(t0, t + 1):
        prev_boxes = graph.frames[s - 1].boxes if s > t0 else {}
        out.append(_node_features(params, graph.frames[s], prev_boxes, out[-1].v if out else {}))
    return out


def _masked_sums(logits: np.ndarray, msgs: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """``_softmax_sum``'s weighted sum once per entry of ``rows``, each with
    that row of the block left out; zeros where no row is left."""
    if len(logits) == 1:
        return np.zeros((len(rows), msgs.shape[1]))
    masked = np.repeat(logits[None, :], len(rows), axis=0)
    masked[np.arange(len(rows)), rows] = -np.inf
    exps = np.exp(masked - np.max(masked, axis=1, keepdims=True))
    return (exps / np.sum(exps, axis=1, keepdims=True)) @ msgs


def _update_rows(
    params: RemParameters, v_i: np.ndarray, aggregated: np.ndarray, r_prev: np.ndarray
) -> np.ndarray:
    """``spatiotemporal_update`` for each row of ``aggregated`` and ``r_prev``
    at once, without a tape."""
    f = params.dim
    x = np.empty((len(aggregated), 2 * f))
    x[:, :f] = v_i
    x[:, f:] = aggregated
    u = _leaky(x @ params.w_u.data.T + params.b_u.data, SIGMA_SLOPE)
    return ad._gru_rows(params.gru_rel, u, r_prev)


def _leave_one_out(
    params: RemParameters, feats: list[_Nodes], i: int
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Relation embedding of ``i`` at the last frame of the window ``feats``
    (from ``_window_node_features``), replayed over the window, and for each
    neighbor j of i there the embedding with j removed at every step.

    At each step i's message block is computed once. The full row takes
    ``_attend``'s aggregate through ``spatiotemporal_update``, exactly as
    ``rem_step`` does. A drop equals the full row until the first step where
    its j is i's neighbor; from there it aggregates the block without j's row
    and is updated in one batch with every other diverged drop, its rows in
    i's canonical order at the last frame, so relabeling ids cannot change
    its bits. An absence of i resets the full row and every drop.
    """
    drops = _canonical_senders(feats[-1], feats[-1].ids.searchsorted(i))[0]
    slot = {j: d for d, j in enumerate(drops)}
    f = params.dim
    r: Tensor | None = None
    r_drops = np.zeros((len(drops), f))
    diverged = np.zeros(len(drops), dtype=bool)
    for nodes in feats:
        if i not in nodes.v:
            r = None  # absence breaks the recurrence
            diverged[:] = False
            continue
        p = nodes.ids.searchsorted(i)
        senders, distances, projected = _canonical_senders(nodes, p)
        if senders:
            block = _message_block(params, nodes.proj[p, :2], projected, distances)
            full = _softmax_sum(block.logits, block.msgs)[1]
        else:
            full = np.zeros(f)
        v_i = nodes.v[i]
        r_prev = r.data if r is not None else np.zeros(f)
        r = spatiotemporal_update(params, v_i, Tensor(full), r)
        present = sorted((slot[j], row) for row, j in enumerate(senders) if j in slot)
        for d, _ in present:
            if not diverged[d]:
                r_drops[d] = r_prev
                diverged[d] = True
        if not diverged.any():
            continue
        aggregated = np.tile(full, (len(drops), 1))
        if present:
            at = [d for d, _ in present]
            aggregated[at] = _masked_sums(block.logits, block.msgs, [row for _, row in present])
        rows = np.flatnonzero(diverged)
        r_drops[rows] = _update_rows(params, v_i.data, aggregated[rows], r_drops[rows])
    return r.data, dict(zip(drops, r_drops))


def relation_importance_records(
    params: RemParameters,
    graph: SpatioTemporalGraph,
    window: int = DEFAULT_WINDOW,
    frames: Sequence[int] | None = None,
) -> list[tuple[int, int, int, float]]:
    """(t, i, j, R) for every ordered pair within the gate at each frame.

    R is the degree to which instance j shapes instance i's embedding at
    frame t: 1 - cos^2 between i's embedding and its leave-j-out
    recomputation, both replayed over the trailing ``window`` frames so the
    two sides are directly comparable. Asymmetric in general. Records come
    by frame, then i by ascending id, then j, i's spatial neighbors at t, by
    ascending id.
    """
    if window < 1:
        raise ValueError(f"relation importance window must be >= 1, got {window}")
    records: list[tuple[int, int, int, float]] = []
    frame_ids = range(graph.n_frames) if frames is None else frames
    with ad.no_grad():
        for t in frame_ids:
            feats = _window_node_features(params, graph, t, window)
            start = feats[-1].start
            for p, i in enumerate(graph.frames[t].ids):
                if start[p] == start[p + 1]:
                    continue  # no neighbor
                r_full, r_drops = _leave_one_out(params, feats, i)
                records += [(t, i, j, _phi(r_full, r_drops[j])) for j in sorted(r_drops)]
    return records
