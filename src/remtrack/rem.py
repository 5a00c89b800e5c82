"""Relation encoding: recurrent graph-attention message passing over tracks.

Each frame, every tracked instance turns its box and positional offset into a
node feature through an input GRU, exchanges messages with spatially adjacent
instances, aggregates them with dot-product attention, and folds the result
into a per-instance relation embedding through a second GRU. Temporal edges
are realized by the GRU recurrences; attention only ever runs over spatial
neighbors.

``rem_step`` advances a run of frames at once, one tape node per operation
over all rows of the run, a row per instance per frame: one input affine
and one ``ad.gru_scan`` for the node features, one product that projects
every node onto its share of the message and attention layers (its receiver
and sender parts of the first message layer, its query and its key), the
message layer and attention over every receiver's senders, then one update
affine and a second ``gru_scan`` for the relation embeddings. Only the two
GRUs' state-side products depend on the frame before, so only they run frame
by frame, inside the scans; everything else batches across frames. Training
runs a whole window as one run; the tracker runs one frame per call, through
the same code. The public ``node_feature``, ``message``,
``attention_coefficients`` and ``spatiotemporal_update`` specify the same
maths one node or one sender at a time.

Relabeling instances permutes the outputs bitwise, and an isolated
instance's embedding is bitwise independent of the rest of the scene,
because no number of a node depends on anything but its own rows:

* Every matrix product runs through ``ad._block_matmul``, whose rows have
  the bits they would have alone, whatever the other rows of the call.
  Everything else on a row is elementwise. A scan computes each row in the
  order a one-frame step does (input product, plus bias, plus state
  product), so a run gives every frame the bits of one call per frame.
* A receiver's senders come in a canonical order, distance then content
  rank, that never depends on instance ids; the content rank orders nodes by
  box, then by the bytes of the node feature, equal content sharing a rank.
  One sort per run, over both directions of every frame's edge arrays, puts
  every receiver's senders in that order as one contiguous segment; the
  receiver's row is the first key, so a segment never spans frames.
  Neighbors equal in both keys give identical rows; the sort's last key puts
  them in ascending id order only so that each segment is fully determined.
* The message rows are cut into chunks of whole segments, about
  ``CHUNK_ROWS`` rows each, which bounds the working set; a segment's
  softmax and weighted sum (``reduceat``) depend only on the segment's own
  rows, not on where it sits in its chunk.

Relation importance replays each receiver's trailing window once. Node
features never depend on relation embeddings, so the window's node
features, projections and sender segments come from one run and are shared
by every receiver, and a receiver's message rows at each step are computed
once and shared by the full replay and all of its leave-one-out drops; each
drop only re-weights the rows without its own. The full replay runs the same
row functions as ``rem_step`` on the receiver's rows, so it equals
``rem_step`` bit for bit, and all rows of the window, every drop of every
receiver at every step, are updated by one affine and one ``gru_scan``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

# Message rows per chunk of whole receiver segments; smaller chunks keep the
# per-frame working set in cache.
CHUNK_ROWS = 256


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
    """Recurrent per-instance state after the last run of frames stepped
    through. ``v`` (node hidden states) and ``r`` (relation embeddings) hold
    one row per instance per frame of the run: frame ``first + k`` has the
    instances ``frames[k]``, ascending, at rows ``bounds[k]`` onwards. Before
    the first run ``v`` and ``r`` are None. Boxes are read from the graph,
    not kept here."""

    frames: tuple[tuple[int, ...], ...] = ()
    v: Tensor | None = None
    r: Tensor | None = None
    bounds: tuple[int, ...] = (0,)
    first: int = 0

    @property
    def ids(self) -> tuple[int, ...]:
        """The instances of the run's last frame."""
        return self.frames[-1] if self.frames else ()

    def embedding(self, i: int, t: int | None = None) -> Tensor:
        """Instance i's relation embedding at frame t of the run, its last
        frame by default: one gather node on ``r``."""
        k = len(self.frames) - 1 if t is None else t - self.first
        if not 0 <= k < len(self.frames):
            raise KeyError((i, t))
        ids = self.frames[k]
        p = bisect_left(ids, i)
        if p == len(ids) or ids[p] != i:
            raise KeyError(i)
        return ad.take(self.r, self.bounds[k] + p)


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

    One sender at a time; ``rem_step`` runs the same maths over a run's
    message rows, which this function and ``attention_coefficients``
    specify."""
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
    """A run of frames' node features and every receiver's view of its
    senders.

    Rows go frame by frame: frame k of the run holds rows
    ``bounds[k]:bounds[k + 1]``, one per instance, ``ids`` ascending within
    the frame. ``prev`` is each row's previous state, a row of the state the
    run starts from followed by the run's own rows, or -1 for an instance
    that starts at that frame. The four (n, f) parts of ``proj`` are
    ``w_m1[:, :f] v + b_m1``, ``w_a1 v``, ``w_m1[:, f:2f] v`` and ``w_a2 v``:
    each node's share of the message and attention layers as a receiver
    (first two) and as a sender (last two). Receiver p's senders, rows of the
    same frame in canonical order, are ``senders[start[p]:start[p + 1]]``, at
    ``distances`` of the same slice.
    """

    ids: np.ndarray  # (n,) instance of every row
    bounds: np.ndarray  # (frames + 1,)
    prev: np.ndarray  # (n,)
    v: Tensor  # (n, f)
    proj: Tensor  # (4, n, f)
    senders: np.ndarray  # (2E,) sender rows, grouped by receiver
    distances: np.ndarray  # (2E,)
    start: np.ndarray  # (n + 1,)


def _project(params: RemParameters, v: Tensor) -> Tensor:
    """``_Nodes.proj`` of every row of ``v``, one product per part, as one
    tape node."""
    p, f = params, params.dim
    weights = (p.w_m1.data[:, :f], p.w_a1.data, p.w_m1.data[:, f : 2 * f], p.w_a2.data)
    proj = np.empty((4,) + v.data.shape)
    for part, w in zip(proj, weights):
        part[:] = ad._block_matmul(v.data, w)
    proj[0] += p.b_m1.data

    def bw(g):
        n = g.shape[1]
        x = np.zeros((2 * n, 2 * f + 1))
        x[:n, :f] = v.data
        x[n:, f : 2 * f] = v.data
        return (
            ad._Rows(np.concatenate([g[0], g[2]]), x),  # w_m1
            g[0].sum(axis=0),  # b_m1
            ad._Rows(g[1], v.data),  # w_a1
            ad._Rows(g[3], v.data),  # w_a2
            sum(g_k @ w for g_k, w in zip(g, weights)),  # v
        )

    return ad._make(proj, (p.w_m1, p.b_m1, p.w_a1, p.w_a2, v), bw)


def _content_rank(frame: GraphFrame, v: np.ndarray) -> np.ndarray:
    """Rank of each node by (cx, cy, w, h, bytes of its node feature); nodes
    equal in all of these share a rank."""
    keys = []
    for i, row in zip(frame.ids, v):
        b = frame.boxes[i]
        keys.append((b.cx, b.cy, b.w, b.h, row.tobytes()))
    rank = np.empty(len(keys), dtype=np.intp)
    prev, r = None, -1
    for n in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[n] != prev:
            prev, r = keys[n], r + 1
        rank[n] = r
    return rank


def _run_nodes(
    params: RemParameters, graph: SpatioTemporalGraph, t: int, stop: int, state: RemState
) -> _Nodes:
    """Node features of frames t..stop-1 continuing from ``state``, one
    input affine and one ``gru_scan`` over all rows, with their projections
    and sender segments. An instance continues its recurrence iff it is in
    the frame before: for frame t, in ``state.ids``, whose boxes are frame
    t-1's."""
    frames = graph.frames[t:stop]
    h0 = state.v if state.v is not None else Tensor(np.zeros((0, params.dim)))
    m = len(h0.data)
    rows = {i: m - len(state.ids) + q for q, i in enumerate(state.ids)}  # rows of the frame before
    before = graph.frames[t - 1].boxes if state.ids else {}
    prev, now, then = [], [], []
    for frame in frames:
        for i in frame.ids:
            prev.append(rows.get(i, -1))
            now.append(frame.boxes[i])
            then.append(before[i] if i in rows else frame.boxes[i])  # zero offset for a start
        rows = {i: m + len(prev) - len(frame.ids) + q for q, i in enumerate(frame.ids)}
        before = frame.boxes
    bounds = np.cumsum([0] + [len(frame.ids) for frame in frames])
    ids = np.array([i for frame in frames for i in frame.ids], dtype=np.intp)
    prev = np.array(prev, dtype=np.intp)
    boxes, prev_boxes = (np.array([(b.cx, b.cy, b.w, b.h) for b in bs]).reshape(-1, 4) for bs in (now, then))
    scaled = np.concatenate([boxes, boxes - prev_boxes], axis=1) / INPUT_SCALE
    x = ad.leaky_relu(ad.affine_rows(params.w_in, Tensor(scaled), params.b_in), SIGMA_SLOPE)
    v = ad.gru_scan(params.gru_in, x, h0, prev, bounds)
    return _Nodes(ids, bounds, prev, v, _project(params, v), *_sender_segments(frames, bounds, v.data))


def _sender_segments(
    frames: Sequence[GraphFrame], bounds: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_Nodes.senders``, ``distances`` and ``start`` of the node rows ``v``
    of ``frames``, whose rows are ``bounds[k]:bounds[k + 1]``.

    Both directions of every frame's edges are ordered by one sort on
    (receiver row, distance, sender content rank, sender row). The receiver
    comes first, so a segment never spans frames, and content ranks are
    taken within each frame. Senders that reach the last key are equal in
    distance, box and node feature, so they give identical rows; the key
    only fixes their order to ascending id.
    """
    a, b = np.concatenate([frame.edges + at for frame, at in zip(frames, bounds)]).T
    receivers = np.concatenate([a, b])
    senders = np.concatenate([b, a])
    distance = np.concatenate([frame.edge_distance for frame in frames])
    distances = np.concatenate([distance, distance])
    rank = np.concatenate(
        [_content_rank(frame, v[at:end]) for frame, at, end in zip(frames, bounds, bounds[1:])]
    )
    order = np.lexsort((senders, rank[senders], distances, receivers))
    start = np.searchsorted(receivers[order], np.arange(len(v) + 1))
    return senders[order], distances[order], start


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    # for 0 < slope < 1 the same bits as np.where(x >= 0, x, slope * x)
    out = slope * x
    return np.maximum(x, out, out=out)


def _slope(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, 1.0, slope)


class _Block(NamedTuple):
    """Message rows: one per (receiver, sender) pair."""

    a1: np.ndarray
    hidden: np.ndarray
    a2: np.ndarray
    msgs: np.ndarray
    query: np.ndarray
    keys: np.ndarray
    scores: np.ndarray
    logits: np.ndarray


def _message_block(
    params: RemParameters,
    proj: np.ndarray,
    receivers: np.ndarray,
    senders: np.ndarray,
    distances: np.ndarray,
) -> _Block:
    """The maths of ``message`` and ``attention_coefficients`` for every
    (receiver, sender, distance) row, from the two nodes' ``_Nodes.proj``
    rows; only the second message layer is a matrix product."""
    p, f = params, params.dim
    a1 = proj[2, senders]
    a1 += proj[0, receivers]
    a1 += distances[:, None] * p.w_m1.data[:, 2 * f]
    hidden = _leaky(a1, SIGMA_SLOPE)
    a2 = ad._block_matmul(hidden, p.w_m2.data)
    a2 += p.b_m2.data
    msgs = _leaky(a2, SIGMA_SLOPE)
    query, keys = proj[1, receivers], proj[3, senders]
    scores = np.einsum("ij,ij->i", keys, query)
    return _Block(a1, hidden, a2, msgs, query, keys, scores, _leaky(scores, ATTENTION_SLOPE))


def _segment_softmax_sum(
    logits: np.ndarray, msgs: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights within each segment ``start[s]:start[s + 1]`` of
    the rows, and each segment's weighted sum of ``msgs``; a zero row for an
    empty segment. A segment's numbers depend on its own rows alone."""
    lengths = np.diff(start)
    linked = lengths > 0
    heads = start[:-1][linked]
    segment = np.repeat(np.arange(len(heads)), lengths[linked])
    exps = np.exp(logits - np.maximum.reduceat(logits, heads)[segment])
    alphas = exps / np.add.reduceat(exps, heads)[segment]
    sums = np.zeros((len(lengths), msgs.shape[1]))
    sums[linked] = np.add.reduceat(alphas[:, None] * msgs, heads, axis=0)
    return alphas, sums


def _chunks(start: np.ndarray):
    """(first, end, receivers) of consecutive receiver ranges whose sender
    segments hold about ``CHUNK_ROWS`` rows together; a segment is never
    split, so one longer than a chunk is a chunk of its own."""
    n = len(start) - 1
    first = 0
    while first < n:
        end = int(np.searchsorted(start, start[first] + CHUNK_ROWS, side="right")) - 1
        end = min(max(end, first + 1), n)
        yield first, end, np.repeat(np.arange(first, end), np.diff(start[first : end + 1]))
        first = end


def _aggregate(params: RemParameters, nodes: _Nodes) -> Tensor:
    """sum_j alpha_ij m_ij for every receiver i of the run (a zero row for
    a node without neighbors), as one tape node.

    The forward runs chunk by chunk and keeps only the sums; the backward
    computes each chunk's rows again instead of holding the whole run's.
    Weight gradients come back as row factors: one row per message for
    ``w_m2``, and one row for the distance column of ``w_m1``.
    """
    p, f = params, params.dim
    proj = nodes.proj.data
    start, senders, distances = nodes.start, nodes.senders, nodes.distances

    def chunk_rows(first, end, receivers):
        at = slice(start[first], start[end])
        block = _message_block(p, proj, receivers, senders[at], distances[at])
        alphas, sums = _segment_softmax_sum(block.logits, block.msgs, start[first : end + 1] - start[first])
        return at, block, alphas, sums

    out = np.zeros((len(nodes.ids), f))
    for first, end, receivers in _chunks(start):
        out[first:end] = chunk_rows(first, end, receivers)[3]

    def bw(g):
        d_proj = np.zeros_like(proj)
        d_distance = np.zeros(f)
        d_a2s, hiddens = [np.zeros((0, f))], [np.zeros((0, f))]  # a run may have no messages
        for first, end, receivers in _chunks(start):
            at, block, alphas, _ = chunk_rows(first, end, receivers)
            g_rows = g[receivers]
            d_alphas = np.einsum("ij,ij->i", block.msgs, g_rows)
            inner = np.zeros(len(g))
            np.add.at(inner, receivers, alphas * d_alphas)
            d_scores = alphas * (d_alphas - inner[receivers]) * _slope(block.scores, ATTENTION_SLOPE)
            d_a2 = alphas[:, None] * g_rows * _slope(block.a2, SIGMA_SLOPE)
            d_a1 = (d_a2 @ p.w_m2.data) * _slope(block.a1, SIGMA_SLOPE)
            np.add.at(d_proj[0], receivers, d_a1)
            np.add.at(d_proj[1], receivers, d_scores[:, None] * block.keys)
            np.add.at(d_proj[2], senders[at], d_a1)
            np.add.at(d_proj[3], senders[at], d_scores[:, None] * block.query)
            d_distance += distances[at] @ d_a1
            d_a2s.append(d_a2)
            hiddens.append(block.hidden)
        distance_column = np.zeros(2 * f + 1)
        distance_column[2 * f] = 1.0
        d_a2 = np.concatenate(d_a2s)
        return (
            ad._Rows(d_distance, distance_column),  # w_m1
            ad._Rows(d_a2, np.concatenate(hiddens)),  # w_m2
            d_a2.sum(axis=0),  # b_m2
            d_proj,
        )

    return ad._make(out, (p.w_m1, p.w_m2, p.b_m2, nodes.proj), bw)


def _update(
    params: RemParameters,
    v: Tensor,
    aggregated: Tensor,
    h0: Tensor,
    prev: np.ndarray,
    bounds: np.ndarray,
) -> Tensor:
    """``spatiotemporal_update`` for every row of a run: one affine over all
    rows, then the relation GRU as one ``gru_scan``."""
    u = ad.leaky_relu(ad.affine_rows(params.w_u, ad.concat([v, aggregated]), params.b_u), SIGMA_SLOPE)
    return ad.gru_scan(params.gru_rel, u, h0, prev, bounds)


def rem_step(
    params: RemParameters,
    state: RemState,
    graph: SpatioTemporalGraph,
    t: int,
    stop: int | None = None,
) -> list[RelationEmbedding]:
    """Advance the module through frames t..stop-1 of the graph as one run
    (frame t alone by default), and return their embeddings frame by frame.

    New instances start from zero hidden states; departed instances are
    dropped. The state must hold exactly the instances of frame t-1, whose
    boxes give each continuing instance's offset. Afterwards it holds the
    run; a run gives every frame the bits that one call per frame gives it.
    """
    stop = t + 1 if stop is None else stop
    if not 0 <= t < stop <= graph.n_frames:
        raise ValueError(f"cannot run frames {t} to {stop - 1} of a graph of {graph.n_frames} frames")
    prev_ids = graph.frames[t - 1].ids if t > 0 else ()
    if state.ids != prev_ids:
        raise ValueError(
            f"state instances {sorted(state.ids)} do not match frame {t - 1} "
            f"instances {sorted(prev_ids)}"
        )
    nodes = _run_nodes(params, graph, t, stop, state)
    r0 = state.r if state.r is not None else Tensor(np.zeros((0, params.dim)))
    r = _update(params, nodes.v, _aggregate(params, nodes), r0, nodes.prev, nodes.bounds)
    state.frames = tuple(frame.ids for frame in graph.frames[t:stop])
    state.v, state.r, state.bounds, state.first = nodes.v, r, tuple(nodes.bounds.tolist()), t
    rows = r.data.copy()
    return [
        RelationEmbedding(i, t + k, row)
        for k, frame in enumerate(graph.frames[t:stop])
        for i, row in zip(frame.ids, rows[nodes.bounds[k] : nodes.bounds[k + 1]])
    ]


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


def _canonical_senders(nodes: _Nodes, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the senders of the receiver at position ``p``, in the
    canonical order, and their distances to it."""
    at = slice(nodes.start[p], nodes.start[p + 1])
    return nodes.senders[at], nodes.distances[at]


def _leave_one_out(
    params: RemParameters, nodes: _Nodes, receivers: Sequence[int]
) -> list[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """For each of ``receivers``, instances with neighbors at the last frame
    of the window ``nodes`` (a run from zero states): its relation embedding
    there, replayed over the window, and for each neighbor j of it there the
    embedding with j removed at every step.

    Every receiver owns one full row and one drop row per neighbor, in its
    canonical neighbor order at the last frame. At each frame a receiver's
    message rows are computed once; its full row aggregates all of them, and
    the drop row of each neighbor j that is present aggregates all but j's,
    in one ``_segment_softmax_sum``. Aggregates never depend on relation
    embeddings, so every row of every frame is then updated by one affine
    and one ``gru_scan``: a row continues from its own row at the frame
    before if its receiver was there, and from zeros otherwise, since an
    absence of the receiver resets all its rows. Until j first reaches i,
    j's drop row has the same inputs as i's full row and so the same bits;
    the full row has the bits ``rem_step`` gives it, and no row depends on
    the other rows, so relabeling ids cannot change a value.
    """
    if not receivers:
        return []
    last = int(nodes.bounds[-2])
    drops = [
        nodes.ids[_canonical_senders(nodes, last + int(np.searchsorted(nodes.ids[last:], i)))[0]].tolist()
        for i in receivers
    ]
    v_rows, aggregated, prev, bounds = [], [], [], [0]
    n_rows = 0
    at: list[int | None] = [None] * len(receivers)  # each receiver's first row at the frame before
    for a, b in zip(nodes.bounds[:-1], nodes.bounds[1:]):
        frame_ids, here = nodes.ids[a:b], [None] * len(receivers)
        for n, (i, own) in enumerate(zip(receivers, drops)):
            p = int(np.searchsorted(frame_ids, i))
            if p == len(frame_ids) or frame_ids[p] != i:
                continue  # absence breaks the recurrence
            p += a
            senders, distances = _canonical_senders(nodes, p)
            k = len(senders)
            block = _message_block(params, nodes.proj.data, np.full(k, p), senders, distances)
            row_of = {j: row for row, j in enumerate(nodes.ids[senders].tolist())}
            present = [(d, row_of[j]) for d, j in enumerate(own) if j in row_of]
            keep = np.ones((len(present), k), dtype=bool)
            keep[np.arange(len(present)), [row for _, row in present]] = False
            rows = np.concatenate([np.arange(k), np.nonzero(keep)[1]])
            start = np.concatenate([[0, k], k + (k - 1) * np.arange(1, len(present) + 1)])
            sums = _segment_softmax_sum(block.logits[rows], block.msgs[rows], start)[1]
            width = 1 + len(own)
            agg = np.repeat(sums[:1], width, axis=0)
            agg[[1 + d for d, _ in present]] = sums[1:]
            prev.append(np.arange(at[n], at[n] + width) if at[n] is not None else np.full(width, -1))
            here[n] = n_rows
            n_rows += width
            v_rows.append(np.repeat(nodes.v.data[p : p + 1], width, axis=0))
            aggregated.append(agg)
        at = here
        bounds.append(n_rows)
    r = _update(
        params,
        Tensor(np.concatenate(v_rows)),
        Tensor(np.concatenate(aggregated)),
        Tensor(np.zeros((0, params.dim))),
        np.concatenate(prev),
        np.array(bounds),
    ).data
    return [(r[a], dict(zip(own, r[a + 1 : a + 1 + len(own)]))) for own, a in zip(drops, at)]


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
            nodes = _run_nodes(params, graph, max(0, t - window + 1), t + 1, RemState())
            start = nodes.start[nodes.bounds[-2] :]
            receivers = [i for p, i in enumerate(graph.frames[t].ids) if start[p] < start[p + 1]]
            for i, (r_full, r_drops) in zip(receivers, _leave_one_out(params, nodes, receivers)):
                records += [(t, i, j, _phi(r_full, r_drops[j])) for j in sorted(r_drops)]
    return records
