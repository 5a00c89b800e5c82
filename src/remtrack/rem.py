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
the same code. ``message`` is REM's message function and
``attention_coefficients`` its attention weights, both over rows; the test
oracles keep the same maths one node or one sender at a time.

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
  It is one ``lexsort`` per frame over the box columns and a void view of
  the feature rows, whose order is that of the rows' bytes; ``-0.0`` and
  ``0.0`` tie in a box column, as they do as numbers.
  One ``argsort`` per run, over both directions of every frame's edge
  arrays, puts every receiver's senders in that order as one contiguous
  segment. Its key packs (receiver row, dense rank of the distance, the
  sender's place by content rank and row) into one int64, distinct for
  every row; the receiver's row is the first field, so a segment never
  spans frames. Neighbors equal in both keys give identical rows; the last
  field puts them in ascending id order only so that each segment is fully
  determined.
* The attention weights of a run come from one ``attention_coefficients``
  over the attention logits of all its message rows; a segment's weights
  depend on its own logits alone. The message rows run in chunks of whole segments,
  about ``CHUNK_ROWS`` rows each, which only bounds the working set: each
  segment's weighted sum (``reduceat``) depends on the segment's own rows,
  not on where it sits in its chunk.

Relation importance replays the trailing window of each requested frame
from zero states. The windows of many frames run as one stack, a disjoint
union aligned at their last frame: step s of the stack holds every window's
frame at that step, with instances keyed per window, so no edge and no
recurrence crosses windows. Node features never depend on relation
embeddings, so one run gives the node features, projections and sender
segments of every window, shared by all of its receivers. Every receiver's
message rows at every step are computed once (``message``); its full row
and each leave-one-out drop re-weight them in one ``_segment_softmax_sum``
over all segments of the stack, and one affine and one ``gru_scan`` update
every full and drop row of every step (once per batch of receivers where a
window over the budget below is split). Every row function is row-local, and
content ranks keep their order within a window, so each record has the bits
its window alone gives it, and the full replay equals ``rem_step`` bit for
bit. ``STACK_ROWS`` caps the rows of a stack and of each leave-one-out
batch in it, which bounds the working set of a long or dense sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruCellParams, ParameterStore, Tensor
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

# Rows of one relation-importance stack, and of one leave-one-out batch in
# it (``_window_rows``): a long sequence runs as several stacks and a dense
# window as several batches, which bounds the working set (about 8 MB at
# dim 128).
STACK_ROWS = 4096


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
    instances ``frames[k]``, an ascending id array, at rows ``bounds[k]``
    onwards. Before the first run ``v`` and ``r`` are None. Boxes are read
    from the graph, not kept here."""

    frames: tuple[np.ndarray, ...] = ()
    v: Tensor | None = None
    r: Tensor | None = None
    bounds: tuple[int, ...] = (0,)
    first: int = 0

    @property
    def ids(self) -> np.ndarray:
        """The instances of the run's last frame."""
        return self.frames[-1] if self.frames else np.zeros(0, dtype=np.intp)

    def embedding(self, ids, t=None) -> Tensor:
        """Relation embeddings of instances ``ids`` at frames ``t`` of the
        run (its last frame by default), as one gather node on ``r``: a row
        for one id, a matrix of rows for a sequence of ids. The first absent
        (id, frame), in the order of ``ids``, raises ``KeyError``."""
        ids = np.asarray(ids, dtype=np.intp)
        flat = ids.ravel()
        ks = np.broadcast_to(len(self.frames) - 1 if t is None else np.asarray(t) - self.first, ids.shape).ravel()
        rows = np.full(len(flat), -1, dtype=np.intp)
        for k, frame in enumerate(self.frames):
            at = np.flatnonzero(ks == k)
            p = np.searchsorted(frame, flat[at])
            found = p < len(frame)
            found[found] = frame[p[found]] == flat[at[found]]
            rows[at[found]] = self.bounds[k] + p[found]
        if np.any(rows < 0):
            a = int(np.argmax(rows < 0))
            raise KeyError((int(flat[a]), int(ks[a]) + self.first))
        return ad.take(self.r, rows.reshape(ids.shape))


@dataclass(frozen=True)
class RelationEmbedding:
    instance: int
    t: int
    vector: np.ndarray


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


def _content_rank(boxes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rank of each node by (cx, cy, w, h, bytes of its node feature), from
    its (n, 4) box and (n, f) feature rows; nodes equal in all of these share
    a rank."""
    v = np.ascontiguousarray(v)
    content = v.view(np.dtype((np.void, v.itemsize * v.shape[1])))[:, 0]
    order = np.lexsort((content, *boxes.T[::-1]))
    boxes, words = boxes[order], v.view(np.uint64)[order]
    changed = np.any(boxes[1:] != boxes[:-1], axis=1) | np.any(words[1:] != words[:-1], axis=1)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.concatenate([[0], np.cumsum(changed)])
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
    bounds = np.cumsum([0] + [len(frame.ids) for frame in frames])
    ids = np.concatenate([frame.ids for frame in frames])
    boxes = np.concatenate([frame.boxes for frame in frames])
    prev = np.full(len(ids), -1, dtype=np.intp)
    prev_boxes = boxes.copy()  # zero offset for a start
    # the frame before each frame of the run, and where its rows start
    before, at = (graph.frames[t - 1], m - len(state.ids)) if len(state.ids) else (None, 0)
    for k, frame in enumerate(frames):
        if before is not None and len(before.ids):
            p = np.minimum(np.searchsorted(before.ids, frame.ids), len(before.ids) - 1)
            kept = np.flatnonzero(before.ids[p] == frame.ids)
            prev[bounds[k] + kept] = at + p[kept]
            prev_boxes[bounds[k] + kept] = before.boxes[p[kept]]
        before, at = frame, m + bounds[k]
    scaled = np.concatenate([boxes, boxes - prev_boxes], axis=1) / INPUT_SCALE
    x = ad.leaky_relu(ad.affine_rows(params.w_in, Tensor(scaled), params.b_in), SIGMA_SLOPE)
    v = ad.gru_scan(params.gru_in, x, h0, prev, bounds)
    return _Nodes(ids, bounds, prev, v, _project(params, v), *_sender_segments(frames, bounds, v.data))


def _sender_segments(
    frames: Sequence[GraphFrame], bounds: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_Nodes.senders``, ``distances`` and ``start`` of the node rows ``v``
    of ``frames``, whose rows are ``bounds[k]:bounds[k + 1]``.

    Both directions of every frame's edges are ordered by one ``argsort`` of
    a packed key: (receiver row, distance, sender content rank, sender row).
    The distance enters as its dense rank in the run, and the last two as one
    field, the sender's place among the run's rows ordered by frame, content
    rank and row; a receiver's senders share its frame, so that place orders
    them as the two keys do. A row is one (receiver, sender) pair, so every
    key is distinct and the order is that of a ``lexsort`` on the four keys.
    The receiver comes first, so a segment never spans frames, and content
    ranks are taken within each frame. Senders that reach the last key are
    equal in distance, box and node feature, so they give identical rows;
    the key only fixes their order to ascending id.
    """
    a, b = np.concatenate([frame.edges + at for frame, at in zip(frames, bounds)]).T
    receivers = np.concatenate([a, b])
    senders = np.concatenate([b, a])
    distance = np.concatenate([frame.edge_distance for frame in frames])
    distances = np.concatenate([distance, distance])
    levels, level = np.unique(distance, return_inverse=True)
    content = np.concatenate(
        [_content_rank(frame.boxes, v[at:end]) + at for frame, at, end in zip(frames, bounds, bounds[1:])]
    )
    place = np.empty(len(v), dtype=np.intp)
    place[np.argsort(content, kind="stable")] = np.arange(len(v))
    # For n rows and D distinct distances the key is below n * D * n. D is at
    # most the run's edge count, below n * n / 2, so every run of at most
    # 2**16 rows fits in int64, and ``_pack`` rejects a larger run whose key
    # would not.
    key = _pack((receivers, len(v)), (np.concatenate([level, level]), len(levels)), (place[senders], len(v)))
    order = np.argsort(key)
    start = np.searchsorted(receivers[order], np.arange(len(v) + 1))
    return senders[order], distances[order], start


def _pack(*fields: tuple[np.ndarray, int]) -> np.ndarray:
    """One int64 key per row that orders the rows as the tuple of
    ``fields``, most significant first; a field is (values, size), its values
    in ``[0, size)``. A key is below the product of the sizes, which must not
    exceed ``2**63``."""
    if math.prod(int(size) for _, size in fields) > 2**63:
        raise ValueError(f"a sort key over sizes {[int(size) for _, size in fields]} does not fit in int64")
    key = np.zeros(len(fields[0][0]), dtype=np.int64)
    for values, size in fields:
        key *= size
        key += values
    return key


def _leaky(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    # for 0 < slope < 1 the same bits as np.where(x >= 0, x, slope * x)
    scaled = slope * x
    return np.maximum(x, scaled, out=scaled if out is None else out)


def _slope(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, 1.0, slope)


def _scores(
    proj: np.ndarray, receivers: np.ndarray, senders: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The dot product of receiver query and sender key, from the nodes'
    ``_Nodes.proj`` rows, for every (receiver, sender) row: the attention
    logit before its LeakyReLU."""
    return np.einsum("ij,ij->i", proj[3, senders], proj[1, receivers], out=out)


def message(
    params: RemParameters,
    proj: np.ndarray,
    receivers: np.ndarray,
    senders: np.ndarray,
    distances: np.ndarray,
    slopes: bool = False,
):
    """REM's message function over rows: the directed message to each
    receiver from its sender, aware of their distance, for every (receiver,
    sender, distance) row, from the two nodes' ``_Nodes.proj`` rows. Only
    the second layer is a matrix product, and both LeakyReLUs run in place.
    With ``slopes``, returns the hidden rows, the messages, and the slope
    each LeakyReLU took at every entry, which the backward needs."""
    p, f = params, params.dim
    x = proj[2, senders]
    x += proj[0, receivers]
    x += distances[:, None] * np.ascontiguousarray(p.w_m1.data[:, 2 * f])
    s1 = _slope(x, SIGMA_SLOPE) if slopes else None
    hidden = _leaky(x, SIGMA_SLOPE, out=x)
    x = ad._block_matmul(hidden, p.w_m2.data)
    x += p.b_m2.data
    s2 = _slope(x, SIGMA_SLOPE) if slopes else None
    msgs = _leaky(x, SIGMA_SLOPE, out=x)
    return (hidden, msgs, s1, s2) if slopes else msgs


def attention_coefficients(logits: np.ndarray, start: np.ndarray) -> np.ndarray:
    """REM's attention weights within each receiver's segment
    ``start[s]:start[s + 1]`` of ``logits``, a softmax over its senders; a
    segment's weights depend on its own rows alone."""
    lengths = np.diff(start)
    linked = lengths > 0
    heads = start[:-1][linked]
    segment = np.repeat(np.arange(len(heads)), lengths[linked])
    exps = logits - np.maximum.reduceat(logits, heads)[segment]
    np.exp(exps, out=exps)
    exps /= np.add.reduceat(exps, heads)[segment]
    return exps


def _segment_sums(rows: np.ndarray, start: np.ndarray, out: np.ndarray) -> None:
    """Each segment's sum of ``rows`` into its row of ``out``; the row of an
    empty segment is left as it is. A sum depends on its segment's rows
    alone, not on where the segment lies."""
    linked = np.diff(start) > 0
    out[linked] = np.add.reduceat(rows, start[:-1][linked], axis=0)


def _segment_softmax_sum(
    logits: np.ndarray, msgs: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``attention_coefficients`` of the logits, and each segment's weighted sum of
    ``msgs``; a zero row for an empty segment."""
    alphas = attention_coefficients(logits, start)
    sums = np.zeros((len(start) - 1, msgs.shape[1]))
    _segment_sums(alphas[:, None] * msgs, start, sums)
    return alphas, sums


def _chunks(start: np.ndarray):
    """(first, end, rows) of consecutive receiver ranges whose sender
    segments, message rows ``rows``, hold about ``CHUNK_ROWS`` rows together;
    a segment is never split, so one longer than a chunk is a chunk of its
    own."""
    n = len(start) - 1
    first = 0
    while first < n:
        end = int(np.searchsorted(start, start[first] + CHUNK_ROWS, side="right")) - 1
        end = min(max(end, first + 1), n)
        yield first, end, slice(start[first], start[end])
        first = end


def _aggregate(params: RemParameters, nodes: _Nodes) -> Tensor:
    """sum_j alpha_ij m_ij for every receiver i of the run (a zero row for
    a node without neighbors), as one tape node.

    The attention scores of every message row are computed chunk by chunk,
    and one ``attention_coefficients`` over the run gives every weight. The message
    rows then run chunk by chunk, each chunk's weighted sums going straight
    into its output rows. The backward keeps the weights and scores and
    computes each chunk's message rows again instead of holding the whole
    run's. Weight gradients come back as row factors: one row per message
    for ``w_m2``, and one row for the distance column of ``w_m1``.
    """
    p, f = params, params.dim
    proj = nodes.proj.data
    start, senders, distances = nodes.start, nodes.senders, nodes.distances
    receivers = np.repeat(np.arange(len(nodes.ids)), np.diff(start))
    chunks = list(_chunks(start))

    scores = np.empty(len(senders))
    for _, _, at in chunks:
        _scores(proj, receivers[at], senders[at], out=scores[at])
    alphas = attention_coefficients(_leaky(scores, ATTENTION_SLOPE), start)
    out = np.zeros((len(nodes.ids), f))
    for first, end, at in chunks:
        msgs = message(p, proj, receivers[at], senders[at], distances[at])
        msgs *= alphas[at, None]
        _segment_sums(msgs, start[first : end + 1] - start[first], out[first:end])

    def bw(g):
        hidden, d_a2, d_a1 = (np.empty((len(senders), f)) for _ in range(3))
        d_alphas = np.empty(len(senders))
        d_distance = np.zeros(f)
        for _, _, at in chunks:
            hidden[at], msgs, s1, s2 = message(p, proj, receivers[at], senders[at], distances[at], slopes=True)
            g_rows = g[receivers[at]]
            np.einsum("ij,ij->i", msgs, g_rows, out=d_alphas[at])
            d_a2_at = alphas[at, None] * g_rows * s2
            d_a1_at = (d_a2_at @ p.w_m2.data) * s1
            d_distance += distances[at] @ d_a1_at
            d_a2[at], d_a1[at] = d_a2_at, d_a1_at
        by_receiver, by_sender = ad._scatter_ranks(receivers), ad._scatter_ranks(senders)
        inner = np.zeros(len(g))
        ad._add_at(inner, by_receiver, alphas * d_alphas)
        d_scores = alphas * (d_alphas - inner[receivers]) * _slope(scores, ATTENTION_SLOPE)
        d_proj = np.zeros_like(proj)
        ad._add_at(d_proj[0], by_receiver, d_a1)
        ad._add_at(d_proj[2], by_sender, d_a1)
        del d_a1  # frees its rows before the attention's
        ad._add_at(d_proj[1], by_receiver, d_scores[:, None] * proj[3, senders])
        ad._add_at(d_proj[3], by_sender, d_scores[:, None] * proj[1, receivers])
        distance_column = np.zeros(2 * f + 1)
        distance_column[2 * f] = 1.0
        return (
            ad._Rows(d_distance, distance_column),  # w_m1
            ad._Rows(d_a2, hidden),  # w_m2
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
    """REM's spatio-temporal update for every row of a run, in the operation
    order of the per-node ``spatiotemporal_update`` of ``tests/oracles.py``:
    one affine over all rows, then the relation GRU as one ``gru_scan``."""
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
    prev_ids = graph.frames[t - 1].ids if t > 0 else np.zeros(0, dtype=np.intp)
    if not np.array_equal(state.ids, prev_ids):
        raise ValueError(
            f"state instances {state.ids.tolist()} do not match frame {t - 1} instances {prev_ids.tolist()}"
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
        for i, row in zip(frame.ids.tolist(), rows[nodes.bounds[k] : nodes.bounds[k + 1]])
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


def _ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``first[a], ..., first[a] + lengths[a] - 1`` for every a, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - (ends - lengths), lengths)


def _leave_one_out(
    params: RemParameters, nodes: _Nodes, receivers: Sequence[int]
) -> list[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """For each of ``receivers``, ascending ids (keys, in a stack) with
    senders at the last frame of the run ``nodes`` (a run from zero states):
    its relation embedding there, replayed over the run, and for each sender
    j of it there the embedding with j removed at every frame, keyed by j.

    Every receiver owns one full row and one drop row per sender at the last
    frame, in canonical order, at each frame it is in. Each of its message
    rows at a frame is computed once, in one ``message`` over all receivers
    and frames. Its full row aggregates all of them; the drop row
    of each j that is a sender at that frame aggregates all but j's, and
    every other drop row takes the full row's aggregate. All full and drop
    segments go through one ``_segment_softmax_sum``. Aggregates never
    depend on relation embeddings, so every row of every frame is then
    updated by one affine and one ``gru_scan``: a row continues from its own
    row at the frame before if its receiver was there, and from zeros
    otherwise, since an absence of the receiver resets all its rows. Until j
    first reaches i, j's drop row has the same inputs as i's full row and so
    the same bits; the full row has the bits ``rem_step`` gives it, and no
    row depends on the other rows, so relabeling ids cannot change a value.
    """
    receivers = np.asarray(receivers, dtype=np.intp)
    if not len(receivers):
        return []
    degree = np.diff(nodes.start)
    last = int(nodes.bounds[-2])
    at_last = last + np.searchsorted(nodes.ids[last:], receivers)
    # the receivers' rows at every frame, frame by frame, and whose they are
    unit = np.minimum(np.searchsorted(receivers, nodes.ids), len(receivers) - 1)
    rows = np.flatnonzero(receivers[unit] == nodes.ids)
    unit, k, n_drops = unit[rows], degree[rows], degree[at_last][unit[rows]]
    n = len(rows)
    # message rows: each receiver row's senders, in canonical order
    slots = _ranges(nodes.start[rows], k)
    msg_first = np.concatenate([[0], np.cumsum(k)])
    # the message row of each drop j at each receiver row where j is a sender
    pair = np.repeat(np.arange(n), n_drops)
    drop = nodes.ids[nodes.senders[_ranges(nodes.start[at_last[unit]], n_drops)]]
    span = int(nodes.ids.max()) + 1
    code = np.repeat(np.arange(n), k) * span + nodes.ids[nodes.senders[slots]]
    order = np.argsort(code)
    hit = order[np.minimum(np.searchsorted(code[order], pair * span + drop), len(code) - 1)]
    found = code[hit] == pair * span + drop
    gone, owner = hit[found], pair[found]
    lengths = k[owner] - 1
    dropped = _ranges(msg_first[owner], lengths)
    dropped += dropped >= np.repeat(gone, lengths)
    segments = np.concatenate([np.arange(msg_first[-1]), dropped])
    start = np.concatenate([msg_first, msg_first[-1] + np.cumsum(lengths)])
    receiver_rows, sender_rows = np.repeat(rows, k), nodes.senders[slots]
    logits = _leaky(_scores(nodes.proj.data, receiver_rows, sender_rows), ATTENTION_SLOPE)[segments]
    msgs = message(params, nodes.proj.data, receiver_rows, sender_rows, nodes.distances[slots])[segments]
    sums = _segment_softmax_sum(logits, msgs, start)[1]
    del logits, msgs  # frees the gathered rows before the update
    # update rows: per receiver row, the full row, then one drop row per sender at the last frame
    width = 1 + n_drops
    first = np.concatenate([[0], np.cumsum(width)])
    aggregated = sums[np.repeat(np.arange(n), width)]
    slot = np.arange(len(pair)) - np.repeat(np.cumsum(n_drops) - n_drops, n_drops)
    aggregated[first[owner] + 1 + slot[found]] = sums[n:]
    before = nodes.prev[rows]
    prev = _ranges(first[np.searchsorted(rows, before)], width)
    prev[np.repeat(before < 0, width)] = -1
    r = _update(
        params,
        Tensor(nodes.v.data[np.repeat(rows, width)]),
        Tensor(aggregated),
        Tensor(np.zeros((0, params.dim))),
        prev,
        first[np.searchsorted(rows, nodes.bounds)],
    ).data
    out = []
    for p, a in zip(at_last, first[n - len(receivers) : n]):
        own = nodes.ids[nodes.senders[nodes.start[p] : nodes.start[p + 1]]]
        out.append((r[a], dict(zip(own.tolist(), r[a + 1 : a + 1 + len(own)]))))
    return out


def _window_rows(
    graph: SpatioTemporalGraph, t0: int, t: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The receivers of the window t0..t, the instances with neighbors at t,
    ascending; the rows each adds to a stack; and the window's node rows.

    A receiver with D neighbors at t adds, at each frame of the window where
    it has k neighbors, at most (1 + D)(1 + k) rows: its 1 + D update rows
    and the k + d(k - 1) <= k(1 + D) rows of its full and drop segments.
    """
    def linked(s):
        frame = graph.frames[s]
        return frame.ids, np.bincount(frame.edges.ravel(), minlength=len(frame.ids))

    ids, degree = linked(t)
    receivers, width = ids[degree > 0], 1 + degree[degree > 0]
    cost = np.zeros(len(receivers), dtype=np.intp)
    node_rows = 0
    for s in range(t0, t + 1):
        ids, degree = linked(s)
        node_rows += len(ids)
        if len(ids):
            p = np.minimum(np.searchsorted(ids, receivers), len(ids) - 1)
            cost += np.where(ids[p] == receivers, width * (1 + degree[p]), 0)
    return receivers, cost, node_rows


def _stacks(graph: SpatioTemporalGraph, frames: Sequence[int], window: int):
    """The frames' windows as stacks of (t0, t, receivers, rows) in record
    order (``_window_rows``). A window joins the current stack while the
    stack's rows stay within ``STACK_ROWS``, and else starts the next one; a
    window over the budget is a stack of its own. A window without
    receivers has no records and is left out."""
    stack, rows = [], 0
    for t in frames:
        t0 = max(0, t - window + 1)
        receivers, cost, node_rows = _window_rows(graph, t0, t)
        if not len(receivers):
            continue
        size = node_rows + int(cost.sum())
        if stack and rows + size > STACK_ROWS:
            yield stack
            stack, rows = [], 0
        stack.append((t0, t, receivers, cost))
        rows += size
    if stack:
        yield stack


def _batches(cost: np.ndarray):
    """Slices of consecutive receivers whose rows add up to at most
    ``STACK_ROWS``; a receiver over the budget is a batch of its own."""
    ends = np.cumsum(cost)
    first = 0
    while first < len(cost):
        end = int(np.searchsorted(ends, ends[first] - cost[first] + STACK_ROWS, side="right"))
        end = max(end, first + 1)
        yield slice(first, end)
        first = end


def _stack_graph(
    graph: SpatioTemporalGraph, stack: Sequence[tuple[int, int, np.ndarray, np.ndarray]]
) -> tuple[SpatioTemporalGraph, np.ndarray, list[tuple[int, np.ndarray]]]:
    """The windows t0..t of ``stack`` as one graph, a disjoint union aligned
    at their last frame: with ``steps`` frames in the longest window, frame s
    of the stack holds frame t - (steps - 1) + s of every window that has
    it. A window keys its instance ``ids[q]`` as ``base + q``, its ids
    ascending and bases ascending by window, so no edge and no recurrence
    crosses windows, and keys keep the order of ids within a window.

    The frames are made from the graph's own ids, boxes and edge arrays.
    Returns the stack, the keys of every part's receivers, and each
    window's (base, ids).
    """
    steps = max(t - t0 for t0, t, *_ in stack) + 1
    parts: list[list] = [[] for _ in range(steps)]
    keyed, receivers, base = [], [], 0
    for t0, t, part, _ in stack:
        window = graph.frames[t0 : t + 1]
        ids = np.unique(np.concatenate([frame.ids for frame in window]))
        for s, frame in enumerate(window, start=steps - len(window)):
            parts[s].append((base + np.searchsorted(ids, frame.ids), frame))
        keyed.append((base, ids))
        receivers.append(base + np.searchsorted(ids, part))
        base += len(ids)
    frames = []
    for part in parts:
        at = np.cumsum([0] + [len(frame.ids) for _, frame in part])
        frames.append(
            GraphFrame(
                ids=np.concatenate([keys for keys, _ in part]),
                boxes=np.concatenate([frame.boxes for _, frame in part]),
                edges=np.concatenate([frame.edges + a for (_, frame), a in zip(part, at)]),
                edge_distance=np.concatenate([frame.edge_distance for _, frame in part]),
            )
        )
    return SpatioTemporalGraph(graph.d_th, frames), np.concatenate(receivers), keyed


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
    by frame, in the order of ``frames`` (every frame by default), then i by
    ascending id, then j, i's spatial neighbors at t, by ascending id.

    The windows of the frames run as stacks (``_stack_graph``): each stack
    is one ``_run_nodes`` and one ``_leave_one_out`` per batch of receivers
    (one batch unless the stack is a window over ``STACK_ROWS``), and gives
    every record the bits its window alone gives it.
    """
    if window < 1:
        raise ValueError(f"relation importance window must be >= 1, got {window}")
    frames = range(graph.n_frames) if frames is None else list(frames)
    for t in frames:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < graph.n_frames:
            raise ValueError(f"frame {t!r} is not a frame index of a graph of {graph.n_frames} frames")
    records: list[tuple[int, int, int, float]] = []
    with ad.no_grad():
        for stack in _stacks(graph, [int(t) for t in frames], window):
            stacked, receivers, keyed = _stack_graph(graph, stack)
            nodes = _run_nodes(params, stacked, 0, stacked.n_frames, RemState())
            cost = np.concatenate([cost for *_, cost in stack])
            out = (r for batch in _batches(cost) for r in _leave_one_out(params, nodes, receivers[batch]))
            for (base, ids), (_, t, part, _) in zip(keyed, stack):
                for i, (r_full, r_drops) in zip(part.tolist(), out):
                    records += [(t, i, int(ids[j - base]), _phi(r_full, r_drops[j])) for j in sorted(r_drops)]
    return records
