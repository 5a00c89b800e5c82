"""Relation encoding: recurrent graph-attention message passing over tracks.

Each frame, every tracked instance turns its box and positional offset into a
node feature through an input GRU, exchanges messages with spatially adjacent
instances, aggregates them with dot-product attention, and folds the result
into a per-instance relation embedding through a second GRU. Temporal edges
are realized by the GRU recurrences; attention only ever runs over spatial
neighbors.

Each receiver's messages, attention and aggregation run as one fused tape
node over its k neighbors, taken in a canonical order that depends only on
content (distance, box, then node feature), never on instance ids; neighbors
equal in all of these give identical rows. Node-level work (``node_feature``,
``spatiotemporal_update``) stays per node, so a node's numbers never depend
on how many other nodes share its frame. Together these make relabeling
instances permute the outputs bitwise, and leave an isolated instance's
embedding bitwise independent of the rest of the scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
DEFAULT_INPUT_SCALE = 10.0


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
    input_scale: float = DEFAULT_INPUT_SCALE

    @classmethod
    def create(
        cls,
        store: ParameterStore,
        dim: int = DEFAULT_DIM,
        rng: np.random.Generator | None = None,
        prefix: str = "rem",
        input_scale: float = DEFAULT_INPUT_SCALE,
    ) -> "RemParameters":
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if input_scale <= 0:
            raise ValueError("input scale must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            w_in=store.matrix(f"{prefix}.w_in", dim, BOX_FEATURES, rng),
            b_in=store.zeros(f"{prefix}.b_in", dim),
            gru_in=GruCellParams.create(store, f"{prefix}.gru_in", dim, dim, rng),
            w_m1=store.matrix(f"{prefix}.w_m1", dim, 2 * dim + 1, rng),
            b_m1=store.zeros(f"{prefix}.b_m1", dim),
            w_m2=store.matrix(f"{prefix}.w_m2", dim, dim, rng),
            b_m2=store.zeros(f"{prefix}.b_m2", dim),
            w_a1=store.matrix(f"{prefix}.w_a1", dim, dim, rng),
            w_a2=store.matrix(f"{prefix}.w_a2", dim, dim, rng),
            w_u=store.matrix(f"{prefix}.w_u", dim, 2 * dim, rng),
            b_u=store.zeros(f"{prefix}.b_u", dim),
            gru_rel=GruCellParams.create(store, f"{prefix}.gru_rel", dim, dim, rng),
            dim=dim,
            input_scale=input_scale,
        )


@dataclass
class RemState:
    """Recurrent per-instance state: node hidden v, relation embedding r,
    and the box from the previous frame. Keys are exactly the live ids."""

    v: dict[int, Tensor] = field(default_factory=dict)
    r: dict[int, Tensor] = field(default_factory=dict)
    prev_box: dict[int, BoundingBox] = field(default_factory=dict)

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
    starts at zeros. Coordinates enter divided by ``params.input_scale``.
    """
    p = box.as_array()
    offset = p - prev_box.as_array() if prev_box is not None else np.zeros(4)
    scaled = np.concatenate([p, offset]) / params.input_scale
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


def _node_features(
    params: RemParameters,
    frame: GraphFrame,
    prev_boxes: Mapping[int, BoundingBox],
    prev_v: Mapping[int, Tensor],
) -> dict[int, Tensor]:
    """Node features of every instance in ``frame``; an instance continues its
    recurrence only if it has a hidden state in ``prev_v``."""
    return {
        i: node_feature(params, frame.boxes[i], prev_boxes[i], prev_v[i])
        if i in prev_v
        else node_feature(params, frame.boxes[i], None, None)
        for i in frame.ids
    }


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def _attend(
    params: RemParameters, v_i: Tensor, senders: Sequence[Tensor], distances: np.ndarray
) -> Tensor:
    """sum_j alpha_ij m_ij over receiver i's k senders, as one tape node.

    The maths of ``message`` and ``attention_coefficients`` followed by the
    weighted sum, with the k senders stacked as rows X = [v_i || v_j || d_ij]:
    every per-sender product is one k-row matrix product, and so is every
    weight gradient in the backward closure.
    """
    p, f = params, params.dim
    x = np.empty((len(senders), 2 * f + 1))
    x[:, :f] = v_i.data
    for row, v_j in enumerate(senders):
        x[row, f : 2 * f] = v_j.data
    x[:, 2 * f] = distances
    v_n = x[:, f : 2 * f]
    a1 = x @ p.w_m1.data.T + p.b_m1.data
    hidden = _leaky(a1, SIGMA_SLOPE)
    a2 = hidden @ p.w_m2.data.T + p.b_m2.data
    msgs = _leaky(a2, SIGMA_SLOPE)
    query = p.w_a1.data @ v_i.data
    keys = v_n @ p.w_a2.data.T
    scores = keys @ query
    logits = _leaky(scores, ATTENTION_SLOPE)
    exps = np.exp(logits - np.max(logits))
    alphas = exps / np.sum(exps)
    out = alphas @ msgs

    def bw(g):
        d_alphas = msgs @ g
        d_scores = alphas * (d_alphas - alphas @ d_alphas) * np.where(scores >= 0, 1.0, ATTENTION_SLOPE)
        d_query = d_scores @ keys
        d_a2 = np.outer(alphas, g) * np.where(a2 >= 0, 1.0, SIGMA_SLOPE)
        d_a1 = (d_a2 @ p.w_m2.data) * np.where(a1 >= 0, 1.0, SIGMA_SLOPE)
        d_x = d_a1 @ p.w_m1.data
        d_senders = d_x[:, f : 2 * f] + np.outer(d_scores, query @ p.w_a2.data)
        return (
            d_a1.T @ x,  # w_m1
            d_a1.sum(axis=0),  # b_m1
            d_a2.T @ hidden,  # w_m2
            d_a2.sum(axis=0),  # b_m2
            np.outer(d_query, v_i.data),  # w_a1
            np.outer(query, d_scores @ v_n),  # w_a2
            d_x[:, :f].sum(axis=0) + p.w_a1.data.T @ d_query,  # v_i
            *d_senders,
        )

    return ad._make(out, (p.w_m1, p.b_m1, p.w_m2, p.b_m2, p.w_a1, p.w_a2, v_i, *senders), bw)


def _relation_update(
    params: RemParameters,
    frame: GraphFrame,
    v: Mapping[int, Tensor],
    i: int,
    r_prev: Tensor | None,
    exclude: int | None = None,
) -> Tensor:
    """Relation embedding of instance i: attention over messages from its
    spatial neighbors, less ``exclude``, then the spatiotemporal update.

    Neighbors enter in the canonical order (distance, box, node feature)."""
    keyed = []
    for j in frame.neighbors[i]:
        if j != exclude:
            b = frame.boxes[j]
            keyed.append(((frame.distance(i, j), b.cx, b.cy, b.w, b.h, v[j].data.tobytes()), j))
    if keyed:
        keyed.sort(key=lambda pair: pair[0])
        aggregated = _attend(
            params, v[i], [v[j] for _, j in keyed], np.array([key[0] for key, _ in keyed])
        )
    else:
        aggregated = Tensor(np.zeros(params.dim))
    return spatiotemporal_update(params, v[i], aggregated, r_prev)


def rem_step(
    params: RemParameters,
    state: RemState,
    graph: SpatioTemporalGraph,
    t: int,
) -> list[RelationEmbedding]:
    """Advance the module through frame t of the graph.

    New instances start from zero hidden states; departed instances are
    dropped. The state must hold exactly the instances of frame t-1.
    """
    frame = graph.frames[t]
    prev_ids = set(graph.frames[t - 1].ids) if t > 0 else set()
    if state.live() != prev_ids:
        raise ValueError(
            f"state instances {sorted(state.live())} do not match frame {t - 1} "
            f"instances {sorted(prev_ids)}"
        )
    v = _node_features(params, frame, state.prev_box, state.v)
    r = {i: _relation_update(params, frame, v, i, state.r.get(i)) for i in frame.ids}
    state.v = v
    state.r = r
    state.prev_box = dict(frame.boxes)
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
) -> list[dict[int, Tensor]]:
    """Node features for frames [t-window+1, t], zero states at window start."""
    t0 = max(0, t - window + 1)
    out: list[dict[int, Tensor]] = []
    for s in range(t0, t + 1):
        prev_boxes = graph.frames[s - 1].boxes if s > t0 else {}
        out.append(_node_features(params, graph.frames[s], prev_boxes, out[-1] if out else {}))
    return out


def _replay_relation(
    params: RemParameters,
    graph: SpatioTemporalGraph,
    t: int,
    window: int,
    instance: int,
    feats: list[dict[int, Tensor]],
    exclude: int | None,
) -> np.ndarray:
    """Relation embedding of ``instance`` at t from a window replay, with
    ``exclude`` removed from its neighbor set at every step."""
    t0 = max(0, t - window + 1)
    r: Tensor | None = None
    for s in range(t0, t + 1):
        frame = graph.frames[s]
        if instance in frame.boxes:
            r = _relation_update(params, frame, feats[s - t0], instance, r, exclude)
        else:
            r = None  # absence breaks the recurrence
    if r is None:
        raise ValueError(f"instance {instance} not present at frame {t}")
    return r.data


def relation_importance(
    params: RemParameters,
    graph: SpatioTemporalGraph,
    t: int,
    i: int,
    j: int,
    window: int = DEFAULT_WINDOW,
) -> float:
    """Degree to which instance j shapes instance i's embedding at frame t.

    Zero unless j is a spatial neighbor of i at t; otherwise 1 - cos^2 between
    i's embedding and its leave-j-out recomputation, both replayed over the
    trailing window so the two sides are directly comparable. Asymmetric in
    general.
    """
    if i == j:
        raise ValueError("relation importance needs two distinct instances")
    frame = graph.frames[t]
    if i not in frame.boxes or j not in frame.boxes:
        raise ValueError(f"instances {i}, {j} must both be present at frame {t}")
    if j not in frame.neighbors[i]:
        return 0.0
    with ad.no_grad():
        feats = _window_node_features(params, graph, t, window)
        r_full = _replay_relation(params, graph, t, window, i, feats, exclude=None)
        r_drop = _replay_relation(params, graph, t, window, i, feats, exclude=j)
    return _phi(r_full, r_drop)


def relation_importance_records(
    params: RemParameters,
    graph: SpatioTemporalGraph,
    window: int = DEFAULT_WINDOW,
    frames: Sequence[int] | None = None,
) -> list[tuple[int, int, int, float]]:
    """(t, i, j, R) for every ordered pair within the gate at each frame."""
    records: list[tuple[int, int, int, float]] = []
    frame_ids = range(graph.n_frames) if frames is None else frames
    with ad.no_grad():
        for t in frame_ids:
            frame = graph.frames[t]
            feats = _window_node_features(params, graph, t, window)
            for i in frame.ids:
                if not frame.neighbors[i]:
                    continue
                r_full = _replay_relation(params, graph, t, window, i, feats, exclude=None)
                for j in frame.neighbors[i]:
                    r_drop = _replay_relation(params, graph, t, window, i, feats, exclude=j)
                    records.append((t, i, j, _phi(r_full, r_drop)))
    return records
