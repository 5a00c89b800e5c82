"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from the definitions with plain
Python loops and exhaustive enumeration, sharing no code with the package's
computation paths. The exceptions are the bitwise references of the relation
module's array code in the section "former array paths", which keep an
earlier, simpler form of that code; the record form of a training window,
which chooses its loss terms from records and runs the package's heads on
them; and the record form of scoring, which matches every frame with one
solver call and the swap loop, and counts from ``FrameMatching`` records.

The section "former package per-node path" holds the one-node and one-pair
forms that the package once shipped beside its running code, unchanged and
on the package's tape (``autodiff._make``, ``affine``, ``concat``,
``leaky_relu``): REM's ``node_feature``, the per-sender ``node_message``, the
per-receiver ``node_attention_coefficients`` and ``spatiotemporal_update``;
the tape operations ``gru_cell``, ``softmax``, ``dot`` and ``stack`` beneath
them; and the scalar ``giou`` and ``scaled_distance``. The running
``rem.message`` and ``rem.attention_coefficients`` work on rows;
``autodiff.gru_scan`` keeps ``gru_cell``'s operation order, and
``geometry.scaled_distance_matrix`` repeats ``scaled_distance`` entry by
entry.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from remtrack import autodiff as ad
from remtrack import metrics, tracker
from remtrack.autodiff import GruCellParams, Tensor
from remtrack.geometry import (
    MIN_BOX_SIZE,
    BoundingBox,
    _box_array,
    _corners,
    clamped_box,
    giou_loss,
    iou,
    iou_matrix,
)
from remtrack.metrics import FrameMatching, MetricsReport
from remtrack.rem import ATTENTION_SLOPE, INPUT_SCALE, SIGMA_SLOPE, RemParameters, RemState, rem_step
from remtrack.simulator import GroundTruthSequence, ScenarioConfig, detect
from remtrack.st_graph import SpatioTemporalGraph, build_graph


# ---------------------------------------------------------------------------
# scalar transcription of the relation module (pure Python floats)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _leaky(x: float, slope: float) -> float:
    return x if x >= 0 else slope * x


def _matvec(w, x):
    return [math.fsum(w[r][c] * x[c] for c in range(len(x))) for r in range(len(w))]


def _gru(weights, x, h):
    wz, uz, bz, wr, ur, br, wh, uh, bh = weights
    z = [_sigmoid(a + b + c) for a, b, c in zip(_matvec(wz, x), _matvec(uz, h), bz)]
    r = [_sigmoid(a + b + c) for a, b, c in zip(_matvec(wr, x), _matvec(ur, h), br)]
    rh = [ri * hi for ri, hi in zip(r, h)]
    cand = [math.tanh(a + b + c) for a, b, c in zip(_matvec(wh, x), _matvec(uh, rh), bh)]
    return [(1.0 - zi) * hi + zi * ci for zi, hi, ci in zip(z, h, cand)]


def _gru_weights(cell):
    return tuple(
        t.data.tolist()
        for t in (cell.w_z, cell.u_z, cell.b_z, cell.w_r, cell.u_r, cell.b_r, cell.w_h, cell.u_h, cell.b_h)
    )


def scalar_rem_transcription(params, frames, d_th, slope=0.1, att_slope=0.2):
    """Relation embeddings per (t, instance) by direct equation evaluation.

    ``frames`` is a list of {instance: BoundingBox}. Recurrent state carries
    across consecutive presence only; zero initial states.
    """
    w_in, b_in = params.w_in.data.tolist(), params.b_in.data.tolist()
    w_m1, b_m1 = params.w_m1.data.tolist(), params.b_m1.data.tolist()
    w_m2, b_m2 = params.w_m2.data.tolist(), params.b_m2.data.tolist()
    w_a1, w_a2 = params.w_a1.data.tolist(), params.w_a2.data.tolist()
    w_u, b_u = params.w_u.data.tolist(), params.b_u.data.tolist()
    gru_in = _gru_weights(params.gru_in)
    gru_rel = _gru_weights(params.gru_rel)
    dim = params.dim
    scale = INPUT_SCALE

    def scaled_dist(a: BoundingBox, b: BoundingBox) -> float:
        wbar = min(a.w, b.w)
        hbar = min(a.h, b.h)
        return math.sqrt((a.cx - b.cx) ** 2 / wbar + (a.cy - b.cy) ** 2 / hbar)

    results = {}
    state_v: dict[int, list[float]] = {}
    state_r: dict[int, list[float]] = {}
    prev_box: dict[int, BoundingBox] = {}
    for t, frame in enumerate(frames):
        ids = sorted(frame)
        v_new, r_new = {}, {}
        for i in ids:
            box = frame[i]
            continuing = i in prev_box
            p = [box.cx, box.cy, box.w, box.h]
            if continuing:
                q = prev_box[i]
                off = [box.cx - q.cx, box.cy - q.cy, box.w - q.w, box.h - q.h]
            else:
                off = [0.0, 0.0, 0.0, 0.0]
            pre = _matvec(w_in, [v / scale for v in p + off])
            x = [_leaky(a + b, slope) for a, b in zip(pre, b_in)]
            h_prev = state_v[i] if continuing else [0.0] * dim
            v_new[i] = _gru(gru_in, x, h_prev)

        for i in ids:
            nbrs = [j for j in ids if j != i and scaled_dist(frame[i], frame[j]) <= d_th]
            if nbrs:
                msgs = []
                logits = []
                qi = _matvec(w_a1, v_new[i])
                for j in nbrs:
                    cat = v_new[i] + v_new[j] + [scaled_dist(frame[i], frame[j])]
                    hid = [_leaky(a + b, slope) for a, b in zip(_matvec(w_m1, cat), b_m1)]
                    msgs.append([_leaky(a + b, slope) for a, b in zip(_matvec(w_m2, hid), b_m2)])
                    kj = _matvec(w_a2, v_new[j])
                    logits.append(_leaky(math.fsum(a * b for a, b in zip(qi, kj)), att_slope))
                mx = max(logits)
                exps = [math.exp(l - mx) for l in logits]
                denom = math.fsum(exps)
                alphas = [e / denom for e in exps]
                agg = [
                    math.fsum(alphas[k] * msgs[k][c] for k in range(len(nbrs)))
                    for c in range(dim)
                ]
            else:
                agg = [0.0] * dim
            pre = _matvec(w_u, v_new[i] + agg)
            u = [_leaky(a + b, slope) for a, b in zip(pre, b_u)]
            r_prev = state_r[i] if i in prev_box else [0.0] * dim
            r_new[i] = _gru(gru_rel, u, r_prev)
            results[(t, i)] = list(r_new[i])

        state_v, state_r = v_new, r_new
        prev_box = dict(frame)
    return results


def canonical_sender_order(frame, v, i):
    """i's spatial neighbors sorted by the tuple (distance, cx, cy, w, h,
    bytes of the node feature), equal tuples kept in ascending id order."""
    ids = frame.ids.tolist()
    keyed = []
    for j, d in sorted(neighbor_distances(frame, i).items()):
        cx, cy, w, h = frame.boxes[ids.index(j)].tolist()
        keyed.append(((d, cx, cy, w, h, v[j].data.tobytes()), j))
    keyed.sort(key=lambda pair: pair[0])
    return [j for _, j in keyed]


def content_rank(boxes, v):
    """Rank of each row by the tuple (cx, cy, w, h, bytes of its ``v`` row),
    from (n, 4) boxes and (n, f) features, in Python: equal tuples share a
    rank, and ranks count the distinct tuples below."""
    keys = [(*b, row.tobytes()) for b, row in zip(boxes.tolist(), v)]
    rank = [0] * len(keys)
    prev, r = None, -1
    for n in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[n] != prev:
            prev, r = keys[n], r + 1
        rank[n] = r
    return rank


# ---------------------------------------------------------------------------
# graph adjacency, read edge by edge from a frame's edge arrays


def neighbor_distances(frame, i):
    """{j: scaled distance} over instance i's spatial neighbors."""
    out = {}
    ids = frame.ids.tolist()
    for (a, b), d in zip(frame.edges.tolist(), frame.edge_distance.tolist()):
        if ids[a] == i:
            out[ids[b]] = d
        elif ids[b] == i:
            out[ids[a]] = d
    return out


def neighbors(frame, i):
    """Instance i's spatial neighbors by ascending id."""
    return tuple(sorted(neighbor_distances(frame, i)))


def spatial_edges(graph, t):
    """Undirected edges at frame t as (i, j) id pairs with i < j, sorted."""
    ids = graph.frames[t].ids.tolist()
    return tuple(sorted((ids[a], ids[b]) for a, b in graph.frames[t].edges.tolist()))


def temporal_edges(graph, t):
    """Instances linked from frame t to frame t+1."""
    if not 0 <= t < graph.n_frames - 1:
        return ()
    here = set(graph.frames[t].ids.tolist())
    return tuple(i for i in graph.frames[t + 1].ids.tolist() if i in here)


# ---------------------------------------------------------------------------
# GIoU loss and its gradient (pure Python floats)


def scalar_giou_loss_and_grad(pred, target: BoundingBox) -> tuple[float, list[float]]:
    """1 - GIoU of ``pred`` = (cx, cy, w, h) against ``target``, and its
    gradient with respect to ``pred``.

    The loss follows the definition step by step: sizes floored at
    MIN_BOX_SIZE, corners, clipped overlap, union and enclosing box. The
    gradient is derived by hand from L = 1 - I/U + (E - U) * (1/E), with the
    product rule for the last term. Every max/min whose sides tie passes the
    gradient to ``pred``; the overlap max(span, 0) passes it when span >= 0,
    and the size floor when w >= MIN_BOX_SIZE.
    """
    cx, cy, raw_w, raw_h = (float(v) for v in pred)
    w = raw_w if raw_w >= MIN_BOX_SIZE else MIN_BOX_SIZE
    h = raw_h if raw_h >= MIN_BOX_SIZE else MIN_BOX_SIZE
    p_lo = [cx - w * 0.5, cy - h * 0.5]
    p_hi = [cx + w * 0.5, cy + h * 0.5]
    t_lo = [target.cx - target.w / 2.0, target.cy - target.h / 2.0]
    t_hi = [target.cx + target.w / 2.0, target.cy + target.h / 2.0]

    spans, overlap, extent = [], [], []
    for a in range(2):
        lo = p_lo[a] if p_lo[a] >= t_lo[a] else t_lo[a]
        hi = p_hi[a] if p_hi[a] <= t_hi[a] else t_hi[a]
        span = hi - lo
        spans.append(span)
        overlap.append(span if span >= 0.0 else 0.0)
        outer_hi = p_hi[a] if p_hi[a] >= t_hi[a] else t_hi[a]
        outer_lo = p_lo[a] if p_lo[a] <= t_lo[a] else t_lo[a]
        extent.append(outer_hi - outer_lo)
    inter = overlap[0] * overlap[1]
    union = w * h + target.w * target.h - inter
    enclosing = extent[0] * extent[1]
    loss = 1.0 - (inter / union - (enclosing - union) / enclosing)

    # U = w*h + area(target) - I, so I reaches L directly and through U
    d_union = inter / union**2 - 1.0 / enclosing
    d_inter = -1.0 / union - d_union
    d_enclosing = 1.0 / enclosing - (enclosing - union) / enclosing**2
    d_center, d_size = [0.0, 0.0], [0.0, 0.0]
    size = [w, h]
    for a in range(2):
        d_lo = d_hi = 0.0
        if spans[a] >= 0.0:
            d_span = d_inter * overlap[1 - a]
            if p_hi[a] <= t_hi[a]:
                d_hi += d_span
            if p_lo[a] >= t_lo[a]:
                d_lo -= d_span
        d_extent = d_enclosing * extent[1 - a]
        if p_hi[a] >= t_hi[a]:
            d_hi += d_extent
        if p_lo[a] <= t_lo[a]:
            d_lo -= d_extent
        d_center[a] = d_lo + d_hi
        d_size[a] = 0.5 * (d_hi - d_lo) + d_union * size[1 - a]
    raw = (raw_w, raw_h)
    grad = d_center + [d_size[a] if raw[a] >= MIN_BOX_SIZE else 0.0 for a in range(2)]
    return loss, grad


# ---------------------------------------------------------------------------
# the former record form of a training window, kept as the bitwise reference


@dataclass
class RecordWindow:
    """A prepared window as records: the detection boxes keyed (frame,
    instance) for exactly the visible instances."""

    seq: GroundTruthSequence
    start: int
    graph: SpatioTemporalGraph
    det_boxes: dict[tuple[int, int], BoundingBox]


def record_prepare_window(seq, start, cfg, rng) -> RecordWindow:
    """``tracker.prepare_window`` drawing the same detections, which keeps
    them as records and chooses no loss term."""
    det_cfg = ScenarioConfig(
        n_frames=seq.n_frames,
        det_center_std=cfg.det_center_std,
        det_size_std=cfg.det_size_std,
        occlusion_cutoff=cfg.occlusion_cutoff,
    )
    node_frames, det_boxes, frozen = [], {}, {}
    for t in range(start, start + cfg.window + 1):
        nodes = []
        dets = {d.gt_id: d for d in detect(seq.frames[t], det_cfg, rng)}
        for rec in seq.frames[t]:
            inst = rec.instance
            det = dets.get(inst)
            if det is not None:
                det_boxes[(t, inst)] = det.box
                frozen[inst] = det.box
                nodes.append((inst, det.box))
            else:
                if inst not in frozen:
                    dc = rng.normal(0.0, cfg.det_center_std, size=2)
                    ds = rng.normal(0.0, cfg.det_size_std, size=2)
                    frozen[inst] = clamped_box(
                        rec.box.cx + dc[0], rec.box.cy + dc[1], rec.box.w + ds[0], rec.box.h + ds[1]
                    )
                nodes.append((inst, frozen[inst]))
        node_frames.append(nodes)
    graph = build_graph(node_frames[: cfg.window], cfg.d_th)
    return RecordWindow(seq=seq, start=start, graph=graph, det_boxes=det_boxes)


def record_window_loss(trk, rem_params, sample: RecordWindow, cfg):
    """``tracker.window_loss`` choosing its terms from the window's records
    on every call: the occlusion terms by frame, then record; the offset
    terms from the records of the frame after the window."""
    w = cfg.window
    seq, start, frames = sample.seq, sample.start, sample.graph.frames
    state = RemState()
    rem_step(rem_params, state, sample.graph, 0, w)

    present = [set(frame.ids.tolist()) for frame in frames]
    occluded = [
        (rec.instance, k - 1, rec.box)
        for k in range(1, w + 1)
        for rec in seq.frames[start + k]
        if (start + k, rec.instance) not in sample.det_boxes and rec.instance in present[k - 1]
    ]
    t_abs = start + w
    prev_box = {rec.instance: rec.box for rec in seq.frames[t_abs - 1]}
    seen = prev_box.keys() & present[w - 1]
    visible = [
        rec for rec in seq.frames[t_abs] if rec.instance in seen and (t_abs, rec.instance) in sample.det_boxes
    ]
    n_terms = len(occluded) + 2 * len(visible)
    if n_terms == 0:
        return None
    ids = [rec.instance for rec in visible]
    targets = _box_array([rec.box for rec in visible])
    prev_boxes = _box_array([prev_box[i] for i in ids])
    feat = tracker.appearance_feature(
        trk, _box_array([sample.det_boxes[(t_abs, i)] for i in ids]), prev_boxes
    )
    prev = ad.Tensor(prev_boxes)
    base = ad.add(prev, tracker.regress_baseline(trk, feat))
    rel = ad.add(prev, tracker.regress_relation_aware(trk, feat, state.embedding(ids)))
    relations = state.embedding([i for i, _, _ in occluded], [k for _, k, _ in occluded])
    occ_loss = giou_loss(
        tracker.regress_from_relations(trk, relations), _box_array([box for _, _, box in occluded])
    )
    return ad.mul(
        ad.add(ad.add(occ_loss, giou_loss(base, targets)), giou_loss(rel, targets)), 1.0 / n_terms
    )


# ---------------------------------------------------------------------------
# former package per-node path, kept as the bitwise reference


def _check_vector(x: Tensor, name: str) -> None:
    if x.data.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {x.data.shape}")


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_vector(a, "dot lhs")
    _check_vector(b, "dot rhs")
    if a.data.shape != b.data.shape:
        raise ValueError(f"dot shape mismatch: {a.data.shape} vs {b.data.shape}")
    data = np.array(a.data @ b.data)

    def bw(g):
        return (g * b.data, g * a.data)

    return ad._make(data, (a, b), bw)


def stack(parts) -> Tensor:
    """Build a vector out of scalar tensors."""
    parts = tuple(ad.as_tensor(p) for p in parts)
    data = np.array([float(p.data) for p in parts])

    def bw(g):
        return tuple(np.asarray(g[k]).reshape(()) for k in range(len(parts)))

    return ad._make(data, parts, bw)


def softmax(logits: Tensor) -> Tensor:
    """Softmax over a vector; exact denominator, order-independent."""
    _check_vector(logits, "softmax input")
    if logits.data.shape[0] == 0:
        raise ValueError("softmax over an empty vector is undefined")
    shifted = logits.data - np.max(logits.data)
    exps = np.exp(shifted)
    denom = math.fsum(exps.tolist()) if exps.shape[0] > 2 else float(np.sum(exps))
    out = exps / denom

    def bw(g):
        inner = float(np.dot(g, out))
        return (out * (g - inner),)

    return ad._make(out, (logits,), bw)


def gru_cell(params: GruCellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Standard GRU update: h = (1-z)*h_prev + z*h_cand.

    Fused into one tape node: the whole cell would otherwise dominate the
    graph with a dozen small nodes per call. Each gate weight's gradient is
    returned as one row factor (the gate's pre-activation gradient times the
    input or state it multiplied), which ``backward`` reduces together with
    every other call's row in one product per weight.
    """
    _check_vector(x, "gru input")
    _check_vector(h_prev, "gru hidden")
    if x.data.shape[0] != params.input_dim:
        raise ValueError(f"gru input has length {x.data.shape[0]}, expected {params.input_dim}")
    if h_prev.data.shape[0] != params.hidden_dim:
        raise ValueError(f"gru hidden has length {h_prev.data.shape[0]}, expected {params.hidden_dim}")

    p = params
    xd, hd = x.data, h_prev.data
    z = ad._sigmoid_stable(p.w_z.data @ xd + p.b_z.data + p.u_z.data @ hd)
    r = ad._sigmoid_stable(p.w_r.data @ xd + p.b_r.data + p.u_r.data @ hd)
    rh = r * hd
    cand = np.tanh(p.w_h.data @ xd + p.b_h.data + p.u_h.data @ rh)
    out = hd + z * (cand - hd)

    def bw(g):
        daz = g * (cand - hd) * z * (1.0 - z)
        dah = g * z * (1.0 - cand * cand)
        drh = p.u_h.data.T @ dah
        dar = drh * hd * r * (1.0 - r)
        dx = p.w_z.data.T @ daz + p.w_r.data.T @ dar + p.w_h.data.T @ dah
        dh = g * (1.0 - z) + p.u_z.data.T @ daz + p.u_r.data.T @ dar + drh * r
        return (
            ad._Rows(daz, xd),  # w_z
            ad._Rows(daz, hd),  # u_z
            daz,  # b_z
            ad._Rows(dar, xd),  # w_r
            ad._Rows(dar, hd),  # u_r
            dar,  # b_r
            ad._Rows(dah, xd),  # w_h
            ad._Rows(dah, rh),  # u_h
            dah,  # b_h
            dx,
            dh,
        )

    return ad._make(
        out,
        (p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h, x, h_prev),
        bw,
    )


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
    return gru_cell(params.gru_in, x, v_prev)


def node_message(params: RemParameters, v_i: Tensor, v_j: Tensor, d_ij: float) -> Tensor:
    """Directed message to receiver i from sender j, aware of their distance,
    one sender at a time."""
    if d_ij < 0:
        raise ValueError("distance must be non-negative")
    x = ad.concat([v_i, v_j, Tensor(np.array([d_ij]))])
    hidden = ad.leaky_relu(ad.affine(params.w_m1, x, params.b_m1), SIGMA_SLOPE)
    return ad.leaky_relu(ad.affine(params.w_m2, hidden, params.b_m2), SIGMA_SLOPE)


def node_attention_coefficients(params: RemParameters, v_i: Tensor, neighbor_feats) -> Tensor:
    """Softmax over LeakyReLU((W_a1 v_i)^T (W_a2 v_j)) for spatial neighbors,
    one receiver at a time."""
    neighbor_feats = list(neighbor_feats)
    if not neighbor_feats:
        raise ValueError("attention requires a non-empty neighbor set")
    query = ad.affine(params.w_a1, v_i)
    logits = [
        ad.leaky_relu(dot(query, ad.affine(params.w_a2, v_j)), ATTENTION_SLOPE)
        for v_j in neighbor_feats
    ]
    return softmax(stack(logits))


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
    return gru_cell(params.gru_rel, u, r_prev)


def scaled_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Center distance with each squared offset scaled by the smaller extent."""
    w_bar = max(min(a.w, b.w), MIN_BOX_SIZE)
    h_bar = max(min(a.h, b.h), MIN_BOX_SIZE)
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    return math.sqrt(dx * dx / w_bar + dy * dy / h_bar)


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU in [-1, 1]: IoU minus the enclosing-box penalty."""
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    cw = max(ax2, bx2) - min(ax1, bx1)
    ch = max(ay2, by2) - min(ay1, by1)
    enclosing = cw * ch
    return min(inter / union, 1.0) - max((enclosing - union) / enclosing, 0.0)


# ---------------------------------------------------------------------------
# former array paths of the relation module, kept as bitwise references


def lexsort_sender_segments(frames, bounds, v):
    """``rem._sender_segments`` as one ``np.lexsort`` on the four keys
    (receiver row, distance, sender content rank, sender row), with content
    ranks from ``content_rank`` within each frame."""
    a, b = np.concatenate([frame.edges + at for frame, at in zip(frames, bounds)]).T
    receivers, senders = np.concatenate([a, b]), np.concatenate([b, a])
    distance = np.concatenate([frame.edge_distance for frame in frames])
    distances = np.concatenate([distance, distance])
    rank = np.concatenate(
        [
            np.array(content_rank(frame.boxes, v[at:end]), dtype=np.intp)
            for frame, at, end in zip(frames, bounds, bounds[1:])
        ]
    )
    order = np.lexsort((senders, rank[senders], distances, receivers))
    start = np.searchsorted(receivers[order], np.arange(len(v) + 1))
    return senders[order], distances[order], start


def _leaky_rows(x, slope):
    out = slope * x
    return np.maximum(x, out, out=out)


def _slope_rows(x, slope):
    return np.where(x >= 0, 1.0, slope)


def chunked_aggregate(params, nodes, chunk_rows, sigma_slope=0.1, attention_slope=0.2):
    """``rem._aggregate`` computed chunk by chunk of about ``chunk_rows``
    message rows: each chunk's own message layer, attention, segment softmax
    and weighted sums, and a backward that scatters with ``np.add.at``."""
    p, f = params, params.dim
    proj = nodes.proj.data
    start, senders, distances = nodes.start, nodes.senders, nodes.distances

    def chunks():
        n, first = len(start) - 1, 0
        while first < n:
            end = int(np.searchsorted(start, start[first] + chunk_rows, side="right")) - 1
            end = min(max(end, first + 1), n)
            yield first, end, np.repeat(np.arange(first, end), np.diff(start[first : end + 1]))
            first = end

    def chunk_rows_of(first, end, receivers):
        at = slice(start[first], start[end])
        a1 = proj[2, senders[at]]
        a1 += proj[0, receivers]
        a1 += distances[at][:, None] * p.w_m1.data[:, 2 * f]
        hidden = _leaky_rows(a1, sigma_slope)
        a2 = ad._block_matmul(hidden, p.w_m2.data)
        a2 += p.b_m2.data
        msgs = _leaky_rows(a2, sigma_slope)
        query, keys = proj[1, receivers], proj[3, senders[at]]
        scores = np.einsum("ij,ij->i", keys, query)
        logits = _leaky_rows(scores, attention_slope)
        lengths = np.diff(start[first : end + 1])
        linked = lengths > 0
        heads = (start[first:end] - start[first])[linked]
        segment = np.repeat(np.arange(len(heads)), lengths[linked])
        exps = np.exp(logits - np.maximum.reduceat(logits, heads)[segment])
        alphas = exps / np.add.reduceat(exps, heads)[segment]
        sums = np.zeros((len(lengths), f))
        sums[linked] = np.add.reduceat(alphas[:, None] * msgs, heads, axis=0)
        return at, (a1, hidden, a2, msgs, query, keys, scores), alphas, sums

    out = np.zeros((len(nodes.ids), f))
    for first, end, receivers in chunks():
        out[first:end] = chunk_rows_of(first, end, receivers)[3]

    def bw(g):
        d_proj = np.zeros_like(proj)
        d_distance = np.zeros(f)
        d_a2s, hiddens = [np.zeros((0, f))], [np.zeros((0, f))]
        for first, end, receivers in chunks():
            at, (a1, hidden, a2, msgs, query, keys, scores), alphas, _ = chunk_rows_of(first, end, receivers)
            g_rows = g[receivers]
            d_alphas = np.einsum("ij,ij->i", msgs, g_rows)
            inner = np.zeros(len(g))
            np.add.at(inner, receivers, alphas * d_alphas)
            d_scores = alphas * (d_alphas - inner[receivers]) * _slope_rows(scores, attention_slope)
            d_a2 = alphas[:, None] * g_rows * _slope_rows(a2, sigma_slope)
            d_a1 = (d_a2 @ p.w_m2.data) * _slope_rows(a1, sigma_slope)
            np.add.at(d_proj[0], receivers, d_a1)
            np.add.at(d_proj[1], receivers, d_scores[:, None] * keys)
            np.add.at(d_proj[2], senders[at], d_a1)
            np.add.at(d_proj[3], senders[at], d_scores[:, None] * query)
            d_distance += distances[at] @ d_a1
            d_a2s.append(d_a2)
            hiddens.append(hidden)
        distance_column = np.zeros(2 * f + 1)
        distance_column[2 * f] = 1.0
        d_a2 = np.concatenate(d_a2s)
        return (
            ad._Rows(d_distance, distance_column),
            ad._Rows(d_a2, np.concatenate(hiddens)),
            d_a2.sum(axis=0),
            d_proj,
        )

    return ad._make(out, (p.w_m1, p.w_m2, p.b_m2, nodes.proj), bw)


# ---------------------------------------------------------------------------
# exhaustive matching and metrics


def all_matchings(gt_ids, pred_ids):
    """Every partial injective mapping as a list of (g, p) pairs."""
    if not gt_ids:
        yield []
        return
    first, rest = gt_ids[0], gt_ids[1:]
    for tail in all_matchings(rest, pred_ids):
        yield tail
    for p in pred_ids:
        remaining = [q for q in pred_ids if q != p]
        for tail in all_matchings(rest, remaining):
            yield [(first, p)] + tail


def brute_match(gt_frame, pred_frame, alpha):
    """Best matching by (cardinality, total IoU, lexicographically smallest)."""
    gt = dict(gt_frame)
    pred = dict(pred_frame)
    overlaps = {
        (g, p): iou(gb, pb) for g, gb in gt.items() for p, pb in pred.items()
    }
    best = None
    best_key = None
    for pairs in all_matchings(sorted(gt), sorted(pred)):
        if any(overlaps[(g, p)] < alpha for g, p in pairs):
            continue
        total = math.fsum(overlaps[(g, p)] for g, p in pairs)
        key = (-len(pairs), -total, sorted(pairs))
        if best_key is None or key < best_key:
            best_key = key
            best = sorted(pairs)
    return best, overlaps


def brute_mota(gt_seq, pred_seq, alpha=0.5):
    total_gt = sum(len(f) for f in gt_seq)
    fn = fp = idsw = 0
    last = {}
    for gt_frame, pred_frame in zip(gt_seq, pred_seq):
        pairs, _ = brute_match(gt_frame, pred_frame, alpha)
        fn += len(gt_frame) - len(pairs)
        fp += len(pred_frame) - len(pairs)
        for g, p in pairs:
            if g in last and last[g] != p:
                idsw += 1
            last[g] = p
    return 1.0 - (fn + fp + idsw) / total_gt


def brute_idf1(gt_seq, pred_seq, alpha=0.5):
    total_gt = sum(len(f) for f in gt_seq)
    total_pred = sum(len(f) for f in pred_seq)
    gt_ids = sorted({g for f in gt_seq for g, _ in f})
    pred_ids = sorted({p for f in pred_seq for p, _ in f})
    hits = {}
    for gt_frame, pred_frame in zip(gt_seq, pred_seq):
        gt_map, pred_map = dict(gt_frame), dict(pred_frame)
        for g, gb in gt_map.items():
            for p, pb in pred_map.items():
                if iou(gb, pb) >= alpha:
                    hits[(g, p)] = hits.get((g, p), 0) + 1
    best_idtp = 0
    for mapping in all_matchings(gt_ids, pred_ids):
        idtp = sum(hits.get(pair, 0) for pair in mapping)
        best_idtp = max(best_idtp, idtp)
    if total_pred == 0:
        return 0.0
    return 2.0 * best_idtp / (2.0 * best_idtp + (total_pred - best_idtp) + (total_gt - best_idtp))


def brute_hota_single(gt_seq, pred_seq, alpha):
    """(DetA, AssA, HOTA) at one threshold from exhaustive matching."""
    total_gt = sum(len(f) for f in gt_seq)
    total_pred = sum(len(f) for f in pred_seq)
    per_frame_pairs = []
    for gt_frame, pred_frame in zip(gt_seq, pred_seq):
        pairs, _ = brute_match(gt_frame, pred_frame, alpha)
        per_frame_pairs.append(pairs)
    tp = sum(len(p) for p in per_frame_pairs)
    if tp == 0:
        return 0.0, 0.0, 0.0
    count = {}
    for pairs in per_frame_pairs:
        for pair in pairs:
            count[pair] = count.get(pair, 0) + 1
    gt_count = {}
    pred_count = {}
    for frame in gt_seq:
        for g, _ in frame:
            gt_count[g] = gt_count.get(g, 0) + 1
    for frame in pred_seq:
        for p, _ in frame:
            pred_count[p] = pred_count.get(p, 0) + 1
    terms = []
    for (g, p), tpa in sorted(count.items()):
        denom = tpa + (gt_count[g] - tpa) + (pred_count[p] - tpa)
        terms.extend([tpa / denom] * tpa)
    deta = tp / (total_gt + total_pred - tp)
    assa = math.fsum(terms) / tp
    return deta, assa, math.sqrt(deta * assa)


# ---------------------------------------------------------------------------
# the former record form of scoring, kept as the bitwise reference


@dataclass(frozen=True)
class RecordFrame:
    gt_ids: list[int]  # ascending
    pred_ids: list[int]  # ascending
    overlap: np.ndarray  # IoU, gt rows by pred columns


def record_frame(gt, pred) -> RecordFrame:
    gt = sorted(gt, key=lambda p: p[0])
    pred = sorted(pred, key=lambda p: p[0])
    gt_ids = [g for g, _ in gt]
    pred_ids = [p for p, _ in pred]
    if len(set(gt_ids)) != len(gt_ids) or len(set(pred_ids)) != len(pred_ids):
        raise ValueError("duplicate ids within one frame")
    return RecordFrame(gt_ids, pred_ids, iou_matrix(_box_array([b for _, b in gt]), _box_array([b for _, b in pred])))


def record_canonicalize(chosen, overlap, eligible):
    """Pairwise swaps that keep the total IoU exactly equal but order the
    partners ascending, until a pass changes nothing."""
    chosen = sorted(chosen)
    changed = True
    while changed:
        changed = False
        for x in range(len(chosen)):
            for y in range(x + 1, len(chosen)):
                (a1, b1), (a2, b2) = chosen[x], chosen[y]
                if b2 < b1 and eligible[a1, b2] and eligible[a2, b1]:
                    if overlap[a1, b1] + overlap[a2, b2] == overlap[a1, b2] + overlap[a2, b1]:
                        chosen[x], chosen[y] = (a1, b2), (a2, b1)
                        changed = True
        chosen.sort()
    return chosen


def record_match(frame: RecordFrame, alpha: float) -> FrameMatching:
    """One solver call on every frame with both sides, then the swap loop."""
    gt_ids, pred_ids, overlap = frame.gt_ids, frame.pred_ids, frame.overlap
    if not gt_ids or not pred_ids:
        return FrameMatching([], {}, 0, len(pred_ids), len(gt_ids))
    eligible = overlap >= alpha
    score = np.where(eligible, metrics._CARDINALITY_BONUS + overlap, 0.0)
    rows, cols = linear_sum_assignment(score, maximize=True)
    chosen = [(a, b) for a, b in zip(rows, cols) if eligible[a, b]]
    chosen = record_canonicalize(chosen, overlap, eligible)
    matches = sorted((gt_ids[a], pred_ids[b]) for a, b in chosen)
    ious = {(gt_ids[a], pred_ids[b]): float(overlap[a, b]) for a, b in chosen}
    tp = len(matches)
    return FrameMatching(matches, ious, tp, len(pred_ids) - tp, len(gt_ids) - tp)


def record_match_frame(gt, pred, alpha: float) -> FrameMatching:
    return record_match(record_frame(gt, pred), alpha)


class RecordScoring:
    """Scoring over ``FrameMatching`` records, id counters and id dicts."""

    def __init__(self, gt_seq, pred_seq):
        self.total_gt = sum(len(f) for f in gt_seq)
        self.total_pred = sum(len(f) for f in pred_seq)
        self.frames = [record_frame(g, p) for g, p in zip(gt_seq, pred_seq)]
        self.gt_count = Counter(g for f in self.frames for g in f.gt_ids)
        self.pred_count = Counter(p for f in self.frames for p in f.pred_ids)
        self._matchings = {}

    def matchings(self, alpha):
        if alpha not in self._matchings:
            self._matchings[alpha] = [record_match(f, alpha) for f in self.frames]
        return self._matchings[alpha]

    def clear_mot(self, alpha):
        tp = fp = fn = idsw = 0
        matched_ious = []
        last_pred = {}
        for matching in self.matchings(alpha):
            tp += matching.tp
            fp += matching.fp
            fn += matching.fn
            for g, p in matching.matches:
                if g in last_pred and last_pred[g] != p:
                    idsw += 1
                last_pred[g] = p
                matched_ious.append(matching.ious[(g, p)])
        mota = 1.0 - (fn + fp + idsw) / self.total_gt
        motp = math.fsum(matched_ious) / len(matched_ious) if matched_ious else None
        return mota, motp, idsw

    def idf1(self, alpha):
        if not self.total_pred:
            return 0.0
        gt_index = {g: k for k, g in enumerate(sorted(self.gt_count))}
        pred_index = {p: k for k, p in enumerate(sorted(self.pred_count))}
        overlap_frames = np.zeros((len(gt_index), len(pred_index)))
        for f in self.frames:
            rows, cols = np.nonzero(f.overlap >= alpha)
            gt_rows = np.array([gt_index[g] for g in f.gt_ids], dtype=int)
            pred_cols = np.array([pred_index[p] for p in f.pred_ids], dtype=int)
            overlap_frames[gt_rows[rows], pred_cols[cols]] += 1
        rows, cols = linear_sum_assignment(overlap_frames, maximize=True)
        idtp = int(overlap_frames[rows, cols].sum())
        return 2.0 * idtp / (2.0 * idtp + (self.total_pred - idtp) + (self.total_gt - idtp))

    def hota(self, alphas):
        deta_list, assa_list, hota_list = [], [], []
        for alpha in alphas:
            pair_matches = {}
            tp = 0
            for matching in self.matchings(alpha):
                tp += matching.tp
                for pair in matching.matches:
                    pair_matches[pair] = pair_matches.get(pair, 0) + 1
            if tp == 0:
                deta_list.append(0.0)
                assa_list.append(0.0)
                hota_list.append(0.0)
                continue
            deta = tp / (self.total_gt + self.total_pred - tp)
            ass_terms = []
            for (g, p), tpa in sorted(pair_matches.items()):
                fna = self.gt_count[g] - tpa
                fpa = self.pred_count[p] - tpa
                ass_terms.extend([tpa / (tpa + fna + fpa)] * tpa)
            assa = math.fsum(ass_terms) / tp
            deta_list.append(deta)
            assa_list.append(assa)
            hota_list.append(math.sqrt(deta * assa))
        return deta_list, assa_list, hota_list, math.fsum(hota_list) / len(hota_list)

    def mt_ml(self, alpha):
        covered = Counter(g for matching in self.matchings(alpha) for g, _ in matching.matches)
        mt = ml = 0
        for g, n in self.gt_count.items():
            coverage = covered[g] / n
            if coverage >= 0.8:
                mt += 1
            if coverage <= 0.2:
                ml += 1
        return mt / len(self.gt_count), ml / len(self.gt_count)


def record_evaluate(gt_seq, pred_seq, alphas=metrics.DEFAULT_ALPHAS) -> MetricsReport:
    """``metrics.evaluate`` as the record form computed it."""
    scoring = RecordScoring(gt_seq, pred_seq)
    deta, assa, hota_values, final = scoring.hota(alphas)
    mota, motp, idsw = scoring.clear_mot(0.5)
    mt, ml = scoring.mt_ml(0.5)
    return MetricsReport(
        mota=mota,
        motp=motp,
        idf1=scoring.idf1(0.5),
        mt=mt,
        ml=ml,
        id_switches=idsw,
        alphas=tuple(alphas),
        deta=deta,
        assa=assa,
        hota=hota_values,
        hota_final=final,
    )
