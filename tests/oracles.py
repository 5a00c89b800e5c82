"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from the definitions with plain
Python loops and exhaustive enumeration, sharing no code with the package's
computation paths. The exceptions are the bitwise references of the relation
module's array code in the section "former array paths", which keep an
earlier, simpler form of that code, and the record form of a training
window, which chooses its loss terms from records and runs the package's
heads on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from remtrack import autodiff as ad
from remtrack import tracker
from remtrack.geometry import MIN_BOX_SIZE, BoundingBox, _box_array, clamped_box, giou_loss, iou
from remtrack.rem import INPUT_SCALE, RemState, rem_step
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
