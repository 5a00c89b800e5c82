"""Correctness checks on the workloads' outputs.

Each check returns a list of failure messages; an empty list means the
output passed. The expected values come from computations made here (a
numpy IoU matrix, an augmenting-path matching, a numpy distance gate) or
from properties the method guarantees (determinism, invariance to input
order and to relabelling, scores of 1 for a perfect prediction).
``selftest.py`` shows that each check rejects a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

from remtrack.geometry import MIN_BOX_SIZE

GRADIENT_TOLERANCE = 1e-4  # relative, as in the gradient-check criterion
CSV_TOLERANCE = 2e-6  # MOT CSV keeps 6 decimals of each corner coordinate


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# train


def loss_curves(curves: list[list[float]]) -> list[str]:
    """Repeated training runs agree bitwise, and the loss falls."""
    failures = []
    first = curves[0]
    for k, curve in enumerate(curves[1:], start=1):
        if _bits(curve) != _bits(first):
            failures.append(f"training round {k} loss curve {curve} differs from round 0 {first}")
    if not all(math.isfinite(x) for x in first):
        failures.append(f"loss curve has a non-finite value: {first}")
    elif not first[-1] < first[0]:
        failures.append(f"epoch-mean loss did not fall: first {first[0]!r}, last {first[-1]!r}")
    return failures


def gradient(projected: float, finite_difference: float) -> list[str]:
    """The backward pass agrees with a central finite difference."""
    scale = max(abs(projected), abs(finite_difference))
    if not (math.isfinite(projected) and math.isfinite(finite_difference)) or scale == 0.0:
        return [f"degenerate gradient probe: backward {projected!r}, finite difference {finite_difference!r}"]
    error = abs(projected - finite_difference) / scale
    if error > GRADIENT_TOLERANCE:
        return [
            f"gradient along a random direction: backward {projected!r} vs finite difference "
            f"{finite_difference!r}, relative error {error:.3e} > {GRADIENT_TOLERANCE}"
        ]
    return []


# ---------------------------------------------------------------------------
# track_crowd


def _frame_bits(frame) -> bytes:
    return _bits([(tid, box.cx, box.cy, box.w, box.h) for tid, box in frame])


def tracks(detections, outputs) -> list[str]:
    """Tracker output for one clip, once per round; rounds after the first
    saw each frame's detections shuffled."""
    failures = []
    reference = outputs[0]
    for k, out in enumerate(outputs[1:], start=1):
        if len(out) != len(reference):
            failures.append(f"round {k} has {len(out)} frames, round 0 has {len(reference)}")
            continue
        for t, (frame, ref) in enumerate(zip(out, reference)):
            if _frame_bits(frame) != _frame_bits(ref):
                failures.append(f"round {k} (detections shuffled) differs from round 0 at frame {t}")
                break
    if len(reference) != len(detections):
        failures.append(f"{len(reference)} output frames for {len(detections)} input frames")
    for t, frame in enumerate(reference):
        ids = [tid for tid, _ in frame]
        if len(set(ids)) != len(ids):
            failures.append(f"duplicate track ids at frame {t}")
        for tid, box in frame:
            values = (box.cx, box.cy, box.w, box.h)
            if not all(math.isfinite(v) for v in values) or box.w <= 0 or box.h <= 0:
                failures.append(f"track {tid} at frame {t} has an invalid box {values}")
    if reference:
        got = sorted((b.cx, b.cy, b.w, b.h) for _, b in reference[0])
        want = sorted((d.box.cx, d.box.cy, d.box.w, d.box.h) for d in detections[0])
        if _bits(got) != _bits(want):
            failures.append("frame-0 output boxes differ from the frame-0 detections")
    return failures


# ---------------------------------------------------------------------------
# analyze: scoring


def round_trip(predictions, parsed) -> list[str]:
    """Predictions read back from MOT CSV keep their frames, ids and boxes."""
    if len(parsed) != len(predictions):
        return [f"CSV round trip gave {len(parsed)} frames for {len(predictions)}"]
    for t, (want, got) in enumerate(zip(predictions, parsed)):
        want = sorted(want, key=lambda p: p[0])
        got = sorted(got, key=lambda p: p[0])
        if [i for i, _ in want] != [i for i, _ in got]:
            return [f"CSV round trip changed the ids at frame {t}"]
        a = np.array([b.as_array() for _, b in want]).reshape(-1, 4)
        b = np.array([b.as_array() for _, b in got]).reshape(-1, 4)
        if np.max(np.abs(a - b), initial=0.0) > CSV_TOLERANCE:
            return [f"CSV round trip moved a box at frame {t} by more than {CSV_TOLERANCE}"]
    return []


def iou_matrix(gt_boxes, pred_boxes) -> np.ndarray:
    """Pairwise IoU with the same corner arithmetic and clamp as the
    program's scalar ``iou``, so equal inputs give equal bits."""
    g = np.array([b.as_array() for b in gt_boxes]).reshape(-1, 4)
    p = np.array([b.as_array() for b in pred_boxes]).reshape(-1, 4)
    gx1, gy1 = g[:, 0] - g[:, 2] / 2.0, g[:, 1] - g[:, 3] / 2.0
    gx2, gy2 = g[:, 0] + g[:, 2] / 2.0, g[:, 1] + g[:, 3] / 2.0
    px1, py1 = p[:, 0] - p[:, 2] / 2.0, p[:, 1] - p[:, 3] / 2.0
    px2, py2 = p[:, 0] + p[:, 2] / 2.0, p[:, 1] + p[:, 3] / 2.0
    iw = np.minimum(gx2[:, None], px2[None, :]) - np.maximum(gx1[:, None], px1[None, :])
    ih = np.minimum(gy2[:, None], py2[None, :]) - np.maximum(gy1[:, None], py1[None, :])
    inter = iw * ih
    union = (g[:, 2] * g[:, 3])[:, None] + (p[:, 2] * p[:, 3])[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(inter / union, 1.0)
    return np.where((iw <= 0) | (ih <= 0), 0.0, ratio)


def max_matching(eligible: np.ndarray) -> int:
    """Size of a maximum bipartite matching (augmenting paths)."""
    options = [np.flatnonzero(row).tolist() for row in eligible]
    owner: dict[int, int] = {}

    def augment(row: int, seen: set[int]) -> bool:
        for col in options[row]:
            if col in seen:
                continue
            seen.add(col)
            if col not in owner or augment(owner[col], seen):
                owner[col] = row
                return True
        return False

    return sum(augment(row, set()) for row in range(len(options)))


def scores(gt, pred, report, counts) -> list[str]:
    """TP/FP/FN at alpha 0.5 (``counts``, a CLEAR MOT result) and DetA at
    every alpha (``report``) equal the ones recomputed here."""
    total_gt = sum(len(f) for f in gt)
    total_pred = sum(len(f) for f in pred)
    tp = dict.fromkeys(report.alphas, 0)
    for gt_frame, pred_frame in zip(gt, pred):
        if not gt_frame or not pred_frame:
            continue
        overlap = iou_matrix([b for _, b in gt_frame], [b for _, b in pred_frame])
        for alpha in report.alphas:
            tp[alpha] += max_matching(overlap >= alpha)

    failures = []
    want = (tp[0.5], total_pred - tp[0.5], total_gt - tp[0.5])
    got = (counts.tp, counts.fp, counts.fn)
    if got != want:
        failures.append(f"TP/FP/FN at alpha 0.5: evaluation {got}, recomputed {want}")
    mota = 1.0 - (want[2] + want[1] + report.id_switches) / total_gt
    if report.mota != mota:
        failures.append(f"MOTA {report.mota!r} does not follow from the recomputed counts ({mota!r})")
    for alpha, deta in zip(report.alphas, report.deta):
        n = tp[alpha]
        expected = n / (total_gt + total_pred - n) if n else 0.0
        if deta != expected:
            failures.append(f"DetA at alpha {alpha}: report {deta!r}, recomputed {expected!r}")
    return failures


def reports_equal(reports) -> list[str]:
    """Scoring the same prediction again gives the same report."""
    return [f"round {k} report differs from round 0" for k, r in enumerate(reports[1:], start=1) if r != reports[0]]


def self_score(report) -> list[str]:
    """The ground truth scored against itself is perfect."""
    values = {"MOTA": report.mota, "IDF1": report.idf1, "HOTA": report.hota_final}
    return [f"{name} is {v!r} where a perfect prediction scores 1" for name, v in values.items() if v != 1.0]


# ---------------------------------------------------------------------------
# analyze: relations


def gated_pairs(frames, frame_indices, d_th: float) -> set[tuple[int, int, int]]:
    """Ordered pairs (t, i, j) whose scaled distance is within ``d_th``."""
    pairs = set()
    for t in frame_indices:
        ids = [i for i, _ in frames[t]]
        b = np.array([box.as_array() for _, box in frames[t]]).reshape(-1, 4)
        w_bar = np.maximum(np.minimum(b[:, None, 2], b[None, :, 2]), MIN_BOX_SIZE)
        h_bar = np.maximum(np.minimum(b[:, None, 3], b[None, :, 3]), MIN_BOX_SIZE)
        dx = b[:, None, 0] - b[None, :, 0]
        dy = b[:, None, 1] - b[None, :, 1]
        within = np.sqrt(dx * dx / w_bar + dy * dy / h_bar) <= d_th
        for a, i in enumerate(ids):
            for c, j in enumerate(ids):
                if a != c and within[a, c]:
                    pairs.add((t, i, j))
    return pairs


def _record_bits(records) -> list[tuple[int, int, int, str]]:
    return [(t, i, j, float(r).hex()) for t, i, j, r in records]


def relation_records(frames, frame_indices, d_th: float, rounds) -> list[str]:
    """Records of one scene, once per round with ids mapped back; rounds
    after the first ran on relabelled ids."""
    failures = []
    first = rounds[0]
    keys = [(t, i, j) for t, i, j, _ in first]
    if len(set(keys)) != len(keys):
        failures.append("duplicate relation records")
    expected = gated_pairs(frames, frame_indices, d_th)
    if set(keys) != expected:
        failures.append(
            f"relation records cover {len(set(keys))} pairs, {len(expected)} ordered pairs are in the gate; "
            f"{len(set(keys) ^ expected)} differ"
        )
    bad = [(t, i, j, r) for t, i, j, r in first if not 0.0 <= r <= 1.0]
    if bad:
        failures.append(f"{len(bad)} relation values outside [0, 1], e.g. {bad[0]}")
    for k, records in enumerate(rounds[1:], start=1):
        if _record_bits(records) != _record_bits(first):
            failures.append(f"round {k} (ids relabelled) relation records are not a permutation of round 0's")
    return failures
