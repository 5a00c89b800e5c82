"""Tracking evaluation: CLEAR MOT, IDF1, MT/ML, and the HOTA decomposition.

Sequences are lists (one entry per frame) of (id, BoundingBox) pairs. Frame
matching is optimal one-to-one assignment: maximum cardinality first, then
maximum total IoU, restricted to pairs with IoU >= alpha; exact ties are
canonicalized toward ascending (gt id, pred id). HOTA uses this per-frame
matching at every localization threshold alpha and reports the detection /
association split, with HOTA_alpha = sqrt(DetA_alpha * AssA_alpha).

A (gt, prediction) pair is checked once, and each frame's IoU is computed
once, as one ``iou_matrix`` shared by every threshold and metric. Each
distinct alpha is matched once per frame: CLEAR MOT, MT/ML and HOTA's 0.5
entry share the alpha = 0.5 matching, and IDF1 counts ``IoU >= alpha`` from
the same matrices.

Scoring runs on index arrays. Ids are indexed once per sequence, a frame's
matching is a pair of (gt row, pred column) arrays, and every metric counts
from the concatenated matches. A frame where no gt and no prediction has
two eligible partners is forced: its eligible pairs are the matching, with
no solver call. Any other frame takes one solver call, and the swap loop of
``_canonicalize`` runs only when its first pass, tested for all pairs of
matches at once, would swap.

The optimal assignment is scipy's ``linear_sum_assignment``. Only scoring
needs it, so this module imports scipy's solver on the first assignment
rather than when it loads: training, tracking and relation importance never
load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# ``iou`` is unused here but stays a name of this module: benchmarks/layers.py
# wraps ``metrics.iou``.
from .geometry import BoundingBox, _box_array, iou, iou_matrix  # noqa: F401

FramePairs = Sequence[tuple[int, BoundingBox]]
TrackFrames = Sequence[FramePairs]

# 19 thresholds 0.05 .. 0.95.
DEFAULT_ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 20))

_CARDINALITY_BONUS = 1e6


def linear_sum_assignment(cost_matrix, maximize=False):
    """``scipy.optimize.linear_sum_assignment``, imported on the first call.

    ``_match`` and ``_Scoring.idf1`` call it through this module's name, so a
    wrapper installed here (benchmarks/layers.py) sees every assignment.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost_matrix, maximize=maximize)


@dataclass
class FrameMatching:
    """One-to-one matches at a threshold, with the unmatched counts."""

    matches: list[tuple[int, int]]  # (gt id, pred id), ascending gt id
    ious: dict[tuple[int, int], float]
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class _Frame:
    gt_ids: np.ndarray  # ascending
    pred_ids: np.ndarray  # ascending
    overlap: np.ndarray  # IoU, gt rows by pred columns


def _sorted_side(pairs: FramePairs, side: str, where: str) -> tuple[np.ndarray, np.ndarray]:
    pairs = sorted(pairs, key=lambda p: p[0])
    try:
        # operator.index refuses a float id, which int64 would truncate
        ids = np.array([operator.index(i) for i, _ in pairs], dtype=np.int64)
    except (TypeError, OverflowError):
        raise ValueError(f"{side} ids must be integers that fit in 64 bits{where}") from None
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate ids within one frame: {side} id {repeated[0]} repeats{where}")
    return ids, _box_array([b for _, b in pairs])


def _frame(gt: FramePairs, pred: FramePairs, where: str = "") -> _Frame:
    gt_ids, gt_boxes = _sorted_side(gt, "ground-truth", where)
    pred_ids, pred_boxes = _sorted_side(pred, "prediction", where)
    return _Frame(gt_ids, pred_ids, iou_matrix(gt_boxes, pred_boxes))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")


def _match(frame: _Frame, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(gt rows, pred columns) of the frame's matching, ascending gt row."""
    overlap = frame.overlap
    eligible = overlap >= alpha
    if (eligible.sum(axis=0) <= 1).all() and (eligible.sum(axis=1) <= 1).all():
        # No row or column holds two eligible pairs. Disjoint eligible pairs
        # are the one maximum-cardinality matching, and no swap can keep
        # both cross pairs eligible.
        return np.nonzero(eligible)
    score = np.where(eligible, _CARDINALITY_BONUS + overlap, 0.0)
    rows, cols = linear_sum_assignment(score, maximize=True)  # rows ascending
    keep = eligible[rows, cols]
    rows, cols = rows[keep], cols[keep]
    # _canonicalize's first pass over every x < y at once: it changes
    # nothing, and so neither does the loop, unless some pair qualifies.
    # Entry [x, y] tests matches x and y: x < y, b_y < b_x, both cross pairs
    # eligible and the same IoU sum, added as the loop adds it.
    own = overlap[rows, cols]
    cross, cross_eligible = overlap[rows[:, None], cols], eligible[rows[:, None], cols]
    swaps = (
        (rows[:, None] < rows)
        & (cols < cols[:, None])
        & cross_eligible
        & cross_eligible.T
        & (own[:, None] + own == cross + cross.T)
    )
    if not swaps.any():
        return rows, cols
    chosen = _canonicalize(list(zip(rows.tolist(), cols.tolist())), overlap, eligible)
    return np.array(chosen, dtype=np.intp).reshape(-1, 2).T


def match_frame(gt: FramePairs, pred: FramePairs, alpha: float) -> FrameMatching:
    """Optimal IoU matching among pairs with IoU >= alpha."""
    _check_alpha(alpha)
    frame = _frame(gt, pred)
    rows, cols = _match(frame, alpha)
    matches = list(zip(frame.gt_ids[rows].tolist(), frame.pred_ids[cols].tolist()))
    ious = dict(zip(matches, frame.overlap[rows, cols].tolist()))
    tp = len(matches)
    return FrameMatching(matches, ious, tp, len(frame.pred_ids) - tp, len(frame.gt_ids) - tp)


def _canonicalize(
    chosen: list[tuple[int, int]], overlap: np.ndarray, eligible: np.ndarray
) -> list[tuple[int, int]]:
    # Pairwise swaps that keep the total IoU exactly equal but order the
    # partners ascending; resolves symmetric ties deterministically.
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


@dataclass
class ClearMotResult:
    mota: float
    motp: float | None  # mean IoU over matches; absent without matches
    id_switches: int
    tp: int
    fp: int
    fn: int


@dataclass
class HotaResult:
    alphas: tuple[float, ...]
    deta: list[float]
    assa: list[float]
    hota: list[float]
    final: float


def _check_sequences(gt_seq: TrackFrames, pred_seq: TrackFrames) -> int:
    if len(gt_seq) != len(pred_seq):
        raise ValueError(f"sequences differ in length: {len(gt_seq)} vs {len(pred_seq)}")
    total_gt = sum(len(f) for f in gt_seq)
    if total_gt == 0:
        raise ValueError("no ground-truth boxes; metrics undefined")
    return total_gt


def _index(per_frame: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The sequence's sorted ids, each frame's positions in them, and each
    id's box count."""
    ids, positions = np.unique(np.concatenate(per_frame), return_inverse=True)
    bounds = np.cumsum([len(f) for f in per_frame])[:-1]
    return ids, np.split(positions, bounds), np.bincount(positions, minlength=len(ids))


class _Scoring:
    """A checked (gt, prediction) pair with every frame's IoU matrix.

    Ids are indexed once: each frame's gt and pred positions point into the
    sequence's sorted ids. Frame matchings are computed once per distinct
    alpha and shared by all the metrics asked of this pair.
    """

    def __init__(self, gt_seq: TrackFrames, pred_seq: TrackFrames):
        self.total_gt = _check_sequences(gt_seq, pred_seq)
        self.frames = [_frame(g, p, f" at frame index {t}") for t, (g, p) in enumerate(zip(gt_seq, pred_seq))]
        self.gt_ids, self.gt_pos, self.gt_count = _index([f.gt_ids for f in self.frames])
        self.pred_ids, self.pred_pos, self.pred_count = _index([f.pred_ids for f in self.frames])
        self.total_pred = int(self.pred_count.sum())
        self._matchings: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def matchings(self, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sequence's (gt position, pred position, IoU) match rows, frame
        by frame, each frame by ascending gt id."""
        if alpha not in self._matchings:
            _check_alpha(alpha)
            gt, pred, ious = [], [], []
            for frame, gt_pos, pred_pos in zip(self.frames, self.gt_pos, self.pred_pos):
                rows, cols = _match(frame, alpha)
                gt.append(gt_pos[rows])
                pred.append(pred_pos[cols])
                ious.append(frame.overlap[rows, cols])
            self._matchings[alpha] = (np.concatenate(gt), np.concatenate(pred), np.concatenate(ious))
        return self._matchings[alpha]

    def clear_mot(self, alpha: float) -> ClearMotResult:
        gt, pred, ious = self.matchings(alpha)
        tp = len(gt)
        # a stable sort keeps each gt's matches in frame order
        order = np.argsort(gt, kind="stable")
        gt, pred = gt[order], pred[order]
        idsw = int(np.count_nonzero((gt[1:] == gt[:-1]) & (pred[1:] != pred[:-1])))
        fp, fn = self.total_pred - tp, self.total_gt - tp
        mota = 1.0 - (fn + fp + idsw) / self.total_gt
        motp = math.fsum(ious) / tp if tp else None
        return ClearMotResult(mota, motp, idsw, tp, fp, fn)

    def idf1(self, alpha: float) -> float:
        if not self.total_pred:
            return 0.0
        n_pred = len(self.pred_ids)
        pairs = []
        for frame, gt_pos, pred_pos in zip(self.frames, self.gt_pos, self.pred_pos):
            rows, cols = np.nonzero(frame.overlap >= alpha)
            pairs.append(gt_pos[rows] * n_pred + pred_pos[cols])
        # ids are unique within a frame, so each frame counts a pair once
        overlap_frames = np.bincount(np.concatenate(pairs), minlength=len(self.gt_ids) * n_pred)
        overlap_frames = overlap_frames.reshape(len(self.gt_ids), n_pred).astype(float)
        rows, cols = linear_sum_assignment(overlap_frames, maximize=True)
        idtp = int(overlap_frames[rows, cols].sum())
        idfn = self.total_gt - idtp
        idfp = self.total_pred - idtp
        return 2.0 * idtp / (2.0 * idtp + idfp + idfn)

    def hota(self, alphas: Sequence[float]) -> HotaResult:
        alphas = tuple(alphas)
        if not alphas:
            raise ValueError("no localization thresholds (alphas) given")
        n_pred = len(self.pred_ids)
        deta_list: list[float] = []
        assa_list: list[float] = []
        hota_list: list[float] = []
        for alpha in alphas:
            gt, pred, _ = self.matchings(alpha)
            tp = len(gt)
            if tp == 0:
                deta_list.append(0.0)
                assa_list.append(0.0)
                hota_list.append(0.0)
                continue
            deta = tp / (self.total_gt + self.total_pred - tp)
            pairs, tpa = np.unique(gt * n_pred + pred, return_counts=True)
            # tpa / (tpa + fna + fpa), with fna = gt count - tpa and fpa = pred count - tpa
            ratio = tpa / (self.gt_count[pairs // n_pred] + self.pred_count[pairs % n_pred] - tpa)
            # fsum rounds the exact sum, so the order of the terms leaves no trace
            assa = math.fsum(np.repeat(ratio, tpa)) / tp
            deta_list.append(deta)
            assa_list.append(assa)
            hota_list.append(math.sqrt(deta * assa))
        return HotaResult(alphas, deta_list, assa_list, hota_list, math.fsum(hota_list) / len(hota_list))

    def mt_ml(self, alpha: float) -> tuple[float, float]:
        gt, _, _ = self.matchings(alpha)
        coverage = np.bincount(gt, minlength=len(self.gt_ids)) / self.gt_count
        mt = int(np.count_nonzero(coverage >= 0.8))
        ml = int(np.count_nonzero(coverage <= 0.2))
        return mt / len(self.gt_ids), ml / len(self.gt_ids)


def clear_mot(gt_seq: TrackFrames, pred_seq: TrackFrames, alpha: float = 0.5) -> ClearMotResult:
    """CLEAR MOT: MOTA from error counts, MOTP as mean matched IoU."""
    return _Scoring(gt_seq, pred_seq).clear_mot(alpha)


def idf1(gt_seq: TrackFrames, pred_seq: TrackFrames, alpha: float = 0.5) -> float:
    """F1 of identity-consistent matches under the best global id mapping."""
    return _Scoring(gt_seq, pred_seq).idf1(alpha)


def hota(
    gt_seq: TrackFrames, pred_seq: TrackFrames, alphas: Sequence[float] = DEFAULT_ALPHAS
) -> HotaResult:
    """Detection/association accuracies and HOTA per localization threshold."""
    return _Scoring(gt_seq, pred_seq).hota(alphas)


def mt_ml(
    gt_seq: TrackFrames, pred_seq: TrackFrames, alpha: float = 0.5
) -> tuple[float, float]:
    """Fractions of gt identities tracked >= 80% (MT) and <= 20% (ML)."""
    return _Scoring(gt_seq, pred_seq).mt_ml(alpha)


@dataclass
class MetricsReport:
    """Full evaluation bundle for one (gt, prediction) pair."""

    mota: float
    motp: float | None
    idf1: float
    mt: float
    ml: float
    id_switches: int
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    deta: list[float] = field(default_factory=list)
    assa: list[float] = field(default_factory=list)
    hota: list[float] = field(default_factory=list)
    hota_final: float = 0.0


def evaluate(
    gt_seq: TrackFrames,
    pred_seq: TrackFrames,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> MetricsReport:
    scoring = _Scoring(gt_seq, pred_seq)
    h = scoring.hota(alphas)
    cm = scoring.clear_mot(0.5)
    mt, ml = scoring.mt_ml(0.5)
    return MetricsReport(
        mota=cm.mota,
        motp=cm.motp,
        idf1=scoring.idf1(0.5),
        mt=mt,
        ml=ml,
        id_switches=cm.id_switches,
        alphas=h.alphas,
        deta=h.deta,
        assa=h.assa,
        hota=h.hota,
        hota_final=h.final,
    )
