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

The optimal assignment is scipy's ``linear_sum_assignment``. Only scoring
needs it, so this module imports scipy's solver on the first assignment
rather than when it loads: training, tracking and relation importance never
load it.
"""

from __future__ import annotations

import math
from collections import Counter
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
    gt_ids: list[int]  # ascending
    pred_ids: list[int]  # ascending
    overlap: np.ndarray  # IoU, gt rows by pred columns


def _frame(gt: FramePairs, pred: FramePairs) -> _Frame:
    gt = sorted(gt, key=lambda p: p[0])
    pred = sorted(pred, key=lambda p: p[0])
    gt_ids = [g for g, _ in gt]
    pred_ids = [p for p, _ in pred]
    if len(set(gt_ids)) != len(gt_ids) or len(set(pred_ids)) != len(pred_ids):
        raise ValueError("duplicate ids within one frame")
    return _Frame(gt_ids, pred_ids, iou_matrix(_box_array([b for _, b in gt]), _box_array([b for _, b in pred])))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")


def _match(frame: _Frame, alpha: float) -> FrameMatching:
    gt_ids, pred_ids, overlap = frame.gt_ids, frame.pred_ids, frame.overlap
    if not gt_ids or not pred_ids:
        return FrameMatching([], {}, 0, len(pred_ids), len(gt_ids))
    eligible = overlap >= alpha
    score = np.where(eligible, _CARDINALITY_BONUS + overlap, 0.0)
    rows, cols = linear_sum_assignment(score, maximize=True)
    chosen = [(a, b) for a, b in zip(rows, cols) if eligible[a, b]]
    chosen = _canonicalize(chosen, overlap, eligible)

    matches = sorted((gt_ids[a], pred_ids[b]) for a, b in chosen)
    ious = {(gt_ids[a], pred_ids[b]): float(overlap[a, b]) for a, b in chosen}
    tp = len(matches)
    return FrameMatching(matches, ious, tp, len(pred_ids) - tp, len(gt_ids) - tp)


def match_frame(gt: FramePairs, pred: FramePairs, alpha: float) -> FrameMatching:
    """Optimal IoU matching among pairs with IoU >= alpha."""
    _check_alpha(alpha)
    return _match(_frame(gt, pred), alpha)


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


class _Scoring:
    """A checked (gt, prediction) pair with every frame's IoU matrix.

    Frame matchings are computed once per distinct alpha and shared by all
    the metrics asked of this pair.
    """

    def __init__(self, gt_seq: TrackFrames, pred_seq: TrackFrames):
        self.total_gt = _check_sequences(gt_seq, pred_seq)
        self.total_pred = sum(len(f) for f in pred_seq)
        self.frames = [_frame(g, p) for g, p in zip(gt_seq, pred_seq)]
        self.gt_count = Counter(g for f in self.frames for g in f.gt_ids)
        self.pred_count = Counter(p for f in self.frames for p in f.pred_ids)
        self._matchings: dict[float, list[FrameMatching]] = {}

    def matchings(self, alpha: float) -> list[FrameMatching]:
        if alpha not in self._matchings:
            _check_alpha(alpha)
            self._matchings[alpha] = [_match(f, alpha) for f in self.frames]
        return self._matchings[alpha]

    def clear_mot(self, alpha: float) -> ClearMotResult:
        tp = fp = fn = idsw = 0
        matched_ious: list[float] = []
        last_pred: dict[int, int] = {}
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
        return ClearMotResult(mota, motp, idsw, tp, fp, fn)

    def idf1(self, alpha: float) -> float:
        if not self.total_pred:
            return 0.0
        gt_index = {g: k for k, g in enumerate(sorted(self.gt_count))}
        pred_index = {p: k for k, p in enumerate(sorted(self.pred_count))}
        overlap_frames = np.zeros((len(gt_index), len(pred_index)))
        for f in self.frames:
            rows, cols = np.nonzero(f.overlap >= alpha)
            # ids are unique within a frame, so no (row, col) pair repeats
            gt_rows = np.array([gt_index[g] for g in f.gt_ids], dtype=int)
            pred_cols = np.array([pred_index[p] for p in f.pred_ids], dtype=int)
            overlap_frames[gt_rows[rows], pred_cols[cols]] += 1
        rows, cols = linear_sum_assignment(overlap_frames, maximize=True)
        idtp = int(overlap_frames[rows, cols].sum())
        idfn = self.total_gt - idtp
        idfp = self.total_pred - idtp
        return 2.0 * idtp / (2.0 * idtp + idfp + idfn)

    def hota(self, alphas: Sequence[float]) -> HotaResult:
        alphas = tuple(alphas)
        if not alphas:
            raise ValueError("no localization thresholds (alphas) given")
        deta_list: list[float] = []
        assa_list: list[float] = []
        hota_list: list[float] = []
        for alpha in alphas:
            pair_matches: dict[tuple[int, int], int] = {}
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
            ass_terms: list[float] = []
            for (g, p), tpa in sorted(pair_matches.items()):
                fna = self.gt_count[g] - tpa
                fpa = self.pred_count[p] - tpa
                ass_terms.extend([tpa / (tpa + fna + fpa)] * tpa)
            assa = math.fsum(ass_terms) / tp
            deta_list.append(deta)
            assa_list.append(assa)
            hota_list.append(math.sqrt(deta * assa))
        return HotaResult(alphas, deta_list, assa_list, hota_list, math.fsum(hota_list) / len(hota_list))

    def mt_ml(self, alpha: float) -> tuple[float, float]:
        covered = Counter(g for matching in self.matchings(alpha) for g, _ in matching.matches)
        mt = ml = 0
        for g, n in self.gt_count.items():
            coverage = covered[g] / n
            if coverage >= 0.8:
                mt += 1
            if coverage <= 0.2:
                ml += 1
        return mt / len(self.gt_count), ml / len(self.gt_count)


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
