"""Tracking-by-regression with optional relational reasoning.

Three modes share one machinery:

* ``baseline`` — regress each track's offset from an appearance proxy alone;
  occluded tracks coast with their last offset.
* ``relation_aware`` — the regression head additionally sees the track's
  relation embedding; occluded tracks still coast.
* ``relations_for_occluded`` — visible tracks behave as in relation-aware
  mode, while occluded tracks are re-regressed *absolutely* from their
  relation embedding alone.

The appearance proxy is an affine encoding of [detection box || previous box
|| visibility flag]; it stands in for backbone appearance features and keeps
their key property: it degrades under occlusion while relation embeddings do
not. Occluded instances stay in the relational graph with their last visible
detection as input, in training and inference alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor, adam_step, backward
# ``iou`` is unused here but stays a name of this module: benchmarks/layers.py
# wraps ``tracker.iou``.
from .geometry import BoundingBox, clamped_box, giou_loss, iou, iou_matrix  # noqa: F401
from .rem import SIGMA_SLOPE, RemParameters, RemState, rem_step
from .simulator import (
    DEFAULT_OCCLUSION_CUTOFF,
    Detection,
    GroundTruthSequence,
    ScenarioConfig,
    detect,
)
from .st_graph import SpatioTemporalGraph, build_graph, update_graph

TrackMode = Literal["baseline", "relation_aware", "relations_for_occluded"]
TRACK_MODES: tuple[str, ...] = ("baseline", "relation_aware", "relations_for_occluded")

APPEARANCE_INPUTS = 9  # detection box, previous box, visibility flag
HEAD_HIDDEN = 64
DEFAULT_APPEARANCE_DIM = 32

# Relation embeddings are tanh-bounded with entry scale well below 1; the
# first occlusion-head layer is initialized with this gain so its
# pre-activations start in the unit range instead of vanishing.
EMBEDDING_GAIN = 6.0


@dataclass
class TrackerParameters:
    """Appearance encoder plus the three regression heads."""

    enc_w: Tensor
    enc_b: Tensor
    base_w1: Tensor
    base_b1: Tensor
    base_w2: Tensor
    base_b2: Tensor
    rel_w1: Tensor
    rel_b1: Tensor
    rel_w2: Tensor
    rel_b2: Tensor
    occ_w1: Tensor
    occ_b1: Tensor
    occ_w2: Tensor
    occ_b2: Tensor
    app_dim: int = DEFAULT_APPEARANCE_DIM
    rel_dim: int = 128

    @classmethod
    def create(
        cls,
        store: ParameterStore,
        rel_dim: int = 128,
        app_dim: int = DEFAULT_APPEARANCE_DIM,
        rng: np.random.Generator | None = None,
        prefix: str = "trk",
    ) -> "TrackerParameters":
        rng = rng if rng is not None else np.random.default_rng(0)
        params = cls(
            enc_w=store.matrix(f"{prefix}.enc_w", app_dim, APPEARANCE_INPUTS, rng),
            enc_b=store.zeros(f"{prefix}.enc_b", app_dim),
            base_w1=store.matrix(f"{prefix}.base_w1", HEAD_HIDDEN, app_dim, rng),
            base_b1=store.zeros(f"{prefix}.base_b1", HEAD_HIDDEN),
            base_w2=store.matrix(f"{prefix}.base_w2", 4, HEAD_HIDDEN, rng),
            base_b2=store.zeros(f"{prefix}.base_b2", 4),
            rel_w1=store.matrix(f"{prefix}.rel_w1", HEAD_HIDDEN, app_dim + rel_dim, rng),
            rel_b1=store.zeros(f"{prefix}.rel_b1", HEAD_HIDDEN),
            rel_w2=store.matrix(f"{prefix}.rel_w2", 4, HEAD_HIDDEN, rng),
            rel_b2=store.zeros(f"{prefix}.rel_b2", 4),
            occ_w1=store.matrix(f"{prefix}.occ_w1", HEAD_HIDDEN, rel_dim, rng),
            occ_b1=store.zeros(f"{prefix}.occ_b1", HEAD_HIDDEN),
            occ_w2=store.matrix(f"{prefix}.occ_w2", 4, HEAD_HIDDEN, rng),
            occ_b2=store.zeros(f"{prefix}.occ_b2", 4),
            app_dim=app_dim,
            rel_dim=rel_dim,
        )
        params.occ_w1.data *= EMBEDDING_GAIN
        return params


def appearance_feature(
    params: TrackerParameters,
    box: BoundingBox,
    prev_box: BoundingBox,
    visible: bool,
) -> Tensor:
    """Affine encoding of [box || prev_box || visible flag]."""
    x = np.concatenate([box.as_array(), prev_box.as_array(), [1.0 if visible else 0.0]])
    return ad.affine(params.enc_w, Tensor(x), params.enc_b)


def _mlp(w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, x: Tensor) -> Tensor:
    return ad.affine(w2, ad.leaky_relu(ad.affine(w1, x, b1), SIGMA_SLOPE), b2)


def regress_baseline(params: TrackerParameters, appearance: Tensor) -> Tensor:
    """Box offset (dcx, dcy, dw, dh) from appearance alone."""
    return _mlp(params.base_w1, params.base_b1, params.base_w2, params.base_b2, appearance)


def regress_relation_aware(
    params: TrackerParameters, appearance: Tensor, relation: Tensor
) -> Tensor:
    """Box offset from the concatenated appearance and relation features."""
    return _mlp(
        params.rel_w1, params.rel_b1, params.rel_w2, params.rel_b2, ad.concat([appearance, relation])
    )


def regress_from_relations(params: TrackerParameters, relation: Tensor) -> Tensor:
    """Absolute box (cx, cy, w, h) from the relation embedding alone.

    Sizes go through softplus so any input yields a valid box.
    """
    raw = _mlp(params.occ_w1, params.occ_b1, params.occ_w2, params.occ_b2, relation)
    return ad.stack(
        [ad.get(raw, 0), ad.get(raw, 1), ad.softplus(ad.get(raw, 2)), ad.softplus(ad.get(raw, 3))]
    )


def _offset_box(prev: BoundingBox, offset: Tensor) -> Tensor:
    return ad.add(Tensor(prev.as_array()), offset)


def _tensor_to_box(t: Tensor) -> BoundingBox:
    cx, cy, w, h = (float(v) for v in t.data)
    return clamped_box(cx, cy, w, h)


# ---------------------------------------------------------------------------
# online tracking


@dataclass
class _Track:
    track_id: int
    box: BoundingBox
    graph_box: BoundingBox  # last visible detection; REM input while occluded
    last_offset: np.ndarray
    missed: int = 0
    age: int = 0


@dataclass
class TrackStats:
    """Diagnostics: which (track, frame) pairs used the occlusion head."""

    relation_recoveries: list[tuple[int, int]] = field(default_factory=list)
    coasted: list[tuple[int, int]] = field(default_factory=list)


def _greedy_associate(
    tracks: dict[int, _Track], detections: Sequence[Detection], min_iou: float
) -> dict[int, int]:
    """Greedy best-IoU matching; returns track id -> detection index."""
    tids = list(tracks)
    overlap = iou_matrix([det.box for det in detections], [tracks[tid].box for tid in tids])
    ks, cols = np.nonzero(overlap >= min_iou)
    candidates = sorted(
        zip((-overlap[ks, cols]).tolist(), [tids[c] for c in cols.tolist()], ks.tolist())
    )
    matched: dict[int, int] = {}
    used: set[int] = set()
    for _, tid, k in candidates:
        if tid in matched or k in used:
            continue
        matched[tid] = k
        used.add(k)
    return matched


def track_sequence(
    trk: TrackerParameters,
    rem_params: RemParameters,
    detections_per_frame: Sequence[Sequence[Detection]],
    mode: TrackMode,
    d_th: float = 15.0,
    assoc_iou: float = 0.3,
    term_after: int = 15,
    stats: TrackStats | None = None,
) -> list[list[tuple[int, BoundingBox]]]:
    """Run the tracker over per-frame detections; ids are the tracker's own.

    Tracks with no detection for more than ``term_after`` frames terminate.
    Occluded-but-alive tracks keep emitting boxes (coasted or recovered from
    relations, depending on the mode).
    """
    if mode not in TRACK_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {TRACK_MODES}")
    if not detections_per_frame:
        raise ValueError("no frames to track")

    graph = SpatioTemporalGraph(d_th=d_th)
    state = RemState()
    tracks: dict[int, _Track] = {}
    next_id = 0
    outputs: list[list[tuple[int, BoundingBox]]] = []

    with ad.no_grad():
        for t, raw_dets in enumerate(detections_per_frame):
            # Canonical detection order makes the result independent of the
            # order detections arrive in.
            dets = sorted(raw_dets, key=lambda d: (d.box.cx, d.box.cy, d.box.w, d.box.h))
            matched = _greedy_associate(tracks, dets, assoc_iou) if tracks else {}

            terminated: set[int] = set()
            for tid in sorted(tracks):
                track = tracks[tid]
                track.age += 1
                if tid in matched:
                    det = dets[matched[tid]]
                    prev = track.box
                    feat = appearance_feature(trk, det.box, prev, True)
                    if mode == "baseline":
                        offset = regress_baseline(trk, feat)
                    else:
                        offset = regress_relation_aware(trk, feat, state.r[tid])
                    new_box = _tensor_to_box(_offset_box(prev, offset))
                    track.last_offset = new_box.as_array() - prev.as_array()
                    track.box = new_box
                    track.graph_box = det.box
                    track.missed = 0
                else:
                    track.missed += 1
                    if track.missed > term_after:
                        terminated.add(tid)
                        continue
                    if mode == "relations_for_occluded":
                        new_box = _tensor_to_box(regress_from_relations(trk, state.r[tid]))
                        if stats is not None:
                            stats.relation_recoveries.append((tid, t))
                    else:
                        new_box = clamped_box(*(track.box.as_array() + track.last_offset))
                        if stats is not None:
                            stats.coasted.append((tid, t))
                    track.last_offset = new_box.as_array() - track.box.as_array()
                    track.box = new_box
            for tid in terminated:
                del tracks[tid]

            entered: set[int] = set()
            used = set(matched.values())
            for k, det in enumerate(dets):
                if k in used:
                    continue
                tracks[next_id] = _Track(
                    track_id=next_id,
                    box=det.box,
                    graph_box=det.box,
                    last_offset=np.zeros(4),
                    missed=0,
                )
                entered.add(next_id)
                next_id += 1

            update_graph(
                graph,
                t,
                entered=entered,
                left=terminated,
                boxes={tid: tr.graph_box for tid, tr in tracks.items()},
            )
            rem_step(rem_params, state, graph, t)
            outputs.append([(tid, tracks[tid].box) for tid in sorted(tracks)])
    return outputs


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Training recipe; the defaults are the standard ones used throughout."""

    window: int = 10
    epochs: int = 50
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    d_th: float = 15.0
    det_center_std: float = 0.15
    det_size_std: float = 0.05
    occlusion_cutoff: float = DEFAULT_OCCLUSION_CUTOFF
    seed: int = 0


@dataclass
class TrainResult:
    loss_curve: list[float]  # per-epoch mean window loss, in epoch order

    @property
    def initial_loss(self) -> float:
        return self.loss_curve[0]

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1]


@dataclass
class WindowSample:
    """One training window: frozen graph inputs, detections, visibility."""

    seq: GroundTruthSequence
    start: int
    graph: SpatioTemporalGraph
    det_boxes: dict[tuple[int, int], BoundingBox]
    visible: dict[tuple[int, int], bool]


def prepare_window(
    seq: GroundTruthSequence,
    start: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> WindowSample:
    """Draw detections for one window and freeze the graph inputs.

    Visible instances contribute a noisy detection; occluded ones keep their
    last visible detection (or a pseudo-detection at the window start),
    exactly as the online tracker feeds its graph.
    """
    det_cfg = ScenarioConfig(
        n_frames=seq.n_frames,
        det_center_std=cfg.det_center_std,
        det_size_std=cfg.det_size_std,
        occlusion_cutoff=cfg.occlusion_cutoff,
    )
    node_frames: list[list[tuple[int, BoundingBox]]] = []
    det_boxes: dict[tuple[int, int], BoundingBox] = {}
    visible: dict[tuple[int, int], bool] = {}
    frozen: dict[int, BoundingBox] = {}
    for t in range(start, start + cfg.window + 1):
        nodes: list[tuple[int, BoundingBox]] = []
        dets = {d.gt_id: d for d in detect(seq.frames[t], det_cfg, rng)}
        for rec in seq.frames[t]:
            inst = rec.instance
            det = dets.get(inst)
            visible[(t, inst)] = det is not None
            if det is not None:
                det_boxes[(t, inst)] = det.box
                frozen[inst] = det.box
                nodes.append((inst, det.box))
            else:
                if inst not in frozen:
                    # Occluded at window start: pretend it was seen just before.
                    dc = rng.normal(0.0, cfg.det_center_std, size=2)
                    ds = rng.normal(0.0, cfg.det_size_std, size=2)
                    frozen[inst] = clamped_box(
                        rec.box.cx + dc[0], rec.box.cy + dc[1], rec.box.w + ds[0], rec.box.h + ds[1]
                    )
                nodes.append((inst, frozen[inst]))
        node_frames.append(nodes)
    graph = build_graph(node_frames[: cfg.window], cfg.d_th)
    return WindowSample(seq=seq, start=start, graph=graph, det_boxes=det_boxes, visible=visible)


def window_loss(
    trk: TrackerParameters,
    rem_params: RemParameters,
    sample: WindowSample,
    cfg: TrainConfig,
) -> Tensor | None:
    """Mean GIoU loss over one prepared window of ``window + 1`` frames.

    The relation module runs over the first ``window`` frames; the regression
    heads then predict boxes at the final frame, and the occlusion head is
    additionally supervised at every occluded frame inside the window.
    """
    w = cfg.window
    seq, start = sample.seq, sample.start
    state = RemState()
    r_hist: list[dict[int, Tensor]] = []
    for k in range(w):
        rem_step(rem_params, state, sample.graph, k)
        r_hist.append(dict(state.r))

    losses: list[Tensor] = []
    # Occlusion head: predict the box at t from the embedding at t-1.
    for k in range(1, w + 1):
        t_abs = start + k
        for rec in seq.frames[t_abs]:
            inst = rec.instance
            if sample.visible[(t_abs, inst)] or inst not in r_hist[k - 1]:
                continue
            pred = regress_from_relations(trk, r_hist[k - 1][inst])
            losses.append(giou_loss(pred, rec.box))

    # Regression heads at the frame after the window.
    t_abs = start + w
    prev_frame = {rec.instance: rec for rec in seq.frames[t_abs - 1]}
    for rec in seq.frames[t_abs]:
        inst = rec.instance
        if not sample.visible[(t_abs, inst)] or inst not in prev_frame or inst not in r_hist[w - 1]:
            continue
        det_box = sample.det_boxes[(t_abs, inst)]
        prev_box = prev_frame[inst].box
        feat = appearance_feature(trk, det_box, prev_box, True)
        pred_base = _offset_box(prev_box, regress_baseline(trk, feat))
        losses.append(giou_loss(pred_base, rec.box))
        pred_rel = _offset_box(prev_box, regress_relation_aware(trk, feat, r_hist[w - 1][inst]))
        losses.append(giou_loss(pred_rel, rec.box))

    if not losses:
        return None
    total = losses[0]
    for term in losses[1:]:
        total = ad.add(total, term)
    return ad.mul(total, 1.0 / len(losses))


def train(
    store: ParameterStore,
    trk: TrackerParameters,
    rem_params: RemParameters,
    sequences: Sequence[GroundTruthSequence],
    cfg: TrainConfig,
) -> TrainResult:
    """Joint training of the relation module and all regression heads.

    One window is sampled per sequence up front (seeded) and replayed every
    epoch, one Adam step per window. The loss curve records per-epoch means
    in epoch order; with a zero learning rate it is exactly flat.
    """
    if not sequences:
        raise ValueError("training needs at least one sequence")
    usable = []
    for idx, seq in enumerate(sequences):
        if seq.n_frames < cfg.window + 1:
            warnings.warn(
                f"sequence {idx} has {seq.n_frames} frames, shorter than the "
                f"{cfg.window + 1}-frame training window; skipping",
                stacklevel=2,
            )
            continue
        usable.append(seq)
    if not usable:
        raise ValueError(f"no sequence is at least {cfg.window + 1} frames long")

    rng = np.random.default_rng(cfg.seed)
    samples = [
        prepare_window(seq, int(rng.integers(0, seq.n_frames - cfg.window)), cfg, rng)
        for seq in usable
    ]
    curve: list[float] = []
    for _ in range(cfg.epochs):
        epoch_losses: list[float] = []
        for sample in samples:
            loss = window_loss(trk, rem_params, sample, cfg)
            if loss is None:
                continue
            store.clear_grads()
            backward(loss)
            for name in store.names():
                if store[name].grad is None:
                    store[name].grad = np.zeros_like(store[name].data)
            adam_step(store, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
            epoch_losses.append(float(loss.data))
        curve.append(math.fsum(epoch_losses) / len(epoch_losses) if epoch_losses else float("nan"))
    return TrainResult(loss_curve=curve)
