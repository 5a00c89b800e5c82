"""Tracking-by-regression with optional relational reasoning.

Three modes share one machinery:

* ``baseline`` — regress each track's offset from an appearance proxy alone;
  occluded tracks coast with their last offset. No head reads relations, so
  this mode builds no graph and runs no relation module.
* ``relation_aware`` — the regression head additionally sees the track's
  relation embedding; occluded tracks still coast.
* ``relations_for_occluded`` — visible tracks behave as in relation-aware
  mode, while occluded tracks are re-regressed *absolutely* from their
  relation embedding alone.

The relation module runs online: the embeddings of frame t feed the heads at
frame t + 1, so the relation state after the last frame is not computed.

The appearance proxy is an affine encoding of [detection box || previous box
|| 1]; it stands in for backbone appearance features. It is computed only for
matched detections, so an occluded track has no appearance input, while its
relation embedding carries on: occluded instances stay in the relational
graph with their last visible detection as input, in training and inference
alike.

Each head is called once over a matrix of rows, one per track of a frame or
per loss term that ``prepare_window`` chose; ``ad.affine`` gives every row the
bits of a call on that row alone, so no box depends on the other rows.

The online tracker keeps its tracks as a table of arrays, one row per live
track in ascending track id: ``ids``, the emitted ``box``, the ``graph_box``
fed to the graph (the last matched detection), the ``last_offset`` between
the last two emitted boxes, and the ``missed`` frame count. Boxes are
(cx, cy, w, h) rows; a frame's detections become rows once, and the boxes it
moved become ``BoundingBox`` records once, which validates every emitted box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor, adam_step, backward
# ``iou`` is unused here but stays a name of this module: benchmarks/layers.py
# wraps ``tracker.iou``.
from .geometry import MIN_BOX_SIZE, BoundingBox, _box_array, clamped_box, giou_loss, iou, iou_matrix  # noqa: F401
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

# detection box, previous box and a constant 1, which keeps ``enc_w`` in the
# shape (and so the initialization) that checkpoints were written with
APPEARANCE_INPUTS = 9
HEAD_HIDDEN = 64
DEFAULT_APPEARANCE_DIM = 32

# Relation embeddings are tanh-bounded with entry scale well below 1; the
# first occlusion-head layer is initialized with this gain so its
# pre-activations start in the unit range instead of vanishing.
EMBEDDING_GAIN = 6.0

# a track matches a detection at IoU >= ASSOC_IOU and ends after more than TERM_AFTER misses
ASSOC_IOU = 0.3
TERM_AFTER = 15


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
        *,
        rng: np.random.Generator,
    ) -> "TrackerParameters":
        if app_dim < 1:
            raise ValueError(f"appearance dimension must be >= 1, got {app_dim}")
        if rel_dim < 1:
            raise ValueError(f"relation dimension must be >= 1, got {rel_dim}")
        params = cls(
            enc_w=store.matrix("trk.enc_w", app_dim, APPEARANCE_INPUTS, rng),
            enc_b=store.zeros("trk.enc_b", app_dim),
            base_w1=store.matrix("trk.base_w1", HEAD_HIDDEN, app_dim, rng),
            base_b1=store.zeros("trk.base_b1", HEAD_HIDDEN),
            base_w2=store.matrix("trk.base_w2", 4, HEAD_HIDDEN, rng),
            base_b2=store.zeros("trk.base_b2", 4),
            rel_w1=store.matrix("trk.rel_w1", HEAD_HIDDEN, app_dim + rel_dim, rng),
            rel_b1=store.zeros("trk.rel_b1", HEAD_HIDDEN),
            rel_w2=store.matrix("trk.rel_w2", 4, HEAD_HIDDEN, rng),
            rel_b2=store.zeros("trk.rel_b2", 4),
            occ_w1=store.matrix("trk.occ_w1", HEAD_HIDDEN, rel_dim, rng),
            occ_b1=store.zeros("trk.occ_b1", HEAD_HIDDEN),
            occ_w2=store.matrix("trk.occ_w2", 4, HEAD_HIDDEN, rng),
            occ_b2=store.zeros("trk.occ_b2", 4),
            app_dim=app_dim,
            rel_dim=rel_dim,
        )
        params.occ_w1.data *= EMBEDDING_GAIN
        return params


def appearance_feature(params: TrackerParameters, boxes: np.ndarray, prev_boxes: np.ndarray) -> Tensor:
    """Affine encoding of [box || prev_box || 1], one row per (n, 4) box row."""
    x = np.concatenate([boxes, prev_boxes, np.ones((len(boxes), 1))], axis=1)
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
    return _softplus_sizes(raw)


def _softplus_sizes(raw: Tensor) -> Tensor:
    """``raw`` with softplus on its size columns (w, h), as one tape node."""
    sizes = raw.data[..., 2:]
    out = raw.data.copy()
    out[..., 2:] = np.logaddexp(0.0, sizes)

    def bw(g):
        grad = g.copy()
        grad[..., 2:] = g[..., 2:] / (1.0 + np.exp(-sizes))
        return (grad,)

    return ad._make(out, (raw,), bw)


# ---------------------------------------------------------------------------
# online tracking


def _greedy_associate(track_boxes: np.ndarray, det_boxes: np.ndarray, min_iou: float) -> np.ndarray:
    """Greedy best-IoU matching of track rows to detection rows, best overlap
    first, ties to the lower track row, then the lower detection; returns the
    (m, 2) matched (track row, detection row) pairs by ascending track row."""
    overlap = iou_matrix(det_boxes, track_boxes)
    ks, rows = np.nonzero(overlap >= min_iou)
    order = np.lexsort((ks, rows, -overlap[ks, rows]))
    pairs, matched, used = [], set(), set()
    for row, k in zip(rows[order].tolist(), ks[order].tolist()):
        if row not in matched and k not in used:
            pairs.append((row, k))
            matched.add(row)
            used.add(k)
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def track_sequence(
    trk: TrackerParameters,
    rem_params: RemParameters,
    detections_per_frame: Sequence[Sequence[Detection]],
    mode: TrackMode,
    d_th: float = 15.0,
) -> list[list[tuple[int, BoundingBox]]]:
    """Run the tracker over per-frame detections; ids are the tracker's own.

    Tracks with no detection for more than ``TERM_AFTER`` frames terminate.
    Occluded-but-alive tracks keep emitting boxes (coasted or recovered from
    relations, depending on the mode).

    In the relation modes each frame but the last then enters the graph and
    advances REM, whose embeddings the heads of the next frame read; the
    relation state after the last frame is never read, so it is not computed.
    """
    if mode not in TRACK_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {TRACK_MODES}")
    if not detections_per_frame:
        raise ValueError("no frames to track")

    graph = SpatioTemporalGraph(d_th=d_th)
    state = RemState()
    # the track table, one row per live track, ascending id
    ids, missed = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    box, graph_box, last_offset = np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4))
    next_id, last = 0, len(detections_per_frame) - 1
    outputs: list[list[tuple[int, BoundingBox]]] = []

    with ad.no_grad():
        for t, raw_dets in enumerate(detections_per_frame):
            # Canonical detection order makes the result independent of the
            # order detections arrive in.
            records = sorted([det.box for det in raw_dets], key=lambda b: (b.cx, b.cy, b.w, b.h))
            dets = _box_array(records)
            hits, ks = _greedy_associate(box, dets, ASSOC_IOU).T
            missed = missed + 1
            missed[hits] = 0
            moved = box + last_offset  # coasting, unless a head places the track
            # Each head runs once per frame, over the rows of all the tracks
            # it serves, in ascending track id.
            if len(hits):
                feat = appearance_feature(trk, dets[ks], box[hits])
                if mode == "baseline":
                    offsets = regress_baseline(trk, feat)
                else:
                    offsets = regress_relation_aware(trk, feat, state.embedding(ids[hits]))
                moved[hits] = box[hits] + offsets.data
                graph_box[hits] = dets[ks]
            alive = (missed == 0) | (missed <= TERM_AFTER)
            ids, box, moved, graph_box, missed = (a[alive] for a in (ids, box, moved, graph_box, missed))
            lost = np.flatnonzero(missed > 0)
            if mode == "relations_for_occluded" and len(lost):
                moved[lost] = regress_from_relations(trk, state.embedding(ids[lost])).data
            moved[:, 2:] = np.maximum(moved[:, 2:], MIN_BOX_SIZE)

            # every detection left unmatched starts a track
            new = np.setdiff1d(np.arange(len(dets)), ks)
            last_offset = np.concatenate([moved - box, np.zeros((len(new), 4))])
            box, graph_box = np.concatenate([moved, dets[new]]), np.concatenate([graph_box, dets[new]])
            ids = np.concatenate([ids, next_id + np.arange(len(new))])
            missed = np.concatenate([missed, np.zeros(len(new), dtype=np.intp)])
            next_id += len(new)

            # a new track emits its detection's record; a moved box is validated here
            emitted = [BoundingBox(*row) for row in moved.tolist()] + [records[k] for k in new.tolist()]
            outputs.append(list(zip(ids.tolist(), emitted)))
            # frame t's relation state feeds the heads of frame t + 1 only:
            # no baseline head reads it, and no frame follows the last
            if mode != "baseline" and t < last:
                update_graph(graph, t, ids, graph_box)
                rem_step(rem_params, state, graph, t)
    return outputs


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Training recipe; the defaults are the standard ones used throughout."""

    window: int = 10
    epochs: int = 50
    lr: float = 1e-4
    d_th: float = 15.0
    det_center_std: float = 0.15
    det_size_std: float = 0.05
    occlusion_cutoff: float = DEFAULT_OCCLUSION_CUTOFF
    seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"training window must be >= 1, got {self.window}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")


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
    """One window of ``window + 1`` frames: the graph of its first ``window``
    and each head's loss terms as rows, by frame, then record, in each frame.
    Frames count from the window start, and boxes are (cx, cy, w, h) rows."""

    graph: SpatioTemporalGraph
    ids: np.ndarray  # (n,) offset heads: detected at frame ``window``, present at ``window - 1``
    det: np.ndarray  # (n, 4) their detection at ``window``
    anchor: np.ndarray  # (n, 4) their ground truth at ``window - 1``
    target: np.ndarray  # (n, 4) their ground truth at ``window``
    occ_ids: np.ndarray  # (m,) occlusion head: hidden at a frame k >= 1, present at k - 1
    occ_frames: np.ndarray  # (m,) k - 1, the graph frame of the embedding
    occ_target: np.ndarray  # (m, 4) their ground truth at k


def prepare_window(
    seq: GroundTruthSequence,
    start: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> WindowSample:
    """Draw one window's detections, freeze its graph and choose its terms.

    Visible instances contribute a noisy detection; occluded ones keep their
    last visible detection (or a pseudo-detection at the window start),
    exactly as the online tracker feeds its graph.
    """
    w, n = cfg.window, seq.n_frames
    if not 0 <= start < n - w:
        raise ValueError(f"window start {start} outside 0..{n - w - 1} for {w + 1} of {n} frames")
    det_cfg = ScenarioConfig(
        det_center_std=cfg.det_center_std,
        det_size_std=cfg.det_size_std,
        occlusion_cutoff=cfg.occlusion_cutoff,
    )
    frames = seq.frames[start : start + w + 1]
    # ``present`` holds the instances of the frame before
    node_frames, frozen, occluded, present = [], {}, [], set()
    for k, frame in enumerate(frames):
        dets = {d.gt_id: d.box for d in detect(frame, det_cfg, rng)}
        for rec in frame:
            inst = rec.instance
            if inst in dets:
                frozen[inst] = dets[inst]
                continue
            if inst in present:
                occluded.append((inst, k - 1, rec.box))
            if inst not in frozen:
                # Occluded at window start: pretend it was seen just before.
                dc = rng.normal(0.0, cfg.det_center_std, size=2)
                ds = rng.normal(0.0, cfg.det_size_std, size=2)
                frozen[inst] = clamped_box(
                    rec.box.cx + dc[0], rec.box.cy + dc[1], rec.box.w + ds[0], rec.box.h + ds[1]
                )
        node_frames.append([(rec.instance, frozen[rec.instance]) for rec in frame])
        present = {rec.instance for rec in frame}
    # ``dets`` now holds the detections of frame ``window``
    anchors = {rec.instance: rec.box for rec in frames[w - 1]}
    visible = [rec for rec in frames[w] if rec.instance in dets and rec.instance in anchors]
    return WindowSample(
        graph=build_graph(node_frames[:w], cfg.d_th),
        ids=np.array([rec.instance for rec in visible], dtype=np.intp),
        det=_box_array([dets[rec.instance] for rec in visible]),
        anchor=_box_array([anchors[rec.instance] for rec in visible]),
        target=_box_array([rec.box for rec in visible]),
        occ_ids=np.array([inst for inst, _, _ in occluded], dtype=np.intp),
        occ_frames=np.array([k for _, k, _ in occluded], dtype=np.intp),
        occ_target=_box_array([box for _, _, box in occluded]),
    )


def window_loss(
    trk: TrackerParameters,
    rem_params: RemParameters,
    sample: WindowSample,
    cfg: TrainConfig,
) -> Tensor | None:
    """Mean GIoU loss over the terms of one prepared window, or ``None`` for a
    window without terms, before the relation module runs.

    The relation module runs over the first ``window`` frames; the offset
    heads then move each anchor to the frame after the window, and the
    occlusion head predicts each hidden box from the embedding one frame
    before it. Each head is one call and one GIoU node over its term rows.
    """
    n_terms = len(sample.occ_ids) + 2 * len(sample.ids)
    if n_terms == 0:
        return None
    state = RemState()
    rem_step(rem_params, state, sample.graph, 0, cfg.window)
    feat = appearance_feature(trk, sample.det, sample.anchor)
    anchor = Tensor(sample.anchor)
    base = ad.add(anchor, regress_baseline(trk, feat))
    rel = ad.add(anchor, regress_relation_aware(trk, feat, state.embedding(sample.ids)))
    occ = regress_from_relations(trk, state.embedding(sample.occ_ids, sample.occ_frames))
    loss = ad.add(giou_loss(occ, sample.occ_target), giou_loss(base, sample.target))
    return ad.mul(ad.add(loss, giou_loss(rel, sample.target)), 1.0 / n_terms)


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
    usable = [seq for seq in sequences if seq.n_frames >= cfg.window + 1]
    if not usable:
        raise ValueError(f"no sequence is at least {cfg.window + 1} frames long")
    for idx, seq in enumerate(sequences):
        if seq.n_frames < cfg.window + 1:
            warnings.warn(
                f"sequence {idx} has {seq.n_frames} frames, shorter than the "
                f"{cfg.window + 1}-frame training window; skipping",
                stacklevel=2,
            )

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
            adam_step(store, lr=cfg.lr)
            epoch_losses.append(float(loss.data))
        curve.append(math.fsum(epoch_losses) / len(epoch_losses) if epoch_losses else float("nan"))
    return TrainResult(loss_curve=curve)
