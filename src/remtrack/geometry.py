"""Bounding-box algebra: scaled inter-object distance, IoU, GIoU.

Boxes are center-format (cx, cy, w, h) in abstract scene units. The scaled
distance between two boxes divides the squared center offsets by the smaller
of the two widths / heights, so the threshold that gates graph edges adapts
to object size. Both squared terms are ADDED under the square root; dividing
by the raw (not squared) extents is kept as-is, so the threshold lives in
mixed units.

Inside the program a set of boxes is an (n, 4) float array of (cx, cy, w, h)
rows; ``BoundingBox`` is the validated record where boxes enter or leave it,
and ``_box_array`` turns a sequence of records into rows. ``iou_matrix`` and
``scaled_distance_matrix`` are the all-pairs forms over such arrays. They
repeat the scalar arithmetic entry by entry, in the same order, so every
entry is bitwise equal to ``iou`` / ``scaled_distance``.

``giou_loss`` is one tape node over predicted against target rows. Each row's
forward is bitwise the chain of scalar ``max``/``min`` and arithmetic steps
that defines the loss, and its gradient equals that chain's gradient in value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Boxes degenerate to w or h <= 0 under noisy regression; clamp instead of
# rejecting the frame.
MIN_BOX_SIZE = 1e-3


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Center-format box: center coordinates plus width and height. Slotted,
    so a box holds its four floats without a per-instance dict."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} is not finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sizes must be positive, got w={self.w}, h={self.h}")

    @classmethod
    def from_corner(cls, left: float, top: float, w: float, h: float) -> "BoundingBox":
        return cls(left + w / 2.0, top + h / 2.0, w, h)

    def to_corner(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0, self.w, self.h)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h])


def clamped_box(cx: float, cy: float, w: float, h: float) -> BoundingBox:
    """Build a box from possibly degenerate sizes, clamping to MIN_BOX_SIZE."""
    return BoundingBox(cx, cy, max(w, MIN_BOX_SIZE), max(h, MIN_BOX_SIZE))


def scaled_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Center distance with each squared offset scaled by the smaller extent."""
    w_bar = max(min(a.w, b.w), MIN_BOX_SIZE)
    h_bar = max(min(a.h, b.h), MIN_BOX_SIZE)
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    return math.sqrt(dx * dx / w_bar + dy * dy / h_bar)


def _box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """(n, 4) rows of ``boxes``: the one conversion from records to rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def scaled_distance_matrix(boxes: np.ndarray) -> np.ndarray:
    """``scaled_distance`` between every pair of (n, 4) ``boxes`` rows, bitwise
    equal to it.

    Each entry repeats the scalar function's operations in the same order and
    nothing is reduced across entries, so an entry does not depend on the other
    boxes; the matrix is exactly symmetric with a zero diagonal.
    """
    cx, cy, w, h = boxes.T
    w_bar = np.maximum(np.minimum(w[:, None], w[None, :]), MIN_BOX_SIZE)
    h_bar = np.maximum(np.minimum(h[:, None], h[None, :]), MIN_BOX_SIZE)
    dx = cx[:, None] - cx[None, :]
    dy = cy[:, None] - cy[None, :]
    return np.sqrt(dx * dx / w_bar + dy * dy / h_bar)


def _corners(box: BoundingBox) -> tuple[float, float, float, float]:
    return (
        box.cx - box.w / 2.0,
        box.cy - box.h / 2.0,
        box.cx + box.w / 2.0,
        box.cy + box.h / 2.0,
    )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    # corner arithmetic can overshoot by rounding; IoU is <= 1 by definition
    return min(inter / union, 1.0)


def iou_matrix(a_boxes: np.ndarray, b_boxes: np.ndarray) -> np.ndarray:
    """``iou(a, b)`` for every row a of the (n, 4) ``a_boxes`` (rows) and b of
    the (m, 4) ``b_boxes`` (columns), bitwise equal to the scalar function
    entry by entry."""
    acx, acy, aw, ah = a_boxes.T
    bcx, bcy, bw, bh = b_boxes.T
    ax1, ay1, ax2, ay2 = acx - aw / 2.0, acy - ah / 2.0, acx + aw / 2.0, acy + ah / 2.0
    bx1, by1, bx2, by2 = bcx - bw / 2.0, bcy - bh / 2.0, bcx + bw / 2.0, bcy + bh / 2.0
    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :])
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :])
    overlapping = (iw > 0) & (ih > 0)
    # Zero the intersection of disjoint pairs so their union stays positive.
    inter = np.where(overlapping, iw * ih, 0.0)
    union = (aw * ah)[:, None] + (bw * bh)[None, :] - inter
    return np.where(overlapping, np.minimum(inter / union, 1.0), 0.0)


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


def giou_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """1 - GIoU as a differentiable scalar; gradient flows to ``pred``.

    ``pred`` is a length-4 tensor (cx, cy, w, h), or an (n, 4) matrix whose
    row losses are summed, against a ``target`` array of its shape; sizes are
    clamped to MIN_BOX_SIZE so degenerate intermediate boxes stay well-defined.

    The forward runs the scalar chain over the x and y axes of every row at
    once, in the chain's order, so a row has the bits of a one-row call. The
    backward keeps the chain's tie rules: a ``max`` or ``min`` against the
    target or the size floor passes the gradient to ``pred`` on a tie, and
    the overlap ``max(span, 0)`` passes it when ``span >= 0``. Each gradient
    entry sums the chain's terms in its order, so only the sign of a zero may
    differ from it.
    """
    shape = pred.data.shape
    if shape[-1:] != (4,) or len(shape) > 2 or np.shape(target) != shape:
        raise ValueError(
            f"pred must be a length-4 tensor or an (n, 4) matrix, and target rows of its shape; "
            f"got shape {shape} for targets of shape {np.shape(target)}"
        )
    targets = np.reshape(target, (-1, 4))
    rows = pred.data.reshape(-1, 4)
    t1 = targets[:, :2] - targets[:, 2:] / 2.0
    t2 = targets[:, :2] + targets[:, 2:] / 2.0
    center, raw_size = rows[:, :2], rows[:, 2:]
    # Each mask marks where the chain's max/min takes the predicted side.
    size_kept = raw_size >= MIN_BOX_SIZE
    size = np.where(size_kept, raw_size, MIN_BOX_SIZE)
    half = size * 0.5
    p1, p2 = center - half, center + half
    inner_lo, inner_hi = p1 >= t1, p2 <= t2
    span = np.where(inner_hi, p2, t2) - np.where(inner_lo, p1, t1)
    overlapping = span >= 0.0
    overlap = np.where(overlapping, span, 0.0)
    inter = overlap[:, 0] * overlap[:, 1]
    union = size[:, 0] * size[:, 1] + targets[:, 2] * targets[:, 3] - inter
    outer_lo, outer_hi = p1 <= t1, p2 >= t2
    extent = np.where(outer_hi, p2, t2) - np.where(outer_lo, p1, t1)
    enclosing = extent[:, 0] * extent[:, 1]
    excess = enclosing - union
    loss = 1.0 - (inter / union - excess / enclosing)

    def bw(g):
        # loss = 1 - (ratio - penalty), ratio = inter / union, penalty = excess / enclosing
        g_ratio = -g
        g_penalty = -g_ratio
        g_excess = g_penalty / enclosing
        g_union = -g_ratio * inter / (union * union) - g_excess
        g_inter = g_ratio / union - g_union
        g_enclosing = -g_penalty * excess / (enclosing * enclosing) + g_excess
        g_overlap = np.where(overlapping, g_inter[:, None] * overlap[:, ::-1], 0.0)
        g_extent = g_enclosing[:, None] * extent[:, ::-1]
        g_p1 = np.where(inner_lo, -g_overlap, 0.0) + np.where(outer_lo, -g_extent, 0.0)
        g_p2 = np.where(inner_hi, g_overlap, 0.0) + np.where(outer_hi, g_extent, 0.0)
        g_size = (g_p2 - g_p1) * 0.5 + g_union[:, None] * size[:, ::-1]
        return (np.concatenate([g_p1 + g_p2, np.where(size_kept, g_size, 0.0)], axis=1).reshape(shape),)

    return ad._make(np.asarray(loss.sum()), (pred,), bw)
