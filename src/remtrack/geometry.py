"""Bounding-box algebra: scaled inter-object distance, IoU, GIoU.

Boxes are center-format (cx, cy, w, h) in abstract scene units. The scaled
distance between two boxes divides the squared center offsets by the smaller
of the two widths / heights, so the threshold that gates graph edges adapts
to object size. Both squared terms are ADDED under the square root; dividing
by the raw (not squared) extents is kept as-is, so the threshold lives in
mixed units.

``iou_matrix`` and ``scaled_distance_matrix`` are the all-pairs forms used on
hot paths. They repeat the scalar arithmetic entry by entry, in the same
order, so every entry is bitwise equal to ``iou`` / ``scaled_distance``.
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


@dataclass(frozen=True)
class BoundingBox:
    """Center-format box: center coordinates plus width and height."""

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
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def scaled_distance_matrix(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """``scaled_distance`` between every pair of ``boxes``, bitwise equal to it.

    Each entry repeats the scalar function's operations in the same order and
    nothing is reduced across entries, so an entry does not depend on the other
    boxes; the matrix is exactly symmetric with a zero diagonal.
    """
    cx, cy, w, h = _box_array(boxes).T
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


def iou_matrix(a_boxes: Sequence[BoundingBox], b_boxes: Sequence[BoundingBox]) -> np.ndarray:
    """``iou(a, b)`` for every a in ``a_boxes`` (rows) and b in ``b_boxes``
    (columns), bitwise equal to the scalar function entry by entry."""
    acx, acy, aw, ah = _box_array(a_boxes).T
    bcx, bcy, bw, bh = _box_array(b_boxes).T
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


def giou_loss(pred: Tensor | BoundingBox, target: BoundingBox) -> Tensor:
    """1 - GIoU as a differentiable scalar; gradient flows to ``pred``.

    ``pred`` is a length-4 tensor (cx, cy, w, h); sizes are clamped to
    MIN_BOX_SIZE so degenerate intermediate boxes stay well-defined.
    """
    if isinstance(pred, BoundingBox):
        pred = Tensor(pred.as_array())
    if pred.data.shape != (4,):
        raise ValueError(f"pred must be a length-4 tensor, got shape {pred.data.shape}")
    cx, cy = ad.get(pred, 0), ad.get(pred, 1)
    w = ad.maximum(ad.get(pred, 2), MIN_BOX_SIZE)
    h = ad.maximum(ad.get(pred, 3), MIN_BOX_SIZE)
    half_w, half_h = ad.mul(w, 0.5), ad.mul(h, 0.5)
    px1, px2 = ad.sub(cx, half_w), ad.add(cx, half_w)
    py1, py2 = ad.sub(cy, half_h), ad.add(cy, half_h)
    tx1, ty1, tx2, ty2 = _corners(target)

    iw = ad.maximum(ad.sub(ad.minimum(px2, tx2), ad.maximum(px1, tx1)), 0.0)
    ih = ad.maximum(ad.sub(ad.minimum(py2, ty2), ad.maximum(py1, ty1)), 0.0)
    inter = ad.mul(iw, ih)
    union = ad.sub(ad.add(ad.mul(w, h), target.w * target.h), inter)
    cw = ad.sub(ad.maximum(px2, tx2), ad.minimum(px1, tx1))
    ch = ad.sub(ad.maximum(py2, ty2), ad.minimum(py1, ty1))
    enclosing = ad.mul(cw, ch)
    giou_val = ad.sub(ad.div(inter, union), ad.div(ad.sub(enclosing, union), enclosing))
    return ad.sub(1.0, giou_val)
