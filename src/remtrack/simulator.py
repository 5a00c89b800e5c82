"""Synthetic crowd scenes: grouped trajectories, occlusion windows, detections.

Objects move in groups that share a heading and speed; members keep fixed
offsets around the group center (plus optional per-frame jitter), so a
zero-jitter group is exactly rigid. Occlusion windows drop an object's
visibility below the detection cutoff for a stretch of frames; the detector
adds Gaussian noise to visible boxes and emits nothing for occluded ones.

Coordinates are quantized to a 1/1024 grid at generation time so that the
affine position arithmetic is exact in floating point; rigid groups then stay
rigid bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BoundingBox, clamped_box

_GRID = 1024.0

DEFAULT_OCCLUSION_CUTOFF = 0.3


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_real_seq(x) -> bool:
    return isinstance(x, (list, tuple)) and all(map(_is_real, x))


def _is_pair(x) -> bool:
    return _is_real_seq(x) and len(x) == 2


# The type of every ScenarioConfig field, checked on construction so that a
# config read from JSON fails with the names of its wrongly typed fields.
_FIELD_CHECKS = {
    **dict.fromkeys(
        ("n_frames", "n_groups", "group_size_min", "group_size_max", "occlusion_min", "occlusion_max", "seed"),
        _is_int,
    ),
    **dict.fromkeys(
        ("scene_w", "scene_h", "speed", "group_radius", "jitter_std", "det_center_std", "det_size_std",
         "occlusion_cutoff", "margin"),
        _is_real,
    ),  # fmt: skip
    **dict.fromkeys(("box_w_range", "box_h_range", "occlusion_vis"), _is_pair),
    "occlusion_prob": lambda x: _is_real(x) or _is_real_seq(x),
    "occlusion_start": lambda x: x is None or _is_int(x),
    "headings": lambda x: x is None or _is_real_seq(x),
    "group_centers": lambda x: x is None or (isinstance(x, (list, tuple)) and all(map(_is_pair, x))),
}


def _snap(x: float) -> float:
    return round(x * _GRID) / _GRID


@dataclass
class ScenarioConfig:
    """Knobs for one synthetic scene; every draw is governed by ``seed``."""

    n_frames: int = 30
    scene_w: float = 30.0
    scene_h: float = 30.0
    n_groups: int = 3
    group_size_min: int = 1
    group_size_max: int = 3
    speed: float = 0.25
    headings: Sequence[float] | None = None  # radians per group; None draws them
    group_centers: Sequence[tuple[float, float]] | None = None  # start centers
    group_radius: float = 2.0
    jitter_std: float = 0.02
    box_w_range: tuple[float, float] = (1.2, 2.0)
    box_h_range: tuple[float, float] = (1.2, 2.0)
    occlusion_prob: float | Sequence[float] = 0.3  # scalar or per-instance
    occlusion_min: int = 4
    occlusion_max: int = 10
    occlusion_start: int | None = None  # fixed start frame; None draws one
    occlusion_vis: tuple[float, float] = (0.0, 0.3)  # visibility drawn here
    det_center_std: float = 0.15
    det_size_std: float = 0.05
    occlusion_cutoff: float = DEFAULT_OCCLUSION_CUTOFF
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self):
        wrong = [name for name, check in _FIELD_CHECKS.items() if not check(getattr(self, name))]
        if wrong:
            raise ValueError(f"scenario fields of the wrong type: {', '.join(wrong)}")
        if self.n_frames < 1 or self.n_groups < 0:
            raise ValueError("frame and group counts must be non-negative")
        if self.group_size_min < 1 or self.group_size_max < self.group_size_min:
            raise ValueError("invalid group size range")
        for name in ("jitter_std", "det_center_std", "det_size_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"noise levels must be finite and non-negative, got {name}={value}")
        if not 0.0 <= self.occlusion_cutoff <= 1.0:
            raise ValueError(f"occlusion cutoff must lie in [0, 1], got {self.occlusion_cutoff}")
        if self.occlusion_min < 1 or self.occlusion_max < self.occlusion_min:
            raise ValueError("occlusion durations must be >= 1 and ordered")
        if not 0.0 <= self.occlusion_vis[0] <= self.occlusion_vis[1] <= 1.0:
            raise ValueError("occlusion visibility range must lie in [0, 1]")

    def occlusion_prob_for(self, instance: int) -> float:
        if isinstance(self.occlusion_prob, (int, float)):
            return float(self.occlusion_prob)
        return float(self.occlusion_prob[instance])


@dataclass(frozen=True)
class GtRecord:
    t: int
    instance: int
    box: BoundingBox
    vis: float
    group: int


@dataclass
class GroundTruthSequence:
    """Per-frame ground-truth records, the one record of the scene; which
    instances exist and their groups are read from them."""

    frames: list[list[GtRecord]]

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def group_of(self) -> dict[int, int]:
        return {rec.instance: rec.group for frame in self.frames for rec in frame}

    def instances(self) -> list[int]:
        return sorted({rec.instance for frame in self.frames for rec in frame})

    def record(self, t: int, instance: int) -> GtRecord | None:
        for rec in self.frames[t]:
            if rec.instance == instance:
                return rec
        return None

    def as_track_frames(self) -> list[list[tuple[int, BoundingBox]]]:
        return [[(rec.instance, rec.box) for rec in frame] for frame in self.frames]


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    gt_id: int | None = None  # carried for training; trackers must not match on it


def generate(config: ScenarioConfig) -> GroundTruthSequence:
    """Sample a ground-truth sequence; identical seeds give identical output."""
    rng = np.random.default_rng(config.seed)
    sizes = [int(rng.integers(config.group_size_min, config.group_size_max + 1)) for _ in range(config.n_groups)]
    total = sum(sizes)
    max_area = config.box_w_range[1] * config.box_h_range[1]
    if total * max_area > 0.6 * config.scene_w * config.scene_h:
        raise ValueError(f"cannot pack {total} objects into a {config.scene_w}x{config.scene_h} scene")

    frames: list[list[GtRecord]] = [[] for _ in range(config.n_frames)]
    instance = 0
    for g, size in enumerate(sizes):
        if config.headings is not None:
            heading = float(config.headings[g])
        else:
            heading = float(rng.uniform(0.0, 2.0 * math.pi))
        vx = _snap(config.speed * math.cos(heading))
        vy = _snap(config.speed * math.sin(heading))
        disp_x = vx * (config.n_frames - 1)
        disp_y = vy * (config.n_frames - 1)
        pad = config.margin + (config.group_radius if size > 1 else 0.0)
        if config.group_centers is not None:
            cx0, cy0 = (_snap(v) for v in config.group_centers[g])
        else:
            lo_x, hi_x = pad - min(0.0, disp_x), config.scene_w - pad - max(0.0, disp_x)
            lo_y, hi_y = pad - min(0.0, disp_y), config.scene_h - pad - max(0.0, disp_y)
            if lo_x > hi_x or lo_y > hi_y:
                raise ValueError(
                    "scene too small for the configured speed and duration; "
                    f"group {g} has no valid start position"
                )
            cx0 = _snap(float(rng.uniform(lo_x, hi_x)))
            cy0 = _snap(float(rng.uniform(lo_y, hi_y)))

        members = []
        for _ in range(size):
            if size == 1:
                ox, oy = 0.0, 0.0
            else:
                ox = _snap(float(rng.uniform(-config.group_radius, config.group_radius)))
                oy = _snap(float(rng.uniform(-config.group_radius, config.group_radius)))
            bw = _snap(float(rng.uniform(*config.box_w_range)))
            bh = _snap(float(rng.uniform(*config.box_h_range)))
            members.append((instance, ox, oy, bw, bh))
            instance += 1

        for inst, ox, oy, bw, bh in members:
            vis = np.ones(config.n_frames)
            if rng.random() < config.occlusion_prob_for(inst):
                duration = int(rng.integers(config.occlusion_min, config.occlusion_max + 1))
                duration = min(duration, config.n_frames)
                if config.occlusion_start is not None:
                    start = min(config.occlusion_start, config.n_frames - duration)
                else:
                    start = int(rng.integers(0, config.n_frames - duration + 1))
                vis[start : start + duration] = float(rng.uniform(*config.occlusion_vis))
            if config.jitter_std > 0:
                jitter = rng.normal(0.0, config.jitter_std, size=(config.n_frames, 2))
            else:
                jitter = np.zeros((config.n_frames, 2))
            for t in range(config.n_frames):
                box = BoundingBox(
                    cx0 + t * vx + ox + jitter[t, 0],
                    cy0 + t * vy + oy + jitter[t, 1],
                    bw,
                    bh,
                )
                frames[t].append(GtRecord(t, inst, box, float(vis[t]), g))

    for frame in frames:
        frame.sort(key=lambda rec: rec.instance)
    return GroundTruthSequence(frames=frames)


def detect(
    frame: Sequence[GtRecord],
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> list[Detection]:
    """Noisy detections for one frame; occluded objects yield none."""
    out: list[Detection] = []
    for rec in sorted(frame, key=lambda r: r.instance):
        if rec.vis < config.occlusion_cutoff:
            continue
        dc = rng.normal(0.0, config.det_center_std, size=2) if config.det_center_std > 0 else np.zeros(2)
        ds = rng.normal(0.0, config.det_size_std, size=2) if config.det_size_std > 0 else np.zeros(2)
        box = clamped_box(rec.box.cx + dc[0], rec.box.cy + dc[1], rec.box.w + ds[0], rec.box.h + ds[1])
        out.append(Detection(box=box, gt_id=rec.instance))
    return out


def detect_sequence(
    seq: GroundTruthSequence, config: ScenarioConfig, seed: int
) -> list[list[Detection]]:
    rng = np.random.default_rng(seed)
    return [detect(frame, config, rng) for frame in seq.frames]
