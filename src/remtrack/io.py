"""Readers and writers: MOTChallenge CSV, scenario JSONL, checkpoints, reports.

Frames are 1-based in MOT CSV files and 0-based everywhere inside the
library; the conversion happens here and nowhere else. Floats in CSV output
use fixed 6-decimal formatting, locale-independent; JSON output keeps full
precision so JSONL round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autodiff import ParameterStore
from .geometry import BoundingBox
from .metrics import MetricsReport
from .simulator import GroundTruthSequence, GtRecord

CHECKPOINT_VERSION = 1


def _is_integer(value) -> bool:
    """An int, or a float with an integral value; never a bool or a string.

    The one check for frame indices and ids read from files: JSON ``true``,
    ``"0"`` and ``1.7`` are not integers, and neither are NaN and infinity.
    """
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


@dataclass(frozen=True)
class MotRecord:
    """One row of a MOTChallenge file; frame is 1-based, corner format."""

    frame: int
    track_id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float = 1.0
    cls: int = -1
    visibility: float | None = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if self.bb_width <= 0 or self.bb_height <= 0:
            raise ValueError("box width and height must be positive")
        if self.visibility is not None and not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")

    def center_box(self) -> BoundingBox:
        return BoundingBox.from_corner(self.bb_left, self.bb_top, self.bb_width, self.bb_height)


def parse_mot_csv(text: str) -> list[MotRecord]:
    """Parse MOT CSV rows; tolerates the 7-field detection variant."""
    records: list[MotRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (7, 9, 10):
            raise ValueError(f"line {lineno}: expected 7, 9 or 10 fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
        if not (_is_integer(values[0]) and _is_integer(values[1])):
            raise ValueError(
                f"line {lineno}: frame and id must be integers, got {parts[0]!r}, {parts[1]!r}"
            )
        if len(parts) >= 9 and not _is_integer(values[7]):
            raise ValueError(f"line {lineno}: class must be an integer, got {parts[7]!r}")
        cls = int(values[7]) if len(parts) >= 9 else -1
        vis = values[8] if len(parts) >= 9 and values[8] >= 0 else None
        try:
            records.append(
                MotRecord(
                    frame=int(values[0]),
                    track_id=int(values[1]),
                    bb_left=values[2],
                    bb_top=values[3],
                    bb_width=values[4],
                    bb_height=values[5],
                    conf=values[6],
                    cls=cls,
                    visibility=vis,
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    records.sort(key=lambda r: (r.frame, r.track_id))
    return records


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_results_csv(tracks: Sequence[Sequence[tuple[int, BoundingBox]]]) -> str:
    """MOT result rows: frame,id,left,top,width,height,conf,-1,-1,-1."""
    lines: list[str] = []
    for t, frame in enumerate(tracks):
        for track_id, box in sorted(frame, key=lambda p: p[0]):
            left, top, w, h = box.to_corner()
            lines.append(
                f"{t + 1},{track_id},{_fmt(left)},{_fmt(top)},{_fmt(w)},{_fmt(h)},1,-1,-1,-1"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def records_to_frames(
    records: Sequence[MotRecord], n_frames: int | None = None
) -> list[list[tuple[int, BoundingBox]]]:
    """MOT records to per-frame (id, center box) lists, 0-based frames."""
    if n_frames is None:
        n_frames = max((r.frame for r in records), default=0)
    frames: list[list[tuple[int, BoundingBox]]] = [[] for _ in range(n_frames)]
    for r in records:
        if r.frame > n_frames:
            raise ValueError(f"record at frame {r.frame} is past the last of {n_frames} frames")
        frames[r.frame - 1].append((r.track_id, r.center_box()))
    return frames


# ---------------------------------------------------------------------------
# scenario JSONL

_SCENARIO_KEYS = ("t", "id", "cx", "cy", "w", "h", "vis", "group")


def write_scenario_jsonl(seq: GroundTruthSequence) -> str:
    lines = []
    for frame in seq.frames:
        for rec in sorted(frame, key=lambda r: r.instance):
            lines.append(
                json.dumps(
                    {
                        "t": rec.t,
                        "id": rec.instance,
                        "cx": rec.box.cx,
                        "cy": rec.box.cy,
                        "w": rec.box.w,
                        "h": rec.box.h,
                        "vis": rec.vis,
                        "group": rec.group,
                    }
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def read_scenario_jsonl(text: str) -> GroundTruthSequence:
    records: list[GtRecord] = []
    for index, raw in enumerate(line for line in text.splitlines() if line.strip()):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"record {index}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"record {index}: expected an object")
        missing = [k for k in _SCENARIO_KEYS if k not in obj]
        if missing:
            raise ValueError(f"record {index}: missing fields {missing}")
        for key in ("t", "id", "group"):
            if not _is_integer(obj[key]):
                raise ValueError(f"record {index}: {key} must be an integer, got {obj[key]!r}")
        if obj["t"] < 0:
            raise ValueError(f"record {index}: t must be >= 0, got {obj['t']!r}")
        try:
            records.append(
                GtRecord(
                    t=int(obj["t"]),
                    instance=int(obj["id"]),
                    box=BoundingBox(float(obj["cx"]), float(obj["cy"]), float(obj["w"]), float(obj["h"])),
                    vis=float(obj["vis"]),
                    group=int(obj["group"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {index}: {exc}") from None
        if not 0.0 <= records[-1].vis <= 1.0:
            raise ValueError(f"record {index}: visibility {records[-1].vis} outside [0, 1]")
    n_frames = max((r.t for r in records), default=-1) + 1
    seq = GroundTruthSequence(frames=[[] for _ in range(n_frames)])
    for rec in sorted(records, key=lambda r: (r.t, r.instance)):
        seq.frames[rec.t].append(rec)
    return seq


# ---------------------------------------------------------------------------
# checkpoints

def checkpoint_to_json(store: ParameterStore, dims: Mapping[str, int]) -> str:
    doc = {
        "version": CHECKPOINT_VERSION,
        "dims": dict(dims),
        "params": {
            name: {"shape": list(tensor.data.shape), "data": tensor.data.reshape(-1).tolist()}
            for name, tensor in store.items()
        },
    }
    return json.dumps(doc)


def load_checkpoint_json(text: str) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must be a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    missing = [key for key in ("dims", "params") if key not in doc]
    if missing:
        raise ValueError(f"checkpoint is missing {missing}")
    for key in ("dims", "params"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"checkpoint {key} must be a JSON object")
    dims = doc["dims"]
    bad_dims = sorted(
        k for k, v in dims.items() if isinstance(v, bool) or not isinstance(v, (int, float))
    )
    if bad_dims:
        raise ValueError(f"checkpoint dims {bad_dims} must be numbers")
    params: dict[str, np.ndarray] = {}
    for name, entry in doc["params"].items():
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list) and "data" in entry):
            raise ValueError(f"parameter '{name}' must be an object with a shape list and data")
        shape = tuple(entry["shape"])
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
            raise ValueError(f"parameter '{name}': shape {list(shape)} must list non-negative integers")
        data = entry["data"]
        try:
            finite = isinstance(data, list) and all(type(v) in (int, float) and math.isfinite(v) for v in data)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"parameter '{name}': data must be a list of finite numbers")
        data = np.asarray(data, dtype=np.float64)
        if data.size != int(np.prod(shape, dtype=np.int64)):
            raise ValueError(f"parameter '{name}': data length {data.size} does not match shape {shape}")
        params[name] = data.reshape(shape)
    return dims, params


def restore_store(store: ParameterStore, params: Mapping[str, np.ndarray]) -> None:
    """Copy loaded arrays into a freshly built store, validating shapes."""
    expected = set(store.names())
    got = set(params)
    if expected != got:
        extra, missing = sorted(got - expected), sorted(expected - got)
        raise ValueError(f"checkpoint parameter mismatch: extra={extra}, missing={missing}")
    for name, array in params.items():
        tensor = store[name]
        if tensor.data.shape != array.shape:
            raise ValueError(
                f"parameter '{name}' has shape {array.shape}, expected {tensor.data.shape}"
            )
        tensor.data[...] = array


# ---------------------------------------------------------------------------
# reports

def report_to_json(report: MetricsReport) -> str:
    return json.dumps(
        {
            "mota": report.mota,
            "motp": report.motp,
            "idf1": report.idf1,
            "mt": report.mt,
            "ml": report.ml,
            "id_switches": report.id_switches,
            "hota": report.hota_final,
            "per_alpha": [
                {"alpha": a, "deta": d, "assa": s, "hota": h}
                for a, d, s, h in zip(report.alphas, report.deta, report.assa, report.hota)
            ],
        },
        indent=2,
    )


def hota_curve_csv(report: MetricsReport) -> str:
    lines = ["alpha,deta,assa,hota"]
    for a, d, s, h in zip(report.alphas, report.deta, report.assa, report.hota):
        lines.append(f"{_fmt(a)},{_fmt(d)},{_fmt(s)},{_fmt(h)}")
    return "\n".join(lines) + "\n"


def loss_curve_csv(losses: Sequence[float]) -> str:
    lines = ["epoch,loss"]
    for epoch, loss in enumerate(losses):
        lines.append(f"{epoch},{loss!r}")
    return "\n".join(lines) + "\n"


def relation_records_jsonl(records: Sequence[tuple[int, int, int, float]]) -> str:
    lines = [json.dumps({"t": t, "i": i, "j": j, "R": r}) for t, i, j, r in records]
    return "\n".join(lines) + ("\n" if lines else "")
