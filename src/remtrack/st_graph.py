"""Spatio-temporal relational graph over tracked instances.

Per-frame node sets carry bounding boxes; spatial edges connect instances
whose scaled distance is within the construction threshold; temporal edges
link the *same* instance across *consecutive* frames only. An instance that
disappears and later re-enters gets no edge across the gap, and downstream
recurrent state is reset on re-entry.

A frame is a handful of arrays. ``ids`` holds its instances, ascending, and
``boxes`` their (cx, cy, w, h) boxes as an (n, 4) array, row q for ``ids[q]``;
``build_graph`` takes ``BoundingBox`` records and converts them once. Spatial
edges take the edge list layout of graph message-passing libraries: ``edges``
is (E, 2) positions into ``ids``, each pair once with a < b, in row-major
order; ``edge_distance`` is the scaled distance of each pair. Temporal edges
are not stored: they are the ids two consecutive frames share.

The graph is the one record of which instances exist at each frame and
where their boxes are; callers read presence and previous boxes from it
rather than keeping copies. Graphs grow frame by frame (single writer); a
completed graph is treated as immutable and is safe to share for read-only
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import BoundingBox, _box_array, scaled_distance_matrix


@dataclass(frozen=True, eq=False)
class GraphFrame:
    ids: np.ndarray  # (n,) instance ids, ascending
    boxes: np.ndarray  # (n, 4) (cx, cy, w, h), row q the box of ids[q]
    edges: np.ndarray  # (E, 2) positions (a, b) into ids, a < b, row-major
    edge_distance: np.ndarray  # (E,) scaled distance of each edge

    def __eq__(self, other):
        if not isinstance(other, GraphFrame):
            return NotImplemented
        return (
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.boxes, other.boxes)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.edge_distance, other.edge_distance)
        )


@dataclass
class SpatioTemporalGraph:
    d_th: float
    frames: list[GraphFrame] = field(default_factory=list)

    def __post_init__(self):
        if not self.d_th > 0:
            raise ValueError(f"d_th must be positive, got {self.d_th}")

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def build_graph(
    frames: Sequence[Iterable[tuple[int, BoundingBox]]], d_th: float
) -> SpatioTemporalGraph:
    """Build the full graph from per-frame (instance id, box) sets."""
    graph = SpatioTemporalGraph(d_th=d_th)
    for t, frame in enumerate(frames):
        nodes: dict[int, BoundingBox] = {}
        for instance, box in frame:
            if instance in nodes:
                raise ValueError(f"duplicate instance id {instance} in frame {t}")
            nodes[instance] = box
        ids = sorted(nodes)
        update_graph(graph, t, ids, _box_array([nodes[i] for i in ids]))
    return graph


def update_graph(
    graph: SpatioTemporalGraph, t: int, ids: np.ndarray, boxes: np.ndarray
) -> SpatioTemporalGraph:
    """Append frame t, which holds exactly the instances ``ids``, ascending,
    with the (n, 4) ``boxes`` rows; the graph keeps copies of both.

    An instance absent from frame t-1 starts with no incoming temporal edge.
    """
    if t != graph.n_frames:
        raise ValueError(f"can only update the latest frame {graph.n_frames}, got t={t}")
    ids, boxes = np.array(ids, dtype=np.intp), np.array(boxes, dtype=float)
    if ids.ndim != 1 or boxes.shape != (len(ids), 4):
        raise ValueError(f"boxes must be one (cx, cy, w, h) row per id, got {boxes.shape} for ids {ids.shape}")
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError(f"ids must be strictly ascending, got {ids.tolist()}")
    dist = scaled_distance_matrix(boxes)
    edges = np.argwhere(np.triu(dist <= graph.d_th, k=1))
    graph.frames.append(GraphFrame(ids, boxes, edges, dist[edges[:, 0], edges[:, 1]]))
    return graph
