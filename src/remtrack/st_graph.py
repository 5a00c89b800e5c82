"""Spatio-temporal relational graph over tracked instances.

Per-frame node sets carry bounding boxes; spatial edges connect instances
whose scaled distance is within the construction threshold; temporal edges
link the *same* instance across *consecutive* frames only. An instance that
disappears and later re-enters gets no edge across the gap, and downstream
recurrent state is reset on re-entry.

The graph is the one record of which instances exist at each frame and
where their boxes are; callers read presence and previous boxes from it
rather than keeping copies. Graphs grow frame by frame (single writer); a
completed graph is treated as immutable and is safe to share for read-only
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import BoundingBox, scaled_distance_matrix


@dataclass(frozen=True)
class GraphFrame:
    ids: tuple[int, ...]  # ascending
    boxes: dict[int, BoundingBox]
    neighbors: dict[int, tuple[int, ...]]  # ascending per node
    edge_distance: dict[tuple[int, int], float]  # keyed (i, j) with i < j

    def distance(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        return self.edge_distance[key]


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

    def spatial_edges(self, t: int) -> tuple[tuple[int, int], ...]:
        """Undirected edges at frame t as (i, j) pairs with i < j."""
        return tuple(sorted(self.frames[t].edge_distance))

    def temporal_edges(self, t: int) -> tuple[int, ...]:
        """Instances linked from frame t to frame t+1."""
        if not 0 <= t < self.n_frames - 1:
            return ()
        here = set(self.frames[t].ids)
        return tuple(i for i in self.frames[t + 1].ids if i in here)


def _build_frame(nodes: Mapping[int, BoundingBox], d_th: float) -> GraphFrame:
    ids = tuple(sorted(nodes))
    dist = scaled_distance_matrix([nodes[i] for i in ids])
    rows, cols = np.nonzero(dist <= d_th)
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    neighbors: dict[int, list[int]] = {i: [] for i in ids}
    edge_distance: dict[tuple[int, int], float] = {}
    for a, b, d in zip(rows.tolist(), cols.tolist(), dist[rows, cols].tolist()):
        i, j = ids[a], ids[b]
        neighbors[i].append(j)
        neighbors[j].append(i)
        edge_distance[(i, j)] = d
    return GraphFrame(
        ids=ids,
        boxes=dict(nodes),
        neighbors={i: tuple(sorted(ns)) for i, ns in neighbors.items()},
        edge_distance=edge_distance,
    )


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
        graph.frames.append(_build_frame(nodes, d_th))
    return graph


def update_graph(
    graph: SpatioTemporalGraph,
    t: int,
    boxes: Mapping[int, BoundingBox],
) -> SpatioTemporalGraph:
    """Append frame t, which holds exactly the instances keyed in ``boxes``.

    An instance absent from frame t-1 starts with no incoming temporal edge.
    """
    if t != graph.n_frames:
        raise ValueError(f"can only update the latest frame {graph.n_frames}, got t={t}")
    graph.frames.append(_build_frame(boxes, graph.d_th))
    return graph
