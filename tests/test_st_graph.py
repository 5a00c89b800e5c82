import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import spatial_edges, temporal_edges
from remtrack.geometry import BoundingBox, _box_array, scaled_distance, scaled_distance_matrix
from remtrack.st_graph import SpatioTemporalGraph, build_graph, update_graph


def box(cx, cy, w=2.0, h=2.0):
    return BoundingBox(cx, cy, w, h)


def random_frames(rng, n_frames=6, n_instances=5, p_present=0.8, spread=12.0):
    frames = []
    for _ in range(n_frames):
        frame = [
            (i, box(rng.uniform(0, spread), rng.uniform(0, spread), rng.uniform(0.5, 3), rng.uniform(0.5, 3)))
            for i in range(n_instances)
            if rng.random() < p_present
        ]
        frames.append(frame)
    return frames


def frame_arrays(frame):
    """A frame's (id, box) pairs as update_graph takes them: ids ascending and
    their (n, 4) box rows."""
    frame = sorted(frame, key=lambda pair: pair[0])
    return np.array([i for i, _ in frame], dtype=np.intp), _box_array([b for _, b in frame])


def brute_force_edges(ids, boxes, d_th):
    """Edge enumeration straight from the definition: position pairs (a, b)
    of ``ids`` with a < b, row by row."""
    return [
        (a, b)
        for a in range(len(ids))
        for b in range(a + 1, len(ids))
        if scaled_distance(boxes[ids[a]], boxes[ids[b]]) <= d_th
    ]


@st.composite
def threshold_frames(draw):
    """One frame of a few instances with random ids on a coarse grid, so boxes
    repeat and distances tie, and a threshold that is often exactly one of
    the frame's pairwise distances."""
    coord = st.integers(0, 12).map(lambda k: 0.5 * k)
    size = st.integers(1, 4).map(lambda k: 0.5 * k)
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=9))
    frame = [(i, box(draw(coord), draw(coord), draw(size), draw(size))) for i in ids]
    boxes = dict(frame)
    at = [scaled_distance(boxes[i], boxes[j]) for i in ids for j in ids if i < j]
    at = [d for d in at if d > 0]
    d_th = draw(st.sampled_from(at) if at and draw(st.booleans()) else st.floats(0.1, 8.0))
    return frame, d_th


class TestBuildGraph:
    def test_single_instance_two_frames(self):
        g = build_graph([[(0, box(1, 1))], [(0, box(1.5, 1))]], d_th=15)
        assert spatial_edges(g, 0) == () and spatial_edges(g, 1) == ()
        assert temporal_edges(g, 0) == (0,)

    def test_two_coincident_boxes_one_frame(self):
        g = build_graph([[(0, box(1, 1)), (1, box(1, 1))]], d_th=15)
        assert spatial_edges(g, 0) == ((0, 1),)
        assert temporal_edges(g, 0) == ()

    def test_missing_instance_temporal_edges(self):
        b = box(1, 1)
        frames = [
            [(0, b), (1, b), (2, b)],
            [(0, b), (1, b)],  # instance 2 absent
            [(0, b), (1, b), (2, b)],
        ]
        g = build_graph(frames, d_th=15)
        assert temporal_edges(g, 0) == (0, 1)
        assert temporal_edges(g, 1) == (0, 1)
        # re-entry after the gap gets no edge across it
        assert 2 not in temporal_edges(g, 1)

    @given(threshold_frames())
    @settings(max_examples=150)
    def test_spatial_edges_match_brute_force(self, case):
        frame, d_th = case
        g = build_graph([frame], d_th=d_th).frames[0]
        boxes = dict(frame)
        pairs = brute_force_edges(g.ids, boxes, d_th)
        assert g.edges.shape == (len(pairs), 2)
        assert [tuple(e) for e in g.edges.tolist()] == pairs
        assert len(g.edge_distance) == len(pairs)
        dist = scaled_distance_matrix(_box_array([boxes[i] for i in g.ids]))
        assert np.array_equal(g.boxes, _box_array([boxes[i] for i in g.ids]))
        assert [d.hex() for d in g.edge_distance.tolist()] == [dist[a, b].hex() for a, b in pairs]

    @pytest.mark.parametrize("d_th", [0.0, -5.0, float("nan")])
    def test_non_positive_threshold_rejected(self, d_th):
        # checked where every graph is made, incremental graphs included
        with pytest.raises(ValueError, match="d_th must be positive"):
            SpatioTemporalGraph(d_th=d_th)
        with pytest.raises(ValueError, match="d_th must be positive"):
            build_graph([[(0, box(1, 1))]], d_th=d_th)

    def test_duplicate_instance_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph([[(0, box(1, 1)), (0, box(2, 2))]], d_th=15)

    def test_temporal_edges_only_consecutive_same_instance(self, rng):
        frames = random_frames(rng, n_frames=8)
        g = build_graph(frames, d_th=5.0)
        for t in range(g.n_frames - 1):
            here = {i for i, _ in frames[t]}
            there = {i for i, _ in frames[t + 1]}
            assert set(temporal_edges(g, t)) == here & there


@st.composite
def presence_schedules(draw):
    """Per-frame (id, box) lists over a few instances, each present or not at
    every frame independently, so instances leave and return; ids come in a
    random order within a frame."""
    n_instances = draw(st.integers(1, 5))
    coord = st.integers(0, 16).map(lambda k: 0.5 * k)
    size = st.integers(1, 6).map(lambda k: 0.5 * k)
    frames = []
    for _ in range(draw(st.integers(1, 8))):
        present = draw(st.lists(st.booleans(), min_size=n_instances, max_size=n_instances))
        frame = [
            (i, box(draw(coord), draw(coord), draw(size), draw(size)))
            for i in range(n_instances)
            if present[i]
        ]
        frames.append(draw(st.permutations(frame)))
    return frames


class TestUpdateGraph:
    def test_incremental_equals_batch_no_changes(self):
        b0, b1 = box(1, 1), box(2, 1)
        batch = build_graph([[(0, b0)], [(0, b1)]], d_th=15)
        inc = build_graph([[(0, b0)]], d_th=15)
        update_graph(inc, 1, *frame_arrays([(0, b1)]))
        assert inc == batch

    def test_leaving_instance_has_no_node(self):
        g = build_graph([[(0, box(1, 1)), (1, box(2, 1))]], d_th=15)
        update_graph(g, 1, *frame_arrays([(0, box(1.2, 1))]))
        assert g.frames[1].ids.tolist() == [0]

    def test_random_schedule_matches_batch(self, rng):
        for _ in range(15):
            frames = random_frames(rng, n_frames=10, n_instances=6, p_present=0.7)
            batch = build_graph(frames, d_th=4.0)
            inc = build_graph([], d_th=4.0)
            for t, frame in enumerate(frames):
                update_graph(inc, t, *frame_arrays(frame))
            assert inc == batch

    @given(presence_schedules())
    @example([[(0, box(1, 1)), (1, box(2, 1))], [(0, box(1, 1))], [(1, box(2, 1)), (0, box(1, 1))]])
    @settings(max_examples=100)
    def test_appending_equals_batch_and_links_only_consecutive_presence(self, frames):
        inc = SpatioTemporalGraph(d_th=4.0)
        for t, frame in enumerate(frames):
            assert update_graph(inc, t, *frame_arrays(frame)) is inc
        assert inc == build_graph(frames, d_th=4.0)
        ids = [{i for i, _ in frame} for frame in frames]
        for t in range(len(frames)):
            linked = ids[t] & ids[t + 1] if t + 1 < len(frames) else set()
            assert temporal_edges(inc, t) == tuple(sorted(linked))

    def test_rejects_non_latest_frame(self):
        g = build_graph([[(0, box(1, 1))]], d_th=15)
        with pytest.raises(ValueError, match="latest"):
            update_graph(g, 0, *frame_arrays([(0, box(1, 1))]))
        with pytest.raises(ValueError, match="latest"):
            update_graph(g, 5, *frame_arrays([(0, box(1, 1))]))

    @pytest.mark.parametrize(
        "ids, rows, message",
        [
            ([1, 0], 2, "strictly ascending"),
            ([0, 2, 2], 3, "strictly ascending"),
            ([0, 1], (2, 3), "one \\(cx, cy, w, h\\) row per id"),
            ([0, 1], 3, "one \\(cx, cy, w, h\\) row per id"),
            ([[0, 1]], 2, "one \\(cx, cy, w, h\\) row per id"),
        ],
    )
    def test_rejects_unsorted_ids_and_misshapen_boxes(self, ids, rows, message):
        g = build_graph([[(0, box(1, 1))]], d_th=15)
        boxes = np.ones(rows if isinstance(rows, tuple) else (rows, 4))
        with pytest.raises(ValueError, match=message) as info:
            update_graph(g, 1, np.array(ids), boxes)
        assert "\n" not in str(info.value)
        assert g.n_frames == 1

    def test_keeps_its_own_copy_of_the_arrays(self):
        ids, boxes = frame_arrays([(0, box(1, 1)), (3, box(2, 1))])
        g = update_graph(SpatioTemporalGraph(d_th=15), 0, ids, boxes)
        ids[0], boxes[0, 0] = 5, 9.0
        assert g.frames[0].ids.tolist() == [0, 3] and g.frames[0].boxes[0, 0] == 1.0


class TestNeighbors:
    def test_isolated_node(self):
        g = build_graph([[(0, box(0, 0)), (1, box(100, 100))]], d_th=2)
        assert g.frames[0].edges.shape == (0, 2) and g.frames[0].edge_distance.shape == (0,)

    def test_clique_of_three(self):
        b = box(1, 1)
        g = build_graph([[(0, b), (1, b), (2, b)]], d_th=15)
        assert np.bincount(g.frames[0].edges.ravel(), minlength=3).tolist() == [2, 2, 2]

    def test_chain(self):
        # only consecutive pairs within threshold
        frames = [[(0, box(0, 0, 1, 1)), (1, box(3, 0, 1, 1)), (2, box(6, 0, 1, 1))]]
        g = build_graph(frames, d_th=3.5)
        assert g.frames[0].edges.tolist() == [[0, 1], [1, 2]]

    def test_missing_node_raises(self):
        g = build_graph([[(0, box(1, 1))]], d_th=15)
        assert g.frames[0].boxes[g.frames[0].ids == 7].shape == (0, 4)
        with pytest.raises(IndexError):
            g.frames[0].boxes[7]
        with pytest.raises(IndexError):
            g.frames[3]

    def test_ascending_order(self, rng):
        frames = random_frames(rng, n_frames=3)
        g = build_graph(frames, d_th=6.0)
        for frame in g.frames:
            pairs = frame.edges.tolist()
            assert pairs == sorted(pairs)
            assert all(a < b for a, b in pairs)
