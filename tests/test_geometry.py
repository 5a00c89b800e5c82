import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remtrack import autodiff as ad
from remtrack.autodiff import ParameterStore, Tensor, gradient_check
from remtrack.st_graph import build_graph
from remtrack.geometry import (
    MIN_BOX_SIZE,
    BoundingBox,
    clamped_box,
    giou,
    giou_loss,
    iou,
    iou_matrix,
    scaled_distance,
    scaled_distance_matrix,
)

coords = st.floats(-50.0, 50.0, allow_nan=False)
sizes = st.floats(0.1, 20.0, allow_nan=False)
boxes = st.builds(BoundingBox, coords, coords, sizes, sizes)


@st.composite
def grid_boxes(draw, max_size=8):
    """Boxes on a coarse grid, so edges touch and boxes repeat or nest. A step
    of 0.1 is inexact in binary and brings rounding into the corners; off the
    grid (step None) any order change in the arithmetic shows."""
    step = draw(st.sampled_from((0.5, 0.1, None)))
    if step is None:
        return draw(st.lists(boxes, max_size=max_size))
    coord = st.integers(-6, 6).map(lambda k: k * step)
    size = st.integers(1, 6).map(lambda k: k * step)
    return draw(st.lists(st.builds(BoundingBox, coord, coord, size, size), max_size=max_size))


def scalar_table(f, rows, cols) -> np.ndarray:
    return np.array([[f(a, b) for b in cols] for a in rows], dtype=float).reshape(len(rows), len(cols))


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestBoundingBox:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            BoundingBox(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            BoundingBox(0, 0, 1.0, -2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(float("nan"), 0, 1, 1)

    def test_corner_round_trip(self):
        box = BoundingBox(3.5, -2.0, 4.0, 6.0)
        assert BoundingBox.from_corner(*box.to_corner()) == box

    def test_corner_conversion_example(self):
        assert BoundingBox.from_corner(10, 20, 30, 60) == BoundingBox(25, 50, 30, 60)

    def test_clamped_box_floors_sizes(self):
        b = clamped_box(1.0, 2.0, -0.5, 0.0)
        assert b.w == MIN_BOX_SIZE and b.h == MIN_BOX_SIZE


class TestScaledDistance:
    def test_identical_boxes_zero(self):
        b = BoundingBox(4.0, 5.0, 2.0, 3.0)
        assert scaled_distance(b, b) == 0.0

    def test_hand_example(self):
        a = BoundingBox(10, 10, 4, 2)
        b = BoundingBox(13, 14, 6, 8)
        assert abs(scaled_distance(a, b) - math.sqrt(10.25)) <= 1e-12

    @given(boxes, boxes)
    def test_symmetric(self, a, b):
        assert scaled_distance(a, b) == scaled_distance(b, a)

    @given(boxes, boxes)
    def test_nonnegative(self, a, b):
        assert scaled_distance(a, b) >= 0.0

    def test_strictly_increasing_in_offsets(self):
        base = BoundingBox(0, 0, 2, 2)
        prev = -1.0
        for dx in (0.5, 1.0, 2.0, 5.0):
            d = scaled_distance(base, BoundingBox(dx, 3.0, 2, 2))
            assert d > prev
            prev = d
        prev = -1.0
        for dy in (0.5, 1.0, 2.0, 5.0):
            d = scaled_distance(base, BoundingBox(3.0, dy, 2, 2))
            assert d > prev
            prev = d

    def test_distance_matrix_invariants(self, rng):
        bs = [BoundingBox(*rng.uniform(1, 10, 2), *rng.uniform(0.5, 3, 2)) for _ in range(6)]
        dm = np.array([[scaled_distance(a, b) for b in bs] for a in bs])
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)
        assert np.all(dm >= 0.0)


class TestMatrices:
    """The all-pairs forms equal the scalar functions bit for bit."""

    @given(grid_boxes(), grid_boxes())
    @settings(max_examples=150)
    def test_iou_matrix_bitwise(self, rows, cols):
        assert same_bits(iou_matrix(rows, cols), scalar_table(iou, rows, cols))

    @given(grid_boxes())
    @settings(max_examples=150)
    def test_scaled_distance_matrix_bitwise_and_symmetric(self, bs):
        dm = scaled_distance_matrix(bs)
        assert same_bits(dm, scalar_table(scaled_distance, bs, bs))
        assert same_bits(dm, dm.T.copy())

    def test_empty_inputs(self):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert iou_matrix([], [b, b]).shape == (0, 2)
        assert iou_matrix([b], []).shape == (1, 0)
        assert scaled_distance_matrix([]).shape == (0, 0)

    def test_touching_edges_zero(self):
        a = BoundingBox.from_corner(0, 0, 1, 1)
        b = BoundingBox.from_corner(1, 0, 1, 1)
        assert iou_matrix([a], [b])[0, 0] == 0.0 == iou(a, b)


def edges(boxes, d_th):
    """Spatial edges of one frame with instance ids 0..n-1."""
    return build_graph([list(enumerate(boxes))], d_th).frames[0]


class TestAdjacency:
    """The edge rule, scaled_distance <= d_th, as build_graph applies it."""

    def test_identical_boxes_edge_at_default_threshold(self):
        b = BoundingBox(1.0, 1.0, 2.0, 2.0)
        frame = edges([b, b], d_th=15.0)
        assert frame.neighbors == {0: (1,), 1: (0,)}

    def test_no_self_edges(self):
        b = BoundingBox(1.0, 1.0, 2.0, 2.0)
        frame = edges([b, b, b], d_th=15.0)
        assert all(i not in frame.neighbors[i] for i in frame.ids)

    def test_threshold_inclusive(self):
        a = BoundingBox(10, 10, 4, 2)
        b = BoundingBox(13, 14, 6, 8)
        assert edges([a, b], d_th=scaled_distance(a, b)).neighbors[0] == (1,)

    def test_example_pair_beyond_threshold_three(self):
        a = BoundingBox(10, 10, 4, 2)
        b = BoundingBox(13, 14, 6, 8)
        assert edges([a, b], d_th=3.0).neighbors[0] == ()

    def test_monotone_in_threshold(self, rng):
        bs = [BoundingBox(*rng.uniform(0, 20, 2), *rng.uniform(0.5, 3, 2)) for _ in range(8)]
        lo = edges(bs, d_th=2.0).edge_distance
        hi = edges(bs, d_th=6.0).edge_distance
        assert set(lo) <= set(hi)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="d_th"):
            edges([BoundingBox(0, 0, 1, 1)], d_th=0.0)


class TestIou:
    def test_identical(self):
        b = BoundingBox(0, 0, 2, 2)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(10, 0, 1, 1)) == 0.0

    def test_hand_example_one_third(self):
        a = BoundingBox.from_corner(0, 0, 2, 2)
        b = BoundingBox.from_corner(1, 0, 2, 2)
        assert abs(iou(a, b) - 1.0 / 3.0) <= 1e-12

    @given(boxes, boxes, coords, coords, st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_translation_and_scale_invariance(self, a, b, tx, ty, s):
        before = iou(a, b)
        a2 = BoundingBox(s * (a.cx + tx), s * (a.cy + ty), s * a.w, s * a.h)
        b2 = BoundingBox(s * (b.cx + tx), s * (b.cy + ty), s * b.w, s * b.h)
        assert abs(iou(a2, b2) - before) <= 1e-9

    @given(boxes, boxes)
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


class TestGiou:
    def test_perfect_overlap_zero_loss(self):
        b = BoundingBox(1, 2, 3, 4)
        assert giou(b, b) == 1.0
        assert giou_loss(b, b).item() == 0.0

    def test_hand_example_minus_one_third(self):
        a = BoundingBox.from_corner(0, 0, 1, 1)
        b = BoundingBox.from_corner(2, 0, 1, 1)
        assert abs(giou(a, b) - (-1.0 / 3.0)) <= 1e-12
        assert abs(giou_loss(a, b).item() - 4.0 / 3.0) <= 1e-12

    @given(boxes, boxes)
    def test_range(self, a, b):
        v = giou(a, b)
        assert -1.0 <= v <= 1.0
        loss = giou_loss(a, b).item()
        # the differentiable path is unclamped; allow rounding slack
        assert -1e-9 <= loss <= 2.0 + 1e-9

    def test_equals_iou_when_enclosing_box_is_union(self):
        a = BoundingBox.from_corner(0, 0, 4, 4)
        b = BoundingBox.from_corner(1, 1, 2, 2)  # contained
        assert abs(giou(a, b) - iou(a, b)) <= 1e-12

    def test_loss_positive_when_not_identical(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(0.5, 0, 2, 2)
        assert giou_loss(a, b).item() > 0.0

    def test_matches_float_path(self, rng):
        for _ in range(50):
            a = BoundingBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            b = BoundingBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            assert abs(giou_loss(a, b).item() - (1.0 - giou(a, b))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        pred = store.register("pred", Tensor(np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(1, 3, 2)])))
        target = BoundingBox(*rng.uniform(-2, 2, 2), *rng.uniform(1, 3, 2))
        err = gradient_check(lambda: giou_loss(pred, target), store, epsilon=1e-5)
        assert err < 1e-4

    def test_gradient_flows_to_pred(self):
        store = ParameterStore()
        pred = store.register("pred", Tensor(np.array([0.0, 0.0, 2.0, 2.0])))
        loss = giou_loss(pred, BoundingBox(1.0, 1.0, 2.0, 2.0))
        ad.backward(loss)
        assert pred.grad is not None and np.any(pred.grad != 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="length-4"):
            giou_loss(Tensor(np.zeros(3)), BoundingBox(0, 0, 1, 1))
