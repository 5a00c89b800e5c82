import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_giou_loss_and_grad

from remtrack import autodiff as ad
from remtrack.autodiff import ParameterStore, Tensor, gradient_check
from remtrack.st_graph import build_graph
from remtrack.geometry import (
    MIN_BOX_SIZE,
    BoundingBox,
    _box_array,
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


half_units = st.integers(-4, 4).map(lambda k: k * 0.5)
half_unit_sizes = st.integers(1, 4).map(lambda k: k * 0.5)
floor_sizes = st.sampled_from((MIN_BOX_SIZE, MIN_BOX_SIZE / 2, 0.0, -0.5))
half_grid_pred = st.tuples(
    half_units, half_units, half_unit_sizes | floor_sizes, half_unit_sizes | floor_sizes
)
half_grid_target = st.builds(
    BoundingBox, half_units, half_units,
    half_unit_sizes | st.just(MIN_BOX_SIZE), half_unit_sizes | st.just(MIN_BOX_SIZE),
)


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
        assert same_bits(iou_matrix(_box_array(rows), _box_array(cols)), scalar_table(iou, rows, cols))

    @given(grid_boxes())
    @settings(max_examples=150)
    def test_scaled_distance_matrix_bitwise_and_symmetric(self, bs):
        dm = scaled_distance_matrix(_box_array(bs))
        assert same_bits(dm, scalar_table(scaled_distance, bs, bs))
        assert same_bits(dm, dm.T.copy())

    def test_empty_inputs(self):
        b = np.array([[0.0, 0.0, 1.0, 1.0]])
        none = np.zeros((0, 4))
        assert _box_array([]).shape == (0, 4)
        assert iou_matrix(none, np.concatenate([b, b])).shape == (0, 2)
        assert iou_matrix(b, none).shape == (1, 0)
        assert scaled_distance_matrix(none).shape == (0, 0)

    def test_touching_edges_zero(self):
        a = BoundingBox.from_corner(0, 0, 1, 1)
        b = BoundingBox.from_corner(1, 0, 1, 1)
        assert iou_matrix(_box_array([a]), _box_array([b]))[0, 0] == 0.0 == iou(a, b)


def one_frame(boxes, d_th):
    """The graph frame of ``boxes`` with instance ids 0..n-1."""
    return build_graph([list(enumerate(boxes))], d_th).frames[0]


class TestAdjacency:
    """The edge rule, scaled_distance <= d_th, as build_graph applies it."""

    def test_identical_boxes_edge_at_default_threshold(self):
        b = BoundingBox(1.0, 1.0, 2.0, 2.0)
        frame = one_frame([b, b], d_th=15.0)
        assert frame.edges.tolist() == [[0, 1]]

    def test_no_self_edges(self):
        b = BoundingBox(1.0, 1.0, 2.0, 2.0)
        frame = one_frame([b, b, b], d_th=15.0)
        assert frame.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_threshold_inclusive(self):
        a = BoundingBox(10, 10, 4, 2)
        b = BoundingBox(13, 14, 6, 8)
        assert one_frame([a, b], d_th=scaled_distance(a, b)).edges.tolist() == [[0, 1]]

    def test_example_pair_beyond_threshold_three(self):
        a = BoundingBox(10, 10, 4, 2)
        b = BoundingBox(13, 14, 6, 8)
        assert one_frame([a, b], d_th=3.0).edges.tolist() == []

    def test_monotone_in_threshold(self, rng):
        bs = [BoundingBox(*rng.uniform(0, 20, 2), *rng.uniform(0.5, 3, 2)) for _ in range(8)]
        lo = one_frame(bs, d_th=2.0).edges.tolist()
        hi = one_frame(bs, d_th=6.0).edges.tolist()
        assert {tuple(e) for e in lo} <= {tuple(e) for e in hi}

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="d_th"):
            one_frame([BoundingBox(0, 0, 1, 1)], d_th=0.0)


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
        assert float(giou_loss(Tensor(b.as_array()), b.as_array()).data) == 0.0

    def test_hand_example_minus_one_third(self):
        a = BoundingBox.from_corner(0, 0, 1, 1)
        b = BoundingBox.from_corner(2, 0, 1, 1)
        assert abs(giou(a, b) - (-1.0 / 3.0)) <= 1e-12
        assert abs(float(giou_loss(Tensor(a.as_array()), b.as_array()).data) - 4.0 / 3.0) <= 1e-12

    @given(boxes, boxes)
    def test_range(self, a, b):
        v = giou(a, b)
        assert -1.0 <= v <= 1.0
        loss = float(giou_loss(Tensor(a.as_array()), b.as_array()).data)
        # the differentiable path is unclamped; allow rounding slack
        assert -1e-9 <= loss <= 2.0 + 1e-9

    def test_equals_iou_when_enclosing_box_is_union(self):
        a = BoundingBox.from_corner(0, 0, 4, 4)
        b = BoundingBox.from_corner(1, 1, 2, 2)  # contained
        assert abs(giou(a, b) - iou(a, b)) <= 1e-12

    def test_loss_positive_when_not_identical(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(0.5, 0, 2, 2)
        assert float(giou_loss(Tensor(a.as_array()), b.as_array()).data) > 0.0

    def test_matches_float_path(self, rng):
        for _ in range(50):
            a = BoundingBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            b = BoundingBox(*rng.uniform(-5, 5, 2), *rng.uniform(0.2, 4, 2))
            assert abs(float(giou_loss(Tensor(a.as_array()), b.as_array()).data) - (1.0 - giou(a, b))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        pred = store.register("pred", Tensor(np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(1, 3, 2)])))
        target = BoundingBox(*rng.uniform(-2, 2, 2), *rng.uniform(1, 3, 2))
        err = gradient_check(lambda: giou_loss(pred, target.as_array()), store, epsilon=1e-5)
        assert err < 1e-4

    def test_gradient_flows_to_pred(self):
        store = ParameterStore()
        pred = store.register("pred", Tensor(np.array([0.0, 0.0, 2.0, 2.0])))
        loss = giou_loss(pred, np.array([1.0, 1.0, 2.0, 2.0]))
        ad.backward(loss)
        assert pred.grad is not None and np.any(pred.grad != 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="length-4"):
            giou_loss(Tensor(np.zeros(3)), np.array([0.0, 0.0, 1.0, 1.0]))

    def test_rejects_targets_that_do_not_match_the_rows(self):
        for target in (np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])):
            with pytest.raises(ValueError, match=rf"got shape \(2, 4\) for targets of shape \({len(target)},"):
                giou_loss(Tensor(np.ones((2, 4))), target)

    @given(st.lists(st.tuples(half_grid_pred, half_grid_target), max_size=12))
    @settings(max_examples=150)
    def test_rows_match_scalar_oracle_row_by_row(self, pairs):
        # one node over the rows: the sum of the oracle's losses, and each
        # row's gradient the oracle's
        p = Tensor(np.array([pred for pred, _ in pairs]).reshape(-1, 4), requires_grad=True)
        loss = giou_loss(p, _box_array([target for _, target in pairs]))
        assert loss._parents == (p,)
        ad.backward(loss)
        oracle = [scalar_giou_loss_and_grad(pred, target) for pred, target in pairs]
        assert same_bits(loss.data, np.asarray(np.sum([value for value, _ in oracle])))
        for row, (_, expected_grad) in zip(p.grad, oracle):
            expected_grad = np.array(expected_grad)
            assert np.max(np.abs(row - expected_grad)) <= 1e-12 * np.max(np.abs(expected_grad))

    def test_one_tape_node(self):
        pred = Tensor(np.array([0.5, 0.0, 2.0, 1.0]), requires_grad=True)
        loss = giou_loss(pred, np.array([1.0, 0.5, 2.0, 2.0]))
        assert loss.requires_grad and loss._parents == (pred,)

    @given(half_grid_pred, half_grid_target)
    @settings(max_examples=400)
    def test_matches_scalar_oracle_on_ties(self, pred, target):
        # Half-unit boxes touch, share corners, nest and repeat, so every
        # max/min of the loss meets ties; sizes at or below MIN_BOX_SIZE meet
        # the size floor.
        expected, expected_grad = scalar_giou_loss_and_grad(pred, target)
        p = Tensor(np.array(pred), requires_grad=True)
        loss = giou_loss(p, target.as_array())
        ad.backward(loss)
        assert same_bits(loss.data, np.asarray(expected))
        expected_grad = np.array(expected_grad)
        assert np.max(np.abs(p.grad - expected_grad)) <= 1e-12 * np.max(np.abs(expected_grad))
