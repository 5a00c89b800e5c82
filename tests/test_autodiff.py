import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_sum
from remtrack import autodiff as ad
from remtrack.autodiff import (
    GruCellParams,
    ParameterStore,
    Tensor,
    adam_step,
    backward,
    gradient_check,
    gru_cell,
    no_grad,
)


def zeroed_gru(input_dim=3, hidden_dim=3):
    store = ParameterStore()
    cell = GruCellParams.create(store, "g", input_dim, hidden_dim, np.random.default_rng(0))
    for name in store.names():
        store[name].data[:] = 0.0
    return store, cell


class TestLinearForward:
    def test_identity(self):
        out = ad.affine(Tensor(np.eye(2)), Tensor(np.array([3.0, -1.0])), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, [3.0, -1.0])

    def test_one_by_one(self):
        out = ad.affine(Tensor([[2.0]]), Tensor([3.0]), Tensor([1.0]))
        assert out.data[0] == 7.0

    def test_gradient_wrt_input_is_column_sums(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 3)))
        store = ParameterStore()
        x = store.register("x", Tensor(rng.normal(size=3)))

        ones = Tensor(np.ones(4))
        err = gradient_check(lambda: ad.dot(ad.affine(w, x), ones), store, epsilon=1e-5)
        assert err < 1e-6
        backward(ad.dot(ad.affine(w, x), ones))
        assert np.allclose(x.grad, w.data.sum(axis=0), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="affine"):
            ad.affine(Tensor(np.eye(2)), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="bias"):
            ad.affine(Tensor(np.eye(2)), Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="affine"):
            ad.affine(Tensor(np.eye(2)), Tensor(np.zeros((4, 3))))
        with pytest.raises(ValueError, match="matrix of rows"):
            ad.affine(Tensor(np.eye(2)), Tensor(np.zeros((1, 4, 2))))

    def test_rows_have_the_bits_of_vector_calls(self):
        rng = np.random.default_rng(4)
        store = ParameterStore()
        w = store.register("w", Tensor(rng.normal(size=(5, 3))))
        b = store.register("b", Tensor(rng.normal(size=5)))
        x = store.register("x", Tensor(rng.normal(size=(9, 3))))
        c = rng.normal(size=(9, 5))
        out = ad.affine(w, x, b)
        backward(weighted_sum(out, c))
        for p in range(9):
            assert np.array_equal(out.data[p], w.data @ x.data[p] + b.data)
            assert np.array_equal(x.grad[p], w.data.T @ c[p])
        bias = c[0].copy()
        for row in c[1:]:
            bias = bias + row  # one row after another, as one call per row adds them
        assert np.array_equal(b.grad, bias)
        assert_close_rel(w.grad, c.T @ x.data)


class TestGruCell:
    def test_zero_weights_halve_hidden_state(self):
        _, cell = zeroed_gru()
        h0 = np.array([1.0, 2.0, -3.0])
        out = gru_cell(cell, Tensor(np.zeros(3)), Tensor(h0))
        assert np.array_equal(out.data, 0.5 * h0)

    def test_zero_input_zero_state_fixed_point(self):
        store = ParameterStore()
        cell = GruCellParams.create(store, "g", 3, 3, np.random.default_rng(5))
        out = gru_cell(cell, Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros(3))

    def test_gradients_match_finite_differences(self):
        store = ParameterStore()
        cell = GruCellParams.create(store, "g", 3, 4, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=3)
        h = np.random.default_rng(9).normal(size=4)
        target = np.random.default_rng(10).normal(size=4)

        def loss():
            out = gru_cell(cell, Tensor(x), Tensor(h))
            diff = ad.add(out, Tensor(-target))
            return ad.dot(diff, diff)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    def test_gradient_flows_to_input_and_state(self):
        store = ParameterStore()
        cell = GruCellParams.create(store, "g", 2, 2, np.random.default_rng(1))
        x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
        h = Tensor(np.array([0.1, 0.4]), requires_grad=True)
        backward(ad.dot(gru_cell(cell, x, h), Tensor(np.ones(2))))
        assert x.grad is not None and np.any(x.grad != 0)
        assert h.grad is not None and np.any(h.grad != 0)

    def test_dimension_mismatch_rejected(self):
        _, cell = zeroed_gru(3, 3)
        with pytest.raises(ValueError, match="gru input"):
            gru_cell(cell, Tensor(np.zeros(4)), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="gru hidden"):
            gru_cell(cell, Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestXavierInit:
    """Weight matrices come from ParameterStore.matrix."""

    @staticmethod
    def matrix(rows, cols, seed):
        return ParameterStore().matrix("w", rows, cols, np.random.default_rng(seed))

    def test_same_seed_bitwise_identical(self):
        a = self.matrix(17, 9, seed=42)
        b = self.matrix(17, 9, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_variance_close_to_glorot(self):
        t = self.matrix(512, 512, seed=0)
        expected = 2.0 / (512 + 512)
        assert abs(t.data.var() - expected) < 0.15 * expected

    def test_samples_within_bound(self):
        rows, cols = 64, 48
        t = self.matrix(rows, cols, seed=3)
        bound = math.sqrt(6.0 / (rows + cols))
        assert np.all(np.abs(t.data) <= bound)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.array([1.0, -2.0])))
        q = store.register("q", Tensor(np.array([1.0, -2.0])))
        p.grad = np.zeros(2)
        g = np.array([0.25, -4.0])
        q.grad = g.copy()
        adam_step(store, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        # the same step moves a parameter with a gradient by Adam's first update
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(q.data, expected, rtol=1e-12, atol=0.0)

    def test_first_step_is_signed_learning_rate(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.array([1.0, 1.0, 1.0])))
        g = np.array([0.5, -2.0, 3.0])
        p.grad = g.copy()
        adam_step(store, lr=1e-3)
        update = p.data - 1.0
        assert np.allclose(update, -1e-3 * np.sign(g), rtol=1e-6)

    def test_default_learning_rate_matches_recipe(self):
        import inspect

        from remtrack.autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        from remtrack.tracker import TrainConfig

        # the learning rate is the recipe's, never a default of the step
        assert inspect.signature(adam_step).parameters["lr"].default is inspect.Parameter.empty
        assert TrainConfig().lr == 1e-4
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_missing_gradient_names_parameter(self):
        store = ParameterStore()
        store.register("alpha", Tensor(np.zeros(2)))
        store.register("beta", Tensor(np.zeros(2)))
        store["alpha"].grad = np.zeros(2)
        with pytest.raises(ValueError, match="'beta'"):
            adam_step(store, lr=1e-3)

    def test_matches_textbook_update_bitwise(self):
        rng = np.random.default_rng(55)
        store = ParameterStore()
        p = store.register("p", Tensor(rng.normal(size=(5, 3))))
        data, m, v = p.data.copy(), np.zeros((5, 3)), np.zeros((5, 3))
        lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            g = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-6, 3)
            p.grad = g.copy()
            adam_step(store, lr=lr)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            data = data - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
            assert np.array_equal(p.data, data)

    def test_gradients_cleared_after_step(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.ones(2)))
        p.grad = np.ones(2)
        adam_step(store, lr=1e-3)
        assert p.grad is None


class TestGradientCheck:
    def test_quadratic_loss(self):
        store = ParameterStore()
        store.register("theta", Tensor(np.array([1.0, -2.0, 0.5])))
        err = gradient_check(lambda: ad.dot(store["theta"], store["theta"]), store)
        assert err < 1e-8

    def test_linear_loss_near_exact(self):
        store = ParameterStore()
        store.register("theta", Tensor(np.array([0.3, 0.7])))
        c = Tensor(np.array([2.0, -1.0]))
        err = gradient_check(lambda: ad.dot(store["theta"], c), store)
        assert err < 1e-9

    def test_non_finite_loss_rejected(self):
        store = ParameterStore()
        store.register("theta", Tensor(np.array([0.0])))

        def bad():
            return ad.add(ad.dot(store["theta"], Tensor(np.ones(1))), math.inf)

        with pytest.raises(ValueError, match="finite"):
            gradient_check(bad, store)

    def test_epsilon_range_enforced(self):
        store = ParameterStore()
        store.register("theta", Tensor(np.ones(1)))
        with pytest.raises(ValueError, match="epsilon"):
            gradient_check(lambda: ad.dot(store["theta"], Tensor(np.ones(1))), store, epsilon=1e-2)


class TestCompositeGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_composites_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        w1 = store.register("w1", Tensor(rng.normal(size=(5, 4)) * 0.5))
        b1 = store.register("b1", Tensor(rng.normal(size=5) * 0.1))
        w2 = store.register("w2", Tensor(rng.normal(size=(3, 5)) * 0.5))
        x = Tensor(rng.normal(size=4))
        shift = Tensor(-rng.uniform(0.5, 1.5, size=3))

        def loss():
            h = ad.leaky_relu(ad.affine(w1, x, b1), 0.1)
            h = ad.leaky_relu(ad.affine(w2, h), 0.3)
            s = ad.softmax(h)
            m = ad.mul(s, ad.add(h, shift))
            return ad.dot(m, m)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    def test_concat_stack_gradients(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.array([0.3, -0.2, 0.9])))
        first, last = Tensor(np.array([1.0, 0.0, 0.0])), Tensor(np.array([0.0, 0.0, 1.0]))

        def loss():
            v = ad.concat([p, ad.stack([ad.dot(p, first), ad.dot(p, last)])])
            return ad.dot(v, v)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-8


class TestDeterminismAndInvariants:
    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(6, 6)))
        x = Tensor(rng.normal(size=6))

        def forward():
            return ad.softmax(ad.leaky_relu(ad.affine(w, x), 0.3)).data

        assert np.array_equal(forward(), forward())

    def test_softmax_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = ad.softmax(Tensor(rng.normal(size=rng.integers(1, 7)) * 5))
            assert abs(v.data.sum() - 1.0) <= 1e-12
            assert np.all(v.data > 0)

    def test_softmax_order_equivariant_bitwise(self, rng):
        logits = rng.normal(size=6)
        perm = rng.permutation(6)
        a = ad.softmax(Tensor(logits)).data
        b = ad.softmax(Tensor(logits[perm])).data
        assert np.array_equal(a[perm], b)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor(np.zeros(3)))

    def test_no_grad_suppresses_tape(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.ones(2)))
        with no_grad():
            out = ad.dot(p, p)
        assert out._backward is None and not out.requires_grad

    def test_grad_accumulates_across_uses(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.array([2.0])))
        out = ad.add(ad.mul(p, 3.0), ad.mul(p, 4.0))
        backward(ad.dot(out, Tensor(np.ones(1))))
        assert np.allclose(p.grad, [7.0])

    def test_duplicate_parameter_name_rejected(self):
        store = ParameterStore()
        store.register("p", Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="already registered"):
            store.register("p", Tensor(np.zeros(1)))


def assert_close_rel(got, expected, rtol=1e-12):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def dense_gru_grads(cell, xs, h0, g_out):
    """Gradients of dot(h_T, g_out) through a chain of GRU steps, each weight
    gradient summed as one dense outer product per step."""
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    steps, h = [], h0
    for x in xs:
        z = sig(cell.w_z.data @ x + cell.b_z.data + cell.u_z.data @ h)
        r = sig(cell.w_r.data @ x + cell.b_r.data + cell.u_r.data @ h)
        cand = np.tanh(cell.w_h.data @ x + cell.b_h.data + cell.u_h.data @ (r * h))
        steps.append((x, h, z, r, cand))
        h = h + z * (cand - h)
    grads = {name: np.zeros_like(getattr(cell, name).data) for name in
             ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
    g = g_out
    for x, h, z, r, cand in reversed(steps):
        daz = g * (cand - h) * z * (1.0 - z)
        dah = g * z * (1.0 - cand * cand)
        drh = cell.u_h.data.T @ dah
        dar = drh * h * r * (1.0 - r)
        for gate, d, rec in (("z", daz, h), ("r", dar, h), ("h", dah, r * h)):
            grads[f"w_{gate}"] += np.outer(d, x)
            grads[f"u_{gate}"] += np.outer(d, rec)
            grads[f"b_{gate}"] += d
        g = g * (1.0 - z) + cell.u_z.data.T @ daz + cell.u_r.data.T @ dar + drh * r
    return grads


class TestFactoredWeightGradients:
    """Weight gradients travel as row factors and are reduced once per sweep."""

    def test_affine_weight_gradient_equals_outer_product_sum(self):
        rng = np.random.default_rng(50)
        store = ParameterStore()
        w = store.register("w", Tensor(rng.normal(size=(4, 3))))
        b = store.register("b", Tensor(rng.normal(size=4)))
        xs = [rng.normal(size=3) for _ in range(5)]
        cs = [rng.normal(size=4) for _ in range(5)]
        loss = ad.dot(ad.affine(w, Tensor(xs[0]), b), Tensor(cs[0]))
        for x, c in zip(xs[1:], cs[1:]):
            loss = ad.add(loss, ad.dot(ad.affine(w, Tensor(x)), Tensor(c)))
        backward(loss)
        assert_close_rel(w.grad, sum(np.outer(c, x) for x, c in zip(xs, cs)))
        assert np.array_equal(b.grad, cs[0])

    def test_gru_weight_gradients_equal_outer_product_sums(self):
        rng = np.random.default_rng(51)
        store = ParameterStore()
        cell = GruCellParams.create(store, "g", 6, 6, rng)
        for name in ("b_z", "b_r", "b_h"):
            getattr(cell, name).data[:] = rng.normal(size=6)
        xs = [rng.normal(size=6) for _ in range(4)]
        h0, g_out = rng.normal(size=6), rng.normal(size=6)
        h = Tensor(h0)
        for x in xs:
            h = gru_cell(cell, Tensor(x), h)
        backward(ad.dot(h, Tensor(g_out)))
        for name, expected in dense_gru_grads(cell, xs, h0, g_out).items():
            assert_close_rel(getattr(cell, name).grad, expected)

    def test_weight_that_is_not_a_leaf_passes_gradient_check(self):
        # leaky_relu(w) is an inner node, so its factors are multiplied out
        # before its own closure runs
        rng = np.random.default_rng(52)
        store = ParameterStore()
        w = store.register("w", Tensor(rng.normal(size=(3, 4))))
        x1, x2 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        c = Tensor(rng.normal(size=3))

        def loss():
            sw = ad.leaky_relu(w, 0.5)
            return ad.add(ad.dot(ad.affine(sw, x1), c), ad.dot(ad.leaky_relu(ad.affine(sw, x2), 0.5), c))

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    def test_factor_and_dense_contributions_add(self):
        rng = np.random.default_rng(53)
        store = ParameterStore()
        p = store.register("p", Tensor(rng.normal(size=(3, 4))))
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        loss = ad.add(
            ad.dot(ad.affine(p, Tensor(x1)), Tensor(c1)),
            ad.dot(ad.affine(ad.leaky_relu(p, 0.5), Tensor(x2)), Tensor(c2)),
        )
        backward(loss)
        slope = np.where(p.data >= 0, 1.0, 0.5)
        assert_close_rel(p.grad, np.outer(c1, x1) + slope * np.outer(c2, x2))

    def test_backward_adds_to_existing_grad(self):
        rng = np.random.default_rng(54)
        store = ParameterStore()
        w = store.register("w", Tensor(rng.normal(size=(2, 3))))
        b = store.register("b", Tensor(rng.normal(size=2)))
        x, c = rng.normal(size=3), rng.normal(size=2)
        w0, b0 = rng.normal(size=(2, 3)), rng.normal(size=2)
        w.grad, b.grad = w0.copy(), b0.copy()
        backward(ad.dot(ad.affine(w, Tensor(x), b), Tensor(c)))
        assert_close_rel(w.grad, w0 + np.outer(c, x))
        assert np.array_equal(b.grad, b0 + c)


class TestGruScan:
    """``gru_scan`` at dim 4 over a run of three frames: two rows carried
    from ``h0``, a third row entering at the second frame."""

    PREV = np.array([1, 0, 3, 2, -1, 4, 5, 6])  # h0 has 2 rows; run rows start at 2
    BOUNDS = np.array([0, 2, 5, 8])

    def setup_scan(self, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        cell = GruCellParams.create(store, "g", 4, 4, rng)
        for name in ("b_z", "b_r", "b_h"):
            getattr(cell, name).data[:] = rng.normal(size=4)
        x = store.register("x", Tensor(rng.normal(size=(8, 4))))
        h0 = store.register("h0", Tensor(rng.normal(size=(2, 4))))
        return store, cell, x, h0, rng.normal(size=(8, 4))

    def test_rows_equal_gru_cell_chain(self):
        store, cell, x, h0, _ = self.setup_scan(70)
        out = ad.gru_scan(cell, x, h0, self.PREV, self.BOUNDS).data
        states = list(h0.data)
        for p, k in enumerate(self.PREV):
            h = states[k] if k >= 0 else np.zeros(4)
            states.append(gru_cell(cell, Tensor(x.data[p]), Tensor(h)).data)
        assert_close_rel(out, np.array(states[2:]))

    def test_each_frame_has_the_bits_of_a_scan_of_its_own(self):
        store, cell, x, h0, _ = self.setup_scan(71)
        out = ad.gru_scan(cell, x, h0, self.PREV, self.BOUNDS).data
        state = h0
        for k, (a, b) in enumerate(zip(self.BOUNDS[:-1], self.BOUNDS[1:])):
            # the previous frame's output as h0, as the relation module
            # carries it from one call to the next
            first = 0 if k == 0 else 2 + self.BOUNDS[k - 1]
            prev = np.where(self.PREV[a:b] >= 0, self.PREV[a:b] - first, -1)
            state = ad.gru_scan(cell, Tensor(x.data[a:b]), state, prev, np.array([0, b - a]))
            assert np.array_equal(state.data, out[a:b])

    def test_gradient_check(self):
        store, cell, x, h0, weights = self.setup_scan(72)

        def loss():
            out = ad.gru_scan(cell, x, h0, self.PREV, self.BOUNDS)
            total = ad.dot(ad.take(out, 0), Tensor(weights[0]))
            for p in range(1, 8):
                total = ad.add(total, ad.dot(ad.take(out, p), Tensor(weights[p])))
            return total

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-6
        backward(loss())
        assert all(np.any(store[name].grad != 0) for name in store.names())


class TestOrderedScatter:
    """``ad._add_at`` over ``ad._scatter_ranks(index)`` has the bits of
    ``np.add.at`` along ``index``: every target adds its rows one after
    another, in their order, however many scatters share one ranking."""

    # 1e16 + 1.0 - 1e16 depends on the order of the terms, and -0.0 on a
    # zero target stays a zero of the target's sign only in order
    VALUES = [1e16, -1e16, 1.0, 3.5, 1e-300, 0.0, -0.0]

    @given(
        st.lists(st.integers(0, 5), max_size=40),
        st.lists(st.lists(st.integers(0, len(VALUES) - 1), min_size=40, max_size=40), min_size=1, max_size=4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_np_add_at_bitwise(self, targets, terms, negative_zero_targets):
        # as in REM's backward: one ranking of an index, then scatters of
        # different rows, 1-D and 2-D, into different arrays along it
        index = np.array(targets, dtype=np.intp)
        ranks = ad._scatter_ranks(index)
        for k, term in enumerate(terms):
            values = np.array([self.VALUES[v] for v in term[: len(index)]])
            rows = values if k % 2 == 0 else np.stack([values, -values, values[::-1]], axis=1)
            expected = np.full((6,) + rows.shape[1:], -0.0 if negative_zero_targets else 0.0)
            got = expected.copy()
            np.add.at(expected, index, rows)
            ad._add_at(got, ranks, rows)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
