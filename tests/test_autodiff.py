import math

import numpy as np
import pytest

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
            diff = ad.sub(out, Tensor(target))
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
        p.grad = np.zeros(2)
        adam_step(store, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert store.step_count("p") == 1

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

        assert inspect.signature(adam_step).parameters["lr"].default == 1e-4

    def test_missing_gradient_names_parameter(self):
        store = ParameterStore()
        store.register("alpha", Tensor(np.zeros(2)))
        store.register("beta", Tensor(np.zeros(2)))
        store["alpha"].grad = np.zeros(2)
        with pytest.raises(ValueError, match="'beta'"):
            adam_step(store)

    def test_gradients_cleared_after_step(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.ones(2)))
        p.grad = np.ones(2)
        adam_step(store)
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
            return ad.div(Tensor(np.asarray(1.0)), ad.dot(store["theta"], Tensor(np.ones(1))))

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

        def loss():
            h = ad.leaky_relu(ad.affine(w1, x, b1), 0.1)
            h = ad.tanh(ad.affine(w2, h))
            s = ad.softmax(h)
            m = ad.mul(s, ad.sigmoid(h))
            return ad.dot(m, m)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    def test_min_max_div_softplus_gradients(self):
        rng = np.random.default_rng(11)
        store = ParameterStore()
        p = store.register("p", Tensor(rng.normal(size=4)))

        def loss():
            a = ad.maximum(p, 0.25)
            b = ad.minimum(p, Tensor(np.array([0.5, 0.1, -0.3, 2.0])))
            c = ad.softplus(ad.div(a, ad.add(ad.mul(b, b), 1.0)))
            return ad.dot(c, Tensor(np.ones(4)))

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    def test_concat_stack_get_gradients(self):
        store = ParameterStore()
        p = store.register("p", Tensor(np.array([0.3, -0.2, 0.9])))

        def loss():
            v = ad.concat([p, ad.stack([ad.get(p, 0), ad.get(p, 2)])])
            return ad.dot(v, v)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-8


class TestDeterminismAndInvariants:
    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(6, 6)))
        x = Tensor(rng.normal(size=6))

        def forward():
            return ad.softmax(ad.tanh(ad.affine(w, x))).data

        assert np.array_equal(forward(), forward())

    def test_softmax_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = ad.softmax(Tensor(rng.normal(size=rng.integers(1, 7)) * 5))
            assert abs(v.data.sum() - 1.0) <= 1e-12
            assert np.all(v.data > 0)

    def test_weighted_sum_order_independent_bitwise(self, rng):
        n, dim = 5, 7
        weights = rng.normal(size=n)
        vectors = [rng.normal(size=dim) for _ in range(n)]
        perm = rng.permutation(n)
        a = ad.weighted_sum(Tensor(weights), [Tensor(v) for v in vectors])
        b = ad.weighted_sum(Tensor(weights[perm]), [Tensor(vectors[k]) for k in perm])
        assert np.array_equal(a.data, b.data)

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
