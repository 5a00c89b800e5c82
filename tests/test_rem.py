import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scalar_rem_transcription
from remtrack import autodiff as ad
from remtrack.autodiff import Tensor, gradient_check
from remtrack.geometry import BoundingBox, scaled_distance
from remtrack.rem import (
    RemState,
    _attend,
    _node_features,
    _relation_update,
    _replay_relation,
    _window_node_features,
    attention_coefficients,
    message,
    node_feature,
    relation_importance,
    relation_importance_records,
    rem_step,
    spatiotemporal_update,
)
from remtrack.simulator import ScenarioConfig, generate
from remtrack.st_graph import build_graph

from conftest import make_rem


def box(cx, cy, w=2.0, h=2.0):
    return BoundingBox(cx, cy, w, h)


def zeroed_rem(dim=4):
    store, params = make_rem(dim=dim)
    for name in store.names():
        store[name].data[:] = 0.0
    return store, params


def random_graph(rng, n_frames=3, n_instances=4, spread=8.0, d_th=6.0, p_present=1.0):
    frames = []
    for _ in range(n_frames):
        frame = [
            (i, box(rng.uniform(0, spread), rng.uniform(0, spread), rng.uniform(1, 3), rng.uniform(1, 3)))
            for i in range(n_instances)
            if rng.random() < p_present
        ]
        frames.append(frame)
    return build_graph(frames, d_th=d_th)


def run_rem(params, graph):
    state = RemState()
    out = []
    for t in range(graph.n_frames):
        out.append({e.instance: e.vector for e in rem_step(params, state, graph, t)})
    return out, state


class TestNodeFeature:
    def test_zero_weights_zero_state(self):
        _, params = zeroed_rem()
        v = node_feature(params, box(3, 4), None, None)
        assert np.array_equal(v.data, np.zeros(params.dim))

    def test_stationary_object_equals_first_frame_encoding(self):
        # zero offset either way, so the two calls see identical inputs
        store, params = make_rem(dim=6, seed=2)
        b = box(5, 5)
        a = node_feature(params, b, b, Tensor(np.zeros(6)))
        c = node_feature(params, b, None, None)
        assert np.array_equal(a.data, c.data)

    def test_zero_weights_halve_previous_state(self):
        _, params = zeroed_rem()
        h0 = np.array([0.5, -1.0, 2.0, 0.25])
        v = node_feature(params, box(1, 1), box(0, 1), Tensor(h0))
        assert np.array_equal(v.data, 0.5 * h0)


class TestMessage:
    def test_zero_weights_zero_message(self):
        _, params = zeroed_rem()
        m = message(params, Tensor(np.ones(4)), Tensor(np.ones(4)), 1.0)
        assert np.array_equal(m.data, np.zeros(4))

    def test_directional(self):
        store, params = make_rem(dim=6, seed=3)
        rng = np.random.default_rng(4)
        v_i = Tensor(rng.normal(size=6))
        v_j = Tensor(rng.normal(size=6))
        m_ij = message(params, v_i, v_j, 2.0)
        m_ji = message(params, v_j, v_i, 2.0)
        assert not np.allclose(m_ij.data, m_ji.data)

    def test_negative_distance_rejected(self):
        _, params = zeroed_rem()
        with pytest.raises(ValueError, match="non-negative"):
            message(params, Tensor(np.zeros(4)), Tensor(np.zeros(4)), -1.0)

    def test_gradient_wrt_first_layer(self):
        store, params = make_rem(dim=4, seed=5)
        rng = np.random.default_rng(6)
        v_i, v_j = rng.normal(size=4), rng.normal(size=4)

        def loss():
            m = message(params, Tensor(v_i), Tensor(v_j), 1.5)
            return ad.dot(m, m)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4
        store.clear_grads()
        ad.backward(loss())
        assert np.any(store["rem.w_m1"].grad != 0)


class TestAttention:
    def test_single_neighbor_weight_one(self):
        store, params = make_rem(dim=5, seed=7)
        rng = np.random.default_rng(8)
        alphas = attention_coefficients(params, Tensor(rng.normal(size=5)), [Tensor(rng.normal(size=5))])
        assert alphas.data.shape == (1,)
        assert alphas.data[0] == 1.0

    def test_identical_neighbors_split_evenly(self):
        store, params = make_rem(dim=5, seed=9)
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(size=5))
        n = Tensor(rng.normal(size=5))
        alphas = attention_coefficients(params, v, [n, n])
        assert np.array_equal(alphas.data, [0.5, 0.5])

    def test_normalized_on_random_inputs(self):
        store, params = make_rem(dim=6, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            alphas = attention_coefficients(
                params, Tensor(rng.normal(size=6) * 3), [Tensor(rng.normal(size=6) * 3) for _ in range(k)]
            )
            assert abs(alphas.data.sum() - 1.0) <= 1e-12
            assert np.all(alphas.data > 0)

    def test_empty_neighbor_set_rejected(self):
        _, params = zeroed_rem()
        with pytest.raises(ValueError, match="non-empty"):
            attention_coefficients(params, Tensor(np.zeros(4)), [])


def reference_aggregate(params, v_i, senders, distances):
    """Sum_j alpha_ij m_ij from the public per-sender functions."""
    msgs = [message(params, v_i, v_j, d) for v_j, d in zip(senders, distances)]
    alphas = attention_coefficients(params, v_i, senders)
    return sum(a * m.data for a, m in zip(alphas.data, msgs))


def assert_close_rel(got, expected, rtol=1e-12):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestFusedReceiver:
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_matches_reference_composition(self, k):
        store, params = make_rem(dim=6, seed=40 + k)
        rng = np.random.default_rng(41 + k)
        v_i = Tensor(rng.normal(size=6))
        senders = [Tensor(rng.normal(size=6)) for _ in range(k)]
        distances = rng.uniform(0.0, 5.0, size=k)
        got = _attend(params, v_i, senders, distances).data
        assert_close_rel(got, reference_aggregate(params, v_i, senders, distances))

    @pytest.mark.parametrize("exclude", [None, 0, 3])
    def test_relation_update_matches_reference(self, exclude):
        store, params = make_rem(dim=5, seed=42)
        rng = np.random.default_rng(43)
        nodes = [(i, box(rng.uniform(0, 4), rng.uniform(0, 4))) for i in range(8)]
        frame = build_graph([nodes], d_th=50.0).frames[0]
        v = _node_features(params, frame, {}, {})
        r_prev = Tensor(rng.normal(size=5))
        i = 5
        assert len(frame.neighbors[i]) == 7
        nbrs = [j for j in frame.neighbors[i] if j != exclude]
        aggregated = reference_aggregate(
            params, v[i], [v[j] for j in nbrs], [frame.distance(i, j) for j in nbrs]
        )
        expected = spatiotemporal_update(params, v[i], Tensor(aggregated), r_prev).data
        got = _relation_update(params, frame, v, i, r_prev, exclude).data
        assert_close_rel(got, expected)

    def test_gradient_through_one_receiver(self):
        # inputs registered as parameters, so their gradients are checked too
        store, params = make_rem(dim=4, seed=44)
        rng = np.random.default_rng(45)
        v_i = store.register("v_i", Tensor(rng.normal(size=4)))
        senders = [store.register(f"v_{j}", Tensor(rng.normal(size=4))) for j in range(3)]
        distances = np.array([0.5, 1.5, 2.5])

        def loss():
            out = _attend(params, v_i, senders, distances)
            return ad.dot(out, out)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4


class TestSpatiotemporalUpdate:
    def test_zero_weights_halve_relation_state(self):
        _, params = zeroed_rem()
        r0 = np.array([1.0, -2.0, 0.5, 4.0])
        r = spatiotemporal_update(params, Tensor(np.zeros(4)), Tensor(np.zeros(4)), Tensor(r0))
        assert np.array_equal(r.data, 0.5 * r0)

    def test_isolated_equals_zero_message_neighbors(self):
        # zero aggregated message and no neighbors must be indistinguishable
        store, params = make_rem(dim=4, seed=13)
        rng = np.random.default_rng(14)
        v = rng.normal(size=4)
        r_prev = rng.normal(size=4)
        a = spatiotemporal_update(params, Tensor(v), Tensor(np.zeros(4)), Tensor(r_prev))
        b = spatiotemporal_update(params, Tensor(v.copy()), Tensor(np.zeros(4)), Tensor(r_prev.copy()))
        assert np.array_equal(a.data, b.data)

    def test_gradient_wrt_update_weights(self):
        store, params = make_rem(dim=4, seed=15)
        rng = np.random.default_rng(16)
        v, agg, r_prev = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)

        def loss():
            r = spatiotemporal_update(params, Tensor(v), Tensor(agg), Tensor(r_prev))
            return ad.dot(r, r)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4


class TestRemStep:
    def test_matches_scalar_transcription_on_clique(self):
        store, params = make_rem(dim=5, seed=17)
        rng = np.random.default_rng(18)
        frames = []
        base = rng.uniform(2, 6, size=(3, 2))
        for t in range(4):
            frames.append(
                [(i, box(base[i, 0] + 0.4 * t, base[i, 1] + 0.1 * t, 2.0, 2.0)) for i in range(3)]
            )
        graph = build_graph(frames, d_th=15.0)
        got, _ = run_rem(params, graph)
        expected = scalar_rem_transcription(params, [dict(f) for f in frames], d_th=15.0)
        for t in range(4):
            for i in range(3):
                assert np.allclose(got[t][i], expected[(t, i)], rtol=1e-9, atol=1e-12)

    def test_solo_object_independent_of_others(self):
        # spatially isolated object embeds identically to a solo run, bitwise
        store, params = make_rem(dim=6, seed=19)
        solo_frames = [[(7, box(50.0, 50.0 + 0.3 * t))] for t in range(5)]
        crowd_frames = [
            [(7, box(50.0, 50.0 + 0.3 * t)), (1, box(2.0, 2.0)), (2, box(3.0, 2.5))]
            for t in range(5)
        ]
        solo, _ = run_rem(params, build_graph(solo_frames, d_th=6.0))
        crowd, _ = run_rem(params, build_graph(crowd_frames, d_th=6.0))
        for t in range(5):
            assert np.array_equal(solo[t][7], crowd[t][7])

    def test_permutation_equivariance_bitwise(self):
        store, params = make_rem(dim=5, seed=20)
        rng = np.random.default_rng(21)
        for _ in range(25):
            graph = random_graph(rng, n_frames=3, n_instances=5, d_th=7.0)
            before, _ = run_rem(params, graph)
            perm = {i: int(p) for i, p in zip(range(5), rng.permutation(100)[:5])}
            relabeled = [
                [(perm[i], frame.boxes[i]) for i in frame.ids] for frame in graph.frames
            ]
            after, _ = run_rem(params, build_graph(relabeled, d_th=7.0))
            for t in range(3):
                for i in before[t]:
                    assert np.array_equal(before[t][i], after[t][perm[i]])

    @given(
        st.lists(st.integers(0, 2), min_size=4, max_size=7),
        st.lists(st.integers(0, 2), min_size=4, max_size=7),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_boxes_relabel_bitwise(self, slots_0, slots_1, random):
        # instances drawn onto three box slots, so neighbors share boxes (and
        # distances) in both frames, with equal or different histories
        slots = [box(2.0, 2.0), box(3.5, 2.5), box(2.5, 3.75, 1.5, 2.5)]
        n = min(len(slots_0), len(slots_1))
        assert len(set(slots_0[:n])) < n  # four or more instances on three slots
        frames = [
            [(i, slots[slots_0[i]]) for i in range(n)],
            [(i, slots[slots_1[i]]) for i in range(n)],
        ]
        store, params = make_rem(dim=5, seed=48)
        before, _ = run_rem(params, build_graph(frames, d_th=6.0))
        perm = dict(zip(range(n), random.sample(range(100), n)))
        relabeled = [[(perm[i], b) for i, b in frame] for frame in frames]
        after, _ = run_rem(params, build_graph(relabeled, d_th=6.0))
        for t in range(2):
            for i in range(n):
                assert np.array_equal(before[t][i], after[t][perm[i]])

    def test_state_graph_mismatch_rejected(self):
        store, params = make_rem(dim=4, seed=22)
        graph = build_graph([[(0, box(1, 1))], [(0, box(1.2, 1))]], d_th=15)
        state = RemState()
        with pytest.raises(ValueError, match="do not match"):
            rem_step(params, state, graph, 1)  # skipped frame 0

    def test_new_and_departed_instances(self):
        store, params = make_rem(dim=4, seed=23)
        frames = [
            [(0, box(1, 1)), (1, box(2, 1))],
            [(1, box(2.2, 1)), (5, box(4, 4))],
        ]
        graph = build_graph(frames, d_th=15)
        state = RemState()
        rem_step(params, state, graph, 0)
        assert state.live() == {0, 1}
        rem_step(params, state, graph, 1)
        assert state.live() == {1, 5}

    def test_zero_history_first_frame_depends_on_own_box_only(self):
        store, params = make_rem(dim=4, seed=24)
        g1 = build_graph([[(0, box(3, 3)), (1, box(30, 30))]], d_th=2.0)
        g2 = build_graph([[(0, box(3, 3)), (1, box(40, 10))]], d_th=2.0)
        a, _ = run_rem(params, g1)
        b, _ = run_rem(params, g2)
        assert np.array_equal(a[0][0], b[0][0])


class TestRelationImportance:
    def test_gated_beyond_threshold(self):
        store, params = make_rem(dim=4, seed=25)
        frames = [[(0, box(0, 0, 1, 1)), (1, box(30, 0, 1, 1))] for _ in range(3)]
        graph = build_graph(frames, d_th=5.0)
        assert scaled_distance(frames[0][0][1], frames[0][1][1]) > 5.0
        assert relation_importance(params, graph, 2, 0, 1) == 0.0

    def test_never_adjacent_neighbor_changes_nothing(self):
        # j out of range for the whole window: exclusion is a no-op and the
        # gate is closed, so the importance is exactly zero either way
        store, params = make_rem(dim=4, seed=26)
        frames = [
            [(0, box(0, 0, 1, 1)), (1, box(20, 0, 1, 1))],
            [(0, box(0, 0, 1, 1)), (1, box(10, 0, 1, 1))],
            [(0, box(0, 0, 1, 1)), (1, box(8, 0, 1, 1))],
        ]
        graph = build_graph(frames, d_th=5.0)
        assert all(graph.spatial_edges(t) == () for t in range(3))
        assert relation_importance(params, graph, 2, 0, 1) == 0.0

    def test_phi_identical_zero_orthogonal_one(self):
        from remtrack.rem import _phi

        v = np.array([0.3, -0.2, 0.8])
        assert _phi(v, v) == 0.0
        assert _phi(v, 2.5 * v) <= 1e-12  # colinear
        a = np.array([1.0, 0.0])
        b = np.array([0.0, -3.0])
        assert _phi(a, b) == 1.0
        assert _phi(np.zeros(3), v) == 0.0  # zero-norm convention

    def test_range_and_asymmetry_allowed(self):
        store, params = make_rem(dim=5, seed=27)
        rng = np.random.default_rng(28)
        graph = random_graph(rng, n_frames=4, n_instances=4, spread=5.0, d_th=8.0)
        frame = graph.frames[3]
        for i in frame.ids:
            for j in frame.neighbors[i]:
                r = relation_importance(params, graph, 3, i, j)
                assert 0.0 <= r <= 1.0

    def test_same_instance_rejected(self):
        store, params = make_rem(dim=4, seed=29)
        graph = build_graph([[(0, box(1, 1))]], d_th=5.0)
        with pytest.raises(ValueError, match="distinct"):
            relation_importance(params, graph, 0, 0, 0)

    def test_absent_instance_rejected(self):
        store, params = make_rem(dim=4, seed=30)
        graph = build_graph([[(0, box(1, 1))]], d_th=5.0)
        with pytest.raises(ValueError, match="present"):
            relation_importance(params, graph, 0, 0, 9)

    def test_records_cover_gated_pairs(self):
        store, params = make_rem(dim=4, seed=31)
        b = box(1, 1)
        graph = build_graph([[(0, b), (1, b), (2, box(50, 50))]], d_th=5.0)
        records = relation_importance_records(params, graph)
        pairs = {(t, i, j) for t, i, j, _ in records}
        assert pairs == {(0, 0, 1), (0, 1, 0)}
        for _, _, _, r in records:
            assert 0.0 <= r <= 1.0


    def test_window_replay_equals_rem_step_bitwise(self):
        # within the first window the replay starts where rem_step starts, so
        # the two must run the same recurrence, including re-entry resets
        store, params = make_rem(dim=8, seed=32)
        rng = np.random.default_rng(33)
        graph = random_graph(rng, n_frames=6, n_instances=5, spread=6.0, d_th=6.0, p_present=0.7)
        stepped, _ = run_rem(params, graph)
        window = graph.n_frames
        with ad.no_grad():
            for t in range(window):
                feats = _window_node_features(params, graph, t, window)
                for i in graph.frames[t].ids:
                    replayed = _replay_relation(params, graph, t, window, i, feats, exclude=None)
                    assert np.array_equal(replayed, stepped[t][i])

    def test_records_equal_pairwise_importance_bitwise(self):
        store, params = make_rem(dim=8, seed=34)
        seq = generate(ScenarioConfig(n_frames=8, n_groups=3, seed=5))
        graph = build_graph(seq.as_track_frames(), d_th=15.0)
        records = relation_importance_records(params, graph, window=4)
        assert records
        for t, i, j, value in records:
            assert value == relation_importance(params, graph, t, i, j, window=4)


class TestZeroNormCosine:
    def test_zero_embedding_importance_zero(self):
        # all-zero parameters give all-zero embeddings; phi defined as 0
        _, params = zeroed_rem()
        b = box(1, 1)
        graph = build_graph([[(0, b), (1, b)]], d_th=5.0)
        assert relation_importance(params, graph, 0, 0, 1) == 0.0
