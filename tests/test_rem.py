from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_sender_order,
    chunked_aggregate,
    content_rank,
    dot,
    lexsort_sender_segments,
    neighbor_distances,
    neighbors,
    node_attention_coefficients,
    node_feature,
    node_message,
    scalar_rem_transcription,
    scaled_distance,
    spatial_edges,
    spatiotemporal_update,
)
from remtrack import autodiff as ad
from remtrack import rem as rem_module
from remtrack import tracker
from remtrack.autodiff import ParameterStore, Tensor, gradient_check
from remtrack.geometry import BoundingBox, _box_array
from remtrack.rem import (
    RemState,
    _aggregate,
    _content_rank,
    _leave_one_out,
    _Nodes,
    _pack,
    _project,
    _run_nodes,
    _segment_softmax_sum,
    _segment_sums,
    _sender_segments,
    relation_importance_records,
    rem_step,
)
from remtrack.simulator import ScenarioConfig, generate
from remtrack.st_graph import build_graph

from conftest import frame_box, make_rem, weighted_sum


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
        m = node_message(params, Tensor(np.ones(4)), Tensor(np.ones(4)), 1.0)
        assert np.array_equal(m.data, np.zeros(4))

    def test_directional(self):
        store, params = make_rem(dim=6, seed=3)
        rng = np.random.default_rng(4)
        v_i = Tensor(rng.normal(size=6))
        v_j = Tensor(rng.normal(size=6))
        m_ij = node_message(params, v_i, v_j, 2.0)
        m_ji = node_message(params, v_j, v_i, 2.0)
        assert not np.allclose(m_ij.data, m_ji.data)

    def test_negative_distance_rejected(self):
        _, params = zeroed_rem()
        with pytest.raises(ValueError, match="non-negative"):
            node_message(params, Tensor(np.zeros(4)), Tensor(np.zeros(4)), -1.0)

    def test_gradient_wrt_first_layer(self):
        store, params = make_rem(dim=4, seed=5)
        rng = np.random.default_rng(6)
        v_i, v_j = rng.normal(size=4), rng.normal(size=4)

        def loss():
            m = node_message(params, Tensor(v_i), Tensor(v_j), 1.5)
            return dot(m, m)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4
        store.clear_grads()
        ad.backward(loss())
        assert np.any(store["rem.w_m1"].grad != 0)


class TestAttention:
    def test_single_neighbor_weight_one(self):
        store, params = make_rem(dim=5, seed=7)
        rng = np.random.default_rng(8)
        alphas = node_attention_coefficients(params, Tensor(rng.normal(size=5)), [Tensor(rng.normal(size=5))])
        assert alphas.data.shape == (1,)
        assert alphas.data[0] == 1.0

    def test_identical_neighbors_split_evenly(self):
        store, params = make_rem(dim=5, seed=9)
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(size=5))
        n = Tensor(rng.normal(size=5))
        alphas = node_attention_coefficients(params, v, [n, n])
        assert np.array_equal(alphas.data, [0.5, 0.5])

    def test_normalized_on_random_inputs(self):
        store, params = make_rem(dim=6, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            alphas = node_attention_coefficients(
                params, Tensor(rng.normal(size=6) * 3), [Tensor(rng.normal(size=6) * 3) for _ in range(k)]
            )
            assert abs(alphas.data.sum() - 1.0) <= 1e-12
            assert np.all(alphas.data > 0)

    def test_empty_neighbor_set_rejected(self):
        _, params = zeroed_rem()
        with pytest.raises(ValueError, match="non-empty"):
            node_attention_coefficients(params, Tensor(np.zeros(4)), [])


def reference_aggregate(params, v_i, senders, distances):
    """Sum_j alpha_ij m_ij from the per-sender oracles."""
    msgs = [node_message(params, v_i, v_j, d) for v_j, d in zip(senders, distances)]
    alphas = node_attention_coefficients(params, v_i, senders)
    return sum(a * m.data for a, m in zip(alphas.data, msgs))


def attend(params, v, distances):
    """``_aggregate``'s row for receiver 0 of the node rows ``v`` (a
    (k + 1, f) Tensor) whose senders are rows 1..k, at ``distances``."""
    k = len(distances)
    nodes = _Nodes(
        ids=np.arange(k + 1),
        bounds=np.array([0, k + 1]),
        prev=np.full(k + 1, -1),
        v=v,
        proj=_project(params, v),
        senders=np.arange(1, k + 1),
        distances=np.asarray(distances, dtype=float),
        start=np.array([0] + [k] * (k + 1)),
    )
    return ad.take(_aggregate(params, nodes), 0)


def rows(v_i, senders):
    return Tensor(np.array([v_i] + list(senders)))


def assert_close_rel(got, expected, rtol=1e-12):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def window_nodes(params, graph, t, window):
    """The run of the trailing window that relation importance replays."""
    return _run_nodes(params, graph, max(0, t - window + 1), t + 1, RemState())


def leave_one_out(params, graph, t, window, i):
    with ad.no_grad():
        return _leave_one_out(params, window_nodes(params, graph, t, window), [i])[0]


def reference_replay(params, graph, t, window, i, exclude=None):
    """i's relation embedding at t replayed over the window with ``exclude``
    left out at every step, from the per-sender oracles."""
    t0 = max(0, t - window + 1)
    nodes = window_nodes(params, graph, t, window)
    r = None
    for s in range(t0, t + 1):
        frame = graph.frames[s]
        at = slice(nodes.bounds[s - t0], nodes.bounds[s - t0 + 1])
        v = {j: Tensor(row) for j, row in zip(frame.ids, nodes.v.data[at])}
        if i not in frame.ids:
            r = None
            continue
        dist = neighbor_distances(frame, i)
        nbrs = [j for j in sorted(dist) if j != exclude]
        aggregated = np.zeros(params.dim)
        if nbrs:
            aggregated = reference_aggregate(params, v[i], [v[j] for j in nbrs], [dist[j] for j in nbrs])
        r = spatiotemporal_update(params, v[i], Tensor(aggregated), r)
    return r.data


class TestFusedReceiver:
    @pytest.mark.parametrize("k", [1, 2, 7, 49])
    def test_matches_reference_composition(self, k):
        store, params = make_rem(dim=6, seed=40 + k)
        rng = np.random.default_rng(41 + k)
        v_i = Tensor(rng.normal(size=6))
        senders = [Tensor(rng.normal(size=6)) for _ in range(k)]
        distances = rng.uniform(0.0, 5.0, size=k)
        got = attend(params, rows(v_i.data, [v.data for v in senders]), distances).data
        assert_close_rel(got, reference_aggregate(params, v_i, senders, distances))

    @pytest.mark.parametrize("exclude", [None, 0, 3])
    def test_relation_update_matches_reference(self, exclude):
        # the second of two steps: the full row, and the rows without 0 and 3
        store, params = make_rem(dim=5, seed=42)
        rng = np.random.default_rng(43)
        nodes = [(i, box(rng.uniform(0, 4), rng.uniform(0, 4))) for i in range(8)]
        moved = [(i, box(b.cx + 0.3, b.cy - 0.2)) for i, b in nodes]
        graph = build_graph([nodes, moved], d_th=50.0)
        i = 5
        assert len(neighbors(graph.frames[1], i)) == 7
        full, drops = leave_one_out(params, graph, 1, 2, i)
        got = full if exclude is None else drops[exclude]
        assert_close_rel(got, reference_replay(params, graph, 1, 2, i, exclude))

    def test_gradient_through_one_receiver(self):
        # inputs registered as parameters, so their gradients are checked too
        store, params = make_rem(dim=4, seed=44)
        rng = np.random.default_rng(45)
        v = store.register("v", Tensor(rng.normal(size=(4, 4))))  # v_i, then three senders
        distances = np.array([0.5, 1.5, 2.5])

        def loss():
            out = attend(params, v, distances)
            return dot(out, out)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_weight_gradients_equal_outer_product_sums(self, k):
        # two receivers share the weights, so each gradient reduces rows from
        # both calls
        store, params = make_rem(dim=6, seed=46 + k)
        rng = np.random.default_rng(47 + k)
        calls = [
            (rng.normal(size=6), [rng.normal(size=6) for _ in range(k)], rng.uniform(0.0, 5.0, size=k),
             rng.normal(size=6))
            for _ in range(2)
        ]
        loss = None
        for v_i, senders, distances, g in calls:
            out = attend(params, rows(v_i, senders), distances)
            term = dot(out, Tensor(g))
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        expected = {name: np.zeros_like(store[f"rem.{name}"].data) for name in ("w_m1", "w_m2", "w_a1", "w_a2")}
        for call in calls:
            for name, grad in dense_attend_weight_grads(params, *call).items():
                expected[name] += grad
        for name, grad in expected.items():
            assert_close_rel(store[f"rem.{name}"].grad, grad)


def dense_attend_weight_grads(params, v_i, senders, distances, g):
    """Weight gradients of dot(sum_j alpha_ij m_ij, g), one sender at a time,
    each a sum of dense outer products."""
    leaky = lambda a, s: np.where(a >= 0, a, s * a)  # noqa: E731
    slope = lambda a, s: np.where(a >= 0, 1.0, s)  # noqa: E731
    p = params
    query = p.w_a1.data @ v_i
    per_sender = []
    for v_j, d in zip(senders, distances):
        x = np.concatenate([v_i, v_j, [d]])
        a1 = p.w_m1.data @ x + p.b_m1.data
        a2 = p.w_m2.data @ leaky(a1, 0.1) + p.b_m2.data
        score = (p.w_a2.data @ v_j) @ query
        per_sender.append((x, a1, a2, leaky(a2, 0.1), score))
    logits = np.array([leaky(s, 0.2) for *_, s in per_sender])
    alphas = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    d_alphas = np.array([m @ g for *_, m, _ in per_sender])
    inner = alphas @ d_alphas
    grads = {name: np.zeros_like(getattr(p, name).data) for name in ("w_m1", "w_m2", "w_a1", "w_a2")}
    for alpha, d_alpha, v_j, (x, a1, a2, _, score) in zip(alphas, d_alphas, senders, per_sender):
        d_a2 = alpha * g * slope(a2, 0.1)
        d_a1 = (p.w_m2.data.T @ d_a2) * slope(a1, 0.1)
        d_score = alpha * (d_alpha - inner) * slope(score, 0.2)
        grads["w_m1"] += np.outer(d_a1, x)
        grads["w_m2"] += np.outer(d_a2, leaky(a1, 0.1))
        grads["w_a1"] += d_score * np.outer(p.w_a2.data @ v_j, v_i)
        grads["w_a2"] += d_score * np.outer(query, v_j)
    return grads


class TestFactoredBackward:
    def test_no_closure_returns_a_dense_weight_gradient(self):
        # every 2-D parent on the training tape (REM, GRUs, tracker heads)
        # gets its gradient as row factors
        from remtrack.cli import gradcheck_loss_builder

        store, loss_fn = gradcheck_loss_builder(seed=3, dim=4, app_dim=3)
        loss = loss_fn()
        nodes, todo, seen = [], [loss], set()
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
        covered = set()
        for node in nodes:
            if node._backward is None:
                continue
            contribs = node._backward(np.ones_like(node.data))
            for parent, contrib in zip(node._parents, contribs):
                if parent.requires_grad and parent._backward is None and parent.data.ndim == 2:
                    assert isinstance(contrib, ad._Rows), (node, parent)
                    covered.add(id(parent))
        assert covered == {id(store[name]) for name in store.names() if store[name].data.ndim == 2}


class TestCanonicalSenders:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.5, 3.0]),
                st.sampled_from([0.0, 1.0, 3.0]),
                st.sampled_from([(2.0, 2.0), (1.5, 2.5)]),
                st.integers(0, 2),
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_order_equals_tuple_key(self, nodes):
        # few positions, sizes and features, so neighbors share distances,
        # boxes and bitwise-identical node features; two features differ
        # only in their last bit
        features = [
            np.array([1.0, 2.0, 3.0]),
            np.array([1.0, 2.0, np.nextafter(3.0, 4.0)]),
            np.array([-1.0, 0.5, 0.0]),
        ]
        graph = build_graph([[(i, box(x, y, *size)) for i, (x, y, size, _) in enumerate(nodes)]], d_th=6.0)
        frame = graph.frames[0]
        v = {i: Tensor(features[feature].copy()) for i, (*_, feature) in enumerate(nodes)}
        _, params = make_rem(dim=3)
        v_rows = np.array([v[i].data for i in frame.ids])
        senders, distances, start = _sender_segments([frame], np.array([0, len(frame.ids)]), v_rows)
        for p, i in enumerate(frame.ids):
            at = slice(start[p], start[p + 1])
            expected = canonical_sender_order(frame, v, i)
            assert [frame.ids[q] for q in senders[at]] == expected
            dist = neighbor_distances(frame, i)
            assert [d.hex() for d in distances[at].tolist()] == [dist[j].hex() for j in expected]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                st.sampled_from([0.0, -0.0, 1.0]),
                st.sampled_from([1.0, 2.0]),
                st.sampled_from([1.0, 2.0]),
                st.integers(0, 4),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_content_rank_equals_tuple_and_bytes_rank(self, nodes):
        # small pools, so every key ties often; the features differ in their
        # sign of zero, their last bit, or a byte that orders differently
        # as a number and as bytes
        features = [
            np.array([1.0, 0.0]),
            np.array([1.0, -0.0]),
            np.array([np.nextafter(1.0, 2.0), 0.0]),
            np.array([1.0, 256.0]),
            np.array([-1.0, 0.5]),
        ]
        boxes = np.array([node[:4] for node in nodes], dtype=float).reshape(-1, 4)
        v = np.array([features[node[4]] for node in nodes]).reshape(-1, 2)
        rank = _content_rank(boxes, v)
        assert rank.dtype == np.intp
        assert rank.tolist() == content_rank(boxes, v)
        # a strided view of the rows ranks as its copy
        wide = np.repeat(v, 2, axis=1)[:, ::2]
        assert rank.tolist() == _content_rank(boxes, wide).tolist()

    def test_rem_step_projects_each_node_with_neighbors_once(self, monkeypatch):
        store, params = make_rem(dim=8, seed=56)
        rng = np.random.default_rng(57)
        crowd = [(i, box(rng.uniform(0, 12), rng.uniform(0, 12))) for i in range(60)]
        loners = [(100 + i, box(100.0 + 50 * i, 100.0)) for i in range(3)]
        graph = build_graph([crowd + loners], d_th=6.0)
        frame = graph.frames[0]
        products = []
        block_matmul = ad._block_matmul

        def spy(x, w):
            products.append((x.copy(), w.copy()))
            return block_matmul(x, w)

        monkeypatch.setattr(ad, "_block_matmul", spy)
        state = RemState()
        rem_step(params, state, graph, 0)
        with_neighbors = [i for i in frame.ids if neighbors(frame, i)]
        assert len(with_neighbors) >= 50 and not any(neighbors(frame, i) for i, _ in loners)
        # one product per projection weight, one row per node feature in
        # frame order: every node with neighbors is projected exactly once
        f = params.dim
        w_m1 = params.w_m1.data
        for weight in (w_m1[:, :f], params.w_a1.data, w_m1[:, f : 2 * f], params.w_a2.data):
            projected = [x for x, w in products if w.shape == weight.shape and np.array_equal(w, weight)]
            assert len(projected) == 1
            assert np.array_equal(projected[0], state.v.data)


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
            return dot(r, r)

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
                [(perm[i], frame_box(frame, i)) for i in frame.ids] for frame in graph.frames
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
        assert state.ids.tolist() == [0, 1]
        rem_step(params, state, graph, 1)
        assert state.ids.tolist() == [1, 5]

    def test_embedding_gathers_rows_and_names_the_first_absent_instance(self):
        store, params = make_rem(dim=4, seed=23)
        frames = [[(0, box(1, 1)), (1, box(2, 1))], [(1, box(2.2, 1)), (5, box(4, 4))]]
        graph = build_graph(frames, d_th=15)
        state = RemState()
        rows = {(e.instance, e.t): e.vector for e in rem_step(params, state, graph, 0, 2)}
        got = state.embedding([[5, 0], [1, 1]], [[1, 0], [1, 0]])
        assert np.array_equal(got.data, np.array([[rows[5, 1], rows[0, 0]], [rows[1, 1], rows[1, 0]]]))
        assert np.array_equal(state.embedding(1).data, rows[1, 1])
        assert np.array_equal(state.embedding([5, 1]).data, np.array([rows[5, 1], rows[1, 1]]))
        cases = [
            ([1, 0], None, (0, 1)),
            ([1, 7, 0], [0, 0, 1], (7, 0)),
            ([1], [2], (1, 2)),
            ([1], [-1], (1, -1)),
        ]
        for ids, t, missing in cases:
            with pytest.raises(KeyError) as info:
                state.embedding(ids, t)
            assert info.value.args[0] == missing
        with pytest.raises(KeyError) as info:
            RemState().embedding([3])
        assert info.value.args[0] == (3, -1)

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
        assert relation_importance_records(params, graph) == []

    def test_never_adjacent_neighbor_changes_nothing(self):
        # j out of range for the whole window: the gate is closed at every
        # frame, so no pair of the two is ever recorded
        store, params = make_rem(dim=4, seed=26)
        frames = [
            [(0, box(0, 0, 1, 1)), (1, box(20, 0, 1, 1))],
            [(0, box(0, 0, 1, 1)), (1, box(10, 0, 1, 1))],
            [(0, box(0, 0, 1, 1)), (1, box(8, 0, 1, 1))],
        ]
        graph = build_graph(frames, d_th=5.0)
        assert all(spatial_edges(graph, t) == () for t in range(3))
        assert relation_importance_records(params, graph) == []

    def test_window_below_one_rejected(self):
        store, params = make_rem(dim=4, seed=27)
        graph = build_graph([[(0, box(0, 0)), (1, box(1, 0))]], d_th=5.0)
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            relation_importance_records(params, graph, window=0)
        with pytest.raises(ValueError, match="window must be >= 1, got -3"):
            relation_importance_records(params, graph, window=-3)

    @pytest.mark.parametrize("frame", [-1, 4, 3.5, True])
    def test_frames_outside_the_graph_rejected(self, frame):
        store, params = make_rem(dim=4, seed=27)
        graph = build_graph([[(0, box(0, 0)), (1, box(1, 0))]] * 4, d_th=5.0)
        with pytest.raises(ValueError, match=f"frame {frame!r} is not a frame index of a graph of 4 frames"):
            relation_importance_records(params, graph, frames=[0, frame])

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
        records = relation_importance_records(params, graph, frames=[3])
        assert [(t, i, j) for t, i, j, _ in records] == [(3, i, j) for i in frame.ids for j in neighbors(frame, i)]
        for _, _, _, r in records:
            assert 0.0 <= r <= 1.0

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
        for t in range(window):
            for i in graph.frames[t].ids:
                replayed, _ = leave_one_out(params, graph, t, window, i)
                assert np.array_equal(replayed, stepped[t][i])

    def test_records_one_frame_at_a_time_equal_all_frames_bitwise(self):
        # a frame's records depend only on its own trailing window, never on
        # which other frames are asked for
        store, params = make_rem(dim=8, seed=34)
        seq = generate(ScenarioConfig(n_frames=8, n_groups=3, seed=5))
        graph = build_graph(seq.as_track_frames(), d_th=15.0)
        records = relation_importance_records(params, graph, window=4)
        assert records
        one_at_a_time = []
        for t in range(graph.n_frames):
            one_at_a_time += relation_importance_records(params, graph, window=4, frames=[t])
        assert [(t, i, j, r.hex()) for t, i, j, r in one_at_a_time] == [
            (t, i, j, r.hex()) for t, i, j, r in records
        ]

    @given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_relabel_permutes_records_bitwise(self, seed, random):
        store, params = make_rem(dim=8, seed=35)
        graph = random_graph(
            np.random.default_rng(seed), n_frames=5, n_instances=6, spread=6.0, d_th=6.0, p_present=0.8
        )
        perm = dict(zip(range(6), random.sample(range(1000), 6)))
        relabeled = build_graph(
            [[(perm[i], frame_box(frame, i)) for i in frame.ids] for frame in graph.frames], d_th=6.0
        )
        frames = range(1, 5)
        before = relation_importance_records(params, graph, window=3, frames=frames)
        after = relation_importance_records(params, relabeled, window=3, frames=frames)
        back = {new: old for old, new in perm.items()}
        restored = [(t, back[i], back[j], r.hex()) for t, i, j, r in after]
        assert sorted(restored) == sorted((t, i, j, r.hex()) for t, i, j, r in before)


class TestLeaveOneOut:
    """Each drop row against a replay without j from the per-node oracles."""

    def assert_drops_match_reference(self, params, graph, t, window, i):
        full, drops = leave_one_out(params, graph, t, window, i)
        assert sorted(drops) == list(neighbors(graph.frames[t], i))
        for j, row in drops.items():
            assert_close_rel(row, reference_replay(params, graph, t, window, i, exclude=j))
        return full, drops

    def test_neighbor_joining_mid_window(self, monkeypatch):
        # j reaches i at frame 3; q is i's neighbor throughout. Until frame 3
        # j's drop is the full row itself, and there it starts from i's full
        # embedding at frame 2, bit for bit.
        store, params = make_rem(dim=6, seed=50)
        frames = [
            [(0, box(2.0, 2.0 + 0.2 * t)), (1, box(x, 2.0)), (2, box(3.5, 1.0))]
            for t, x in enumerate([20.0, 15.0, 10.0, 3.0, 2.5, 2.0])
        ]
        graph = build_graph(frames, d_th=3.0)
        assert [1 in neighbors(graph.frames[t], 0) for t in range(6)] == [False] * 3 + [True] * 3
        assert all(2 in neighbors(graph.frames[t], 0) for t in range(6))
        stepped, _ = run_rem(params, graph)
        full, drops = self.assert_drops_match_reference(params, graph, 5, 6, 0)
        assert np.array_equal(full, stepped[5][0])
        scans = []
        gru_scan = ad.gru_scan

        def spy(gru, x, h0, prev, bounds):
            out = gru_scan(gru, x, h0, prev, bounds)
            if gru is params.gru_rel:
                scans.append((prev.copy(), bounds.copy(), out.data.copy()))
            return out

        monkeypatch.setattr(ad, "gru_scan", spy)
        relation_importance_records(params, graph, window=6, frames=[5, 4])
        # one stack: frames 0-5 and 0-4 aligned at their last frame, so the
        # second window starts a step later. At each step, window by window
        # and receiver by receiver, a full row, then a drop row per neighbor
        # at the window's last frame, each continuing from its own row at the
        # step before.
        [(prev, bounds, out)] = scans
        windows = [(0, 5), (1, 4)]  # (first step, last frame)
        layout, expected_prev, starts, at = [], [], [], {}
        for s in range(6):
            here = {}
            starts.append(len(expected_prev))
            for w, (first, t) in enumerate(windows):
                if s < first:
                    continue
                for i in graph.frames[t].ids:  # all three present and linked
                    width = 1 + len(neighbors(graph.frames[t], i))
                    here[w, i] = len(expected_prev)
                    before = at.get((w, i))
                    expected_prev += [-1] * width if before is None else list(range(before, before + width))
            layout.append(here)
            at = here
        assert bounds.tolist() == starts + [len(expected_prev)]
        assert prev.tolist() == expected_prev
        j_row = 1 + list(drops).index(1)
        rows = [out[layout[s][0, 0] :] for s in range(6)]
        assert all(np.array_equal(rows[k][0], stepped[k][0]) for k in range(6))
        assert all(np.array_equal(rows[k][j_row], rows[k][0]) for k in range(3))
        assert np.array_equal(rows[2][j_row], stepped[2][0])
        assert not np.array_equal(rows[3][j_row], rows[3][0])
        # the second window replays frames 0-4 from zero states at step 1
        assert all(np.array_equal(out[layout[s][1, 0]], stepped[s - 1][0]) for s in range(1, 6))

    def test_receiver_leaving_and_returning(self):
        store, params = make_rem(dim=6, seed=51)
        rng = np.random.default_rng(52)
        frames = [
            [(k, box(rng.uniform(0, 4), rng.uniform(0, 4))) for k in range(5) if k != 0 or t not in (2, 3)]
            for t in range(7)
        ]
        graph = build_graph(frames, d_th=10.0)
        stepped, _ = run_rem(params, graph)
        full, _ = self.assert_drops_match_reference(params, graph, 6, 7, 0)
        assert np.array_equal(full, stepped[6][0])

    def test_single_neighbor_leaves_none(self):
        store, params = make_rem(dim=6, seed=53)
        frames = [[(0, box(1.0, 1.0 + 0.1 * t)), (1, box(2.0, 1.5))] for t in range(4)]
        graph = build_graph(frames, d_th=5.0)
        _, drops = self.assert_drops_match_reference(params, graph, 3, 4, 0)
        assert len(drops) == 1

    def test_many_neighbors(self):
        # 11 drop rows and 11 message rows: products with 10 or more rows run
        # another BLAS kernel than smaller ones
        store, params = make_rem(dim=6, seed=54)
        rng = np.random.default_rng(55)
        graph = random_graph(rng, n_frames=4, n_instances=12, spread=5.0, d_th=50.0)
        assert len(neighbors(graph.frames[3], 0)) == 11
        self.assert_drops_match_reference(params, graph, 3, 4, 0)


class TestZeroNormCosine:
    def test_zero_embedding_importance_zero(self):
        # all-zero parameters give all-zero embeddings; phi defined as 0
        _, params = zeroed_rem()
        b = box(1, 1)
        graph = build_graph([[(0, b), (1, b)]], d_th=5.0)
        assert relation_importance_records(params, graph) == [(0, 0, 1, 0.0), (0, 1, 0, 0.0)]


# (N, K) of every weight matrix ``_block_matmul`` multiplies in a dim-128 REM
# step: the input affine; the GRU gates, projections and second message
# layer; the update affine.
REM_WEIGHT_SHAPES = [(128, 8), (128, 128), (128, 256)]
TRACKER_HEADS = [
    "appearance_feature",
    "regress_baseline",
    "regress_relation_aware",
    "regress_from_relations",
    "_softplus_sizes",
    "giou_loss",
]


class TestBlockInvariance:
    """The guard that criteria 3 and 4 rest on: a row's bits never depend on
    the rows it is computed with. If it fails on some BLAS, REM has to go
    back to one product per node, and the tracker's heads to one call per
    row."""

    @given(
        st.sampled_from(REM_WEIGHT_SHAPES),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_matmul_rows_are_batch_invariant(self, shape, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=shape)
        x = rng.normal(size=(m, shape[1]))
        out = ad._block_matmul(x, w)
        for p in range(m):
            assert np.array_equal(out[p], ad._block_matmul(x[p : p + 1], w)[0])

    @given(st.sampled_from(TRACKER_HEADS), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tracker_head_rows_are_batch_invariant(self, head, n, seed):
        # At the model's shapes, every row of a head, of the occlusion head's
        # box node or of the GIoU loss has, in value and input gradient, the
        # bits of a call on that row alone.
        rng = np.random.default_rng(seed)
        trk = tracker.TrackerParameters.create(ParameterStore(), rel_dim=128, app_dim=32, rng=rng)
        for bias in (trk.enc_b, trk.base_b1, trk.base_b2, trk.rel_b1, trk.rel_b2, trk.occ_b1, trk.occ_b2):
            bias.data[:] = rng.normal(size=bias.data.shape)
        boxes, prevs = ([box(*rng.uniform(0, 10, 2), *rng.uniform(0.5, 3, 2)) for _ in range(n)] for _ in range(2))
        app, rel = rng.normal(size=(n, 32)), rng.normal(size=(n, 128)) * 0.3
        raw = _box_array(boxes) + rng.normal(size=(n, 4))
        arrays = {
            "regress_baseline": [app],
            "regress_relation_aware": [app, rel],
            "regress_from_relations": [rel],
            "_softplus_sizes": [raw],
            "giou_loss": [raw],
        }.get(head, [])

        def call(xs, box_args):
            if head == "appearance_feature":
                return tracker.appearance_feature(trk, *map(_box_array, box_args))
            if head == "giou_loss":
                return tracker.giou_loss(xs[0], _box_array(box_args[0]).reshape(xs[0].data.shape))
            if head == "_softplus_sizes":
                return tracker._softplus_sizes(xs[0])
            return getattr(tracker, head)(trk, *xs)

        def grad_of(out, c):
            ad.backward(out if head == "giou_loss" else weighted_sum(out, c))
            return out.data

        xs = [Tensor(a, requires_grad=True) for a in arrays]
        out = call(xs, [boxes, prevs] if head == "appearance_feature" else [boxes])
        c = rng.normal(size=out.data.shape)
        rows = grad_of(out, c)
        alone = []
        for p in range(n):
            xs_p = [Tensor(a[p], requires_grad=True) for a in arrays]
            if head == "appearance_feature":
                alone.append(grad_of(call(xs_p, [[boxes[p]], [prevs[p]]]), c[p : p + 1])[0])
            else:
                alone.append(grad_of(call(xs_p, [[boxes[p]]]), None if head == "giou_loss" else c[p]))
            for x, x_p in zip(xs, xs_p):
                assert np.array_equal(x.grad[p], x_p.grad)
        if head == "giou_loss":
            assert np.array_equal(rows, np.sum(alone))
        else:
            assert rows.shape[0] == n
            for p in range(n):
                assert np.array_equal(rows[p], alone[p])

    def test_rem_step_multiplies_only_guarded_shapes(self, monkeypatch):
        shapes = set()
        block_matmul = ad._block_matmul

        def spy(x, w):
            shapes.add(w.shape)
            return block_matmul(x, w)

        monkeypatch.setattr(ad, "_block_matmul", spy)
        store, params = make_rem(dim=128, seed=58)
        graph = random_graph(np.random.default_rng(59), n_frames=2, n_instances=4, d_th=8.0)
        state = RemState()
        rem_step(params, state, graph, 0)
        rem_step(params, state, graph, 1)
        ad.backward(dot(state.embedding(0), Tensor(np.ones(128))))
        assert shapes == set(REM_WEIGHT_SHAPES)

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=8),
        st.sampled_from([4, 128]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_segment_softmax_sum_is_offset_invariant(self, lengths, f, seed, data):
        target = data.draw(st.integers(0, len(lengths) - 1))
        start = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=start[-1]) * 3.0
        msgs = rng.normal(size=(start[-1], f))
        alphas, sums = _segment_softmax_sum(logits, msgs, start)
        at = slice(start[target], start[target + 1])
        alone_alphas, alone_sums = _segment_softmax_sum(logits[at], msgs[at], np.array([0, lengths[target]]))
        assert np.array_equal(alphas[at], alone_alphas)
        assert np.array_equal(sums[target], alone_sums[0])
        if lengths[target] == 0:
            assert not sums[target].any()


def per_node_rem(params, graph):
    """Relation embeddings per frame from the per-node and per-sender oracles:
    ``node_feature``, ``node_message``, ``node_attention_coefficients`` and
    ``spatiotemporal_update``."""
    out, v_prev, r_prev = [], {}, {}
    for t, frame in enumerate(graph.frames):
        v = {}
        for i in frame.ids:
            if i in v_prev:
                v[i] = node_feature(params, frame_box(frame, i), frame_box(graph.frames[t - 1], i), v_prev[i])
            else:
                v[i] = node_feature(params, frame_box(frame, i), None, None)
        r = {}
        for i in frame.ids:
            dist = neighbor_distances(frame, i)
            aggregated = np.zeros(params.dim)
            if dist:
                nbrs = sorted(dist)
                aggregated = reference_aggregate(params, v[i], [v[j] for j in nbrs], [dist[j] for j in nbrs])
            r[i] = spatiotemporal_update(params, v[i], Tensor(aggregated), r_prev.get(i))
        out.append({i: r[i].data for i in frame.ids})
        v_prev, r_prev = v, r
    return out


class TestFrameBatchedRem:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 8), st.sampled_from([1.5, 2.0])),
                min_size=8,
                max_size=8,
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from([1, 2, 5, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_node_composition(self, frames, chunk_rows):
        # presence flags make instances enter, leave and come back; the grid
        # spacing against d_th leaves some nodes isolated and some with one
        # sender; a chunk of 1, 2 or 5 rows is smaller than many segments
        nodes = [[(i, box(1.5 * x, 1.5 * y, s, s)) for i, (here, x, y, s) in enumerate(f) if here] for f in frames]
        graph = build_graph(nodes, d_th=3.0)
        store, params = make_rem(dim=5, seed=60)
        with mock.patch.object(rem_module, "CHUNK_ROWS", chunk_rows):
            got, _ = run_rem(params, graph)
        expected = per_node_rem(params, graph)
        for t in range(graph.n_frames):
            assert sorted(got[t]) == sorted(expected[t])
            for i in got[t]:
                assert_close_rel(got[t][i], expected[t][i])

    def test_crowd_matches_per_node_composition(self):
        # one receiver with more senders than a chunk holds rows
        store, params = make_rem(dim=4, seed=61)
        rng = np.random.default_rng(62)
        hub = [(0, box(10.0, 10.0, 3.0, 3.0))]
        crowd = [(i, box(rng.uniform(0, 20), rng.uniform(0, 20), 3.0, 3.0)) for i in range(1, 40)]
        graph = build_graph([hub + crowd, hub + crowd[5:]], d_th=8.0)
        assert len(neighbors(graph.frames[0], 0)) > 20
        with mock.patch.object(rem_module, "CHUNK_ROWS", 16):
            got, _ = run_rem(params, graph)
        expected = per_node_rem(params, graph)
        for t in range(2):
            for i in got[t]:
                assert_close_rel(got[t][i], expected[t][i])

    def test_gradient_through_two_frame_window(self):
        # every REM weight, through both frames: input and relation GRUs,
        # projections, messages, attention and the recurrent gathers
        store, params = make_rem(dim=4, seed=63)
        frames = [
            [(0, box(1.0, 1.0)), (1, box(2.5, 1.5)), (2, box(1.5, 3.0)), (3, box(30.0, 30.0))],
            [(0, box(1.2, 1.1)), (1, box(2.6, 1.4)), (4, box(2.0, 2.0)), (3, box(30.5, 30.0))],
        ]
        graph = build_graph(frames, d_th=6.0)
        weights = np.random.default_rng(64).normal(size=(5, 4))

        def loss():
            state = RemState()
            total = None
            for t in range(2):
                rem_step(params, state, graph, t)
                for i in state.ids:
                    term = dot(state.embedding(i), Tensor(weights[i]))
                    total = term if total is None else ad.add(total, term)
            return total

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4
        store.clear_grads()
        ad.backward(loss())
        assert all(store[name].grad is not None and np.any(store[name].grad != 0) for name in store.names())


run_frames = st.lists(
    st.tuples(
        st.lists(st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 6)), min_size=6, max_size=6),
        st.sampled_from([1.5, 40.0]),
    ),
    min_size=1,
    max_size=9,
)


def run_graph(frames):
    """Presence flags make instances enter, leave and come back, and a frame
    with no flag set is empty; a spacing of 40 leaves a frame without edges."""
    return build_graph(
        [[(i, box(spacing * x, spacing * y)) for i, (here, x, y) in enumerate(f) if here] for f, spacing in frames],
        d_th=3.0,
    )


def chained_then_run(params, graph, t, stop):
    """Frames 0..t-1 one call each, then frames t..stop-1 once as one run and
    once one call each from the same state: each frame's v, r and returned
    embeddings from both."""
    state = RemState()
    for s in range(t):
        rem_step(params, state, graph, s)
    carried = replace(state)
    one_by_one = []
    for s in range(t, stop):
        returned = rem_step(params, state, graph, s)
        one_by_one.append((state.v, state.r, returned))
    returned = rem_step(params, carried, graph, t, stop)
    at = carried.bounds
    runs = [
        (carried.v.data[a:b], carried.r.data[a:b], [e for e in returned if e.t == t + k])
        for k, (a, b) in enumerate(zip(at[:-1], at[1:]))
    ]
    return one_by_one, runs, carried


def run_bounds(graph, end, length):
    """A run of 1 to 6 frames ending at frame ``end`` - 1 or the last frame."""
    stop = min(end, graph.n_frames)
    return max(0, stop - length), stop


# instances 0-2 linked at frame 0, the state a run of frames 1-4 starts
# from; 0 leaves and 3 enters at frame 1, frame 2 is empty, 0 comes back at
# frame 3, which has no edges, and all four are linked at frame 4
EVERY_CASE = [
    ([(True, 1, 1), (True, 2, 1), (True, 1, 2)] + [(False, 0, 0)] * 3, 1.5),
    ([(False, 0, 0), (True, 2, 1), (True, 1, 2), (True, 2, 2)] + [(False, 0, 0)] * 2, 1.5),
    ([(False, 0, 0)] * 6, 1.5),
    ([(True, 1, 1), (True, 2, 1)] + [(False, 0, 0)] * 4, 40.0),
    ([(True, 1, 1), (True, 2, 1), (True, 1, 2), (True, 2, 2)] + [(False, 0, 0)] * 2, 1.5),
]


class TestRunEquivalence:
    """A run of frames gives every frame the bits of one call per frame."""

    @given(run_frames, st.integers(1, 9), st.integers(1, 6))
    @example(EVERY_CASE, 5, 4)
    @settings(max_examples=60, deadline=None)
    def test_run_equals_chained_one_frame_calls(self, frames, end, length):
        graph = run_graph(frames)
        t, stop = run_bounds(graph, end, length)
        store, params = make_rem(dim=5, seed=65)
        one_by_one, runs, state = chained_then_run(params, graph, t, stop)
        assert np.array_equal(state.ids, graph.frames[stop - 1].ids)
        assert len(runs) == stop - t
        for (v, r, returned), (v_run, r_run, returned_run) in zip(one_by_one, runs):
            assert np.array_equal(v.data, v_run)
            assert np.array_equal(r.data, r_run)
            assert [(e.instance, e.t, e.vector.tobytes()) for e in returned] == [
                (e.instance, e.t, e.vector.tobytes()) for e in returned_run
            ]
        for s in range(t, stop):
            for i in graph.frames[s].ids:
                row = runs[s - t][1][graph.frames[s].ids.tolist().index(i)]
                assert np.array_equal(state.embedding(i, s).data, row)

    @given(run_frames, st.integers(1, 9), st.integers(1, 6))
    @example(EVERY_CASE, 5, 4)
    @settings(max_examples=20, deadline=None)
    def test_run_gradients_equal_chained_gradients(self, frames, end, length):
        # a random linear functional of every frame's r, through the run and
        # through one call per frame
        graph = run_graph(frames)
        t, stop = run_bounds(graph, end, length)
        store, params = make_rem(dim=5, seed=66)
        weights = np.random.default_rng(67).normal(size=(graph.n_frames, 6, 5))

        def functional(state, s, total):
            for i in graph.frames[s].ids:
                term = dot(state.embedding(i, s), Tensor(weights[s, i]))
                total = term if total is None else ad.add(total, term)
            return total

        grads = []
        for run in (False, True):
            state, total = RemState(), None
            for s in range(t):
                rem_step(params, state, graph, s)
                total = functional(state, s, total)
            if run:
                rem_step(params, state, graph, t, stop)
            for s in range(t, stop):
                if not run:
                    rem_step(params, state, graph, s)
                total = functional(state, s, total)
            store.clear_grads()
            if total is None:
                return  # no instance in any frame
            ad.backward(total)
            grads.append({name: p.grad for name, p in store.items()})
        for name, expected in grads[0].items():
            assert (expected is None) == (grads[1][name] is None)
            if expected is not None and expected.any():
                assert_close_rel(grads[1][name], expected)

    def test_run_bounds_rejected(self):
        store, params = make_rem(dim=4, seed=68)
        graph = build_graph([[(0, box(1, 1))], [(0, box(1.2, 1))]], d_th=15)
        for t, stop in ((0, 0), (0, 3), (1, 1)):
            with pytest.raises(ValueError, match="cannot run frames"):
                rem_step(params, RemState(), graph, t, stop)



# few grid positions, sizes and features, so senders tie in distance, in box
# and in feature bytes; features 2 and 3 differ only in the sign of a zero,
# and 0 and 1 only in their last bit
SENDER_FEATURES = [
    [1.0, 2.0, 3.0],
    [1.0, 2.0, float(np.nextafter(3.0, 4.0))],
    [-1.0, 0.5, 0.0],
    [-1.0, 0.5, -0.0],
    [0.0, -0.0, 0.0],
]
sender_frames = st.lists(
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 3),
            st.integers(0, 3),
            st.sampled_from([1.0, 2.0]),
            st.integers(0, len(SENDER_FEATURES) - 1),
        ),
        min_size=7,
        max_size=7,
    ),
    min_size=1,
    max_size=3,
)


def aggregate_bits(params, store, graph, aggregate, weights):
    """``aggregate``'s rows over every frame of ``graph`` as one run, the
    gradient of a weighted sum of them at the run's projections, and every
    parameter's gradient."""
    store.clear_grads()
    nodes = _run_nodes(params, graph, 0, graph.n_frames, RemState())
    out = aggregate(params, nodes)
    ad.backward(weighted_sum(out, weights[: len(out.data)]))
    grads = {name: p.grad for name, p in store.items()}
    return out.data, nodes.proj.grad, grads


class TestRunAggregation:
    """The sender sort and the aggregation of a run keep the bits of their
    former forms: a four-key ``lexsort``, and message rows, attention and
    softmax computed chunk by chunk with ``np.add.at`` scatters
    (``tests/oracles.py``)."""

    @given(sender_frames)
    @settings(max_examples=150, deadline=None)
    def test_sender_order_equals_four_key_lexsort(self, frames):
        graph = build_graph(
            [[(i, box(x, y, size, size)) for i, (here, x, y, size, _) in enumerate(f) if here] for f in frames],
            d_th=4.0,
        )
        bounds = np.cumsum([0] + [len(frame.ids) for frame in graph.frames])
        v = np.array(
            [SENDER_FEATURES[f[i][4]] for f, frame in zip(frames, graph.frames) for i in frame.ids], dtype=float
        ).reshape(-1, 3)
        got = _sender_segments(graph.frames, bounds, v)
        expected = lexsort_sender_segments(graph.frames, bounds, v)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1].view(np.int64), expected[1].view(np.int64))
        assert np.array_equal(got[2], expected[2])

    def test_sender_key_fits_int64_for_runs_of_up_to_2_16_rows(self):
        # n rows have fewer than n * n / 2 edges, so at most that many
        # distinct distances; the key's sizes are n, that and n
        n = 2**16
        distances = n * (n - 1) // 2
        key = _pack(
            (np.array([n - 1, n - 1, 0]), n),
            (np.array([distances - 1, distances - 2, 0]), distances),
            (np.array([n - 1, n - 1, 0]), n),
        )
        assert key.dtype == np.int64
        assert key.tolist() == [n * distances * n - 1, n * distances * n - 1 - n, 0]
        assert n * distances * n <= 2**63
        n += 1
        zero = np.zeros(1, dtype=np.intp)
        with pytest.raises(ValueError, match="does not fit in int64"):
            _pack((zero, n), (zero, n * (n - 1) // 2), (zero, n))

    @given(run_frames, st.sampled_from([1, 2, 5, 16, 256]))
    @example(EVERY_CASE, 1)
    @settings(max_examples=40, deadline=None)
    def test_aggregate_equals_chunked_path_bitwise(self, frames, chunk_rows):
        graph = run_graph(frames)
        store, params = make_rem(dim=5, seed=72)
        weights = np.random.default_rng(73).normal(size=(6 * graph.n_frames, 5))
        with mock.patch.object(rem_module, "CHUNK_ROWS", chunk_rows):
            got = aggregate_bits(params, store, graph, _aggregate, weights)
        expected = aggregate_bits(params, store, graph, partial(chunked_aggregate, chunk_rows=chunk_rows), weights)
        assert np.array_equal(got[0], expected[0])
        assert (got[1] is None) == (expected[1] is None)
        if got[1] is not None:
            assert np.array_equal(got[1], expected[1])
        for name, grad in expected[2].items():
            assert (grad is None) == (got[2][name] is None)
            assert grad is None or np.array_equal(got[2][name], grad)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5, 16, 256])
    def test_crowd_aggregate_equals_chunked_path_bitwise(self, chunk_rows):
        # dim 128 and segments longer than most chunks: three frames of a crowd
        # where instances come and go
        rng = np.random.default_rng(74)
        frames = [
            [(i, box(*rng.uniform(0, 14, 2), *rng.uniform(1.5, 3, 2))) for i in range(24) if rng.random() < 0.8]
            for _ in range(3)
        ]
        graph = build_graph(frames, d_th=6.0)
        store, params = make_rem(dim=128, seed=75)
        weights = rng.normal(size=(72, 128))
        with mock.patch.object(rem_module, "CHUNK_ROWS", chunk_rows):
            got = aggregate_bits(params, store, graph, _aggregate, weights)
        expected = aggregate_bits(params, store, graph, partial(chunked_aggregate, chunk_rows=chunk_rows), weights)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        for name, grad in expected[2].items():
            assert np.array_equal(got[2][name], grad)


class TestSegmentSums:
    """``_segment_sums`` sums with ``np.add.reduceat``, whose order numpy does
    not document; REM's bits, and with them the seeded training curve,
    rest on each segment's sum being that of ``reduceat`` over the segment
    alone, wherever it lies among other segments. A numpy whose ``reduceat``
    order depends on the surrounding rows fails here."""

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=8),
        st.integers(1, 128),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_segment_has_the_bits_of_reduceat_alone(self, lengths, width, lead, seed):
        # rows of mixed magnitude with exact zeros of both signs; ``lead``
        # rows before the first segment belong to none
        rng = np.random.default_rng(seed)
        n = lead + sum(lengths)
        rows = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-8, 9, size=(n, width))
        rows[rng.random((n, width)) < 0.05] = 0.0
        rows[rng.random((n, width)) < 0.05] = -0.0
        start = lead + np.cumsum([0] + lengths)
        out = np.full((len(lengths), width), np.nan)
        _segment_sums(rows, start, out)
        for s, (a, b) in enumerate(zip(start[:-1].tolist(), start[1:].tolist())):
            if a == b:
                assert np.isnan(out[s]).all()  # an empty segment's row is left as it is
            else:
                alone = np.add.reduceat(rows[a:b], [0], axis=0)[0]
                assert np.array_equal(out[s].view(np.int64), alone.view(np.int64))


def hexed(records):
    return [(t, i, j, r.hex()) for t, i, j, r in records]


class TestStackedRelationImportance:
    """The windows of many frames run as one stack of rows; every record
    keeps the bits its window alone gives it. Rows of different windows share
    ``_block_matmul`` blocks, so this rests on the block-invariance guard."""

    @given(
        run_frames,
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
        st.integers(1, 5),
        st.sampled_from([1, 40, 300, rem_module.STACK_ROWS]),
    )
    @example(EVERY_CASE, [4, 1, 4, 3, 0], 3, 1)
    @example(EVERY_CASE, [4, 1, 4, 3, 0], 3, rem_module.STACK_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_records_equal_one_frame_calls_bitwise(self, frames, requested, window, budget):
        # unsorted and repeated frames, frames before window - 1, instances
        # that leave and come back; a budget of one row makes every window a
        # stack and every receiver a leave-one-out batch of its own
        graph = run_graph(frames)
        requested = [t % graph.n_frames for t in requested]
        store, params = make_rem(dim=5, seed=69)
        one_at_a_time, windows, receivers = [], 0, 0
        for t in requested:
            records = relation_importance_records(params, graph, window=window, frames=[t])
            one_at_a_time += records
            windows += bool(records)
            receivers += len({i for _, i, _, _ in records})
        calls = {"_run_nodes": 0, "_leave_one_out": 0}

        def counted(name):
            original = getattr(rem_module, name)

            def spy(*args):
                calls[name] += 1
                return original(*args)

            return mock.patch.object(rem_module, name, spy)

        with (
            mock.patch.object(rem_module, "STACK_ROWS", budget),
            counted("_run_nodes"),
            counted("_leave_one_out"),
        ):
            records = relation_importance_records(params, graph, window=window, frames=requested)
        assert hexed(records) == hexed(one_at_a_time)
        assert min(windows, 1) <= calls["_run_nodes"] <= windows
        if budget == 1:
            assert calls == {"_run_nodes": windows, "_leave_one_out": receivers}

    def test_long_graph_stacks_stay_within_budget(self):
        # rows of a stack: its node rows, and the rows of the full and drop
        # segments and the update rows of each of its leave-one-out batches.
        # A window here has at most 60 node rows and a receiver at most
        # (1 + 5)(1 + 5) rows at each of 10 steps, so every batch fits in the
        # budget, and so does every stack of more than one window.
        graph = random_graph(np.random.default_rng(70), n_frames=40, n_instances=6, spread=6.0, p_present=0.8)
        store, params = make_rem(dim=4, seed=71)
        expected = relation_importance_records(params, graph)
        stacks, batches = [], []  # [windows, rows] of each stack; rows of each batch

        def counted(name, rows):
            original = getattr(rem_module, name)

            def spy(*args):
                out = original(*args)
                if name == "_stack_graph":
                    stacks.append([len(args[1]), 0])
                if name == "_segment_softmax_sum":
                    batches.append(0)
                stacks[-1][1] += rows(args, out)
                if name in ("_segment_softmax_sum", "_update"):
                    batches[-1] += rows(args, out)
                return out

            return mock.patch.object(rem_module, name, spy)

        budget = 500
        with (
            mock.patch.object(rem_module, "STACK_ROWS", budget),
            counted("_stack_graph", lambda args, out: 0),
            counted("_run_nodes", lambda args, nodes: len(nodes.ids)),
            counted("_segment_softmax_sum", lambda args, out: len(args[0])),
            counted("_update", lambda args, out: len(args[1].data)),
        ):
            records = relation_importance_records(params, graph)
        assert hexed(records) == hexed(expected)
        assert max(batches) <= budget
        assert all(rows <= budget for windows, rows in stacks if windows > 1)
        # the graph has stacks of several windows and windows over the budget
        assert any(windows > 1 for windows, _ in stacks) and any(rows > budget for _, rows in stacks)
