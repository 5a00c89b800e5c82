import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, weighted_sum
from oracles import record_prepare_window, record_window_loss
from remtrack import autodiff as ad
from remtrack.autodiff import ParameterStore, Tensor, backward, gradient_check
from remtrack import tracker
from remtrack.geometry import BoundingBox, _box_array, clamped_box, iou
from remtrack.rem import RemState, rem_step
from remtrack.simulator import Detection, GroundTruthSequence, GtRecord, ScenarioConfig, detect_sequence, generate
from remtrack.st_graph import SpatioTemporalGraph, update_graph
from remtrack.tracker import (
    TRACK_MODES,
    TrackerParameters,
    TrainConfig,
    _greedy_associate,
    appearance_feature,
    prepare_window,
    regress_baseline,
    regress_from_relations,
    regress_relation_aware,
    track_sequence,
    train,
    window_loss,
)


def box(cx, cy, w=2.0, h=2.0):
    return BoundingBox(cx, cy, w, h)


def zero_model(dim=4, app_dim=4):
    store, rem_params, trk_params = make_model(dim=dim, app_dim=app_dim)
    for name in store.names():
        store[name].data[:] = 0.0
    return store, rem_params, trk_params


def identity_copy_tracker(dim=4):
    """Heads wired so the offset equals detection - previous box, exactly
    in exact arithmetic: LeakyReLU(x) - LeakyReLU(-x) = 1.1 x for slope 0.1."""
    store, rem_params, trk_params = make_model(dim=dim, app_dim=9)
    for name in store.names():
        store[name].data[:] = 0.0
    trk_params.enc_w.data[:] = np.eye(9)
    for k in range(4):
        row = np.zeros(9)
        row[k] = 1.0
        row[4 + k] = -1.0
        trk_params.base_w1.data[2 * k] = row
        trk_params.base_w1.data[2 * k + 1] = -row
        trk_params.rel_w1.data[2 * k, :9] = row
        trk_params.rel_w1.data[2 * k + 1, :9] = -row
        trk_params.base_w2.data[k, 2 * k] = 1.0 / 1.1
        trk_params.base_w2.data[k, 2 * k + 1] = -1.0 / 1.1
        trk_params.rel_w2.data[k, 2 * k] = 1.0 / 1.1
        trk_params.rel_w2.data[k, 2 * k + 1] = -1.0 / 1.1
    return store, rem_params, trk_params


def gt_detections(seq):
    return [
        [Detection(box=rec.box, gt_id=rec.instance) for rec in frame]
        for frame in seq.frames
    ]


class TestAppearanceFeature:
    def test_zero_weights_zero_feature(self):
        _, _, trk = zero_model()
        f = appearance_feature(trk, _box_array([box(1, 2)]), _box_array([box(3, 4)]))
        assert np.array_equal(f.data, np.zeros((1, trk.app_dim)))

    def test_gradient_through_encoder(self):
        store, _, trk = make_model(dim=4, app_dim=5, seed=3)
        c = np.random.default_rng(4).normal(size=(2, 5))

        def loss():
            f = appearance_feature(
                trk, _box_array([box(1.3, 0.7), box(0.2, 1.1)]), _box_array([box(1.0, 0.5), box(0.4, 0.9)])
            )
            return weighted_sum(f, c)

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4


class TestRegressionHeads:
    def test_zero_weights_zero_offset(self):
        _, _, trk = zero_model()
        feat = Tensor(np.ones(trk.app_dim))
        assert np.array_equal(regress_baseline(trk, feat).data, np.zeros(4))
        r = Tensor(np.ones(trk.rel_dim))
        assert np.array_equal(regress_relation_aware(trk, feat, r).data, np.zeros(4))

    def test_zero_relation_matches_block_structured_baseline(self):
        # rel head whose first app_dim columns copy the baseline head
        store, _, trk = make_model(dim=6, app_dim=5, seed=9)
        trk.rel_w1.data[:, : trk.app_dim] = trk.base_w1.data
        trk.rel_w1.data[:, trk.app_dim :] = np.random.default_rng(1).normal(size=(64, 6))
        trk.rel_b1.data[:] = trk.base_b1.data
        trk.rel_w2.data[:] = trk.base_w2.data
        trk.rel_b2.data[:] = trk.base_b2.data
        feat = Tensor(np.random.default_rng(2).normal(size=5))
        out_rel = regress_relation_aware(trk, feat, Tensor(np.zeros(6)))
        out_base = regress_baseline(trk, feat)
        assert np.allclose(out_rel.data, out_base.data, rtol=0, atol=1e-15)

    def test_relations_head_zero_weights_softplus_sizes(self):
        _, _, trk = zero_model()
        out = regress_from_relations(trk, Tensor(np.ones(trk.rel_dim)))
        assert out.data[0] == 0.0 and out.data[1] == 0.0
        assert out.data[2] == pytest.approx(math.log(2.0), abs=1e-15)
        assert out.data[3] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_relations_head_sizes_always_positive(self):
        store, _, trk = make_model(dim=8, app_dim=4, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(50):
            out = regress_from_relations(trk, Tensor(rng.normal(size=8) * 5))
            assert out.data[2] > 0 and out.data[3] > 0

    def test_softplus_sizes_gradients(self):
        # the occlusion head's box node: softplus on the size columns only
        rng = np.random.default_rng(11)
        store = ParameterStore()
        raw = store.register("raw", Tensor(rng.normal(size=(3, 4)) * 2.0))
        c = rng.normal(size=(3, 4))
        out = tracker._softplus_sizes(raw)
        assert np.array_equal(out.data[:, :2], raw.data[:, :2])
        assert np.all(out.data[:, 2:] > 0)
        assert gradient_check(lambda: weighted_sum(tracker._softplus_sizes(raw), c), store, epsilon=1e-5) < 1e-4

    def test_gradient_checks(self):
        store, _, trk = make_model(dim=5, app_dim=4, seed=7)
        rng = np.random.default_rng(8)
        feat = rng.normal(size=4)
        r = rng.normal(size=5)

        def loss():
            a = regress_baseline(trk, Tensor(feat))
            b = regress_relation_aware(trk, Tensor(feat), Tensor(r))
            c = regress_from_relations(trk, Tensor(r))
            return ad.add(ad.add(ad.dot(a, a), ad.dot(b, b)), ad.dot(c, c))

        assert gradient_check(loss, store, epsilon=1e-5) < 1e-4


def scalar_greedy_associate(tracks, detections, min_iou):
    """The association rule written as a loop over scalar ``iou`` calls, on
    a {track id: box} dict and a list of detections."""
    candidates = []
    for tid, track_box in tracks.items():
        for k, det in enumerate(detections):
            overlap = iou(det.box, track_box)
            if overlap >= min_iou:
                candidates.append((-overlap, tid, k))
    matched, used = {}, set()
    for _, tid, k in sorted(candidates):
        if tid not in matched and k not in used:
            matched[tid] = k
            used.add(k)
    return matched


class TestGreedyAssociate:
    def test_equals_scalar_loop_with_ties(self, rng):
        for _ in range(200):
            # grid boxes: equal overlaps and repeated boxes are frequent
            # the tracker's table: ascending track ids and their box rows
            tids = np.sort(rng.permutation(50)[: int(rng.integers(0, 8))])
            tracks = {int(tid): box(*rng.integers(0, 5, 2) * 0.5) for tid in tids}
            dets = [Detection(box(*rng.integers(0, 5, 2) * 0.5)) for _ in range(int(rng.integers(0, 8)))]
            min_iou = float(rng.choice([0.1, 0.3, 1.0 / 3.0, 0.5]))
            got = _greedy_associate(_box_array(list(tracks.values())), _box_array([d.box for d in dets]), min_iou)
            assert got.shape == (len(got), 2) and got.dtype == np.intp
            assert got[:, 0].tolist() == sorted(got[:, 0].tolist())
            assert {int(tids[row]): k for row, k in got.tolist()} == scalar_greedy_associate(tracks, dets, min_iou)


def record_track_sequence(trk, rem_params, detections_per_frame, mode, d_th=15.0, assoc_iou=0.3, term_after=15):
    """``track_sequence`` with one record per track, a dict keyed by track
    id, moved one track at a time through ``clamped_box``: the reference for
    the tracker's table of arrays."""
    graph, state = SpatioTemporalGraph(d_th=d_th), RemState()
    tracks, next_id, outputs = {}, 0, []
    with ad.no_grad():
        for t, raw in enumerate(detections_per_frame):
            dets = sorted(raw, key=lambda d: (d.box.cx, d.box.cy, d.box.w, d.box.h))
            matched = scalar_greedy_associate({tid: tr["box"] for tid, tr in tracks.items()}, dets, assoc_iou)
            live = sorted(tracks)
            hits = [tid for tid in live if tid in matched]
            moves = {}
            if hits:
                prev = _box_array([tracks[tid]["box"] for tid in hits])
                feat = appearance_feature(trk, _box_array([dets[matched[tid]].box for tid in hits]), prev)
                if mode == "baseline":
                    offsets = regress_baseline(trk, feat)
                else:
                    offsets = regress_relation_aware(trk, feat, state.embedding(hits))
                moves.update(zip(hits, (prev + offsets.data).tolist()))
                for tid in hits:
                    tracks[tid].update(graph_box=dets[matched[tid]].box, missed=0)
            missed = [tid for tid in live if tid not in matched]
            for tid in missed:
                tracks[tid]["missed"] += 1
                if tracks[tid]["missed"] > term_after:
                    del tracks[tid]
            missed = [tid for tid in missed if tid in tracks]
            if mode == "relations_for_occluded" and missed:
                moves.update(zip(missed, regress_from_relations(trk, state.embedding(missed)).data.tolist()))
            else:
                moves.update((tid, (tracks[tid]["box"].as_array() + tracks[tid]["offset"]).tolist()) for tid in missed)
            for tid, row in moves.items():
                moved = clamped_box(*row)
                tracks[tid].update(offset=moved.as_array() - tracks[tid]["box"].as_array(), box=moved)
            used = set(matched.values())
            for k, det in enumerate(dets):
                if k not in used:
                    tracks[next_id] = {"box": det.box, "graph_box": det.box, "offset": np.zeros(4), "missed": 0}
                    next_id += 1
            ids = sorted(tracks)
            update_graph(graph, t, ids, _box_array([tracks[tid]["graph_box"] for tid in ids]))
            rem_step(rem_params, state, graph, t)
            outputs.append([(tid, tracks[tid]["box"]) for tid in ids])
    return outputs


def track_bits(tracks):
    return [[(tid, tuple(float(v).hex() for v in (b.cx, b.cy, b.w, b.h))) for tid, b in frame] for frame in tracks]


class TestTrackTable:
    @pytest.mark.parametrize("mode", TRACK_MODES)
    def test_equals_one_record_per_track(self, monkeypatch, mode):
        # occlusions make tracks coast, recover and terminate; a negative
        # TERM_AFTER ends every unmatched track at once but keeps matched ones
        cfg = ScenarioConfig(
            n_frames=14, n_groups=3, group_size_min=2, group_size_max=3,
            occlusion_prob=0.5, occlusion_min=2, occlusion_max=4, seed=14,
        )
        dets = detect_sequence(generate(cfg), cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        for term_after in (-1, 0, 2, 15):
            monkeypatch.setattr(tracker, "TERM_AFTER", term_after)
            got = track_sequence(trk, rem_params, dets, mode)
            want = record_track_sequence(trk, rem_params, dets, mode, term_after=term_after)
            assert track_bits(got) == track_bits(want)
            assert all(type(tid) is int for frame in got for tid, _ in frame)

    def test_baseline_runs_no_relation_module(self, monkeypatch):
        # no baseline head reads the relation state, so baseline tracks keep
        # their bits with NaN in every REM weight and without the graph or REM
        cfg = ScenarioConfig(
            n_frames=14, n_groups=3, group_size_min=2, group_size_max=3,
            occlusion_prob=0.5, occlusion_min=2, occlusion_max=4, seed=14,
        )
        dets = detect_sequence(generate(cfg), cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        want = record_track_sequence(trk, rem_params, dets, "baseline")
        for name in store.names():
            if name.startswith("rem."):
                store[name].data[:] = np.nan
        assert track_bits(track_sequence(trk, rem_params, dets, "baseline")) == track_bits(want)

        def unused(*args, **kwargs):
            raise AssertionError("baseline tracking ran the relation module")

        monkeypatch.setattr(tracker, "rem_step", unused)
        monkeypatch.setattr(tracker, "update_graph", unused)
        assert track_bits(track_sequence(trk, rem_params, dets, "baseline")) == track_bits(want)

    @pytest.mark.parametrize("mode", ["relation_aware", "relations_for_occluded"])
    def test_relation_state_is_computed_only_for_a_later_frame(self, monkeypatch, mode):
        # frame t's relation state feeds the heads of frame t + 1, so frames
        # 0..T-2 enter the graph and advance REM, in order, and the last
        # frame does neither; the tracks keep the bits of stepping every frame
        cfg = ScenarioConfig(
            n_frames=14, n_groups=3, group_size_min=2, group_size_max=3,
            occlusion_prob=0.5, occlusion_min=2, occlusion_max=4, seed=14,
        )
        dets = detect_sequence(generate(cfg), cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        calls = []

        # update_graph(graph, t, ids, boxes) and rem_step(params, state, graph, t)
        for name, frame_arg in (("update_graph", 1), ("rem_step", 3)):
            def spy(*args, fn=getattr(tracker, name), name=name, frame_arg=frame_arg):
                calls.append((name, args[frame_arg]))
                return fn(*args)

            monkeypatch.setattr(tracker, name, spy)
        for frames in (dets, dets[:1]):
            calls.clear()
            got = track_sequence(trk, rem_params, frames, mode)
            assert calls == [(name, t) for t in range(len(frames) - 1) for name in ("update_graph", "rem_step")]
            assert track_bits(got) == track_bits(record_track_sequence(trk, rem_params, frames, mode))

    def test_non_finite_box_raises_in_its_frame(self, monkeypatch):
        # a head that returns NaN from frame 3 on: the output of frame 3
        # fails validation, as one record per track would
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        frames = [[Detection(box=box(2.0 + 0.1 * t, 2.0))] for t in range(6)]
        calls = []
        regress = tracker.regress_baseline

        def poisoned(params, feat):
            calls.append(1)
            out = regress(params, feat)
            if len(calls) >= 3:
                out.data[:] = np.nan
            return out

        monkeypatch.setattr(tracker, "regress_baseline", poisoned)
        with pytest.raises(ValueError, match="box field cx is not finite"):
            track_sequence(trk, rem_params, frames, "baseline")
        assert len(calls) == 3


class TestTrackSequence:
    def test_identity_head_follows_noise_free_detections(self):
        cfg = ScenarioConfig(
            n_frames=12, n_groups=2, group_size_min=1, group_size_max=2,
            occlusion_prob=0.0, jitter_std=0.0, det_center_std=0.0, det_size_std=0.0, seed=4,
        )
        seq = generate(cfg)
        store, rem_params, trk = identity_copy_tracker()
        dets = gt_detections(seq)
        for mode in ("baseline", "relation_aware"):
            tracks = track_sequence(trk, rem_params, dets, mode, d_th=15.0)
            for t, frame in enumerate(tracks):
                gt_boxes = sorted((rec.box.cx, rec.box.cy) for rec in seq.frames[t])
                trk_boxes = sorted((b.cx, b.cy) for _, b in frame)
                assert np.allclose(np.asarray(gt_boxes), np.asarray(trk_boxes), atol=1e-9)

    def test_detection_order_invariance(self):
        cfg = ScenarioConfig(n_frames=10, n_groups=2, group_size_min=2, group_size_max=2, seed=10)
        seq = generate(cfg)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=11)
        dets = detect_sequence(seq, cfg, seed=3)
        shuffled = [list(reversed(frame)) for frame in dets]
        a = track_sequence(trk, rem_params, dets, "relation_aware", d_th=15.0)
        b = track_sequence(trk, rem_params, shuffled, "relation_aware", d_th=15.0)
        assert a == b

    def test_occluded_branch_activation_exact(self, monkeypatch):
        # A is detected every frame, B only in frames 0..4. The occlusion
        # branch must fire exactly for B's unmatched frames in relations
        # mode, and never in the other modes, where B coasts.
        store, rem_params, trk = identity_copy_tracker()
        frames = []
        for t in range(12):
            frame = [Detection(box=box(2.0 + 0.1 * t, 2.0))]
            if t < 5:
                frame.append(Detection(box=box(12.0, 12.0 + 0.1 * t)))
            frames.append(frame)

        recorded = []
        regress = tracker.regress_from_relations

        def spy(params, relation):
            # one call per frame, whose only occluded track is B
            out = regress(params, relation)
            assert out.data.shape == (1, 4)
            recorded.append(clamped_box(*out.data[0].tolist()))
            return out

        monkeypatch.setattr(tracker, "regress_from_relations", spy)
        monkeypatch.setattr(tracker, "TERM_AFTER", 20)
        b_tid = 1  # spawned second at t=0 (canonical order by cx)

        def b_boxes(mode):
            tracks = track_sequence(trk, rem_params, frames, mode, d_th=5.0)
            return [dict(frame)[b_tid] for frame in tracks]

        emitted = b_boxes("relations_for_occluded")
        assert len(recorded) == 7
        assert emitted[5:12] == recorded

        for mode in ("relation_aware", "baseline"):
            recorded.clear()
            emitted = b_boxes(mode)
            assert recorded == []
            for t in range(5, 12):
                prev, before = emitted[t - 1].as_array(), emitted[t - 2].as_array()
                assert emitted[t] == clamped_box(*(prev + (prev - before)))

    def test_each_head_runs_at_most_once_per_frame(self, monkeypatch):
        calls = {}
        for name in ("regress_baseline", "regress_relation_aware", "regress_from_relations"):
            def spy(*args, head=getattr(tracker, name), name=name):
                out = head(*args)
                calls.setdefault(name, []).append(len(out.data))
                return out

            monkeypatch.setattr(tracker, name, spy)
        cfg = ScenarioConfig(
            n_frames=12, n_groups=3, group_size_min=2, group_size_max=3,
            occlusion_prob=0.5, occlusion_min=2, occlusion_max=4, seed=14,
        )
        dets = detect_sequence(generate(cfg), cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        used = {
            "baseline": {"regress_baseline"},
            "relation_aware": {"regress_relation_aware"},
            "relations_for_occluded": {"regress_relation_aware", "regress_from_relations"},
        }
        for mode in TRACK_MODES:
            calls.clear()
            track_sequence(trk, rem_params, dets, mode, d_th=15.0)
            assert set(calls) == used[mode]
            for rows in calls.values():
                assert len(rows) <= len(dets) and min(rows) >= 1
            assert max(max(rows) for rows in calls.values()) > 1

    def test_all_boxes_valid(self):
        cfg = ScenarioConfig(n_frames=12, n_groups=3, group_size_min=1, group_size_max=3, seed=14)
        seq = generate(cfg)
        dets = detect_sequence(seq, cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        for mode in ("baseline", "relation_aware", "relations_for_occluded"):
            for frame in track_sequence(trk, rem_params, dets, mode, d_th=15.0):
                for _, b in frame:
                    assert b.w > 0 and b.h > 0

    def test_track_termination(self, monkeypatch):
        d0 = [Detection(box=box(1, 1))]
        frames = [d0] + [[] for _ in range(6)]
        store, rem_params, trk = zero_model()
        monkeypatch.setattr(tracker, "TERM_AFTER", 3)
        tracks = track_sequence(trk, rem_params, frames, "baseline")
        assert len(tracks[0]) == 1
        assert all(len(f) == 1 for f in tracks[1:4])  # coasting while alive
        assert all(len(f) == 0 for f in tracks[4:])  # terminated after 3 misses

    def test_empty_first_frame_tracked(self):
        # everyone hidden at t=0: tracking starts at the first detection
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=18)
        frames = [[], [Detection(box=box(1, 1))], [Detection(box=box(1.2, 1))]]
        for mode in ("baseline", "relation_aware", "relations_for_occluded"):
            tracks = track_sequence(trk, rem_params, frames, mode)
            assert tracks[0] == []
            assert [tid for tid, _ in tracks[1]] == [0]
            assert [tid for tid, _ in tracks[2]] == [0]

    def test_empty_sequence_rejected(self):
        store, rem_params, trk = zero_model()
        with pytest.raises(ValueError, match="no frames"):
            track_sequence(trk, rem_params, [], "baseline")

    def test_unknown_mode_rejected(self):
        store, rem_params, trk = zero_model()
        with pytest.raises(ValueError, match="unknown mode"):
            track_sequence(trk, rem_params, [[Detection(box=box(1, 1))]], "fancy")

    def test_deterministic(self):
        cfg = ScenarioConfig(n_frames=10, n_groups=2, group_size_min=2, group_size_max=2, seed=16)
        seq = generate(cfg)
        dets = detect_sequence(seq, cfg, seed=9)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=17)
        a = track_sequence(trk, rem_params, dets, "relations_for_occluded", d_th=15.0)
        b = track_sequence(trk, rem_params, dets, "relations_for_occluded", d_th=15.0)
        assert a == b


class TestDefaults:
    def test_training_recipe_defaults(self):
        cfg = TrainConfig()
        assert cfg.window == 10
        assert cfg.epochs == 50
        assert cfg.lr == 1e-4
        assert cfg.d_th == 15.0

    def test_model_dimension_defaults(self):
        from remtrack.rem import DEFAULT_DIM, DEFAULT_WINDOW
        from remtrack.tracker import DEFAULT_APPEARANCE_DIM

        assert DEFAULT_DIM == 128
        assert DEFAULT_WINDOW == 10
        assert DEFAULT_APPEARANCE_DIM == 32

    def test_track_sequence_threshold_default(self):
        import inspect

        sig = inspect.signature(track_sequence)
        assert sig.parameters["d_th"].default == 15.0
        assert tracker.TERM_AFTER == 15
        assert tracker.ASSOC_IOU == 0.3


class TestTrainConfig:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"epochs": -1}, "epochs must be >= 1"),
            ({"lr": float("inf")}, "learning rate must be finite"),
            ({"lr": -1e-4}, "learning rate must be finite and >= 0"),
        ],
    )
    def test_rejects_out_of_range_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**fields)

    def test_boundary_values_accepted(self):
        TrainConfig(window=1, epochs=1, lr=0.0)


class TestTrackerParameters:
    @pytest.mark.parametrize("app_dim", [0, -1])
    def test_rejects_empty_appearance_encoder(self, app_dim):
        with pytest.raises(ValueError, match="appearance dimension must be >= 1"):
            make_model(dim=4, app_dim=app_dim)

    @pytest.mark.parametrize("rel_dim", [0, -3])
    def test_rejects_empty_relation_embedding(self, rel_dim):
        with pytest.raises(ValueError, match=f"relation dimension must be >= 1, got {rel_dim}"):
            TrackerParameters.create(ParameterStore(), rel_dim=rel_dim, rng=np.random.default_rng(0))


class TestTrain:
    def small_data(self, n=2, seed0=30):
        return [
            generate(
                ScenarioConfig(
                    n_frames=14, n_groups=2, group_size_min=2, group_size_max=2,
                    occlusion_prob=0.5, occlusion_min=2, occlusion_max=4, seed=seed0 + k,
                )
            )
            for k in range(n)
        ]

    def test_zero_learning_rate_keeps_parameters(self):
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=20)
        before = {n: store[n].data.copy() for n in store.names()}
        cfg = TrainConfig(window=5, epochs=3, lr=0.0, seed=1)
        result = train(store, trk, rem_params, self.small_data(), cfg)
        for name in store.names():
            assert np.array_equal(store[name].data, before[name])
        assert all(v == result.loss_curve[0] for v in result.loss_curve)

    def test_loss_decreases_with_training(self):
        store, rem_params, trk = make_model(dim=8, app_dim=6, seed=21)
        cfg = TrainConfig(window=5, epochs=10, lr=3e-3, seed=2)
        result = train(store, trk, rem_params, self.small_data(4), cfg)
        assert result.final_loss < result.initial_loss

    def test_deterministic_under_seed(self):
        cfg = TrainConfig(window=5, epochs=2, lr=1e-3, seed=3)
        curves = []
        for _ in range(2):
            store, rem_params, trk = make_model(dim=6, app_dim=5, seed=22)
            curves.append(train(store, trk, rem_params, self.small_data(), cfg).loss_curve)
        assert curves[0] == curves[1]

    def test_short_sequences_skipped_with_warning(self):
        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=23)
        short = generate(ScenarioConfig(n_frames=4, n_groups=1, group_size_min=1, group_size_max=1, seed=40))
        ok = self.small_data(1)[0]
        cfg = TrainConfig(window=10, epochs=1, lr=1e-3, seed=4)
        with pytest.warns(UserWarning, match="shorter"):
            train(store, trk, rem_params, [short, ok], cfg)

    def test_all_sequences_too_short_rejected(self):
        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=24)
        short = generate(ScenarioConfig(n_frames=4, n_groups=1, group_size_min=1, group_size_max=1, seed=41))
        cfg = TrainConfig(window=10, epochs=1, seed=5)
        # the one error comes before any per-sequence warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 11 frames"):
                train(store, trk, rem_params, [short], cfg)

    def test_empty_dataset_rejected(self):
        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=25)
        with pytest.raises(ValueError, match="at least one"):
            train(store, trk, rem_params, [], TrainConfig())

    def test_gradients_reach_attention_weights(self):
        # end-to-end: GIoU loss at the head moves the attention projections
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=26)
        seq = self.small_data(1, seed0=50)[0]
        cfg = TrainConfig(window=6, seed=6)
        sample = prepare_window(seq, 0, cfg, np.random.default_rng(7))
        loss = window_loss(trk, rem_params, sample, cfg)
        assert loss is not None
        backward(loss)
        grad = store["rem.w_a1"].grad
        assert grad is not None and np.any(grad != 0)


@st.composite
def training_windows(draw):
    """A window of 1-5 frames over 1-4 objects listed in any order, each at
    each frame absent, hidden or visible: objects hidden at the window start,
    entering late and re-entering all occur."""
    window, start = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    n_frames = start + window + 1 + draw(st.integers(0, 1))
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    frames = [[] for _ in range(n_frames)]
    for inst in ids:
        states = draw(st.lists(st.sampled_from([None, 0.0, 1.0]), min_size=n_frames, max_size=n_frames))
        for t, vis in enumerate(states):
            if vis is not None:
                b = BoundingBox(2.0 + 1.5 * inst + 0.25 * t, 5.0 + 0.5 * inst - 0.125 * t, 2.0, 2.5)
                frames[t].append(GtRecord(t=t, instance=inst, box=b, vis=vis, group=0))
    return GroundTruthSequence(frames=frames), start, window


def bits(x):
    return None if x is None else np.asarray(x).tobytes()


def loss_and_grads(store, loss):
    """The bits of ``loss`` and of every parameter gradient it gives."""
    store.clear_grads()
    if loss is None:
        return None
    backward(loss)
    return bits(loss.data), {name: bits(p.grad) for name, p in store.items()}


class TestWindowTerms:
    """``prepare_window`` chooses each head's terms once, as rows;
    ``window_loss`` keeps the bits of choosing them from records."""

    @given(training_windows(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_eligible_terms(self, window, seed):
        seq, start, w = window
        cfg = TrainConfig(window=w, d_th=4.0)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sample = prepare_window(seq, start, cfg, rng)
        ref = record_prepare_window(seq, start, cfg, ref_rng)
        # the same detector draws, in the same order, and the same graph
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert sample.graph == ref.graph
        cutoff = cfg.occlusion_cutoff
        ids_at = [{rec.instance for rec in frame} for frame in seq.frames]
        # occlusion head: hidden at start + k, present at start + k - 1
        occluded = [
            (rec.instance, k - 1, rec.box)
            for k in range(1, w + 1)
            for rec in seq.frames[start + k]
            if rec.vis < cutoff and rec.instance in ids_at[start + k - 1]
        ]
        assert sample.occ_ids.tolist() == [i for i, _, _ in occluded]
        assert sample.occ_frames.tolist() == [k for _, k, _ in occluded]
        assert bits(sample.occ_target) == bits(_box_array([b for _, _, b in occluded]))
        # offset heads: detected at start + window, present the frame before
        last, before = seq.frames[start + w], {rec.instance: rec.box for rec in seq.frames[start + w - 1]}
        visible = [rec for rec in last if rec.vis >= cutoff and rec.instance in before]
        assert sample.ids.tolist() == [rec.instance for rec in visible]
        assert bits(sample.target) == bits(_box_array([rec.box for rec in visible]))
        assert bits(sample.anchor) == bits(_box_array([before[rec.instance] for rec in visible]))
        assert bits(sample.det) == bits(_box_array([ref.det_boxes[(start + w, rec.instance)] for rec in visible]))
        assert sample.occ_target.shape == (len(occluded), 4) and sample.det.shape == (len(visible), 4)

        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=seed % 97)
        got = loss_and_grads(store, window_loss(trk, rem_params, sample, cfg))
        assert got == loss_and_grads(store, record_window_loss(trk, rem_params, ref, cfg))
        assert (got is None) == (len(occluded) + len(visible) == 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_loss_and_gradients_equal_the_record_form_bitwise(self, seed):
        # simulated scenes with occlusions, at the default dimensions
        scene = ScenarioConfig(
            n_frames=16, n_groups=2, group_size_min=2, group_size_max=3,
            occlusion_prob=0.6, occlusion_min=2, occlusion_max=4, seed=60 + seed,
        )
        seq = generate(scene)
        store, rem_params, trk = make_model(dim=128, app_dim=32, seed=61 + seed)
        for window, start in ((10, 0), (10, 5), (3, 7), (1, 14)):
            cfg = TrainConfig(window=window)
            sample = prepare_window(seq, start, cfg, np.random.default_rng(seed))
            ref = record_prepare_window(seq, start, cfg, np.random.default_rng(seed))
            got = loss_and_grads(store, window_loss(trk, rem_params, sample, cfg))
            assert got is not None
            assert got == loss_and_grads(store, record_window_loss(trk, rem_params, ref, cfg))

    def test_window_without_terms_runs_no_relation_module(self, monkeypatch):
        # one object, visible in frames 0-2 and gone at frame 3: no head has a
        # term, so the loss is None before REM runs
        b = BoundingBox(5.0, 5.0, 2.0, 2.0)
        seq = GroundTruthSequence(frames=[[GtRecord(t, 0, b, 1.0, 0)] for t in range(3)] + [[]])
        cfg = TrainConfig(window=3)
        sample = prepare_window(seq, 0, cfg, np.random.default_rng(0))
        store, rem_params, trk = make_model(dim=4, app_dim=4)
        assert record_window_loss(trk, rem_params, record_prepare_window(seq, 0, cfg, np.random.default_rng(0)), cfg) is None

        def unused(*args, **kwargs):
            raise AssertionError("a window without terms ran the relation module")

        monkeypatch.setattr(tracker, "rem_step", unused)
        assert window_loss(trk, rem_params, sample, cfg) is None

    def test_start_outside_the_sequence_rejected(self):
        seq = generate(ScenarioConfig(n_frames=24, n_groups=1, group_size_min=2, group_size_max=2, seed=3))
        cfg = TrainConfig(window=10)
        for start in (-1, 14):
            with pytest.raises(ValueError, match=rf"^window start {start} outside 0\.\.13 for 11 of 24 frames$"):
                prepare_window(seq, start, cfg, np.random.default_rng(0))
        for start in (0, 13):
            assert prepare_window(seq, start, cfg, np.random.default_rng(0)).graph.n_frames == 10


def tape_nodes(loss):
    """Nodes on the tape behind ``loss``: every node with a backward closure."""
    seen, todo, count = {id(loss)}, [loss], 0
    while todo:
        node = todo.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return count


class TestWindowLossTape:
    def test_node_count_does_not_grow_with_the_terms(self, monkeypatch):
        # two windows of one group, one member occluded at frames 1-2 in the
        # first and three in the second: more terms for every head, the
        # same tape
        terms = []
        giou_loss = tracker.giou_loss

        def spy(pred, targets):
            terms.append(len(targets))
            return giou_loss(pred, targets)

        monkeypatch.setattr(tracker, "giou_loss", spy)
        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=31)
        cfg = TrainConfig(window=3)
        counts = []
        for occluded in ([0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1.0]):
            scene = ScenarioConfig(
                n_frames=4, scene_w=10.0, scene_h=10.0, n_groups=1,
                group_size_min=len(occluded), group_size_max=len(occluded),
                occlusion_prob=occluded, occlusion_start=1, occlusion_min=2, occlusion_max=2,
                occlusion_vis=(0.0, 0.0), seed=32,
            )
            sample = prepare_window(generate(scene), 0, cfg, np.random.default_rng(33))
            counts.append(tape_nodes(window_loss(trk, rem_params, sample, cfg)))
        assert min(terms) > 0 and all(a < b for a, b in zip(terms[:3], terms[3:]))
        assert counts[0] == counts[1]
