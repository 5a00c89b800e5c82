import math
import warnings

import numpy as np
import pytest

from conftest import make_model
from remtrack import autodiff as ad
from remtrack.autodiff import Tensor, backward, gradient_check
from remtrack.geometry import BoundingBox, iou
from remtrack.simulator import Detection, ScenarioConfig, detect_sequence, generate
from remtrack.tracker import (
    TrackStats,
    TrainConfig,
    _greedy_associate,
    _Track,
    appearance_feature,
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
        f = appearance_feature(trk, box(1, 2), box(3, 4), True)
        assert np.array_equal(f.data, np.zeros(trk.app_dim))

    def test_visibility_flag_flips_one_coordinate(self):
        store, _, trk = zero_model(app_dim=9)
        trk.enc_w.data[:] = np.eye(9)
        a = appearance_feature(trk, box(1, 2), box(3, 4), True)
        b = appearance_feature(trk, box(1, 2), box(3, 4), False)
        diff = a.data - b.data
        assert diff[8] == 1.0
        assert np.all(diff[:8] == 0.0)

    def test_gradient_through_encoder(self):
        store, _, trk = make_model(dim=4, app_dim=5, seed=3)

        def loss():
            f = appearance_feature(trk, box(1.3, 0.7), box(1.0, 0.5), True)
            return ad.dot(f, f)

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
    """The association rule written as a loop over scalar ``iou`` calls."""
    candidates = []
    for tid, track in tracks.items():
        for k, det in enumerate(detections):
            overlap = iou(det.box, track.box)
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
            tids = rng.permutation(50)[: int(rng.integers(1, 8))]
            tracks = {
                int(tid): _Track(int(tid), box(*rng.integers(0, 5, 2) * 0.5), box(0, 0), np.zeros(4))
                for tid in tids
            }
            dets = [Detection(box(*rng.integers(0, 5, 2) * 0.5)) for _ in range(int(rng.integers(0, 8)))]
            min_iou = float(rng.choice([0.1, 0.3, 1.0 / 3.0, 0.5]))
            got = _greedy_associate(tracks, dets, min_iou)
            assert got == scalar_greedy_associate(tracks, dets, min_iou)
            assert all(type(tid) is int and type(k) is int for tid, k in got.items())


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

    def test_occluded_branch_activation_exact(self):
        # A is detected every frame, B only in frames 0..4. The occlusion
        # branch must fire exactly for B's unmatched frames in relations
        # mode, and never in the other modes.
        store, rem_params, trk = identity_copy_tracker()
        frames = []
        for t in range(12):
            frame = [Detection(box=box(2.0 + 0.1 * t, 2.0))]
            if t < 5:
                frame.append(Detection(box=box(12.0, 12.0 + 0.1 * t)))
            frames.append(frame)

        stats = TrackStats()
        track_sequence(trk, rem_params, frames, "relations_for_occluded", d_th=5.0, term_after=20, stats=stats)
        b_tid = 1  # spawned second at t=0 (canonical order by cx)
        assert stats.relation_recoveries == [(b_tid, t) for t in range(5, 12)]
        assert stats.coasted == []

        stats = TrackStats()
        track_sequence(trk, rem_params, frames, "relation_aware", d_th=5.0, term_after=20, stats=stats)
        assert stats.relation_recoveries == []
        assert stats.coasted == [(b_tid, t) for t in range(5, 12)]

        stats = TrackStats()
        track_sequence(trk, rem_params, frames, "baseline", d_th=5.0, term_after=20, stats=stats)
        assert stats.relation_recoveries == []

    def test_all_boxes_valid(self):
        cfg = ScenarioConfig(n_frames=12, n_groups=3, group_size_min=1, group_size_max=3, seed=14)
        seq = generate(cfg)
        dets = detect_sequence(seq, cfg, seed=7)
        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=15)
        for mode in ("baseline", "relation_aware", "relations_for_occluded"):
            for frame in track_sequence(trk, rem_params, dets, mode, d_th=15.0):
                for _, b in frame:
                    assert b.w > 0 and b.h > 0

    def test_track_termination(self):
        d0 = [Detection(box=box(1, 1))]
        frames = [d0] + [[] for _ in range(6)]
        store, rem_params, trk = zero_model()
        tracks = track_sequence(trk, rem_params, frames, "baseline", term_after=3)
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
        assert sig.parameters["term_after"].default == 15
        assert sig.parameters["assoc_iou"].default == 0.3


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="at least 11 frames"):
                train(store, trk, rem_params, [short], cfg)

    def test_empty_dataset_rejected(self):
        store, rem_params, trk = make_model(dim=4, app_dim=4, seed=25)
        with pytest.raises(ValueError, match="at least one"):
            train(store, trk, rem_params, [], TrainConfig())

    def test_gradients_reach_attention_weights(self):
        # end-to-end: GIoU loss at the head moves the attention projections
        from remtrack.tracker import prepare_window

        store, rem_params, trk = make_model(dim=6, app_dim=5, seed=26)
        seq = self.small_data(1, seed0=50)[0]
        cfg = TrainConfig(window=6, seed=6)
        sample = prepare_window(seq, 0, cfg, np.random.default_rng(7))
        loss = window_loss(trk, rem_params, sample, cfg)
        assert loss is not None
        backward(loss)
        grad = store["rem.w_a1"].grad
        assert grad is not None and np.any(grad != 0)
