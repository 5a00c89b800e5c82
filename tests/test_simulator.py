import math

import numpy as np
import pytest

from remtrack.simulator import Detection, ScenarioConfig, detect, detect_sequence, generate


def single_track_config(**overrides):
    fields = dict(
        n_frames=20,
        n_groups=1,
        group_size_min=1,
        group_size_max=1,
        jitter_std=0.0,
        occlusion_prob=0.0,
        seed=0,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestGenerate:
    def test_single_object_constant_velocity(self):
        seq = generate(single_track_config())
        xs = [seq.frames[t][0].box.cx for t in range(20)]
        ys = [seq.frames[t][0].box.cy for t in range(20)]
        dx = xs[1] - xs[0]
        dy = ys[1] - ys[0]
        for t in range(1, 20):
            assert xs[t] - xs[t - 1] == pytest.approx(dx, abs=1e-12)
            assert ys[t] - ys[t - 1] == pytest.approx(dy, abs=1e-12)
        assert math.hypot(dx, dy) == pytest.approx(0.25, abs=2e-3)

    def test_deterministic_under_seed(self):
        cfg = ScenarioConfig(seed=42)
        a, b = generate(cfg), generate(cfg)
        assert a.frames == b.frames
        assert a.group_of == b.group_of

    def test_different_seed_differs(self):
        a = generate(ScenarioConfig(seed=1))
        b = generate(ScenarioConfig(seed=2))
        assert a.frames != b.frames

    def test_rigid_group_offsets_exactly_constant(self):
        cfg = ScenarioConfig(
            n_frames=25,
            n_groups=1,
            group_size_min=3,
            group_size_max=3,
            jitter_std=0.0,
            occlusion_prob=0.0,
            seed=7,
        )
        seq = generate(cfg)
        ids = seq.instances()
        # direct recomputation: offsets at t must equal offsets at frame 0
        for a in ids:
            for b in ids:
                if a >= b:
                    continue
                ox0 = seq.record(0, a).box.cx - seq.record(0, b).box.cx
                oy0 = seq.record(0, a).box.cy - seq.record(0, b).box.cy
                for t in range(cfg.n_frames):
                    assert seq.record(t, a).box.cx - seq.record(t, b).box.cx == ox0
                    assert seq.record(t, a).box.cy - seq.record(t, b).box.cy == oy0

    def test_group_members_share_group_id_and_sizes_constant(self):
        cfg = ScenarioConfig(n_groups=2, group_size_min=2, group_size_max=3, seed=3)
        seq = generate(cfg)
        for i in seq.instances():
            w0 = seq.record(0, i).box.w
            h0 = seq.record(0, i).box.h
            for t in range(cfg.n_frames):
                rec = seq.record(t, i)
                assert rec.box.w == w0 and rec.box.h == h0
                assert rec.group == seq.group_of[i]

    def test_occlusion_window_bounds_and_visibility(self):
        cfg = ScenarioConfig(
            n_frames=40,
            n_groups=4,
            group_size_min=1,
            group_size_max=2,
            occlusion_prob=1.0,
            occlusion_min=3,
            occlusion_max=6,
            seed=11,
        )
        seq = generate(cfg)
        for i in seq.instances():
            vis = [seq.record(t, i).vis for t in range(cfg.n_frames)]
            occluded = [t for t, v in enumerate(vis) if v < 1.0]
            assert occluded, "occlusion probability 1 must produce a window"
            assert 3 <= len(occluded) <= 6
            assert occluded == list(range(occluded[0], occluded[-1] + 1))
            for t in occluded:
                assert 0.0 <= vis[t] <= 0.3

    def test_fixed_occlusion_start(self):
        cfg = ScenarioConfig(
            n_frames=30,
            n_groups=1,
            group_size_min=2,
            group_size_max=2,
            occlusion_prob=[0.0, 1.0],
            occlusion_min=10,
            occlusion_max=10,
            occlusion_start=8,
            occlusion_vis=(0.0, 0.0),
            seed=5,
        )
        seq = generate(cfg)
        vis1 = [seq.record(t, 1).vis for t in range(30)]
        assert [t for t, v in enumerate(vis1) if v < 0.3] == list(range(8, 18))
        assert all(v == 0.0 for v in vis1[8:18])
        assert all(seq.record(t, 0).vis == 1.0 for t in range(30))

    def test_boxes_inside_expanded_margin(self):
        cfg = ScenarioConfig(n_frames=50, n_groups=3, group_size_min=2, group_size_max=3, seed=13)
        seq = generate(cfg)
        slack = cfg.group_radius + 1.0
        for frame in seq.frames:
            for rec in frame:
                assert -slack <= rec.box.cx <= cfg.scene_w + slack
                assert -slack <= rec.box.cy <= cfg.scene_h + slack

    def test_impossible_packing_rejected(self):
        with pytest.raises(ValueError, match="pack"):
            generate(
                ScenarioConfig(
                    scene_w=4.0, scene_h=4.0, n_groups=10, group_size_min=3, group_size_max=3, seed=0
                )
            )

    def test_scene_too_small_for_speed_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            generate(single_track_config(n_frames=200, speed=2.0, scene_w=10.0, scene_h=10.0))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(group_size_min=0)
        with pytest.raises(ValueError):
            ScenarioConfig(occlusion_min=5, occlusion_max=3)
        with pytest.raises(ValueError):
            ScenarioConfig(jitter_std=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(occlusion_vis=(0.4, 0.2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_frames", "x"), ("n_groups", 2.5), ("seed", True), ("speed", "fast"),
            ("box_w_range", 1.0), ("occlusion_vis", [0.0]), ("occlusion_prob", "0.3"),
            ("occlusion_start", 2.0), ("headings", 0.5), ("group_centers", [(1.0, "y")]),
        ],
    )  # fmt: skip
    def test_wrongly_typed_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"wrong type: {field}$"):
            ScenarioConfig(**{field: value})

    def test_every_field_type_checked(self):
        from dataclasses import fields

        from remtrack.simulator import _FIELD_CHECKS

        assert set(_FIELD_CHECKS) == {f.name for f in fields(ScenarioConfig)}

    def test_numpy_scalars_and_lists_accepted(self):
        cfg = ScenarioConfig(
            n_frames=np.int64(5), speed=np.float64(0.2), box_w_range=[1.2, 2.0],
            occlusion_prob=[0.0, 1.0], headings=[0.5], group_centers=[[5.0, 6.0]],
        )  # fmt: skip
        assert cfg.n_frames == 5


class TestDetect:
    def test_zero_noise_detections_equal_ground_truth(self):
        cfg = single_track_config(det_center_std=0.0, det_size_std=0.0)
        seq = generate(cfg)
        rng = np.random.default_rng(0)
        for t in range(seq.n_frames):
            dets = detect(seq.frames[t], cfg, rng)
            assert len(dets) == 1
            assert dets[0].box == seq.frames[t][0].box
            assert dets[0].gt_id == 0 and dets[0].visible

    def test_fully_occluded_object_absent(self):
        cfg = ScenarioConfig(
            n_frames=20,
            n_groups=1,
            group_size_min=2,
            group_size_max=2,
            occlusion_prob=[1.0, 0.0],
            occlusion_min=5,
            occlusion_max=5,
            occlusion_start=4,
            occlusion_vis=(0.0, 0.0),
            jitter_std=0.0,
            seed=2,
        )
        seq = generate(cfg)
        rng = np.random.default_rng(1)
        for t in range(4, 9):
            ids = {d.gt_id for d in detect(seq.frames[t], cfg, rng)}
            assert 0 not in ids and 1 in ids

    def test_noise_statistics(self):
        # mean absolute error of N(0, 0.5) is sqrt(2/pi) * 0.5 per axis
        cfg = single_track_config(det_center_std=0.5, det_size_std=0.0, n_frames=2)
        seq = generate(cfg)
        rng = np.random.default_rng(3)
        errors = []
        for _ in range(10_000):
            det = detect(seq.frames[0], cfg, rng)[0]
            gt = seq.frames[0][0].box
            errors.append(abs(det.box.cx - gt.cx))
            errors.append(abs(det.box.cy - gt.cy))
        expected = math.sqrt(2.0 / math.pi) * 0.5
        assert abs(np.mean(errors) - expected) < 0.1 * expected

    def test_detect_sequence_deterministic(self):
        cfg = ScenarioConfig(seed=9)
        seq = generate(cfg)
        a = detect_sequence(seq, cfg, seed=5)
        b = detect_sequence(seq, cfg, seed=5)
        assert a == b

    def test_detection_boxes_always_valid(self):
        cfg = ScenarioConfig(det_size_std=5.0, seed=21)  # noise can flip sizes negative
        seq = generate(cfg)
        for frame in detect_sequence(seq, cfg, seed=1):
            for det in frame:
                assert det.box.w > 0 and det.box.h > 0

    def test_detection_is_frozen_dataclass(self):
        d = Detection(box=generate(single_track_config()).frames[0][0].box)
        with pytest.raises(AttributeError):
            d.visible = False
