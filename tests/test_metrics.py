import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_hota_single,
    brute_idf1,
    brute_match,
    brute_mota,
    record_evaluate,
    record_match_frame,
)
from remtrack import metrics
from remtrack.geometry import BoundingBox, iou
from remtrack.metrics import (
    DEFAULT_ALPHAS,
    MetricsReport,
    clear_mot,
    evaluate,
    hota,
    idf1,
    match_frame,
    mt_ml,
)


def box(cx, cy, w=2.0, h=2.0):
    return BoundingBox(cx, cy, w, h)


def random_scenario(rng, n_objects=3, n_frames=4, drop=0.2, noise=0.6):
    """Random (gt, pred) pair with odd coordinates so IoU ties are absent."""
    gt, pred = [], []
    base = rng.uniform(0, 10, size=(n_objects, 2))
    for t in range(n_frames):
        gt_frame, pred_frame = [], []
        for i in range(n_objects):
            center = base[i] + 0.3 * t
            if rng.random() > drop:
                gt_frame.append((i, box(center[0], center[1], 2 + 0.1 * i, 2)))
            if rng.random() > drop:
                jitter = rng.uniform(-noise, noise, 2)
                pred_frame.append((i + 100, box(center[0] + jitter[0], center[1] + jitter[1], 2.05, 1.95)))
        gt.append(gt_frame)
        pred.append(pred_frame)
    return gt, pred


def grid_scenario(rng, n_objects=5, n_frames=4):
    """Random (gt, pred) pair on a coarse grid, so IoU ties are common."""
    gt, pred = [], []
    for _ in range(n_frames):
        gt.append([(i, box(*rng.integers(0, 4, 2).tolist())) for i in range(n_objects) if rng.random() < 0.8])
        pids = rng.permutation(n_objects)[: int(rng.integers(0, n_objects + 1))].tolist()
        pred.append([(p + 100, box(*rng.integers(0, 4, 2).tolist(), 2.0, 2.0 + 2 * (p % 2))) for p in pids])
    if not any(gt):
        gt[0].append((0, box(1, 1)))
    return gt, pred


class TestMatchFrame:
    def test_identical_sets_fully_matched(self):
        frame = [(0, box(1, 1)), (1, box(5, 5)), (2, box(9, 1))]
        m = match_frame(frame, frame, alpha=0.5)
        assert m.matches == [(0, 0), (1, 1), (2, 2)]
        assert m.tp == 3 and m.fp == 0 and m.fn == 0

    def test_disjoint_sets_nothing_matched(self):
        gt = [(0, box(0, 0, 1, 1)), (1, box(3, 0, 1, 1))]
        pred = [(7, box(30, 30, 1, 1)), (8, box(40, 40, 1, 1)), (9, box(50, 50, 1, 1))]
        m = match_frame(gt, pred, alpha=0.5)
        assert m.matches == [] and m.fp == 3 and m.fn == 2

    def test_ambiguous_overlap_equals_brute_force(self):
        gt = [(0, box(0.0, 0.0)), (1, box(1.0, 0.2)), (2, box(2.0, -0.1))]
        pred = [(5, box(0.4, 0.1)), (6, box(1.5, 0.0)), (7, box(2.2, 0.1))]
        for alpha in (0.05, 0.2, 0.4, 0.6):
            m = match_frame(gt, pred, alpha)
            expected, _ = brute_match(gt, pred, alpha)
            assert m.matches == expected

    def test_random_frames_equal_brute_force(self, rng):
        for _ in range(60):
            gt, pred = random_scenario(rng, n_objects=int(rng.integers(1, 5)), n_frames=1)
            alpha = float(rng.uniform(0.05, 0.9))
            m = match_frame(gt[0], pred[0], alpha)
            expected, _ = brute_match(gt[0], pred[0], alpha)
            assert m.matches == expected

    def test_symmetric_tie_broken_ascending(self):
        # two coincident gt boxes and two coincident predictions
        b = box(1, 1)
        m = match_frame([(0, b), (1, b)], [(10, b), (11, b)], alpha=0.5)
        assert m.matches == [(0, 10), (1, 11)]

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            match_frame([], [], alpha=0.0)

    def test_duplicate_ids_rejected(self):
        b = box(1, 1)
        with pytest.raises(ValueError, match="duplicate"):
            match_frame([(0, b), (0, b)], [(1, b)], alpha=0.5)

    def test_matched_pairs_meet_threshold(self, rng):
        for _ in range(20):
            gt, pred = random_scenario(rng)
            m = match_frame(gt[0], pred[0], alpha=0.3)
            for pair in m.matches:
                assert m.ious[pair] >= 0.3


class TestClearMot:
    def test_perfect_tracking(self):
        gt = [[(0, box(1, 1)), (1, box(5, 5))] for _ in range(5)]
        r = clear_mot(gt, gt)
        assert r.mota == 1.0 and r.id_switches == 0 and r.motp == 1.0

    def test_single_miss_hand_value(self):
        gt = [[(0, box(1, 1)), (1, box(5, 5))] for _ in range(5)]
        pred = [list(f) for f in gt]
        pred[2] = [(0, box(1, 1))]  # drop one box: 10 gt, 1 FN
        assert clear_mot(gt, pred).mota == 0.9

    def test_no_predictions(self):
        gt = [[(0, box(1, 1))] for _ in range(4)]
        r = clear_mot(gt, [[] for _ in range(4)])
        assert r.mota == 0.0 and r.motp is None

    def test_id_switch_counted(self):
        gt = [[(0, box(1, 1))] for _ in range(4)]
        pred = [[(5, box(1, 1))], [(5, box(1, 1))], [(6, box(1, 1))], [(6, box(1, 1))]]
        r = clear_mot(gt, pred)
        assert r.id_switches == 1
        assert r.mota == 1.0 - 1.0 / 4.0

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            clear_mot([[], []], [[], []])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            clear_mot([[(0, box(1, 1))]], [])

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            gt, pred = random_scenario(rng, n_objects=int(rng.integers(1, 5)), n_frames=int(rng.integers(1, 6)))
            if sum(len(f) for f in gt) == 0:
                continue
            assert clear_mot(gt, pred).mota == brute_mota(gt, pred)


class TestForcedAndTiedFrames:
    """A forced frame skips the solver; a solver's answer takes the swap loop
    only when the loop's first pass would swap."""

    @staticmethod
    def spy(monkeypatch, answer=None):
        calls = {"solve": 0, "loop": 0}
        solve, canonicalize = metrics.linear_sum_assignment, metrics._canonicalize

        def solving(*args, **kwargs):
            calls["solve"] += 1
            return answer if answer is not None else solve(*args, **kwargs)

        def looping(*args):
            calls["loop"] += 1
            return canonicalize(*args)

        monkeypatch.setattr(metrics, "linear_sum_assignment", solving)
        monkeypatch.setattr(metrics, "_canonicalize", looping)
        return calls

    def test_forced_frame_makes_no_solver_call(self, monkeypatch):
        calls = self.spy(monkeypatch)
        gt = [(3, box(1, 1)), (1, box(5, 5)), (2, box(9, 9))]
        pred = [(8, box(5.2, 5)), (9, box(1, 1.3)), (7, box(30, 30))]
        m = match_frame(gt, pred, alpha=0.5)
        assert calls == {"solve": 0, "loop": 0}
        assert m.matches == [(1, 8), (3, 9)] and (m.tp, m.fp, m.fn) == (2, 1, 1)
        assert m == record_match_frame(gt, pred, 0.5)

    def test_symmetric_tie_solved_crossed_takes_the_loop(self, monkeypatch):
        b = box(1, 1)
        gt, pred = [(0, b), (1, b)], [(10, b), (11, b)]
        calls = self.spy(monkeypatch, answer=(np.array([0, 1]), np.array([1, 0])))
        m = match_frame(gt, pred, alpha=0.5)
        assert calls == {"solve": 1, "loop": 1}
        assert m.matches == [(0, 10), (1, 11)]

    def test_symmetric_tie_solved_ascending_skips_the_loop(self, monkeypatch):
        b = box(1, 1)
        calls = self.spy(monkeypatch, answer=(np.array([0, 1]), np.array([0, 1])))
        m = match_frame([(0, b), (1, b)], [(10, b), (11, b)], alpha=0.5)
        assert calls == {"solve": 1, "loop": 0}
        assert m.matches == [(0, 10), (1, 11)]


# Sequences built to tie: a few grid boxes per frame shared by several ids,
# predictions offset from them in steps of 0.25, empty frames, and ids that
# only the prediction has (false positives).
grid_box = st.builds(
    box,
    st.integers(0, 3).map(float),
    st.integers(0, 3).map(float),
    st.sampled_from([1.0, 2.0]),
    st.sampled_from([1.0, 2.0]),
)
offset = st.integers(-2, 2).map(lambda k: 0.25 * k)


@st.composite
def tied_frame(draw, n_ids):
    palette = draw(st.lists(grid_box, min_size=1, max_size=3))
    gt_ids = draw(st.lists(st.integers(0, n_ids - 1), unique=True, max_size=n_ids))
    pred_ids = draw(st.lists(st.integers(100, 100 + n_ids + 2), unique=True, max_size=n_ids + 2))
    gt = [(g, draw(st.sampled_from(palette))) for g in gt_ids]
    pred = []
    for p in pred_ids:
        b = draw(st.sampled_from(palette))
        pred.append((p, box(b.cx + draw(offset), b.cy + draw(offset), b.w, b.h)))
    return gt, pred


@st.composite
def tied_sequence(draw):
    n_ids = draw(st.integers(1, 5))
    frames = draw(st.lists(tied_frame(n_ids), min_size=1, max_size=5))
    gt, pred = [list(g) for g, _ in frames], [list(p) for _, p in frames]
    if not any(gt):
        gt[0].append((0, box(1, 1)))
    return gt, pred


class TestIndexScoring:
    """Scoring on index arrays (forced frames, the vectorised first pass of
    the swap loop, array counts) equals the record form in every bit."""

    @given(
        tied_sequence(),
        st.one_of(st.just(DEFAULT_ALPHAS), st.lists(st.sampled_from(DEFAULT_ALPHAS), min_size=1, max_size=4)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_record_form(self, sequence, alphas):
        gt, pred = sequence
        assert evaluate(gt, pred, alphas) == record_evaluate(gt, pred, alphas)
        for g, p in zip(gt, pred):
            for alpha in set(alphas):
                assert match_frame(g, p, alpha) == record_match_frame(g, p, alpha)

    @pytest.mark.parametrize("seed", [5, 9])
    def test_crowd_sequence_equals_the_record_form(self, seed):
        # the benchmark's scored sequence: 75 objects, misses, false
        # positives and identity swaps
        from remtrack.simulator import ScenarioConfig, detect_sequence, generate

        rng = np.random.default_rng(seed)
        cfg = ScenarioConfig(n_frames=4, scene_w=40.0, scene_h=40.0, n_groups=15, seed=seed)
        gt_seq = generate(cfg)
        detections = detect_sequence(gt_seq, cfg, seed=seed + 1)
        pred = [
            [(d.gt_id if rng.random() < 0.9 else 500 + k, d.box) for k, d in enumerate(frame)]
            for frame in detections
        ]
        gt = gt_seq.as_track_frames()
        assert evaluate(gt, pred) == record_evaluate(gt, pred)


class TestIdf1:
    def test_perfect(self):
        gt = [[(0, box(1, 1)), (1, box(6, 6))] for _ in range(3)]
        assert idf1(gt, gt) == 1.0

    def test_half_swapped_ids(self):
        a, b = box(1, 1), box(9, 9)
        gt, pred = [], []
        for t in range(8):
            gt.append([(0, a), (1, b)])
            if t < 4:
                pred.append([(10, a), (11, b)])
            else:
                pred.append([(11, a), (10, b)])
        assert idf1(gt, pred) == 0.5

    def test_no_predictions(self):
        gt = [[(0, box(1, 1))] for _ in range(3)]
        assert idf1(gt, [[] for _ in range(3)]) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            gt, pred = random_scenario(rng, n_objects=int(rng.integers(1, 5)), n_frames=int(rng.integers(1, 6)))
            if sum(len(f) for f in gt) == 0:
                continue
            assert idf1(gt, pred) == brute_idf1(gt, pred)

    def test_duplicate_ids_rejected(self):
        b = box(1, 1)
        with pytest.raises(ValueError, match="duplicate ids within one frame"):
            idf1([[(0, b)]], [[(5, b), (5, b)]])

    def test_duplicate_id_error_names_side_frame_and_id(self):
        b, c = box(1, 1), box(5, 5)
        gt = [[(0, b)], [(0, b), (1, c)]]
        with pytest.raises(
            ValueError, match=r"^duplicate ids within one frame: prediction id 5 repeats at frame index 1$"
        ):
            evaluate(gt, [[(5, b)], [(5, b), (6, c), (5, c)]])
        with pytest.raises(
            ValueError, match=r"^duplicate ids within one frame: ground-truth id 1 repeats at frame index 0$"
        ):
            evaluate([[(1, b), (1, c)], []], [[], []])
        with pytest.raises(ValueError, match=r"^duplicate ids within one frame: ground-truth id 0 repeats$"):
            match_frame([(0, b), (0, c)], [], alpha=0.5)

    def test_id_that_is_not_a_64_bit_integer_rejected(self):
        # ids are indexed as int64, which would truncate 1.5 and 1.7 to one id
        b = box(1, 1)
        with pytest.raises(ValueError, match=r"^ground-truth ids must be integers that fit in 64 bits at frame index 0$"):
            evaluate([[(1.5, b), (1.7, b)]], [[(1, b)]])
        with pytest.raises(ValueError, match=r"^prediction ids must be integers that fit in 64 bits$"):
            match_frame([(1, b)], [(2**63, b)], alpha=0.5)
        # numpy integers are ids like any other
        assert evaluate([[(np.int32(1), b)]], [[(np.uint8(4), b)]]) == evaluate([[(1, b)]], [[(4, b)]])


class TestHota:
    def test_perfect_tracking_all_ones(self):
        gt = [[(0, box(1, 1)), (1, box(6, 6))] for _ in range(4)]
        h = hota(gt, gt)
        assert all(v == 1.0 for v in h.deta)
        assert all(v == 1.0 for v in h.assa)
        assert all(v == 1.0 for v in h.hota)
        assert h.final == 1.0

    def test_alpha_grid_has_19_values(self):
        assert len(DEFAULT_ALPHAS) == 19
        assert DEFAULT_ALPHAS[0] == 0.05 and DEFAULT_ALPHAS[-1] == 0.95

    def test_decomposition_holds_exactly(self, rng):
        gt, pred = random_scenario(rng, n_objects=3, n_frames=5)
        h = hota(gt, pred)
        for d, a, v in zip(h.deta, h.assa, h.hota):
            assert v == math.sqrt(d * a)

    def test_hand_combination(self):
        assert abs(math.sqrt(0.64 * 0.25) - 0.4) <= 1e-12

    def test_deta_non_increasing_in_alpha(self, rng):
        for _ in range(10):
            gt, pred = random_scenario(rng)
            h = hota(gt, pred)
            for lo, hi in zip(h.deta, h.deta[1:]):
                assert hi <= lo + 1e-12

    def test_identity_swap_scenario_matches_brute_force(self):
        # 3 objects, 5 frames, one identity swap halfway
        gt, pred = [], []
        for t in range(5):
            gt.append([(i, box(3 * i + 0.1 * t, 0.2 * t + 0.05 * i)) for i in range(3)])
            frame = []
            for i in range(3):
                pid = i if t < 3 or i == 2 else 1 - i  # swap ids 0 and 1 at t >= 3
                frame.append((pid + 50, box(3 * i + 0.1 * t + 0.15, 0.2 * t + 0.05 * i - 0.1)))
            pred.append(frame)
        h = hota(gt, pred)
        for k, alpha in enumerate(h.alphas):
            deta, assa, hv = brute_hota_single(gt, pred, alpha)
            assert h.deta[k] == deta and h.assa[k] == assa and h.hota[k] == hv

    def test_empty_alpha_grid_rejected(self):
        gt = [[(0, box(1, 1))]]
        with pytest.raises(ValueError, match="alphas"):
            hota(gt, gt, alphas=())
        with pytest.raises(ValueError, match="alphas"):
            evaluate(gt, gt, alphas=())

    def test_matches_brute_force_random(self, rng):
        for _ in range(10):
            gt, pred = random_scenario(rng, n_objects=int(rng.integers(1, 4)), n_frames=int(rng.integers(1, 5)))
            if sum(len(f) for f in gt) == 0:
                continue
            h = hota(gt, pred, alphas=(0.1, 0.3, 0.5, 0.7))
            for k, alpha in enumerate(h.alphas):
                deta, assa, hv = brute_hota_single(gt, pred, alpha)
                assert h.deta[k] == deta and h.assa[k] == assa and h.hota[k] == hv


class TestMtMl:
    def test_perfect(self):
        gt = [[(0, box(1, 1))] for _ in range(10)]
        assert mt_ml(gt, gt) == (1.0, 0.0)

    def test_half_coverage_is_neither(self):
        gt = [[(0, box(1, 1))] for _ in range(10)]
        pred = [[(5, box(1, 1))] if t < 5 else [] for t in range(10)]
        assert mt_ml(gt, pred) == (0.0, 0.0)

    def test_length_mismatch_rejected(self):
        gt = [[(0, box(1, 1))], [(0, box(1, 1))]]
        with pytest.raises(ValueError, match="differ in length"):
            mt_ml(gt, [[(5, box(1, 1))]])

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            mt_ml([[], []], [[], []])

    def test_mixed_hand_counts(self):
        # object 0 covered 100%, object 1 covered 10%, object 2 covered 50%
        gt, pred = [], []
        for t in range(10):
            gt.append([(0, box(1, 1)), (1, box(6, 6)), (2, box(12, 1))])
            frame = [(20, box(1, 1))]
            if t == 0:
                frame.append((21, box(6, 6)))
            if t < 5:
                frame.append((22, box(12, 1)))
            pred.append(frame)
        mt, ml = mt_ml(gt, pred)
        assert mt == pytest.approx(1.0 / 3.0)
        assert ml == pytest.approx(1.0 / 3.0)


class TestInvariancesAndReport:
    def test_prediction_relabeling_invariance(self, rng):
        gt, pred = random_scenario(rng, n_objects=4, n_frames=4)
        mapping = {pid: 999 - pid for frame in pred for pid, _ in frame}
        relabeled = [[(mapping[p], b) for p, b in frame] for frame in pred]
        assert clear_mot(gt, pred).mota == clear_mot(gt, relabeled).mota
        assert idf1(gt, pred) == idf1(gt, relabeled)
        assert hota(gt, pred).final == hota(gt, relabeled).final

    def test_evaluate_bundles_everything(self, rng):
        gt, pred = random_scenario(rng)
        report = evaluate(gt, pred)
        assert report.mota == clear_mot(gt, pred).mota
        assert report.idf1 == idf1(gt, pred)
        assert len(report.deta) == len(DEFAULT_ALPHAS)
        assert report.hota_final == hota(gt, pred).final
        mt, ml = mt_ml(gt, pred)
        assert (report.mt, report.ml) == (mt, ml)


class TestSharedPass:
    """``evaluate`` shares IoU matrices and matchings across metrics; every
    field equals what the separate public functions compute."""

    @pytest.mark.parametrize("alphas", [DEFAULT_ALPHAS, (0.3,), (0.5, 0.3, 0.5, 0.75)])
    @pytest.mark.parametrize("scenario", [random_scenario, grid_scenario])
    def test_evaluate_equals_public_functions(self, rng, alphas, scenario):
        for _ in range(8):
            gt, pred = scenario(rng)
            if sum(len(f) for f in gt) == 0:
                continue
            cm = clear_mot(gt, pred)
            h = hota(gt, pred, alphas)
            mt, ml = mt_ml(gt, pred)
            expected = MetricsReport(
                mota=cm.mota,
                motp=cm.motp,
                idf1=idf1(gt, pred),
                mt=mt,
                ml=ml,
                id_switches=cm.id_switches,
                alphas=tuple(alphas),
                deta=h.deta,
                assa=h.assa,
                hota=h.hota,
                hota_final=h.final,
            )
            assert evaluate(gt, pred, alphas) == expected

    def test_repeated_alpha_gives_repeated_entries(self, rng):
        gt, pred = grid_scenario(rng)
        h = hota(gt, pred, (0.5, 0.3, 0.5))
        assert h.alphas == (0.5, 0.3, 0.5)
        assert (h.deta[0], h.assa[0], h.hota[0]) == (h.deta[2], h.assa[2], h.hota[2])
        single = hota(gt, pred, (0.5,))
        assert (single.deta[0], single.assa[0]) == (h.deta[0], h.assa[0])

    def test_tied_grid_matches_brute_force(self, rng):
        for _ in range(15):
            gt, pred = grid_scenario(rng)
            assert clear_mot(gt, pred).mota == brute_mota(gt, pred)
            assert idf1(gt, pred) == brute_idf1(gt, pred)
            h = hota(gt, pred, alphas=(0.1, 0.3, 0.5, 0.7))
            for k, alpha in enumerate(h.alphas):
                assert (h.deta[k], h.assa[k], h.hota[k]) == brute_hota_single(gt, pred, alpha)


class TestSolverLoading:
    """scipy's solver loads on the first assignment, and only scoring assigns."""

    def test_only_scoring_loads_the_solver(self):
        # a fresh interpreter: this test process may hold scipy already
        script = textwrap.dedent(
            """
            import sys
            import remtrack
            import remtrack.cli
            from remtrack import metrics
            from remtrack.cli import _build_model
            from remtrack.simulator import ScenarioConfig, detect_sequence, generate
            from remtrack.tracker import TRACK_MODES, TrainConfig, track_sequence, train

            seq = generate(ScenarioConfig(n_frames=3, n_groups=2, seed=1))
            detections = detect_sequence(seq, ScenarioConfig(n_frames=3), seed=2)
            store, rem_params, trk_params = _build_model(8, 4, seed=0)
            for mode in TRACK_MODES:
                track_sequence(trk_params, rem_params, detections, mode)
            train(store, trk_params, rem_params, [seq], TrainConfig(window=2, epochs=1))
            assert "scipy.optimize" not in sys.modules, "loaded before scoring"
            metrics.evaluate(seq.as_track_frames(), seq.as_track_frames())
            assert "scipy.optimize" in sys.modules, "not loaded by scoring"
            """
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("alphas", [DEFAULT_ALPHAS, (0.3,), (0.5, 0.3, 0.5, 0.75)])
    def test_a_wrapper_sees_every_assignment(self, rng, monkeypatch, alphas):
        # benchmarks/layers.py times metrics.assignment with such a wrapper
        gt, pred = random_scenario(rng, n_objects=4, n_frames=6)
        gt[2], pred[4] = [], []
        expected = evaluate(gt, pred, alphas)
        calls = []
        solve = metrics.linear_sum_assignment

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(metrics, "linear_sum_assignment", counting)
        report = evaluate(gt, pred, alphas)

        def forced(g_frame, p_frame, alpha):
            # no gt and no prediction with two eligible partners
            eligible = [[iou(gb, pb) >= alpha for _, pb in p_frame] for _, gb in g_frame]
            return all(sum(row) <= 1 for row in eligible) and all(sum(col) <= 1 for col in zip(*eligible))

        solved = sum(not forced(g, p, alpha) for alpha in set(alphas) | {0.5} for g, p in zip(gt, pred))
        assert len(calls) == solved + 1  # + 1 for IDF1
        assert report == expected
