"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 7-10 share one seeded end-to-end training run (64 sequences, 50
epochs, embedding dim 128) provided by a module-scoped fixture; expect a few
minutes for it. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import frame_box, make_rem
from oracles import brute_hota_single, brute_idf1, brute_mota, neighbors, spatial_edges
from remtrack.autodiff import GruCellParams, ParameterStore, Tensor, gradient_check, gru_cell
from remtrack.cli import gradcheck_loss_builder, run
from remtrack.geometry import BoundingBox, giou, iou, scaled_distance
from remtrack.io import write_results_csv, write_scenario_jsonl
from remtrack.metrics import clear_mot, hota, idf1
from remtrack.rem import (
    RemParameters,
    RemState,
    attention_coefficients,
    node_feature,
    relation_importance_records,
    rem_step,
)
from remtrack.simulator import ScenarioConfig, detect_sequence, generate
from remtrack.st_graph import build_graph
from remtrack.tracker import TrackerParameters, TrainConfig, track_sequence, train

TRAIN_SEQUENCES = 64
TRAIN_SEED = 0
REL_DIM = 128
APP_DIM = 32


def _ok(name: str, detail: str = "") -> None:
    print(f"\nPASS {name}" + (f": {detail}" if detail else ""))


def train_scene_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_frames=24,
        scene_w=20.0,
        scene_h=20.0,
        n_groups=2,
        group_size_min=2,
        group_size_max=3,
        speed=0.25,
        jitter_std=0.02,
        occlusion_prob=0.5,
        occlusion_min=4,
        occlusion_max=8,
        seed=seed,
    )


def heldout_scene_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_frames=24,
        scene_w=20.0,
        scene_h=20.0,
        n_groups=2,
        group_size_min=2,
        group_size_max=3,
        speed=0.25,
        jitter_std=0.02,
        occlusion_prob=0.0,
        seed=seed,
    )


def occlusion_scene_config() -> ScenarioConfig:
    # one rigid group of three; the third member fully occluded for 10 frames
    return ScenarioConfig(
        n_frames=26,
        scene_w=20.0,
        scene_h=20.0,
        n_groups=1,
        group_size_min=3,
        group_size_max=3,
        speed=0.3,
        headings=[0.5],
        group_centers=[(5.0, 6.0)],
        jitter_std=0.0,
        occlusion_prob=[0.0, 0.0, 1.0],
        occlusion_min=10,
        occlusion_max=10,
        occlusion_start=10,
        occlusion_vis=(0.0, 0.0),
        seed=901,
    )


@pytest.fixture(scope="module")
def trained():
    store = ParameterStore()
    rng = np.random.default_rng(TRAIN_SEED)
    rem_params = RemParameters.create(store, dim=REL_DIM, rng=rng)
    trk_params = TrackerParameters.create(store, rel_dim=REL_DIM, app_dim=APP_DIM, rng=rng)
    sequences = [generate(train_scene_config(100 + k)) for k in range(TRAIN_SEQUENCES)]
    cfg = TrainConfig(seed=TRAIN_SEED)  # window 10, 50 epochs, lr 1e-4, d_th 15
    t0 = time.monotonic()
    result = train(store, trk_params, rem_params, sequences, cfg)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        store=store,
        rem=rem_params,
        trk=trk_params,
        cfg=cfg,
        result=result,
        seconds=elapsed,
    )


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    store, loss_fn = gradcheck_loss_builder(seed=7, dim=6, app_dim=4)
    err = gradient_check(loss_fn, store, epsilon=1e-5)
    elapsed = time.monotonic() - t0
    assert err < 1e-4
    assert elapsed < 60.0
    _ok(
        "criterion-1 gradient suite",
        f"max rel err {err:.2e} over {store.n_scalars()} parameters in {elapsed:.1f}s",
    )


def test_criterion_2_attention_normalization():
    store, params = make_rem(dim=4, seed=11)
    rng = np.random.default_rng(22)
    nodes_checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        frame = [
            (i, BoundingBox(rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0.5, 3), rng.uniform(0.5, 3)))
            for i in range(n)
        ]
        graph = build_graph([frame], d_th=float(rng.uniform(2.0, 12.0)))
        feats = {i: node_feature(params, frame_box(graph.frames[0], i), None, None) for i in graph.frames[0].ids}
        for i in graph.frames[0].ids:
            nbrs = neighbors(graph.frames[0], i)
            if not nbrs:
                continue
            alphas = attention_coefficients(params, feats[i], [feats[j] for j in nbrs])
            assert abs(float(alphas.data.sum()) - 1.0) <= 1e-12
            assert np.all(alphas.data > 0)
            nodes_checked += 1
    assert nodes_checked > 1000
    _ok("criterion-2 attention normalization", f"{nodes_checked} node softmaxes across 1000 graphs")


def test_criterion_3_permutation_equivariance():
    store, params = make_rem(dim=4, seed=33)
    rng = np.random.default_rng(44)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        n_frames = int(rng.integers(1, 4))
        base = rng.uniform(0, 10, size=(n, 2))
        frames = []
        for t in range(n_frames):
            frames.append(
                [
                    (i, BoundingBox(base[i, 0] + 0.2 * t + rng.normal(0, 0.05), base[i, 1], 1.5, 1.5))
                    for i in range(n)
                    if rng.random() < 0.9
                ]
            )
        graph = build_graph(frames, d_th=6.0)
        state = RemState()
        plain = [
            {e.instance: e.vector for e in rem_step(params, state, graph, t)}
            for t in range(n_frames)
        ]
        perm = {i: int(p) for i, p in zip(range(n), rng.permutation(1000)[:n])}
        relabeled = build_graph(
            [[(perm[i], frame_box(frame, i)) for i in frame.ids] for frame in graph.frames], d_th=6.0
        )
        state = RemState()
        permuted = [
            {e.instance: e.vector for e in rem_step(params, state, relabeled, t)}
            for t in range(n_frames)
        ]
        for t in range(n_frames):
            for i, vec in plain[t].items():
                assert np.array_equal(vec, permuted[t][perm[i]])
    _ok("criterion-3 permutation equivariance", "bitwise over 100 random graphs")


def test_criterion_4_locality():
    store, params = make_rem(dim=6, seed=55)
    solo_frames = []
    crowd_frames = []
    for t in range(8):
        lone = (9, BoundingBox(40.0 + 0.25 * t, 40.0, 1.5, 1.5))
        crowd = [
            (0, BoundingBox(2.0 + 0.2 * t, 2.0, 1.5, 1.5)),
            (1, BoundingBox(3.5 + 0.2 * t, 2.5, 1.5, 1.5)),
            (2, BoundingBox(2.5 + 0.2 * t, 3.5, 1.5, 1.5)),
        ]
        solo_frames.append([lone])
        crowd_frames.append([lone] + crowd)
    solo_graph = build_graph(solo_frames, d_th=6.0)
    crowd_graph = build_graph(crowd_frames, d_th=6.0)
    assert all(not any(9 in e for e in spatial_edges(crowd_graph, t)) for t in range(8))

    state_a, state_b = RemState(), RemState()
    for t in range(8):
        solo_emb = {e.instance: e.vector for e in rem_step(params, state_a, solo_graph, t)}
        crowd_emb = {e.instance: e.vector for e in rem_step(params, state_b, crowd_graph, t)}
        assert np.array_equal(solo_emb[9], crowd_emb[9])
    _ok("criterion-4 locality", "isolated object bitwise equal to solo run over 8 frames")


def test_criterion_5_hand_oracles():
    # zero-weight GRU halves its hidden state
    store = ParameterStore()
    cell = GruCellParams.create(store, "g", 3, 3, np.random.default_rng(0))
    for name in store.names():
        store[name].data[:] = 0.0
    h0 = np.array([1.0, -2.0, 0.75])
    h = gru_cell(cell, Tensor(np.zeros(3)), Tensor(h0))
    assert np.max(np.abs(h.data - 0.5 * h0)) <= 1e-12

    # scaled-distance hand example
    d = scaled_distance(BoundingBox(10, 10, 4, 2), BoundingBox(13, 14, 6, 8))
    assert abs(d - math.sqrt(10.25)) <= 1e-12

    # disjoint unit boxes: GIoU = -1/3
    g = giou(BoundingBox.from_corner(0, 0, 1, 1), BoundingBox.from_corner(2, 0, 1, 1))
    assert abs(g - (-1.0 / 3.0)) <= 1e-12

    # HOTA combination
    assert abs(math.sqrt(0.64 * 0.25) - 0.4) <= 1e-12
    _ok("criterion-5 hand oracles", "GRU halving, sqrt(10.25), GIoU -1/3, HOTA 0.4 all within 1e-12")


def test_criterion_6_metrics_equal_brute_force():
    rng = np.random.default_rng(66)
    checked = 0
    for case in range(30):
        n_objects = int(rng.integers(1, 5))
        n_frames = int(rng.integers(1, 7))
        base = rng.uniform(0, 8, size=(n_objects, 2))
        gt, pred = [], []
        for t in range(n_frames):
            gt_frame, pred_frame = [], []
            for i in range(n_objects):
                c = base[i] + 0.3 * t
                if rng.random() < 0.85:
                    gt_frame.append((i, BoundingBox(c[0], c[1], 2.0 + 0.1 * i, 2.0)))
                if rng.random() < 0.85:
                    j = rng.uniform(-0.7, 0.7, 2)
                    pid = i + 100 if rng.random() < 0.8 else 100 + int(rng.integers(0, n_objects))
                    if any(p == pid for p, _ in pred_frame):
                        continue
                    pred_frame.append((pid, BoundingBox(c[0] + j[0], c[1] + j[1], 2.1, 1.9)))
            gt.append(gt_frame)
            pred.append(pred_frame)
        if sum(len(f) for f in gt) == 0:
            continue
        assert clear_mot(gt, pred).mota == brute_mota(gt, pred)
        assert idf1(gt, pred) == brute_idf1(gt, pred)
        h = hota(gt, pred)
        for k, alpha in enumerate(h.alphas):
            deta, assa, hv = brute_hota_single(gt, pred, alpha)
            assert h.deta[k] == deta
            assert h.assa[k] == assa
            assert h.hota[k] == hv
        checked += 1
    assert checked >= 25
    _ok("criterion-6 metrics oracle equivalence", f"exact on {checked} random small scenarios x 19 alphas")


def test_criterion_7_seeded_training_regression(trained):
    initial, final = trained.result.initial_loss, trained.result.final_loss
    assert final <= 0.5 * initial
    assert trained.seconds < 600.0
    _ok(
        "criterion-7 seeded training",
        f"loss {initial:.4f} -> {final:.4f} (ratio {final / initial:.3f}) in {trained.seconds / 60:.1f} min",
    )


def test_criterion_8_relation_discovery(trained):
    intra, inter = [], []
    window = trained.cfg.window
    for k in range(10):
        cfg = heldout_scene_config(500 + k)
        seq = generate(cfg)
        graph = build_graph(seq.as_track_frames(), trained.cfg.d_th)
        for _, i, j, value in relation_importance_records(trained.rem, graph, window=window, frames=(11, 17, 23)):
            (intra if seq.group_of[i] == seq.group_of[j] else inter).append(value)
    assert intra and inter, "held-out scenes must produce both pair kinds"
    mean_intra = float(np.mean(intra))
    mean_inter = float(np.mean(inter))
    assert mean_intra > mean_inter
    _ok(
        "criterion-8 relation discovery",
        f"intra-group mean R {mean_intra:.4f} > inter-group mean R {mean_inter:.4f} "
        f"({len(intra)}/{len(inter)} pairs)",
    )


def _occluded_recovery_iou(trained, mode):
    cfg = occlusion_scene_config()
    seq = generate(cfg)
    occluded_id = 2
    occ_frames = [t for t in range(seq.n_frames) if seq.record(t, occluded_id).vis < cfg.occlusion_cutoff]
    assert occ_frames == list(range(10, 20))
    dets = detect_sequence(seq, cfg, seed=77)
    for t in occ_frames:
        assert all(d.gt_id != occluded_id for d in dets[t])
    tracks = track_sequence(trained.trk, trained.rem, dets, mode, d_th=trained.cfg.d_th)
    gt0 = seq.record(0, occluded_id).box
    tid = max(tracks[0], key=lambda pair: iou(pair[1], gt0))[0]
    values = []
    for t in occ_frames:
        pred = dict(tracks[t]).get(tid)
        values.append(iou(pred, seq.record(t, occluded_id).box) if pred is not None else 0.0)
    return float(np.mean(values)), tracks, seq


def test_criterion_9_tracking_by_relations(trained):
    iou_rel, _, _ = _occluded_recovery_iou(trained, "relations_for_occluded")
    iou_base, _, _ = _occluded_recovery_iou(trained, "baseline")
    # both values logged, as required
    print(f"\n  relation-recovered mean IoU  = {iou_rel:.4f}")
    print(f"  coasting baseline mean IoU   = {iou_base:.4f}")
    assert iou_rel > iou_base
    _ok("criterion-9 tracking-by-relations", f"recovered {iou_rel:.4f} > coasting {iou_base:.4f}")


def test_criterion_10_assa_harness(trained, tmp_path):
    _, tracks_rel, seq = _occluded_recovery_iou(trained, "relations_for_occluded")
    _, tracks_base, _ = _occluded_recovery_iou(trained, "baseline")
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text(write_scenario_jsonl(seq))
    curves = {}
    for tag, tracks in (("rel", tracks_rel), ("base", tracks_base)):
        pred_path = tmp_path / f"{tag}.csv"
        pred_path.write_text(write_results_csv(tracks))
        out_dir = tmp_path / f"eval_{tag}"
        assert run(["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--out", str(out_dir)]) == 0
        rows = (out_dir / "hota_curve.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 19
        curves[tag] = [tuple(float(v) for v in row.split(",")) for row in rows]
    assa_rel = curves["rel"][0][2]
    assa_base = curves["base"][0][2]
    assert curves["rel"][0][0] == 0.05
    assert assa_rel >= assa_base
    _ok(
        "criterion-10 AssA harness",
        f"alpha=0.05 AssA relation {assa_rel:.4f} >= baseline {assa_base:.4f}; 19-alpha CSVs emitted",
    )


def test_criterion_11_ablation_harness(tmp_path):
    cfg = tmp_path / "ablate_cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n_frames": 14,
                "scene_w": 16.0,
                "scene_h": 16.0,
                "n_groups": 2,
                "group_size_min": 2,
                "group_size_max": 2,
                "occlusion_prob": 0.3,
                "occlusion_min": 2,
                "occlusion_max": 4,
            }
        )
    )
    out = tmp_path / "ablation"
    code = run(
        [
            "ablate", "--config", str(cfg), "--out", str(out),
            "--gen-sequences", "2", "--dim", "16", "--app-dim", "8",
            "--window", "6", "--epochs", "2", "--seed", "5",
        ]
    )
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "setting,d_th,idf1,mota,motp,hota"
    assert len(summary) == 11
    for d in (5, 10, 20, 30, 40):
        for tag in ("base", "rel"):
            report = json.loads((out / f"metrics_{tag}_dth{d}.json").read_text())
            assert {"mota", "idf1", "hota", "per_alpha"} <= set(report)
    _ok("criterion-11 ablation harness", "d_th sweep {5,10,20,30,40} end-to-end, one report per setting")
