"""The three workloads: seeded inputs, one round of work, and its checks.

A workload is a class with four parts:

* ``setup(seed)`` builds every input from the seed (scenes, detections,
  predictions, model parameters). It is timed as ``setup_s``.
* ``run_round(inputs, k)`` does round ``k`` of the workload and returns
  ``(seconds, output)``, where ``seconds`` maps each timed part of the round
  to its time. Only the calls into ``remtrack`` are timed; the
  benchmark's own preparation (a fresh model, a shuffled copy of the
  detections) happens before the clock starts. Every round does the same
  work, so rounds can be compared bitwise.
* ``ops_per_round(inputs)`` is the number of operations one round attempts,
  and ``rates(inputs, seconds)`` turns the parts' median times into the
  workload's own throughput figures.
* ``check(inputs, outputs)`` returns the list of failed checks; empty means
  the outputs are correct. The checks compare against computations made here
  or against properties the method must have, never against stored output.

Object counts, group sizes and occlusion counts are fixed; the seed draws
positions, headings, box sizes, which objects are occluded, detection noise
and the prediction errors. So the amount of work barely depends on the seed
and runs with different seeds can be compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import checks
from remtrack import autodiff, io, metrics, rem, simulator, st_graph, tracker
from remtrack.geometry import BoundingBox
from remtrack.simulator import ScenarioConfig

D_TH = 15.0  # graph distance threshold, the training recipe's default
APP_DIM = 32
TRACK_MODE = "relations_for_occluded"


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``FULL`` is the benchmark, ``FAST`` the self-tests."""

    dim: int = 128
    train_sequences: int = 4
    train_epochs: int = 4
    crowd_grid: int = 5  # groups on a crowd_grid x crowd_grid grid
    crowd_group_size: int = 3
    crowd_occluded: int = 15  # objects occluded for crowd_occlusion frames
    crowd_occlusion: int = 4
    track_frames: int = 8
    eval_frames: int = 6
    eval_misses: int = 3  # per frame
    eval_false_positives: int = 3  # per frame
    eval_swaps: int = 3  # identity swaps over the sequence
    self_score_frames: int = 3
    relation_scenes: int = 4
    relation_frames: tuple[int, ...] = (11, 17, 23)


FULL = Sizes()
FAST = Sizes(
    dim=8,
    train_sequences=2,
    train_epochs=3,
    crowd_grid=3,
    crowd_occluded=3,
    track_frames=5,
    eval_frames=5,
    self_score_frames=2,
    relation_scenes=2,
    relation_frames=(11, 23),
)


def init_model(seed: int, dim: int):
    store = autodiff.ParameterStore()
    rng = np.random.default_rng(seed)
    rem_params = rem.RemParameters.create(store, dim=dim, rng=rng)
    trk_params = tracker.TrackerParameters.create(store, rel_dim=dim, app_dim=APP_DIM, rng=rng)
    return store, rem_params, trk_params


def small_scene_config(seed: int, group_size: int, occlusion_prob: float) -> ScenarioConfig:
    """The acceptance suite's training / held-out scene, group size pinned."""
    return ScenarioConfig(
        n_frames=24,
        scene_w=20.0,
        scene_h=20.0,
        n_groups=2,
        group_size_min=group_size,
        group_size_max=group_size,
        speed=0.25,
        jitter_std=0.02,
        occlusion_prob=occlusion_prob,
        occlusion_min=4,
        occlusion_max=8,
        seed=seed,
    )


def crowd_scene_config(rng: np.random.Generator, sizes: Sizes, n_frames: int) -> ScenarioConfig:
    """Groups on a jittered grid over a 12-unit pitch, so density is even."""
    grid = sizes.crowd_grid
    n_objects = grid * grid * sizes.crowd_group_size
    side = 12.0 * grid
    occluded = np.zeros(n_objects)
    occluded[rng.choice(n_objects, sizes.crowd_occluded, replace=False)] = 1.0
    centers = [
        (7.0 + 11.5 * a + rng.uniform(-2.0, 2.0), 7.0 + 11.5 * b + rng.uniform(-2.0, 2.0))
        for a in range(grid)
        for b in range(grid)
    ]
    return ScenarioConfig(
        n_frames=n_frames,
        scene_w=side,
        scene_h=side,
        n_groups=grid * grid,
        group_size_min=sizes.crowd_group_size,
        group_size_max=sizes.crowd_group_size,
        group_centers=centers,
        occlusion_prob=occluded.tolist(),
        occlusion_min=sizes.crowd_occlusion,
        occlusion_max=sizes.crowd_occlusion,
        occlusion_start=2,
        seed=int(rng.integers(2**31)),
    )


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# train


class Train:
    """Seeded joint training: ``tracker.train`` from fresh parameters."""

    name = "train"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        rng = np.random.default_rng([seed, 1])
        scenes = [
            simulator.generate(small_scene_config(_draw_seed(rng), 2 + k % 2, occlusion_prob=0.5))
            for k in range(s.train_sequences)
        ]
        model_seed = _draw_seed(rng)
        cfg = tracker.TrainConfig(epochs=s.train_epochs, seed=_draw_seed(rng))
        # Every round trains its own copy of this model, built again before
        # the clock starts; this one stays at the initial parameters.
        initial = init_model(model_seed, s.dim)
        return SimpleNamespace(seed=seed, scenes=scenes, model_seed=model_seed, cfg=cfg, initial=initial)

    def describe(self, inputs) -> dict:
        return {
            "sequences": len(inputs.scenes),
            "objects_per_sequence": [len(scene.frames[0]) for scene in inputs.scenes],
            "epochs": inputs.cfg.epochs,
            "window": inputs.cfg.window,
            "dim": self.sizes.dim,
        }

    def ops_per_round(self, inputs) -> int:
        return len(inputs.scenes) * inputs.cfg.epochs  # windows stepped

    def run_round(self, inputs, k: int):
        store, rem_params, trk_params = init_model(inputs.model_seed, self.sizes.dim)
        t0 = time.perf_counter()
        result = tracker.train(store, trk_params, rem_params, inputs.scenes, inputs.cfg)
        return {"train": time.perf_counter() - t0}, list(result.loss_curve)

    def rates(self, inputs, seconds) -> dict:
        return {"train_windows_per_s": (self.ops_per_round(inputs) / seconds["train"], "windows/s")}

    def check(self, inputs, outputs) -> list[str]:
        failures = checks.loss_curves(outputs)
        projected, finite_difference = self.gradient_probe(inputs)
        failures += checks.gradient(projected, finite_difference)
        return failures

    def gradient_probe(self, inputs, epsilon: float = 1e-6) -> tuple[float, float]:
        """Backward gradient along a seeded unit direction, and the central
        finite difference of the first training window's loss along it.

        The direction has unit length over all parameters together, so the
        step stays too small to cross the loss's kinks (LeakyReLU, the min
        and max of GIoU); a step of ``epsilon`` in every coordinate can.
        """
        store, rem_params, trk_params = inputs.initial
        cfg = inputs.cfg
        rng = np.random.default_rng(cfg.seed)  # the first window train() draws
        seq = inputs.scenes[0]
        sample = tracker.prepare_window(seq, int(rng.integers(0, seq.n_frames - cfg.window)), cfg, rng)

        store.clear_grads()
        autodiff.backward(tracker.window_loss(trk_params, rem_params, sample, cfg))
        direction_rng = np.random.default_rng([inputs.seed, 2])
        params = dict(store.items())
        direction = {name: direction_rng.normal(size=p.data.shape) for name, p in params.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {name: d / norm for name, d in direction.items()}
        projected = sum(
            float(np.sum(p.grad * direction[name])) for name, p in params.items() if p.grad is not None
        )
        store.clear_grads()

        original = {name: p.data.copy() for name, p in params.items()}

        def loss_at(step: float) -> float:
            for name, p in params.items():
                p.data[...] = original[name] + step * direction[name]
            with autodiff.no_grad():
                value = float(tracker.window_loss(trk_params, rem_params, sample, cfg).data)
            for name, p in params.items():
                p.data[...] = original[name]
            return value

        finite_difference = (loss_at(epsilon) - loss_at(-epsilon)) / (2.0 * epsilon)
        return projected, finite_difference


# ---------------------------------------------------------------------------
# track_crowd


class TrackCrowd:
    """``tracker.track_sequence`` on a crowd clip with an untrained model."""

    name = "track_crowd"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        rng = np.random.default_rng([seed, 3])
        cfg = crowd_scene_config(rng, s, s.track_frames)
        scene = simulator.generate(cfg)
        detections = simulator.detect_sequence(scene, cfg, seed=_draw_seed(rng))
        model_seed = _draw_seed(rng)
        _, rem_params, trk_params = init_model(model_seed, s.dim)
        return SimpleNamespace(
            seed=seed, scene=scene, detections=detections, rem=rem_params, trk=trk_params
        )

    def describe(self, inputs) -> dict:
        return {
            "frames": len(inputs.detections),
            "objects_per_frame": len(inputs.scene.frames[0]),
            "detections_per_frame": [len(frame) for frame in inputs.detections],
            "mode": TRACK_MODE,
            "dim": self.sizes.dim,
        }

    def ops_per_round(self, inputs) -> int:
        return len(inputs.detections)  # frames tracked

    def run_round(self, inputs, k: int):
        # Round 0 sees the detections as generated; later rounds see each
        # frame in a seeded shuffled order, which must not change the output.
        detections = inputs.detections
        if k > 0:
            rng = np.random.default_rng([inputs.seed, 4, k])
            detections = [[frame[i] for i in rng.permutation(len(frame))] for frame in detections]
        t0 = time.perf_counter()
        tracks = tracker.track_sequence(inputs.trk, inputs.rem, detections, mode=TRACK_MODE, d_th=D_TH)
        return {"track": time.perf_counter() - t0}, tracks

    def rates(self, inputs, seconds) -> dict:
        return {"track_frames_per_s": (self.ops_per_round(inputs) / seconds["track"], "frames/s")}

    def check(self, inputs, outputs) -> list[str]:
        return checks.tracks(inputs.detections, outputs)


# ---------------------------------------------------------------------------
# analyze


class Analyze:
    """``remtrack eval`` and ``remtrack relations`` without the command line:
    a CSV round trip plus ``metrics.evaluate`` on one crowd sequence, then
    ``rem.relation_importance_records`` on held-out scenes."""

    name = "analyze"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        rng = np.random.default_rng([seed, 5])
        cfg = crowd_scene_config(rng, s, s.eval_frames)
        gt = simulator.generate(cfg)
        detections = simulator.detect_sequence(gt, cfg, seed=_draw_seed(rng))
        predictions = perturbed_predictions(detections, cfg, s, rng)
        relation_scenes = [
            simulator.generate(small_scene_config(_draw_seed(rng), 2 + k % 2, occlusion_prob=0.0))
            for k in range(s.relation_scenes)
        ]
        _, rem_params, _ = init_model(_draw_seed(rng), s.dim)
        return SimpleNamespace(
            seed=seed,
            gt=gt.as_track_frames(),
            predictions=predictions,
            relation_frames=[scene.as_track_frames() for scene in relation_scenes],
            rem=rem_params,
        )

    def describe(self, inputs) -> dict:
        return {
            "eval_frames": len(inputs.gt),
            "gt_boxes": sum(len(frame) for frame in inputs.gt),
            "predicted_boxes": sum(len(frame) for frame in inputs.predictions),
            "misses_per_frame": self.sizes.eval_misses,
            "false_positives_per_frame": self.sizes.eval_false_positives,
            "identity_swaps": self.sizes.eval_swaps,
            "relation_scenes": len(inputs.relation_frames),
            "relation_objects": [len(frames[0]) for frames in inputs.relation_frames],
            "relation_frame_indices": list(self.sizes.relation_frames),
            "relation_records": self.expected_records(inputs),
            "dim": self.sizes.dim,
        }

    def expected_records(self, inputs) -> int:
        return sum(
            len(checks.gated_pairs(frames, self.sizes.relation_frames, D_TH))
            for frames in inputs.relation_frames
        )

    def ops_per_round(self, inputs) -> int:
        return 1 + self.expected_records(inputs)  # one sequence scored, plus records

    def run_round(self, inputs, k: int):
        # Round 0 keeps the scene ids; later rounds relabel them with a seeded
        # injection, which must permute the relation records and nothing else.
        relabels = []
        for scene_index, frames in enumerate(inputs.relation_frames):
            ids = sorted({i for frame in frames for i, _ in frame})
            if k == 0:
                new_ids = ids
            else:
                rng = np.random.default_rng([inputs.seed, 6, k, scene_index])
                new_ids = [int(x) for x in rng.choice(10 * len(ids) + 10, len(ids), replace=False)]
            relabels.append(dict(zip(ids, new_ids)))
        relabelled = [
            [[(mapping[i], box) for i, box in frame] for frame in frames]
            for mapping, frames in zip(relabels, inputs.relation_frames)
        ]
        n_frames = len(inputs.gt)

        t0 = time.perf_counter()
        text = io.write_results_csv(inputs.predictions)
        parsed = io.records_to_frames(io.parse_mot_csv(text), n_frames)
        report = metrics.evaluate(inputs.gt, parsed)
        t1 = time.perf_counter()
        relation_records = []
        for frames in relabelled:
            graph = st_graph.build_graph(frames, D_TH)
            relation_records.append(
                rem.relation_importance_records(inputs.rem, graph, frames=self.sizes.relation_frames)
            )
        seconds = {"eval": t1 - t0, "relations": time.perf_counter() - t1}

        restored = []
        for mapping, records in zip(relabels, relation_records):
            back = {new: old for old, new in mapping.items()}
            restored.append(sorted((t, back[i], back[j], r) for t, i, j, r in records))
        return seconds, SimpleNamespace(parsed=parsed, report=report, relations=restored)

    def rates(self, inputs, seconds) -> dict:
        return {
            "eval_s_per_seq": (seconds["eval"], "s"),
            "relations_per_s": (self.expected_records(inputs) / seconds["relations"], "records/s"),
        }

    def check(self, inputs, outputs) -> list[str]:
        first = outputs[0]
        failures = checks.round_trip(inputs.predictions, first.parsed)
        counts = metrics.clear_mot(inputs.gt, first.parsed)
        failures += checks.scores(inputs.gt, first.parsed, first.report, counts)
        failures += checks.reports_equal([out.report for out in outputs])
        n = self.sizes.self_score_frames
        failures += checks.self_score(metrics.evaluate(inputs.gt[:n], inputs.gt[:n]))
        for scene_index, frames in enumerate(inputs.relation_frames):
            failures += checks.relation_records(
                frames,
                self.sizes.relation_frames,
                D_TH,
                [out.relations[scene_index] for out in outputs],
            )
        return failures


def perturbed_predictions(detections, cfg: ScenarioConfig, sizes: Sizes, rng: np.random.Generator):
    """Tracker-like predictions made from detections, not from a tracker.

    Each detection keeps its ground-truth id. Then, per frame, a fixed number
    of detections is dropped (misses) and a fixed number of random boxes is
    added (false positives, ids from 10000 up); and at seeded frames two
    objects exchange ids for the rest of the sequence (identity swaps).
    Occluded objects are missing already, as the detector emits nothing for
    them.
    """
    n_frames = len(detections)
    swap_frames = sorted(rng.choice(np.arange(1, n_frames), sizes.eval_swaps, replace=False).tolist())
    ids = sorted({d.gt_id for frame in detections for d in frame})
    mapping = {i: i for i in ids}
    predictions = []
    next_fp = 10000
    for t, frame in enumerate(detections):
        if t in swap_frames:
            a, b = (int(x) for x in rng.choice(ids, 2, replace=False))
            mapping[a], mapping[b] = mapping[b], mapping[a]
        keep = sorted(rng.choice(len(frame), len(frame) - sizes.eval_misses, replace=False).tolist())
        pred = [(mapping[frame[i].gt_id], frame[i].box) for i in keep]
        for _ in range(sizes.eval_false_positives):
            w = float(rng.uniform(*cfg.box_w_range))
            h = float(rng.uniform(*cfg.box_h_range))
            cx = float(rng.uniform(w, cfg.scene_w - w))
            cy = float(rng.uniform(h, cfg.scene_h - h))
            pred.append((next_fp, BoundingBox(cx, cy, w, h)))
            next_fp += 1
        predictions.append(pred)
    return predictions


WORKLOADS = {cls.name: cls for cls in (Train, TrackCrowd, Analyze)}
