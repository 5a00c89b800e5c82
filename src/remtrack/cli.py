"""Command-line interface: generate, train, track, evaluate, inspect.

Every subcommand is deterministic under --seed. Outputs are plot-ready CSV /
JSON / JSONL files; plotting itself is out of scope.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as rio
from .autodiff import ParameterStore, gradient_check
from .metrics import DEFAULT_ALPHAS, evaluate
from .rem import DEFAULT_DIM, DEFAULT_WINDOW, INPUT_SCALE, RemParameters, relation_importance_records
from .simulator import DEFAULT_OCCLUSION_CUTOFF, ScenarioConfig, detect_sequence, generate
from .st_graph import build_graph
from .tracker import (
    DEFAULT_APPEARANCE_DIM,
    TRACK_MODES,
    TrackerParameters,
    TrainConfig,
    prepare_window,
    track_sequence,
    train,
    window_loss,
)

GRADCHECK_TOLERANCE = 1e-4
ABLATION_GRID = (5.0, 10.0, 20.0, 30.0, 40.0)


def _build_model(dim: int, app_dim: int, seed: int) -> tuple[ParameterStore, RemParameters, TrackerParameters]:
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    rem_params = RemParameters.create(store, dim=dim, rng=rng)
    trk_params = TrackerParameters.create(store, rel_dim=dim, app_dim=app_dim, rng=rng)
    return store, rem_params, trk_params


def _model_dims(rem_params: RemParameters, trk_params: TrackerParameters) -> dict:
    return {"F": rem_params.dim, "F_a": trk_params.app_dim}


def _read(path: Path, parse):
    """``parse`` of the text of ``path``; its ``ValueError`` (a
    ``JSONDecodeError`` is one) comes back as ``"{path}: {message}"``."""
    text = path.read_text()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_model(path: Path) -> tuple[ParameterStore, RemParameters, TrackerParameters]:
    return _read(path, _model_from_json)


def _model_from_json(text: str) -> tuple[ParameterStore, RemParameters, TrackerParameters]:
    dims, params = rio.load_checkpoint_json(text)
    if "F" not in dims or "F_a" not in dims:
        raise ValueError(f"checkpoint dims must declare F and F_a, got {sorted(dims)}")
    # Older checkpoints record the fixed input scale; any other value was
    # trained for a model this version cannot build.
    if dims.get("input_scale", INPUT_SCALE) != INPUT_SCALE:
        raise ValueError(f"checkpoint input_scale must be {INPUT_SCALE}, got {dims['input_scale']}")
    # Each dim is checked against the shape of a stored vector of that length
    # before the model is built, so an oversized dim fails without allocating.
    for key, name in (("F", "rem.b_in"), ("F_a", "trk.enc_b")):
        value = dims[key]
        if not (value >= 1 and (type(value) is int or value.is_integer())):
            raise ValueError(f"checkpoint dims {key} must be an integer >= 1, got {value}")
        if name not in params:
            raise ValueError(f"checkpoint is missing parameter '{name}'")
        shape = params[name].shape
        if shape != (value,):
            raise ValueError(f"checkpoint dims {key} is {value}, but parameter '{name}' has shape {shape}")
    store, rem_params, trk_params = _build_model(int(dims["F"]), int(dims["F_a"]), seed=0)
    rio.restore_store(store, params)
    return store, rem_params, trk_params


def _read_scenario(path: Path):
    return _read(path, rio.read_scenario_jsonl)


def _read_track_frames(path: Path, n_frames: int | None = None):
    if path.suffix == ".jsonl":
        return _read_scenario(path).as_track_frames()
    return _read(path, lambda text: rio.records_to_frames(rio.parse_mot_csv(text), n_frames))


def _parse_alphas(raw: str | None) -> tuple[float, ...]:
    if raw is None:
        return DEFAULT_ALPHAS
    try:
        alphas = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ValueError(f"could not parse alpha grid {raw!r}") from None
    if not alphas or not all(0.0 < a < 1.0 for a in alphas):
        raise ValueError("alpha values must lie strictly in (0, 1)")
    return alphas


def _scenario_config(args, seed: int) -> ScenarioConfig:
    if getattr(args, "config", None):
        return _read(Path(args.config), lambda text: _config_from_json(text, seed))
    return ScenarioConfig(seed=seed)


def _config_from_json(text: str, seed: int) -> ScenarioConfig:
    fields = json.loads(text)
    if not isinstance(fields, dict):
        raise ValueError("scenario config must be a JSON object")
    unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(ScenarioConfig)})
    if unknown:
        raise ValueError(f"scenario config has unknown fields {unknown}")
    return ScenarioConfig(**{**fields, "seed": seed})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    config = _scenario_config(args, args.seed)
    seq = generate(config)
    Path(args.out).write_text(rio.write_scenario_jsonl(seq))
    print(f"wrote {sum(len(f) for f in seq.frames)} records to {args.out}")
    return 0


def _load_training_sequences(args) -> list:
    if args.scenario:
        path = Path(args.scenario)
        if path.is_dir():
            files = sorted(path.glob("*.jsonl"))
            if not files:
                raise FileNotFoundError(f"no .jsonl scenarios under {path}")
            return [_read_scenario(f) for f in files]
        return [_read_scenario(path)]
    config = _scenario_config(args, args.seed)
    sequences = []
    for k in range(args.gen_sequences):
        cfg_fields = {**config.__dict__, "seed": args.seed + k}
        sequences.append(generate(ScenarioConfig(**cfg_fields)))
    return sequences


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        window=args.window,
        epochs=args.epochs,
        lr=args.lr,
        d_th=args.d_th,
        seed=args.seed,
        det_center_std=args.det_center_std,
        det_size_std=args.det_size_std,
        occlusion_cutoff=args.occlusion_cutoff,
    )
    sequences = _load_training_sequences(args)
    store, rem_params, trk_params = _build_model(args.dim, args.app_dim, args.seed)
    result = train(store, trk_params, rem_params, sequences, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "checkpoint.json").write_text(rio.checkpoint_to_json(store, _model_dims(rem_params, trk_params)))
    (out / "loss_curve.csv").write_text(rio.loss_curve_csv(result.loss_curve))
    (out / "train_config.json").write_text(json.dumps(dataclasses.asdict(cfg), indent=2))
    print(
        f"trained {cfg.epochs} epochs on {len(sequences)} sequences: "
        f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f}"
    )
    return 0


def _cmd_track(args) -> int:
    seq = _read_scenario(Path(args.scenario))
    _, rem_params, trk_params = _load_model(Path(args.checkpoint))
    det_cfg = ScenarioConfig(
        n_frames=seq.n_frames,
        det_center_std=args.det_center_std,
        det_size_std=args.det_size_std,
        occlusion_cutoff=args.occlusion_cutoff,
    )
    detections = detect_sequence(seq, det_cfg, args.seed)
    tracks = track_sequence(trk_params, rem_params, detections, args.mode, d_th=args.d_th)
    Path(args.out).write_text(rio.write_results_csv(tracks))
    print(f"tracked {seq.n_frames} frames in mode {args.mode}; results at {args.out}")
    return 0


def _cmd_eval(args) -> int:
    gt_path, pred_path = Path(args.gt), Path(args.pred)
    gt_frames = _read_track_frames(gt_path)
    pred_frames = _read_track_frames(pred_path, n_frames=len(gt_frames))
    if len(pred_frames) < len(gt_frames):
        pred_frames = list(pred_frames) + [[] for _ in range(len(gt_frames) - len(pred_frames))]
    report = evaluate(gt_frames, pred_frames, _parse_alphas(args.alphas))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(rio.report_to_json(report))
    (out / "hota_curve.csv").write_text(rio.hota_curve_csv(report))
    print(
        f"MOTA {report.mota:.4f}  IDF1 {report.idf1:.4f}  HOTA {report.hota_final:.4f}; "
        f"reports under {out}"
    )
    return 0


def _cmd_relations(args) -> int:
    seq = _read_scenario(Path(args.scenario))
    _, rem_params, _ = _load_model(Path(args.checkpoint))
    graph = build_graph(seq.as_track_frames(), args.d_th)
    records = relation_importance_records(rem_params, graph, window=args.window)
    Path(args.out).write_text(rio.relation_records_jsonl(records))
    print(f"wrote {len(records)} relation records to {args.out}")
    return 0


def _run_ablation_setting(d_th: float, sequences, eval_seq, eval_dets, args):
    store, rem_params, trk_params = _build_model(args.dim, args.app_dim, args.seed)
    cfg = TrainConfig(window=args.window, epochs=args.epochs, lr=args.lr, d_th=d_th, seed=args.seed)
    train(store, trk_params, rem_params, sequences, cfg)
    gt_frames = eval_seq.as_track_frames()
    rows = {}
    for mode in ("baseline", "relation_aware"):
        tracks = track_sequence(trk_params, rem_params, eval_dets, mode, d_th=d_th)
        rows[mode] = evaluate(gt_frames, tracks)
    return d_th, rows


def _cmd_ablate(args) -> int:
    config = _scenario_config(args, args.seed)
    sequences = [
        generate(ScenarioConfig(**{**config.__dict__, "seed": args.seed + k}))
        for k in range(args.gen_sequences)
    ]
    eval_cfg = ScenarioConfig(**{**config.__dict__, "seed": args.seed + 1000})
    eval_seq = generate(eval_cfg)
    eval_dets = detect_sequence(eval_seq, eval_cfg, args.seed + 2000)

    grid = list(ABLATION_GRID)
    results = [_run_ablation_setting(d, sequences, eval_seq, eval_dets, args) for d in grid]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = ["setting,d_th,idf1,mota,motp,hota"]
    for d_th, rows in results:
        for mode, report in rows.items():
            tag = "base" if mode == "baseline" else "rel"
            (out / f"metrics_{tag}_dth{d_th:g}.json").write_text(rio.report_to_json(report))
            motp = "" if report.motp is None else f"{report.motp:.6f}"
            summary.append(
                f"{tag},{d_th:g},{report.idf1:.6f},{report.mota:.6f},{motp},{report.hota_final:.6f}"
            )
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    print(f"ablation over d_th {grid} complete; summary at {out / 'summary.csv'}")
    return 0


def gradcheck_loss_builder(seed: int, dim: int = 8, app_dim: int = 6):
    """The training loss of one seeded three-frame window: a group of three
    whose third member is occluded at frame 1, so the occlusion head is
    supervised there and the other two heads at the frame after the window.

    The scene is 10 x 10 because the appearance encoder takes coordinates
    unscaled: in a larger scene a finite-difference step on a head weight
    moves its pre-activation further, and more often across a kink."""
    cfg = TrainConfig(window=3)
    scene = ScenarioConfig(
        n_frames=cfg.window + 1,
        scene_w=10.0,
        scene_h=10.0,
        n_groups=1,
        group_size_min=3,
        group_size_max=3,
        occlusion_prob=[0.0, 0.0, 1.0],
        occlusion_start=1,
        occlusion_min=1,
        occlusion_max=1,
        occlusion_vis=(0.0, 0.0),
        seed=seed,
    )
    sample = prepare_window(generate(scene), 0, cfg, np.random.default_rng(seed))
    store, rem_params, trk_params = _build_model(dim, app_dim, seed)
    return store, lambda: window_loss(trk_params, rem_params, sample, cfg)


def _cmd_gradcheck(args) -> int:
    store, loss_fn = gradcheck_loss_builder(args.seed, dim=args.dim, app_dim=args.app_dim)
    err = gradient_check(loss_fn, store, epsilon=1e-5)
    print(f"max relative gradient error over {store.n_scalars()} scalars: {err:.3e}")
    return 0 if err < GRADCHECK_TOLERANCE else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, scenario=False):
        p.add_argument("--seed", type=int, default=0)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSONL path")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint JSON")

    def training(p):
        p.add_argument("--dim", type=int, default=DEFAULT_DIM, help="relation embedding dimension")
        p.add_argument("--app-dim", type=int, default=DEFAULT_APPEARANCE_DIM)
        p.add_argument("--window", type=int, default=TrainConfig.window)
        p.add_argument("--lr", type=float, default=TrainConfig.lr)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)

    def detection(p):
        p.add_argument("--det-center-std", type=float, default=TrainConfig.det_center_std)
        p.add_argument("--det-size-std", type=float, default=TrainConfig.det_size_std)
        p.add_argument("--occlusion-cutoff", type=float, default=DEFAULT_OCCLUSION_CUTOFF)

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    common(p)
    p.add_argument("--config", help="scenario config JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train the relation module and heads")
    common(p)
    p.add_argument("--scenario", help="scenario JSONL path or a directory of them; generated if absent")
    p.add_argument("--config", help="scenario config JSON for generated data")
    p.add_argument("--gen-sequences", type=int, default=64, help="sequences to generate if no --scenario")
    p.add_argument("--out", required=True, help="output directory")
    training(p)
    p.add_argument("--d-th", type=float, default=TrainConfig.d_th)
    detection(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("track", help="track a scenario with a trained model")
    common(p, checkpoint=True, scenario=True)
    p.add_argument("--mode", choices=TRACK_MODES, default="relation_aware")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--d-th", type=float, default=TrainConfig.d_th)
    detection(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    common(p)
    p.add_argument("--gt", required=True, help="scenario JSONL or MOT CSV")
    p.add_argument("--pred", required=True, help="MOT results CSV or scenario JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--alphas", help="comma-separated localization thresholds")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("relations", help="dump relation-importance time series")
    common(p, checkpoint=True, scenario=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--d-th", type=float, default=TrainConfig.d_th)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("ablate", help="sweep the graph distance threshold")
    common(p)
    p.add_argument("--config", help="scenario config JSON for generated data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--gen-sequences", type=int, default=8)
    training(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    common(p)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--app-dim", type=int, default=6)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except OSError as exc:
        # the same wording for a path read or written: "Is a directory: out/"
        message = f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
