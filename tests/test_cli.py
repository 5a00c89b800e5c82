import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import remtrack
from remtrack import io as rio
from remtrack.autodiff import backward
from remtrack.cli import gradcheck_loss_builder, run
from remtrack.simulator import ScenarioConfig, generate


def write_scenario(tmp_path, name="scene.jsonl", **overrides):
    fields = dict(
        n_frames=12, scene_w=16.0, scene_h=16.0, n_groups=2,
        group_size_min=2, group_size_max=2, occlusion_prob=0.0, seed=3,
    )
    fields.update(overrides)
    cfg = ScenarioConfig(**fields)
    seq = generate(cfg)
    path = tmp_path / name
    path.write_text(rio.write_scenario_jsonl(seq))
    return path, seq


def write_checkpoint(tmp_path):
    from remtrack.cli import _build_model, _model_dims

    store, rem_params, trk_params = _build_model(4, 3, seed=0)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(rio.checkpoint_to_json(store, _model_dims(rem_params, trk_params)))
    return ckpt


def run_in_process(*argv):
    """``python -m remtrack *argv`` in a subprocess, so a test sees all a user
    sees: the exit code and every line on stderr, warnings included."""
    src = str(Path(remtrack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "remtrack", *argv], capture_output=True, text=True, env=env)


def train_tiny(tmp_path, scenario):
    out = tmp_path / "model"
    code = run(
        [
            "train", "--scenario", str(scenario), "--out", str(out),
            "--dim", "6", "--app-dim", "4", "--window", "4",
            "--epochs", "2", "--lr", "1e-3", "--seed", "1",
        ]
    )
    assert code == 0
    return out / "checkpoint.json"


class TestGen:
    def test_writes_scenario(self, tmp_path):
        out = tmp_path / "scene.jsonl"
        assert run(["gen", "--out", str(out), "--seed", "5"]) == 0
        seq = rio.read_scenario_jsonl(out.read_text())
        assert seq.n_frames == ScenarioConfig().n_frames

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["gen", "--out", str(a), "--seed", "5"])
        run(["gen", "--out", str(b), "--seed", "5"])
        assert a.read_text() == b.read_text()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": 7, "n_groups": 1, "group_size_min": 1, "group_size_max": 1}))
        out = tmp_path / "scene.jsonl"
        assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert rio.read_scenario_jsonl(out.read_text()).n_frames == 7


class TestTrainTrackEval:
    def test_full_pipeline(self, tmp_path):
        scenario, seq = write_scenario(tmp_path)
        ckpt = train_tiny(tmp_path, scenario)
        assert ckpt.exists()
        dims, _ = rio.load_checkpoint_json(ckpt.read_text())
        assert dims == {"F": 6, "F_a": 4}
        curve = (ckpt.parent / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,loss" and len(curve) == 3

        results = tmp_path / "results.csv"
        code = run(
            [
                "track", "--scenario", str(scenario), "--checkpoint", str(ckpt),
                "--mode", "relation_aware", "--out", str(results), "--seed", "2",
            ]
        )
        assert code == 0
        records = rio.parse_mot_csv(results.read_text())
        assert records and max(r.frame for r in records) <= seq.n_frames

        out = tmp_path / "eval"
        code = run(["eval", "--gt", str(scenario), "--pred", str(results), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) >= {"mota", "idf1", "hota", "per_alpha"}
        assert len(report["per_alpha"]) == 19
        curve = (out / "hota_curve.csv").read_text().splitlines()
        assert curve[0] == "alpha,deta,assa,hota" and len(curve) == 20

    def test_train_writes_config_json(self, tmp_path):
        scenario, _ = write_scenario(tmp_path)
        ckpt = train_tiny(tmp_path, scenario)
        cfg = json.loads((ckpt.parent / "train_config.json").read_text())
        assert cfg["window"] == 4 and cfg["epochs"] == 2 and cfg["lr"] == 1e-3

    def test_cli_composition_equals_library_path(self, tmp_path):
        # track + eval over the CLI must reproduce the library-level call
        from remtrack.cli import _load_model
        from remtrack.metrics import evaluate
        from remtrack.simulator import detect_sequence
        from remtrack.tracker import track_sequence

        scenario, seq = write_scenario(tmp_path)
        ckpt = train_tiny(tmp_path, scenario)
        results = tmp_path / "results.csv"
        run(
            ["track", "--scenario", str(scenario), "--checkpoint", str(ckpt),
             "--mode", "relations_for_occluded", "--out", str(results), "--seed", "9"]
        )
        out = tmp_path / "eval"
        run(["eval", "--gt", str(scenario), "--pred", str(results), "--out", str(out)])
        cli_report = json.loads((out / "metrics.json").read_text())

        _, rem_params, trk_params = _load_model(ckpt)
        det_cfg = ScenarioConfig(n_frames=seq.n_frames)
        dets = detect_sequence(seq, det_cfg, seed=9)
        tracks = track_sequence(trk_params, rem_params, dets, "relations_for_occluded", d_th=15.0)
        lib_report = evaluate(seq.as_track_frames(), tracks)
        # CSV round-trips at 6 decimals; metrics agree up to that quantization
        assert cli_report["mota"] == pytest.approx(lib_report.mota, abs=1e-5)
        assert cli_report["idf1"] == pytest.approx(lib_report.idf1, abs=1e-5)
        assert cli_report["hota"] == pytest.approx(lib_report.hota_final, abs=1e-5)

    def test_eval_identical_files_perfect_scores(self, tmp_path):
        scenario, _ = write_scenario(tmp_path)
        out = tmp_path / "eval"
        assert run(["eval", "--gt", str(scenario), "--pred", str(scenario), "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["mota"] == 1.0 and report["hota"] == 1.0 and report["idf1"] == 1.0

    def test_eval_custom_alphas(self, tmp_path):
        scenario, _ = write_scenario(tmp_path)
        out = tmp_path / "eval"
        assert run(
            ["eval", "--gt", str(scenario), "--pred", str(scenario), "--out", str(out), "--alphas", "0.25,0.75"]
        ) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert [row["alpha"] for row in report["per_alpha"]] == [0.25, 0.75]

    def test_eval_invalid_alphas_fails(self, tmp_path, capsys):
        scenario, _ = write_scenario(tmp_path)
        code = run(["eval", "--gt", str(scenario), "--pred", str(scenario), "--out", str(tmp_path / "e"), "--alphas", "0,1"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err


class TestRelations:
    def test_dump_schema(self, tmp_path):
        scenario, seq = write_scenario(tmp_path, n_groups=1, group_size_min=3, group_size_max=3)
        ckpt = train_tiny(tmp_path, scenario)
        out = tmp_path / "rel.jsonl"
        code = run(
            ["relations", "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(out), "--window", "4"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"t", "i", "j", "R"}
            assert 0.0 <= rec["R"] <= 1.0


class TestParserDefaults:
    def test_train_defaults_mirror_recipe(self):
        from remtrack.cli import build_parser

        args = build_parser().parse_args(["train", "--out", "x"])
        assert args.dim == 128
        assert args.epochs == 50
        assert args.lr == 1e-4
        assert args.d_th == 15.0
        assert args.window == 10
        assert args.gen_sequences == 64

    def test_ablation_grid(self):
        from remtrack.cli import ABLATION_GRID

        assert ABLATION_GRID == (5.0, 10.0, 20.0, 30.0, 40.0)


class TestGradcheck:
    def test_exit_zero_below_tolerance(self, capsys):
        code = run(["gradcheck", "--seed", "7", "--dim", "3", "--app-dim", "2"])
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert code == 0

    @pytest.mark.parametrize(
        "seed, dim, app_dim", [(7, 6, 4), (3, 4, 3), (7, 3, 2)], ids=["criterion-1", "factored-backward", "cli"]
    )
    def test_loss_reaches_every_parameter(self, seed, dim, app_dim):
        # the occlusion head is supervised only where the scene occludes
        store, loss_fn = gradcheck_loss_builder(seed, dim=dim, app_dim=app_dim)
        backward(loss_fn())
        assert [name for name, p in store.items() if p.grad is None or not np.any(p.grad)] == []


class TestAblate:
    def test_sweep_completes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_frames": 8, "scene_w": 16.0, "scene_h": 16.0, "n_groups": 1,
                    "group_size_min": 2, "group_size_max": 2, "occlusion_prob": 0.0,
                }
            )
        )
        out = tmp_path / "ablation"
        code = run(
            [
                "ablate", "--config", str(cfg), "--out", str(out), "--gen-sequences", "1",
                "--dim", "4", "--app-dim", "3", "--window", "3", "--epochs", "1", "--seed", "4",
            ]
        )
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "setting,d_th,idf1,mota,motp,hota"
        assert len(summary) == 11  # base + rel rows for each of 5 thresholds
        for d in (5, 10, 20, 30, 40):
            assert (out / f"metrics_rel_dth{d}.json").exists()
            assert (out / f"metrics_base_dth{d}.json").exists()


class TestErrors:
    def test_unknown_subcommand_usage_exit(self, capsys):
        code = run(["frobnicate"])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_usage_exit(self, capsys):
        code = run(["gen", "--frobnicate", "1", "--out", "x.jsonl"])
        assert code == 2

    @pytest.mark.parametrize("command", ["track", "relations"])
    def test_missing_scenario_flag_usage_exit(self, tmp_path, capsys, command):
        args = self.file_args(tmp_path, command)
        del args["--scenario"]
        code = run([command, *[str(a) for pair in args.items() for a in pair]])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "--scenario" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            ["track", "--scenario", str(tmp_path / "absent.jsonl"), "--checkpoint", str(tmp_path / "c.json"),
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1
        assert "absent.jsonl" in capsys.readouterr().err

    @staticmethod
    def file_args(tmp_path, command) -> dict:
        scenario, _ = write_scenario(tmp_path)
        ckpt = write_checkpoint(tmp_path)
        return {
            "gen": {"--out": tmp_path / "g.jsonl"},
            "track": {"--scenario": scenario, "--checkpoint": ckpt, "--out": tmp_path / "r.csv"},
            "eval": {"--gt": scenario, "--pred": scenario, "--out": tmp_path / "e"},
            "relations": {"--scenario": scenario, "--checkpoint": ckpt, "--out": tmp_path / "rel.jsonl"},
        }[command]

    @pytest.mark.parametrize(
        "command, flag",
        [("gen", "--config"), ("gen", "--out"), ("track", "--scenario"), ("eval", "--pred"),
         ("relations", "--checkpoint")],
        ids=["gen-config", "gen-out", "track-scenario", "eval-pred", "relations-checkpoint"],
    )
    def test_directory_given_for_a_file(self, tmp_path, capsys, command, flag):
        args = self.file_args(tmp_path, command)
        args[flag] = tmp_path / "folder"
        args[flag].mkdir()
        code = run([command, *[str(a) for pair in args.items() for a in pair]])
        assert code == 1
        assert f"Is a directory: {args[flag]}" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command", ["gen", "track", "relations"])
    def test_output_in_missing_directory(self, tmp_path, capsys, command):
        args = self.file_args(tmp_path, command)
        args["--out"] = tmp_path / "absent" / "out"
        code = run([command, *[str(a) for pair in args.items() for a in pair]])
        assert code == 1
        err = self.one_line_error(capsys)
        assert f"No such file or directory: {args['--out']}" in err
        assert "input" not in err

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        return err

    def test_eval_prediction_frame_past_ground_truth(self, tmp_path, capsys):
        scenario, _ = write_scenario(tmp_path, n_frames=30)
        pred = tmp_path / "pred.csv"
        pred.write_text("1,1,0,0,4,4,1,-1,-1,-1\n31,1,0,0,4,4,1,-1,-1,-1\n")
        code = run(["eval", "--gt", str(scenario), "--pred", str(pred), "--out", str(tmp_path / "e")])
        assert code == 1
        err = self.one_line_error(capsys)
        assert "frame 31" in err and "30 frames" in err

    @pytest.mark.parametrize("command", ["gen", "train", "ablate"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"n_frame": 5}, "unknown fields ['n_frame']"),
            ([1, 2], "JSON object"),
            ({"n_frames": "x"}, "wrong type: n_frames"),
        ],
        ids=["unknown-field", "not-an-object", "wrong-type"],
    )
    def test_bad_scenario_config(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "last, message",
        [
            ({"t": -1, "id": 7}, "record 2: t must be >= 0, got -1"),
            ({"t": 1, "id": True}, "record 2: id must be an integer, got True"),
        ],
        ids=["negative-frame", "bool-id"],
    )
    def test_eval_bad_scenario_frame_or_id(self, tmp_path, capsys, last, message):
        records = [
            {"t": t, "id": 1, "cx": 5.0 + t, "cy": 5.0, "w": 2.0, "h": 2.0, "vis": 1.0, "group": 0}
            for t in (0, 1, 1)
        ]
        records[2].update(last)
        gt = tmp_path / "gt.jsonl"
        gt.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(json.dumps(r) for r in records[:2]) + "\n")
        code = run(["eval", "--gt", str(gt), "--pred", str(pred), "--out", str(tmp_path / "e")])
        assert code == 1
        assert message in self.one_line_error(capsys)
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["track", "relations"])
    def test_incomplete_checkpoint(self, tmp_path, capsys, command):
        scenario, _ = write_scenario(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"version": 1}))
        code = run([command, "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing ['dims', 'params']" in self.one_line_error(capsys)

    def test_eval_non_finite_class_field(self, tmp_path, capsys):
        scenario, _ = write_scenario(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("1,1,0,0,4,4,1,inf,1\n")
        code = run(["eval", "--gt", str(scenario), "--pred", str(pred), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "line 1: class must be an integer" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command", ["track", "relations"])
    def test_wrongly_typed_checkpoint(self, tmp_path, capsys, command):
        scenario, _ = write_scenario(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"version": 1, "dims": [1], "params": {}}))
        code = run([command, "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "dims must be a JSON object" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command", ["track", "relations"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc, p: doc["dims"].update(F=float("inf")), "checkpoint dims F must be an integer >= 1, got inf"),
            (lambda doc, p: doc["dims"].update(F=float("nan")), "checkpoint dims F must be an integer >= 1, got nan"),
            (lambda doc, p: doc["dims"].update(F=4.5), "checkpoint dims F must be an integer >= 1, got 4.5"),
            (lambda doc, p: doc["dims"].update(F_a=0), "checkpoint dims F_a must be an integer >= 1, got 0"),
            (lambda doc, p: doc["dims"].update(F=10_000_000),
             "checkpoint dims F is 10000000, but parameter 'rem.b_in' has shape (4,)"),
            (lambda doc, p: doc["dims"].update(F_a=5), "checkpoint dims F_a is 5, but parameter 'trk.enc_b' has shape (3,)"),
            (lambda doc, p: (doc["dims"].update(F=10_000_000), doc["params"].pop("rem.b_in")),
             "checkpoint is missing parameter 'rem.b_in'"),
            (lambda doc, p: doc["params"][p].update(data={"x": 1.0}), "parameter '{name}': data must be a list"),
            (lambda doc, p: doc["params"][p]["data"].__setitem__(0, float("nan")), "parameter '{name}': data must be a list"),
        ],
        ids=["dim-inf", "dim-nan", "dim-fraction", "dim-zero", "dim-oversized", "app-dim-mismatch",
             "dim-vector-missing", "data-object", "data-nan"],
    )
    def test_malformed_checkpoint_values(self, tmp_path, capsys, command, edit, message):
        scenario, _ = write_scenario(tmp_path)
        ckpt = write_checkpoint(tmp_path)
        doc = json.loads(ckpt.read_text())
        name = sorted(doc["params"])[0]
        edit(doc, name)
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run([command, "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 1
        assert message.format(name=name) in self.one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--epochs", "0"], "epochs must be >= 1, got 0"),
            (["train", "--window", "0"], "training window must be >= 1, got 0"),
            (["train", "--window", "-2"], "training window must be >= 1, got -2"),
            (["train", "--lr", "nan"], "learning rate must be finite and >= 0, got nan"),
            (["train", "--app-dim", "0", "--gen-sequences", "1"], "appearance dimension must be >= 1, got 0"),
            (["ablate", "--epochs", "0", "--gen-sequences", "1"], "epochs must be >= 1, got 0"),
            (["train", "--det-center-std", "nan", "--gen-sequences", "1"],
             "noise levels must be finite and non-negative, got det_center_std=nan"),
            (["train", "--occlusion-cutoff", "nan", "--gen-sequences", "1"], "occlusion cutoff must lie in [0, 1], got nan"),
        ],
        ids=["train-epochs-0", "train-window-0", "train-window-negative", "train-lr-nan", "train-app-dim-0",
             "ablate-epochs-0", "train-det-center-std-nan", "train-occlusion-cutoff-nan"],
    )
    def test_bad_training_setting(self, tmp_path, capsys, argv, message):
        code = run(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert message in self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_no_sequence_fits_the_window_in_a_process(self, tmp_path, command):
        # pytest captures the warnings a user would see: no per-sequence
        # warning comes before the one-line error
        out = tmp_path / "out"
        proc = run_in_process(command, "--gen-sequences", "2", "--window", "100", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: no sequence is at least 101 frames long"]
        assert not out.exists()

    def test_scenario_field_that_is_not_a_number_in_a_process(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"t": 0, "id": 1, "cx": "1.5", "cy": 5.0, "w": 2.0, "h": 2.0, "vis": 1.0, "group": 0}))
        out = tmp_path / "out"
        proc = run_in_process("eval", "--gt", str(gt), "--pred", str(gt), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {gt}: record 0: cx must be a number, got '1.5'"]
        assert not out.exists()

    def test_duplicate_scenario_record_in_a_process(self, tmp_path):
        # a short window would train on the file without a word if the reader
        # let the record through
        scenario, _ = write_scenario(tmp_path, n_groups=1, group_size_min=1, group_size_max=1)
        lines = scenario.read_text().splitlines()
        record = json.loads(lines[3])
        scenario.write_text("\n".join(lines[:4] + lines[3:]) + "\n")
        out = tmp_path / "out"
        proc = run_in_process("train", "--scenario", str(scenario), "--window", "3", "--epochs", "1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {scenario}: record 4: duplicate id {record['id']} at t={record['t']}"
        ]
        assert not out.exists()

    def test_bad_file_in_a_scenario_directory_in_a_process(self, tmp_path):
        # the error names the one bad file among the directory's scenarios
        folder = tmp_path / "scenes"
        folder.mkdir()
        for name in ("a.jsonl", "b.jsonl", "c.jsonl"):
            write_scenario(folder, name)
        bad = folder / "b.jsonl"
        lines = bad.read_text().splitlines()
        record = json.loads(lines[3])
        del record["cx"]
        bad.write_text("\n".join(lines[:3] + [json.dumps(record)] + lines[4:]) + "\n")
        out = tmp_path / "out"
        proc = run_in_process("train", "--scenario", str(folder), "--window", "3", "--epochs", "1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {bad}: record 3: missing fields ['cx']"]
        assert not out.exists()

    def test_prediction_file_named_in_a_process(self, tmp_path):
        # a checkpoint given as predictions: the error says which input it is
        scenario, _ = write_scenario(tmp_path)
        ckpt = write_checkpoint(tmp_path)
        fields = len(ckpt.read_text().splitlines()[0].split(","))
        out = tmp_path / "e"
        proc = run_in_process("eval", "--gt", str(scenario), "--pred", str(ckpt), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {ckpt}: line 1: expected 7, 9 or 10 fields, got {fields}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--checkpoint"])
    def test_truncated_json_file_named_in_a_process(self, tmp_path, flag):
        scenario, _ = write_scenario(tmp_path)
        out = tmp_path / "out"
        if flag == "--config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"n_frames": 12, "seed": 3}))
            argv = ["gen", "--config", str(path), "--out", str(out)]
        else:
            path = write_checkpoint(tmp_path)
            argv = ["track", "--scenario", str(scenario), "--checkpoint", str(path), "--out", str(out)]
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads(path.read_text())
        proc = run_in_process(*argv)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {path}: {decode.value}"]
        assert not out.exists()

    def test_duplicate_prediction_id_in_a_process(self, tmp_path):
        scenario, _ = write_scenario(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("1,1,0,0,4,4,1,-1,-1,-1\n2,7,0,0,4,4,1,-1,-1,-1\n2,7,1,1,4,4,1,-1,-1,-1\n")
        out = tmp_path / "e"
        proc = run_in_process("eval", "--gt", str(scenario), "--pred", str(pred), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: duplicate ids within one frame: prediction id 7 repeats at frame index 1"
        ]
        assert not out.exists()

    def test_gradcheck_empty_appearance_encoder(self, capsys):
        code = run(["gradcheck", "--dim", "3", "--app-dim", "0"])
        assert code == 1
        assert "appearance dimension must be >= 1, got 0" in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("track", ["--d-th", "-5"], "d_th must be positive, got -5.0"),
            ("track", ["--d-th", "0"], "d_th must be positive, got 0.0"),
            ("relations", ["--d-th", "-5"], "d_th must be positive, got -5.0"),
            ("relations", ["--window", "0"], "window must be >= 1, got 0"),
        ],
        ids=["track-d-th-negative", "track-d-th-zero", "relations-d-th-negative", "relations-window-0"],
    )
    def test_bad_graph_setting(self, tmp_path, capsys, command, extra, message):
        from remtrack.cli import _build_model, _model_dims

        scenario, _ = write_scenario(tmp_path)
        store, rem_params, trk_params = _build_model(4, 3, seed=0)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(rio.checkpoint_to_json(store, _model_dims(rem_params, trk_params)))
        out = tmp_path / "out"
        code = run([command, "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == 1
        assert message in self.one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("scale", [10.0, 10, 5.0, 0.0], ids=["float-10", "int-10", "5", "0"])
    def test_checkpoint_input_scale(self, tmp_path, capsys, scale):
        # checkpoints no longer write the fixed input scale; one that declares
        # it loads only if it declares the scale this model uses
        from remtrack.cli import _build_model, _model_dims

        scenario, _ = write_scenario(tmp_path)
        store, rem_params, trk_params = _build_model(4, 3, seed=0)
        assert set(_model_dims(rem_params, trk_params)) == {"F", "F_a"}
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(rio.checkpoint_to_json(store, {**_model_dims(rem_params, trk_params), "input_scale": scale}))
        out = tmp_path / "out.csv"
        code = run(["track", "--scenario", str(scenario), "--checkpoint", str(ckpt), "--out", str(out)])
        if scale == 10.0:
            assert code == 0 and out.exists()
        else:
            assert code == 1
            assert f"checkpoint input_scale must be 10.0, got {scale}" in self.one_line_error(capsys)
            assert not out.exists()

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "remtrack", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "gradcheck" in proc.stdout and "ablate" in proc.stdout
