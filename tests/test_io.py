import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remtrack import io as rio
from remtrack.autodiff import ParameterStore, Tensor
from remtrack.geometry import BoundingBox
from remtrack.simulator import ScenarioConfig, generate


class TestParseMotCsv:
    def test_single_gt_row(self):
        records = rio.parse_mot_csv("1,1,10,20,30,60,1,1,1.0\n")
        assert len(records) == 1
        rec = records[0]
        assert (rec.frame, rec.track_id) == (1, 1)
        assert rec.center_box() == BoundingBox(25, 50, 30, 60)
        assert rec.cls == 1 and rec.visibility == 1.0

    def test_empty_input(self):
        assert rio.parse_mot_csv("") == []
        assert rio.parse_mot_csv("\n\n") == []

    def test_seven_field_detection_variant(self):
        records = rio.parse_mot_csv("3,-1,5,5,10,10,0.9\n")
        rec = records[0]
        assert rec.track_id == -1 and rec.conf == 0.9
        assert rec.cls == -1 and rec.visibility is None

    def test_ten_field_placeholder_variant(self):
        records = rio.parse_mot_csv("2,7,0,0,4,4,1,-1,-1,-1\n")
        rec = records[0]
        assert rec.cls == -1 and rec.visibility is None

    def test_sorted_by_frame_then_id(self):
        text = "2,1,0,0,4,4,1\n1,9,0,0,4,4,1\n1,2,0,0,4,4,1\n"
        records = rio.parse_mot_csv(text)
        assert [(r.frame, r.track_id) for r in records] == [(1, 2), (1, 9), (2, 1)]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            rio.parse_mot_csv("1,1,0,0,4,4,1\n1,1,0,0\n")

    def test_non_numeric_field_reports_number(self):
        with pytest.raises(ValueError, match="line 1"):
            rio.parse_mot_csv("1,1,xx,0,4,4,1\n")

    def test_non_integer_frame_or_id_rejected(self):
        with pytest.raises(ValueError, match="line 1: frame and id must be integers"):
            rio.parse_mot_csv("1.5,2.7,0,0,4,4,1\n")
        with pytest.raises(ValueError, match="line 2: frame and id must be integers"):
            rio.parse_mot_csv("1,1,0,0,4,4,1\n2,3.5,0,0,4,4,1\n")
        assert rio.parse_mot_csv("2.0,3.0,0,0,4,4,1\n")[0].frame == 2

    @pytest.mark.parametrize("cls", ["inf", "nan", "-inf", "1.5"])
    def test_non_integer_class_reports_number(self, cls):
        with pytest.raises(ValueError, match="line 2: class must be an integer"):
            rio.parse_mot_csv(f"1,1,0,0,4,4,1,-1,1\n1,2,0,0,4,4,1,{cls},1\n")

    def test_invalid_geometry_reports_number(self):
        with pytest.raises(ValueError, match="line 1"):
            rio.parse_mot_csv("1,1,0,0,-4,4,1\n")
        with pytest.raises(ValueError, match="line 1"):
            rio.parse_mot_csv("0,1,0,0,4,4,1\n")


class TestWriteResultsCsv:
    def test_round_trip(self):
        tracks = [
            [(0, BoundingBox(10.5, 20.25, 4.0, 8.0)), (1, BoundingBox(1.0, 2.0, 3.0, 4.0))],
            [(0, BoundingBox(11.0, 20.5, 4.0, 8.0))],
        ]
        text = rio.write_results_csv(tracks)
        records = rio.parse_mot_csv(text)
        frames = rio.records_to_frames(records)
        assert frames == tracks

    def test_golden_single_row(self):
        tracks = [[(3, BoundingBox(10.0, 20.0, 4.0, 8.0))]]
        assert rio.write_results_csv(tracks) == "1,3,8.000000,16.000000,4.000000,8.000000,1,-1,-1,-1\n"

    def test_empty_tracks(self):
        assert rio.write_results_csv([]) == ""
        assert rio.write_results_csv([[], []]) == ""

    def test_frame_past_count_rejected(self):
        records = rio.parse_mot_csv("1,1,0,0,4,4,1\n31,1,0,0,4,4,1\n")
        with pytest.raises(ValueError, match="frame 31.*30 frames"):
            rio.records_to_frames(records, n_frames=30)


class TestScenarioJsonl:
    def test_round_trip_bitwise(self):
        seq = generate(ScenarioConfig(n_frames=12, n_groups=3, seed=6, jitter_std=0.05))
        text = rio.write_scenario_jsonl(seq)
        back = rio.read_scenario_jsonl(text)
        assert back.frames == seq.frames
        assert back.group_of == seq.group_of
        assert back.instances() == seq.instances()

    def test_large_round_trip_bitwise(self):
        seq = generate(
            ScenarioConfig(n_frames=100, n_groups=4, group_size_min=2, group_size_max=3, seed=8, jitter_std=0.1)
        )
        assert sum(len(f) for f in seq.frames) >= 1000
        assert rio.read_scenario_jsonl(rio.write_scenario_jsonl(seq)).frames == seq.frames

    def test_missing_field_reports_index(self):
        good = json.dumps({"t": 0, "id": 1, "cx": 0.0, "cy": 0.0, "w": 1.0, "h": 1.0, "vis": 1.0, "group": 0})
        bad = json.dumps({"t": 1, "id": 1, "cx": 0.0})
        with pytest.raises(ValueError, match="record 1.*missing"):
            rio.read_scenario_jsonl(good + "\n" + bad + "\n")

    def test_invalid_json_reports_index(self):
        with pytest.raises(ValueError, match="record 0"):
            rio.read_scenario_jsonl("{not json}\n")

    def test_invalid_visibility_rejected(self):
        bad = json.dumps({"t": 0, "id": 1, "cx": 0.0, "cy": 0.0, "w": 1.0, "h": 1.0, "vis": 1.5, "group": 0})
        with pytest.raises(ValueError, match="visibility"):
            rio.read_scenario_jsonl(bad + "\n")

    def test_empty_text(self):
        seq = rio.read_scenario_jsonl("")
        assert seq.n_frames == 0 and seq.frames == []


def scenario_record(t, instance, group=0):
    return {"t": t, "id": instance, "cx": 5.0, "cy": 5.0, "w": 2.0, "h": 2.0, "vis": 1.0, "group": group}


# Not integers: bools, strings, fractions, non-finite floats, null, lists.
NON_INTEGERS = [True, False, "0", "7", 1.7, -0.5, float("nan"), float("inf"), float("-inf"), None, [1]]
# Not integers in a CSV field: non-numeric text is rejected before this check.
NON_INTEGER_TOKENS = ["1.5", "-0.5", "nan", "inf", "-inf", "true", "x", ""]


class TestIntegerFields:
    """Frame indices and ids are integers; one bad field fails its record."""

    RECORDS = [scenario_record(0, 1), scenario_record(1, 1, group=2), scenario_record(1, 4, group=2)]
    CSV_LINES = ["1,1,0,0,4,4,1", "2,1,0,0,4,4,1", "2,4,0,0,4,4,1"]

    @settings(max_examples=150, deadline=None)
    @given(index=st.integers(0, 2), key=st.sampled_from(["t", "id", "group"]), data=st.data())
    def test_scenario_field_with_a_bad_value(self, index, key, data):
        pool = NON_INTEGERS + ([-1, -7, -1.0] if key == "t" else [])
        bad = data.draw(st.sampled_from(pool), label="bad")
        records = [dict(r) for r in self.RECORDS]
        records[index][key] = bad
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        with pytest.raises(ValueError, match=rf"^record {index}: {key} must be"):
            rio.read_scenario_jsonl(text)

    @given(index=st.integers(0, 2), key=st.sampled_from(["t", "id", "group"]))
    def test_scenario_integral_float_reads_as_the_integer(self, index, key):
        records = [dict(r) for r in self.RECORDS]
        expected = rio.read_scenario_jsonl("\n".join(json.dumps(r) for r in records))
        records[index][key] = float(records[index][key])
        assert rio.read_scenario_jsonl("\n".join(json.dumps(r) for r in records)).frames == expected.frames

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(0, 2), field=st.sampled_from([0, 1]), bad=st.sampled_from(NON_INTEGER_TOKENS))
    def test_csv_frame_or_id_with_a_bad_value(self, index, field, bad):
        lines = [line.split(",") for line in self.CSV_LINES]
        lines[index][field] = bad
        with pytest.raises(ValueError, match=rf"^line {index + 1}: "):
            rio.parse_mot_csv("\n".join(",".join(parts) for parts in lines) + "\n")


class TestCheckpoints:
    def make_store(self):
        store = ParameterStore()
        rng = np.random.default_rng(4)
        store.register("a.w", Tensor(rng.normal(size=(3, 2))))
        store.register("a.b", Tensor(rng.normal(size=3)))
        return store

    def test_round_trip(self):
        store = self.make_store()
        text = rio.checkpoint_to_json(store, {"F": 3, "F_a": 2})
        dims, params = rio.load_checkpoint_json(text)
        assert dims == {"F": 3, "F_a": 2}
        fresh = self.make_store()
        for t in fresh._params.values():
            t.data[:] = 0.0
        rio.restore_store(fresh, params)
        for name in store.names():
            assert np.array_equal(fresh[name].data, store[name].data)

    def test_version_checked(self):
        doc = json.loads(rio.checkpoint_to_json(self.make_store(), {"F": 1}))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            rio.load_checkpoint_json(json.dumps(doc))

    def test_shape_mismatch_rejected(self):
        store = self.make_store()
        text = rio.checkpoint_to_json(store, {"F": 3})
        _, params = rio.load_checkpoint_json(text)
        params["a.w"] = params["a.w"].reshape(2, 3)
        with pytest.raises(ValueError, match="shape"):
            rio.restore_store(store, params)

    def test_name_mismatch_rejected(self):
        store = self.make_store()
        _, params = rio.load_checkpoint_json(rio.checkpoint_to_json(store, {}))
        del params["a.b"]
        with pytest.raises(ValueError, match="mismatch"):
            rio.restore_store(store, params)

    def test_missing_sections_named(self):
        with pytest.raises(ValueError, match=r"missing \['dims', 'params'\]"):
            rio.load_checkpoint_json(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match=r"missing \['params'\]"):
            rio.load_checkpoint_json(json.dumps({"version": 1, "dims": {}}))
        with pytest.raises(ValueError, match="JSON object"):
            rio.load_checkpoint_json("[1, 2]")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"version": 1, "dims": [1], "params": {}}, "dims must be a JSON object"),
            ({"version": 1, "dims": {}, "params": [1]}, "params must be a JSON object"),
            ({"version": 1, "dims": {"F": [3]}, "params": {}}, r"dims \['F'\] must be numbers"),
            ({"version": 1, "dims": {}, "params": {"a.b": [1.0]}}, "'a.b' must be an object"),
            ({"version": 1, "dims": {}, "params": {"a.b": {"data": [1.0]}}}, "'a.b' must be an object"),
            ({"version": 1, "dims": {}, "params": {"a.b": {"shape": [1]}}}, "'a.b' must be an object"),
            ({"version": 1, "dims": {}, "params": {"a.b": {"shape": "1", "data": [1.0]}}}, "'a.b' must be an object"),
            ({"version": 1, "dims": {}, "params": {"a.b": {"shape": [1.5], "data": [1.0]}}}, "non-negative integers"),
        ],
        ids=["dims-list", "params-list", "dims-value", "entry-list", "no-shape", "no-data", "shape-str", "shape-float"],
    )
    def test_wrongly_typed_fields_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            rio.load_checkpoint_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "data",
        [{"x": 1.0}, [1.0, float("nan"), 2.0], [float("inf"), 1.0, 2.0], ["1.5", 1.0, 2.0], [True, 1.0, 2.0],
         [10**400, 1.0, 2.0], [[1.0], 1.0, 2.0], 1.0],
        ids=["object", "nan", "inf", "string", "bool", "int-overflow", "nested", "scalar"],
    )
    def test_malformed_data_rejected(self, data):
        doc = json.loads(rio.checkpoint_to_json(self.make_store(), {}))
        doc["params"]["a.b"]["data"] = data
        with pytest.raises(ValueError, match=r"parameter 'a.b': data must be a list of finite numbers"):
            rio.load_checkpoint_json(json.dumps(doc))

    def test_corrupt_length_rejected(self):
        doc = json.loads(rio.checkpoint_to_json(self.make_store(), {}))
        doc["params"]["a.b"]["data"] = [1.0]
        with pytest.raises(ValueError, match="length"):
            rio.load_checkpoint_json(json.dumps(doc))


class TestReports:
    def test_report_json_and_curve(self, rng):
        from remtrack.metrics import evaluate

        b = BoundingBox(1, 1, 2, 2)
        gt = [[(0, b)] for _ in range(3)]
        report = evaluate(gt, gt)
        doc = json.loads(rio.report_to_json(report))
        assert doc["mota"] == 1.0 and doc["hota"] == 1.0
        assert len(doc["per_alpha"]) == 19
        curve = rio.hota_curve_csv(report)
        lines = curve.strip().splitlines()
        assert lines[0] == "alpha,deta,assa,hota"
        assert len(lines) == 20

    def test_loss_curve_csv(self):
        text = rio.loss_curve_csv([1.5, 0.75])
        assert text.splitlines() == ["epoch,loss", "0,1.5", "1,0.75"]

    def test_relation_records_jsonl(self):
        text = rio.relation_records_jsonl([(0, 1, 2, 0.5)])
        assert json.loads(text) == {"t": 0, "i": 1, "j": 2, "R": 0.5}
