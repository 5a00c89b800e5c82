"""Self-tests of the benchmark's correctness checks, at small sizes.

    python3 benchmarks/selftest.py

Every check must accept the real output of a small run of its workload and
reject a deliberately corrupted copy of it. Prints one line per case and
exits with 0 only if every case behaves. Takes a few seconds.
"""

import copy
import sys
from dataclasses import replace

import run

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from remtrack import metrics  # noqa: E402
from remtrack.geometry import BoundingBox  # noqa: E402

SEED = 3
results: list[bool] = []


def expect(name: str, failures: list[str], accept: bool) -> None:
    ok = (not failures) if accept else bool(failures)
    results.append(ok)
    verdict = "accepts" if accept else "rejects"
    detail = f" ({failures[0]})" if failures and not accept else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}: {verdict}{detail}")
    if not ok and failures:
        print(f"     {failures}")


def rounds(workload, inputs, n: int = 2) -> list:
    return [workload.run_round(inputs, k)[1] for k in range(n)]


def nudge(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def test_train() -> None:
    workload = workloads.Train(workloads.FAST)
    inputs = workload.setup(SEED)
    curves = rounds(workload, inputs)
    expect("loss curves, real", checks.loss_curves(curves), True)
    changed = copy.deepcopy(curves)
    changed[1][-1] = nudge(changed[1][-1])
    expect("loss curves, last loss of round 1 nudged by one ulp", checks.loss_curves(changed), False)
    rising = [list(reversed(curves[0]))] * 2
    expect("loss curves, loss rising", checks.loss_curves(rising), False)

    projected, finite_difference = workload.gradient_probe(inputs)
    expect("gradient, real", checks.gradient(projected, finite_difference), True)
    expect("gradient, scaled by 1.01", checks.gradient(1.01 * projected, finite_difference), False)


def _swap_ids(frame, a: int, b: int):
    frame = list(frame)
    (ia, ba), (ib, bb) = frame[a], frame[b]
    frame[a], frame[b] = (ib, ba), (ia, bb)
    return frame


def test_track_crowd() -> None:
    workload = workloads.TrackCrowd(workloads.FAST)
    inputs = workload.setup(SEED)
    outputs = rounds(workload, inputs)
    dets = inputs.detections
    expect("tracks, real (round 1 shuffled)", checks.tracks(dets, outputs), True)

    t = len(outputs[1]) // 2
    swapped = copy.deepcopy(outputs)
    swapped[1][t] = _swap_ids(swapped[1][t], 0, 1)
    expect(f"tracks, two ids swapped at frame {t} of round 1", checks.tracks(dets, swapped), False)

    duplicate = copy.deepcopy(outputs)
    for out in duplicate:
        (_, box) = out[t][1]
        out[t][1] = (out[t][0][0], box)
    expect(f"tracks, duplicate id at frame {t} in every round", checks.tracks(dets, duplicate), False)

    moved = copy.deepcopy(outputs)
    for out in moved:
        tid, box = out[0][0]
        out[0][0] = (tid, BoundingBox(box.cx + 1e-9, box.cy, box.w, box.h))
    expect("tracks, a frame-0 box moved in every round", checks.tracks(dets, moved), False)

    invalid = copy.deepcopy(outputs)
    for out in invalid:
        object.__setattr__(out[t][0][1], "w", float("nan"))
    expect(f"tracks, a NaN width at frame {t} in every round", checks.tracks(dets, invalid), False)


def test_analyze() -> None:
    workload = workloads.Analyze(workloads.FAST)
    inputs = workload.setup(SEED)
    outputs = rounds(workload, inputs)
    first = outputs[0]

    expect("CSV round trip, real", checks.round_trip(inputs.predictions, first.parsed), True)
    shifted = copy.deepcopy(first.parsed)
    tid, box = shifted[1][0]
    shifted[1][0] = (tid, BoundingBox(box.cx + 1e-3, box.cy, box.w, box.h))
    expect("CSV round trip, a box moved", checks.round_trip(inputs.predictions, shifted), False)

    counts = metrics.clear_mot(inputs.gt, first.parsed)
    expect("scores, real", checks.scores(inputs.gt, first.parsed, first.report, counts), True)
    dropped = replace(counts, tp=counts.tp - 1, fn=counts.fn + 1)
    expect("scores, one match dropped from the counts", checks.scores(inputs.gt, first.parsed, first.report, dropped), False)
    deta = list(first.report.deta)
    deta[9] = nudge(deta[9])
    nudged = replace(first.report, deta=deta)
    expect("scores, DetA at alpha 0.5 nudged by one ulp", checks.scores(inputs.gt, first.parsed, nudged, counts), False)

    expect("reports, real", checks.reports_equal([out.report for out in outputs]), True)
    expect("reports, MOTA of round 1 nudged", checks.reports_equal([first.report, replace(first.report, mota=nudge(first.report.mota))]), False)

    expect("self score, ground truth", checks.self_score(metrics.evaluate(inputs.gt, inputs.gt)), True)
    expect("self score, the perturbed predictions", checks.self_score(first.report), False)

    frames, indices = inputs.relation_frames[0], workload.sizes.relation_frames
    records = [out.relations[0] for out in outputs]
    expect("relation records, real (round 1 relabelled)", checks.relation_records(frames, indices, workloads.D_TH, records), True)
    changed = copy.deepcopy(records)
    t, i, j, r = changed[1][0]
    changed[1][0] = (t, i, j, nudge(r))
    expect("relation records, one value of round 1 nudged by one ulp", checks.relation_records(frames, indices, workloads.D_TH, changed), False)
    missing = [rs[1:] for rs in records]
    expect("relation records, one record missing in every round", checks.relation_records(frames, indices, workloads.D_TH, missing), False)
    outside = copy.deepcopy(records)
    for rs in outside:
        t, i, j, _ = rs[0]
        rs[0] = (t, i, j, 1.5)
    expect("relation records, a value of 1.5 in every round", checks.relation_records(frames, indices, workloads.D_TH, outside), False)


def main() -> int:
    test_train()
    test_track_crowd()
    test_analyze()
    print(f"{sum(results)}/{len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
