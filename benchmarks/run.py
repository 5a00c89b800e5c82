"""Seeded benchmark of remtrack: training, crowd tracking and offline analysis.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``remtrack`` from its ``src``.
One process, one thread, closed loop: the workload's rounds run back to back
until ``--seconds`` have passed (at least three rounds), then the outputs
are checked. With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` rounds alternate between untraced and traced, and the traced
ones give the per-layer metrics (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record with
the environment, the workload sizes and every round's time goes to
``benchmarks/out/``.
"""

import os

# One BLAS thread, set before numpy loads, so the numbers measure the
# program rather than the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUPS = 15  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3

END_TO_END = [("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB")]


def import_program() -> None:
    package = SRC / "remtrack"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a remtrack checkout")
    sys.path.insert(0, str(SRC))
    import remtrack

    if Path(remtrack.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported remtrack from {remtrack.__file__}, not from {package}")


def blas_threads() -> dict[str, int | str]:
    """Threads each loaded OpenBLAS would use, asked from the library."""
    found: dict[str, int | str] = {}
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
        else:
            found[Path(path).name] = "unknown"
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import layers
    import spans

    setup_tracer = spans.Tracer()
    round_tracer = spans.Tracer()
    if trace:
        layers.install(setup_tracer)
    setup_times = []
    try:
        for _ in range(SETUPS):
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
    finally:
        setup_tracer.uninstall()

    ops = workload.ops_per_round(inputs)
    plain: list[dict[str, float]] = []  # per untraced round, seconds per part
    traced: list[float] = []
    outputs = []
    failed_rounds = 0
    k = 0
    start = time.perf_counter()
    while k < MIN_ROUNDS or time.perf_counter() - start < seconds:
        tracing = trace and k % 2 == 1
        gc.collect()  # each timed part starts from an empty collector
        if tracing:
            layers.install(round_tracer)
        try:
            seconds_by_part, output = workload.run_round(inputs, k)
        except Exception:  # a failed round is counted, and the run goes on
            traceback.print_exc()
            failed_rounds += 1
        else:
            if tracing:
                traced.append(sum(seconds_by_part.values()))
            else:
                plain.append(seconds_by_part)
            outputs.append(output)
        finally:
            round_tracer.uninstall()
        k += 1

    try:
        failures = workload.check(inputs, outputs) if outputs else ["no round completed"]
    except Exception as exc:  # a check that crashes is a failed check
        traceback.print_exc()
        failures = [f"check raised {exc!r}"]
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    round_times = [sum(parts.values()) for parts in plain]
    part_medians = {part: statistics.median(p[part] for p in plain) for part in plain[0]} if plain else {}
    if trace:
        overhead = statistics.median(traced) - statistics.median(round_times) if traced and plain else 0.0
        values = layers.values(setup_tracer, round_tracer, SETUPS, max(len(traced), 1), overhead)
        units = dict(layers.METRICS)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "round_s": statistics.median(round_times) if plain else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": k * ops,
        "failed": failed_rounds * ops,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "sizes": workload.describe(inputs),
        "ops_per_round": ops,
        "setup_times_s": setup_times,
        "round_times_s": round_times,
        "part_times_s": plain,
        "workload_rates": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in (workload.rates(inputs, part_medians) if plain else {}).items()
        },
        "traced_round_times_s": traced,
        "failed_rounds": failed_rounds,
        "failed_checks": failures,
        "result": result,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{workload.name}-seed{seed}-spans.jsonl", "w") as out:
            setup_tracer.write_spans(out, "setup")
            round_tracer.write_spans(out, "round")
    return result, record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "track_crowd", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result, record = run(workload, args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    env = record["environment"]
    print(
        f"{args.workload} seed {args.seed}: nproc {env['nproc']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads {env['blas_threads']}"
    )
    print(f"sizes {json.dumps(record['sizes'])}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in record["workload_rates"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} (median round; not a gated metric)")
    print(f"record written to {path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
