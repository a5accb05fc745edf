"""incdur benchmark: run one workload through the real CLI and print its
metrics.

    python3 bench/run.py --workload ieo-knn-intra --seed 3 --seconds 40 --trace 0

Each sample is a fresh child process (``child.py``) that runs one CLI
subcommand with ``--workers 1`` and BLAS thread pools pinned to 1, on a table
this benchmark generates from ``--seed``. Samples repeat until ``--seconds``
is used up. Every sample's metric files are hashed and compared with the
digests pinned for the default seed, or with the first sample's for any
other seed, and checked for plausible content; a sample that exits non-zero
or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the samples, times rescaled to a reference speed by a calibration kernel
timed around the samples on the one CPU the run is pinned to (README.md). ``--trace 1`` alternates traced and untraced samples and
reports the per-layer metrics: self times are medians, counts must repeat
exactly across the traced samples. ``--workload all`` runs every workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import SMOKE_ROWS, WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 120
MIN_SAMPLES = 3  # untraced samples with --trace 0
MIN_TRACED = 2   # traced and untraced samples each with --trace 1
#: Seconds ``calibration_s`` takes at the reference machine speed.
CALIBRATION_REF_S = 0.15
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite_positive(value) -> bool:
    value = float(value)
    return math.isfinite(value) and value > 0


def check_outputs(workload: str, out: str, rows: int) -> str | None:
    """A reason the metric files are implausible, or None."""
    block = WORKLOADS[workload]["block"]
    held_out = rows - int(0.8 * rows)
    if workload == "ieo-knn-intra":
        trace = _read_csv(os.path.join(out, "ieo_trace.csv"))
        with open(os.path.join(out, "ieo_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if len(trace) != block["iterations"]:
            return f"ieo_trace.csv has {len(trace)} draws, not {block['iterations']}"
        if all(r["failed"] == "True" for r in trace):
            return "every draw failed"
        if not _finite_positive(summary["validation_metric"]):
            return f"validation_metric is {summary['validation_metric']}"
        if summary["n_validation"] != held_out:
            return f"n_validation is {summary['n_validation']}, not {held_out}"
    elif workload == "fusion-mixed":
        table = _read_csv(os.path.join(out, "fusion.csv"))
        if [r["model"] for r in table] != ["fusion", "pipeline", "single"]:
            return "fusion.csv does not list fusion, pipeline, single"
        for r in table:
            if not (_finite_positive(r["rmse"]) and int(r["n_test"]) == held_out):
                return f"implausible fusion.csv row {r}"
    else:
        table = _read_csv(os.path.join(out, "importance.csv"))
        for subset in ("all", "A", "B"):
            ranks = sorted(int(r["rank"]) for r in table if r["subset"] == subset)
            if ranks != list(range(1, len(ranks) + 1)) or len(ranks) < 2:
                return f"importance.csv ranks of subset {subset} are {ranks}"
        if not all(math.isfinite(float(r["score"])) for r in table):
            return "importance.csv has a non-finite score"
    return None


def calibration_s() -> float:
    """Time a fixed kernel shaped like the CLI's own work: greedy regression
    trees grown by Python recursion over small numpy calls. It runs no incdur
    code, so a program change cannot move it; only the speed of the CPU the
    run is pinned to does."""
    rng = np.random.default_rng(0)
    x, y = rng.random((400, 12)), rng.random(400)

    def grow(idx, depth):
        if depth == 0 or idx.size < 8:
            return float(y[idx].mean())
        best = None
        for j in range(0, 12, 2):
            col = x[idx, j]
            order = np.argsort(col, kind="stable")
            sums = np.cumsum(y[idx][order])
            left = np.arange(1, idx.size)
            gain = sums[:-1] ** 2 / left + (sums[-1] - sums[:-1]) ** 2 / (idx.size - left)
            i = int(np.argmax(gain))
            if best is None or gain[i] > best[0]:
                best = (gain[i], j, col[order[i]])
        mask = x[idx, best[1]] <= best[2]
        if mask.all():
            return float(y[idx].mean())
        return best[1], grow(idx[mask], depth - 1), grow(idx[~mask], depth - 1)

    start = time.perf_counter()
    for _ in range(40):
        grow(np.arange(x.shape[0]), 6)
    return time.perf_counter() - start


def run_child(workload, config, out, traced):
    """One sample: (child result or None, failure reason or None)."""
    os.makedirs(out)
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    subcommand = WORKLOADS[workload]["subcommand"]
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, subcommand,
           config, out, repr(time.monotonic()), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    with open(os.path.join(out, "child.json"), encoding="utf-8") as fh:
        return json.load(fh), None


def pinned_digests(workload, rows):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(f"{workload}/rows={rows}/seed={DEFAULT_SEED}")


def measure(workload, seed, seconds, trace, rows, work):
    """Run samples until the time is used, timing ``calibration_s`` before the
    first and after each; return the per-sample records, the calibration
    times and the path of the last traced sample's spans."""
    config = write_inputs(workload, seed, rows, work)
    reference = pinned_digests(workload, rows) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and reference is None:
        raise SystemExit(f"no pinned digests for {workload} at {rows} rows")
    samples, calibrations, spans = [], [calibration_s()], None
    deadline = time.monotonic() + seconds
    while True:
        n_traced = sum(s["traced"] for s in samples)
        n_plain = len(samples) - n_traced
        enough = (n_traced >= MIN_TRACED and n_plain >= MIN_TRACED) if trace \
            else n_plain >= MIN_SAMPLES
        estimate = statistics.median(s["elapsed"] for s in samples) if samples else 0
        if enough and time.monotonic() + estimate > deadline:
            break
        traced = trace and n_traced <= n_plain
        out = os.path.join(work, f"sample{len(samples):03d}")
        begin = time.monotonic()
        result, error = run_child(workload, config, out, traced)
        if error is None:
            try:
                error = check_outputs(workload, out, rows)
            except (OSError, KeyError, ValueError) as exc:
                error = f"unreadable metric files: {exc!r}"
        if error is None:
            if reference is None:
                reference = result["digests"]
            elif result["digests"] != reference:
                error = f"metric file digests {result['digests']} != {reference}"
        if traced and error is None:
            spans = os.path.join(work, "spans.csv")
            shutil.move(os.path.join(out, "spans.csv"), spans)
        shutil.rmtree(out)
        calibrations.append(calibration_s())
        samples.append({"traced": bool(traced), "error": error, "result": result,
                        "elapsed": time.monotonic() - begin})
    return samples, calibrations, spans


def end_to_end(samples, spec, calibrations):
    """(metrics, as-measured medians). Time medians are rescaled to the
    reference speed by the median calibration time of the run: on a shared
    2-vCPU virtual machine the CPU's speed switches between states about a
    third apart for minutes at a time, and the calibration kernel follows the
    switches."""
    ok = [s["result"] for s in samples if s["error"] is None and not s["traced"]]
    measured = {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "calibration_s": statistics.median(calibrations),
    }
    speed = CALIBRATION_REF_S / measured["calibration_s"]
    values = {
        "wall_s": measured["wall_s"] * speed,
        "setup_s": measured["setup_s"] * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "ok_share": sum(s["error"] is None for s in samples) / len(samples),
    }
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}, measured


def per_layer(samples, spec):
    """(metrics, problems): medians of self times, exact counts."""
    traced = [s["result"] for s in samples if s["error"] is None and s["traced"]]
    plain = [s["result"] for s in samples if s["error"] is None and not s["traced"]]
    values, problems = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["wall_s"] for r in traced)
                            - statistics.median(r["wall_s"] for r in plain))
        elif name == "setup.import_s":
            values[name] = statistics.median(r["import_s"] for r in traced)
        elif all(name in r["layers"] for r in traced):
            seen = [r["layers"][name] for r in traced]
            if metric["unit"] == "s":
                values[name] = statistics.median(seen)
            elif len(set(seen)) == 1:
                values[name] = seen[0]
            else:
                problems.append(f"count {name} differs between traced samples: {seen}")
    return values, problems


def src_loc() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_workload(workload, args, spec):
    rows = SMOKE_ROWS if args.smoke else WORKLOADS[workload]["rows"]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        samples, calibrations, spans = measure(
            workload, args.seed, args.seconds, args.trace, rows, work)
        failed = sum(s["error"] is not None for s in samples)
        ok = [s for s in samples if s["error"] is None]
        kinds_ok = {s["traced"] for s in ok}
        measured, problems = {}, []
        if False not in kinds_ok or (args.trace and True not in kinds_ok):
            metrics, problems = {}, ["no successful sample"]
        elif args.trace:
            metrics, problems = per_layer(samples, spec)
        else:
            metrics, measured = end_to_end(samples, spec, calibrations)
        versions = ok[0]["result"]["versions"] if ok else {}
        meta = {
            "src_loc": src_loc(),
            "env": {**versions, "nproc": os.cpu_count(),
                    "threads": {k: THREAD_ENV[k] for k in sorted(THREAD_ENV)}},
            "rows": rows,
        }
        label = f"{workload}-seed{args.seed}-trace{args.trace}"
        os.makedirs(RESULTS_DIR, exist_ok=True)
        if spans is not None:
            shutil.move(spans, os.path.join(RESULTS_DIR, f"{label}.spans.csv"))
        with open(os.path.join(RESULTS_DIR, f"{label}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": args.seed,
                       "trace": args.trace, "meta": meta, "metrics": metrics,
                       "measured": measured, "calibrations": calibrations,
                       "problems": problems,
                       "samples": samples}, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_traced = sum(s["traced"] for s in samples)
    print(f"{workload}: seed {args.seed}, {rows} rows, {len(samples)} samples "
          f"({n_traced} traced), {failed} failed")
    for s in samples:
        if s["error"] is not None:
            print(f"  failed sample: {s['error']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  meta {json.dumps(meta, sort_keys=True)}")
    for name, value in measured.items():
        print(f"  as measured: {name} {value:.6g} s")
    return samples, failed, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny tables ({SMOKE_ROWS} rows) for a quick check")
    args = parser.parse_args(argv)
    # One CPU for this process, its samples and the calibration kernel, so the
    # kernel times the CPU the samples run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(ROOT, "src", "incdur", "cli.py")):
        print(f"error: no incdur sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in workloads:
        samples, w_failed, values, problems = run_workload(workload, args, spec)
        attempted += len(samples)
        failed += w_failed
        correct = correct and w_failed == 0 and not problems
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, unit in units.items():
            if name in values:
                print(f"  {name:<48} {values[name]:>14.6g} {unit}")
                metrics[prefix + name] = {"value": values[name], "unit": unit}
            else:
                print(f"  {name:<48} {'absent':>14} {unit}")
        if not args.trace:
            print(f"  {'failed_share':<48} {w_failed / len(samples):>14.6g} share")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
