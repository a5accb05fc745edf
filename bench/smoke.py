"""Quick smoke run of the benchmark: every workload on a tiny table, untraced
and traced, through ``run.py --smoke``.

    python3 bench/smoke.py

It fails unless the correctness gate passes, every metric of BENCHMARK.json
is printed with its unit for every workload, and each control workload
bypasses the layer it controls for: no tree grower runs on ieo-knn-intra,
and no outlier scoring runs on fusion-mixed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Metrics that must read 0 on a control workload (when present).
MUST_BE_ZERO = {
    "ieo-knn-intra": (
        "models.tree.grow_mse_tree.calls",
        "models.tree.grow_gini_tree.calls",
        "models.tree.grow_second_order_tree.calls",
    ),
    "fusion-mixed": (
        "outliers.isolation_forest_scores.calls",
        "outliers.lof_scores.calls",
    ),
}


def check(trace: int, kind: str, spec: dict) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--smoke", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"--trace {trace}: exit {proc.returncode}"]
    sys.stdout.write(proc.stdout)
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"--trace {trace}: correctness gate failed")
    rows = [line.split() for line in lines[:-1]]
    printed = {(r[0], r[-1]) for r in rows if len(r) >= 3}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec[kind]:
            name, unit = metric["name"], metric["unit"]
            got = result["metrics"].get(f"{workload}.{name}")
            if got is None or got["unit"] != unit or (name, unit) not in printed:
                problems.append(f"{workload}: {name} not printed with unit {unit}")
        if trace:
            for name in MUST_BE_ZERO.get(workload, ()):
                got = result["metrics"].get(f"{workload}.{name}")
                if got is not None and got["value"] != 0:
                    problems.append(f"{workload}: {name} is {got['value']}, not 0")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check(0, "end_to_end", spec) + check(1, "per_layer", spec)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
