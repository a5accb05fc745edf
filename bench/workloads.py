"""Benchmark inputs: the seeded incident-table generator and one pinned CLI
config per workload.

The generator uses numpy only and never imports ``incdur``, so a change to
the program cannot change its own inputs. ``--seed`` picks the table; the
config (including its search seed) is pinned per workload, so every seed
runs the same mix of draws and models and only the data values differ.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

#: Pinned seed in every workload config. It fixes the random-search draws
#: (ORM method, removal percent, k) so the work mix does not vary by seed.
CONFIG_SEED = 193

#: Threshold between short-term (A) and long-term (B) incidents, minutes.
TC = 45.0

#: Table size of the quick smoke run, for every workload.
SMOKE_ROWS = 160

# Columns as (name, kind). Encoded width: 4 numeric + 3 boolean + 5
# one-hot incident_type levels (4 observed + "missing") = 12 columns.
COLUMNS = (
    ("lanes_blocked", "numeric"),
    ("vehicles", "numeric"),
    ("hour", "numeric"),
    ("distance_km", "numeric"),
    ("peak_hour", "boolean"),
    ("injury", "boolean"),
    ("truck_involved", "boolean"),
    ("incident_type", "categorical"),
)
INCIDENT_TYPES = ("breakdown", "collision", "debris", "fire")
TYPE_MULTIPLIER = np.array([0.7, 1.4, 0.8, 2.2])

MISSING_SHARE = 0.03     # cells left empty, per feature column
IMPLAUSIBLE_SHARE = 0.02  # durations multiplied into the implausible tail
IMPLAUSIBLE_MULTIPLIER = 30.0


# Why each workload exists: one line each, also in BENCHMARK.json.
WORKLOADS = {
    "ieo-knn-intra": {
        "why": "joint search with ORM in every training fold: IF+LOF do most "
               "of the work, kNN the rest, no tree code (ORM work; control "
               "for tree work)",
        "subcommand": "ieo",
        "rows": 1200,
        "block": {"model": "knn", "mode": "intra", "iterations": 2,
                  "folds": 5, "metric": "mape"},
    },
    "fusion-mixed": {
        "why": "fusion and pipeline models where Gini, MSE and second-order "
               "growers all run and no ORM runs (tree-fit work; control for "
               "ORM work)",
        "subcommand": "fusion",
        "rows": 200,
        "block": {"classifier": "random-forest", "regressor_a": "gbt-reg",
                  "regressor_b": "tree", "regressor_all": "tree",
                  "meta": "linear", "tc": TC, "folds": 2},
    },
    "importance-gbt": {
        "why": "permutation importance per duration subset: one GBT fit then "
               "hundreds of predicts, so tree predict dominates and fit "
               "follows",
        "subcommand": "importance",
        "rows": 500,
        "block": {"model": "gbt", "tc": TC, "metric": "rmse",
                  "n_repeats": 10},
    },
}

def generate_table(seed: int, n: int) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a synthetic incident table.

    Durations are lognormal (median about 30 min) times planted feature
    effects; a fixed share is pushed into an implausible tail, and a fixed
    share of feature cells is left empty.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x1CD])
    lanes = rng.integers(0, 5, size=n).astype(float)
    vehicles = rng.integers(1, 7, size=n).astype(float)
    hour = rng.integers(0, 24, size=n).astype(float)
    distance = np.round(rng.gamma(2.0, 3.0, size=n), 2)
    peak = ((hour >= 7) & (hour <= 9)) | ((hour >= 16) & (hour <= 18))
    injury = rng.random(n) < 0.2
    truck = rng.random(n) < 0.15
    kind = rng.integers(0, len(INCIDENT_TYPES), size=n)

    base = np.exp(rng.normal(3.2, 0.8, size=n))
    effect = (
        np.exp(0.25 * lanes)
        * np.where(injury, 1.8, 1.0)
        * np.where(truck, 1.5, 1.0)
        * np.where(peak, 1.2, 1.0)
        * TYPE_MULTIPLIER[kind]
    )
    duration = base * effect
    tail = rng.choice(n, size=int(IMPLAUSIBLE_SHARE * n), replace=False)
    duration[tail] *= IMPLAUSIBLE_MULTIPLIER
    duration = np.round(duration, 1)

    cells = [
        [f"{v:g}" for v in lanes],
        [f"{v:g}" for v in vehicles],
        [f"{v:g}" for v in hour],
        [f"{v:g}" for v in distance],
        ["true" if v else "false" for v in peak],
        ["1" if v else "0" for v in injury],
        ["yes" if v else "no" for v in truck],
        [INCIDENT_TYPES[i] for i in kind],
    ]
    for col in cells:
        for i in rng.choice(n, size=int(MISSING_SHARE * n), replace=False):
            col[i] = ""
    header = [name for name, _ in COLUMNS] + ["duration"]
    rows = [list(r) + [f"{d:g}"] for r, d in zip(zip(*cells), duration)]
    return header, rows


def write_inputs(workload: str, seed: int, n: int, directory: str) -> str:
    """Write the seeded n-row table and the workload's config; return the
    config path."""
    spec = WORKLOADS[workload]
    header, rows = generate_table(seed, n)
    table_path = os.path.join(directory, "incidents.csv")
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    config = {
        "seed": CONFIG_SEED,
        "dataset": {
            "csv": {
                "path": os.path.abspath(table_path),
                "columns": [{"name": n, "kind": k} for n, k in COLUMNS],
                "target_column": "duration",
            }
        },
        spec["subcommand"]: spec["block"],  # the CLI reads cfg[subcommand]
    }
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config_path
