"""Config-driven experiment runner.

One JSON config per run: a single dataset source (csv or synth), a
mandatory seed, and per-subcommand blocks. Each block holds the keyword
arguments of the library call its subcommand makes, each key named as its
parameter; the block is type- and range-checked up front, and a key it
leaves out takes the default of that function's signature. Every experiment
writes CSV tables plus a run manifest listing all emitted files; reruns with
the same config and seed produce identical numeric outputs regardless of
--workers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import MISSING, fields

from . import __version__
from .dataset import (
    Dataset,
    DatasetError,
    FeatureColumn,
    FeatureSchema,
    PlantedEffect,
    SynthConfig,
    load_csv,
    profile,
    synthesize,
)
from .importance import (ERROR_METRICS, MIN_SUBSET_SIZE, SUBSET_TAGS,
                         subset_importance)
from .labeling import ldo_hdo_sweep, quantile_grid, threshold_sweep
from .models import MODEL_KINDS
from .models.base import TARGET_TRANSFORMS
from .scenarios import SCENARIO_NAMES, fusion_table, scenario_table
from .tuning import METRICS, MODES, iteration_curve, run_ieo


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


def _get(cfg: dict, path: str, kind=None, required=True, default=None, at=""):
    """``cfg`` at the dotted ``path``; ``at`` prefixes ``path`` in error
    messages (the path of a list entry ``cfg``, with a trailing dot)."""
    cur = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"missing config field: {at}{'.'.join(walked)}")
            return default
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(f"config field {at}{path} must be {kind.__name__}")
    return cur


def _object(value, path: str, keys) -> dict:
    """``value`` as a config object with no keys outside ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"config field {path} must be dict")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown config field: {path}.{key}")
    return value


def _number_ok(value, kind, low) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    if kind is int:
        return value >= low
    # finite, and an int past the float range would overflow float()
    return low < value and abs(value) <= sys.float_info.max


def _numbers(obj: dict, path: str, spec) -> dict:
    """A copy of the config object ``obj`` at ``path`` with its number
    fields checked, float fields as float and list fields as tuples.

    ``spec`` maps a key to (int, low), an integer >= low, or (float, low), a
    finite number > low; a spec in a one-item list asks for a list of them.
    Absent keys are not checked.
    """
    out = dict(obj)
    for key, one in spec.items():
        if key not in obj:
            continue
        value = obj[key]
        many = isinstance(one, list)
        kind, low = one[0] if many else one
        items = value if many and isinstance(value, list) else [value]
        if (many and not isinstance(value, list)) or not all(
            _number_ok(v, kind, low) for v in items
        ):
            what = f"an integer >= {low}" if kind is int else "a finite number"
            if kind is float and low > -math.inf:
                what += f" > {low}"
            raise ConfigError(
                f"config field {path + '.' if path else ''}{key} must be "
                + (f"a list, each {what}" if many else what)
            )
        out[key] = tuple(map(kind, items)) if many else kind(value)
    return out


def _block(cfg: dict, name: str, one_of=None, list_of=None, numbers=None) -> dict:
    """The config block ``name`` ({} when absent), checked before any work,
    as keyword arguments.

    ``one_of`` maps a key to the values it may take; ``list_of`` maps a key
    to the values its list items may take. ``numbers`` is a ``_numbers``
    spec. Keys in none of them are rejected.
    """
    one_of, list_of, numbers = one_of or {}, list_of or {}, numbers or {}
    block = _object(
        _get(cfg, name, kind=dict, required=False, default={}), name,
        (*one_of, *list_of, *numbers),
    )
    block = _numbers(block, name, numbers)
    for key, allowed in one_of.items():
        if key in block and block[key] not in allowed:
            raise ConfigError(
                f"config field {name}.{key} must be one of: {', '.join(allowed)}"
            )
    for key, allowed in list_of.items():
        value = block.get(key, [])
        if not isinstance(value, list) or any(v not in allowed for v in value):
            raise ConfigError(
                f"config field {name}.{key} must be a list of: {', '.join(allowed)}"
            )
    return block


def _make(cls, path: str, **kwargs):
    """The config object ``cls(**kwargs)`` at ``path``; a missing required
    field or a ``DatasetError`` becomes a ``ConfigError`` naming the field."""
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in kwargs:
            raise ConfigError(f"missing config field: {path}.{f.name}")
    try:
        return cls(**kwargs)
    except DatasetError as exc:
        where = f"{path}.{exc.field}" if exc.field else path
        raise ConfigError(f"config field {where}: {exc}") from None


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


ANY = (float, -math.inf)  # any finite number
TC = {"tc": (float, 0)}
TRANSFORM = {"target_transform": TARGET_TRANSFORMS}
SYNTH_NUMBERS = {"n": (int, 1), "seed": (int, 0), "mu": ANY, "sigma": (float, 0),
                 "corrupt_fraction": ANY, "corrupt_multiplier": ANY}
EFFECT_NUMBERS = {"low": ANY, "high": ANY, "slope": ANY, "true_rate": ANY,
                  "multiplier": ANY, "multipliers": [ANY], "min_base_duration": ANY}
SYNTH_KEYS = (*SYNTH_NUMBERS, "effects")
EFFECT_KEYS = (*EFFECT_NUMBERS, "name", "kind", "levels")
CSV_KEYS = ("path", "columns", "target_column", "column_map")


def _build_dataset(cfg: dict, seed: int) -> Dataset:
    source = _object(_get(cfg, "dataset"), "dataset", ("csv", "synth"))
    has_csv = "csv" in source
    has_synth = "synth" in source
    if has_csv == has_synth:
        raise ConfigError("dataset must declare exactly one of: csv, synth")

    if has_synth:
        path = "dataset.synth"
        block = _numbers(_object(_get(cfg, path), path, SYNTH_KEYS), path,
                         SYNTH_NUMBERS)
        effects = []
        for i, e in enumerate(block.get("effects", [])):
            at = f"{path}.effects[{i}]"
            e = _numbers(_object(e, at, EFFECT_KEYS), at, EFFECT_NUMBERS)
            _get(e, "name", kind=str, at=f"{at}.")
            effects.append(_make(PlantedEffect, at, **e))
        return synthesize(
            _make(SynthConfig, path,
                  **{"seed": seed, **block, "effects": tuple(effects)})
        )

    block = _object(_get(cfg, "dataset.csv"), "dataset.csv", CSV_KEYS)
    columns = _get(cfg, "dataset.csv.columns", kind=list)
    if not columns:
        raise ConfigError("dataset.csv.columns must be non-empty")
    schema_columns = []
    for i, c in enumerate(columns):
        at = f"dataset.csv.columns[{i}]"
        _get(_object(c, at, ("name", "kind")), "name", kind=str, at=f"{at}.")
        schema_columns.append(_make(FeatureColumn, at, **c))
    schema = _make(FeatureSchema, "dataset.csv", columns=tuple(schema_columns),
                   **{k: v for k, v in block.items() if k == "target_column"})
    column_map = block.get("column_map")
    if isinstance(column_map, str):
        try:
            with open(column_map, encoding="utf-8") as fh:
                column_map = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON
            raise ConfigError(f"config field dataset.csv.column_map: {exc}") from None
    if column_map is not None and not (
        isinstance(column_map, dict)
        and all(isinstance(v, str) for v in column_map.values())
    ):
        raise ConfigError(
            "config field dataset.csv.column_map must map names to CSV column "
            "names, inline or in a JSON file"
        )
    try:
        return load_csv(_get(cfg, "dataset.csv.path", kind=str), schema, column_map)
    except DatasetError as exc:
        if exc.field is None:  # the file's content, not the config, is at fault
            raise
        raise ConfigError(f"config field dataset.csv.{exc.field}: {exc}") from None


def _write_csv(path: str, rows: list[dict], fieldnames: list[str]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_json_atomic(path: str, payload: dict):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (written file names, warnings)
# ---------------------------------------------------------------------------


def _cmd_profile(cfg, dataset, out, seed, workers):
    block = _block(cfg, "profile", numbers={"n_bins": (int, 1)})
    report = profile(dataset, **block)
    path = os.path.join(out, "profile.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    return [path], []


def _cmd_synth(cfg, dataset, out, seed, workers):
    path = os.path.join(out, "dataset.csv")
    names = list(dataset.schema.names)
    rows = [
        {**dict(zip(names, r)), dataset.schema.target_column: d}
        for r, d in zip(dataset.rows, dataset.durations.tolist())
    ]
    _write_csv(path, rows, names + [dataset.schema.target_column])
    return [path], []


def _cmd_sweep(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "sweep", list_of={"models": MODEL_KINDS},
        numbers={"tc_values": [(float, 0)], "cv": (int, 2)},
    )
    rows = threshold_sweep(dataset, seed=seed, workers=workers, **block)
    path = os.path.join(out, "sweep.csv")
    _write_csv(
        path, rows,
        ["tc", "model", "evaluable", "precision", "recall", "accuracy", "f1",
         "meets_f1_gate", "class_balance"],
    )
    warnings = [
        f"unevaluable sweep cell: tc={r['tc']} model={r['model']}"
        for r in rows if not r["evaluable"]
    ]
    return [path], warnings


def _cmd_multiclass(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "multiclass", one_of={"model": MODEL_KINDS}, numbers={"cv": (int, 2)},
    )
    rows = quantile_grid(dataset, seed=seed, workers=workers, **block)
    path = os.path.join(out, "multiclass_grid.csv")
    _write_csv(path, rows, ["q1", "q2", "t1", "t2", "model", "evaluable", "f1_macro"])
    warnings = [
        f"unevaluable grid cell: q1={r['q1']} q2={r['q2']}"
        for r in rows if not r["evaluable"]
    ]
    return [path], warnings


def _cmd_ldo_sweep(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "ldo_sweep", one_of={"model": MODEL_KINDS},
        numbers={"thresholds": [ANY], **TC, "cv": (int, 2)},
    )
    rows = ldo_hdo_sweep(dataset, seed=seed, **block)
    path = os.path.join(out, "ldo_sweep.csv")
    _write_csv(
        path, rows,
        ["ldo_threshold", "remaining_fraction", "flagged", "evaluable", "f1"],
    )
    warnings = [
        f"ldo threshold {r['ldo_threshold']} removes over half the data"
        for r in rows if r["flagged"]
    ]
    return [path], warnings


def _cmd_scenarios(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "scenarios", one_of=TRANSFORM,
        list_of={"models": MODEL_KINDS, "names": SCENARIO_NAMES},
        numbers={**TC, "folds": (int, 2)},
    )
    rows = scenario_table(dataset, seed=seed, workers=workers, **block)
    path = os.path.join(out, "scenarios.csv")
    _write_csv(
        path, rows,
        ["scenario", "model", "tc", "mape", "rmse", "mape_excluded_zeros", "n_test"],
    )
    return [path], []


def _cmd_ieo(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "ieo",
        one_of={"model": MODEL_KINDS, "mode": MODES, "metric": METRICS, **TRANSFORM},
        numbers={"iterations": (int, 1), "folds": (int, 2), **TC},
    )
    if ("tc" in block) != (block.get("metric") == "f1"):
        raise ConfigError("config field ieo.tc goes with metric f1 and only with it")
    result = run_ieo(dataset, seed=seed, workers=workers, **block)
    trace_path = os.path.join(out, "ieo_trace.csv")
    trace_rows = [
        {
            **{k: v for k, v in row.items()
               if k not in ("model_params", "removed_per_fold")},
            "model_params": json.dumps(row["model_params"], sort_keys=True),
            "removed_per_fold": json.dumps(row["removed_per_fold"]),
        }
        for row in result.trace
    ]
    _write_csv(
        trace_path, trace_rows,
        ["draw_index", "metric_value", "failed", "orm_method", "orm_percent",
         "removed_extra", "removed_per_fold", "model_params"],
    )
    summary_path = os.path.join(out, "ieo_summary.json")
    _write_json_atomic(
        summary_path,
        {
            "model_kind": result.model_kind,
            "mode": result.mode,
            "metric": result.metric,
            "best_draw": result.best,
            "validation_metric": result.validation_metric,
            "n_validation": int(result.validation_indices.shape[0]),
        },
    )
    return [trace_path, summary_path], list(result.warnings)


def _cmd_fusion(cfg, dataset, out, seed, workers):
    kinds = ("classifier", "regressor_a", "regressor_b", "regressor_all", "meta")
    block = _block(
        cfg, "fusion", one_of={**dict.fromkeys(kinds, MODEL_KINDS), **TRANSFORM},
        numbers={**TC, "folds": (int, 2)},
    )
    rows = fusion_table(dataset, seed=seed, **block)
    path = os.path.join(out, "fusion.csv")
    _write_csv(path, rows, ["model", "rmse", "mape", "mape_excluded_zeros", "n_test"])
    return [path], []


def _cmd_importance(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "importance",
        one_of={"model": MODEL_KINDS, "metric": ERROR_METRICS, **TRANSFORM},
        numbers={"n_repeats": (int, 1), **TC},
    )
    reports = subset_importance(dataset, seed=seed, **block)
    rows = [{**r, "subset": tag} for tag in SUBSET_TAGS for r in reports[tag].rows]
    path = os.path.join(out, "importance.csv")
    _write_csv(path, rows, ["subset", "name", "score", "rank"])
    warnings = [
        f"importance subset {tag} has fewer than {MIN_SUBSET_SIZE} records"
        for tag in SUBSET_TAGS if reports[tag].notes["flagged_small"]
    ]
    return [path], warnings


def _cmd_timing(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "timing", one_of={"metric": ERROR_METRICS, **TRANSFORM},
        list_of={"models": MODEL_KINDS},
        numbers={"iteration_counts": [(int, 1)], "folds": (int, 2)},
    )
    rows = iteration_curve(dataset, seed=seed, workers=workers, **block)
    path = os.path.join(out, "timing.csv")
    _write_csv(path, rows, ["model", "iterations", "best_metric", "wall_clock_s"])
    return [path], []


_HANDLERS = {
    "profile": _cmd_profile,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "multiclass": _cmd_multiclass,
    "ldo-sweep": _cmd_ldo_sweep,
    "scenarios": _cmd_scenarios,
    "ieo": _cmd_ieo,
    "fusion": _cmd_fusion,
    "importance": _cmd_importance,
    "timing": _cmd_timing,
}


def run(subcommand: str, cfg: dict, out_dir: str, seed: int, workers: int) -> dict:
    """Execute one experiment and return the written manifest."""
    os.makedirs(out_dir, exist_ok=True)
    stages = {}
    start = time.perf_counter()
    dataset = _build_dataset(cfg, seed)
    stages["load"] = time.perf_counter() - start

    start = time.perf_counter()
    files, warnings = _HANDLERS[subcommand](cfg, dataset, out_dir, seed, workers)
    stages[subcommand] = time.perf_counter() - start

    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "stage_seconds": stages,
        "files": [os.path.basename(f) for f in files],
        "warnings": warnings,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json_atomic(manifest_path, manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="incdur",
        description="Traffic-incident duration experiments (config-driven).",
    )
    parser.add_argument("subcommand", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _get(cfg, "seed")
        seed = _numbers({"seed": seed}, "", {"seed": (int, 0)})["seed"]
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        run(args.subcommand, cfg, args.out, seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
