"""Config-driven experiment runner.

One JSON config per run: a single dataset source (csv or synth), a
mandatory seed, and per-subcommand blocks. Each block holds the keyword
arguments of the library call its subcommand makes, each key named as its
parameter, and a key it leaves out takes the default of that function's
signature. Every config object, a subcommand block or a dataset object, is
checked up front by one ``_check`` against a spec of its keys; an unknown
key or a value of the wrong type or range exits with status 2 and names
the field. Each subcommand's handler returns its files as payloads, and
``run`` writes them, then a run manifest listing all emitted files and
warnings, through one ``_write``: every file is replaced whole or not at
all, with the permissions the umask gives a plain ``open``. Reruns with
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
import time
from dataclasses import MISSING, asdict, fields

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


def _get(cfg: dict, path: str):
    """``cfg`` at the dotted ``path``, which must be there."""
    cur = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"missing config field: {'.'.join(walked)}")
        cur = cur[part]
    return cur


def _number_ok(value, kind, low) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    if kind is int:
        return value >= low
    # finite, and an int past the float range would overflow float()
    return low < value and abs(value) <= sys.float_info.max


def _conform(value, one):
    """``value`` as the spec ``one`` asks for it (see ``_check``); raises
    ``ValueError`` when it does not fit."""
    if isinstance(one, list):
        if isinstance(value, list):
            return tuple(_conform(v, one[0]) for v in value)
    elif isinstance(one, type):
        if isinstance(value, one):
            return value
    elif isinstance(one[0], type):
        if _number_ok(value, *one):
            return one[0](value)
    elif value in one:
        return value
    raise ValueError


def _what(one) -> str:
    """The values the spec ``one`` accepts, for an error message."""
    if isinstance(one, list):
        return f"a list, each {_what(one[0])}"
    if isinstance(one, type):
        return one.__name__
    if not isinstance(one[0], type):
        return f"one of: {', '.join(one)}"
    kind, low = one
    if kind is int:
        return f"an integer >= {low}"
    return "a finite number" + (f" > {low}" if low > -math.inf else "")


def _check(obj, path: str, /, **spec) -> dict:
    """The config object ``obj`` at ``path``, checked against ``spec``.

    ``spec`` maps each key the object may hold to what its value must be:
    (int, low), an integer >= low; (float, low), a finite number > low; a
    tuple of strings, one of them; a type, a value of that type; any of
    these in a one-item list, a list of them. Keys are checked in spec
    order, then any other key is rejected; absent keys are not checked.
    Returns a copy with numbers as ``int`` or ``float`` and lists as tuples.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config field {path} must be dict")
    out = dict(obj)
    for key, one in spec.items():
        if key in obj:
            try:
                out[key] = _conform(obj[key], one)
            except ValueError:
                raise ConfigError(
                    f"config field {path}.{key} must be {_what(one)}"
                ) from None
    for key in obj:
        if key not in spec:
            raise ConfigError(f"unknown config field: {path}.{key}")
    return out


def _block(cfg: dict, name: str, /, **spec) -> dict:
    """The subcommand block ``name`` ({} when absent), checked before any
    work, as the keyword arguments of the subcommand's library call."""
    return _check(cfg.get(name, {}), name, **spec)


def _make(cls, path: str, kwargs: dict):
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
SYNTH = {"n": (int, 1), "seed": (int, 0), "mu": ANY, "sigma": (float, 0),
         "corrupt_fraction": ANY, "corrupt_multiplier": ANY, "effects": list}
#: the keys of a planted effect of each kind, past name, kind and
#: min_base_duration
EFFECT = {
    "numeric": {"low": ANY, "high": ANY, "slope": ANY},
    "boolean": {"true_rate": ANY, "multiplier": ANY},
    "categorical": {"levels": [str], "multipliers": [ANY]},
}


def _build_dataset(cfg: dict, seed: int) -> Dataset:
    source = _check(_get(cfg, "dataset"), "dataset", csv=dict, synth=dict)
    if ("csv" in source) == ("synth" in source):
        raise ConfigError("dataset must declare exactly one of: csv, synth")

    if "synth" in source:
        path = "dataset.synth"
        block = _check(source["synth"], path, **SYNTH)
        effects, kinds = [], tuple(EFFECT)
        for i, e in enumerate(block.get("effects", ())):
            at = f"{path}.effects[{i}]"
            kind = e.get("kind", "numeric") if isinstance(e, dict) else None
            e = _check(e, at, name=str, kind=kinds, min_base_duration=ANY,
                       **(EFFECT[kind] if kind in kinds else {}))
            effects.append(_make(PlantedEffect, at, e))
        return synthesize(
            _make(SynthConfig, path, {"seed": seed, **block, "effects": tuple(effects)})
        )

    path = "dataset.csv"
    block = _check(source["csv"], path, path=str, columns=list, target_column=str,
                   column_map=object)
    columns = []
    for i, c in enumerate(block.get("columns", ())):
        at = f"{path}.columns[{i}]"
        columns.append(_make(FeatureColumn, at, _check(c, at, name=str, kind=str)))
    schema = _make(FeatureSchema, path, {
        "columns": tuple(columns),
        **{k: v for k, v in block.items() if k == "target_column"},
    })
    column_map = block.get("column_map")
    if isinstance(column_map, str):
        try:
            with open(column_map, encoding="utf-8") as fh:
                column_map = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON
            raise ConfigError(f"config field {path}.column_map: {exc}") from None
    if column_map is not None and not (
        isinstance(column_map, dict)
        and all(isinstance(v, str) for v in column_map.values())
    ):
        raise ConfigError(
            f"config field {path}.column_map must map names to CSV column "
            "names, inline or in a JSON file"
        )
    try:
        return load_csv(_get(cfg, "dataset.csv.path"), schema, column_map)
    except DatasetError as exc:
        if exc.field is None:  # the file's content, not the config, is at fault
            raise
        raise ConfigError(f"config field {path}.{exc.field}: {exc}") from None


def _write(path: str, payload):
    """Write ``payload`` to ``path``: a ``(rows, columns)`` pair as CSV,
    anything else as JSON. The file is written whole or not at all: it goes
    to a temporary name, which replaces ``path`` only once it is complete,
    so a failed write leaves the old file. The new file gets the mode a
    plain ``open`` gives it under the umask."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            if isinstance(payload, tuple):
                rows, columns = payload
                writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
                writer.writeheader()
                writer.writerows(rows)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns ({file name: payload}, warnings), the
# payload as ``_write`` takes it
# ---------------------------------------------------------------------------


def _cmd_profile(cfg, dataset, seed, workers):
    report = profile(dataset, **_block(cfg, "profile", n_bins=(int, 1)))
    return {"profile.json": asdict(report)}, []


def _cmd_synth(cfg, dataset, seed, workers):
    names = list(dataset.schema.names)
    rows = [
        {**dict(zip(names, r)), dataset.schema.target_column: d}
        for r, d in zip(dataset.rows, dataset.durations.tolist())
    ]
    return {"dataset.csv": (rows, names + [dataset.schema.target_column])}, []


def _cmd_sweep(cfg, dataset, seed, workers):
    block = _block(cfg, "sweep", models=[MODEL_KINDS], tc_values=[(float, 0)],
                   cv=(int, 2))
    rows = threshold_sweep(dataset, seed=seed, workers=workers, **block)
    columns = ["tc", "model", "evaluable", "precision", "recall", "accuracy", "f1",
               "meets_f1_gate", "class_balance"]
    warnings = [
        f"unevaluable sweep cell: tc={r['tc']} model={r['model']}"
        for r in rows if not r["evaluable"]
    ]
    return {"sweep.csv": (rows, columns)}, warnings


def _cmd_multiclass(cfg, dataset, seed, workers):
    block = _block(cfg, "multiclass", model=MODEL_KINDS, cv=(int, 2))
    rows = quantile_grid(dataset, seed=seed, workers=workers, **block)
    columns = ["q1", "q2", "t1", "t2", "model", "evaluable", "f1_macro"]
    warnings = [
        f"unevaluable grid cell: q1={r['q1']} q2={r['q2']}"
        for r in rows if not r["evaluable"]
    ]
    return {"multiclass_grid.csv": (rows, columns)}, warnings


def _cmd_ldo_sweep(cfg, dataset, seed, workers):
    block = _block(cfg, "ldo_sweep", model=MODEL_KINDS, thresholds=[ANY], **TC,
                   cv=(int, 2))
    rows = ldo_hdo_sweep(dataset, seed=seed, **block)
    columns = ["ldo_threshold", "remaining_fraction", "flagged", "evaluable", "f1"]
    warnings = [
        f"ldo threshold {r['ldo_threshold']} removes over half the data"
        for r in rows if r["flagged"]
    ]
    return {"ldo_sweep.csv": (rows, columns)}, warnings


def _cmd_scenarios(cfg, dataset, seed, workers):
    block = _block(cfg, "scenarios", models=[MODEL_KINDS], names=[SCENARIO_NAMES],
                   **TC, folds=(int, 2), **TRANSFORM)
    rows = scenario_table(dataset, seed=seed, workers=workers, **block)
    columns = ["scenario", "model", "tc", "mape", "rmse", "mape_excluded_zeros",
               "n_test"]
    return {"scenarios.csv": (rows, columns)}, []


def _cmd_ieo(cfg, dataset, seed, workers):
    block = _block(cfg, "ieo", model=MODEL_KINDS, mode=MODES, metric=METRICS,
                   iterations=(int, 1), folds=(int, 2), **TC, **TRANSFORM)
    if ("tc" in block) != (block.get("metric") == "f1"):
        raise ConfigError("config field ieo.tc goes with metric f1 and only with it")
    result = run_ieo(dataset, seed=seed, workers=workers, **block)
    trace_rows = [
        {
            **{k: v for k, v in row.items()
               if k not in ("model_params", "removed_per_fold")},
            "model_params": json.dumps(row["model_params"], sort_keys=True),
            "removed_per_fold": json.dumps(row["removed_per_fold"]),
        }
        for row in result.trace
    ]
    trace_columns = ["draw_index", "metric_value", "failed", "orm_method",
                     "orm_percent", "removed_extra", "removed_per_fold",
                     "model_params"]
    summary = {
        "model_kind": result.model_kind,
        "mode": result.mode,
        "metric": result.metric,
        "best_draw": result.best,
        "validation_metric": result.validation_metric,
        "n_validation": int(result.validation_indices.shape[0]),
    }
    return {"ieo_trace.csv": (trace_rows, trace_columns),
            "ieo_summary.json": summary}, list(result.warnings)


def _cmd_fusion(cfg, dataset, seed, workers):
    block = _block(cfg, "fusion", classifier=MODEL_KINDS, regressor_a=MODEL_KINDS,
                   regressor_b=MODEL_KINDS, regressor_all=MODEL_KINDS,
                   meta=MODEL_KINDS, **TC, folds=(int, 2), **TRANSFORM)
    rows = fusion_table(dataset, seed=seed, **block)
    columns = ["model", "rmse", "mape", "mape_excluded_zeros", "n_test"]
    return {"fusion.csv": (rows, columns)}, []


def _cmd_importance(cfg, dataset, seed, workers):
    block = _block(cfg, "importance", model=MODEL_KINDS, metric=ERROR_METRICS,
                   n_repeats=(int, 1), **TC, **TRANSFORM)
    reports = subset_importance(dataset, seed=seed, **block)
    rows = [{**r, "subset": tag} for tag in SUBSET_TAGS for r in reports[tag].rows]
    warnings = [
        f"importance subset {tag} has fewer than {MIN_SUBSET_SIZE} records"
        for tag in SUBSET_TAGS if reports[tag].notes["flagged_small"]
    ]
    return {"importance.csv": (rows, ["subset", "name", "score", "rank"])}, warnings


def _cmd_timing(cfg, dataset, seed, workers):
    block = _block(cfg, "timing", models=[MODEL_KINDS], iteration_counts=[(int, 1)],
                   folds=(int, 2), metric=ERROR_METRICS, **TRANSFORM)
    rows = iteration_curve(dataset, seed=seed, workers=workers, **block)
    columns = ["model", "iterations", "best_metric"]
    return {"timing.csv": (rows, columns)}, []


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
    files, warnings = _HANDLERS[subcommand](cfg, dataset, seed, workers)
    for name, payload in files.items():
        _write(os.path.join(out_dir, name), payload)
    stages[subcommand] = time.perf_counter() - start
    dropped = dataset.load_report.get("n_dropped", 0)
    if dropped:
        warnings = [f"dataset.csv: dropped {dropped} record{'s' * (dropped > 1)} "
                    "whose duration is not a non-negative number", *warnings]

    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "stage_seconds": stages,
        "files": list(files),
        "warnings": warnings,
    }
    _write(os.path.join(out_dir, "manifest.json"), manifest)
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
        if not _number_ok(seed, int, 0):
            raise ConfigError("config field seed must be an integer >= 0")
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
