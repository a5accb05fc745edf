"""Config-driven experiment runner.

One JSON config per run: a single dataset source (csv or synth), a
mandatory seed, and per-subcommand blocks. Every experiment writes CSV
tables plus a run manifest listing all emitted files; reruns with the same
config and seed produce identical numeric outputs regardless of --workers.
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

from . import __version__
from .cv import derive_seed, holdout_split
from .dataset import (
    Dataset,
    FeatureColumn,
    FeatureSchema,
    PlantedEffect,
    SynthConfig,
    load_csv,
    profile,
    synthesize,
)
from .importance import ERROR_METRICS, subset_importance
from .labeling import DEFAULT_TC_VALUES, ldo_hdo_sweep, quantile_grid, threshold_sweep
from .metrics import mape_excluding_zero, rmse
from .models import MODEL_KINDS, fit_model
from .models.base import TARGET_TRANSFORMS
from .scenarios import (
    SCENARIO_NAMES,
    FusionConfig,
    fit_fusion,
    fit_pipeline,
    predict_fusion,
    predict_pipeline,
    scenario_table,
)
from .tuning import METRICS, MODES, CvPlan, iteration_curve, run_ieo

SUBCOMMANDS = (
    "profile",
    "synth",
    "sweep",
    "multiclass",
    "ldo-sweep",
    "scenarios",
    "ieo",
    "fusion",
    "importance",
    "timing",
)


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
        names = kind.__name__ if isinstance(kind, type) else "/".join(
            k.__name__ for k in kind
        )
        raise ConfigError(f"config field {at}{path} must be {names}")
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
    return value >= low if kind is int else low < value < math.inf


def _numbers(obj: dict, path: str, spec) -> None:
    """Check the number fields of the config object ``obj`` at ``path``.

    ``spec`` maps a key to (int, low), an integer >= low, or (float, low), a
    finite number > low; a spec in a one-item list asks for a list of them.
    Absent keys are not checked.
    """
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
                f"config field {path}.{key} must be "
                + (f"a list, each {what}" if many else what)
            )


def _block(cfg: dict, name: str, keys, one_of=None, list_of=None,
           numbers=None) -> dict:
    """The config block ``name`` ({} when absent), checked before any work.

    Keys outside ``keys`` are rejected. ``one_of`` maps a key to the values it
    may take; ``list_of`` maps a key to the values its list items may take.
    ``numbers`` is a ``_numbers`` spec.
    """
    block = _object(
        _get(cfg, name, kind=dict, required=False, default={}), name, keys
    )
    _numbers(block, name, numbers or {})
    for key, allowed in (one_of or {}).items():
        if key in block and block[key] not in allowed:
            raise ConfigError(
                f"config field {name}.{key} must be one of: {', '.join(allowed)}"
            )
    for key, allowed in (list_of or {}).items():
        value = block.get(key, [])
        if not isinstance(value, list) or any(v not in allowed for v in value):
            raise ConfigError(
                f"config field {name}.{key} must be a list of: {', '.join(allowed)}"
            )
    return block


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
        block = _object(_get(cfg, "dataset.synth"), "dataset.synth", SYNTH_KEYS)
        _numbers(block, "dataset.synth", SYNTH_NUMBERS)
        effects = []
        for i, e in enumerate(block.get("effects", [])):
            path = f"dataset.synth.effects[{i}]"
            _numbers(_object(e, path, EFFECT_KEYS), path, EFFECT_NUMBERS)
            effects.append(PlantedEffect(
                name=_get(e, "name", kind=str, at=f"{path}."),
                kind=e.get("kind", "numeric"),
                low=float(e.get("low", 0.0)),
                high=float(e.get("high", 1.0)),
                slope=float(e.get("slope", 0.0)),
                true_rate=float(e.get("true_rate", 0.5)),
                multiplier=float(e.get("multiplier", 1.0)),
                levels=tuple(e.get("levels", ())),
                multipliers=tuple(e.get("multipliers", ())),
                min_base_duration=float(e.get("min_base_duration", 0.0)),
            ))
        return synthesize(
            SynthConfig(
                n=_get(cfg, "dataset.synth.n"),
                seed=int(block.get("seed", seed)),
                mu=float(_get(cfg, "dataset.synth.mu")),
                sigma=float(_get(cfg, "dataset.synth.sigma")),
                effects=tuple(effects),
                corrupt_fraction=float(block.get("corrupt_fraction", 0.0)),
                corrupt_multiplier=float(block.get("corrupt_multiplier", 30.0)),
            )
        )

    block = _object(_get(cfg, "dataset.csv"), "dataset.csv", CSV_KEYS)
    columns = _get(cfg, "dataset.csv.columns", kind=list)
    if not columns:
        raise ConfigError("dataset.csv.columns must be non-empty")
    for i, c in enumerate(columns):
        _object(c, f"dataset.csv.columns[{i}]", ("name", "kind"))
    schema = FeatureSchema(
        columns=tuple(
            FeatureColumn(
                _get(c, "name", kind=str, at=f"dataset.csv.columns[{i}]."),
                c.get("kind", "numeric"),
            )
            for i, c in enumerate(columns)
        ),
        target_column=block.get("target_column", "duration"),
    )
    column_map = block.get("column_map")
    if isinstance(column_map, str):
        with open(column_map, encoding="utf-8") as fh:
            column_map = json.load(fh)
    return load_csv(_get(cfg, "dataset.csv.path", kind=str), schema, column_map)


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
    block = _block(cfg, "profile", ("n_bins",), numbers={"n_bins": (int, 1)})
    report = profile(dataset, n_bins=block.get("n_bins", 30))
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
        cfg, "sweep", ("models", "tc_values", "cv"), list_of={"models": MODEL_KINDS},
        numbers={"tc_values": [(float, 0)], "cv": (int, 2)},
    )
    rows = threshold_sweep(
        dataset,
        models=block.get("models", ["tree"]),
        tc_values=block.get("tc_values", list(DEFAULT_TC_VALUES)),
        cv=block.get("cv", 5),
        seed=seed,
        workers=workers,
    )
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
        cfg, "multiclass", ("model", "cv"), one_of={"model": MODEL_KINDS},
        numbers={"cv": (int, 2)},
    )
    rows = quantile_grid(
        dataset,
        model=block.get("model", "tree"),
        cv=block.get("cv", 5),
        seed=seed,
        workers=workers,
    )
    path = os.path.join(out, "multiclass_grid.csv")
    _write_csv(path, rows, ["q1", "q2", "t1", "t2", "model", "evaluable", "f1_macro"])
    warnings = [
        f"unevaluable grid cell: q1={r['q1']} q2={r['q2']}"
        for r in rows if not r["evaluable"]
    ]
    return [path], warnings


def _cmd_ldo_sweep(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "ldo_sweep", ("model", "thresholds", "tc", "cv"),
        one_of={"model": MODEL_KINDS},
        numbers={"thresholds": [ANY], "tc": (float, 0), "cv": (int, 2)},
    )
    rows = ldo_hdo_sweep(
        dataset,
        model=block.get("model", "tree"),
        ldo_thresholds=block.get("thresholds", [0, 5, 10, 15, 20]),
        tc=float(block.get("tc", 45.0)),
        cv=block.get("cv", 5),
        seed=seed,
    )
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
        cfg, "scenarios", ("models", "tc", "folds", "names", "target_transform"),
        list_of={"models": MODEL_KINDS, "names": SCENARIO_NAMES},
        numbers={"tc": (float, 0), "folds": (int, 2)},
    )
    plan = CvPlan(
        n_folds=block.get("folds", 10),
        seed=seed,
        target_transform=block.get("target_transform", "none"),
    )
    rows = scenario_table(
        dataset,
        models=block.get("models", ["tree"]),
        tc=float(block.get("tc", 45.0)),
        plan=plan,
        scenarios=block.get("names", list(SCENARIO_NAMES)),
        workers=workers,
    )
    path = os.path.join(out, "scenarios.csv")
    _write_csv(
        path, rows,
        ["scenario", "model", "tc", "mape", "rmse", "mape_excluded_zeros", "n_test"],
    )
    return [path], []


def _cmd_ieo(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "ieo",
        ("model", "mode", "iterations", "folds", "metric", "tc", "target_transform"),
        one_of={"model": MODEL_KINDS, "mode": MODES, "metric": METRICS},
        numbers={"iterations": (int, 1), "folds": (int, 2), "tc": (float, 0)},
    )
    plan = CvPlan(
        n_folds=block.get("folds", 5),
        mode=block.get("mode", "none"),
        iterations=block.get("iterations", 250),
        seed=seed,
        target_transform=block.get("target_transform", "none"),
    )
    tc = block.get("tc")
    result = run_ieo(
        dataset,
        block.get("model", "tree"),
        plan,
        metric=block.get("metric", "mape"),
        tc=float(tc) if tc is not None else None,
        workers=workers,
    )
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
    return [trace_path, summary_path], []


def _cmd_fusion(cfg, dataset, out, seed, workers):
    models = ("classifier", "regressor_a", "regressor_b", "regressor_all", "meta")
    block = _block(
        cfg, "fusion", models + ("tc", "folds", "target_transform"),
        one_of=dict.fromkeys(models, MODEL_KINDS),
        numbers={"tc": (float, 0), "folds": (int, 2)},
    )
    tc = float(block.get("tc", 45.0))
    folds = block.get("folds", 5)
    config = FusionConfig(
        classifier_kind=block.get("classifier", "gbt"),
        regressor_a_kind=block.get("regressor_a", "gbt"),
        regressor_b_kind=block.get("regressor_b", "gbt"),
        regressor_all_kind=block.get("regressor_all", "gbt"),
        meta_kind=block.get("meta", "linear"),
        target_transform=block.get("target_transform", "none"),
    )
    train_idx, test_idx = holdout_split(len(dataset))
    train = dataset.subset(train_idx)
    test = dataset.subset(test_idx)
    actual = test.durations

    fusion = fit_fusion(train, config, tc, folds=folds, seed=derive_seed(seed, 1))
    pipeline = fit_pipeline(train, config, tc, seed=derive_seed(seed, 2))
    single_values = fusion.encoder.transform(train).values
    single = fit_model(
        config.regressor_all_kind, single_values, train.durations,
        task="regression", target_transform=config.target_transform,
        seed=derive_seed(seed, 3),
    )
    rows = []
    for name, pred in (
        ("fusion", predict_fusion(fusion, test)),
        ("pipeline", predict_pipeline(pipeline, test)),
        ("single", single.predict(fusion.encoder.transform(test).values)),
    ):
        mape, excluded = mape_excluding_zero(actual, pred)
        rows.append(
            {"model": name, "rmse": rmse(actual, pred), "mape": mape,
             "mape_excluded_zeros": excluded, "n_test": len(test)}
        )
    path = os.path.join(out, "fusion.csv")
    _write_csv(path, rows, ["model", "rmse", "mape", "mape_excluded_zeros", "n_test"])
    return [path], []


def _cmd_importance(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "importance", ("model", "tc", "metric", "n_repeats", "target_transform"),
        one_of={"model": MODEL_KINDS, "metric": ERROR_METRICS,
                "target_transform": TARGET_TRANSFORMS},
        numbers={"n_repeats": (int, 1), "tc": (float, 0)},
    )
    reports = subset_importance(
        dataset,
        tc=float(block.get("tc", 45.0)),
        model_kind=block.get("model", "tree"),
        metric=block.get("metric", "rmse"),
        n_repeats=block.get("n_repeats", 5),
        seed=seed,
        target_transform=block.get("target_transform", "none"),
    )
    rows = [
        {**r, "subset": tag}
        for tag in ("all", "A", "B")
        for r in reports[tag].rows
    ]
    path = os.path.join(out, "importance.csv")
    _write_csv(path, rows, ["subset", "name", "score", "rank"])
    warnings = [
        f"importance subset {tag} has fewer than 20 records"
        for tag in ("all", "A", "B")
        if reports[tag].notes.get("flagged_small")
    ]
    return [path], warnings


def _cmd_timing(cfg, dataset, out, seed, workers):
    block = _block(
        cfg, "timing",
        ("models", "iteration_counts", "folds", "metric", "target_transform"),
        one_of={"metric": ERROR_METRICS}, list_of={"models": MODEL_KINDS},
        numbers={"iteration_counts": [(int, 1)], "folds": (int, 2)},
    )
    rows = iteration_curve(
        dataset,
        models=block.get("models", ["tree"]),
        iteration_counts=block.get("iteration_counts", list(range(25, 251, 25))),
        folds=block.get("folds", 5),
        seed=seed,
        metric=block.get("metric", "mape"),
        target_transform=block.get("target_transform", "none"),
        workers=workers,
    )
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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _get(cfg, "seed", kind=int)
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
