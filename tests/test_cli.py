"""CLI: config validation, artifacts, manifest, and worker determinism."""

import hashlib
import inspect
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import incdur
from incdur import cli
from incdur.cli import main

BASE_CONFIG = {
    "seed": 11,
    "dataset": {
        "synth": {
            "n": 150,
            "mu": 3.7,
            "sigma": 0.8,
            "effects": [
                {"name": "x1", "kind": "numeric", "slope": 1.0},
                {"name": "flag", "kind": "boolean", "multiplier": 2.0},
            ],
        }
    },
    "sweep": {"models": ["tree"], "tc_values": [30, 45], "cv": 3},
    "multiclass": {"model": "tree", "cv": 3},
    "ldo_sweep": {"model": "tree", "thresholds": [0, 5], "tc": 45},
    "scenarios": {"models": ["tree"], "tc": 45, "folds": 4},
    "ieo": {"model": "tree", "mode": "extra", "iterations": 3, "folds": 4},
    "fusion": {"classifier": "tree", "regressor_a": "tree",
               "regressor_b": "tree", "regressor_all": "tree",
               "meta": "linear", "tc": 45, "folds": 3},
    "importance": {"model": "tree", "tc": 45, "n_repeats": 2},
    "timing": {"models": ["tree"], "iteration_counts": [2, 4], "folds": 3},
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(BASE_CONFIG))
    return str(p)


def run_cli(subcommand, config_path, out_dir, extra=()):
    return main([subcommand, "--config", config_path, "--out", str(out_dir),
                 *extra])


EXPECTED_FILES = {
    "profile": ["profile.json"],
    "synth": ["dataset.csv"],
    "sweep": ["sweep.csv"],
    "multiclass": ["multiclass_grid.csv"],
    "ldo-sweep": ["ldo_sweep.csv"],
    "scenarios": ["scenarios.csv"],
    "ieo": ["ieo_trace.csv", "ieo_summary.json"],
    "fusion": ["fusion.csv"],
    "importance": ["importance.csv"],
    "timing": ["timing.csv"],
}


@pytest.mark.parametrize("subcommand", sorted(EXPECTED_FILES))
def test_every_subcommand_writes_manifest(subcommand, config_path, tmp_path):
    out = tmp_path / subcommand
    assert run_cli(subcommand, config_path, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == EXPECTED_FILES[subcommand]
    for name in manifest["files"]:
        assert (out / name).exists()
    assert manifest["seed"] == 11
    assert manifest["subcommand"] == subcommand


@pytest.mark.parametrize("subcommand", ["profile", "ieo"])  # JSON; CSV and JSON
def test_written_files_have_the_mode_of_a_plain_open(subcommand, config_path,
                                                      tmp_path):
    out = tmp_path / subcommand
    assert run_cli(subcommand, config_path, out) == 0
    with open(out / "plain", "w"):
        pass
    plain = stat.S_IMODE(os.stat(out / "plain").st_mode)
    for name in EXPECTED_FILES[subcommand] + ["manifest.json"]:
        assert stat.S_IMODE(os.stat(out / name).st_mode) == plain, name


def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "table.csv"
    cli._write(str(path), ([{"a": 1, "b": 2}], ["a", "b"]))
    before = path.read_bytes()

    def rows():
        yield {"a": 3, "b": 4}
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        cli._write(str(path), (rows(), ["a", "b"]))
    assert path.read_bytes() == before == b"a,b\r\n1,2\r\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_sweep_rows_match_thresholds_times_models(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", config_path, out) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 2 * 1  # 2 thresholds x 1 model


def test_worker_count_does_not_change_metric_csvs(config_path, tmp_path):
    for subcommand in ("sweep", "multiclass", "scenarios", "ieo", "timing"):
        a = tmp_path / f"{subcommand}_w1"
        b = tmp_path / f"{subcommand}_w8"
        assert run_cli(subcommand, config_path, a, ("--workers", "1")) == 0
        assert run_cli(subcommand, config_path, b, ("--workers", "8")) == 0
        for name in EXPECTED_FILES[subcommand]:
            if name.endswith(".csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rerun_is_byte_identical(config_path, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("scenarios", config_path, a) == 0
    assert run_cli("scenarios", config_path, b) == 0
    assert (a / "scenarios.csv").read_bytes() == (b / "scenarios.csv").read_bytes()


def test_seed_flag_overrides_config(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", config_path, out, ("--seed", "99")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_reports_field_path(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": 1, "dataset": {}}))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "dataset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"iteration": 3}, "ieo.iteration"),  # misspelled key, not ignored
        ({"mode": "sideways"}, "ieo.mode"),
        ({"metric": "mae"}, "ieo.metric"),
        ({"model": "svm"}, "ieo.model"),
    ],
)
def test_ieo_config_errors_exit_2_and_name_the_field(tmp_path, capsys, change, field):
    cfg = {**BASE_CONFIG, "ieo": {**BASE_CONFIG["ieo"], **change}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["ieo", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / "ieo_trace.csv").exists()


@pytest.mark.parametrize(
    "subcommand, block, field, artifact",
    [
        ("sweep", {"sweep": {"models": ["bogus"]}}, "sweep.models", "sweep.csv"),
        # misspelled keys are not ignored
        ("scenarios", {"scenarios": {"modles": ["linear"]}}, "scenarios.modles",
         "scenarios.csv"),
        ("fusion", {"fusion": {"classifer": "linear"}}, "fusion.classifer",
         "fusion.csv"),
        ("scenarios", {"scenarios": {"names": ["AtoC"]}}, "scenarios.names",
         "scenarios.csv"),
        ("scenarios", {"scenarios": {"target_transform": "log"}},
         "scenarios.target_transform", "scenarios.csv"),
    ],
)
def test_block_config_errors_exit_2_and_name_the_field(
    tmp_path, capsys, subcommand, block, field, artifact
):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({**BASE_CONFIG, **block}))
    assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / artifact).exists()


@pytest.mark.parametrize(
    "change, field",
    [
        ({"n_repeats": -2}, "importance.n_repeats"),
        ({"n_repeats": 0}, "importance.n_repeats"),
        ({"n_repeats": 2.7}, "importance.n_repeats"),
        ({"metric": "f1"}, "importance.metric"),
        ({"metric": "mae"}, "importance.metric"),
        ({"tc": "x"}, "importance.tc"),
        ({"tc": 0}, "importance.tc"),
        ({"target_transform": "log"}, "importance.target_transform"),
    ],
)
def test_importance_config_errors_exit_2_and_name_the_field(
    tmp_path, capsys, change, field
):
    cfg = {**BASE_CONFIG, "importance": {**BASE_CONFIG["importance"], **change}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["importance", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / "importance.csv").exists()


def _exits_2_naming(tmp_path, capsys, subcommand, cfg, field, extra=()):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([subcommand, "--config", str(p), "--out", str(out), *extra]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("change", [
    {"tc": 45, "metric": "rmse"}, {"tc": 45}, {"metric": "f1"},
])
def test_ieo_tc_goes_with_f1_only(tmp_path, capsys, change):
    cfg = {**BASE_CONFIG, "ieo": {**BASE_CONFIG["ieo"], **change}}
    _exits_2_naming(tmp_path, capsys, "ieo", cfg, "ieo.tc")


def test_timing_metric_must_be_an_error_metric(tmp_path, capsys):
    # iteration_curve has no threshold tc, so f1 could never run
    cfg = {**BASE_CONFIG, "timing": {**BASE_CONFIG["timing"], "metric": "f1"}}
    _exits_2_naming(tmp_path, capsys, "timing", cfg, "timing.metric")


def _synth(**change):
    return {**BASE_CONFIG["dataset"]["synth"], **change}


def _csv(**change):
    return {"path": "x.csv", "columns": [{"name": "x1"}], **change}


@pytest.mark.parametrize(
    "dataset, field",
    [
        ({"synth": _synth(), "sytnh": {}}, "dataset.sytnh"),
        ({"synth": _synth(sed=4)}, "dataset.synth.sed"),
        ({"synth": _synth(effects=[{"name": "x1", "slpoe": 1.0}])},
         "dataset.synth.effects[0].slpoe"),
        ({"synth": _synth(effects=[{"name": "x1"}, "flag"])},
         "dataset.synth.effects[1]"),
        ({"csv": {"path": "x.csv", "columns": [{"name": "x1"}], "targt": "d"}},
         "dataset.csv.targt"),
        ({"csv": {"path": "x.csv", "columns": [{"name": "x1", "knd": "boolean"}]}},
         "dataset.csv.columns[0].knd"),
        # dataset.synth numbers
        ({"synth": _synth(corrupt_fraction="x")}, "dataset.synth.corrupt_fraction"),
        ({"synth": _synth(seed="abc")}, "dataset.synth.seed"),
        ({"synth": _synth(n=True)}, "dataset.synth.n"),
        # each effect's numbers
        ({"synth": _synth(effects=[{"name": "x1", "slope": "steep"}])},
         "dataset.synth.effects[0].slope"),
        # a missing name, with the entry's path
        ({"synth": _synth(effects=[{"name": "x1"}, {"kind": "numeric", "slope": 1.0}])},
         "dataset.synth.effects[1].name"),
        ({"csv": {"path": "x.csv", "columns": [{"name": "x1"}, {"kind": "boolean"}]}},
         "dataset.csv.columns[1].name"),
        # range errors of the config objects, with the field's path
        ({"synth": _synth(corrupt_fraction=2.0)}, "dataset.synth.corrupt_fraction"),
        ({"synth": _synth(effects=[{"name": "x1", "kind": "numerc"}])},
         "dataset.synth.effects[0].kind"),
        ({"synth": _synth(effects=[{"name": "x1"}, {"name": "c", "kind": "categorical",
                                                    "levels": ["a", "b"],
                                                    "multipliers": [2.0]}])},
         "dataset.synth.effects[1].multipliers"),
        ({"synth": _synth(effects=[{"name": "c", "kind": "categorical"}])},
         "dataset.synth.effects[0].levels"),
        ({"csv": {"path": "x.csv", "columns": [{"name": "x1", "kind": "text"}]}},
         "dataset.csv.columns[0].kind"),
        ({"csv": {"path": "x.csv", "columns": [{"name": "x1"}, {"name": "x1"}]}},
         "dataset.csv.columns"),
        # the column map, inline or a JSON file, and the table file
        ({"csv": _csv(column_map="nope.json")}, "dataset.csv.column_map"),
        ({"csv": _csv(column_map=".")}, "dataset.csv.column_map"),
        ({"csv": _csv(column_map=["a"])}, "dataset.csv.column_map"),
        ({"csv": _csv(column_map=5)}, "dataset.csv.column_map"),
        ({"csv": _csv(column_map={"x1": 5})}, "dataset.csv.column_map"),
        ({"csv": _csv(path="missing.csv")}, "dataset.csv.path"),
        ({"csv": _csv(path=".")}, "dataset.csv.path"),
        # value types of the string and list fields
        ({"csv": _csv(target_column=5)}, "dataset.csv.target_column"),
        ({"csv": _csv(path=5)}, "dataset.csv.path"),
        ({"csv": _csv(columns={"name": "x1"})}, "dataset.csv.columns"),
        ({"csv": _csv(columns=[{"name": 5}])}, "dataset.csv.columns[0].name"),
        ({"synth": _synth(effects={"a": 1})}, "dataset.synth.effects"),
        ({"synth": _synth(effects=[{"name": 5}])}, "dataset.synth.effects[0].name"),
        ({"synth": _synth(effects=[{"name": "c", "kind": "categorical",
                                    "levels": [1, 2]}])},
         "dataset.synth.effects[0].levels"),
        ({"synth": _synth(effects=[{"name": "c", "kind": "categorical",
                                    "levels": "ab"}])},
         "dataset.synth.effects[0].levels"),
        # a header that lacks a column the config names (table.csv: x1, duration)
        ({"csv": _csv(path="table.csv", column_map={"x1": "X"})},
         "dataset.csv.column_map"),
        ({"csv": _csv(path="table.csv", columns=[{"name": "x2"}])},
         "dataset.csv.columns"),
        ({"csv": _csv(path="table.csv", target_column="minutes")},
         "dataset.csv.target_column"),
        # effect keys that the effect's kind does not use
        ({"synth": _synth(effects=[{"name": "b", "kind": "boolean", "slope": 9}])},
         "dataset.synth.effects[0].slope"),
        ({"synth": _synth(effects=[{"name": "x1", "levels": ["a"]}])},
         "dataset.synth.effects[0].levels"),
        ({"synth": _synth(effects=[{"name": "c", "kind": "categorical",
                                    "levels": ["a"], "multiplier": 2.0}])},
         "dataset.synth.effects[0].multiplier"),
        ({"synth": _synth(effects=[{"name": "x1", "slope": 1.0, "kind": "numerc"}])},
         "dataset.synth.effects[0].kind"),
    ],
)
def test_dataset_keys_are_checked(tmp_path, monkeypatch, capsys, dataset, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_text("x1,duration\n1,10\n2,20\n")
    cfg = {**BASE_CONFIG, "dataset": dataset}
    _exits_2_naming(tmp_path, capsys, "synth", cfg, field)


@pytest.mark.parametrize("content", ['["x1"]', "x1,duration\n"])
def test_dataset_csv_column_map_file_must_hold_a_map(tmp_path, capsys, content):
    (tmp_path / "table.csv").write_text("x1,duration\n1,10\n2,20\n")
    (tmp_path / "map.json").write_text(content)
    dataset = {"csv": _csv(path=str(tmp_path / "table.csv"),
                           column_map=str(tmp_path / "map.json"))}
    _exits_2_naming(tmp_path, capsys, "synth", {**BASE_CONFIG, "dataset": dataset},
                    "dataset.csv.column_map")


class _Bound(Exception):
    """Raised by a library call's stand-in once its arguments are bound."""


#: subcommand -> (block, the library function cli calls, a block that sets
#: every key the block accepts)
FULL_BLOCKS = {
    "profile": ("profile", "profile", {"n_bins": 5}),
    "sweep": ("sweep", "threshold_sweep",
              {"models": ["tree"], "tc_values": [30, 45], "cv": 3}),
    "multiclass": ("multiclass", "quantile_grid", {"model": "tree", "cv": 3}),
    "ldo-sweep": ("ldo_sweep", "ldo_hdo_sweep",
                  {"model": "tree", "thresholds": [0, 5], "tc": 45, "cv": 3}),
    "scenarios": ("scenarios", "scenario_table",
                  {"models": ["tree"], "names": ["AtoA"], "tc": 45, "folds": 4,
                   "target_transform": "log1p"}),
    "ieo": ("ieo", "run_ieo",
            {"model": "tree", "mode": "extra", "metric": "f1", "tc": 45,
             "iterations": 3, "folds": 4, "target_transform": "none"}),
    "fusion": ("fusion", "fusion_table",
               {"classifier": "tree", "regressor_a": "linear",
                "regressor_b": "knn", "regressor_all": "gbt", "meta": "tree",
                "target_transform": "log1p", "tc": 45, "folds": 3}),
    "importance": ("importance", "subset_importance",
                   {"model": "tree", "metric": "mape", "n_repeats": 2, "tc": 45,
                    "target_transform": "log1p"}),
    "timing": ("timing", "iteration_curve",
               {"models": ["tree"], "iteration_counts": [2], "folds": 3,
                "metric": "rmse", "target_transform": "log1p"}),
}


@pytest.mark.parametrize("subcommand", sorted(FULL_BLOCKS))
def test_block_keys_reach_parameters_of_the_same_name(tmp_path, monkeypatch,
                                                      subcommand):
    name, call, block = FULL_BLOCKS[subcommand]
    accepted, bound = [], {}
    check_block = cli._block

    def spy_block(cfg, block_name, /, **spec):
        accepted.extend(spec)
        return check_block(cfg, block_name, **spec)

    signature = inspect.signature(getattr(cli, call))

    def stand_in(*args, **kwargs):
        bound.update(signature.bind(*args, **kwargs).arguments)
        raise _Bound

    monkeypatch.setattr(cli, "_block", spy_block)
    monkeypatch.setattr(cli, call, stand_in)
    p = tmp_path / "c.json"
    p.write_text(json.dumps({**BASE_CONFIG, name: block}))
    # the stand-in's exception ends the run at the CLI boundary
    assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert sorted(accepted) == sorted(block)
    for key, value in block.items():
        got = bound[key]
        assert (list(got) if isinstance(value, list) else got) == value, key


@pytest.mark.parametrize(
    "subcommand, block, change, field",
    [
        # an integer >= a minimum
        ("sweep", "sweep", {"cv": "five"}, "sweep.cv"),
        ("ieo", "ieo", {"folds": 1.5}, "ieo.folds"),
        ("ieo", "ieo", {"iterations": 0}, "ieo.iterations"),
        ("multiclass", "multiclass", {"cv": 1}, "multiclass.cv"),
        ("fusion", "fusion", {"folds": True}, "fusion.folds"),
        ("profile", "profile", {"n_bins": 0}, "profile.n_bins"),
        # a finite number > 0
        ("scenarios", "scenarios", {"tc": "x"}, "scenarios.tc"),
        ("ldo-sweep", "ldo_sweep", {"tc": -45}, "ldo_sweep.tc"),
        ("ieo", "ieo", {"tc": 1e400}, "ieo.tc"),
        # lists of either
        ("sweep", "sweep", {"tc_values": [30, 0]}, "sweep.tc_values"),
        ("ldo-sweep", "ldo_sweep", {"thresholds": 5}, "ldo_sweep.thresholds"),
        ("ldo-sweep", "ldo_sweep", {"thresholds": [0, "5"]}, "ldo_sweep.thresholds"),
        ("timing", "timing", {"iteration_counts": [2, 2.5]}, "timing.iteration_counts"),
        # an int past the float range
        ("importance", "importance", {"tc": 10**400}, "importance.tc"),
        ("ldo-sweep", "ldo_sweep", {"thresholds": [-(10**400)]},
         "ldo_sweep.thresholds"),
    ],
)
def test_number_fields_are_typed(tmp_path, capsys, subcommand, block, change, field):
    cfg = {**BASE_CONFIG, block: {**BASE_CONFIG.get(block, {}), **change}}
    _exits_2_naming(tmp_path, capsys, subcommand, cfg, field)


def test_missing_seed_rejected(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"dataset": {"synth": {"n": 10, "mu": 3, "sigma": 1}}}))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed, extra",
    [(True, ()), (-1, ()), (1.5, ()), (11, ("--seed", "-1"))],
)
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed, extra):
    cfg = {**BASE_CONFIG, "seed": seed}
    _exits_2_naming(tmp_path, capsys, "synth", cfg, "config field seed", extra)


def test_two_dataset_sources_rejected(tmp_path, capsys):
    cfg = {"seed": 1, "dataset": {"synth": {"n": 10, "mu": 3, "sigma": 1},
                                  "csv": {"path": "x", "columns": []}}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_unevaluable_cells_warn_but_exit_zero(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["sweep"] = {"models": ["tree"], "tc_values": [100000], "cv": 3}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"]


def test_csv_dataset_round_trip(tmp_path):
    # synth writes a CSV that the csv source can load back
    out = tmp_path / "synth"
    p = tmp_path / "c.json"
    p.write_text(json.dumps(BASE_CONFIG))
    assert main(["synth", "--config", str(p), "--out", str(out)]) == 0

    csv_cfg = {
        "seed": 11,
        "dataset": {"csv": {
            "path": str(out / "dataset.csv"),
            "columns": [{"name": "x1", "kind": "numeric"},
                        {"name": "flag", "kind": "boolean"}],
        }},
        "sweep": {"models": ["tree"], "tc_values": [45], "cv": 3},
    }
    p2 = tmp_path / "c2.json"
    p2.write_text(json.dumps(csv_cfg))
    out2 = tmp_path / "o2"
    assert main(["sweep", "--config", str(p2), "--out", str(out2)]) == 0
    lines = (out2 / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_dropped_csv_records_are_reported(tmp_path):
    lines = ["x1,duration"] + [f"{i},{10 * i}" for i in range(1, 6)] + ["6,abc"]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    cfg = {**BASE_CONFIG, "dataset": {"csv": _csv(path=str(tmp_path / "table.csv"))}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["synth", "--config", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "dataset.csv: dropped 1 record whose duration is not a non-negative number"
    ]
    assert len((out / "dataset.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("tc, warned", [(45, True), (20, False)])
def test_ieo_f1_warns_when_the_search_part_holds_one_class(tmp_path, tc, warned):
    # only the last three of 50 records are long-term at tc=45, so the
    # sequential 80% search part holds class 0 alone; at tc=20 it holds both
    rng = np.random.default_rng(0)
    durations = rng.uniform(5.0, 40.0, size=50)
    durations[-3:] = (80.0, 90.0, 100.0)
    lines = ["x,duration"] + [
        f"{x!r},{d!r}" for x, d in zip(rng.normal(size=50).tolist(), durations.tolist())
    ]
    (tmp_path / "one_class.csv").write_text("\n".join(lines) + "\n")
    cfg = {
        "seed": 0,
        "dataset": {"csv": {"path": str(tmp_path / "one_class.csv"),
                            "columns": [{"name": "x", "kind": "numeric"}]}},
        "ieo": {"model": "gbt", "folds": 5, "iterations": 2, "metric": "f1",
                "tc": tc},
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["ieo", "--config", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if warned:
        assert manifest["warnings"] == [
            "ieo search part holds only class 0 (short-term at tc=45.0): every "
            "draw scores the same f1, so the search cannot rank them"
        ]
    else:
        assert manifest["warnings"] == []


def test_profile_run_loads_no_scipy(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(BASE_CONFIG))
    src = os.path.dirname(os.path.dirname(incdur.__file__))
    code = (
        "import sys; from incdur.cli import main; "
        f"assert main(['profile', '--config', {str(p)!r}, '--out', {str(tmp_path / 'p')!r}]) == 0; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_cli_runs_leave_numpy_ma_unloaded(tmp_path):
    # np.median and np.unique import numpy.ma on first use; the encoder's
    # imputation and the classifiers' labels never need it
    p = tmp_path / "c.json"
    p.write_text(json.dumps(BASE_CONFIG))
    src = os.path.dirname(os.path.dirname(incdur.__file__))
    code = (
        "import sys; from incdur.cli import main; "
        f"assert main(['fusion', '--config', {str(p)!r}, '--out', {str(tmp_path / 'f')!r}]) == 0; "
        f"assert main(['importance', '--config', {str(p)!r}, '--out', {str(tmp_path / 'i')!r}]) == 0; "
        "assert 'numpy.ma' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


GOLDEN_CONFIG = {
    "seed": 5,
    "dataset": {"synth": {"n": 120, "mu": 3.7, "sigma": 0.8, "effects": [
        {"name": "x1", "kind": "numeric", "slope": 1.0},
        {"name": "flag", "kind": "boolean", "multiplier": 2.0},
        {"name": "zone", "kind": "categorical", "levels": ["n", "s", "e"],
         "multipliers": [1.0, 1.5, 0.7]},
    ]}},
    "sweep": {"models": ["tree"], "tc_values": [30, 45], "cv": 3},
    "multiclass": {"model": "tree", "cv": 3},
    "ldo_sweep": {"model": "tree", "thresholds": [0, 10, 20], "tc": 45},
    "scenarios": {"models": ["tree", "random-forest"], "tc": 45, "folds": 3},
    "fusion": {"classifier": "random-forest", "regressor_a": "tree",
               "regressor_b": "gbt-reg", "regressor_all": "tree",
               "meta": "linear", "tc": 45, "folds": 2},
    "importance": {"model": "random-forest", "tc": 45, "n_repeats": 2},
    # three draws: one IF and two LOF, each removing rows in every fold
    "ieo": {"model": "tree", "mode": "intra", "iterations": 3, "folds": 4},
    "timing": {"models": ["tree", "knn"], "iteration_counts": [1, 3, 5], "folds": 3},
}

#: sha256 of each metric file GOLDEN_CONFIG writes (numpy 2.4.6).
GOLDEN_DIGESTS = {
    "synth": {"dataset.csv":
        "cf0ae5e7cdaa0f0f866c92c9bd6ef5982af4b73dfac245360ff8e2e613014a97"},
    "profile": {"profile.json":
        "edc57b6fcda5a4dbee134d5a9d3e75a7c6bb57e6ed8c7774645c3311c190e987"},
    "sweep": {"sweep.csv":
        "4db0e0c1e19e9e3b9cd2b9f154b3e41b351846a73cf170b44a34c84c07121ddb"},
    "multiclass": {"multiclass_grid.csv":
        "c9d12644584f78713f2f9682940d3c1d621b0dc51b95131a1605d5a33f62acad"},
    "ldo-sweep": {"ldo_sweep.csv":
        "d046ee827ac376db9632ced399116bb828a69e619a233effc4c81ecc7324cffe"},
    "scenarios": {"scenarios.csv":
        "61b8c2657afadc44bcad98c98e297136b77ef7db81c763ccd46cfe63f907bfd8"},
    "fusion": {"fusion.csv":
        "275c8c8787ae3e039a73fe430774d23504b1b5183703dac718ea7adac2b9bffe"},
    "importance": {"importance.csv":
        "0f2406478ef4dd5b8795704204f6d0d079b3271849ffc0a33f9a5a9bc771a220"},
    "ieo": {
        "ieo_trace.csv":
            "da810cfe53f210f98b24a642cbb2e62ebd68fedda1bb5b7a449fda815b15a8c1",
        "ieo_summary.json":
            "a643f02f3520f8797151b077296f4b95df9dc7b6b5b2d0828877c979741b7cd1",
    },
    "timing": {"timing.csv":
        "6046f20bb03c7d827dfa4add620e6f40ce9fa4f48c7e10d0ea3034edb82c5e90"},
}


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="golden digests are pinned for numpy 2.4.6, the version CI installs; "
           "other numpy versions may round differently",
)
def test_metric_files_match_golden_digests(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(GOLDEN_CONFIG))
    for subcommand, digests in GOLDEN_DIGESTS.items():
        out = tmp_path / subcommand
        assert run_cli(subcommand, str(p), out) == 0
        written = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in json.loads((out / "manifest.json").read_text())["files"]
        }
        assert written == digests, subcommand
