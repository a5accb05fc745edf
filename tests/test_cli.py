"""CLI: config validation, artifacts, manifest, and worker determinism."""

import json
import os
import subprocess
import sys

import pytest

import incdur
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


def test_sweep_rows_match_thresholds_times_models(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", config_path, out) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 2 * 1  # 2 thresholds x 1 model


def test_worker_count_does_not_change_metric_csvs(config_path, tmp_path):
    for subcommand in ("sweep", "scenarios", "ieo"):
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


def test_missing_seed_rejected(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"dataset": {"synth": {"n": 10, "mu": 3, "sigma": 1}}}))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes over a second to import; only `profile` needs it
    src = os.path.dirname(os.path.dirname(incdur.__file__))
    code = "import sys, incdur.cli; assert 'scipy.stats' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
