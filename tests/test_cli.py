"""Command-line interface: strict configs, artifacts, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decal.cli
from decal.calibrate import TRACE_COLUMNS
from decal.experiments import SLOPE_BAND
from decal.cli import (
    AUDIT_SCHEMA,
    CALIBRATE_SCHEMA,
    ConfigError,
    main,
    parse_config,
)
from decal.kernel import OutcomeDomainError
from decal.model import load_loss, load_predictor

FIXTURE = Path(__file__).resolve().parent.parent / "configs" / "planted_bias.json"

CALIBRATE_BASE = {
    "kernel_kind": "min",
    "kernel_dim": 1,
    "R2": 1.5,
    "epsilon": 0.25,
    "beta": 6.0,
    "shift_norm": 0.3,
    "support_size": 12,
    "instance_seed": 3,
    "audit_batch_size": 96,
    "pool_size": 8,
    "heldout_size": 96,
    "seed": 1,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, command, doc, out="out", extra=()):
    cfg = write_config(tmp_path, doc, name=f"{command}-{out}.json")
    out_dir = tmp_path / out
    code = main([command, "--config", cfg, "--out", str(out_dir), "--quiet", *extra])
    return code, out_dir


# config parsing


def test_parse_fills_defaults():
    doc = {"kernel_kind": "min", "kernel_dim": 1, "R2": 1.5, "epsilon": 0.2, "beta": 4.0}
    cfg = parse_config(doc, CALIBRATE_SCHEMA)
    assert cfg["R1"] == 1.0
    assert cfg["n_actions"] == 2
    assert cfg["algorithm"] == "alg1"
    assert cfg["eta"] is None  # resolved later by the run config
    assert cfg["audit_batch_size"] == 192
    assert cfg["heldout_size"] == 768
    assert cfg["context_kind"] == "gaussian"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"bogus": 1}, "unknown config key: 'bogus'"),
        ({}, "missing required config key: 'kernel_kind'"),
        ({"kernel_kind": "rbf"}, "'kernel_kind'"),
        ({"kernel_kind": "min", "kernel_dim": 0}, "'kernel_dim'"),
        ({"kernel_kind": "min", "kernel_dim": 1, "R2": 1.5, "epsilon": 0.0}, "'epsilon'"),
        ({"kernel_kind": "min", "kernel_dim": 1, "R2": 1.5, "epsilon": True}, "'epsilon'"),
        ({"kernel_kind": "min", "kernel_dim": 1, "R2": "big"}, "'R2'"),
        ({"kernel_kind": "min", "kernel_dim": 1.5}, "'kernel_dim'"),
    ],
)
def test_parse_rejects_bad_configs(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc, CALIBRATE_SCHEMA)


def test_parse_rejects_null_without_permission():
    doc = dict(CALIBRATE_BASE, eta=None)
    assert parse_config(doc, CALIBRATE_SCHEMA)["eta"] is None
    with pytest.raises(ConfigError, match="'epsilon'"):
        parse_config(dict(CALIBRATE_BASE, epsilon=None), CALIBRATE_SCHEMA)


def test_parse_audit_schema_has_no_algorithm_knob():
    assert "algorithm" not in AUDIT_SCHEMA
    assert "approx_offset" in AUDIT_SCHEMA


# argument handling


def test_cli_flag_validation(tmp_path):
    cfg = write_config(tmp_path, CALIBRATE_BASE)
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:  # an unknown option is a usage error
        main(["calibrate", "--config", cfg, "--out", out, "--threads", "1"])
    assert exc.value.code == 2
    assert main(["calibrate", "--config", cfg, "--out", out, "--seed", "-1"]) == 2


def test_cli_config_file_errors(tmp_path):
    out = str(tmp_path / "o")
    assert main(["calibrate", "--config", str(tmp_path / "nope.json"), "--out", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["calibrate", "--config", str(bad), "--out", out]) == 2


def test_cli_unknown_key_exits_two(tmp_path, capsys):
    code, out_dir = run_cli(tmp_path, "calibrate", dict(CALIBRATE_BASE, extra_knob=1))
    assert code == 2
    assert "extra_knob" in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize(
    "key,value",
    [("beta", float("nan")), ("beta", float("inf")), ("beta", float("-inf")),
     ("R1", float("inf")), ("epsilon", float("nan"))],
)
def test_non_finite_config_value_exits_two(tmp_path, capsys, key, value):
    """JSON NaN and Infinity parse as floats; they are config errors, not runtime faults."""
    code, out_dir = run_cli(tmp_path, "calibrate", dict(CALIBRATE_BASE, **{key: value}))
    assert code == 2
    assert f"config key {key!r}: must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "override",
    [{"shift_norm": 0.9}, {"epsilon": 1e-200}, {"epsilon": 1e-320}, {"R1": 1e200},
     {"R2": 1e200}],
    ids=["shift_norm", "epsilon-1e-200", "epsilon-1e-320", "R1-1e200", "R2-1e200"],
)
def test_config_error_leaves_no_out_directory(tmp_path, override):
    code, out_dir = run_cli(tmp_path, "calibrate", dict(CALIBRATE_BASE, **override))
    assert code == 2
    assert not out_dir.exists()


def test_domain_error_after_the_build_exits_three(tmp_path, monkeypatch, capsys):
    def bad_data(*args, **kwargs):
        raise OutcomeDomainError("outcome norm 2.0 exceeds domain radius 1.0")

    monkeypatch.setattr(decal.cli, "run_calibration", bad_data)
    code, _ = run_cli(tmp_path, "calibrate", CALIBRATE_BASE)
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


# calibrate command


def test_calibrate_writes_the_artifact_set(tmp_path):
    code, out_dir = run_cli(tmp_path, "calibrate", CALIBRATE_BASE)
    assert code == 0

    rows = (out_dir / "trace.csv").read_text().splitlines()
    assert rows[0] == ",".join(TRACE_COLUMNS)
    assert len(rows) >= 2  # the planted bias forces at least one patch

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["terminal"] == "calibrated"
    assert summary["gate_passed"] is True
    assert summary["final_heldout_decce"] < CALIBRATE_BASE["epsilon"]
    assert summary["n_iterations"] == len(rows) - 1
    assert summary["planted_shift_norm"] == pytest.approx(0.3, rel=1e-12)
    assert summary["heldout_potential_slack"] > 0.0
    assert "iterations" not in summary

    p = load_predictor(out_dir / "predictor.json")
    assert len(p.patches) == summary["n_iterations"]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "calibrate"
    assert manifest["outputs"] == ["trace.csv", "summary.json", "predictor.json"]
    assert "threads" not in manifest
    assert manifest["config"]["eta"] == pytest.approx(0.125)  # epsilon / (2 R1^2)
    assert manifest["config"]["max_iters"] == 576
    assert manifest["config"]["ridge_lambda"] == 1.0


def test_calibrate_reruns_are_byte_identical(tmp_path):
    _, first = run_cli(tmp_path, "calibrate", CALIBRATE_BASE, out="a")
    _, second = run_cli(tmp_path, "calibrate", CALIBRATE_BASE, out="b")
    for name in ("trace.csv", "summary.json", "predictor.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_calibrate_seed_override_lands_in_manifest(tmp_path):
    code, out_dir = run_cli(tmp_path, "calibrate", CALIBRATE_BASE, extra=("--seed", "9"))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


SEEDED_CONFIGS = {
    "audit": {"kernel_kind": "min", "kernel_dim": 1, "R2": 1.5, "epsilon": 0.2, "beta": 6.0,
              "n": 64, "pool_size": 4},
    "synth-planted": {"instance": "planted_bias", "n": 16, "kernel_kind": "min",
                      "kernel_dim": 1, "R2": 1.5},
    "synth-lower": {"instance": "lower_bound", "n": 16, "d": 4, "epsilon": 0.2, "world": 2},
    "experiment": {"experiment": "distinguishing", "d_grid": [4], "n_grid": [2],
                   "trials": 100, "decce_samples": 100},
}


@pytest.mark.parametrize("case", sorted(SEEDED_CONFIGS))
def test_seed_override_reaches_every_seeded_command(tmp_path, case):
    command = case.split("-")[0]
    code, out_dir = run_cli(tmp_path, command, SEEDED_CONFIGS[case], extra=("--seed", "9"))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_report_takes_no_seed(tmp_path):
    _, cal_dir = run_cli(tmp_path, "calibrate", CALIBRATE_BASE, out="cal")
    code, rep_dir = run_cli(
        tmp_path, "report", {"run_dir": str(cal_dir)}, out="rep", extra=("--seed", "9")
    )
    assert code == 0
    manifest = json.loads((rep_dir / "manifest.json").read_text())
    assert "seed" not in manifest["config"]


def test_calibrate_with_zero_shift_needs_no_patches(tmp_path):
    code, out_dir = run_cli(tmp_path, "calibrate", dict(CALIBRATE_BASE, shift_norm=0.0))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_iterations"] == 0
    assert summary["gate_passed"] is True


def test_calibrate_rejects_unbuildable_instances(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "calibrate", dict(CALIBRATE_BASE, shift_norm=0.9))
    assert code == 2  # construction validation, before any artifact is written
    assert "headroom" in capsys.readouterr().err


def test_fixture_config_runs_clean(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    code, out_dir = run_cli(tmp_path, "calibrate", doc)
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["gate_passed"] is True
    assert summary["final_heldout_decce"] < doc["epsilon"]


# audit command


AUDIT_BASE = {
    "kernel_kind": "min",
    "kernel_dim": 1,
    "R2": 1.5,
    "epsilon": 0.2,
    "beta": 6.0,
    "shift_norm": 0.4,
    "support_size": 12,
    "instance_seed": 5,
    "pool_size": 8,
    "n": 512,
    "seed": 2,
}


def test_audit_finds_the_planted_bias(tmp_path):
    code, out_dir = run_cli(tmp_path, "audit", AUDIT_BASE)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["found"] is True
    assert report["empirical_gap"] > report["threshold"] == pytest.approx(0.15)
    assert report["n_used"] == 512
    assert report["decce_adjusted"] == report["empirical_gap"]

    spec_loss = load_loss(out_dir / "witness_loss.json")
    assert spec_loss.spec.kind == "min"
    assert np.all(spec_loss.norms() <= 1.0 + 1e-9)


def test_audit_passes_a_calibrated_instance(tmp_path):
    code, out_dir = run_cli(tmp_path, "audit", dict(AUDIT_BASE, shift_norm=0.0))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["found"] is False
    assert not (out_dir / "witness_loss.json").exists()


def test_audit_offset_is_additive(tmp_path):
    code, out_dir = run_cli(tmp_path, "audit", dict(AUDIT_BASE, approx_offset=0.05))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["decce_adjusted"] == pytest.approx(report["empirical_gap"] + 0.05)


# synth command


def test_synth_planted_dataset(tmp_path):
    doc = {
        "instance": "planted_bias",
        "n": 64,
        "kernel_kind": "min",
        "kernel_dim": 1,
        "R2": 1.5,
        "context_dim": 3,
        "seed": 4,
    }
    code, out_dir = run_cli(tmp_path, "synth", doc)
    assert code == 0
    rows = (out_dir / "dataset.csv").read_text().splitlines()
    assert rows[0] == "x0,x1,x2,y0"
    assert len(rows) == 65
    y = float(rows[1].split(",")[-1])
    assert 0.0 <= y <= 1.0

    _, again = run_cli(tmp_path, "synth", doc, out="again")
    assert (out_dir / "dataset.csv").read_bytes() == (again / "dataset.csv").read_bytes()


def test_synth_lower_bound_worlds(tmp_path):
    doc = {"instance": "lower_bound", "n": 32, "d": 4, "epsilon": 0.2, "world": 2, "seed": 6}
    code, out_dir = run_cli(tmp_path, "synth", doc)
    assert code == 0
    rows = (out_dir / "dataset.csv").read_text().splitlines()
    assert rows[0] == "p0,p1,p2,p3,y0,y1,y2,y3"
    assert len(rows) == 33
    sigma_rows = (out_dir / "sigma.csv").read_text().splitlines()
    assert sigma_rows[0] == "s0,s1,s2,s3"
    assert len(sigma_rows) == 2
    assert all(abs(float(v)) == pytest.approx(0.5) for v in sigma_rows[1].split(","))

    code, world1 = run_cli(tmp_path, "synth", dict(doc, world=1), out="w1")
    assert code == 0
    assert not (world1 / "sigma.csv").exists()


def test_synth_validates_instance_kind(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "synth", {"instance": "mystery", "n": 8})
    assert code == 2
    assert "instance" in capsys.readouterr().err


# experiment command


def test_experiment_convergence_roundtrip(tmp_path):
    doc = {
        "experiment": "convergence",
        "epsilons": [0.35],
        "audit_batch_size": 96,
        "heldout_size": 128,
    }
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["experiment"] == "convergence"
    assert results["passed"] is True
    csv_rows = (out_dir / "results.csv").read_text().splitlines()
    assert csv_rows[0] == "experiment,cell,metric,value"
    assert csv_rows[-1].endswith("passed,True")


def test_experiment_gate_failure_exits_one(tmp_path):
    # too few resamples for the decay fit: fitted slopes leave the band
    doc = {
        "experiment": "uniform_convergence",
        "n_grid": [64, 128, 256],
        "reference_n": 1024,
        "resamples": 4,
        "pool_size": 4,
    }
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 1
    results = json.loads((out_dir / "results.json").read_text())
    assert results["passed"] is False
    lo, hi = SLOPE_BAND
    assert any(not lo <= fit["slope"] <= hi for fit in results["fits"].values())


def test_experiment_unknown_name_exits_two(tmp_path, capsys):
    for name in ("psychic", ["convergence"]):  # a list once raised TypeError: exit 3
        code, _ = run_cli(tmp_path, "experiment", {"experiment": name})
        assert code == 2
        err = capsys.readouterr().err
        assert "experiment" in err and "convergence" in err


def test_experiment_schema_floor_on_trials(tmp_path, capsys):
    doc = {"experiment": "distinguishing", "d_grid": [16], "n_grid": [2], "trials": 10}
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 2
    assert "trials" in capsys.readouterr().err
    assert not (out_dir / "results.json").exists()


def test_experiment_grid_errors_exit_two(tmp_path, capsys):
    doc = {"experiment": "uniform_convergence", "n_grid": [64, 128], "reference_n": 512}
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 2
    assert "n_grid" in capsys.readouterr().err
    code, out_dir = run_cli(tmp_path, "experiment", dict(doc, n_grid=[64, 128, 1024]), out="b")
    assert code == 2
    assert "reference_n" in capsys.readouterr().err
    assert not out_dir.exists()
    doc = {"experiment": "sample_complexity", "eps_grid": [0.5, 0.4, 0.3], "shift_norm": 0.9}
    code, out_dir = run_cli(tmp_path, "experiment", doc, out="c")
    assert code == 2
    assert "headroom" in capsys.readouterr().err
    assert not out_dir.exists()
    doc = {
        "experiment": "convergence",
        "epsilons": [0.35],
        "shift_norm": 0.9,
        "audit_batch_size": 96,
        "heldout_size": 128,
    }
    code, out_dir = run_cli(tmp_path, "experiment", doc, out="d")
    assert code == 2
    assert "headroom" in capsys.readouterr().err
    assert not out_dir.exists()


# report command


def test_report_digest_of_a_calibration_run(tmp_path):
    _, cal_dir = run_cli(tmp_path, "calibrate", CALIBRATE_BASE, out="cal")
    doc = {"run_dir": str(cal_dir)}
    code, rep_dir = run_cli(tmp_path, "report", doc, out="rep")
    assert code == 0
    digest = json.loads((rep_dir / "report.json").read_text())
    assert digest["source_command"] == "calibrate"
    assert digest["source_outputs"] == ["trace.csv", "summary.json", "predictor.json"]
    assert digest["metrics"]["calibration"]["gate_passed"] is True
    assert digest["metrics"]["calibration"]["terminal"] == "calibrated"


def test_report_requires_a_manifest(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "report", {"run_dir": str(tmp_path / "empty")})
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


# process-level entry


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        {"instance": "lower_bound", "n": 16, "d": 4, "epsilon": 0.2, "world": 1, "seed": 0},
    )
    out = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "decal.cli", "synth", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert "dataset.csv" in proc.stdout
    assert (out / "manifest.json").is_file()
