"""Command-line interface: strict configs, artifacts, and exit codes."""

import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import decal.cli
import decal.experiments
from decal.calibrate import TRACE_COLUMNS
from decal.experiments import SLOPE_BAND, ExperimentResult
from decal.cli import (
    AUDIT_SCHEMA,
    CALIBRATE_SCHEMA,
    ConfigError,
    main,
    parse_config,
)
from decal.calibrate import CalibConfig, run_calibration
from decal.kernel import KernelSpec, OutcomeDomainError
from decal.model import (
    Predictor, SimilarityBase, load_loss, load_predictor, loss_estimates,
)
from decal.synth import ArraySource, make_piecewise_linear_loss

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "configs" / "planted_bias.json"

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


@pytest.mark.parametrize("command, override, key", [
    ("calibrate", {"eta": 1.2e77}, "'eta'"),
    ("calibrate", {"eta": 1e78}, "'eta'"),
    ("calibrate", {"eta": 1e160}, "'eta'"),
    ("calibrate", {"R1": 1e200}, "'R1'"),
    ("audit", {"R1": 1.7e308}, "'R1'"),
    ("audit", {"R1": 1e200}, "'R1'"),
    ("audit", {"R1": 1.35e154}, "'R1'"),
], ids=["eta-1.2e77", "eta-1e78", "eta-1e160", "calibrate-R1-1e200", "audit-R1-1.7e308",
        "audit-R1-1e200", "audit-R1-1.35e154"])
def test_a_scale_past_the_float_range_exits_two(tmp_path, capsys, command, override, key):
    """An alg1 eta * R1 whose rows' Gram matrix squares past the float range
    failed at the first patch (exit 3, blaming fields of a file never
    loaded, with numpy warnings from 1e160 on), and an audit R1 whose square
    is not finite exited 3 or wrote a witness_loss.json that load_loss
    refuses: each is a config error naming its key, with no warning."""
    doc = dict(CALIBRATE_BASE if command == "calibrate" else AUDIT_BASE, **override)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out_dir = run_cli(tmp_path, command, doc)
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err and "Warning" not in err and not caught
    assert not out_dir.exists()


def test_the_largest_scales_still_run(tmp_path):
    """Just inside both bounds: an alg1 eta * R1 of 1e76 calibrates and an
    audit R1 of 1e100 writes a witness_loss.json that loads."""
    doc = dict(CALIBRATE_BASE, eta=1e76, max_iters=3)
    code, _ = run_cli(tmp_path, "calibrate", doc, out="cal")
    assert code in (0, 1)
    code, out_dir = run_cli(tmp_path, "audit", dict(AUDIT_BASE, R1=1e100), out="aud")
    assert code == 0
    assert load_loss(out_dir / "witness_loss.json").R1 == 1e100


@pytest.mark.parametrize("doc, key", [
    ({"experiment": "sample_complexity", "eps_grid": [0.5, 0.4, 1e100]}, "'eps_grid'"),
    ({"experiment": "sample_complexity", "eps_grid": [0.5, 0.4, 5e-324]}, "'eps_grid'"),
    ({"experiment": "sample_complexity", "eps_grid": [0.5, 0.4, 1e-150]}, "'eps_grid'"),
    ({"experiment": "convergence", "epsilons": [1e100]}, "'epsilons'"),
    ({"experiment": "convergence", "epsilons": [0.3, 1e100]}, "'epsilons'"),
    ({"experiment": "regret", "epsilon": 1e100}, "'epsilon'"),
], ids=["sweep-1e100", "sweep-5e-324", "sweep-1e-150", "convergence-1e100",
        "convergence-second-cell", "regret-1e100"])
def test_an_experiment_whose_run_config_is_refused_exits_two(tmp_path, monkeypatch, capsys,
                                                             doc, key):
    """Every cell's run config is built before the first calibration, so an
    epsilon whose derived eta (or audit batch size) is refused is a config
    error naming its key: the sweep ran its first cells and exited 3 (at
    1e-150, at the first draw of its 2.4e151-sample audit batch), the
    convergence experiment wrote a failed cell and exited 1, and regret's
    message named no key."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a calibration started")

    monkeypatch.setattr(decal.cli, "run_calibration", recording)
    monkeypatch.setattr(decal.experiments, "run_calibration", recording)
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config key {key}" in err
    assert not out_dir.exists()
    assert calls == []


def test_an_audit_witness_that_would_not_load_is_refused(tmp_path, capsys):
    """An audit R1 just inside the config bound can cut a witness whose
    column norms load_loss cannot sum (their partial sums pass the float
    max), which exited 0 with a witness_loss.json that does not load: the
    command reads the file's document back first, refuses it with exit 3,
    and writes nothing.  A smaller R1 still writes a file that loads."""
    doc = dict(AUDIT_BASE, epsilon=0.05, n=256, pool_size=4, seed=1)
    code, out_dir = run_cli(tmp_path, "audit", dict(doc, R1=1.3e154), out="huge")
    assert code == 3
    assert "columns must have finite norms" in capsys.readouterr().err
    assert not out_dir.exists()
    code, out_dir = run_cli(tmp_path, "audit", dict(doc, R1=1e150), out="large")
    assert code == 0
    assert load_loss(out_dir / "witness_loss.json").R1 == 1e150


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


def test_calibrate_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """`decal calibrate` on the fixture config, alg1 and alg2, each run in a
    fresh interpreter under OPENBLAS_NUM_THREADS 1 and 2, writes the same
    trace.csv, summary.json and predictor.json bytes."""
    doc = json.loads(FIXTURE.read_text())
    for alg in ("alg1", "alg2"):
        cfg = write_config(tmp_path, dict(doc, algorithm=alg), name=f"{alg}.json")
        outs = [tmp_path / f"{alg}-{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       OPENBLAS_NUM_THREADS=str(threads))
            proc = subprocess.run(
                [sys.executable, "-m", "decal.cli", "calibrate", "--config", cfg,
                 "--out", str(out), "--quiet"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("trace.csv", "summary.json", "predictor.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (alg, name)


def test_a_decision_alone_agrees_with_it_inside_a_batch(tmp_path):
    """A decision's last bits depend on the REPLAY_BLOCK rows it is replayed
    with (README), not on its context alone, but a context decided alone
    agrees with itself inside a 1,000-context batch to 1e-14 of the row's
    largest estimate: on the fixture's alg1 predictor and on a 12-patch
    chain over continuous outcomes."""
    code, out = run_cli(tmp_path, "calibrate", json.loads(FIXTURE.read_text()))
    assert code == 0
    spec = KernelSpec("min", 1, 1.5)
    g = np.random.default_rng(8)
    base = SimilarityBase(spec, g.uniform(0.0, 0.4, (40, 1)), g.standard_normal((40, 2)), 0.5)
    source = ArraySource(g.standard_normal((4000, 2)), g.uniform(0.3, 0.9, (4000, 1)))
    config = CalibConfig(epsilon=0.05, beta=8.0, R1=1.0, R2=1.5, n_actions=2, max_iters=12,
                         audit_batch_size=96, pool_size=8, heldout_size=128, seed=3)
    chain, _ = run_calibration(Predictor(spec, base), source, config)
    assert len(chain.patches) == 12
    loss = make_piecewise_linear_loss([0.8, -0.3], [-0.5, 0.6], [0.3, 0.7], 2, spec)
    X = g.standard_normal((1000, 2))
    for p in (load_predictor(out / "predictor.json"), chain):
        together = loss_estimates(p, X, loss)[::5]
        alone = np.vstack([loss_estimates(p, x[None], loss) for x in X[::5]])
        scale = np.abs(together).max(axis=1, keepdims=True)
        assert np.all(np.abs(alone - together) <= 1e-14 * scale)


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
    "experiment-regret": {"experiment": "regret", "loss_count": 4, "regret_batch_size": 2048},
}


@pytest.mark.parametrize("case", sorted(SEEDED_CONFIGS))
def test_seed_override_reaches_every_seeded_command(tmp_path, case):
    command = case.split("-")[0]
    code, out_dir = run_cli(tmp_path, command, SEEDED_CONFIGS[case], extra=("--seed", "9"))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    if command == "experiment":  # a regret result recorded seed 0 whatever the run's seed
        assert json.loads((out_dir / "results.json").read_text())["seed"] == 9


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
    assert spec_loss.span.spec.kind == "min"
    assert np.all(spec_loss.span.norms() <= 1.0 + 1e-9)


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


def test_json_writer_takes_numpy_scalars(tmp_path):
    rd = decal.cli.RunDir(tmp_path / "out", quiet=True)
    rd.write_json("a.json", {"ok": np.bool_(True), "n": np.int64(3),
                             "x": [np.float64(0.25), np.float64("inf")]})
    doc = json.loads((tmp_path / "out" / "a.json").read_text())
    assert doc == {"ok": True, "n": 3, "x": [0.25, None]}


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


def test_experiment_csv_writes_numpy_floats_as_numbers(tmp_path, monkeypatch):
    def harness(**params):
        return ExperimentResult(
            "demo", seed=0, passed=True,
            cells=[{"gap": np.float64(0.25), "n": np.int64(10)}],
            fits={"alg1": {"slope": np.float64(-0.5)}, "bound": np.float64(1.5)},
        )

    monkeypatch.setitem(decal.cli.EXPERIMENTS, "distinguishing", harness)
    doc = {"experiment": "distinguishing", "d_grid": [4], "n_grid": [2]}
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 0
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert rows[1:] == [
        "demo,0,gap,0.25",
        "demo,0,n,10",
        "demo,,fit.alg1.slope,-0.5",
        "demo,,fit.bound,1.5",
        "demo,,passed,True",
    ]


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


@pytest.mark.parametrize(
    "key, doc",
    [
        ("n_grid", {"experiment": "uniform_convergence", "n_grid": [8, 8, 8],
                    "reference_n": 64, "resamples": 2, "pool_size": 1}),
        ("eps_grid", {"experiment": "sample_complexity", "eps_grid": [0.3, 0.3, 0.3]}),
        ("epsilons", {"experiment": "convergence", "epsilons": [0.35, 0.35]}),
        ("d_grid", {"experiment": "distinguishing", "d_grid": [4, 4], "n_grid": [2]}),
        ("n_grid", {"experiment": "distinguishing", "d_grid": [4], "n_grid": [2, 2]}),
    ],
    ids=["uniform-n_grid", "eps_grid", "epsilons", "d_grid", "distinguishing-n_grid"],
)
def test_experiment_repeated_grid_items_exit_two(tmp_path, capsys, key, doc):
    # every list key rejects a repeated item before anything runs: a
    # repeated size would leave a decay fit singular
    code, out_dir = run_cli(tmp_path, "experiment", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "distinct" in err
    assert not out_dir.exists()


# report command


# command: (config, its outputs, digested file, metrics key, digested fields,
# values the fixture run must show); a report run is digested to no metrics
REPORT_SOURCES = {
    "calibrate": (
        CALIBRATE_BASE, ["trace.csv", "summary.json", "predictor.json"], "summary.json",
        "calibration", {"terminal", "final_gap", "final_heldout_decce", "gate_passed"},
        {"terminal": "calibrated", "gate_passed": True},
    ),
    "experiment": (
        {"experiment": "convergence", "epsilons": [0.35], "audit_batch_size": 96,
         "heldout_size": 128},
        ["results.json", "results.csv"], "results.json",
        "experiment", {"experiment", "passed", "fits", "notes"},
        {"experiment": "convergence", "passed": True},
    ),
    "audit": (
        AUDIT_BASE, ["report.json", "witness_loss.json"], "report.json",
        "audit", {"found", "empirical_gap", "decce_adjusted"}, {"found": True},
    ),
    "report": (None, ["report.json"], None, None, None, None),
}


@pytest.mark.parametrize("command", sorted(REPORT_SOURCES))
def test_report_digest_of_a_run(tmp_path, command):
    doc, outputs, name, key, fields, expected = REPORT_SOURCES[command]
    if command == "report":
        # a report of an audit run: both write report.json
        _, audit_dir = run_cli(tmp_path, "audit", REPORT_SOURCES["audit"][0], out="audit")
        doc = {"run_dir": str(audit_dir)}
    _, src_dir = run_cli(tmp_path, command, doc, out="src")
    code, rep_dir = run_cli(tmp_path, "report", {"run_dir": str(src_dir)}, out="rep")
    assert code == 0
    digest = json.loads((rep_dir / "report.json").read_text())
    manifest = json.loads((src_dir / "manifest.json").read_text())
    assert digest["source_command"] == command
    assert digest["source_config"] == manifest["config"]
    assert digest["source_outputs"] == outputs
    if key is None:
        assert digest["metrics"] == {}
        return
    source = json.loads((src_dir / name).read_text())
    assert digest["metrics"] == {key: {k: source[k] for k in fields}}
    assert expected.items() <= digest["metrics"][key].items()


def test_report_requires_a_manifest(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "report", {"run_dir": str(tmp_path / "empty")})
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, key", [
    ("manifest.json", "[1, 2]", "'manifest.json'"),
    ("manifest.json", "{not json", "'manifest.json'"),
    ("summary.json", "[]", "'summary.json'"),
], ids=["manifest-list", "manifest-not-json", "summary-list"])
def test_report_of_a_malformed_run_dir_exits_two(tmp_path, capsys, name, text, key):
    """A run directory whose manifest or digested file does not read is a
    config error naming run_dir and the file, and no report is written;
    these exited 3 with a Python error naming neither."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    manifest = {"command": "calibrate", "config": {}, "outputs": ["summary.json"]}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    (run_dir / name).write_text(text)
    code, out_dir = run_cli(tmp_path, "report", {"run_dir": str(run_dir)})
    assert code == 2
    err = capsys.readouterr().err
    assert "'run_dir'" in err and key in err
    assert not out_dir.exists()


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


# the experiment command in a fresh interpreter where scipy cannot be imported
NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import decal.cli
args = sys.argv[1:]
codes = [decal.cli.main(["experiment", "--config", cfg, "--out", out, "--quiet"])
         for cfg, out in zip(args[::2], args[1::2])]
print(json.dumps(codes))
"""

NO_SCIPY_CONFIGS = {
    # reaches clopper_pearson
    "distinguishing": {"experiment": "distinguishing", "d_grid": [16], "n_grid": [2],
                       "trials": 100, "decce_samples": 100},
    # reaches the normal quantile of the twin-intercept band
    "uniform_convergence": {"experiment": "uniform_convergence", "n_grid": [32, 128, 512],
                            "reference_n": 2048, "resamples": 8, "pool_size": 4},
}


def test_experiments_run_without_scipy(tmp_path):
    args = []
    for name, doc in NO_SCIPY_CONFIGS.items():
        args += [write_config(tmp_path, doc, name=f"{name}.json"), str(tmp_path / name)]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0]
    cells = json.loads((tmp_path / "distinguishing" / "results.json").read_text())["cells"]
    assert all(0.0 <= c["ci_lo"] < c["ci_hi"] <= 1.0 for c in cells)
    notes = json.loads((tmp_path / "uniform_convergence" / "results.json").read_text())["notes"]
    assert notes["intercept_gap"] <= notes["intercept_band"]


def test_runtime_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    assert "scipy" not in declared
    allowed = set(sys.stdlib_module_names) | declared | {"decal"}
    for path in sorted((ROOT / "src" / "decal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
