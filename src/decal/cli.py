"""Command-line entry point.

Five commands (calibrate, audit, synth, experiment, report), each driven by
a flat JSON config parsed strictly: unknown keys, type mismatches,
out-of-range values and repeated list items name the offending key and exit
with code 2.  Exit 0 means success with every declared gate passing, 1 a
gate failure, 3 a runtime failure.  All artifacts land in the --out
directory and are listed in manifest.json, which is written last and is the
only file allowed to carry nondeterministic fields (timestamp, wall time).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .audit import audit, random_loss_pool
from .calibrate import HELDOUT_DELTA, RIDGE_LAMBDA, CalibConfig, run_calibration
from .experiments import (
    ExperimentResult,
    _convergence_config,
    _sweep_config,
    convergence_experiment,
    convergence_instances,
    distinguishing_experiment,
    hoeffding_halfwidth,
    regret_experiment,
    sample_complexity_instances,
    sample_complexity_sweep,
    uniform_convergence_experiment,
)
from .kernel import KERNEL_KINDS, KernelSpec
from .model import Field, load_json, loss_file_doc, predictor_to_doc, read_field, save_json
from .synth import gen_lower_bound, planted_bias_instance


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Strict flat-config parsing


def parse_config(doc: dict, schema) -> dict:
    """Resolve a flat config document against a schema, strictly.

    `schema` maps keys to `model.Field`s, or is a pair (key, schemas) whose
    schema the document's value at `key` selects.  Unknown keys are errors;
    every value is read by `model.read_field`, so a missing key takes the
    schema default (or is refused when it has none) and every value is
    type- and range-checked.  A refusal is a ConfigError naming the key.
    Returns the fully-resolved mapping.
    """
    with _config_errors():
        if isinstance(schema, tuple):
            selector, schemas = schema
            schema = schemas[read_field(doc, selector, Field("str", choices=tuple(schemas)),
                                        "config key ")]
        for key in doc:
            if key not in schema:
                raise ConfigError(f"unknown config key: {key!r}")
        return {key: read_field(doc, key, f, "config key ") for key, f in schema.items()}


KERNEL_FIELDS = {
    "kernel_kind": Field("str", choices=KERNEL_KINDS),
    "kernel_dim": Field("int", minimum=1),
    "R2": Field("float", minimum=0.0, exclusive_min=True),
}

# a loss's norm bound, whose square must be finite, as a loaded loss's norms must be
R1 = Field("float", default=1.0, minimum=0.0, exclusive_min=True,
           maximum=math.sqrt(sys.float_info.max))

PLANTED_FIELDS = {
    "shift_norm": Field("float", default=0.3, minimum=0.0),
    "support_size": Field("int", default=24, minimum=2),
    "context_dim": Field("int", default=2, minimum=1),
    "context_kind": Field("str", default="gaussian", choices=("gaussian", "uniform")),
    "instance_seed": Field("int", default=17, minimum=0),
}

CALIBRATE_SCHEMA = {
    **KERNEL_FIELDS,
    **PLANTED_FIELDS,
    "epsilon": Field("float", minimum=0.0, exclusive_min=True),
    "beta": Field("float", minimum=0.0),
    "R1": R1,
    "n_actions": Field("int", default=2, minimum=1),
    "algorithm": Field("str", default="alg1", choices=("alg1", "alg2")),
    "eta": Field("float", default=None, minimum=0.0, exclusive_min=True, allow_none=True),
    "max_iters": Field("int", default=None, minimum=1, allow_none=True),
    "audit_batch_size": Field("int", default=192, minimum=8),
    "pool_size": Field("int", default=32, minimum=1),
    "heldout_size": Field("int", default=768, minimum=8),
    "seed": Field("int", default=0, minimum=0),
}

AUDIT_SCHEMA = {
    **KERNEL_FIELDS,
    **PLANTED_FIELDS,
    "epsilon": Field("float", minimum=0.0, exclusive_min=True),
    "beta": Field("float", minimum=0.0),
    "R1": R1,
    "n_actions": Field("int", default=2, minimum=1),
    "pool_size": Field("int", default=32, minimum=1),
    "n": Field("int", default=512, minimum=8),
    "approx_offset": Field("float", default=0.0, minimum=0.0),
    "seed": Field("int", default=0, minimum=0),
}

SYNTH_COMMON = {
    "instance": Field("str", choices=("planted_bias", "lower_bound")),
    "n": Field("int", minimum=1),
    "seed": Field("int", default=0, minimum=0),
}

SYNTH_PLANTED_SCHEMA = {**SYNTH_COMMON, **KERNEL_FIELDS, **PLANTED_FIELDS}

SYNTH_LOWER_SCHEMA = {
    **SYNTH_COMMON,
    "d": Field("int", minimum=2),
    "epsilon": Field("float", minimum=0.0, maximum=0.5, exclusive_min=True, exclusive_max=True),
    "world": Field("int", choices=(1, 2)),
}

EXPERIMENT_SCHEMAS = {
    "convergence": {
        "experiment": Field("str", choices=("convergence",)),
        "epsilons": Field("list_float", minimum=0.0, exclusive_min=True),
        "beta": Field("float", default=4.0, minimum=0.0),
        "R1": R1,
        "R2": Field("float", default=1.5, minimum=0.0, exclusive_min=True),
        "shift_norm": Field("float", default=0.3, minimum=0.0),
        "n_actions": Field("int", default=2, minimum=1),
        "audit_batch_size": Field("int", default=192, minimum=8),
        "heldout_size": Field("int", default=512, minimum=8),
        "seed": Field("int", default=0, minimum=0),
    },
    "uniform_convergence": {
        "experiment": Field("str", choices=("uniform_convergence",)),
        "n_grid": Field("list_int", minimum=8, min_items=3),
        "pool_size": Field("int", default=16, minimum=1),
        "reference_n": Field("int", default=8192, minimum=64),
        "resamples": Field("int", default=20, minimum=2),
        "beta": Field("float", default=2.0, minimum=0.0),
        "R1": R1,
        "seed": Field("int", default=0, minimum=0),
    },
    "regret": {
        "experiment": Field("str", choices=("regret",)),
        "epsilon": Field("float", default=0.1, minimum=0.0, exclusive_min=True),
        "beta": Field("float", default=20.0, minimum=0.0, exclusive_min=True),
        "R1": R1,
        "R2": Field("float", default=1.5, minimum=0.0, exclusive_min=True),
        "n_actions": Field("int", default=2, minimum=1),
        "loss_count": Field("int", default=16, minimum=1),
        "regret_batch_size": Field("int", default=16384, minimum=64),
        "shift_norm": Field("float", default=0.3, minimum=0.0),
        "algorithm": Field("str", default="alg1", choices=("alg1", "alg2")),
        "audit_batch_size": Field("int", default=192, minimum=8),
        "pool_size": Field("int", default=32, minimum=1),
        "heldout_size": Field("int", default=768, minimum=8),
        "seed": Field("int", default=0, minimum=0),
    },
    "distinguishing": {
        "experiment": Field("str", choices=("distinguishing",)),
        "d_grid": Field("list_int", minimum=2),
        "n_grid": Field("list_int", minimum=1),
        "epsilon": Field("float", default=0.2, minimum=0.0, maximum=1.0 / 3.0,
                         exclusive_min=True, exclusive_max=True),
        "trials": Field("int", default=1000, minimum=100),
        "decce_samples": Field("int", default=1000, minimum=100),
        "seed": Field("int", default=0, minimum=0),
    },
    "sample_complexity": {
        "experiment": Field("str", choices=("sample_complexity",)),
        "eps_grid": Field("list_float", minimum=0.0, exclusive_min=True, min_items=3),
        "shift_norm": Field("float", default=0.3, minimum=0.0),
        "beta": Field("float", default=4.0, minimum=0.0),
        "n_actions": Field("int", default=2, minimum=1),
        "seed": Field("int", default=0, minimum=0),
    },
}

REPORT_SCHEMA = {"run_dir": Field("str")}

SCHEMAS = {
    "calibrate": CALIBRATE_SCHEMA,
    "audit": AUDIT_SCHEMA,
    "synth": (
        "instance",
        {"planted_bias": SYNTH_PLANTED_SCHEMA, "lower_bound": SYNTH_LOWER_SCHEMA},
    ),
    "experiment": ("experiment", EXPERIMENT_SCHEMAS),
    "report": REPORT_SCHEMA,
}


# ---------------------------------------------------------------------------
# Output plumbing


def _sanitize(doc):
    """Replace numpy scalars with Python ones and non-finite floats with
    None, so emitted JSON is standard."""
    if isinstance(doc, dict):
        return {k: _sanitize(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_sanitize(v) for v in doc]
    if isinstance(doc, np.generic):
        doc = doc.item()
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


class RunDir:
    """Output directory with an output ledger; manifest.json goes last.

    The directory is created on the first write, so a run that fails before
    writing anything leaves no directory behind.
    """

    def __init__(self, out: Path, quiet: bool):
        self.path = out
        self.quiet = quiet
        self.outputs: list[str] = []
        self.t0 = time.monotonic()

    def _file(self, name: str) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path / name

    def write_json(self, name: str, doc: dict) -> None:
        save_json(self._file(name), _sanitize(doc))
        self.outputs.append(name)

    def write_csv(self, name: str, rows) -> None:
        """Rows of raw values: every float cell, numpy floats included, is
        written as repr(float(v)), which round-trips; other cells as csv
        writes them."""
        with open(self._file(name), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                for row in rows
            )
        self.outputs.append(name)

    def finish(self, command: str, config: dict) -> None:
        manifest = {
            "command": command,
            "config": _sanitize(config),
            "outputs": self.outputs,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_ms": (time.monotonic() - self.t0) * 1000.0,
        }
        save_json(self._file("manifest.json"), manifest)
        if not self.quiet:
            names = ", ".join(self.outputs + ["manifest.json"])
            print(f"{command}: wrote {names} under {self.path}")


# ---------------------------------------------------------------------------
# Command runners


@contextmanager
def _config_errors(where: str = ""):
    """A ValueError or OverflowError raised while reading a config, or while
    building from its parsed values, is a configuration error, named after `where`."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _planted(kernel: tuple, **kwargs):
    """A planted instance from parsed config values."""
    with _config_errors():
        return planted_bias_instance(KernelSpec(*kernel), **kwargs)


def _planted_from_config(cfg: dict):
    return _planted(
        (cfg["kernel_kind"], cfg["kernel_dim"], cfg["R2"]),
        context_dim=cfg["context_dim"],
        support_size=cfg["support_size"],
        shift_norm=cfg["shift_norm"],
        seed=cfg["instance_seed"],
        context_kind=cfg["context_kind"],
    )


def _calib_config(cfg: dict) -> CalibConfig:
    """The run config of a calibrate or regret config; with eta unset, refusals name 'epsilon'."""
    keys = ("epsilon", "beta", "R1", "R2", "n_actions", "algorithm", "audit_batch_size",
            "pool_size", "heldout_size", "seed")
    with _config_errors("" if cfg.get("eta") else "config key 'epsilon': "):
        return CalibConfig(
            eta=cfg.get("eta"), max_iters=cfg.get("max_iters"), **{k: cfg[k] for k in keys}
        )


def run_calibrate_command(cfg: dict, rd: RunDir) -> int:
    inst = _planted_from_config(cfg)
    cc = _calib_config(cfg)
    cfg.update({"eta": cc.eta, "max_iters": cc.max_iters, "ridge_lambda": RIDGE_LAMBDA})
    calibrated, trace = run_calibration(inst.predictor, inst.source(cfg["seed"]), cc)

    rd.write_csv("trace.csv", trace.to_csv_rows())
    summary = trace.to_doc()
    summary.update(
        {
            "n_iterations": len(trace.iterations),
            "gate_passed": trace.terminal == "calibrated",
            "planted_shift_norm": inst.shift_norm,
            "heldout_potential_slack": hoeffding_halfwidth(
                4.0 * cfg["R2"] ** 2, cfg["heldout_size"], HELDOUT_DELTA
            ),
        }
    )
    rd.write_json("summary.json", summary)
    rd.write_json("predictor.json", predictor_to_doc(calibrated))
    if trace.terminal == "error":
        return 3
    return 0 if trace.terminal == "calibrated" else 1


def run_audit_command(cfg: dict, rd: RunDir) -> int:
    inst = _planted_from_config(cfg)
    batch = inst.source(cfg["seed"]).take(cfg["n"])
    pool = random_loss_pool(
        inst.kernel,
        batch.Y,
        cfg["n_actions"],
        cfg["R1"],
        cfg["pool_size"],
        np.random.default_rng(cfg["seed"] + 1),
    )
    report = audit(
        inst.predictor,
        batch,
        epsilon=cfg["epsilon"],
        pool=pool,
        beta=cfg["beta"],
        R1=cfg["R1"],
    )
    witness = loss_file_doc(report.witness_loss) if report.found else None  # before any write
    # decce_adjusted folds a declared representation-error offset into the
    # estimate, for loss classes only approximately inside the span
    offset = cfg["approx_offset"]
    rd.write_json("report.json", {
        "found": report.found, "empirical_gap": report.empirical_gap,
        "threshold": report.threshold, "n_used": report.n_used,
        "candidate_pool_size": report.candidate_pool_size,
        "witness_loss_id": report.witness_loss.loss_id,
        "witness_lossprime_id": report.witness_lossprime.loss_id,
        "approx_offset": offset, "decce_adjusted": report.empirical_gap + offset,
    })
    if witness is not None:
        rd.write_json("witness_loss.json", witness)
    return 0


def run_synth_command(cfg: dict, rd: RunDir) -> int:
    if cfg["instance"] == "lower_bound":
        inst = gen_lower_bound(cfg["d"], cfg["epsilon"], cfg["n"], cfg["world"], cfg["seed"])
        d = cfg["d"]
        header = [f"p{i}" for i in range(d)] + [f"y{i}" for i in range(d)]
        rd.write_csv("dataset.csv", [header, *np.hstack([inst.predictions, inst.outcomes])])
        if inst.sigma is not None:
            rd.write_csv("sigma.csv", [[f"s{i}" for i in range(d)], inst.sigma])
        return 0
    inst = _planted_from_config(cfg)
    batch = inst.source(cfg["seed"]).take(cfg["n"])
    header = [f"x{i}" for i in range(batch.X.shape[1])] + [
        f"y{i}" for i in range(batch.Y.shape[1])
    ]
    rd.write_csv("dataset.csv", [header, *np.hstack([batch.X, batch.Y])])
    return 0


def _run_convergence(*, epsilons, R2, shift_norm, seed, **params) -> ExperimentResult:
    with _config_errors():
        cells = convergence_instances(epsilons, R2=R2, shift_norm=shift_norm, seed=seed)
    for i, (eps, inst) in enumerate(cells):  # every run config, before any calibration
        with _config_errors(f"config key 'epsilons': {eps!r}: "):
            _convergence_config(i, eps, inst, seed=seed, **params)
    return convergence_experiment(cells, shift_norm=shift_norm, seed=seed, **params)


def _run_uniform_convergence(**params) -> ExperimentResult:
    if params["reference_n"] <= max(params["n_grid"]):
        raise ConfigError("config key 'reference_n': must exceed every n_grid size")
    return uniform_convergence_experiment(**params)


def _run_regret(**cfg) -> ExperimentResult:
    config = _calib_config(cfg)
    inst = _planted(
        ("min", 1, cfg["R2"]), context_dim=2, support_size=24,
        shift_norm=cfg["shift_norm"], seed=cfg["seed"] + 17,
    )
    spec = inst.kernel
    pool_batch = inst.source(cfg["seed"] + 5).take(512)
    losses = random_loss_pool(
        spec, pool_batch.Y, cfg["n_actions"], cfg["R1"], cfg["loss_count"],
        np.random.default_rng(cfg["seed"] + 3), id_prefix="regret",
    )
    calibrated, trace = run_calibration(
        inst.predictor, inst.source(cfg["seed"]), config, user_losses=losses
    )
    batch = inst.source(cfg["seed"] + 9).take(cfg["regret_batch_size"])
    result = regret_experiment(
        calibrated, list(losses), batch,
        epsilon=cfg["epsilon"], beta=cfg["beta"], R1=cfg["R1"], R2=cfg["R2"],
    )
    result.notes["calibration_terminal"] = trace.terminal
    result.notes["calibration_iterations"] = len(trace.iterations)
    result.passed = result.passed and trace.terminal == "calibrated"
    return result


def _run_sample_complexity(*, eps_grid, shift_norm, seed, **params) -> ExperimentResult:
    with _config_errors():
        cells = sample_complexity_instances(eps_grid, seed=seed, shift_norm=shift_norm)
    for i, (eps, inst) in enumerate(cells):  # every run config, before any calibration
        with _config_errors(f"config key 'eps_grid': {eps!r}: "):
            for alg in ("alg1", "alg2"):
                _sweep_config(alg, i, eps, inst, seed=seed, **params)
    return sample_complexity_sweep(cells, seed=seed, **params)


# Each harness takes its schema's keys, less "experiment", as keywords.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "convergence": _run_convergence,
    "uniform_convergence": _run_uniform_convergence,
    "regret": _run_regret,
    "distinguishing": distinguishing_experiment,
    "sample_complexity": _run_sample_complexity,
}


def run_experiment_command(cfg: dict, rd: RunDir) -> int:
    params = dict(cfg)
    result = EXPERIMENTS[params.pop("experiment")](**params)
    rd.write_json("results.json", result.to_doc())
    rd.write_csv("results.csv", result.to_csv_rows())
    return 0 if result.passed else 1


# What a report digests from a run of each command: the file, its metrics key
# and the fields it takes.  Keyed by the manifest's command, not by which files
# exist, since an audit and a report both write report.json; a command with no
# entry (synth, report) contributes no metrics.
DIGEST_SOURCES = {
    "calibrate": ("summary.json", "calibration",
                  ("terminal", "final_gap", "final_heldout_decce", "gate_passed")),
    "experiment": ("results.json", "experiment", ("experiment", "passed", "fits", "notes")),
    "audit": ("report.json", "audit", ("found", "empirical_gap", "decce_adjusted")),
}


# The manifest fields a report copies, each as source_<key>.
MANIFEST = {"command": Field("str"), "config": Field("object"),
            "outputs": Field("list_str", min_items=0)}


def run_report_command(cfg: dict, rd: RunDir) -> int:
    run_dir = Path(cfg["run_dir"])
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"config key 'run_dir': no manifest.json under {run_dir}")
    with _config_errors("config key 'run_dir': "):
        manifest = load_json(manifest_path)
        digest: dict = {f"source_{k}": read_field(manifest, k, f, "manifest.json ")
                        for k, f in MANIFEST.items()}
        digest["metrics"] = {}
        source = DIGEST_SOURCES.get(digest["source_command"])
        if source is not None:
            name, key, fields = source
            path = run_dir / name
            if path.is_file():
                doc = load_json(path)
                digest["metrics"][key] = {k: doc.get(k) for k in fields}
    rd.write_json("report.json", digest)
    return 0


# Each runner takes the resolved config, to which it may add derived values
# for the manifest, and returns the exit code.
COMMANDS: dict[str, Callable[[dict, RunDir], int]] = {
    "calibrate": run_calibrate_command,
    "audit": run_audit_command,
    "synth": run_synth_command,
    "experiment": run_experiment_command,
    "report": run_report_command,
}


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decal",
        description="Decision-calibration toolkit: calibrate, audit, synth, experiment, report.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a flat JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the closing summary line")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        raw = load_json(args.config)
    except (OSError, ValueError) as exc:  # no file, no JSON, or JSON that is no object
        print(f"error: config {args.config}: {exc}", file=sys.stderr)
        return 2
    rd = RunDir(Path(args.out), args.quiet)
    try:
        cfg = parse_config(raw, SCHEMAS[args.command])
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = args.seed
        code = COMMANDS[args.command](cfg, rd)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the contract maps these to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    rd.finish(args.command, cfg)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
