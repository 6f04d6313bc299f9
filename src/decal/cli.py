"""Command-line entry point.

Five commands (calibrate, audit, synth, experiment, report), each driven by
a flat JSON config parsed strictly: unknown keys, type mismatches, and
out-of-range values name the offending key and exit with code 2.  Exit 0
means success with every declared gate passing, 1 a gate failure, 3 a
runtime failure.  All artifacts land in the --out directory and are listed
in manifest.json, which is written last and is the only file allowed to
carry nondeterministic fields (timestamp, wall time).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .audit import AuditReport, audit, random_loss_pool
from .calibrate import HELDOUT_DELTA, RIDGE_LAMBDA, CalibConfig, run_calibration
from .experiments import (
    ExperimentResult,
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
from .model import loss_file_doc, predictor_to_doc, save_json
from .synth import gen_lower_bound, planted_bias_instance


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Strict flat-config parsing


REQUIRED = object()


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | list_int | list_float
    default: object = REQUIRED
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    exclusive_max: bool = False
    choices: tuple | None = None
    allow_none: bool = False
    min_items: int = 1  # list kinds only


def _coerce_scalar(key: str, value, kind: str):
    if isinstance(value, bool):
        raise ConfigError(f"config key {key!r}: expected {kind}, got a boolean")
    if kind == "int":
        if not isinstance(value, int):
            raise ConfigError(f"config key {key!r}: expected an integer")
        return value
    if kind == "float":
        if not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r}: expected a number")
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r}: must be finite, got {value}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r}: expected a string")
        return value
    raise AssertionError(kind)


def _check_range(key: str, value, f: Field) -> None:
    if f.minimum is not None:
        if f.exclusive_min and not value > f.minimum:
            raise ConfigError(f"config key {key!r}: must be > {f.minimum}")
        if not f.exclusive_min and value < f.minimum:
            raise ConfigError(f"config key {key!r}: must be >= {f.minimum}")
    if f.maximum is not None:
        if f.exclusive_max and not value < f.maximum:
            raise ConfigError(f"config key {key!r}: must be < {f.maximum}")
        if not f.exclusive_max and value > f.maximum:
            raise ConfigError(f"config key {key!r}: must be <= {f.maximum}")


def _validate_field(key: str, value, f: Field):
    if value is None:
        if f.allow_none:
            return None
        raise ConfigError(f"config key {key!r}: null is not allowed")
    if f.kind.startswith("list_"):
        if not isinstance(value, list) or len(value) < f.min_items:
            raise ConfigError(
                f"config key {key!r}: expected a list of at least {f.min_items} items"
            )
        item_kind = f.kind.removeprefix("list_")
        out = []
        for item in value:
            item = _coerce_scalar(key, item, item_kind)
            _check_range(key, item, f)
            out.append(item)
        return out
    value = _coerce_scalar(key, value, f.kind)
    if f.choices is not None and value not in f.choices:
        raise ConfigError(f"config key {key!r}: must be one of {sorted(f.choices)}")
    _check_range(key, value, f)
    return value


def parse_config(doc: dict, schema) -> dict:
    """Resolve a flat config document against a schema, strictly.

    `schema` maps keys to Fields, or is a pair (key, schemas) whose schema
    the document's value at `key` selects.  Unknown keys are errors; missing
    keys take schema defaults; every value is type- and range-checked.
    Returns the fully-resolved mapping.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if isinstance(schema, tuple):
        selector, schemas = schema
        name = doc.get(selector)
        if not isinstance(name, str) or name not in schemas:
            raise ConfigError(f"config key {selector!r}: must be one of {sorted(schemas)}")
        schema = schemas[name]
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown config key: {key!r}")
    resolved = {}
    for key, f in schema.items():
        if key in doc:
            resolved[key] = _validate_field(key, doc[key], f)
        elif f.default is REQUIRED:
            raise ConfigError(f"missing required config key: {key!r}")
        else:
            resolved[key] = f.default
    return resolved


KERNEL_FIELDS = {
    "kernel_kind": Field("str", choices=KERNEL_KINDS),
    "kernel_dim": Field("int", minimum=1),
    "R2": Field("float", minimum=0.0, exclusive_min=True),
}

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
    "R1": Field("float", default=1.0, minimum=0.0, exclusive_min=True),
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
    "R1": Field("float", default=1.0, minimum=0.0, exclusive_min=True),
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
        "R1": Field("float", default=1.0, minimum=0.0, exclusive_min=True),
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
        "R1": Field("float", default=1.0, minimum=0.0, exclusive_min=True),
        "seed": Field("int", default=0, minimum=0),
    },
    "regret": {
        "experiment": Field("str", choices=("regret",)),
        "epsilon": Field("float", default=0.1, minimum=0.0, exclusive_min=True),
        "beta": Field("float", default=20.0, minimum=0.0, exclusive_min=True),
        "R1": Field("float", default=1.0, minimum=0.0, exclusive_min=True),
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
    """Replace non-finite floats with None so emitted JSON is standard."""
    if isinstance(doc, dict):
        return {k: _sanitize(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_sanitize(v) for v in doc]
    if isinstance(doc, np.floating):
        doc = float(doc)
    if isinstance(doc, np.integer):
        doc = int(doc)
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
        with open(self._file(name), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
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


def _float_cell(v) -> str:
    return repr(float(v))


def _matrix_csv(header: list[str], arrays: list[np.ndarray]) -> list[list[str]]:
    rows = [header]
    mat = np.hstack(arrays)
    for row in mat:
        rows.append([_float_cell(v) for v in row])
    return rows


# ---------------------------------------------------------------------------
# Command runners


@contextmanager
def _config_errors():
    """A ValueError raised while building from parsed config values is a
    configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    """The run config of a calibrate or regret config."""
    keys = ("epsilon", "beta", "R1", "R2", "n_actions", "algorithm", "audit_batch_size",
            "pool_size", "heldout_size", "seed")
    with _config_errors():
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


def audit_report_doc(report: AuditReport, approx_offset: float) -> dict:
    """The report document schema for audit outcomes.

    decce_adjusted folds a declared representation-error offset into the
    estimate, for loss classes only approximately inside the span.
    """
    return {
        "found": report.found,
        "empirical_gap": report.empirical_gap,
        "threshold": report.threshold,
        "n_used": report.n_used,
        "candidate_pool_size": report.candidate_pool_size,
        "witness_loss_id": report.witness_loss.loss_id,
        "witness_lossprime_id": report.witness_lossprime.loss_id,
        "approx_offset": approx_offset,
        "decce_adjusted": report.empirical_gap + approx_offset,
    }


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
    rd.write_json("report.json", audit_report_doc(report, cfg["approx_offset"]))
    if report.found:
        rd.write_json("witness_loss.json", loss_file_doc(report.witness_loss))
    return 0


def run_synth_command(cfg: dict, rd: RunDir) -> int:
    if cfg["instance"] == "lower_bound":
        inst = gen_lower_bound(cfg["d"], cfg["epsilon"], cfg["n"], cfg["world"], cfg["seed"])
        d = cfg["d"]
        header = [f"p{i}" for i in range(d)] + [f"y{i}" for i in range(d)]
        rd.write_csv("dataset.csv", _matrix_csv(header, [inst.predictions, inst.outcomes]))
        if inst.sigma is not None:
            rd.write_csv(
                "sigma.csv",
                [[f"s{i}" for i in range(d)], [_float_cell(v) for v in inst.sigma]],
            )
        return 0
    inst = _planted_from_config(cfg)
    batch = inst.source(cfg["seed"]).take(cfg["n"])
    header = [f"x{i}" for i in range(batch.X.shape[1])] + [
        f"y{i}" for i in range(batch.Y.shape[1])
    ]
    rd.write_csv("dataset.csv", _matrix_csv(header, [batch.X, batch.Y]))
    return 0


def _run_convergence(*, epsilons, R2, shift_norm, seed, **params) -> ExperimentResult:
    with _config_errors():
        cells = convergence_instances(epsilons, R2=R2, shift_norm=shift_norm, seed=seed)
    return convergence_experiment(cells, shift_norm=shift_norm, seed=seed, **params)


def _run_uniform_convergence(**params) -> ExperimentResult:
    if params["reference_n"] <= max(params["n_grid"]):
        raise ConfigError("config key 'reference_n': must exceed every n_grid size")
    return uniform_convergence_experiment(**params)


def _run_regret(**cfg) -> ExperimentResult:
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
        inst.predictor, inst.source(cfg["seed"]), _calib_config(cfg), user_losses=losses
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


def run_report_command(cfg: dict, rd: RunDir) -> int:
    run_dir = Path(cfg["run_dir"])
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"config key 'run_dir': no manifest.json under {run_dir}")
    manifest = json.loads(manifest_path.read_text())
    digest: dict = {
        "source_command": manifest.get("command"),
        "source_config": manifest.get("config"),
        "source_outputs": manifest.get("outputs"),
        "metrics": {},
    }
    summary_path = run_dir / "summary.json"
    if summary_path.is_file():
        s = json.loads(summary_path.read_text())
        digest["metrics"]["calibration"] = {
            k: s.get(k)
            for k in ("terminal", "final_gap", "final_heldout_decce", "gate_passed")
        }
    results_path = run_dir / "results.json"
    if results_path.is_file():
        r = json.loads(results_path.read_text())
        digest["metrics"]["experiment"] = {
            "experiment": r.get("experiment"),
            "passed": r.get("passed"),
            "fits": r.get("fits"),
            "notes": r.get("notes"),
        }
    audit_path = run_dir / "report.json"
    if audit_path.is_file():
        a = json.loads(audit_path.read_text())
        digest["metrics"]["audit"] = {
            k: a.get(k) for k in ("found", "empirical_gap", "decce_adjusted")
        }
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
        raw = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
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
