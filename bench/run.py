"""Seeded benchmark for decal.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts bench/worker.py in a fresh
process with BLAS pinned to one thread (the variables must be set before
numpy loads OpenBLAS), prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload twice
for half of --seconds each, untraced and then traced, and reports the
per-layer metrics of the traced run (per measured cycle) plus the tracing
overhead between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKER_GRACE_S = 60.0  # set-up plus the last cycle may overrun --seconds
# setup_s takes the median import time of the worker and of this many fresh
# processes that only import, started before and again after the worker: one
# import alone moved by 40% between runs, in phases of the host's load.
IMPORT_PROBES = 2
LAYERS = ("kernel", "model", "audit", "calibrate", "synth", "experiments", "cli")
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# The worker names its finer numbers <what>_<unit>[.<variant>].
EXTRA_UNITS = (("_ms", "ms"), ("_per_s", "1/s"), ("_bytes", "B"), ("_s", "s"))

# Span metrics (calls and self time per measured cycle) of the traced run.
SPANS = (
    ("kernel.span_gram", ("calls", "self_s")),
    ("kernel.gram", ("calls", "self_s")),
    ("kernel.compress", ("calls", "self_s")),
    ("kernel.element", ("count", "self_s")),
    ("model.coefficients", ("calls", "self_s")),
    ("model.project_rows", ("self_s",)),
    ("model.plan", ("self_s",)),
    ("model.evaluate_batch", ("calls", "self_s")),
    ("model.with_patch", ("calls",)),
    ("model.loss_estimate_columns", ("calls", "self_s")),
    ("model.smooth_best_response", ("calls", "self_s")),
    ("audit.audit", ("calls", "self_s")),
    ("audit.random_loss_pool", ("calls", "self_s")),
    ("audit.closed_form_witness", ("calls", "self_s")),
    ("audit.empirical_gap", ("calls", "self_s")),
    ("audit.rule_probabilities", ("calls", "self_s")),
    ("audit.decce_estimate", ("calls", "self_s")),
    ("calibrate.run_calibration", ("calls", "self_s")),
    ("calibrate.alg1_step", ("self_s",)),
    ("calibrate.alg2_step", ("self_s",)),
    ("calibrate.potential", ("calls", "self_s")),
    ("synth.take", ("calls", "self_s")),
    ("synth.planted_bias_instance", ("self_s",)),
    ("experiments.witness_pair_pool", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
# Counts taken at the wrapped boundaries, per measured cycle.
COUNTS = (
    ("kernel.span_gram.points", "count"),
    ("kernel.span_gram.cols", "count"),
    ("kernel.gram.entries", "count"),
    ("kernel.compress.anchors_in", "count"),
    ("kernel.compress.anchors_out", "count"),
    ("model.coefficients.rows", "count"),
    ("model.coefficients.steps", "count"),
    ("model.json.bytes", "B"),
    ("audit.audit.candidates", "count"),
    ("audit.audit.found", "count"),
    ("audit.random_loss_pool.losses", "count"),
    ("calibrate.rounds", "count"),
    ("synth.take.rows", "count"),
)


class WorkerFailed(RuntimeError):
    pass


def worker(args: list[str], timeout: float) -> dict:
    """One fresh, BLAS-pinned worker process; returns its JSON record."""
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], env=env,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def import_probes() -> list[float]:
    return [worker(["--import-probe"], WORKER_GRACE_S)["import_s"] for _ in range(IMPORT_PROBES)]


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    tmp = Path(".bench_out") / f"tmp-{os.getpid()}-{trace}"
    return worker([
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--tmp", str(tmp),
    ], seconds + WORKER_GRACE_S)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it; None when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = (p, ordered[min(n - 1, int(p / 100.0 * n))])
    return best


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rec: dict) -> dict:
    setup_s = statistics.median(rec["imports_s"]) + statistics.median(rec["setups_s"])
    return {
        "setup_s": metric(setup_s, "s"),
        "write_s": metric(statistics.median(rec["writes_s"]), "s"),
        "read_s": metric(statistics.median(rec["reads_s"]), "s"),
        "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    tr = traced["trace"]
    cycles = traced["cycles"]
    out = {}
    for name, fields in SPANS:
        for field in fields:
            if field == "self_s":
                out[f"{name}.self_s"] = metric(tr["self_s"].get(name, 0.0) / cycles, "s")
            else:
                out[f"{name}.{field}"] = metric(tr["calls"].get(name, 0) / cycles, "count")
    for name, unit in COUNTS:
        out[name] = metric(tr["counts"].get(name, 0.0) / cycles, unit)
    for name in ("calibrate.round_ms.first", "calibrate.round_ms.last"):
        samples = tr["samples"].get(name, [])
        out[name] = metric(statistics.median(samples) if samples else 0.0, "ms")
    out["model.json.save_s"] = metric(tr["json_save_s"] / cycles, "s")
    out["model.json.load_s"] = metric(tr["json_load_s"] / cycles, "s")
    out["cli.artifact_bytes"] = metric(
        sum(traced["extra"].get("artifact_bytes", [])) / cycles, "B"
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(tr["layer_self_s"][layer] / cycles, "s")
    out["bench.self_s"] = metric(tr["bench_self_s"] / cycles, "s")
    out["trace.spans"] = metric(tr["spans"] / cycles, "count")
    for key, name in (("writes_s", "write"), ("reads_s", "read")):
        plain = statistics.median(untraced[key])
        out[f"trace.overhead.{name}"] = metric(
            100.0 * (statistics.median(traced[key]) / plain - 1.0), "%"
        )
    return out


def report(rec: dict, label: str) -> None:
    print(f"== {rec['workload']} seed={rec['seed']} ({label})")
    print(f"env: {json.dumps(rec['env'], sort_keys=True)}")
    print(f"sizes: {json.dumps(rec['sizes'], sort_keys=True)}")
    print(f"quality: {json.dumps(rec['quality'], sort_keys=True)}")
    print(
        f"cycles={rec['cycles']} attempted={rec['attempted']} failed={rec['failed']} "
        f"failed_frac={rec['failed'] / rec['attempted']:.4g} "
        f"measured_s={rec['measured_s']:.3f} "
        f"imports_s={[round(s, 4) for s in rec.get('imports_s', [rec['import_s']])]} "
        f"setups_s={[round(s, 4) for s in rec['setups_s']]}"
    )
    for key, name in (("writes_s", "write_s"), ("reads_s", "read_s")):
        print(f"{name} per cycle: " + " ".join(f"{v:.4g}" for v in rec[key]))
    for err in rec["errors"]:
        print(f"error: {err}")
    for key, values in sorted(rec["extra"].items()):
        if not values:
            continue
        base = key.split(".")[0]
        unit = next(u for suffix, u in EXTRA_UNITS if base.endswith(suffix))
        line = f"{key} = {statistics.median(values):.6g} {unit} (median of {len(values)})"
        t = tail(values)
        if t is not None:
            line += f", p{t[0]:g} = {t[1]:.6g} {unit}"
        print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in ("src/decal/__init__.py", "configs/planted_bias.json") if not Path(p).is_file()]
    if missing:
        print(f"error: run from the decal repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        before = [] if args.trace else import_probes()
        untraced = run_worker(args.workload, args.seed, seconds, 0)
        if not args.trace:
            untraced["imports_s"] = [*before, untraced["import_s"], *import_probes()]
        report(untraced, "untraced")
        records = [untraced]
        if args.trace:
            traced = run_worker(args.workload, args.seed, seconds, 1)
            report(traced, "traced")
            records.append(traced)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not all(rec["writes_s"] for rec in records):
        print("error: no cycle completed without a failure", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(traced, untraced)
        layers = {name: metrics[f"{name}.self_s"]["value"] for name in (*LAYERS, "bench")}
        top = max(layers, key=layers.get)
        print(f"largest self time per cycle: {top} ({layers[top]:.6g} s); "
              + ", ".join(f"{k}={v:.4g}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    else:
        metrics = end_to_end(untraced)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
