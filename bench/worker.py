"""One benchmark workload in one process: set up, run closed-loop cycles for
a fixed time, check every output, and print the raw measurements as one
JSON line.  Started by bench/run.py with BLAS pinned to one thread; run it
directly only with OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 already set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T_PROCESS = time.perf_counter()

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# Functions are looked up on their modules at call time, so the traced run
# reaches the wrappers that tracer.install puts there.
import decal  # noqa: E402
import decal.cli  # noqa: E402
import decal.experiments  # noqa: E402
import decal.model  # noqa: E402
from decal import (  # noqa: E402
    AffineMap,
    CalibConfig,
    ContextSpec,
    KernelSpec,
    Predictor,
    SimilarityBase,
    SyntheticSource,
    SynthSpec,
)

IMPORT_S = time.perf_counter() - T_PROCESS

SETUP_REPEATS = 3
DECIDE_CONTEXTS = 4096
ROUND_TOL = 1e-9
JSON_TOL = 1e-12
JSON_CHECK_CONTEXTS = 64  # first rows of the decide batch
PLANTED_CONFIG = ROOT / "configs" / "planted_bias.json"


TRACER = None  # set by main() in a traced run


@contextlib.contextmanager
def untraced():
    """Keep the benchmark's own checks out of the per-layer numbers."""
    was = TRACER is not None and TRACER.enabled
    if was:
        TRACER.enabled = False
    try:
        yield
    finally:
        if was:
            TRACER.enabled = True


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def cycle_seed(seed: int, i: int, j: int = 0) -> int:
    return int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0] & 0x7FFFFFFF)


def check_round_trip(p: Predictor, loaded: Predictor, X: np.ndarray) -> None:
    """The loaded predictor reproduces the in-memory one's coefficients."""
    with untraced():
        want, got = p.coefficients(X), loaded.coefficients(X)
    check(want.shape == got.shape and bool(np.all(np.abs(want - got) <= JSON_TOL)),
          "JSON round trip changed the coefficients")


def check_alg1_rounds(rows, eta: float, R1: float) -> None:
    """pot_before - pot_after >= 2 eta gap - eta^2 R1^2 - 1e-9 per round."""
    for gap, before, after in rows:
        slack = (before - after) - (2.0 * eta * gap - eta * eta * R1 * R1)
        check(slack >= -ROUND_TOL, f"alg1 potential drop short by {-slack:.3e}")


def decide(p: Predictor, X: np.ndarray, loss, beta: float) -> np.ndarray:
    probs = decal.smooth_best_response(decal.loss_estimates(p, X, loss), beta)
    check(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= ROUND_TOL)), "decision rows do not sum to 1")
    return probs


class Workload:
    """Closed loop, one caller: `cycle(i)` runs one pass over the workload's
    variants and returns its write/read seconds plus named extras.  `ops`
    counts the write and read operations started; a failed one ends its
    cycle."""

    name = ""

    @classmethod
    def prepare(cls) -> None:
        """Once per process, after the tracer is installed."""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.extra: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}
        self.sizes: dict = {}
        self.ops = 0

    def note(self, key: str, *values: float) -> None:
        self.extra.setdefault(key, []).extend(values)


class PlantedCli(Workload):
    """`decal calibrate` in process on configs/planted_bias.json, alg1 then
    alg2 on the same cycled --seed; the read path loads each predictor.json
    and decides a fixed context batch."""

    name = "planted_cli"
    last_run = None  # (predictor, trace) of the CLI's latest calibration

    @classmethod
    def prepare(cls) -> None:
        # The in-memory predictor and trace (with IterationRecord.wall_ms,
        # which the CLI's artifacts omit) are kept from the CLI's own binding.
        run = decal.cli.run_calibration

        def capture(*args, **kwargs):
            cls.last_run = run(*args, **kwargs)
            return cls.last_run

        decal.cli.run_calibration = capture

    def setup(self) -> None:
        doc = json.loads(PLANTED_CONFIG.read_text())
        self.doc = doc
        alg2 = self.tmp / "planted_bias_alg2.json"
        alg2.write_text(json.dumps(dict(doc, algorithm="alg2")))
        self.configs = (("alg1", str(PLANTED_CONFIG)), ("alg2", str(alg2)))
        rng = np.random.default_rng(self.seed)
        spec = KernelSpec(doc["kernel_kind"], doc["kernel_dim"], doc["R2"])
        self.X = ContextSpec(doc.get("context_kind", "gaussian"), doc["context_dim"]).sample(
            DECIDE_CONTEXTS, rng
        )
        self.loss = decal.make_piecewise_linear_loss(
            rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(0.1, 0.9, 2), 2, spec
        )
        self.call("alg1", self.configs[0][1], cycle_seed(self.seed, 0, 99))
        self.sizes = {
            "n_audit": doc["audit_batch_size"], "n_heldout": doc["heldout_size"],
            "k_pool": doc["pool_size"], "support": doc["support_size"],
            "kernel": f"{doc['kernel_kind']}/{doc['kernel_dim']}",
            "decide_contexts": DECIDE_CONTEXTS,
        }

    def call(self, alg: str, config: str, seed: int) -> tuple[float, Path]:
        out = self.tmp / alg
        t0 = time.perf_counter()
        rc = decal.cli.main(
            ["calibrate", "--config", config, "--out", str(out), "--seed", str(seed), "--quiet"]
        )
        dt = time.perf_counter() - t0
        check(rc == 0, f"decal calibrate exited {rc}")
        return dt, out

    def cycle(self, i: int) -> tuple[float, float]:
        write = read = 0.0
        seed = cycle_seed(self.seed, i)
        for alg, config in self.configs:
            self.ops += 1
            dt, out = self.call(alg, config, seed)
            write += dt
            self.note("calibrate_s", dt)
            calibrated, trace = self.last_run
            records = trace.iterations
            self.note("round_ms", *(r.wall_ms for r in records))
            if records:
                self.note("round_ms.last", records[-1].wall_ms)
            summary = json.loads((out / "summary.json").read_text())
            check(summary["terminal"] == "calibrated", f"terminal {summary['terminal']}")
            if alg == "alg1":
                resolved = json.loads((out / "manifest.json").read_text())["config"]
                rows = (out / "trace.csv").read_text().splitlines()[1:]
                check_alg1_rounds(
                    [tuple(float(c) for c in r.split(",")[1:4]) for r in rows],
                    resolved["eta"], resolved["R1"],
                )
            self.ops += 1
            t0 = time.perf_counter()
            p = decal.load_predictor(out / "predictor.json")
            t1 = time.perf_counter()
            decide(p, self.X, self.loss, self.doc["beta"])
            t2 = time.perf_counter()
            read += t2 - t0
            self.note("load_s", t2 - t0)
            self.note("decide_per_s", DECIDE_CONTEXTS / (t2 - t1))
            self.note("artifact_bytes", sum(f.stat().st_size for f in out.iterdir()))
            check_round_trip(calibrated, p, self.X[:JSON_CHECK_CONTEXTS])
            if i == 0:
                self.quality[f"heldout_decce.{alg}"] = summary["final_heldout_decce"]
                self.quality[f"anchors_final.{alg}"] = len(p.anchors)
                self.quality[f"patches.{alg}"] = len(p.patches)
        return write, read


class ContinuousGrowth(Workload):
    """Continuous outcomes, so every patch adds about a batch of anchors.
    Per cycle: alg1 then alg2 on one SimilarityBase predictor, each followed
    by save, load and a 4,096-context smooth decide.

    Each calibration runs a fixed round budget at epsilon 0.05.  Seeds need
    8 to 10 alg1 and 3 to 6 alg2 patches to reach epsilon, and that spread
    alone moved a run's median cycle time by 40% between seeds; with the
    budget every cycle grows the chain by the same number of patches."""

    name = "continuous_growth"
    EPS, BETA = 0.05, 8.0
    ROUNDS = {"alg1": 7, "alg2": 3}

    def setup(self) -> None:
        self.spec = KernelSpec("min", 1, 1.5)
        self.ctx = ContextSpec("uniform", 2)
        self.amap = AffineMap(np.array([[0.4, 0.3]]), np.array([0.1]), noise_scale=0.1)
        rng = np.random.default_rng(self.seed)
        Xtr = self.ctx.sample(200, rng)
        Ytr = self.amap.sample(Xtr, self.spec, rng) * 0.7
        self.p0 = Predictor(self.spec, SimilarityBase(self.spec, Ytr, Xtr, 0.3))
        self.X = self.ctx.sample(DECIDE_CONTEXTS, rng)
        self.loss = decal.make_piecewise_linear_loss(
            rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(0.1, 0.9, 2), 2, self.spec
        )
        decide(self.p0, self.X, self.loss, self.BETA)
        self.sizes = {
            "n_audit": 192, "n_heldout": 768, "k_pool": 32, "n_train": 200,
            "rounds": self.ROUNDS,
            "kernel": "min/1", "decide_contexts": DECIDE_CONTEXTS,
        }

    def cycle(self, i: int) -> tuple[float, float]:
        write = read = 0.0
        for j, alg in enumerate(("alg1", "alg2")):
            seed = cycle_seed(self.seed, i, j)
            cc = CalibConfig(
                epsilon=self.EPS, beta=self.BETA, R1=1.0, R2=self.spec.R2, n_actions=2,
                algorithm=alg, max_iters=self.ROUNDS[alg], seed=seed,
            )
            source = SyntheticSource(SynthSpec(self.spec, self.ctx, self.amap, n=1, seed=seed + 1))
            self.ops += 1
            t0 = time.perf_counter()
            p, trace = decal.run_calibration(self.p0, source, cc)
            dt = time.perf_counter() - t0
            write += dt
            check(trace.terminal == "calibrated" or (
                trace.terminal == "iteration_cap" and len(trace.iterations) == cc.max_iters
            ), f"terminal {trace.terminal} after {len(trace.iterations)} rounds")
            if alg == "alg1":
                check_alg1_rounds(
                    [(r.gap, r.pot_before, r.pot_after) for r in trace.iterations], cc.eta, cc.R1
                )
            self.note(f"calibrate_s.{alg}", dt)
            self.note(f"round_ms.{alg}", *(r.wall_ms for r in trace.iterations))
            if trace.iterations:
                self.note(f"round_ms.last.{alg}", trace.iterations[-1].wall_ms)
            path = self.tmp / "predictor.json"
            self.ops += 1
            t0 = time.perf_counter()
            decal.save_predictor(path, p)
            t1 = time.perf_counter()
            loaded = decal.load_predictor(path)
            t2 = time.perf_counter()
            decide(loaded, self.X, self.loss, self.BETA)
            t3 = time.perf_counter()
            read += t3 - t0
            self.note(f"save_s.{alg}", t1 - t0)
            self.note(f"load_s.{alg}", t3 - t1)
            self.note(f"decide_per_s.{alg}", DECIDE_CONTEXTS / (t3 - t2))
            check_round_trip(p, loaded, self.X[:JSON_CHECK_CONTEXTS])
            if i == 0:
                self.quality[f"heldout_decce.{alg}"] = trace.final_heldout_decce
                self.quality[f"anchors_final.{alg}"] = len(p.anchors)
                self.quality[f"patches.{alg}"] = len(p.patches)
                self.quality[f"predictor_bytes.{alg}"] = path.stat().st_size
        return write, read


class WideAudit(Workload):
    """Unpatched planted predictors on one 8,192-sample batch each: a witness
    pair pool (write), then one pooled audit over the same candidates and
    empirical_gap for every pair (read)."""

    name = "wide_audit"
    kernels = ("min", "linear")
    N_SAMPLES, CANDIDATES, BETA, R1 = 8192, 4, 2.0, 1.0

    def instance(self, kind: str):
        if kind == "min":
            return decal.planted_bias_instance(KernelSpec("min", 1, 1.5), 2, 24, 0.25, self.seed)
        if kind == "linear":
            return decal.experiments._embedded_linear_twins((5, 50), 0.25, self.seed + 1)["linear50"]
        return decal.planted_bias_instance(KernelSpec("exp", 3, 2.0), 2, 24, 0.25, self.seed + 2)

    def setup(self) -> None:
        self.cases = []
        for j, kind in enumerate(self.kernels):
            inst = self.instance(kind)
            batch = inst.source(self.seed + 10 + j).take(self.N_SAMPLES)
            decal.model.evaluate_batch(inst.predictor, batch)
            self.cases.append((kind, inst, batch))
        self.sizes = {
            "n": self.N_SAMPLES, "N": 24, "T": 0, "k_candidates": self.CANDIDATES,
            "kernels": [f"{inst.kernel.kind}/{inst.kernel.dim}" for _, inst, _ in self.cases],
        }

    def cycle(self, i: int) -> tuple[float, float]:
        write = read = 0.0
        for j, (kind, inst, batch) in enumerate(self.cases):
            rng = np.random.default_rng(cycle_seed(self.seed, i, j))
            p = inst.predictor
            self.ops += 1
            t0 = time.perf_counter()
            pairs = decal.experiments.witness_pair_pool(
                p, batch, n_actions=2, R1=self.R1, beta=self.BETA,
                pool_size=self.CANDIDATES, rng=rng,
            )
            t1 = time.perf_counter()
            self.ops += 1
            report = decal.audit(p, batch, epsilon=0.1, pool=[lp for _, lp in pairs],
                           beta=self.BETA, R1=self.R1)
            t2 = time.perf_counter()
            eb = decal.model.evaluate_batch(p, batch)
            gaps = [decal.empirical_gap(eb, loss, lp, beta=self.BETA) for loss, lp in pairs]
            t3 = time.perf_counter()
            write += t1 - t0
            read += t3 - t1
            self.note(f"witness_s.{kind}", t1 - t0)
            self.note(f"audit_s.{kind}", t2 - t1)
            check(abs(report.empirical_gap - max(gaps)) <= ROUND_TOL,
                  "pooled audit gap differs from the best pair gap")
            with untraced():
                own = [decal.empirical_gap(eb, lp, lp, beta=self.BETA) for _, lp in pairs]
            check(all(g >= o - ROUND_TOL for g, o in zip(gaps, own)),
                  "witness gap below its own candidate's gap")
            if i == 0:
                self.quality[f"audit_gap.{kind}"] = report.empirical_gap
                self.quality[f"anchors_final.{kind}"] = len(p.anchors)
        return write, read


class WideAuditExp(WideAudit):
    """The exp-kernel instance of wide_audit: no structured Gram route is
    planned for it, so it guards the dense path."""

    name = "wide_audit_exp"
    kernels = ("exp",)


WORKLOADS = {w.name: w for w in (PlantedCli, ContinuousGrowth, WideAudit, WideAuditExp)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "os_threads": len(os.listdir("/proc/self/task")),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-probe", action="store_true",
                    help="print only the import time of this fresh process")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp")
    args = ap.parse_args()
    if args.import_probe:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.tmp):
        ap.error("--workload, --seed, --seconds and --tmp are required")

    global TRACER
    tmp = Path(args.tmp)
    if args.trace:
        from tracer import Tracer, install

        TRACER = Tracer()
        install(TRACER)
    tracer = TRACER
    WORKLOADS[args.workload].prepare()

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        w = WORKLOADS[args.workload](args.seed, tmp)
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)

    failed = 0
    errors: list[str] = []
    writes, reads = [], []
    if tracer is not None:
        tracer.enabled = True
    started = time.perf_counter()
    deadline = started + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        try:
            write, read = w.cycle(i)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            failed += 1
            errors.append(f"cycle {i}: {type(exc).__name__}: {exc}")
            if len(errors) == 1:
                traceback.print_exc(file=sys.stderr)
        else:
            writes.append(write)
            reads.append(read)
        i += 1
    measured = time.perf_counter() - started
    if tracer is not None:
        tracer.enabled = False

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": i,
        "attempted": w.ops,
        "failed": failed,
        "errors": errors[:5],
        "import_s": IMPORT_S,
        "setups_s": setups,
        "measured_s": measured,
        "writes_s": writes,
        "reads_s": reads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extra": w.extra,
        "quality": w.quality,
        "sizes": w.sizes,
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(measured)
        result["trace"]["counts"] = dict(tracer.counts)
        result["trace"]["samples"] = dict(tracer.samples)
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
    shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
