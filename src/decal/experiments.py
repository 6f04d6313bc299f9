"""Experiment harnesses: concentration calculators, convergence and regret
checks, the uniform-convergence decay fit, and the paired-world
distinguishing study.

Every statistical slack quoted by a harness comes from the Hoeffding
calculator below or from an exact binomial (Clopper-Pearson) interval; no
ad-hoc tolerances are invented at runtime.

The interval is computed here, from the standard library alone: each
endpoint is bisected on p until the midpoint equals an endpoint, against a
binomial tail summed directly (the upper tail is never formed as 1 - cdf).
A tail sum starts from its largest term, computed with Loader's saddle-point
binomial pmf (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000; the stirlerr and bd0 of R's dbinom_raw), walks outward
with the ratio recurrence t_{i+1} = t_i (n - i) / (i + 1) p / q until a term
falls below 2^-60 / (n + 1) of the largest, and adds the terms with
math.fsum.  The normal quantile is statistics.NormalDist's.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, field

import numpy as np

from .audit import batch_estimates, closed_form_witnesses, empirical_gap, random_loss_pool
from .calibrate import CalibConfig, run_calibration
from .kernel import KernelSpec
from .model import LossFunction, Predictor, SampleBatch, evaluate_batch, smooth_best_response
from .synth import (
    LogitMixtureBase,
    PlantedBiasMap,
    PlantedInstance,
    collision_reject,
    decce_linear_binary,
    gen_lower_bound,
    planted_bias_instance,
)

CI_LEVEL = 0.99  # confidence level for every interval an experiment reports
CI_Z = statistics.NormalDist().inv_cdf(0.5 + CI_LEVEL / 2.0)  # two-sided normal quantile
REGRET_DELTA = 0.01  # failure probability of the regret bound's sampling slack
CHECK_TOL = 1e-9  # round-off allowance of the exact inequalities a harness checks
DEGENERATE_GAP = 1e-12
SLOPE_BAND = (-0.65, -0.35)  # accepted log-log decay slopes, around -1/2
TWIN_DIMS = (5, 50)  # ambient dimensions of the linear-kernel twins


# ---------------------------------------------------------------------------
# Concentration calculators


def hoeffding_halfwidth(B: float, n: int, delta: float) -> float:
    """Deviation bound 2 B sqrt(2 ln(2/delta) / n) for means of norm-bounded
    Hilbert-space samples (scalars included).
    """
    if B < 0 or n < 1 or not 0 < delta < 1:
        raise ValueError("need B >= 0, n >= 1, 0 < delta < 1")
    return 2.0 * B * math.sqrt(2.0 * math.log(2.0 / delta) / n)


# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n / e)^n) for n <= 15; index 0 unused
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_LN_2PI = math.log(2.0 * math.pi)
_TAIL_CUTOFF = 2.0**-60  # terms below this share of the largest end a tail sum


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for ln n!: the table up to 15, then the
    asymptotic series 1/(12n) - 1/(360n^3) + ... to as many terms as n needs."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    s0, s1, s2, s3, s4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
    if n > 500:
        return (s0 - s1 / nn) / n
    if n > 80:
        return (s0 - (s1 - s2 / nn) / nn) / n
    if n > 35:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """Deviance term x ln(x / m) + m - x, by its series in (x - m) / (x + m)
    when x is near m, where the closed form cancels."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s_next = s + ej / j
            if s_next == s:
                return s
            s = s_next
            j += 2
    return x * math.log(x / m) + m - x


def _binom_pmf(x: int, n: int, p: float, q: float) -> float:
    """P[X = x] for X ~ Binomial(n, p), q = 1 - p, 0 < p < 1, in Loader's
    saddle-point form."""
    if x == 0:
        return math.exp(n * math.log(q) if p >= 0.1 else -_bd0(n, n * q) - n * p)
    if x == n:
        return math.exp(n * math.log(p) if q >= 0.1 else -_bd0(n, n * p) - n * q)
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, n * p) - _bd0(n - x, n * q))
    lf = _LN_2PI + math.log(x) + math.log1p(-x / n)
    return math.exp(lc - 0.5 * lf)


def _binom_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P[X >= k] (upper) or P[X <= k] for X ~ Binomial(n, p), 0 < p < 1,
    summed outward from the tail's largest term."""
    q = 1.0 - p
    first, last = (k, n) if upper else (0, k)
    top = min(max(math.floor((n + 1) * p), first), last)
    peak = _binom_pmf(top, n, p, q)
    if peak == 0.0:
        return 0.0
    cutoff = peak * _TAIL_CUTOFF / (n + 1)
    terms = [peak]
    ratio = p / q
    t, i = peak, top
    while i < last and t >= cutoff:
        t *= (n - i) / (i + 1) * ratio
        i += 1
        terms.append(t)
    t, i = peak, top
    while i > first and t >= cutoff:
        t *= i / (n - i + 1) / ratio
        i -= 1
        terms.append(t)
    return math.fsum(terms)


def _bisect_unit(left_of_root) -> float:
    """The point of [0, 1] where the predicate turns from True to False,
    halving until the midpoint equals an endpoint."""
    a, b = 0.0, 1.0
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        if left_of_root(mid):
            a = mid
        else:
            b = mid


def clopper_pearson(k: int, n: int, level: float = CI_LEVEL) -> tuple[float, float]:
    """Exact binomial confidence interval for k successes out of n: lo solves
    P[X >= k | lo] = alpha / 2 and hi solves P[X <= k | hi] = alpha / 2,
    alpha = 1 - level."""
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("need 0 < level < 1")
    half = (1.0 - level) / 2.0
    lo = 0.0 if k == 0 else _bisect_unit(lambda p: _binom_tail(k, n, p, True) < half)
    hi = 1.0 if k == n else _bisect_unit(lambda p: _binom_tail(k, n, p, False) > half)
    return lo, hi


def fit_loglog(ns, values) -> dict:
    """OLS fit of ln(value) against ln(n); returns slope/intercept and their
    standard errors.
    """
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if len(np.unique(ns)) < 3:
        raise ValueError("need at least three distinct sizes to fit a decay rate")
    if np.any(vals <= 0):
        raise ValueError("values must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(vals)
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return {
        "slope": float(coef[0]),
        "intercept": float(coef[1]),
        "slope_se": float(math.sqrt(max(cov[0, 0], 0.0))),
        "intercept_se": float(math.sqrt(max(cov[1, 1], 0.0))),
    }


@dataclass
class ExperimentResult:
    experiment: str
    seed: int
    passed: bool
    cells: list[dict] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return asdict(self)

    def to_csv_rows(self) -> list[list]:
        """Long format of raw values: one row per cell metric and per fit."""
        rows = [["experiment", "cell", "metric", "value"]]
        for i, cell in enumerate(self.cells):
            for key in sorted(cell):
                rows.append([self.experiment, i, key, cell[key]])
        for key in sorted(self.fits):
            val = self.fits[key]
            if isinstance(val, dict):
                for sub in sorted(val):
                    rows.append([self.experiment, "", f"fit.{key}.{sub}", val[sub]])
            else:
                rows.append([self.experiment, "", f"fit.{key}", val])
        rows.append([self.experiment, "", "passed", self.passed])
        return rows


# ---------------------------------------------------------------------------
# Convergence of the calibration loop


def _planted_min_kernel_instance(
    shift_norm: float, seed: int, R2: float = 1.5
) -> PlantedInstance:
    spec = KernelSpec("min", 1, R2)
    return planted_bias_instance(spec, context_dim=2, support_size=24,
                                 shift_norm=shift_norm, seed=seed)


def convergence_instances(
    epsilons, *, R2: float, shift_norm: float, seed: int
) -> list[tuple[float, PlantedInstance]]:
    """The convergence cells: each epsilon, in the given order, with its
    planted instance, all built before any calibration runs."""
    return [
        (float(eps), _planted_min_kernel_instance(shift_norm, seed + 17 * i, R2=R2))
        for i, eps in enumerate(epsilons)
    ]


def _convergence_config(i: int, eps: float, inst, *, seed: int, **params) -> CalibConfig:
    """Cell i's alg1 run config; params: beta, R1, n_actions and the batch sizes."""
    return CalibConfig(epsilon=eps, R2=inst.kernel.R2, seed=seed + 1000 + i, **params)


def convergence_experiment(
    cells,
    *,
    beta: float,
    R1: float,
    shift_norm: float,
    n_actions: int,
    audit_batch_size: int,
    heldout_size: int,
    seed: int,
) -> ExperimentResult:
    """Run alg1 on each cell's planted instance at the cell's epsilon.

    Per cell: the settings (shift_norm as requested), terminal status,
    iteration count against the analysis cap, the final held-out gap
    estimate and potential, and the audited per-round inequality
    pot_before - pot_after >= 2 eta gap - eta^2 R1^2 - CHECK_TOL.
    Calibration failures land in the cell record.
    """
    out = ExperimentResult("convergence", seed, passed=True)
    for i, (eps, inst) in enumerate(cells):
        record = {
            "epsilon": eps, "beta": beta, "R1": R1, "R2": inst.kernel.R2,
            "shift_norm": shift_norm, "n_actions": n_actions,
            "audit_batch_size": audit_batch_size, "heldout_size": heldout_size,
        }
        try:
            cfg = _convergence_config(i, eps, inst, seed=seed, beta=beta, R1=R1,
                                      n_actions=n_actions, audit_batch_size=audit_batch_size,
                                      heldout_size=heldout_size)
            _, trace = run_calibration(inst.predictor, inst.source(seed + 2000 + i), cfg)
        except Exception as exc:  # noqa: BLE001 - cell records carry failures
            record.update({"error": str(exc), "ok": False})
            out.cells.append(record)
            out.passed = False
            continue
        slack_min = float("inf")
        for r in trace.iterations:
            lhs = r.pot_before - r.pot_after
            rhs = 2.0 * cfg.eta * r.gap - cfg.eta**2 * cfg.R1**2
            slack_min = min(slack_min, lhs - rhs)
        ok = (
            trace.terminal == "calibrated"
            and len(trace.iterations) <= cfg.max_iters
            and (not trace.iterations or slack_min >= -CHECK_TOL)
        )
        record.update(
            {
                "terminal": trace.terminal,
                "iterations": len(trace.iterations),
                "max_iters": cfg.max_iters,
                "eta": cfg.eta,
                "inequality_slack_min": slack_min if trace.iterations else 0.0,
                "final_heldout_decce": trace.final_heldout_decce,
                "final_heldout_potential": trace.final_heldout_potential,
                "ok": ok,
            }
        )
        out.cells.append(record)
        out.passed = out.passed and ok
    return out


# ---------------------------------------------------------------------------
# Uniform convergence of the audit statistic


def witness_pair_pool(
    p: Predictor,
    batch: SampleBatch,
    *,
    n_actions: int,
    R1: float,
    beta: float,
    pool_size: int,
    rng: np.random.Generator,
) -> list[tuple[LossFunction, LossFunction]]:
    """A fixed pool of (loss, lossprime) pairs for deviation studies.

    Candidates are random norm-R1 losses; each is paired with the closed-form
    gap maximizer it induces on the given batch, all from one scan.  The
    pairs are then frozen: later evaluations treat both components as fixed
    functions.
    """
    eb = evaluate_batch(p, batch)
    candidates = random_loss_pool(eb.plan.spec, batch.Y, n_actions, R1, pool_size, rng)
    ids = [f"star-{lp.loss_id}" for lp in candidates]
    witnesses = closed_form_witnesses(eb, candidates, R1=R1, beta=beta, loss_ids=ids)
    return list(zip(witnesses, candidates))


def pair_deviation_curve(
    p: Predictor,
    source,
    pairs,
    n_grid,
    reference_batch: SampleBatch,
    *,
    beta: float,
    resamples: int,
):
    """Mean over resamples of max_pairs |gap_n - gap_reference| at each n.

    Returns (reference gaps, deviation means, degenerate flag); degenerate
    means every reference gap vanished, so the curve carries no signal.
    """
    eb_ref = evaluate_batch(p, reference_batch)
    ref_gaps = np.array(
        [empirical_gap(eb_ref, l, lp, beta=beta) for l, lp in pairs]
    )
    degenerate = bool(np.max(ref_gaps, initial=0.0) <= DEGENERATE_GAP)
    deviations = []
    for n in n_grid:
        devs = np.empty(resamples)
        for r in range(resamples):
            eb = evaluate_batch(p, source.take(int(n)))
            devs[r] = max(
                abs(empirical_gap(eb, l, lp, beta=beta) - g)
                for (l, lp), g in zip(pairs, ref_gaps)
            )
        deviations.append(float(devs.mean()))
    return ref_gaps, deviations, degenerate


def _embedded_linear_twins(
    dims: tuple[int, int], shift_norm: float, seed: int
) -> dict[str, PlantedInstance]:
    """Two linear-kernel instances with identical RKHS geometry in different
    ambient dimensions: the smaller instance's support is zero-padded and
    rotated by a random orthogonal map, which preserves every Gram entry.
    """
    d0, d1 = dims
    if not d0 < d1:
        raise ValueError("dims must be increasing")
    spec0 = KernelSpec("linear", d0, 1.0)
    inst0 = planted_bias_instance(
        spec0, context_dim=3, support_size=24, shift_norm=shift_norm, seed=seed
    )
    world0 = inst0.outcomes
    rng = np.random.default_rng(seed + 1)
    q, _ = np.linalg.qr(rng.standard_normal((d1, d1)))
    padded = np.hstack([world0.support, np.zeros((len(world0.support), d1 - d0))])
    spec1 = KernelSpec("linear", d1, 1.0)
    world1 = PlantedBiasMap(
        padded @ q.T, world0.weight_matrix, world0.weight_offset, world0.shift_coeffs
    )
    inst1 = PlantedInstance(
        spec1, inst0.contexts, world1, Predictor(spec1, LogitMixtureBase(spec1, world1)),
        inst0.shift_norm,
    )
    return {f"linear{d0}": inst0, f"linear{d1}": inst1}


def uniform_convergence_experiment(
    n_grid,
    pool_size: int = 16,
    reference_n: int = 8192,
    resamples: int = 20,
    seed: int = 0,
    beta: float = 2.0,
    R1: float = 1.0,
) -> ExperimentResult:
    """Decay of the pair-pool deviation statistic with sample size.

    Instances: a min-kernel planted predictor, plus two linear-kernel twins
    sharing one RKHS geometry across ambient dimensions (the
    dimension-freeness probe).  Per instance a pair pool is frozen against
    one large reference batch; the statistic at each n is
    max over pairs of |gap_n - gap_reference| averaged over resamples.
    Passes when every fitted log-log slope lies in SLOPE_BAND and the twin
    intercepts agree within the joint CI at the declared level.  A pool
    whose reference gaps all vanish flags the run degenerate and fails.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if len(n_grid) < 3:
        raise ValueError("need at least three grid sizes for a decay fit")
    if reference_n <= max(n_grid):
        raise ValueError("reference_n must exceed the largest grid size")

    instances: dict[str, PlantedInstance] = {
        "min": _planted_min_kernel_instance(0.25, seed + 3)
    }
    instances.update(_embedded_linear_twins(TWIN_DIMS, 0.25, seed + 5))

    out = ExperimentResult("uniform_convergence", seed, passed=True)
    degenerate = False
    for idx, (name, inst) in enumerate(instances.items()):
        src = inst.source(seed + 101 + 997 * idx)
        pool_rng = np.random.default_rng(seed + 7 + 13 * idx)
        ref_batch = src.take(reference_n)
        pairs = witness_pair_pool(
            inst.predictor, ref_batch, n_actions=2, R1=R1, beta=beta,
            pool_size=pool_size, rng=pool_rng,
        )
        ref_gaps, deviations, degen = pair_deviation_curve(
            inst.predictor, src, pairs, n_grid, ref_batch,
            beta=beta, resamples=resamples,
        )
        degenerate = degenerate or degen
        for n, dev in zip(n_grid, deviations):
            out.cells.append(
                {"instance": name, "n": n, "mean_abs_deviation": dev,
                 "max_reference_gap": float(np.max(ref_gaps, initial=0.0))}
            )
        if degen:
            continue
        fit = fit_loglog(n_grid, deviations)
        out.fits[name] = fit
        out.passed = out.passed and SLOPE_BAND[0] <= fit["slope"] <= SLOPE_BAND[1]

    out.notes["degenerate"] = degenerate
    names = [f"linear{d}" for d in TWIN_DIMS]
    if degenerate or any(nm not in out.fits for nm in names):
        out.passed = False
        return out
    fa, fb = out.fits[names[0]], out.fits[names[1]]
    gap = abs(fa["intercept"] - fb["intercept"])
    band = CI_Z * math.hypot(fa["intercept_se"], fb["intercept_se"])
    out.notes["intercept_gap"] = gap
    out.notes["intercept_band"] = band
    out.passed = out.passed and gap <= band
    return out


# ---------------------------------------------------------------------------
# Downstream regret


def regret_experiment(
    p: Predictor,
    losses: list[LossFunction],
    batch: SampleBatch,
    epsilon: float,
    beta: float,
    R1: float,
    R2: float,
) -> ExperimentResult:
    """Every ordered pair of losses: acting on the smooth rule of the wrong
    loss costs at most 2 epsilon + (ln|A| + 1) / beta plus the sampling
    slack at REGRET_DELTA, up to CHECK_TOL.

    Also checks, per sample and per loss, the smoothing inequality
    sum_a k_a f_a <= min_a f_a + (ln|A| + 1) / beta exactly.
    """
    if not losses:
        raise ValueError("need at least one loss")
    counts = sorted({l.n_actions for l in losses})
    if len(counts) > 1:
        raise ValueError(f"losses mix action counts {counts}")
    eb = evaluate_batch(p, batch)
    n_act = counts[0]
    smooth_gap = (math.log(n_act) + 1.0) / beta
    slack = hoeffding_halfwidth(2.0 * R1 * R2, len(batch), REGRET_DELTA)
    bound = 2.0 * epsilon + smooth_gap + slack

    ests = {l.loss_id: batch_estimates(eb, l) for l in losses}
    probs = {lid: smooth_best_response(f, beta) for lid, f in ests.items()}
    values = {l.loss_id: eb.values(l) for l in losses}

    smooth_violation = -float("inf")
    for l in losses:
        f = ests[l.loss_id]
        lhs = np.sum(probs[l.loss_id] * f, axis=1)
        rhs = f.min(axis=1) + smooth_gap
        smooth_violation = max(smooth_violation, float(np.max(lhs - rhs)))

    out = ExperimentResult("regret", seed=0, passed=True)
    worst = -float("inf")
    for l in losses:
        own = float(np.mean(np.sum(probs[l.loss_id] * values[l.loss_id], axis=1)))
        for lp in losses:
            other = float(
                np.mean(np.sum(probs[lp.loss_id] * values[l.loss_id], axis=1))
            )
            regret = own - other
            worst = max(worst, regret)
            out.cells.append(
                {"loss": l.loss_id, "rule_loss": lp.loss_id, "regret": regret,
                 "ok": regret <= bound + CHECK_TOL}
            )
    out.fits = {
        "max_regret": worst,
        "bound": bound,
        "smooth_gap": smooth_gap,
        "slack": slack,
        "smooth_violation_max": smooth_violation,
    }
    out.passed = worst <= bound + CHECK_TOL and smooth_violation <= CHECK_TOL
    return out


# ---------------------------------------------------------------------------
# Paired-world distinguishing


def collision_acceptance_oracle(d: int, n: int) -> float:
    """Exact acceptance probability of the collision distinguisher on world 1.

    With D distinct prediction values among n uniform draws from d slots, all
    collision signs agree with probability 2^-(n - D); the count DP below
    gives the exact distribution of D.
    """
    probs = np.zeros(n + 1)
    probs[0] = 1.0
    for _ in range(n):
        nxt = np.zeros(n + 1)
        for j in range(n + 1):
            if probs[j] == 0.0:
                continue
            if j <= d:
                nxt[j] += probs[j] * (j / d)
            if j + 1 <= n:
                nxt[j + 1] += probs[j] * max(d - j, 0) / d
        probs = nxt
    ks = np.arange(n + 1)
    return float(np.sum(probs * np.power(2.0, -(n - ks))))


def distinguishing_experiment(
    d_grid,
    n_grid,
    epsilon: float = 0.2,
    trials: int = 1000,
    seed: int = 0,
    decce_samples: int = 1000,
) -> ExperimentResult:
    """Monte-Carlo acceptance gap of the collision distinguisher across the
    (d, n) grid, with the exact world-1 oracle and Clopper-Pearson bands.

    Cell check: the oracle acceptance probability lies in the world-1 CI
    (world 2 is accepted deterministically, so the gap is 1 - p1).  Grid
    checks: the oracle gap is non-increasing in d at fixed n, the observed
    gaps respect that ordering within joint CI slack, and per d the observed
    gap at n = ceil(4 sqrt(d)) exceeds the one at n = ceil(sqrt(d) / 4).
    Additionally one world-2 draw per d is scored by the binary-action gap
    statistic at the planted direction, which must clear
    epsilon - 3 * (binomial slack).  Cells with n >= d fall outside the
    analyzed regime and are flagged.  The quadratic-in-n envelope constant
    is fitted and reported, never gated.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials per cell")
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in (0, 1/3)")
    d_grid = sorted(int(d) for d in d_grid)
    n_grid = sorted(int(n) for n in n_grid)
    rng = np.random.default_rng(seed)

    def run_cell(d: int, n: int) -> dict:
        accept1 = 0
        accept2 = 0
        for _ in range(trials):
            w1 = gen_lower_bound(d, epsilon, n, 1, int(rng.integers(2**62)))
            w2 = gen_lower_bound(d, epsilon, n, 2, int(rng.integers(2**62)))
            accept1 += not collision_reject(w1.predictions, w1.outcomes)
            accept2 += not collision_reject(w2.predictions, w2.outcomes)
        p1 = accept1 / trials
        p2 = accept2 / trials
        lo, hi = clopper_pearson(accept1, trials)
        oracle_p1 = collision_acceptance_oracle(d, n)
        return {
            "d": d,
            "n": n,
            "p1_accept": p1,
            "p2_accept": p2,
            "gap": abs(p2 - p1),
            "oracle_p1": oracle_p1,
            "oracle_gap": 1.0 - oracle_p1,
            "ci_lo": lo,
            "ci_hi": hi,
            "oracle_in_ci": lo <= oracle_p1 <= hi,
            "world2_deterministic": p2 == 1.0,
            "in_regime": n < d,
        }

    out = ExperimentResult("distinguishing", seed, passed=True)
    grid_cells: dict[tuple[int, int], dict] = {}
    for d in d_grid:
        for n in n_grid:
            cell = run_cell(d, n)
            grid_cells[(d, n)] = cell
            out.cells.append(cell)

    ok = all(
        c["oracle_in_ci"] and c["world2_deterministic"] for c in grid_cells.values()
    )

    # Lower-bound direction: harder to distinguish as d grows, easier as n grows.
    for n in n_grid:
        seq = [grid_cells[(d, n)] for d in d_grid]
        for a, b in zip(seq, seq[1:]):
            ok = ok and b["oracle_gap"] <= a["oracle_gap"] + 1e-12
            slack = (a["ci_hi"] - a["ci_lo"]) + (b["ci_hi"] - b["ci_lo"])
            ok = ok and b["gap"] <= a["gap"] + slack

    monotone = []
    planted = []
    slack_decce = math.sqrt(math.log(2.0 / 0.01) / (2.0 * decce_samples))
    for d in d_grid:
        n_hi = math.ceil(4.0 * math.sqrt(d))
        n_lo = max(1, math.ceil(math.sqrt(d) / 4.0))
        hi_cell = grid_cells.get((d, n_hi)) or run_cell(d, n_hi)
        lo_cell = grid_cells.get((d, n_lo)) or run_cell(d, n_lo)
        monotone.append(
            {"d": d, "n_hi": n_hi, "n_lo": n_lo,
             "gap_hi": hi_cell["gap"], "gap_lo": lo_cell["gap"],
             "ok": hi_cell["gap"] > lo_cell["gap"]}
        )
        ok = ok and hi_cell["gap"] > lo_cell["gap"]

        w2 = gen_lower_bound(d, epsilon, decce_samples, 2, int(rng.integers(2**62)))
        at_sigma = decce_linear_binary(
            w2.predictions, w2.outcomes, w2.sigma[None, :]
        )
        planted.append(
            {"d": d, "decce_at_sigma": at_sigma,
             "floor": epsilon - 3.0 * slack_decce,
             "ok": at_sigma >= epsilon - 3.0 * slack_decce}
        )
        ok = ok and at_sigma >= epsilon - 3.0 * slack_decce

    xs = np.array([c["n"] ** 2 / c["d"] for c in grid_cells.values() if c["in_regime"]])
    gs = np.array([c["gap"] for c in grid_cells.values() if c["in_regime"]])
    denom = float(xs @ xs)
    out.notes["envelope_constant"] = float(xs @ gs) / denom if denom > 0 else 0.0
    out.notes["monotone_in_n"] = monotone
    out.notes["planted_direction"] = planted
    out.passed = ok
    return out


# ---------------------------------------------------------------------------
# Sample-count sweep (reported, never gated)


def sample_complexity_instances(
    eps_grid, seed: int = 0, shift_norm: float = 0.3
) -> list[tuple[float, PlantedInstance]]:
    """The sweep's cells: each epsilon, ascending, with its planted instance,
    all built before any calibration runs."""
    eps_grid = sorted(float(e) for e in eps_grid)
    if len(eps_grid) < 3:
        raise ValueError("need at least three epsilon values for a decay fit")
    return [
        (eps, _planted_min_kernel_instance(shift_norm, seed + 31 * i))
        for i, eps in enumerate(eps_grid)
    ]


def _sweep_config(alg: str, i: int, eps: float, inst, *, seed: int, **params) -> CalibConfig:
    """Cell i's run config under algorithm alg; params: n_actions and beta."""
    if not 24 / eps <= np.iinfo(np.intp).max:
        raise ValueError(f"its audit batch, 24 / epsilon = {24 / eps!r} samples, exceeds any array")
    return CalibConfig(epsilon=eps, R1=1.0, R2=inst.kernel.R2, algorithm=alg, heldout_size=256,
                       audit_batch_size=max(96, int(24 / eps)), seed=seed + 7 * i, **params)


def sample_complexity_sweep(
    cells, seed: int = 0, n_actions: int = 2, beta: float = 4.0
) -> ExperimentResult:
    """Total samples consumed by alg1 vs alg2 across the epsilon cells,
    with fitted log-log exponents against 1/epsilon.  Descriptive only: the
    result always passes; the exponents are for the report.
    """
    out = ExperimentResult("sample_complexity", seed, passed=True)
    totals: dict[str, list[float]] = {"alg1": [], "alg2": []}
    for alg in ("alg1", "alg2"):
        for i, (eps, inst) in enumerate(cells):
            cfg = _sweep_config(alg, i, eps, inst, seed=seed, n_actions=n_actions, beta=beta)
            _, trace = run_calibration(inst.predictor, inst.source(seed + 13 * i), cfg)
            consumed = cfg.heldout_size + cfg.audit_batch_size * (
                len(trace.iterations) + (1 if trace.terminal == "calibrated" else 0)
            )
            totals[alg].append(consumed)
            out.cells.append(
                {"algorithm": alg, "epsilon": eps, "iterations": len(trace.iterations),
                 "samples": consumed, "terminal": trace.terminal}
            )
    for alg, ys in totals.items():
        fit = fit_loglog([1.0 / eps for eps, _ in cells], ys)
        out.fits[alg] = {"exponent": fit["slope"], "exponent_se": fit["slope_se"]}
    return out
