"""Experiment harnesses: concentration math, oracles, and smoke runs."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decal.experiments import (
    CI_LEVEL,
    CI_Z,
    ExperimentResult,
    _embedded_linear_twins,
    clopper_pearson,
    collision_acceptance_oracle,
    convergence_experiment,
    convergence_runs,
    distinguishing_experiment,
    fit_loglog,
    hoeffding_halfwidth,
    pair_deviation_curve,
    regret_experiment,
    sample_complexity_runs,
    sample_complexity_sweep,
    uniform_convergence_experiment,
    witness_pair_pool,
)
import decal.experiments
from decal.audit import audit, random_loss_pool
from decal.kernel import KernelSpec
from decal.model import ConstantBase, Predictor, SampleBatch, _row_blocks, evaluate_batch
from decal.synth import planted_bias_instance
from spans import feature, spy

MIN = KernelSpec("min", 1, 1.5)

rng = np.random.default_rng(47)


# concentration calculators


def test_halfwidth_shrinks_with_n():
    widths = [hoeffding_halfwidth(1.0, n, 0.05) for n in (10, 100, 1000)]
    assert widths == sorted(widths, reverse=True)
    assert hoeffding_halfwidth(1.0, 400, 0.05) == pytest.approx(
        2.0 * math.sqrt(2.0 * math.log(40.0) / 400.0), rel=1e-12
    )


def test_concentration_validation():
    with pytest.raises(ValueError):
        hoeffding_halfwidth(-1.0, 10, 0.05)
    with pytest.raises(ValueError):
        hoeffding_halfwidth(1.0, 0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_halfwidth(1.0, 10, 1.0)


def test_clopper_pearson_edges_and_ordering():
    lo, hi = clopper_pearson(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = clopper_pearson(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0
    lo, hi = clopper_pearson(25, 50)
    assert 0.0 < lo < 0.5 < hi < 1.0
    wide_lo, wide_hi = clopper_pearson(25, 50, level=0.999)
    assert wide_lo < lo and hi < wide_hi
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 4)
    for level in (1.5, 1.0, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            clopper_pearson(3, 10, level=level)


def scipy_interval(k, n, level):
    """scipy's beta.ppf endpoints, each polished by one Newton step on
    scipy's regularized incomplete beta: beta.ppf alone is off by up to
    1.9e-12 relative (hi at k = 1, n = 99,999, level 0.56, against a
    50-digit root), more than the tolerance below.  The edges k = 0 and
    k = n are 0 and 1 exactly."""
    from scipy import special, stats

    half = (1.0 - level) / 2.0
    lo, hi = 0.0, 1.0
    if k > 0:
        a, b = k, n - k + 1
        p = stats.beta.ppf(half, a, b)
        lo = float(p - (special.betainc(a, b, p) - half) / stats.beta.pdf(p, a, b))
    if k < n:
        a, b = k + 1, n - k
        p = stats.beta.ppf(1.0 - half, a, b)
        hi = float(p + (special.betaincc(a, b, p) - half) / stats.beta.pdf(p, a, b))
    return lo, hi


@st.composite
def binomial_counts(draw):
    n = draw(st.integers(1, 100_000))
    return draw(st.integers(0, n)), n


EDGE_N = 100_000


@given(counts=binomial_counts(), level=st.floats(0.5, 0.9999))
@example(counts=(0, EDGE_N), level=0.9999)
@example(counts=(1, EDGE_N), level=0.9999)
@example(counts=(2, EDGE_N), level=0.9999)
@example(counts=(2, EDGE_N), level=0.9)
@example(counts=(EDGE_N - 2, EDGE_N), level=0.9999)
@example(counts=(EDGE_N - 1, EDGE_N), level=0.9999)
@example(counts=(EDGE_N, EDGE_N), level=0.5)
@settings(max_examples=60)
def test_clopper_pearson_matches_scipy_beta_ppf(counts, level):
    k, n = counts
    lo, hi = clopper_pearson(k, n, level)
    assert (lo, hi) == pytest.approx(scipy_interval(k, n, level), rel=1e-12, abs=0.0)


def test_normal_quantile_matches_scipy_norm_ppf():
    from scipy import stats

    ref = float(stats.norm.ppf(0.5 + CI_LEVEL / 2.0))
    assert abs(CI_Z - ref) <= 2.0 * math.ulp(ref)


def test_fit_recovers_exact_power_law():
    ns = [32, 64, 128, 256, 512]
    vals = [3.0 * n**-0.5 for n in ns]
    fit = fit_loglog(ns, vals)
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit["slope_se"] == pytest.approx(0.0, abs=1e-9)


def test_fit_tolerates_mild_noise():
    g = np.random.default_rng(3)
    ns = np.logspace(5, 12, 12, base=2.0)
    vals = ns**-0.5 * np.exp(g.normal(0.0, 0.02, size=len(ns)))
    fit = fit_loglog(ns, vals)
    assert fit["slope"] == pytest.approx(-0.5, abs=0.02)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_loglog([10, 20], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_loglog([10, 20, 40], [1.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="distinct"):  # repeated sizes: a singular fit
        fit_loglog([8, 8, 8, 16], [1.0, 0.9, 0.8, 0.5])


# result containers


def test_result_csv_rows_flatten_fits():
    res = ExperimentResult(
        "demo", seed=4, passed=True,
        cells=[{"n": 10, "gap": 0.25}],
        fits={"alg1": {"slope": -0.5}, "bound": 1.5},
    )
    rows = res.to_csv_rows()
    assert rows[0] == ["experiment", "cell", "metric", "value"]
    assert ["demo", 0, "gap", 0.25] in rows
    assert ["demo", 0, "n", 10] in rows
    assert ["demo", "", "fit.alg1.slope", -0.5] in rows
    assert ["demo", "", "fit.bound", 1.5] in rows
    assert rows[-1] == ["demo", "", "passed", True]
    doc = res.to_doc()
    assert set(doc) == {"experiment", "seed", "passed", "cells", "fits", "notes"}


# collision oracle


def brute_force_acceptance(d, n):
    total = 0.0
    for slots in product(range(d), repeat=n):
        distinct = len(set(slots))
        total += 2.0 ** -(n - distinct)
    return total / d**n


def test_collision_oracle_hand_values():
    assert collision_acceptance_oracle(7, 1) == pytest.approx(1.0, abs=1e-15)
    assert collision_acceptance_oracle(1, 2) == pytest.approx(0.5, abs=1e-15)
    assert collision_acceptance_oracle(2, 2) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 3), (4, 2), (3, 4), (5, 5)])
def test_collision_oracle_matches_enumeration(d, n):
    assert collision_acceptance_oracle(d, n) == pytest.approx(
        brute_force_acceptance(d, n), abs=1e-12
    )


# convergence harness


CONVERGENCE = dict(
    beta=4.0, R1=1.0, R2=1.5, shift_norm=0.3, n_actions=2, audit_batch_size=192,
    heldout_size=512,
)


def run_convergence(epsilons, seed):
    runs = convergence_runs(epsilons, seed=seed, **CONVERGENCE)
    return convergence_experiment(runs, shift_norm=0.3, seed=seed)


@pytest.fixture
def no_calibration(monkeypatch):
    """Fail any test that starts a calibration through the harnesses."""
    def refuse(*args, **kwargs):
        raise AssertionError("a calibration started")

    monkeypatch.setattr(decal.experiments, "run_calibration", refuse)


def test_convergence_cells_record_runs():
    res = run_convergence([0.3, 0.4], seed=2)
    assert res.experiment == "convergence"
    assert res.passed
    for cell in res.cells:
        assert cell["ok"]
        assert cell["terminal"] == "calibrated"
        assert cell["iterations"] <= cell["max_iters"]
        assert cell["inequality_slack_min"] >= -1e-9
        assert cell["final_heldout_decce"] < cell["epsilon"]


def test_convergence_refuses_a_run_config_before_any_calibration(no_calibration):
    """An epsilon of 0 is refused, by a ValueError naming it, when the runs
    are built: the cell used to run its good cells and record the failure."""
    with pytest.raises(ValueError, match=r"^0\.0: epsilon must be positive"):
        convergence_runs([0.3, 0.0], seed=0, **CONVERGENCE)


# deviation pools


def test_witness_pairs_are_anchored_and_scaled():
    inst = planted_bias_instance(MIN, 2, 12, shift_norm=0.3, seed=4)
    batch = inst.source(1).take(512)
    pairs = witness_pair_pool(
        inst.predictor, batch, n_actions=2, R1=1.0, beta=2.0,
        pool_size=5, rng=np.random.default_rng(0),
    )
    assert len(pairs) == 5
    for wl, lp in pairs:
        assert wl.loss_id == f"star-{lp.loss_id}"
        assert np.all(wl.span.norms() <= 1.0 + 1e-9)
        assert wl.rescaled is False
        G = MIN.gram(wl.span.anchors, wl.span.anchors)  # scaled from the pooled Gram, checked densely
        for c in wl.span.coeffs.T:
            if np.any(c):
                assert np.sqrt(c @ G @ c) == pytest.approx(1.0, rel=1e-12)
        assert lp.span.norms() == pytest.approx(np.ones(2), rel=1e-12)


def test_a_batch_is_replayed_once_for_its_pairs_audit_and_gaps():
    """witness_pair_pool, then audit, then evaluate_batch on one predictor
    and batch replay the batch once, block by block: each reads the
    evaluation the batch keeps, and the audit reads the kernel blocks that
    the pair pool's scan built, with no Gram call of its own."""
    inst = planted_bias_instance(MIN, 2, 12, shift_norm=0.3, seed=4)
    batch, p = inst.source(1).take(600), inst.predictor
    with spy(Predictor, "_replay_rows") as replays:
        pairs = witness_pair_pool(p, batch, n_actions=2, R1=1.0, beta=2.0, pool_size=4,
                                  rng=np.random.default_rng(0))
        with spy(KernelSpec, "gram") as grams:
            audit(p, batch, epsilon=0.1, pool=[lp for _, lp in pairs], beta=2.0, R1=1.0)
        eb = evaluate_batch(p, batch)
    assert [args[1].base is batch.X for args in replays] == [True] * len(_row_blocks(600))
    assert grams == []
    assert batch._evaluated is eb and eb.plan is p._plan


class _PointMassStream:
    """Outcomes always y0: a predictor at phi(y0) has zero residuals."""

    def __init__(self, y0):
        self.y0 = y0

    def take(self, n):
        return SampleBatch(np.zeros((n, 2)), np.full((n, 1), self.y0))


def test_deviation_curve_flags_degenerate_pools():
    src = _PointMassStream(0.5)
    p = Predictor(MIN, ConstantBase(feature(MIN, 0.5)))
    ref = src.take(256)
    pairs = witness_pair_pool(
        p, ref, n_actions=2, R1=1.0, beta=2.0, pool_size=3,
        rng=np.random.default_rng(1),
    )
    ref_gaps, deviations, degenerate = pair_deviation_curve(
        p, src, pairs, [32, 64], ref, beta=2.0, resamples=2
    )
    assert degenerate
    assert np.max(ref_gaps) <= 1e-12
    assert deviations == pytest.approx([0.0, 0.0], abs=1e-12)


def test_embedded_twins_share_gram_geometry():
    twins = _embedded_linear_twins((4, 24), shift_norm=0.25, seed=6)
    lo, hi = twins["linear4"], twins["linear24"]
    assert hi.kernel.dim == 24
    g_lo = lo.kernel.gram(lo.outcomes.support, lo.outcomes.support)
    g_hi = hi.kernel.gram(hi.outcomes.support, hi.outcomes.support)
    assert np.allclose(g_lo, g_hi, atol=1e-9)
    assert hi.shift_norm == lo.shift_norm
    assert np.array_equal(hi.outcomes.shift_coeffs, lo.outcomes.shift_coeffs)


def test_uniform_convergence_smoke_structure():
    res = uniform_convergence_experiment(
        n_grid=(64, 128, 256), pool_size=4, reference_n=1024,
        resamples=4, seed=0,
    )
    names = {"min", "linear5", "linear50"}
    assert {c["instance"] for c in res.cells} == names
    assert len(res.cells) == 9
    assert set(res.fits) == names
    for fit in res.fits.values():
        assert np.isfinite(fit["slope"]) and np.isfinite(fit["intercept_se"])
    assert "intercept_gap" in res.notes and "intercept_band" in res.notes
    assert res.notes["degenerate"] is False


def test_uniform_convergence_validation():
    with pytest.raises(ValueError):
        uniform_convergence_experiment(n_grid=(64, 128), reference_n=1024)
    with pytest.raises(ValueError):
        uniform_convergence_experiment(n_grid=(64, 128, 2048), reference_n=1024)


# regret harness


def regret_inputs(beta):
    inst = planted_bias_instance(MIN, 2, 12, shift_norm=0.2, seed=9)
    batch = inst.source(2).take(1024)
    losses = random_loss_pool(MIN, batch.Y, 2, 1.0, 4, np.random.default_rng(5))
    return inst.predictor, losses, batch


def test_regret_cells_and_bound():
    p, losses, batch = regret_inputs(beta=20.0)
    res = regret_experiment(p, losses, batch, epsilon=0.25, beta=20.0, R1=1.0, R2=1.5)
    assert res.passed
    assert len(res.cells) == 16
    for cell in res.cells:
        if cell["loss"] == cell["rule_loss"]:
            assert cell["regret"] == 0.0
    assert res.fits["max_regret"] <= res.fits["bound"] + 1e-9
    assert res.fits["smooth_violation_max"] <= 1e-9
    assert res.fits["smooth_gap"] == pytest.approx((math.log(2.0) + 1.0) / 20.0, rel=1e-12)


def test_regret_bound_tightens_with_beta():
    p, losses, batch = regret_inputs(beta=5.0)
    loose = regret_experiment(p, losses, batch, epsilon=0.25, beta=5.0, R1=1.0, R2=1.5)
    tight = regret_experiment(p, losses, batch, epsilon=0.25, beta=40.0, R1=1.0, R2=1.5)
    assert tight.fits["bound"] < loose.fits["bound"]
    assert tight.fits["smooth_gap"] < loose.fits["smooth_gap"]


def test_regret_requires_losses():
    """No losses, or losses of different action counts, are refused before
    any kernel block is built; 2- and 1-action losses used to pass with a
    max_regret of 0.0."""
    p, losses, batch = regret_inputs(beta=5.0)
    one = random_loss_pool(MIN, batch.Y, 1, 1.0, 1, np.random.default_rng(6))
    for bad, match in (([], "need at least one loss"), (losses[:1] + one, r"counts \[1, 2\]")):
        with spy(KernelSpec, "gram") as grams, pytest.raises(ValueError, match=match):
            regret_experiment(p, bad, batch, epsilon=0.25, beta=5.0, R1=1.0, R2=1.5)
        assert grams == []


# distinguishing harness


def test_distinguishing_smoke_grid():
    res = distinguishing_experiment(
        d_grid=(16, 64), n_grid=(2, 4), epsilon=0.2,
        trials=200, seed=0, decce_samples=400,
    )
    assert res.passed
    assert len(res.cells) == 4
    for cell in res.cells:
        assert cell["world2_deterministic"]
        assert cell["oracle_in_ci"]
        assert cell["ci_lo"] <= cell["p1_accept"] <= cell["ci_hi"]
        assert cell["oracle_gap"] == pytest.approx(1.0 - cell["oracle_p1"], abs=1e-15)
    assert [m["d"] for m in res.notes["monotone_in_n"]] == [16, 64]
    for m in res.notes["monotone_in_n"]:
        assert m["gap_hi"] > m["gap_lo"]
    for pl in res.notes["planted_direction"]:
        assert pl["decce_at_sigma"] >= pl["floor"]
    assert res.notes["envelope_constant"] >= 0.0


def test_distinguishing_validation():
    with pytest.raises(ValueError):
        distinguishing_experiment((4,), (2,), trials=10)
    with pytest.raises(ValueError):
        distinguishing_experiment((4,), (2,), epsilon=0.4)


# sample-count sweep


def test_sample_sweep_reports_exponents():
    res = sample_complexity_sweep(sample_complexity_runs((0.5, 0.4, 0.3), seed=1), seed=1)
    assert res.passed  # descriptive harness never gates
    assert len(res.cells) == 6
    assert {c["algorithm"] for c in res.cells} == {"alg1", "alg2"}
    for alg in ("alg1", "alg2"):
        assert np.isfinite(res.fits[alg]["exponent"])


def test_sample_sweep_validation(no_calibration):
    """Fewer than three distinct epsilons are refused when the runs are
    built: a repeated one used to run all six calibrations and fail only in
    the exponent fit."""
    for grid in ((0.5, 0.4), (0.4, 0.4, 0.3)):
        with pytest.raises(ValueError, match="three distinct"):
            sample_complexity_runs(grid)
