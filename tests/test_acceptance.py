"""Acceptance checklist: one test per shipped guarantee.

These run the package at desk scale with every tolerance pinned inline.
They are heavier than the unit modules on purpose; the whole file still
finishes in well under the per-test budgets noted below.
"""

import json
import math

import numpy as np
import pytest

import oracle
from decal.audit import (
    audit,
    closed_form_witnesses,
    empirical_gap,
    random_loss_pool,
)
from decal.calibrate import CalibConfig, alg1_step, alg2_step, potential, run_calibration
from decal.cli import main
from decal.experiments import (
    distinguishing_experiment,
    hoeffding_halfwidth,
    regret_experiment,
    uniform_convergence_experiment,
)
from decal.kernel import KernelSpec
from decal.model import (
    ConstantBase,
    Predictor,
    SampleBatch,
    evaluate_batch,
    loss_estimates,
    make_loss,
    smooth_best_response,
)
from decal.synth import (
    cobb_douglas_value,
    direction_grid,
    make_cobb_douglas_loss,
    make_piecewise_linear_loss,
    piecewise_linear_value,
    planted_bias_instance,
)
from spans import element, stack

PIPELINE_ATOL = 1e-9
DOMINANCE_SLACK = 1e-9
POTENTIAL_SLACK = 1e-9
FIDELITY_ATOL = 1e-12


def ball_rows(rng, m, d, radius):
    V = rng.normal(size=(m, d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V * radius * rng.uniform(0.1, 1.0, size=(m, 1))


def vector_loss(spec, rng, n_actions, R1, loss_id):
    """Random linear-kernel loss along with its explicit vector rows."""
    V = ball_rows(rng, n_actions, spec.dim, R1)
    elements = tuple(element(spec, row[None, :], np.ones(1)) for row in V)
    return make_loss(loss_id, stack(spec, elements), R1), V


# 1. The implicit Gram-only pipeline agrees with an explicit vector
#    reimplementation on linear kernels, end to end.


def test_implicit_pipeline_matches_vector_oracle():
    R1 = 1.0
    for k in range(50):
        d = (2, 5, 10)[k % 3]
        rng = np.random.default_rng(1000 + k)
        spec = KernelSpec("linear", d, 1.2)
        beta = float(rng.uniform(1.0, 8.0))
        n_act = int(rng.integers(2, 5))
        cfg = CalibConfig(
            epsilon=0.2, beta=beta, R1=R1, R2=spec.R2, n_actions=n_act, seed=0
        )

        anchors = ball_rows(rng, int(rng.integers(3, 7)), d, 1.0)
        coeffs = rng.normal(size=len(anchors)) * 0.6
        p = Predictor(spec, ConstantBase(element(spec, anchors, coeffs)))
        base_vec = coeffs @ anchors
        vp = oracle.VectorPredictor(lambda X, b=base_vec: np.tile(b, (len(X), 1)), spec.R2)

        def batch(n):
            return SampleBatch(rng.normal(size=(n, 3)), ball_rows(rng, n, d, 1.0))

        b1, b2, b3 = batch(24), batch(24), batch(16)
        loss, L = vector_loss(spec, rng, n_act, R1, "ell")
        lossprime, Lp = vector_loss(spec, rng, n_act, R1, "ell-prime")

        # prediction, single-point evaluation, estimates, potential, gap
        P1 = vp.evaluate(b1.X)
        np.testing.assert_allclose(p.coefficients(b1.X) @ p.anchors, P1, atol=PIPELINE_ATOL)
        e0 = p.coefficients(b1.X[0])[0] @ p.anchors
        np.testing.assert_allclose(e0, P1[0], atol=PIPELINE_ATOL)
        np.testing.assert_allclose(
            loss_estimates(p, b1.X, loss), oracle.loss_estimates(P1, L), atol=PIPELINE_ATOL
        )
        assert potential(p, b1) == pytest.approx(oracle.potential(b1.Y, P1), abs=PIPELINE_ATOL)
        assert empirical_gap(evaluate_batch(p, b1), loss, lossprime, beta=beta) == pytest.approx(
            oracle.empirical_gap(b1.Y, P1, L, Lp, beta), abs=PIPELINE_ATOL
        )

        # one fixed-step patch driven by an audit over a known pool
        report = audit(p, b1, epsilon=1e-6, pool=[lossprime], beta=beta, R1=R1)
        assert report.found
        p = p.with_patch(alg1_step(report, config=cfg))
        K1 = oracle.smooth_rule(P1, Lp, beta)
        vp.add_alg1(oracle.alg1_directions(b1.Y, P1, K1, cfg.eta, R1), Lp, beta)
        P2 = vp.evaluate(b2.X)
        np.testing.assert_allclose(p.coefficients(b2.X) @ p.anchors, P2, atol=PIPELINE_ATOL)

        # one least-squares patch on top, from a second batch
        report = audit(p, b2, epsilon=1e-6, pool=[loss], beta=beta, R1=R1)
        p = p.with_patch(alg2_step(report, config=cfg))
        Pb2 = vp.evaluate(b2.X)
        K2 = oracle.smooth_rule(Pb2, L, beta)
        M, G = oracle.alg2_update(b2.Y, Pb2, K2)
        vp.add_alg2(M, G, L, beta)
        P3 = vp.evaluate(b3.X)
        np.testing.assert_allclose(p.coefficients(b3.X) @ p.anchors, P3, atol=PIPELINE_ATOL)
        assert potential(p, b3) == pytest.approx(oracle.potential(b3.Y, P3), abs=PIPELINE_ATOL)
        assert empirical_gap(evaluate_batch(p, b3), loss, lossprime, beta=beta) == pytest.approx(
            oracle.empirical_gap(b3.Y, P3, L, Lp, beta), abs=PIPELINE_ATOL
        )


# 2. The closed-form witness dominates random candidate losses.


def test_closed_form_witness_dominates_random_losses():
    for k in range(50):
        rng = np.random.default_rng(4000 + k)
        spec = KernelSpec("min", 1, 1.5) if k % 2 == 0 else KernelSpec("linear", 3, 1.5)
        n_act = 1 + k % 3
        beta = float(rng.uniform(0.5, 10.0))
        inst = planted_bias_instance(
            spec, 2, 10, float(rng.uniform(0.05, 0.45)), seed=4100 + k
        )
        eb = evaluate_batch(inst.predictor, inst.source(4200 + k).take(48))
        lossprime = random_loss_pool(spec, eb.Y, n_act, 1.0, 1, rng, id_prefix="lp")[0]
        star = closed_form_witnesses(eb, [lossprime], R1=1.0, beta=beta, loss_ids=["star"])[0]
        gap_star = empirical_gap(eb, star, lossprime, beta=beta)
        for rival in random_loss_pool(spec, eb.Y, n_act, 1.0, 100, rng):
            assert empirical_gap(eb, rival, lossprime, beta=beta) <= gap_star + DOMINANCE_SLACK


# 3. Fixed-step calibration terminates within the declared iteration budget
#    and every iteration clears the declared potential decrease.


def test_fixed_step_runs_respect_iteration_and_potential_budgets():
    spec = KernelSpec("min", 1, 1.5)
    for k in range(20):
        shift = 0.3 + 0.05 * (k % 4)
        cfg = CalibConfig(
            epsilon=0.2 + 0.05 * (k % 3),
            beta=6.0,
            R1=1.0,
            R2=spec.R2,
            n_actions=2,
            audit_batch_size=160,
            pool_size=12,
            heldout_size=192,
            seed=k,
        )
        inst = planted_bias_instance(spec, 2, 16, shift, seed=100 + k)
        _, trace = run_calibration(inst.predictor, inst.source(200 + k), cfg)
        assert trace.terminal != "error"
        assert len(trace.iterations) <= cfg.max_iters
        floor = 2.0 * cfg.eta  # per unit gap; minus the eta^2 R1^2 overshoot
        for rec in trace.iterations:
            drop = rec.pot_before - rec.pot_after
            assert drop >= floor * rec.gap - cfg.eta**2 * cfg.R1**2 - POTENTIAL_SLACK


# 4. Calibration drives held-out decision-calibration error below epsilon
#    without inflating the held-out potential, for both update rules.


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
@pytest.mark.parametrize("n_actions", [1, 2, 4])
def test_calibration_effectiveness_on_planted_bias(algorithm, n_actions):
    spec = KernelSpec("min", 1, 1.5)
    inst = planted_bias_instance(spec, 2, 20, 0.3, seed=50 + n_actions)
    cfg = CalibConfig(
        epsilon=0.1,
        beta=20.0,
        R1=1.0,
        R2=spec.R2,
        n_actions=n_actions,
        algorithm=algorithm,
        audit_batch_size=256,
        pool_size=16,
        heldout_size=768,
        seed=60 + n_actions,
    )
    _, trace = run_calibration(inst.predictor, inst.source(70 + n_actions), cfg)
    assert trace.terminal == "calibrated"
    assert trace.final_heldout_decce < cfg.epsilon
    slack = hoeffding_halfwidth(4.0 * spec.R2**2, trace.heldout_size, 0.01)
    assert trace.final_heldout_potential <= trace.initial_heldout_potential + slack


# 5. The smooth decision rule is sqrt(2) * beta Lipschitz from estimate
#    vectors (two-norm) to action distributions (one-norm).


def test_smooth_rule_lipschitz_bound():
    rng = np.random.default_rng(77)
    checked = 0
    for n_act in (2, 3, 5, 8):
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
            Z = rng.normal(size=(3125, n_act)) * 3.0
            step = rng.normal(size=Z.shape) * 10.0 ** rng.uniform(-3, 0, size=(len(Z), 1))
            lhs = np.abs(
                smooth_best_response(Z, beta) - smooth_best_response(Z + step, beta)
            ).sum(axis=1)
            rhs = math.sqrt(2.0) * beta * np.linalg.norm(step, axis=1)
            assert np.all(lhs <= rhs + 1e-9)
            checked += len(Z)
    assert checked == 100_000


# 6. After calibrating over a 16-loss pool, reporting the true loss is
#    near-optimal for every ordered pair, and the smoothing inequality
#    holds per sample.


def test_regret_bound_over_a_sixteen_loss_pool():
    spec = KernelSpec("min", 1, 1.5)
    epsilon, beta, R1 = 0.1, 20.0, 1.0
    inst = planted_bias_instance(spec, 2, 24, 0.3, seed=17)
    losses = random_loss_pool(
        spec, inst.source(5).take(512).Y, 2, R1, 16,
        np.random.default_rng(3), id_prefix="pool",
    )
    cfg = CalibConfig(
        epsilon=epsilon, beta=beta, R1=R1, R2=spec.R2, n_actions=2,
        audit_batch_size=192, pool_size=32, heldout_size=768, seed=0,
    )
    calibrated, trace = run_calibration(inst.predictor, inst.source(0), cfg, user_losses=losses)
    assert trace.terminal == "calibrated"

    batch = inst.source(9).take(16384)
    result = regret_experiment(
        calibrated, list(losses), batch, epsilon=epsilon, beta=beta, R1=R1, R2=spec.R2
    )
    assert result.passed
    assert len(result.cells) == 16 * 16
    assert all(cell["ok"] for cell in result.cells)
    assert result.fits["max_regret"] <= result.fits["bound"] + 1e-9
    assert result.fits["smooth_violation_max"] <= 1e-9
    assert result.fits["smooth_gap"] == pytest.approx((math.log(2) + 1) / beta, rel=1e-12)


# 7. The pair-pool deviation statistic decays like 1/sqrt(n), with matching
#    intercepts across ambient dimensions 5 and 50.


def test_uniform_convergence_decay_is_dimension_free():
    result = uniform_convergence_experiment(
        (128, 256, 512, 1024, 2048),
        pool_size=16,
        reference_n=8192,
        resamples=20,
        seed=0,
    )
    assert result.passed
    assert not result.notes["degenerate"]
    for name in ("min", "linear5", "linear50"):
        assert -0.65 <= result.fits[name]["slope"] <= -0.35
    assert result.notes["intercept_gap"] <= result.notes["intercept_band"]


# 8. The collision distinguisher needs n on the order of sqrt(d): observed
#    acceptance gaps track the exact oracle, shrink with d, and the planted
#    direction still certifies the full bias.


def test_distinguishing_gap_shrinks_with_dimension():
    result = distinguishing_experiment(
        (25, 100, 400), (2, 5, 10, 20), epsilon=0.2, trials=1000, seed=0,
        decce_samples=1000,
    )
    assert result.passed
    for cell in result.cells:
        assert cell["oracle_in_ci"]
        assert cell["world2_deterministic"]
        assert cell["in_regime"]
    assert all(row["ok"] for row in result.notes["monotone_in_n"])
    for row in result.notes["planted_direction"]:
        assert row["decce_at_sigma"] >= row["floor"]


# 9. Kernel expansions of both loss families equal their closed forms, and
#    the sign-vector grid shatters the prediction support.


def test_loss_families_match_closed_forms_and_shatter():
    rng = np.random.default_rng(90)
    mn = KernelSpec("min", 1, 1.5)
    k1 = rng.uniform(-1.0, 1.0, 1000)
    k2 = rng.uniform(-1.0, 1.0, 1000)
    c = rng.uniform(0.0, 1.0, 1000)
    y = rng.uniform(0.0, 1.0, 1000)
    pw = make_piecewise_linear_loss(k1, k2, c, 1000, mn)
    got = np.diag(pw.values(y[:, None]))
    want = np.array([piecewise_linear_value(k1[i], k2[i], c[i], y[i]) for i in range(1000)])
    np.testing.assert_allclose(got, want, atol=FIDELITY_ATOL, rtol=0.0)

    ex = KernelSpec("exp", 3, 2.0)
    alphas = rng.dirichlet(np.ones(3), size=1000)
    Y = ball_rows(rng, 1000, 3, ex.domain_radius * 0.95)
    cd = make_cobb_douglas_loss(alphas, ex)
    got = np.diag(cd.values(Y))
    want = np.array([cobb_douglas_value(alphas[i], Y[i]) for i in range(1000)])
    np.testing.assert_allclose(got, want, atol=FIDELITY_ATOL, rtol=0.0)

    for d in range(1, 13):
        grid = direction_grid(d)
        assert grid.shape == (2**d, d)
        patterns = grid @ (0.5 * np.eye(d)).T > 0
        assert len(np.unique(patterns, axis=0)) == 2**d


# 10. Identical config and seed reproduce every artifact byte for byte;
#     only the manifest carries volatile fields.


def run_twice(tmp_path, command, doc):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(doc))
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{command}-{tag}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        dirs.append(out)
    return dirs


def assert_reproducible(first, second):
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name == "manifest.json":
            a = json.loads((first / name).read_text())
            b = json.loads((second / name).read_text())
            for volatile in ("timestamp", "wall_ms"):
                a.pop(volatile), b.pop(volatile)
            assert a == b
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    kernel = {"kernel_kind": "min", "kernel_dim": 1, "R2": 1.5}
    calibrate = dict(
        kernel, epsilon=0.25, beta=6.0, shift_norm=0.3, support_size=12,
        instance_seed=3, audit_batch_size=96, pool_size=8, heldout_size=96, seed=1,
    )
    audit_doc = dict(kernel, epsilon=0.2, beta=6.0, shift_norm=0.4, n=256, seed=2)
    synth = {"instance": "lower_bound", "n": 40, "d": 6, "epsilon": 0.2, "world": 2, "seed": 3}
    experiment = {
        "experiment": "convergence", "epsilons": [0.35],
        "audit_batch_size": 96, "heldout_size": 128,
    }
    for command, doc in [
        ("calibrate", calibrate),
        ("audit", audit_doc),
        ("synth", synth),
        ("experiment", experiment),
    ]:
        first, second = run_twice(tmp_path, command, doc)
        assert_reproducible(first, second)
