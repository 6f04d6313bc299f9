"""Calibration loop: projection, potentials, patch steps, and traces."""

import importlib
import weakref

import numpy as np
import pytest

import oracle
from decal.audit import audit, random_loss_pool
from decal.calibrate import (
    TRACE_COLUMNS,
    CalibConfig,
    alg1_step,
    alg2_step,
    potential,
    run_calibration,
)
from decal.kernel import KernelSpec, RkhsElement, column_norms
from decal.model import ConstantBase, LossFunction, Predictor, SampleBatch, evaluate_batch
from decal.synth import ArraySource, planted_bias_instance
from spans import element, spy

MIN = KernelSpec("min", 1, 1.5)
LIN2 = KernelSpec("linear", 2, 1.5)

rng = np.random.default_rng(31)


def min_outcomes(n):
    return rng.uniform(0.05, 0.95, size=(n, 1))


def zero_predictor(spec=MIN):
    return Predictor(spec, ConstantBase(RkhsElement(spec, np.zeros((0, spec.dim)), np.zeros((0, 1)))))


class BiasedStream:
    """Endless batches whose outcome mean the zero predictor misses."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._count = 0

    def take(self, n):
        X = self._rng.standard_normal((n, 2))
        Y = self._rng.uniform(0.3, 0.9, size=(n, 1))
        batch = SampleBatch(X, Y, batch_id=f"stream-{self._count:04d}")
        self._count += 1
        return batch


# potential


def test_potential_of_zero_predictor_is_mean_feature_norm():
    batch = SampleBatch(np.zeros((5, 1)), np.ones((5, 1)))
    assert potential(zero_predictor(), batch) == pytest.approx(1.0, abs=1e-12)


def test_potential_matches_vector_oracle():
    g = np.random.default_rng(2)
    Y = g.standard_normal((6, 2)) * 0.4
    anchors = g.standard_normal((3, 2)) * 0.3
    coeffs = g.standard_normal(3)
    p = Predictor(LIN2, ConstantBase(element(LIN2, anchors, coeffs)))
    batch = SampleBatch(g.standard_normal((6, 2)), Y)
    P = oracle.project_rows(np.tile(coeffs @ anchors, (6, 1)), LIN2.R2)
    assert potential(p, batch) == pytest.approx(oracle.potential(Y, P), abs=1e-9)


def test_potential_refuses_an_empty_batch():
    """An empty batch has no mean distance: it returned NaN with numpy's
    empty-slice warning, and is refused as the audit refuses it."""
    inst = planted_bias_instance(MIN, context_dim=2, support_size=6, shift_norm=0.3, seed=3)
    with pytest.raises(ValueError, match="need at least one sample"):
        potential(inst.predictor, SampleBatch(np.zeros((0, 2)), np.zeros((0, 1))))


# config


def test_config_fills_analysis_defaults():
    cfg = CalibConfig(epsilon=0.5, beta=4.0, R1=1.0, R2=1.5, n_actions=2)
    assert cfg.eta == pytest.approx(0.25)
    assert cfg.max_iters == int(np.ceil(16.0 * 1.5**2 / 0.5**2))
    explicit = CalibConfig(epsilon=0.5, beta=4.0, R1=1.0, R2=1.5, n_actions=2, eta=0.03, max_iters=7)
    assert explicit.eta == 0.03 and explicit.max_iters == 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"beta": -1.0},
        {"R1": 0.0},
        {"R2": -2.0},
        {"n_actions": 0},
        {"algorithm": "alg9"},
        {"eta": -0.1},
        {"max_iters": 0},
        {"audit_batch_size": 0},
        {"pool_size": 0},
        {"heldout_size": 0},
        {"beta": float("nan")},
        {"beta": float("inf")},
        # the derived eta and max_iters overflow, or eta underflows to zero
        {"epsilon": 1e-200},
        {"epsilon": 1e-320},
        {"R1": 1e200},
        {"R2": 1e200},
        {"R1": 1e-160, "epsilon": 1.0},
        {"epsilon": 1e-320, "R1": 1e3, "max_iters": 3},
    ],
)
def test_config_validation(kwargs):
    base = dict(epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=2)
    base.update(kwargs)
    with pytest.raises(ValueError):
        CalibConfig(**base)


# patch steps


def audited(p, batch, config, seed=0):
    pool = random_loss_pool(
        p.kernel, batch.Y, config.n_actions, config.R1, config.pool_size, np.random.default_rng(seed)
    )
    return audit(
        p, batch, epsilon=config.epsilon, pool=pool, beta=config.beta, R1=config.R1
    )


def audit_one(p, lossprime, batch, config):
    """A firing audit of a one-candidate pool, for patch steps on a given lossprime."""
    return audit(p, batch, epsilon=1e-6, pool=[lossprime], beta=config.beta, R1=config.R1)


def test_alg1_adjustments_have_exact_step_norm():
    cfg = CalibConfig(epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2, pool_size=8)
    batch = SampleBatch(rng.standard_normal((40, 2)), min_outcomes(40), "b7")
    report = audited(zero_predictor(), batch, cfg)
    assert report.found
    rec = alg1_step(report, config=cfg)
    assert rec.algorithm == "alg1" and rec.eta == cfg.eta and rec.batch_id == "b7"
    assert np.array_equal(rec.rows.anchors, report.witness_loss.span.anchors)
    for nv in column_norms(MIN, rec.rows.anchors, rec.rows.coeffs):
        assert nv == pytest.approx(cfg.eta * cfg.R1, rel=1e-12)


@pytest.mark.parametrize("step", [alg1_step, alg2_step])
def test_a_round_checks_the_batch_outcomes_and_no_table(step):
    """A round checks its batch's outcomes against the kernel's domain where
    the pool draws on them and where the evaluated batch merges them; the
    tables it builds from those rows (pool losses, the merged witness, the
    rescaled patch rows) are taken as checked, frozen, without a check of
    their own."""
    g = np.random.default_rng(4)
    cfg = CalibConfig(epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2, pool_size=8)
    batch = SampleBatch(g.standard_normal((40, 2)), g.uniform(0.1, 0.9, (40, 2)))
    eb = evaluate_batch(zero_predictor(LIN2), batch)
    with spy(KernelSpec, "check_domain") as checks:
        pool = random_loss_pool(LIN2, batch.Y, 2, 1.0, 8, g)
        report = audit(eb, epsilon=1e-6, pool=pool, beta=cfg.beta, R1=cfg.R1)
        rec = step(report, config=cfg)
    assert report.found
    assert len(checks) == 2
    assert checks[0][1] is batch.Y and checks[1][1] is eb.outcomes[0]
    for span in [lp.span for lp in pool] + [report.witness_loss.span, rec.rows]:
        assert not span.anchors.flags.writeable and not span.coeffs.flags.writeable
        assert span.anchors.flags.c_contiguous and span.coeffs.flags.c_contiguous
        assert np.all(np.isfinite(span.coeffs))
        LIN2.check_domain(span.anchors)


def test_alg1_requires_a_firing_report():
    cfg = CalibConfig(epsilon=3.0, beta=2.0, R1=1.0, R2=1.5, n_actions=1, pool_size=2)
    batch = SampleBatch(np.zeros((4, 1)), np.full((4, 1), 0.5))
    report = audited(zero_predictor(), batch, cfg)
    assert not report.found
    with pytest.raises(ValueError):
        alg1_step(report, config=cfg)
    with pytest.raises(ValueError):  # alg2 builds from the same report
        alg2_step(report, config=cfg)


def test_alg2_single_action_halves_the_residual_mean():
    # one action: Dhat = [[1]], so the mixing weight is exactly 1/2
    cfg = CalibConfig(epsilon=0.1, beta=3.0, R1=1.0, R2=1.5, n_actions=1)
    batch = SampleBatch(np.zeros((3, 1)), np.array([[0.2], [0.5], [0.8]]))
    lp = LossFunction("lp", RkhsElement(MIN, [[0.5]], [[1.0]]), 1.0)
    rec = alg2_step(audit_one(zero_predictor(), lp, batch, cfg), config=cfg)
    assert np.array_equal(rec.mixing, np.array([[0.5]]))
    # raw residual row is the mean feature of the outcomes
    row = element(MIN, rec.rows.anchors, rec.rows.coeffs[:, 0])
    mean_feat = element(MIN, batch.Y, np.full(3, 1 / 3))
    assert row.norms()[0] == pytest.approx(mean_feat.norms()[0], rel=1e-12)


def test_alg2_matches_vector_oracle():
    g = np.random.default_rng(8)
    Y = g.standard_normal((12, 2)) * 0.4
    anchors = g.standard_normal((3, 2)) * 0.2
    coeffs = g.standard_normal(3)
    p = Predictor(LIN2, ConstantBase(element(LIN2, anchors, coeffs)))
    batch = SampleBatch(g.standard_normal((12, 2)), Y)
    rows = g.standard_normal((2, 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    lp = LossFunction("lp", RkhsElement(LIN2, rows, np.eye(2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=3.0, R1=1.0, R2=1.5, n_actions=2)
    rec = alg2_step(audit_one(p, lp, batch, cfg), config=cfg)

    P = oracle.project_rows(np.tile(coeffs @ anchors, (12, 1)), LIN2.R2)
    K = oracle.smooth_rule(P, rows, 3.0)
    M, G = oracle.alg2_update(Y, P, K)
    assert np.allclose(rec.mixing, M, atol=1e-9)
    got_rows = rec.rows.coeffs.T @ rec.rows.anchors
    assert np.allclose(got_rows, G, atol=1e-9)


def test_alg2_mixing_is_spd_with_unit_capped_spectrum():
    cfg = CalibConfig(epsilon=0.1, beta=5.0, R1=1.0, R2=1.5, n_actions=4)
    batch = SampleBatch(rng.standard_normal((30, 2)), min_outcomes(30))
    lp = random_loss_pool(MIN, batch.Y, 4, 1.0, 1, np.random.default_rng(3))[0]
    rec = alg2_step(audit_one(zero_predictor(), lp, batch, cfg), config=cfg)
    assert np.array_equal(rec.mixing, rec.mixing.T)
    eigs = np.linalg.eigvalsh(rec.mixing)
    assert np.all(eigs > 0.0)
    assert np.all(eigs <= 1.0 + 1e-12)
    assert np.all(column_norms(MIN, rec.rows.anchors, rec.rows.coeffs) <= 2.0 * MIN.R2 + 1e-9)


# full runs


def test_run_calibrates_a_biased_stream():
    cfg = CalibConfig(
        epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2,
        audit_batch_size=128, pool_size=8, heldout_size=256, seed=5,
    )
    p, trace = run_calibration(zero_predictor(), BiasedStream(0), cfg)
    assert trace.terminal == "calibrated"
    assert 1 <= len(trace.iterations) <= cfg.max_iters
    assert trace.final_gap <= 0.75 * cfg.epsilon
    assert trace.final_heldout_decce < cfg.epsilon
    assert len(p.patches) == len(trace.iterations)
    for t, row in enumerate(trace.iterations):
        assert row.iteration == t
        assert row.witness_id == f"it{t:03d}-star"
        assert row.batch_id.startswith("stream-")
        assert row.wall_ms >= 0.0


def test_alg1_iterations_obey_the_potential_inequality():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=16, shift_norm=0.4, seed=3)
    cfg = CalibConfig(
        epsilon=0.25, beta=6.0, R1=1.0, R2=1.5, n_actions=2,
        audit_batch_size=160, pool_size=12, heldout_size=320, seed=1,
    )
    p, trace = run_calibration(inst.predictor, inst.source(11), cfg)
    assert trace.terminal == "calibrated"
    assert trace.iterations, "the planted bias should force at least one patch"
    eta = cfg.eta
    for row in trace.iterations:
        drop = row.pot_before - row.pot_after
        assert drop >= 2.0 * eta * row.gap - eta**2 * cfg.R1**2 - 1e-9


def test_every_carried_loss_reaches_the_next_pool(monkeypatch):
    """The losses a run carries between rounds all land in the later pools:
    none is shadowed by a fresh draw with the same id."""
    calibrate_module = importlib.import_module("decal.calibrate")
    pools, offered = [], []
    real_audit, real_dedup = calibrate_module.audit, calibrate_module._dedup_losses

    def recording_audit(eb, **kw):
        pools.append(kw["pool"])
        return real_audit(eb, **kw)

    def recording_dedup(losses):
        offered.append(list(losses))
        return real_dedup(losses)

    monkeypatch.setattr(calibrate_module, "audit", recording_audit)
    monkeypatch.setattr(calibrate_module, "_dedup_losses", recording_dedup)
    inst = planted_bias_instance(MIN, context_dim=2, support_size=16, shift_norm=0.4, seed=3)
    cfg = CalibConfig(
        epsilon=0.1, beta=6.0, R1=1.0, R2=1.5, n_actions=2, max_iters=6,
        audit_batch_size=160, pool_size=12, heldout_size=320, seed=3,
    )
    _, trace = run_calibration(inst.predictor, inst.source(11), cfg)
    assert len(trace.iterations) >= 2
    checked = 0
    for pool in pools:
        offer = next(o for o in offered if len(o) >= len(pool) and o[0] is pool[0])
        carried = offer[cfg.pool_size :]
        assert all(any(loss is c for loss in pool) for c in carried)
        checked += len(carried)
    assert checked > 0


class RecordingStream(BiasedStream):
    """A BiasedStream that keeps every batch it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.batches = {}

    def take(self, n):
        batch = super().take(n)
        self.batches[batch.batch_id] = batch
        return batch


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_pot_after_is_the_patched_predictors_potential(algorithm):
    """pot_after carries the round's replay through the new patch only, and
    equals a full replay of the patched predictor on that batch bit for bit;
    continuous outcomes, so every patch adds anchors."""
    cfg = CalibConfig(
        epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=2, algorithm=algorithm,
        audit_batch_size=96, pool_size=8, heldout_size=128, seed=4,
    )
    source = RecordingStream(3)
    p0 = zero_predictor()
    p, trace = run_calibration(p0, source, cfg)
    assert len(trace.iterations) >= 2
    for t, row in enumerate(trace.iterations):
        patched = Predictor(p0.kernel, p0.base, p.patches[: t + 1])
        assert row.pot_after == potential(patched, source.batches[row.batch_id])


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_round_merges_its_batch_outcomes_once(algorithm):
    """The audit merges a round's batch outcomes, and the batch that pot_after
    carries through the new patch takes them over rather than merging the
    same outcomes again."""
    model_module = importlib.import_module("decal.model")
    cfg = CalibConfig(
        epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=2, algorithm=algorithm,
        audit_batch_size=96, pool_size=8, heldout_size=128, seed=4,
    )
    source = RecordingStream(3)
    with spy(model_module, "distinct_rows") as merged:
        p, trace = run_calibration(zero_predictor(), source, cfg)
    assert len(trace.iterations) >= 2
    for row in trace.iterations:
        Y = source.batches[row.batch_id].Y
        assert sum(args[0] is Y for args in merged) == 1, row.batch_id


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_run_replays_each_batch_once(algorithm, monkeypatch):
    """A run replays its held-out batch once, on p0, and carries that
    evaluation through every patch for the final scores; it replays each
    audit batch once, and carries it through the round's patch for
    pot_after.  A batch keeps one evaluation: the held-out batch's p0
    evaluation is freed before the final decCE scan."""
    calibrate_module = importlib.import_module("decal.calibrate")
    cfg = CalibConfig(
        epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=2, algorithm=algorithm,
        audit_batch_size=96, pool_size=8, heldout_size=600, seed=4,
    )
    source, evaluated, live_at_scan = RecordingStream(3), [], []
    real_evaluate, real_decce = calibrate_module.evaluate_batch, calibrate_module.decce_estimate

    def evaluate(p, batch):
        eb = real_evaluate(p, batch)
        evaluated.append((batch, weakref.ref(eb)))
        return eb

    def decce(eb, **kwargs):
        live_at_scan.extend(ref() for batch, ref in evaluated if batch is evaluated[0][0])
        return real_decce(eb, **kwargs)

    monkeypatch.setattr(calibrate_module, "evaluate_batch", evaluate)
    monkeypatch.setattr(calibrate_module, "decce_estimate", decce)
    with spy(Predictor, "_replay_rows") as replays:
        p, trace = run_calibration(zero_predictor(), source, cfg)
    assert len(trace.iterations) >= 2
    batches = list(source.batches.values())
    heldout = batches[0]
    assert live_at_scan == [None, heldout._evaluated]
    blocks = [sum(args[1].base is batch.X for args in replays) for batch in batches]
    assert blocks == [2] + [1] * (len(batches) - 1)
    assert len(replays) == sum(blocks)


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_rounds_take_no_gram_block_wider_than_the_batch(algorithm, monkeypatch):
    """Continuous outcomes grow the anchors by about a batch per patch, yet
    no Gram block of a round has both sides beyond the audit batch: witnesses
    and rows are read through the basis they were cut from.  The held-out
    scoring before and after the rounds is left out."""
    calibrate_module = importlib.import_module("decal.calibrate")
    cfg = CalibConfig(
        epsilon=0.02, beta=4.0, R1=1.0, R2=1.5, n_actions=2, algorithm=algorithm,
        audit_batch_size=32, pool_size=8, heldout_size=64, max_iters=5, seed=5,
    )
    source, heldout, in_round = BiasedStream(8), [], [False]
    real_take = source.take
    real_evaluate = calibrate_module.evaluate_batch

    def take(n):
        batch = real_take(n)
        if not heldout:  # the first draw is the held-out batch
            heldout.append(batch)
        return batch

    def evaluate(p, batch):
        in_round[0] = batch is not heldout[0]
        return real_evaluate(p, batch)

    source.take = take
    monkeypatch.setattr(calibrate_module, "evaluate_batch", evaluate)
    with spy(KernelSpec, "gram", when=lambda: in_round[0]) as grams:
        p, trace = run_calibration(zero_predictor(), source, cfg)
    assert len(trace.iterations) >= 3
    assert len(p.anchors) > 2 * cfg.audit_batch_size
    assert grams
    assert all(min(len(args[1]), len(args[2])) <= cfg.audit_batch_size for args in grams)


def test_alg2_run_also_calibrates():
    cfg = CalibConfig(
        epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2, algorithm="alg2",
        audit_batch_size=128, pool_size=8, heldout_size=256, seed=2,
    )
    p, trace = run_calibration(zero_predictor(), BiasedStream(1), cfg)
    assert trace.terminal == "calibrated"
    assert trace.final_heldout_decce < cfg.epsilon
    assert all(rec.algorithm == "alg2" for rec in p.patches)


def test_heldout_potential_does_not_blow_up():
    cfg = CalibConfig(
        epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2,
        audit_batch_size=128, pool_size=8, heldout_size=512, seed=7,
    )
    _, trace = run_calibration(zero_predictor(), BiasedStream(2), cfg)
    assert trace.heldout_size == 512
    # fresh-sample potential tracks the on-batch decrease up to noise
    assert trace.final_heldout_potential <= trace.initial_heldout_potential + 0.1


def test_exhausted_source_reports_error():
    X = rng.standard_normal((100, 2))
    Y = rng.uniform(0.3, 0.9, size=(100, 1))
    cfg = CalibConfig(
        epsilon=0.05, beta=4.0, R1=1.0, R2=1.5, n_actions=2,
        audit_batch_size=64, pool_size=4, heldout_size=64, seed=0,
    )
    p0 = zero_predictor()
    p, trace = run_calibration(p0, ArraySource(X, Y), cfg)
    assert trace.terminal == "error"
    assert "remaining" in trace.error
    assert isinstance(trace.final_gap, float)


def test_exhaustion_on_the_heldout_draw_returns_base():
    cfg = CalibConfig(
        epsilon=0.1, beta=4.0, R1=1.0, R2=1.5, n_actions=2, heldout_size=64,
    )
    p0 = zero_predictor()
    p, trace = run_calibration(p0, ArraySource(np.zeros((10, 1)), np.full((10, 1), 0.5)), cfg)
    assert trace.terminal == "error"
    assert p is p0


def test_huge_iteration_cap_costs_nothing_up_front():
    # round seeds are derived per round, so a cap of 1e8 allocates nothing
    # before the first draw, which fails here
    cfg = CalibConfig(
        epsilon=0.1, beta=4.0, R1=1.0, R2=1.5, n_actions=2, heldout_size=64, max_iters=10**8,
    )
    p0 = zero_predictor()
    p, trace = run_calibration(p0, ArraySource(np.zeros((10, 1)), np.full((10, 1), 0.5)), cfg)
    assert trace.terminal == "error"
    assert p is p0


# traces


def test_trace_rows_are_csv_ready():
    cfg = CalibConfig(
        epsilon=0.3, beta=4.0, R1=1.0, R2=1.5, n_actions=2,
        audit_batch_size=96, pool_size=8, heldout_size=128, seed=3,
    )
    _, trace = run_calibration(zero_predictor(), BiasedStream(3), cfg)
    rows = trace.to_csv_rows()
    assert rows[0] == list(TRACE_COLUMNS)
    assert "wall_ms" not in rows[0] and not any("ms" in c for c in rows[0])
    assert len(rows) == len(trace.iterations) + 1
    for row, rec in zip(rows[1:], trace.iterations):
        assert float(row[1]) == rec.gap  # repr round-trips exactly
        assert float(row[2]) == rec.pot_before
        assert float(row[3]) == rec.pot_after

    doc = trace.to_doc()
    assert doc["terminal"] == "calibrated"
    assert doc["heldout_size"] == 128
    assert "iterations" not in doc  # to_csv_rows is the one per-iteration writer
