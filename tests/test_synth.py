"""Synthetic losses, generators, planted bias, and the paired worlds."""

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from decal.audit import decce_estimate, random_loss_pool
from decal.kernel import KernelSpec, norm
from decal.model import evaluate_batch, predictor_from_doc, predictor_to_doc
from decal.synth import (
    COBB_DOUGLAS_R1,
    AffineMap,
    ArraySource,
    ContextSpec,
    cobb_douglas_value,
    collision_reject,
    decce_linear_binary,
    direction_grid,
    gen_lower_bound,
    make_cobb_douglas_loss,
    make_piecewise_linear_loss,
    piecewise_linear_value,
    planted_bias_instance,
)

MIN = KernelSpec("min", 1, 1.5)
EXP2 = KernelSpec("exp", 2, 2.0)

rng = np.random.default_rng(41)


# piecewise-linear losses


def test_piecewise_hand_values_on_both_branches():
    loss = make_piecewise_linear_loss(1.0, 0.0, 0.5, 1, MIN)
    vals = loss.values([[0.25], [0.75]])
    assert vals[0, 0] == 0.25
    assert vals[1, 0] == 0.5
    assert piecewise_linear_value(1.0, 0.0, 0.5, 0.25) == 0.25
    assert piecewise_linear_value(1.0, 0.0, 0.5, 0.75) == 0.5


def test_piecewise_matches_direct_evaluation():
    grid = np.linspace(0.0, 1.0, 41)
    for _ in range(50):
        k1, k2 = rng.uniform(-2.0, 2.0, size=2)
        c = rng.uniform(0.0, 1.0)
        loss = make_piecewise_linear_loss(k1, k2, c, 1, MIN, R1=3.0)
        vals = loss.values(grid.reshape(-1, 1))[:, 0]
        direct = [piecewise_linear_value(k1, k2, c, y) for y in grid]
        assert vals == pytest.approx(direct, abs=1e-12)


def test_piecewise_norm_formula():
    for _ in range(30):
        k1, k2 = rng.uniform(-2.0, 2.0, size=2)
        c = rng.uniform(0.0, 1.0)
        loss = make_piecewise_linear_loss(k1, k2, c, 1, MIN, R1=3.0)
        expect = math.sqrt(max((1.0 - c) * k2**2 + c * k1**2, 0.0))
        assert norm(loss.coefficients[0]) == pytest.approx(expect, abs=1e-12)


def test_piecewise_per_action_pieces():
    loss = make_piecewise_linear_loss([1.0, -0.5], [0.0, 0.5], [0.5, 0.2], 2, MIN)
    assert loss.n_actions == 2
    assert loss.values([[0.1]])[0] == pytest.approx([0.1, -0.05], abs=1e-12)
    assert loss.R1 == 1.0  # max slope magnitude


def test_piecewise_validation():
    with pytest.raises(ValueError):
        make_piecewise_linear_loss(1.0, 0.0, 1.5, 1, MIN)
    with pytest.raises(ValueError):
        make_piecewise_linear_loss(2.0, 0.0, 0.5, 1, MIN, R1=1.0)
    with pytest.raises(ValueError):
        make_piecewise_linear_loss(1.0, 0.0, 0.5, 1, KernelSpec("linear", 1, 1.0))


# Cobb-Douglas losses


def test_cobb_douglas_vertex_value():
    loss = make_cobb_douglas_loss([[1.0, 0.0]], EXP2)
    y = [math.log(2.0), 0.3]
    assert loss.values([y])[0, 0] == pytest.approx(-2.0, rel=1e-12)
    assert cobb_douglas_value([1.0, 0.0], y) == pytest.approx(-2.0, rel=1e-12)


def test_cobb_douglas_matches_direct_evaluation():
    for _ in range(40):
        alpha = rng.dirichlet(np.ones(2))
        y = rng.standard_normal(2)
        y *= rng.uniform(0.0, EXP2.domain_radius) / max(np.linalg.norm(y), 1e-12)
        loss = make_cobb_douglas_loss([alpha], EXP2)
        assert loss.values([y])[0, 0] == pytest.approx(
            cobb_douglas_value(alpha, y), rel=1e-12
        )


def test_cobb_douglas_norms_peak_at_vertices():
    loss = make_cobb_douglas_loss([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]], EXP2)
    expect = [math.exp(0.5), math.exp(0.5 / 2), math.exp((0.0625 + 0.5625) / 2)]
    assert loss.norms() == pytest.approx(expect, rel=1e-12)
    assert not loss.rescaled
    assert loss.R1 == COBB_DOUGLAS_R1
    assert np.all(loss.norms() <= COBB_DOUGLAS_R1 + 1e-12)


def test_cobb_douglas_validation():
    with pytest.raises(ValueError):
        make_cobb_douglas_loss([[0.5, 0.4]], EXP2)  # off the simplex
    with pytest.raises(ValueError):
        make_cobb_douglas_loss([[1.2, -0.2]], EXP2)
    with pytest.raises(ValueError):
        make_cobb_douglas_loss([[1.0, 0.0]], EXP2, sign=0.5)
    with pytest.raises(ValueError):
        make_cobb_douglas_loss([[1.0, 0.0, 0.0]], EXP2)
    with pytest.raises(ValueError):
        make_cobb_douglas_loss([[1.0, 0.0]], MIN)


# data generators


def test_context_spec_ranges():
    uni = ContextSpec("uniform", 3).sample(200, np.random.default_rng(0))
    assert uni.shape == (200, 3)
    assert np.all((uni >= 0.0) & (uni <= 1.0))
    gau = ContextSpec("gaussian", 2).sample(5, np.random.default_rng(0))
    assert gau.shape == (5, 2)
    with pytest.raises(ValueError):
        ContextSpec("laplace", 2)


def test_affine_map_is_exact_without_noise():
    amap = AffineMap(np.array([[0.1, 0.2]]), np.array([0.5]))
    X = rng.standard_normal((6, 2)) * 0.4
    Y = amap.sample(X, MIN, np.random.default_rng(0))
    assert np.array_equal(Y, X @ np.array([[0.1, 0.2]]).T + 0.5)


def test_affine_map_checks_the_domain():
    amap = AffineMap(np.array([[2.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        amap.sample(np.array([[5.0]]), MIN, np.random.default_rng(0))


def test_synthetic_source_streams_fresh_batches():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=8, shift_norm=0.2, seed=0)
    src = inst.source(seed=4)
    b0, b1 = src.take(32), src.take(32)
    assert (b0.batch_id, b1.batch_id) == ("batch-0000", "batch-0001")
    assert not np.array_equal(b0.Y, b1.Y)
    again = inst.source(seed=4).take(32)
    assert np.array_equal(again.X, b0.X) and np.array_equal(again.Y, b0.Y)


def test_array_source_slices_then_raises():
    from decal.calibrate import DataExhaustedError

    src = ArraySource(np.arange(10.0).reshape(5, 2), np.full((5, 1), 0.5))
    first = src.take(3)
    assert first.batch_id == "slice-0000"
    assert np.array_equal(first.X, np.arange(6.0).reshape(3, 2))
    src.take(2)
    with pytest.raises(DataExhaustedError):
        src.take(1)


# planted bias


def test_planted_shift_norm_is_exact():
    inst = planted_bias_instance(MIN, context_dim=3, support_size=12, shift_norm=0.3, seed=7)
    assert inst.shift_norm == pytest.approx(0.3, rel=1e-12)
    assert norm(inst.outcomes.shift_element(MIN)) == pytest.approx(0.3, rel=1e-12)


def test_planted_residual_mean_is_context_free():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=10, shift_norm=0.25, seed=1)
    X = rng.standard_normal((20, 2))
    q = inst.outcomes.mixture_weights(X)
    w = inst.predictor.base.weights(X)
    # conditional residual coefficients are q(x) - (q(x) - c) = c at every x
    assert np.allclose(q - w, np.tile(inst.outcomes.shift_coeffs, (20, 1)), atol=1e-12)
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)


def test_planted_zero_shift_is_calibrated():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=8, shift_norm=0.0, seed=3)
    assert inst.shift_norm == 0.0
    assert np.array_equal(inst.outcomes.shift_coeffs, np.zeros(8))


def test_planted_predictions_never_need_projection():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=16, shift_norm=0.4, seed=5)
    X = rng.standard_normal((50, 2))
    W = inst.predictor.coefficients(X)
    G = MIN.gram(inst.predictor.anchors, inst.predictor.anchors)
    norms = np.sqrt(np.einsum("ij,ij->i", W @ G, W))
    assert np.all(norms <= MIN.R2 - 1e-9)


def test_planted_rejects_instances_without_headroom():
    with pytest.raises(ValueError):
        planted_bias_instance(KernelSpec("min", 1, 1.0), 2, 8, shift_norm=0.2, seed=0)
    with pytest.raises(ValueError):
        planted_bias_instance(MIN, 2, 8, shift_norm=-0.1, seed=0)


def test_planted_gap_estimate_approaches_shift_norm():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=12, shift_norm=0.3, seed=2)
    batch = inst.source(seed=8).take(4000)
    pool = random_loss_pool(MIN, batch.Y, 1, 1.0, 4, np.random.default_rng(0))
    got = decce_estimate(evaluate_batch(inst.predictor, batch), pool=pool, beta=3.0, R1=1.0)
    assert got == pytest.approx(0.3, abs=0.05)


def test_planted_predictor_round_trips():
    inst = planted_bias_instance(MIN, context_dim=2, support_size=6, shift_norm=0.2, seed=11)
    back = predictor_from_doc(predictor_to_doc(inst.predictor))
    X = rng.standard_normal((7, 2))
    assert np.array_equal(back.coefficients(X), inst.predictor.coefficients(X))


# lower-bound worlds


def test_world_shapes_and_prediction_set():
    for world in (1, 2):
        inst = gen_lower_bound(6, 0.2, 100, world, seed=0)
        P, Y = inst.predictions, inst.outcomes
        assert P.shape == Y.shape == (100, 6)
        assert np.all(P.max(axis=1) == 0.5)
        assert np.all((P > 0).sum(axis=1) == 1)
        # outcomes differ from predictions only in the first coordinate
        assert np.array_equal(P[:, 1:] + (Y - P)[:, 1:], Y[:, 1:])
        assert np.allclose(np.abs(Y[:, 0] - P[:, 0]), 0.2, atol=1e-15)
    assert gen_lower_bound(6, 0.2, 10, 1, 0).sigma is None


def test_world2_noise_follows_the_hidden_pattern():
    inst = gen_lower_bound(8, 0.3, 200, 2, seed=5)
    assert inst.sigma.shape == (8,)
    assert np.allclose(np.abs(inst.sigma), 1.0 / math.sqrt(8), atol=1e-15)
    idx = np.argmax(inst.predictions, axis=1)
    signs = np.sign(inst.outcomes[:, 0] - inst.predictions[:, 0])
    assert np.array_equal(signs, np.sign(inst.sigma[idx]))


def test_world_generation_validation():
    with pytest.raises(ValueError):
        gen_lower_bound(4, 0.2, 10, 3, 0)
    with pytest.raises(ValueError):
        gen_lower_bound(4, 0.5, 10, 1, 0)
    with pytest.raises(ValueError):
        gen_lower_bound(4, 0.0, 10, 1, 0)
    with pytest.raises(ValueError):
        gen_lower_bound(0, 0.2, 10, 1, 0)


def test_collision_sign_detector():
    e0 = np.array([[0.5, 0.0]])
    P = np.vstack([e0, e0])
    up = P.copy()
    up[:, 0] += 0.2
    down = P.copy()
    down[0, 0] += 0.2
    down[1, 0] -= 0.2
    assert not collision_reject(P, up)
    assert collision_reject(P, down)
    distinct = np.array([[0.5, 0.0], [0.0, 0.5]])
    mixed = distinct + np.array([[0.2, 0.0], [-0.2, 0.0]])
    assert not collision_reject(distinct, mixed)
    # agrees with a dict keyed by row bytes, on draws with many repeats
    verdicts = set()
    for seed in range(40):
        inst = gen_lower_bound(4, 0.2, 5, 1 + seed % 2, seed=seed)
        seen, want = {}, False
        for row, y in zip(inst.predictions, inst.outcomes):
            sign = np.sign(y[0] - row[0])
            want = want or seen.setdefault(row.tobytes(), sign) != sign
        assert collision_reject(inst.predictions, inst.outcomes) == want
        verdicts.add(want)
    assert verdicts == {False, True}


def test_world2_never_trips_the_detector():
    for seed in range(10):
        inst = gen_lower_bound(5, 0.2, 300, 2, seed=seed)
        assert not collision_reject(inst.predictions, inst.outcomes)


def test_direction_grid_exhausts_small_dimensions():
    for d in (1, 3, 6):
        grid = direction_grid(d)
        assert grid.shape == (2**d, d)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
        assert len({row.tobytes() for row in grid}) == 2**d
    big = direction_grid(20, seed=1, size=128)
    assert big.shape == (128, 20)
    assert np.allclose(np.linalg.norm(big, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(big, direction_grid(20, seed=1, size=128))


def test_grid_contains_every_hidden_pattern():
    inst = gen_lower_bound(7, 0.2, 50, 2, seed=3)
    grid = direction_grid(7)
    keys = {row.tobytes() for row in grid}
    assert inst.sigma.tobytes() in keys


def test_decce_hand_instance():
    eps = 0.2
    P = np.array([[0.5, 0.0], [0.0, 0.5]])
    Y = P + np.array([[eps, 0.0], [-eps, 0.0]])
    lone = decce_linear_binary(P, Y, np.array([[1.0, -1.0]]) / math.sqrt(2))
    assert lone == pytest.approx(eps, abs=1e-15)
    aligned = decce_linear_binary(P, Y, np.array([[1.0, 1.0]]) / math.sqrt(2))
    assert aligned == pytest.approx(0.0, abs=1e-15)
    assert decce_linear_binary(P, Y, direction_grid(2)) == pytest.approx(eps, abs=1e-15)


def test_decce_at_the_hidden_direction_equals_epsilon():
    for d in (5, 25):
        inst = gen_lower_bound(d, 0.2, 400, 2, seed=d)
        got = decce_linear_binary(inst.predictions, inst.outcomes, inst.sigma[None, :])
        assert got == pytest.approx(0.2, abs=1e-12)


def test_decce_grid_max_dominates_single_directions():
    inst = gen_lower_bound(4, 0.25, 300, 1, seed=2)
    grid = direction_grid(4)
    best = decce_linear_binary(inst.predictions, inst.outcomes, grid)
    for k in range(len(grid)):
        assert decce_linear_binary(inst.predictions, inst.outcomes, grid[k : k + 1]) <= best


def test_decce_requires_samples():
    with pytest.raises(ValueError):
        decce_linear_binary(np.zeros((0, 2)), np.zeros((0, 2)), direction_grid(2))


def test_single_sample_law_matches_across_worlds():
    # within one world-2 instance the signs are tied to the fixed hidden
    # pattern, so the laws only coincide one sample at a time with the
    # pattern redrawn; that is the actual indistinguishability claim
    d = 6

    def first_sample_counts(world, seeds):
        cells = []
        for s in seeds:
            inst = gen_lower_bound(d, 0.2, 1, world, seed=s)
            idx = int(np.argmax(inst.predictions[0]))
            pos = inst.outcomes[0, 0] > inst.predictions[0, 0]
            cells.append(idx * 2 + int(pos))
        return np.bincount(cells, minlength=2 * d)

    table = np.vstack(
        [
            first_sample_counts(1, range(4000)),
            first_sample_counts(2, range(10000, 14000)),
        ]
    )
    _, pvalue, _, _ = chi2_contingency(table)
    assert pvalue > 0.01
