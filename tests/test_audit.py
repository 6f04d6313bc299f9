"""Auditing: empirical gaps, closed-form witnesses, and pool scans."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from decal.audit import (
    AUDIT_THRESHOLD_FACTOR,
    POOL_LOSS_SPAN,
    _gap_scan,
    _residual_coeff_matrix,
    _witness,
    audit,
    closed_form_witnesses,
    decce_estimate,
    empirical_gap,
    random_loss_pool,
    rule_probabilities,
)
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    RkhsElement,
    compress,
    feature,
    span_gram,
    zero_element,
)
from decal.model import (
    DEGENERATE_NORM,
    ConstantBase,
    EvaluatedBatch,
    LossFunction,
    Predictor,
    SampleBatch,
    evaluate_batch,
    loss_estimates,
)
from decal.synth import planted_bias_instance

# the modules themselves; the package exports a function named `audit`
audit_module = importlib.import_module("decal.audit")
model_module = importlib.import_module("decal.model")

MIN = KernelSpec("min", 1, 1.5)
LIN2 = KernelSpec("linear", 2, 1.5)

rng = np.random.default_rng(23)


def min_batch(n, batch_id="b"):
    return SampleBatch(rng.standard_normal((n, 2)), rng.uniform(0.05, 0.95, size=(n, 1)), batch_id)


def min_predictor(n_anchors=4, scale=0.25):
    anchors = rng.uniform(0.05, 0.95, size=(n_anchors, 1))
    return Predictor(MIN, ConstantBase(RkhsElement(MIN, anchors, rng.standard_normal(n_anchors) * scale)))


def pool_for(batch, n_actions, size, seed=0, R1=1.0):
    return random_loss_pool(MIN, batch.Y, n_actions, R1, size, np.random.default_rng(seed))


# gap basics


def test_point_mass_predictor_has_zero_gap():
    y0 = 0.6
    batch = SampleBatch(rng.standard_normal((8, 2)), np.full((8, 1), y0))
    p = Predictor(MIN, ConstantBase(feature(MIN, y0)))
    pool = pool_for(batch, 2, 3)
    eb = evaluate_batch(p, batch)
    for lp in pool:
        assert empirical_gap(eb, pool[0], lp, beta=5.0) == 0.0
    report = audit(p, batch, epsilon=0.01, pool=pool, beta=5.0, R1=1.0)
    assert not report.found
    assert report.empirical_gap == pytest.approx(0.0, abs=1e-12)


def test_zero_loss_has_zero_gap():
    batch = min_batch(10)
    p = min_predictor()
    zero = LossFunction("zero", (zero_element(MIN), zero_element(MIN)), 1.0)
    lp = pool_for(batch, 2, 1)[0]
    assert empirical_gap(evaluate_batch(p, batch), zero, lp, beta=3.0) == 0.0


def test_gap_bounded_by_loss_and_ball_radii():
    batch = min_batch(20)
    p = min_predictor(scale=1.0)
    pool = pool_for(batch, 3, 6)
    eb = evaluate_batch(p, batch)
    for loss in pool:
        for lp in pool:
            gap = empirical_gap(eb, loss, lp, beta=2.0)
            assert gap <= 2.0 * 1.0 * MIN.R2 + 1e-9
    assert decce_estimate(eb, pool=pool, beta=2.0, R1=1.0) <= 2.0 * MIN.R2 + 1e-9


def test_rule_probabilities_match_model_path():
    batch = min_batch(12)
    p = min_predictor()
    lp = pool_for(batch, 3, 1)[0]
    eb = evaluate_batch(p, batch)
    from decal.model import smooth_best_response

    expected = smooth_best_response(loss_estimates(p, batch.X, lp), 4.0)
    assert np.allclose(rule_probabilities(eb, lp, 4.0), expected, atol=1e-12)


# closed-form witnesses


def test_linear_instance_matches_vector_oracle():
    g = np.random.default_rng(5)
    X = g.standard_normal((3, 2))
    Y = g.standard_normal((3, 2)) * 0.4
    banchors = g.standard_normal((2, 2)) * 0.3
    bcoeffs = g.standard_normal(2)
    p = Predictor(LIN2, ConstantBase(RkhsElement(LIN2, banchors, bcoeffs)))
    batch = SampleBatch(X, Y)

    rows = g.standard_normal((2, 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    lp = LossFunction(
        "lp", tuple(RkhsElement(LIN2, r[None, :], np.array([1.0])) for r in rows), 1.0
    )

    P = oracle.project_rows(np.tile(bcoeffs @ banchors, (3, 1)), LIN2.R2)
    K = oracle.smooth_rule(P, rows, 3.0)

    eb = evaluate_batch(p, batch)
    wl = closed_form_witnesses(eb, [lp], R1=1.0, beta=3.0, loss_ids=["star"])[0]
    wl_vecs = np.vstack([el.coeffs @ el.anchors if len(el) else np.zeros(2) for el in wl.coefficients])
    expect_vecs, expect_gap = oracle.closed_form_witness(Y, P, K, 1.0)
    assert np.allclose(wl_vecs, expect_vecs, atol=1e-9)

    gap = empirical_gap(eb, wl, lp, beta=3.0)
    assert gap == pytest.approx(expect_gap, abs=1e-9)
    assert gap == pytest.approx(
        oracle.empirical_gap(Y, P, wl_vecs, rows, 3.0), abs=1e-9
    )


def test_single_action_witness_is_scaled_residual_mean():
    # one action: the rule is identically 1, so the gap is R1 times the norm
    # of the plain residual mean
    batch = SampleBatch(np.zeros((2, 1)), np.array([[0.2], [0.8]]))
    p = Predictor(MIN, ConstantBase(zero_element(MIN)))
    pool = random_loss_pool(MIN, batch.Y, 1, 1.0, 3, np.random.default_rng(1))
    got = decce_estimate(evaluate_batch(p, batch), pool=pool, beta=7.0, R1=1.0)
    # ||(phi(.2) + phi(.8)) / 2||^2 = (0.2 + 2 * 0.2 + 0.8) / 4
    assert got == pytest.approx(np.sqrt(0.35), abs=1e-12)


def test_witness_dominates_random_losses():
    batch = min_batch(40)
    p = min_predictor()
    lp = pool_for(batch, 2, 1, seed=9)[0]
    eb = evaluate_batch(p, batch)
    wl = closed_form_witnesses(eb, [lp], R1=1.0, beta=4.0, loss_ids=["w"])[0]
    best = empirical_gap(eb, wl, lp, beta=4.0)
    for cand in random_loss_pool(MIN, batch.Y, 2, 1.0, 40, np.random.default_rng(3)):
        assert empirical_gap(eb, cand, lp, beta=4.0) <= best + 1e-9


def test_scan_gap_agrees_with_direct_evaluation():
    batch = min_batch(30)
    p = min_predictor()
    pool = pool_for(batch, 2, 5, seed=4)
    report = audit(p, batch, epsilon=0.05, pool=pool, beta=4.0, R1=1.0)
    eb = evaluate_batch(p, batch)
    direct = empirical_gap(eb, report.witness_loss, report.witness_lossprime, beta=4.0)
    assert report.empirical_gap == pytest.approx(direct, rel=1e-9)


def test_empty_batch_is_rejected_by_every_entry_point():
    p = min_predictor()
    empty = SampleBatch(np.zeros((0, 2)), np.zeros((0, 1)))
    pool = pool_for(min_batch(10), 2, 3)
    with pytest.raises(ValueError, match="need at least one sample"):
        audit(p, empty, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    eb = evaluate_batch(p, empty)
    with pytest.raises(ValueError, match="need at least one sample"):
        decce_estimate(eb, pool=pool, beta=2.0, R1=1.0)
    with pytest.raises(ValueError, match="need at least one sample"):
        empirical_gap(eb, pool[0], pool[1], beta=2.0)


# the scan over distinct points

SCAN_SPECS = {
    "min": KernelSpec("min", 1, 1.5),
    "linear": KernelSpec("linear", 2, 1.5),
    "exp": KernelSpec("exp", 2, 2.0),
}


def scan_batch(spec, n, n_anchors, support_size, all_distinct, signed_zeros, seed):
    """An evaluated batch whose outcomes and anchors repeat a small support,
    or are all distinct; signed_zeros puts rows that differ only in the sign
    of a zero coordinate into the batch."""
    r = np.random.default_rng(seed)

    def draw(m):
        if spec.kind == "min":
            return r.uniform(0.0, 1.0, (m, 1))
        return r.uniform(-0.5, 0.5, (m, spec.dim))

    if all_distinct:
        Y, anchors = draw(n), draw(n_anchors)
    else:
        support = draw(support_size)
        Y = support[r.integers(0, support_size, n)]
        anchors = support[r.integers(0, support_size, n_anchors)]
    if signed_zeros:
        zeros = np.array([[0.0], [-0.0]]) if spec.dim == 1 else np.array([[0.0, 0.3], [-0.0, 0.3]])
        Y = np.vstack([zeros, Y, zeros[::-1]])
        anchors = np.vstack([anchors, zeros])
    W = r.standard_normal((len(Y), len(anchors))) * 0.3
    return EvaluatedBatch(spec, r.standard_normal((len(Y), 2)), Y, anchors, W, np.zeros(len(Y)))


@given(
    st.sampled_from(sorted(SCAN_SPECS)),
    st.integers(1, 60),
    st.integers(1, 6),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_merged_scan_matches_dense_reference(
    kind, n, n_anchors, support_size, all_distinct, signed_zeros, seed
):
    spec = SCAN_SPECS[kind]
    eb = scan_batch(spec, n, n_anchors, support_size, all_distinct, signed_zeros, seed)
    pool = random_loss_pool(spec, eb.Y, 2, 1.0, 3, np.random.default_rng(seed))
    gaps, norms, probs = _gap_scan(eb, pool, 3.0, 1.0)

    # dense reference over the unmerged points [Y; anchors]
    Z = np.vstack([eb.Y, eb.anchors])
    C = _residual_coeff_matrix(eb, np.hstack(probs))
    K = spec.gram(Z, Z)
    dense = np.diag(span_gram(spec, Z, C))
    slack = np.einsum("ij,ik,kj->j", np.abs(C), np.abs(K), np.abs(C))
    tol = 1e-12 * np.abs(dense) + 1e-12 * slack
    assert np.all(np.abs(norms.ravel() ** 2 - np.clip(dense, 0.0, None)) <= tol)
    ref_norms = np.sqrt(np.clip(dense, 0.0, None)).reshape(norms.shape)
    ref_gaps = np.where(ref_norms > DEGENERATE_NORM, ref_norms, 0.0).sum(axis=1)
    norm_tol = np.minimum(
        tol / np.maximum(ref_norms.ravel(), DEGENERATE_NORM), np.sqrt(tol)
    ).reshape(norms.shape)
    assert np.all(np.abs(gaps - ref_gaps) <= norm_tol.sum(axis=1))

    # each witness's residual means are bitwise what compress gives unmerged
    for P, nv in zip(probs, norms):
        _, means = _witness(eb, P, nv, 1.0, "w")
        Cp = _residual_coeff_matrix(eb, P)
        for j, got in enumerate(means):
            want = compress(RkhsElement(spec, Z, Cp[:, j]))
            assert got.anchors.shape == want.anchors.shape
            assert got.anchors.tobytes() == want.anchors.tobytes()
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_audit_scans_each_distinct_point_once(monkeypatch):
    # 4,096 samples of a 24-point planted instance: the scans see at most
    # the 24 support points plus the 24 anchors, merged once per batch
    spec = KernelSpec("min", 1, 1.5)
    inst = planted_bias_instance(spec, 2, 24, 0.25, 3)
    eb = evaluate_batch(inst.predictor, inst.source(0).take(4096))
    pool = random_loss_pool(spec, eb.Y, 2, 1.0, 4, np.random.default_rng(0))
    scanned, merged = [], []
    real_span_gram, real_distinct_rows = audit_module.span_gram, model_module.distinct_rows

    def counting_span_gram(spec, points, C):
        scanned.append(len(points))
        return real_span_gram(spec, points, C)

    def counting_distinct_rows(rows):
        merged.append(len(rows))
        return real_distinct_rows(rows)

    monkeypatch.setattr(audit_module, "span_gram", counting_span_gram)
    monkeypatch.setattr(model_module, "distinct_rows", counting_distinct_rows)
    audit(eb, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    decce_estimate(eb, pool=pool, beta=2.0, R1=1.0)
    assert len(scanned) == 2 and max(scanned) <= 48
    assert merged == [4096 + 24]


# audit reports


def test_audit_threshold_boundary():
    # zero predictor, all outcomes at .64: gap is ||phi(.64)|| = .8 exactly
    batch = SampleBatch(np.zeros((6, 1)), np.full((6, 1), 0.64))
    p = Predictor(MIN, ConstantBase(zero_element(MIN)))
    pool = random_loss_pool(MIN, batch.Y, 1, 1.0, 2, np.random.default_rng(0))
    hot = audit(p, batch, epsilon=1.0, pool=pool, beta=2.0, R1=1.0)
    assert hot.found and hot.empirical_gap == pytest.approx(0.8, abs=1e-12)
    assert hot.threshold == pytest.approx(0.75)
    cold = audit(p, batch, epsilon=1.1, pool=pool, beta=2.0, R1=1.0)
    assert not cold.found
    assert cold.threshold == pytest.approx(AUDIT_THRESHOLD_FACTOR * 1.1)


def test_audit_report_metadata():
    batch = min_batch(25, "audit-batch")
    p = min_predictor()
    pool = pool_for(batch, 2, 7)
    report = audit(p, batch, epsilon=0.2, pool=pool, beta=3.0, R1=1.0, witness_id="w0")
    assert report.n_used == 25
    assert report.candidate_pool_size == 7
    assert report.witness_loss.loss_id == "w0"
    assert report.witness_lossprime in pool
    assert report.witness_loss.n_actions == 2


def test_audit_accepts_evaluated_batch():
    batch = min_batch(15)
    p = min_predictor()
    pool = pool_for(batch, 2, 4)
    eb = evaluate_batch(p, batch)
    a = audit(p, batch, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    b = audit(eb, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    assert a.empirical_gap == b.empirical_gap
    assert a.found == b.found


def test_pool_growth_never_shrinks_the_estimate():
    batch = min_batch(20)
    p = min_predictor()
    pool = pool_for(batch, 2, 8)
    eb = evaluate_batch(p, batch)
    small = decce_estimate(eb, pool=pool[:3], beta=3.0, R1=1.0)
    large = decce_estimate(eb, pool=pool, beta=3.0, R1=1.0)
    assert small <= large


def test_audit_validation():
    batch = min_batch(5)
    p = min_predictor()
    pool = pool_for(batch, 2, 2)
    with pytest.raises(ValueError):
        audit(p, batch, epsilon=0.0, pool=pool, beta=1.0, R1=1.0)
    with pytest.raises(ValueError, match="a batch is required"):
        audit(p, epsilon=0.1, pool=pool, beta=1.0, R1=1.0)
    eb = evaluate_batch(p, batch)
    with pytest.raises(ValueError):
        decce_estimate(eb, pool=[], beta=1.0, R1=1.0)
    # a loss over another kernel with the same outcome dimension
    lin1 = KernelSpec("linear", 1, 1.5)
    other = LossFunction("lin", (feature(lin1, 0.5), feature(lin1, -0.5)), 1.0)
    with pytest.raises(KernelMismatchError):
        audit(p, batch, epsilon=0.1, pool=[other], beta=1.0, R1=1.0)
    with pytest.raises(KernelMismatchError):
        empirical_gap(eb, other, pool[0], beta=1.0)


def test_pool_with_mixed_action_counts_is_rejected():
    # stacked per-action norms of a 1-action and a 3-action candidate would
    # otherwise regroup as 2 + 2 columns and report a wrong gap
    batch = min_batch(20)
    p = min_predictor()
    pool = pool_for(batch, 1, 1, seed=5) + pool_for(batch, 3, 1, seed=6)
    for lp in pool:
        audit(p, batch, epsilon=0.1, pool=[lp], beta=3.0, R1=1.0)
    with pytest.raises(ValueError, match=r"action counts \[1, 3\]"):
        audit(p, batch, epsilon=0.1, pool=pool, beta=3.0, R1=1.0)


def test_pooled_witnesses_match_pools_of_one():
    batch = min_batch(60)
    p = min_predictor()
    pool = pool_for(batch, 3, 6, seed=11)
    eb = evaluate_batch(p, batch)
    ids = [f"star-{lp.loss_id}" for lp in pool]
    pooled = closed_form_witnesses(eb, pool, R1=1.0, beta=4.0, loss_ids=ids)
    for lp, lid, got in zip(pool, ids, pooled):
        alone = closed_form_witnesses(eb, [lp], R1=1.0, beta=4.0, loss_ids=[lid])[0]
        assert got.loss_id == alone.loss_id == lid
        for a, b in zip(got.coefficients, alone.coefficients):
            assert np.array_equal(a.anchors, b.anchors)
            np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-12, atol=0.0)


# candidate pools


def test_random_pool_shape_and_norms():
    batch = min_batch(30)
    pool = random_loss_pool(MIN, batch.Y, 3, 0.7, 5, np.random.default_rng(2), id_prefix="cand")
    assert [loss.loss_id for loss in pool] == [f"cand-{k:03d}" for k in range(5)]
    seen = {row.tobytes() for row in batch.Y}
    for loss in pool:
        assert loss.n_actions == 3
        assert loss.norms() == pytest.approx(np.full(3, 0.7), rel=1e-12)
        for el in loss.coefficients:
            assert all(a.tobytes() in seen for a in el.anchors)


def test_random_pool_needs_outcomes():
    with pytest.raises(ValueError):
        random_loss_pool(MIN, np.zeros((0, 1)), 2, 1.0, 3, np.random.default_rng(0))


def per_element_pool(spec, Y, n_actions, R1, size, rng, id_prefix="rand"):
    """random_loss_pool written with one element per step: the drawn span,
    its compression, and the element rescaled to norm R1."""
    pool = []
    for k in range(size):
        elements = []
        for _ in range(n_actions):
            take = min(POOL_LOSS_SPAN, len(Y))
            idx = rng.choice(len(Y), size=take, replace=False)
            el = compress(RkhsElement(spec, Y[idx], rng.standard_normal(take)))
            nv = np.sqrt(max(span_gram(spec, el.anchors, el.coeffs[:, None])[0, 0], 0.0))
            if nv <= DEGENERATE_NORM:
                elements.append(zero_element(spec))
            else:
                elements.append(RkhsElement(spec, el.anchors, el.coeffs * (R1 / nv)))
        pool.append(LossFunction(f"{id_prefix}-{k:03d}", tuple(elements), R1))
    return pool


@pytest.mark.parametrize(
    "spec, Y",
    [
        (MIN, np.random.default_rng(1).uniform(0.0, 1.0, (50, 1))),
        (MIN, np.array([[0.0], [0.25], [0.5], [0.75], [-0.0]])[np.arange(40) % 5]),
        (MIN, np.array([[0.4]] * 3)),
        (KernelSpec("linear", 3, 1.5), np.random.default_rng(2).uniform(-0.5, 0.5, (30, 3))),
    ],
    ids=["min-continuous", "min-repeated", "min-fewer-than-span", "linear3"],
)
def test_random_pool_matches_per_element_construction(spec, Y):
    got = random_loss_pool(spec, Y, 3, 0.7, 32, np.random.default_rng(4), id_prefix="c")
    want = per_element_pool(spec, Y, 3, 0.7, 32, np.random.default_rng(4), id_prefix="c")
    assert [loss.loss_id for loss in got] == [loss.loss_id for loss in want]
    for a, b in zip(got, want):
        assert a.R1 == b.R1
        for x, y in zip(a.coefficients, b.coefficients, strict=True):
            assert x.anchors.shape == y.anchors.shape
            assert x.anchors.tobytes() == y.anchors.tobytes()
            assert x.coeffs.tobytes() == y.coeffs.tobytes()
