"""Auditing: empirical gaps, closed-form witnesses, and pool scans."""

import dataclasses
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
    _unit_columns,
    _witness,
    audit,
    closed_form_witnesses,
    decce_estimate,
    empirical_gap,
    random_loss_pool,
    rule_probabilities,
)
from decal.calibrate import CalibConfig, potential, run_calibration
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    OutcomeDomainError,
    RkhsElement,
    column_norms,
    distinct_rows,
    merge_terms,
)
from decal.model import (
    DEGENERATE_NORM,
    ConstantBase,
    LossFunction,
    PatchRecord,
    Predictor,
    SampleBatch,
    SimilarityBase,
    _EvalPlan,
    cut_span,
    evaluate_batch,
    loss_estimates,
    make_loss,
)
from decal.synth import ArraySource, planted_bias_instance
from spans import dense_basis, element, feature, spy, stack

# the modules themselves; the package exports a function named `audit`
audit_module = importlib.import_module("decal.audit")
calibrate_module = importlib.import_module("decal.calibrate")
model_module = importlib.import_module("decal.model")

MIN = KernelSpec("min", 1, 1.5)
LIN2 = KernelSpec("linear", 2, 1.5)

rng = np.random.default_rng(23)


def min_batch(n, batch_id="b"):
    return SampleBatch(rng.standard_normal((n, 2)), rng.uniform(0.05, 0.95, size=(n, 1)), batch_id)


def min_predictor(n_anchors=4, scale=0.25):
    anchors = rng.uniform(0.05, 0.95, size=(n_anchors, 1))
    return Predictor(MIN, ConstantBase(element(MIN, anchors, rng.standard_normal(n_anchors) * scale)))


def empty(spec):
    return RkhsElement(spec, np.zeros((0, spec.dim)), np.zeros((0, 1)))


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
    zero = LossFunction("zero", RkhsElement(MIN, np.zeros((0, 1)), np.zeros((0, 2))), 1.0)
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
    p = Predictor(LIN2, ConstantBase(element(LIN2, banchors, bcoeffs)))
    batch = SampleBatch(X, Y)

    rows = g.standard_normal((2, 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    lp = LossFunction("lp", RkhsElement(LIN2, rows, np.eye(2)), 1.0)

    P = oracle.project_rows(np.tile(bcoeffs @ banchors, (3, 1)), LIN2.R2)
    K = oracle.smooth_rule(P, rows, 3.0)

    eb = evaluate_batch(p, batch)
    wl = closed_form_witnesses(eb, [lp], R1=1.0, beta=3.0, loss_ids=["star"])[0]
    wl_vecs = wl.span.coeffs.T @ wl.span.anchors
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
    p = Predictor(MIN, ConstantBase(empty(MIN)))
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
    eb = evaluate_batch(p, SampleBatch(batch.X, batch.Y))  # replayed afresh, the pool read densely
    direct = empirical_gap(eb, report.witness_loss, report.witness_lossprime, beta=4.0)
    assert report.empirical_gap == pytest.approx(direct, rel=1e-9)


def test_empty_batch_is_rejected_by_every_entry_point():
    """`evaluate_batch` refuses an empty batch, so no estimator is handed
    one: `decce_estimate` and `empirical_gap` take only an evaluated batch,
    and `audit` on a predictor evaluates its batch first."""
    p = min_predictor()
    empty = SampleBatch(np.zeros((0, 2)), np.zeros((0, 1)))
    pool = pool_for(min_batch(10), 2, 3)
    with pytest.raises(ValueError, match="need at least one sample"):
        audit(p, empty, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    with pytest.raises(ValueError, match="need at least one sample"):
        evaluate_batch(p, empty)


# the scan over distinct points

SCAN_SPECS = {
    "min": KernelSpec("min", 1, 1.5),
    "linear": KernelSpec("linear", 2, 1.5),
    "exp": KernelSpec("exp", 2, 2.0),
}


def scan_case(spec, n, support_size, all_distinct, signed_zeros, n_patches, seed):
    """A patched predictor, a batch and its evaluation, whose outcomes, base
    anchors and patch rows repeat a small support, or are all distinct;
    signed_zeros adds rows that differ only in the sign of a zero coordinate.
    Every third patch, and the last, pushes every prediction out of the R2
    ball, so the projection fires."""
    r = np.random.default_rng(seed)

    def draw(m):
        if spec.kind == "min":
            return r.uniform(0.0, 1.0, (m, 1))
        return r.uniform(-0.5, 0.5, (m, spec.dim))

    support = draw(support_size)

    def rows(m):
        return draw(m) if all_distinct else support[r.integers(0, support_size, m)]

    def element(m, scale):
        return RkhsElement(spec, rows(m), (r.standard_normal(m) * scale)[:, None])

    Y, anchors = rows(n), rows(4)
    if signed_zeros:
        zeros = np.array([[0.0], [-0.0]]) if spec.dim == 1 else np.array([[0.0, 0.3], [-0.0, 0.3]])
        Y = np.vstack([zeros, Y, zeros[::-1]])
        anchors = np.vstack([anchors, zeros])
    base = SimilarityBase(spec, anchors, r.standard_normal((len(anchors), 2)), bandwidth=0.7)
    top = np.full((1, spec.dim), 0.5)
    push = RkhsElement(spec, top, [[4.0 * spec.R2 / np.sqrt(spec.diag(top)[0])]])
    records = []
    for t in range(n_patches):
        lossprime = make_loss(f"lp{t}", stack(spec, [element(2, 1.0) for _ in range(2)]), 1.0)
        beta = float(r.uniform(0.5, 4.0))
        if t % 3 == 1 or t == n_patches - 1:
            records.append(PatchRecord("alg1", lossprime, beta, stack(spec, (push, push)),
                                       eta=0.1))
        elif t % 2:
            rows_t = stack(spec, [element(int(r.integers(1, 4)), 0.4) for _ in range(2)])
            records.append(PatchRecord("alg1", lossprime, beta, rows_t, eta=0.1))
        else:
            A = r.standard_normal((2, 2))
            M = np.linalg.inv(A @ A.T / 4.0 + np.eye(2))
            rows_t = stack(spec, [element(int(r.integers(1, 4)), 0.4) for _ in range(2)])
            records.append(PatchRecord("alg2", lossprime, beta, rows_t, mixing=(M + M.T) / 2.0))
    p = Predictor(spec, base, tuple(records))
    batch = SampleBatch(r.standard_normal((len(Y), 2)), Y)
    return p, batch, evaluate_batch(p, batch)


def coefficient_map(points, coeffs):
    """{point bytes: coefficient} of a span with distinct points."""
    return {pt.tobytes(): c for pt, c in zip(points, coeffs, strict=True)}


@given(
    st.sampled_from(sorted(SCAN_SPECS)),
    st.integers(1, 60),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
    st.integers(2, 7),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_basis_scan_matches_dense_reference(
    kind, n, support_size, all_distinct, signed_zeros, n_patches, seed
):
    """The scan in the patch-row basis agrees with the residual means spanned
    densely over the unmerged points [Y; anchors], with the coefficients
    W = p.coefficients(X) over the anchors: squared norms to 1e-12 relative
    (slack scaled by |C|^T |K| |C|) and witness means coefficient by
    coefficient to 1e-12 of the magnitudes summed into each."""
    spec = SCAN_SPECS[kind]
    p, batch, eb = scan_case(spec, n, support_size, all_distinct, signed_zeros, n_patches, seed)
    assert np.allclose(eb.pnorm2, spec.R2**2, rtol=1e-9)  # the last push was projected
    pool = random_loss_pool(spec, eb.Y, 2, 1.0, 3, np.random.default_rng(seed))
    gaps, norms, probs, parts = _gap_scan(eb, pool, 3.0, 1.0)

    n = len(eb)
    W = p.coefficients(batch.X)
    B = np.hstack(probs)
    points = np.vstack([eb.Y, p.anchors])
    C = np.vstack([B / n, -(W.T @ B) / n])
    K = spec.gram(points, points)
    dense = np.einsum("ij,ij->j", C, K @ C)
    slack = np.einsum("ij,ik,kj->j", np.abs(C), np.abs(K), np.abs(C))
    tol = 1e-12 * np.abs(dense) + 1e-12 * slack
    assert np.all(np.abs(norms.ravel() ** 2 - np.clip(dense, 0.0, None)) <= tol)
    ref_norms = np.sqrt(np.clip(dense, 0.0, None)).reshape(norms.shape)
    ref_gaps = np.where(ref_norms > DEGENERATE_NORM, ref_norms, 0.0).sum(axis=1)
    norm_tol = np.minimum(
        tol / np.maximum(ref_norms.ravel(), DEGENERATE_NORM), np.sqrt(tol)
    ).reshape(norms.shape)
    assert np.all(np.abs(gaps - ref_gaps) <= norm_tol.sum(axis=1))

    # each point's coefficient in a witness mean is a sum of terms whose
    # magnitudes add up to at most `scale` at that point
    F = dense_basis(p._plan)
    terms = np.vstack([np.abs(B) / n, np.abs(F).T @ (np.abs(eb.Z).T @ np.abs(B)) / n])
    first, inverse = distinct_rows(points)
    width = norms.shape[1]
    U = eb.outcomes[0]
    for i, (part, nv) in enumerate(zip(parts, norms)):
        witness = _witness(eb, part, nv, 1.0, "w")
        # the raw residual means: the witness's form with unit 1, as alg2's rows
        raw = dataclasses.replace(witness.span.form, unit=np.ones(width))
        means = cut_span(p._plan, raw).coeffs
        assert means.shape == witness.span.coeffs.shape == (len(witness.span.anchors), width)
        BU, ZB = part
        own = np.vstack([BU, -p._plan.expand(ZB.T).T])
        for j in range(width):
            c = i * width + j
            live = means[:, j] != 0.0
            got = element(spec, witness.span.anchors[live], means[live, j])
            # the merge is the merged table of the witness's own unmerged columns
            mine = element(spec, np.vstack([U, p.anchors]), own[:, j]).merged()
            assert got.anchors.tobytes() == mine.anchors.tobytes()
            assert got.coeffs.tobytes() == mine.coeffs.tobytes()
            # and it matches the merged dense columns
            want = element(spec, points, C[:, c]).merged()
            scale = np.bincount(inverse, weights=terms[:, c], minlength=len(first))
            got_at, want_at = coefficient_map(got.anchors, got.coeffs[:, 0]), coefficient_map(
                want.anchors, want.coeffs[:, 0]
            )
            assert set(got_at) | set(want_at) <= {pt.tobytes() for pt in points[first]}
            for pt, s in zip(points[first], scale):
                key = pt.tobytes()
                assert abs(got_at.get(key, 0.0) - want_at.get(key, 0.0)) <= 1e-12 * s


def test_audit_scans_each_distinct_point_once():
    # 4,096 samples of a 24-point planted instance: the outcomes are merged
    # once per batch, and no Gram matrix the scans build spans more than the
    # distinct outcomes U plus the K basis rows
    spec = KernelSpec("min", 1, 1.5)
    inst = planted_bias_instance(spec, 2, 24, 0.25, 3)
    eb = evaluate_batch(inst.predictor, inst.source(0).take(4096))
    pool = random_loss_pool(spec, eb.Y, 2, 1.0, 4, np.random.default_rng(0))
    with spy(KernelSpec, "gram") as grams, spy(model_module, "distinct_rows") as merged:
        audit(eb, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
        decce_estimate(eb, pool=pool, beta=2.0, R1=1.0)
    assert [len(args[0]) for args in merged] == [4096]
    bound = len(eb.outcomes[0]) + eb.plan.k
    assert bound <= 48
    assert grams and max(max(len(args[1]), len(args[2])) for args in grams) <= bound


def test_calibration_expands_only_witness_rows(monkeypatch):
    # a patched calibration on continuous outcomes expands no coefficients
    # over the anchors: its witnesses and patch rows are cut forms whose
    # tables no round reads
    g = np.random.default_rng(29)
    source = ArraySource(g.standard_normal((2000, 2)), g.uniform(0.3, 0.9, (2000, 1)))
    p0 = Predictor(MIN, ConstantBase(empty(MIN)))
    config = CalibConfig(epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=3, max_iters=4,
                         audit_batch_size=96, pool_size=8, heldout_size=96)
    rows = []
    real_expand = _EvalPlan.expand
    monkeypatch.setattr(
        _EvalPlan, "expand",
        lambda self, Z, *args: (rows.append(len(Z)), real_expand(self, Z, *args))[1]
    )
    p, trace = run_calibration(p0, source, config)
    assert len(p.patches) >= 2
    assert rows == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_context_is_refused(bad):
    """One NaN or infinite context made every residual norm of its batch
    NaN, which the scan counts as degenerate: audit reported a zero gap, a
    calibration with one among its held-out rows ended calibrated with NaN
    potentials and a zero held-out decCE, and loss estimates were NaN.  Every
    batch, source and replay entry point refuses it by name."""
    inst = planted_bias_instance(MIN, 2, 24, 0.25, 3)
    batch = inst.source(0).take(200)
    X = batch.X.copy()
    X[7, 0] = bad
    pool = random_loss_pool(MIN, batch.Y, 2, 1.0, 4, np.random.default_rng(0))
    config = CalibConfig(epsilon=0.2, beta=4.0, R1=1.0, R2=1.5, n_actions=2, max_iters=2,
                         audit_batch_size=96, pool_size=4, heldout_size=100)
    for run in (
        lambda: audit(inst.predictor, SampleBatch(X, batch.Y), epsilon=0.1, pool=pool, beta=2.0,
                      R1=1.0),
        lambda: evaluate_batch(inst.predictor, SampleBatch(X, batch.Y)),
        lambda: loss_estimates(inst.predictor, X, pool[0]),
        lambda: run_calibration(inst.predictor, ArraySource(X, batch.Y), config),
    ):
        with pytest.raises(ValueError, match="contexts must be finite"):
            run()


EXP3 = KernelSpec("exp", 3, 2.0)  # domain radius sqrt(2 ln 2) = 1.18
# outcome rows outside each kernel's domain: non-finite, or past [0, 1] or the ball
DOMAIN_CASES = [
    (MIN, [np.nan]), (MIN, [np.inf]), (MIN, [-np.inf]), (MIN, [7.0]), (MIN, [-3.0]),
    (LIN2, [np.nan, 0.0]), (LIN2, [2.0, 0.0]), (LIN2, [0.0, -np.inf]),
    (EXP3, [np.inf, 0.0, 0.0]), (EXP3, [0.0, 1.5, 0.0]),
]
DOMAIN_IDS = ["min-nan", "min-inf", "min-neg-inf", "min-7", "min-neg-3", "linear-nan",
              "linear-past-ball", "linear-neg-inf", "exp-inf", "exp-past-ball"]


def _spoiled(spec, row):
    """A planted instance, a clean batch, a pool drawn on it, and the batch
    with its outcome 7 replaced by `row`."""
    inst = planted_bias_instance(spec, 2, 24, 0.25, 3)
    batch = inst.source(0).take(200)
    pool = random_loss_pool(spec, batch.Y, 2, 1.0, 4, np.random.default_rng(0))
    Y = batch.Y.copy()
    Y[7] = row
    return inst, pool, SampleBatch(batch.X, Y)


def _admissible(spec, arr) -> bool:
    try:
        spec.check_domain(arr)
    except OutcomeDomainError:
        return False
    return True


@pytest.mark.parametrize("spec, row", DOMAIN_CASES, ids=DOMAIN_IDS)
def test_an_outcome_outside_the_domain_is_refused_before_any_kernel_block(spec, row):
    """Every reader of a batch's distinct outcomes takes them from
    EvaluatedBatch.outcomes, which refuses one outside the kernel's domain
    as it merges them: audit and closed_form_witnesses checked only after
    the scan had built K_UU and K_FU on it, and decce_estimate and
    potential did not check at all (one NaN made the estimate 0.0 and the
    potential NaN); empirical_gap reads a witness cut on the predictor's
    plan from the merged outcomes before the lossprime's rule (it used to
    read the witness's table on the raw rows, a NaN gap).  No kernel block
    is built on the bad row."""
    inst, pool, bad = _spoiled(spec, row)
    p = inst.predictor
    witness = closed_form_witnesses(evaluate_batch(p, inst.source(0).take(200)), pool[:1],
                                    R1=1.0, beta=2.0, loss_ids=["w"])[0]
    runs = {
        "audit": lambda: audit(p, bad, epsilon=0.1, pool=pool, beta=2.0, R1=1.0),
        "witnesses": lambda: closed_form_witnesses(
            evaluate_batch(p, bad), pool, R1=1.0, beta=2.0, loss_ids=range(len(pool))),
        "decce": lambda: decce_estimate(evaluate_batch(p, bad), pool=pool, beta=2.0, R1=1.0),
        "potential": lambda: potential(p, bad),
        "gap": lambda: empirical_gap(evaluate_batch(p, bad), witness, pool[1], beta=2.0),
    }
    for name, run in runs.items():
        with spy(KernelSpec, "gram") as grams, spy(_EvalPlan, "gram_lift") as lifts:
            with pytest.raises(OutcomeDomainError):
                run()
        assert lifts == [], name
        assert all(_admissible(spec, arr) for args in grams for arr in args[1:]), name


@pytest.mark.parametrize("bad", [np.nan, 7.0])
def test_a_held_out_outcome_outside_the_domain_stops_a_calibration_before_its_first_audit(bad):
    """The held-out batch's potential reads its merged outcomes, so one
    outcome outside the domain among them is refused before the first
    round; one used to let the calibration run its audits (NaN potentials
    included) and be refused only by the final held-out pool draw."""
    inst = planted_bias_instance(MIN, 2, 24, 0.25, 3)
    batch = inst.source(0).take(2000)
    Y = batch.Y.copy()
    Y[5] = bad
    config = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=1.5, n_actions=2, max_iters=6,
                         audit_batch_size=96, pool_size=4, heldout_size=100)
    with spy(calibrate_module, "audit") as audits:
        with pytest.raises(OutcomeDomainError):
            run_calibration(inst.predictor, ArraySource(batch.X, Y), config)
    assert audits == []


def test_empirical_gap_reads_the_raw_outcomes():
    """empirical_gap reads loss.values(eb.Y), not the merged outcomes, and
    checks none: a NaN outcome gives a NaN gap, never a number that looks
    like one."""
    inst, pool, bad = _spoiled(MIN, [np.nan])
    eb = evaluate_batch(inst.predictor, bad)
    assert np.isnan(empirical_gap(eb, pool[0], pool[1], beta=2.0))
    assert "outcomes" not in eb.__dict__


def test_empirical_gap_reads_a_cut_witness_without_its_table():
    """On a fresh batch of the plan the witnesses were cut on, and on one of
    the patched plan for the witness that became the patch and the three
    that became none, empirical_gap builds neither a witness's anchor table
    nor a plan, and its gaps match those of the dense tables.  (The three
    read on the patched plan cost three `CutForm.table` calls while
    `lifted_values` read them densely.)"""
    inst = planted_bias_instance(MIN, 2, 24, 0.25, 5)
    p, source = inst.predictor, inst.source(4)
    batch = source.take(300)
    eb = evaluate_batch(p, batch)
    pool = random_loss_pool(MIN, batch.Y, 2, 1.0, 4, np.random.default_rng(2))
    witnesses = closed_form_witnesses(eb, pool, R1=1.0, beta=2.0, loss_ids=range(len(pool)))
    report = audit(eb, epsilon=0.1, pool=pool, beta=2.0, R1=1.0)
    config = CalibConfig(epsilon=0.1, beta=2.0, R1=1.0, R2=MIN.R2, n_actions=2)
    child = p.with_patch(calibrate_module.alg1_step(report, config=config))
    others = [(w, lp) for w, lp in zip(witnesses, pool) if lp is not report.witness_lossprime]
    assert len(others) == 3
    reads = [(p, list(zip(witnesses, pool))),
             (child, [(report.witness_loss, report.witness_lossprime), *others])]
    for q, pairs in reads:
        fresh = evaluate_batch(q, source.take(200))
        with spy(model_module.CutForm, "table") as tables, \
                spy(model_module._EvalPlan, "__init__") as plans:
            gaps = [empirical_gap(fresh, w, lp, beta=2.0) for w, lp in pairs]
        assert tables == [] and plans == []
        for (w, lp), gap in zip(pairs, gaps):
            table = w.span.form.table(MIN)
            dense = LossFunction("dense", RkhsElement(MIN, table.anchors, table.coeffs), 1.0)
            assert gap == pytest.approx(empirical_gap(fresh, dense, lp, beta=2.0), abs=1e-13)


# audit reports


def test_audit_threshold_boundary():
    # zero predictor, all outcomes at .64: gap is ||phi(.64)|| = .8 exactly
    batch = SampleBatch(np.zeros((6, 1)), np.full((6, 1), 0.64))
    p = Predictor(MIN, ConstantBase(empty(MIN)))
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
    """audit on a predictor and a batch is audit on a fresh batch of the
    same arrays evaluated first, with the same pool drawn on it."""
    batch = min_batch(15)
    p = min_predictor()
    fresh = SampleBatch(batch.X, batch.Y)
    a = audit(p, batch, epsilon=0.1, pool=pool_for(batch, 2, 4), beta=2.0, R1=1.0)
    b = audit(evaluate_batch(p, fresh), epsilon=0.1, pool=pool_for(fresh, 2, 4), beta=2.0, R1=1.0)
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
    other = LossFunction("lin", RkhsElement(lin1, [[0.5], [-0.5]], np.eye(2)), 1.0)
    with pytest.raises(KernelMismatchError):
        audit(p, batch, epsilon=0.1, pool=[other], beta=1.0, R1=1.0)
    with pytest.raises(KernelMismatchError):
        empirical_gap(eb, other, pool[0], beta=1.0)
    # a loss and a lossprime of different action counts, refused before any
    # kernel block (a 1-action loss used to broadcast against a 2-action rule)
    for a, b in ((1, 2), (2, 3)):
        loss, lossprime = pool_for(batch, a, 1, seed=a)[0], pool_for(batch, b, 1, seed=b)[0]
        with spy(KernelSpec, "gram") as grams, spy(_EvalPlan, "gram_lift") as lifts:
            with pytest.raises(ValueError, match=f"action count: {a} against {b}"):
                empirical_gap(eb, loss, lossprime, beta=1.0)
        assert grams == [] and lifts == []


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
        assert np.array_equal(got.span.anchors, alone.span.anchors)
        np.testing.assert_allclose(got.span.coeffs, alone.span.coeffs, rtol=1e-12, atol=0.0)


# candidate pools


def test_random_pool_shape_and_norms():
    batch = min_batch(30)
    pool = random_loss_pool(MIN, batch.Y, 3, 0.7, 5, np.random.default_rng(2), id_prefix="cand")
    assert [loss.loss_id for loss in pool] == [f"cand-{k:03d}" for k in range(5)]
    seen = {row.tobytes() for row in batch.Y}
    for loss in pool:
        assert loss.n_actions == 3
        assert loss.span.norms() == pytest.approx(np.full(3, 0.7), rel=1e-12)
        assert all(a.tobytes() in seen for a in loss.span.anchors)


def test_random_pool_needs_outcomes():
    with pytest.raises(ValueError):
        random_loss_pool(MIN, np.zeros((0, 1)), 2, 1.0, 3, np.random.default_rng(0))


def per_element_pool(spec, Y, n_actions, R1, size, rng, id_prefix="rand"):
    """random_loss_pool written with one element per action: the drawn span,
    its compression, and the element rescaled to norm R1, or dropped where
    its norm is degenerate."""
    pool = []
    for k in range(size):
        elements = []
        for _ in range(n_actions):
            take = min(POOL_LOSS_SPAN, len(Y))
            idx = rng.choice(len(Y), size=take, replace=False)
            el = element(spec, Y[idx], rng.standard_normal(take)).merged()
            G = spec.gram(el.anchors, el.anchors)
            nv = np.sqrt(max(el.coeffs[:, 0] @ G @ el.coeffs[:, 0], 0.0))
            if nv <= DEGENERATE_NORM:
                elements.append(empty(spec))
            else:
                elements.append(RkhsElement(spec, el.anchors, el.coeffs * (R1 / nv)))
        pool.append((f"{id_prefix}-{k:03d}", elements))
    return pool


def per_loss_pool(spec, Y, n_actions, R1, size, rng, id_prefix="rand"):
    """random_loss_pool merged one loss at a time: each loss's drawn rows by
    merge_terms, then its column norms and its columns rescaled to R1."""
    take = min(POOL_LOSS_SPAN, len(Y))
    pool = []
    for k in range(size):
        idx, coeffs = [], np.zeros((take * n_actions, n_actions))
        for a in range(n_actions):
            idx.append(rng.choice(len(Y), size=take, replace=False))
            coeffs[a * take : (a + 1) * take, a] = rng.standard_normal(take)
        anchors, coeffs = merge_terms(spec, Y[np.concatenate(idx)], coeffs)
        unit = _unit_columns(coeffs, column_norms(spec, anchors, coeffs), R1)
        pool.append((f"{id_prefix}-{k:03d}", anchors, unit))
    return pool


def signed_zero_rows(dim, g):
    """Four rows, each also present with its first coordinate's zero negated."""
    rows = np.vstack([np.zeros((1, dim)), g.uniform(0.0, 0.5, (3, dim))])
    rows[:, 0] = 0.0
    flipped = rows.copy()
    flipped[:, 0] = -0.0
    return np.vstack([rows, flipped])


def with_signed_zeros(dim, n, seed):
    """signed_zero_rows followed by n uniform rows inside every test kernel's domain."""
    g = np.random.default_rng(seed)
    return np.vstack([signed_zero_rows(dim, g), g.uniform(-0.6, 0.6, (n, dim))])


@pytest.mark.parametrize(
    "spec, Y",
    [
        (MIN, signed_zero_rows(1, np.random.default_rng(5))[np.arange(60) % 8]),
        (LIN2, with_signed_zeros(2, 9, 6)[np.arange(51) % 17]),
        (KernelSpec("exp", 2, 2.0), with_signed_zeros(2, 40, 8)),
        (MIN, np.array([[0.3], [0.0], [0.3], [-0.0], [0.9]])),
    ],
    ids=["min-repeated", "linear-repeated", "exp", "min-fewer-than-span"],
)
def test_random_pool_is_bytewise_the_per_loss_merge(spec, Y):
    """Merging the whole pool at once gives every loss the table that merging
    it alone gives, byte for byte, and leaves the generator where the per-loss
    draws leave it; each loss records the rows of Y it is anchored on."""
    Y.setflags(write=False)
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = random_loss_pool(spec, Y, 3, 0.7, 24, got_rng, id_prefix="c")
    want = per_loss_pool(spec, Y, 3, 0.7, 24, want_rng, id_prefix="c")
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert [loss.loss_id for loss in got] == [lid for lid, _, _ in want]
    for loss, (_, anchors, coeffs) in zip(got, want):
        assert loss.span.anchors.tobytes() == anchors.tobytes()
        assert loss.span.coeffs.shape == coeffs.shape
        assert loss.span.coeffs.tobytes() == coeffs.tobytes()
        source, rows = loss.anchor_rows
        assert source is Y
        assert source[rows].tobytes() == anchors.tobytes()


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
    """The pool draws from the generator exactly as one element per action
    would, and each action's values match that element's to 1e-12 relative."""
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = random_loss_pool(spec, Y, 3, 0.7, 32, got_rng, id_prefix="c")
    want = per_element_pool(spec, Y, 3, 0.7, 32, want_rng, id_prefix="c")
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert [loss.loss_id for loss in got] == [lid for lid, _ in want]
    for loss, (_, elements) in zip(got, want):
        assert loss.R1 == 0.7
        assert loss.n_actions == len(elements)
        for a, el in enumerate(elements):
            K = spec.gram(Y, el.anchors)
            want_vals = K @ el.coeffs[:, 0]
            slack = np.abs(K) @ np.abs(el.coeffs[:, 0])
            assert np.all(np.abs(loss.values(Y)[:, a] - want_vals) <= 1e-12 * slack)
