"""Decision rules, loss functions, and patched predictors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    RkhsElement,
    compress,
    feature,
    norm,
    zero_element,
)
from decal.model import (
    ConstantBase,
    LossFunction,
    PatchRecord,
    Predictor,
    SampleBatch,
    SimilarityBase,
    _EvalPlan,
    evaluate_batch,
    load_loss,
    load_predictor,
    loss_estimates,
    loss_file_doc,
    loss_from_doc,
    loss_to_doc,
    make_loss,
    predictor_from_doc,
    predictor_to_doc,
    save_json,
    save_predictor,
    smooth_best_response,
    softmax,
)

MIN = KernelSpec("min", 1, 1.5)
LIN2 = KernelSpec("linear", 2, 1.5)

rng = np.random.default_rng(19)


def sample_points(spec, n):
    if spec.kind == "min":
        return rng.uniform(0.05, 0.95, size=(n, 1))
    pts = rng.standard_normal((n, spec.dim))
    radii = rng.uniform(0.0, 0.9 * spec.domain_radius, size=(n, 1))
    return pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12) * radii


def random_loss(spec, n_actions, R1, loss_id="rand"):
    els = []
    for a in range(n_actions):
        pts = sample_points(spec, 3)
        els.append(RkhsElement(spec, pts, rng.standard_normal(3) * 0.3))
    return make_loss(loss_id, els, R1)


def constant_predictor(spec, anchors, coeffs):
    el = RkhsElement(spec, np.asarray(anchors, dtype=np.float64), np.asarray(coeffs, dtype=np.float64))
    return Predictor(spec, ConstantBase(el))


def single_anchor_loss(spec, rows, R1, loss_id):
    els = tuple(RkhsElement(spec, np.atleast_2d(row), np.array([1.0])) for row in rows)
    return make_loss(loss_id, els, R1)


# decision rules


def test_smooth_rule_uniform_on_ties():
    out = smooth_best_response([0.7, 0.7, 0.7], 3.5)
    assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)


def test_smooth_rule_beta_zero_is_uniform():
    out = smooth_best_response([5.0, -2.0, 0.1, 40.0], 0.0)
    assert np.array_equal(out, np.full(4, 0.25))


def test_smooth_rule_two_to_one_split():
    # exp(0) : exp(-ln 2) = 2 : 1 after normalizing
    out = smooth_best_response([0.0, np.log(2.0)], 1.0)
    assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_smooth_rule_rejects_negative_beta():
    with pytest.raises(ValueError):
        smooth_best_response([0.0, 1.0], -0.5)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_smooth_rule_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite"):
        smooth_best_response([0.0, 1.0], beta)


def test_softmax_matches_scipy_bitwise():
    from scipy.special import softmax as scipy_softmax

    g = np.random.default_rng(23)
    cases = [g.standard_normal(shape) * scale
             for shape in [(1,), (5,), (64, 2), (40, 7), (3, 4, 6)]
             for scale in (1e-3, 1.0, 30.0, 1e3)]
    cases.append(np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, -1e3], [1e3, 1e3 - 1e-9, 999.0]]))
    for Z in cases:
        assert softmax(Z).tobytes() == scipy_softmax(Z, axis=-1).tobytes()


def test_smooth_rule_translation_invariant():
    f = np.array([0.3, -1.2, 4.0])
    a = smooth_best_response(f, 2.0)
    b = smooth_best_response(f + 17.0, 2.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_smooth_rule_batched_rows():
    F = rng.standard_normal((8, 3))
    out = smooth_best_response(F, 1.7)
    assert out.shape == (8, 3)
    assert out.sum(axis=1) == pytest.approx(np.ones(8), abs=1e-12)
    for i in range(8):
        assert out[i] == pytest.approx(smooth_best_response(F[i], 1.7), abs=1e-15)


@given(
    f=arrays(np.float64, 4, elements=st.floats(-30, 30)),
    step=arrays(np.float64, 4, elements=st.floats(-1, 1)),
    scale=st.floats(0.0, 10.0),
    beta=st.floats(0.0, 20.0),
)
@settings(max_examples=80, deadline=None)
def test_smooth_rule_lipschitz(f, step, scale, beta):
    g = f + scale * step
    l1 = np.abs(smooth_best_response(f, beta) - smooth_best_response(g, beta)).sum()
    assert l1 <= np.sqrt(2.0) * beta * np.linalg.norm(f - g) + 1e-9


@given(
    f=arrays(np.float64, st.integers(1, 6).map(lambda n: (n,)), elements=st.floats(-20, 20)),
    beta=st.floats(0.01, 50.0),
)
@settings(max_examples=80, deadline=None)
def test_smooth_rule_near_optimal(f, beta):
    # expected loss under the smooth rule trails the best action by at most
    # (ln |A| + 1) / beta
    k = smooth_best_response(f, beta)
    assert float(k @ f) <= f.min() + (np.log(len(f)) + 1.0) / beta + 1e-9


# loss functions


def test_make_loss_rescales_oversized_actions():
    big = RkhsElement(MIN, np.array([[0.9]]), np.array([5.0]))  # norm 5 * sqrt(.9)
    small = feature(MIN, 0.25)
    loss = make_loss("mixed", [big, small], 1.0)
    assert loss.rescaled
    assert loss.norms()[0] == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(loss.coefficients[1].coeffs, small.coeffs)


def test_make_loss_keeps_in_bound_actions():
    els = [feature(MIN, 0.2), feature(MIN, 0.5)]
    loss = make_loss("ok", els, 1.0)
    assert not loss.rescaled
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(loss.coefficients, els))
    assert np.all(loss.norms() <= 1.0 + 1e-9)


def test_loss_validation():
    with pytest.raises(ValueError):
        LossFunction("empty", (), 1.0)
    with pytest.raises(ValueError):
        LossFunction("mixed", (feature(MIN, 0.5), feature(LIN2, [0.1, 0.0])), 1.0)
    with pytest.raises(ValueError):
        LossFunction("bad-r1", (feature(MIN, 0.5),), 0.0)


def test_loss_values_reproduce_kernel():
    loss = make_loss("probe", [feature(MIN, 0.6)], 1.0)
    vals = loss.values([[0.3], [0.6], [0.9]])
    assert vals[:, 0] == pytest.approx([0.3, 0.6, 0.6], abs=1e-12)


def test_loss_values_zero_action_column():
    loss = LossFunction("z", (zero_element(MIN), feature(MIN, 0.5)), 1.0)
    vals = loss.values([[0.4], [0.8]])
    assert np.array_equal(vals[:, 0], np.zeros(2))


# loss estimates


def test_estimate_reproduces_on_point_mass():
    y0 = 0.7
    p = constant_predictor(MIN, [[y0]], [1.0])
    loss = random_loss(MIN, 3, 1.0)
    est = loss_estimates(p, [[0.0, 0.0]], loss)
    assert est[0] == pytest.approx(loss.values([[y0]])[0], abs=1e-12)


def test_estimate_zero_for_zero_prediction():
    p = Predictor(MIN, ConstantBase(zero_element(MIN)))
    loss = random_loss(MIN, 2, 1.0)
    assert loss_estimates(p, [[0.0]], loss)[0, 0] == 0.0


def test_estimate_orthogonal_split_cancels():
    # prediction (.5, .5) against the loss direction (1, -1)
    p = constant_predictor(LIN2, [[0.5, 0.5]], [1.0])
    loss = single_anchor_loss(LIN2, [np.array([1.0, -1.0])], 2.0, "split")
    assert loss_estimates(p, [[0.0]], loss)[0, 0] == 0.0


def test_estimates_linear_in_the_loss():
    p = constant_predictor(MIN, sample_points(MIN, 4), rng.standard_normal(4) * 0.3)
    la = random_loss(MIN, 2, 1.0, "a")
    lb = random_loss(MIN, 2, 1.0, "b")
    combo = LossFunction(
        "combo",
        tuple(
            RkhsElement(
                MIN,
                np.vstack([ea.anchors, eb.anchors]),
                np.concatenate([0.7 * ea.coeffs, eb.coeffs]),
            )
            for ea, eb in zip(la.coefficients, lb.coefficients)
        ),
        4.0,
    )
    X = rng.standard_normal((5, 2))
    lhs = loss_estimates(p, X, combo)
    rhs = 0.7 * loss_estimates(p, X, la) + loss_estimates(p, X, lb)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_estimate_rejects_kernel_mismatch():
    p = constant_predictor(MIN, [[0.5]], [1.0])
    loss = random_loss(LIN2, 2, 1.0)
    with pytest.raises(ValueError):
        loss_estimates(p, [[0.0]], loss)
    # same outcome dimension, different kernel
    loss = random_loss(KernelSpec("linear", 1, 1.5), 2, 1.0)
    with pytest.raises(KernelMismatchError):
        loss_estimates(p, [[0.0]], loss)
    with pytest.raises(KernelMismatchError):
        p.with_patch(PatchRecord("alg1", loss, 1.0, rows=loss.coefficients, eta=0.1))


# predictors and patches


def predicted(p, x):
    """The predicted element at a single context."""
    return RkhsElement(p.kernel, p.anchors, p.coefficients(x)[0])


def test_empty_patch_chain_returns_base():
    pts = sample_points(MIN, 3)
    coeffs = np.array([0.2, 0.3, -0.1])
    p = constant_predictor(MIN, pts, coeffs)
    el = predicted(p, [[0.4]])
    assert np.array_equal(el.anchors, pts)
    assert np.array_equal(el.coeffs, coeffs)


def test_base_is_projected_onto_ball():
    p = constant_predictor(MIN, [[0.81]], [3.0])  # norm 2.7 > R2
    el = predicted(p, [[0.0]])
    assert norm(el) == pytest.approx(MIN.R2, rel=1e-12)


def test_zero_adjustment_patch_is_identity():
    p = constant_predictor(MIN, sample_points(MIN, 3), [0.3, 0.1, -0.2])
    before = predicted(p, [[0.25]])
    rec = PatchRecord(
        "alg1",
        random_loss(MIN, 2, 1.0, "w"),
        beta=4.0,
        rows=(zero_element(MIN), zero_element(MIN)),
        eta=0.5,
    )
    after = predicted(p.with_patch(rec), [[0.25]])
    assert np.array_equal(after.anchors, before.anchors)
    assert np.array_equal(after.coeffs, before.coeffs)


def test_patched_norms_stay_in_ball():
    p = constant_predictor(MIN, sample_points(MIN, 4), rng.standard_normal(4))
    for t in range(5):
        adj = tuple(
            RkhsElement(MIN, sample_points(MIN, 1), np.array([0.6]))
            for _ in range(2)
        )
        rec = PatchRecord("alg1", random_loss(MIN, 2, 1.0, f"w{t}"), 3.0, rows=adj, eta=0.6)
        p = p.with_patch(rec)
        for x in rng.standard_normal((3, 2)):
            assert norm(predicted(p, x)) <= MIN.R2 + 1e-6


def test_patch_record_validation():
    w = random_loss(MIN, 2, 1.0, "w")
    zz = (zero_element(MIN), zero_element(MIN))
    with pytest.raises(ValueError):
        PatchRecord("alg3", w, 1.0)
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, rows=zz)  # missing eta
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, rows=zz[:1], eta=0.1)
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, rows=zz, mixing=2 * np.eye(2), eta=0.1)  # not the identity
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, rows=zz)  # missing mixing
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, rows=zz, mixing=np.eye(3))
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, rows=zz[:1], mixing=np.eye(2))


# Few coordinates, so rows repeat often and 0.0 / -0.0 must stay apart, and
# coefficients whose sums depend on the order of addition.
TERMS = st.lists(
    st.tuples(
        st.tuples(*[st.sampled_from([0.0, -0.0, 0.25])] * 2),
        st.one_of(st.sampled_from([0.1, 0.2, 0.3, -0.7, 1 / 3]), st.floats(-2.0, 2.0)),
    ),
    max_size=8,
)


def _span(terms):
    anchors = np.array([row for row, _ in terms], dtype=np.float64).reshape(-1, 2)
    return RkhsElement(LIN2, anchors, np.array([c for _, c in terms], dtype=np.float64))


# Symmetric positive definite 2 x 2 mixing matrices for alg2 records.
SPD = arrays(np.float64, (2, 2), elements=st.floats(-2.0, 2.0)).map(
    lambda A: A @ A.T + np.eye(2)
)


@given(base=TERMS, chain=st.lists(st.tuples(TERMS, TERMS, SPD), max_size=3))
@settings(max_examples=100, deadline=None)
def test_row_dedup_matches_dict_reference(base, chain):
    """compress and the patch-chain anchor list agree bit for bit with a
    dict keyed by row bytes that sums coefficients in input order; the
    chain alternates alg1 and alg2 records, and each plan step mixes with
    the record's matrix (the identity for alg1)."""
    for el in [_span(base)] + [_span(t) for t0, t1, _ in chain for t in (t0, t1)]:
        index, rows, sums = {}, [], []
        for row, c in zip(el.anchors, el.coeffs):
            j = index.setdefault(row.tobytes(), len(rows))
            if j == len(rows):
                rows.append(row)
                sums.append(0.0)
            sums[j] += c
        weights = [abs(c) * np.sqrt(LIN2.diag(rows[j][None])[0]) for j, c in enumerate(sums)]
        keep = [j for j, w in enumerate(weights) if w > 0]
        got = compress(el)
        assert got.anchors.tobytes() == np.array([rows[j] for j in keep]).tobytes()
        assert got.coeffs.tobytes() == np.array([sums[j] for j in keep]).tobytes()

    lossprime = make_loss("lp", [feature(LIN2, [0.5, 0.0]), feature(LIN2, [0.0, 0.5])], 1.0)
    base_el = _span(base)
    steps, mixings = [], []
    p = Predictor(LIN2, ConstantBase(base_el))
    for i, (t0, t1, mixing) in enumerate(chain):
        els = (_span(t0), _span(t1))
        if i % 2:
            p = p.with_patch(PatchRecord("alg2", lossprime, 1.0, rows=els, mixing=mixing))
        else:
            p = p.with_patch(PatchRecord("alg1", lossprime, 1.0, rows=els, eta=0.1))
            mixing = np.eye(2)
        steps.append(els)
        mixings.append(mixing)

    index, rows = {}, []
    for row in base_el.anchors:
        index.setdefault(row.tobytes(), len(rows))
        rows.append(row)
    for els, mixing, plan_step in zip(steps, mixings, p._plan.steps, strict=True):
        entries = []
        for a, el in enumerate(els):
            for row, c in zip(el.anchors, el.coeffs):
                j = index.setdefault(row.tobytes(), len(rows))
                if j == len(rows):
                    rows.append(row)
                entries.append((a, j, c))
        D = np.zeros((len(els), len(rows)))
        for a, j, c in entries:
            D[a, j] += c
        assert plan_step.R.tobytes() == D.tobytes()
        assert plan_step.M.tobytes() == mixing.tobytes()
    assert p.anchors.tobytes() == np.array(rows).reshape(-1, 2).tobytes()


def test_patched_predictor_matches_vector_simulation():
    g = np.random.default_rng(11)
    base_anchors = g.standard_normal((3, 2)) * 0.3
    base_coeffs = g.standard_normal(3)
    p = constant_predictor(LIN2, base_anchors, base_coeffs)

    def unit_rows(n, scale):
        v = g.standard_normal((n, 2))
        return v / np.linalg.norm(v, axis=1, keepdims=True) * scale

    r1 = unit_rows(2, 0.8)
    d = unit_rows(2, 0.25)
    r2 = unit_rows(2, 0.6)
    gvecs = g.standard_normal((2, 2)) * 0.1
    A = g.standard_normal((2, 2))
    M = np.linalg.inv(A @ A.T / 4.0 + np.eye(2))
    M = (M + M.T) / 2.0

    p = p.with_patch(
        PatchRecord(
            "alg1",
            single_anchor_loss(LIN2, r1, 1.0, "w1"),
            beta=4.0,
            rows=tuple(RkhsElement(LIN2, row[None, :], np.array([1.0])) for row in d),
            eta=0.25,
        )
    )
    p = p.with_patch(
        PatchRecord(
            "alg2",
            single_anchor_loss(LIN2, r2, 1.0, "w2"),
            beta=2.0,
            rows=tuple(RkhsElement(LIN2, row[None, :], np.array([1.0])) for row in gvecs),
            mixing=M,
        )
    )

    sim = oracle.VectorPredictor(lambda X: np.tile(base_coeffs @ base_anchors, (len(X), 1)), LIN2.R2)
    sim.add_alg1(d, r1, 4.0)
    sim.add_alg2(M, gvecs, r2, 2.0)

    X = g.standard_normal((6, 2))
    implicit = p.coefficients(X) @ p.anchors  # linear kernel: span = plain vector sum
    assert np.allclose(implicit, sim.evaluate(X), atol=1e-9)

    probe = single_anchor_loss(LIN2, unit_rows(2, 0.9), 1.0, "probe")
    Lp = np.vstack([el.coeffs @ el.anchors for el in probe.coefficients])
    assert np.allclose(
        loss_estimates(p, X, probe), oracle.loss_estimates(sim.evaluate(X), Lp), atol=1e-9
    )


def _dense_replay(p, X):
    """Replay that recomputes every squared norm from the full Gram matrix
    (W @ G) before each projection; returns W and the number of steps whose
    projection moved at least one row."""
    plan = p._plan
    G = p.kernel.gram(plan.anchors, plan.anchors)
    R2 = p.kernel.R2
    W = np.zeros((len(X), len(plan.anchors)))
    W[:, : plan.n_base] = p.base.weights(X)
    fired = 0

    def project(upto):
        nonlocal fired
        sub = W[:, :upto]
        n2 = np.einsum("ij,ij->i", sub @ G[:upto, :upto], sub)
        over = n2 > R2 * R2
        sub[over] *= (R2 / np.sqrt(n2[over]))[:, None]
        fired += bool(np.any(over))

    project(plan.n_base)
    for step in plan.steps:
        P = oracle.softmax_rows(-step.beta * (W[:, : step.n_before] @ step.V))
        W[:, : step.n_after] += (P @ step.M) @ step.R
        project(step.n_after)
    return W, fired


def _random_chain(g, spec, pool, n_patches, scale):
    """Mixed alg1/alg2 records over the outcome rows of `pool`, so anchors
    repeat; every seventh is an alg1 push of norm 4 * R2 that sends every row
    out of the ball."""

    def element(k, coeff_scale):
        picks = g.integers(0, len(pool), k)
        return RkhsElement(spec, pool[picks], g.standard_normal(k) * coeff_scale)

    push = RkhsElement(spec, pool[:1], [4.0 * spec.R2 / np.sqrt(spec.diag(pool[:1])[0])])
    records = []
    for t in range(n_patches):
        lossprime = make_loss(f"lp{t}", [element(2, 1.0) for _ in range(2)], 1.0)
        beta = float(g.uniform(0.5, 4.0))
        if t % 7 == 3:
            records.append(PatchRecord("alg1", lossprime, beta, rows=(push, push), eta=0.1))
        elif g.random() < 0.5:
            rows = tuple(element(int(g.integers(1, 4)), scale) for _ in range(2))
            records.append(PatchRecord("alg1", lossprime, beta, rows=rows, eta=0.1))
        else:
            A = g.standard_normal((2, 2))
            M = np.linalg.inv(A @ A.T / 4.0 + np.eye(2))
            rows = tuple(element(int(g.integers(1, 4)), scale) for _ in range(2))
            records.append(PatchRecord("alg2", lossprime, beta, rows=rows, mixing=(M + M.T) / 2.0))
    return records


@given(
    seed=st.integers(0, 2**32 - 1),
    n_patches=st.integers(50, 64),
    scale=st.floats(0.05, 2.0),
)
@settings(max_examples=15, deadline=None)
def test_tracked_norms_match_dense_replay(seed, n_patches, scale):
    """Tracked squared norms equal diag(W G W^T), and W equals a replay that
    recomputes each norm from the Gram matrix, both to 1e-12 relative (to the
    ball's R2^2 and the largest coefficient), over long chains in which the
    projection fires."""
    g = np.random.default_rng(seed)
    spec = KernelSpec("linear", 2, 1.5)
    train = g.uniform(-1.0, 1.0, size=(12, 2))
    base = SimilarityBase(spec, train, g.standard_normal((12, 2)), bandwidth=0.8)
    pool = g.uniform(-1.0, 1.0, size=(40, 2))
    p = Predictor(spec, base, tuple(_random_chain(g, spec, pool, n_patches, scale)))
    X = g.standard_normal((16, 2))

    W, n2 = p._replay(X)
    G = spec.gram(p.anchors, p.anchors)
    dense_n2 = np.einsum("ij,ij->i", W @ G, W)
    np.testing.assert_allclose(n2, dense_n2, rtol=1e-12, atol=1e-12 * spec.R2**2)
    assert np.all(n2 <= spec.R2**2 * (1.0 + 1e-12))

    W_ref, fired = _dense_replay(p, X)
    assert fired >= n_patches // 7
    np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=1e-12 * np.abs(W_ref).max())


def test_child_plans_extend_the_parents(monkeypatch):
    """A chain grown by with_patch, replayed between steps, builds one plan
    and extends it; the result is bit-equal to a plan built from the saved
    chain, and every parent plan is left as it was."""
    g = np.random.default_rng(31)
    train = sample_points(MIN, 20)
    base = SimilarityBase(MIN, train, g.standard_normal((20, 2)), bandwidth=0.6)
    records = _random_chain(g, MIN, sample_points(MIN, 40), 12, 0.4)
    X = g.standard_normal((9, 2))

    built = []
    init = _EvalPlan.__init__
    monkeypatch.setattr(_EvalPlan, "__init__", lambda self, q: (built.append(q), init(self, q))[1])

    p = Predictor(MIN, base)
    p.coefficients(X)
    parents = []
    for rec in records:
        plan = p._plan
        parents.append((plan, len(plan.steps), plan.anchors.tobytes()))
        p = p.with_patch(rec)
        assert all(a is b for a, b in zip(p._plan.steps, plan.steps, strict=False))
        assert len(p._plan.steps) == len(plan.steps) + 1
        p.coefficients(X)
    assert len(built) == 1

    q = predictor_from_doc(predictor_to_doc(p))
    fresh = _EvalPlan(q)
    assert p._plan.anchors.tobytes() == fresh.anchors.tobytes()
    for mine, theirs in zip(p._plan.steps, fresh.steps, strict=True):
        for name in ("n_before", "n_after", "beta"):
            assert getattr(mine, name) == getattr(theirs, name), name
        for name in "VMRHS":
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert np.array_equal(p.coefficients(X), q.coefficients(X))

    for plan, n_steps, anchors in parents:
        assert len(plan.steps) == n_steps
        assert plan.anchors.tobytes() == anchors
        assert not plan.anchors.flags.writeable
        assert not plan.base_gram.flags.writeable
        for step in plan.steps:
            assert not any(getattr(step, name).flags.writeable for name in "VMRHS")


def test_evaluate_batch_reuses_coefficients():
    p = constant_predictor(MIN, sample_points(MIN, 3), [0.2, 0.2, 0.2])
    batch = SampleBatch(rng.standard_normal((6, 2)), sample_points(MIN, 6), "b0")
    eb = evaluate_batch(p, batch)
    assert len(eb) == 6
    assert eb.batch_id == "b0"
    assert np.array_equal(eb.W, p.coefficients(batch.X))
    assert np.array_equal(eb.anchors, p.anchors)


# bases


def test_similarity_base_matches_explicit_softmax():
    contexts = rng.standard_normal((7, 3))
    anchors = sample_points(MIN, 7)
    base = SimilarityBase(MIN, anchors, contexts, bandwidth=0.8)
    X = rng.standard_normal((5, 3))
    W = base.weights(X)
    assert np.allclose(W, oracle.similarity_weights(X, contexts, 0.8), atol=1e-12)
    assert W.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)
    assert np.all(W >= 0.0)


def test_similarity_base_localizes_at_small_bandwidth():
    contexts = np.array([[0.0, 0.0], [5.0, 5.0], [-4.0, 3.0]])
    base = SimilarityBase(MIN, sample_points(MIN, 3), contexts, bandwidth=0.05)
    W = base.weights(np.array([[4.9, 5.1]]))
    assert W[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_similarity_base_validation():
    with pytest.raises(ValueError):
        SimilarityBase(MIN, sample_points(MIN, 3), rng.standard_normal((4, 2)), 0.5)
    with pytest.raises(ValueError):
        SimilarityBase(MIN, sample_points(MIN, 3), rng.standard_normal((3, 2)), 0.0)


# sample batches


def test_sample_batch_checks_lengths():
    with pytest.raises(ValueError):
        SampleBatch(np.zeros((3, 2)), np.zeros((4, 1)))


def test_sample_batch_is_read_only():
    X = np.zeros((2, 2))
    batch = SampleBatch(X, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        batch.X[0, 0] = 1.0
    X[0, 0] = 9.0  # caller's copy stays independent
    assert batch.X[0, 0] == 0.0


# serialization


def build_patched_predictor():
    p = constant_predictor(MIN, sample_points(MIN, 3), [0.4, -0.1, 0.2])
    adj = tuple(RkhsElement(MIN, sample_points(MIN, 1), np.array([0.15])) for _ in range(2))
    p = p.with_patch(
        PatchRecord("alg1", random_loss(MIN, 2, 1.0, "w1"), 4.0, "b1", rows=adj, eta=0.15)
    )
    rows = tuple(RkhsElement(MIN, sample_points(MIN, 2), rng.standard_normal(2) * 0.1) for _ in range(2))
    M = np.linalg.inv(np.array([[1.3, 0.2], [0.2, 1.1]]))
    M = (M + M.T) / 2.0
    return p.with_patch(
        PatchRecord("alg2", random_loss(MIN, 2, 1.0, "w2"), 2.0, "b2", rows=rows, mixing=M)
    )


def test_predictor_doc_round_trip_is_exact():
    p = build_patched_predictor()
    doc = json.loads(json.dumps(predictor_to_doc(p)))
    q = predictor_from_doc(doc)
    X = rng.standard_normal((4, 2))
    assert np.array_equal(p.coefficients(X), q.coefficients(X))
    assert np.array_equal(p.anchors, q.anchors)
    assert [rec.algorithm for rec in q.patches] == ["alg1", "alg2"]
    assert q.patches[0].batch_id == "b1"


def test_predictor_file_round_trip(tmp_path):
    p = build_patched_predictor()
    path = tmp_path / "predictor.json"
    save_predictor(path, p)
    q = load_predictor(path)
    x = [[0.3, -0.4]]
    assert np.array_equal(p.coefficients(x), q.coefficients(x))
    save_predictor(tmp_path / "again.json", q)
    assert path.read_text() == (tmp_path / "again.json").read_text()


def test_similarity_base_round_trip():
    contexts = rng.standard_normal((5, 2))
    base = SimilarityBase(MIN, sample_points(MIN, 5), contexts, bandwidth=0.7)
    p = Predictor(MIN, base)
    q = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(p))))
    X = rng.standard_normal((3, 2))
    assert np.array_equal(p.coefficients(X), q.coefficients(X))


def test_loss_round_trip_is_exact(tmp_path):
    loss = random_loss(MIN, 3, 1.0, "rt")
    doc = json.loads(json.dumps(loss_to_doc(loss)))
    back = loss_from_doc(doc, MIN)
    assert back.loss_id == "rt"
    assert np.array_equal(back.norms(), loss.norms())
    Y = sample_points(MIN, 6)
    assert np.array_equal(back.values(Y), loss.values(Y))

    path = tmp_path / "loss.json"
    save_json(path, loss_file_doc(loss))
    again = load_loss(path)
    assert again.spec == MIN
    assert np.array_equal(again.values(Y), loss.values(Y))
