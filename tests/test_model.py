"""Decision rules, loss functions, and patched predictors."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from decal import model
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    RkhsElement,
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
    extend_evaluated,
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
from spans import element, feature, reference_loss, spy, stack

MIN = KernelSpec("min", 1, 1.5)
LIN2 = KernelSpec("linear", 2, 1.5)
EXP2 = KernelSpec("exp", 2, 2.0)

rng = np.random.default_rng(19)


def sample_points(spec, n, g=rng):
    if spec.kind == "min":
        return g.uniform(0.05, 0.95, size=(n, 1))
    pts = g.standard_normal((n, spec.dim))
    radii = g.uniform(0.0, 0.9 * spec.domain_radius, size=(n, 1))
    return pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12) * radii


def random_loss(spec, n_actions, R1, loss_id="rand"):
    els = []
    for a in range(n_actions):
        pts = sample_points(spec, 3)
        els.append(element(spec, pts, rng.standard_normal(3) * 0.3))
    return make_loss(loss_id, stack(spec, els), R1)


def constant_predictor(spec, anchors, coeffs):
    el = element(spec, np.asarray(anchors, dtype=np.float64), np.asarray(coeffs, dtype=np.float64))
    return Predictor(spec, ConstantBase(el))


def empty(spec):
    return RkhsElement(spec, np.zeros((0, spec.dim)), np.zeros((0, 1)))


def record(algorithm, lossprime, beta, rows, **kw):
    """A patch record whose row a is the element rows[a]."""
    return PatchRecord(algorithm, lossprime, beta, stack(lossprime.span.spec, rows), **kw)


def single_anchor_loss(spec, rows, R1, loss_id):
    els = tuple(element(spec, np.atleast_2d(row), np.array([1.0])) for row in rows)
    return make_loss(loss_id, stack(spec, els), R1)


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


def _softmax_written_out(z):
    """softmax as one expression per step, each into a fresh array."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def test_softmax_in_place_steps_keep_every_bit():
    """The shifted copy is exponentiated and divided in place: the same bytes
    as the written-out expression, rows that underflow to 0 included, and the
    argument is left as it was."""
    g = np.random.default_rng(29)
    cases = [g.standard_normal(shape) * scale
             for shape in [(1,), (6,), (33, 5), (2, 3, 7)] for scale in (1e-2, 1.0, 50.0, 1e3)]
    cases.append(np.array([[0.0, -800.0, -1e4], [1e3, 1e3, -1e3], [-np.inf, 0.0, 1.0]]))
    for Z in cases:
        before = Z.tobytes()
        got = softmax(Z)
        assert got.tobytes() == _softmax_written_out(Z).tobytes()
        assert Z.tobytes() == before
    assert np.count_nonzero(softmax(cases[-1]) == 0.0) >= 3


@st.composite
def logit_blocks(draw):
    """(n, A) or (n, P, A) logits, |A| from 1 to 12: values within 8 of a
    common offset of magnitude up to 1e3, so that the exponentials do not
    underflow and the order of their sum shows in the bits, with some
    entries set to 0.0, -0.0 or -inf."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 12)),
    ))
    Z = draw(arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    Z += draw(st.floats(-1e3, 1e3))
    special = draw(arrays(np.int8, shape, elements=st.sampled_from([0, 0, 0, 0, 0, 1, 2, 3])))
    for code, value in ((1, 0.0), (2, -0.0), (3, -np.inf)):
        Z[special == code] = value
    return Z


@given(Z=logit_blocks())
# at 8 terms a running sum and numpy's pairwise sum round this row apart
@example(Z=np.array([[2.0] + [0.0] * 7]))
@example(Z=np.array([[[2.0] + [0.0] * 6] * 3]))
@settings(max_examples=200, deadline=None)
def test_softmax_columns_keep_every_bit(Z):
    """Below 8 actions the max and sum are taken column by column, from 8
    on by numpy's reductions: either way the bytes of the written-out
    expression, on (n, A) and (n, P, A) blocks for |A| from 1 to 12, with
    +-0.0, -inf and rows that are -inf throughout."""
    with np.errstate(invalid="ignore"):
        assert softmax(Z).tobytes() == _softmax_written_out(Z).tobytes()


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
    big = element(MIN, np.array([[0.9]]), np.array([5.0]))  # norm 5 * sqrt(.9)
    small = feature(MIN, 0.25)
    loss = make_loss("mixed", stack(MIN, [big, small]), 1.0)
    assert loss.rescaled
    assert loss.span.norms()[0] == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(loss.span.anchors, [[0.9], [0.25]])
    assert np.array_equal(loss.span.coeffs[:, 1], [0.0, small.coeffs[0, 0]])


def test_make_loss_keeps_in_bound_actions():
    els = [feature(MIN, 0.2), feature(MIN, 0.5)]
    loss = make_loss("ok", stack(MIN, els), 1.0)
    assert not loss.rescaled
    assert np.array_equal(loss.span.anchors, [[0.2], [0.5]])
    assert np.array_equal(loss.span.coeffs, np.eye(2))
    assert np.all(loss.span.norms() <= 1.0 + 1e-9)


def test_loss_validation():
    with pytest.raises(ValueError):
        LossFunction("empty", RkhsElement(MIN, [[0.5]], np.zeros((1, 0))), 1.0)
    with pytest.raises(ValueError):
        make_loss("empty", stack(MIN, []), 1.0)
    with pytest.raises(ValueError):
        make_loss("mixed", stack(MIN, [feature(MIN, 0.5), feature(LIN2, [0.1, 0.0])]), 1.0)
    with pytest.raises(ValueError):
        LossFunction("bad-r1", RkhsElement(MIN, [[0.5]], [[1.0]]), 0.0)
    with pytest.raises(ValueError):
        LossFunction("ragged", RkhsElement(MIN, [[0.5], [0.6]], [[1.0]]), 1.0)
    with pytest.raises(ValueError):
        LossFunction("flat", RkhsElement(MIN, [[0.5]], [1.0]), 1.0)


@st.composite
def loss_tables(draw):
    """A kernel and an (n, cols) table over anchors that repeat a small pool,
    0.0 and -0.0 among them, with some zero and all-zero columns."""
    spec = draw(st.sampled_from([MIN, LIN2, EXP2]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.vstack([sample_points(spec, 4, r), np.zeros(spec.dim), -np.zeros(spec.dim)])
    n = draw(st.integers(0, 10))
    coeffs = r.standard_normal((n, draw(st.integers(1, 4))))
    coeffs[r.random(coeffs.shape) < 0.25] = 0.0
    coeffs[:, r.random(coeffs.shape[1]) < 0.2] = 0.0
    return spec, pool[r.integers(0, len(pool), n)], coeffs


@given(loss_tables(), st.sampled_from([1e9, 0.5]))
@settings(max_examples=80, deadline=None)
def test_make_loss_table_matches_per_column_reference(case, R1):
    """make_loss on a table equals its columns as elements, stacked, merged
    and rescaled, byte for byte."""
    spec, anchors, coeffs = case
    loss = make_loss("t", RkhsElement(spec, anchors, coeffs), R1)
    columns = [element(spec, anchors, coeffs[:, a]) for a in range(coeffs.shape[1])]
    want_anchors, want_coeffs, rescaled = reference_loss(spec, columns, R1)
    assert loss.span.anchors.tobytes() == want_anchors.tobytes()
    assert loss.span.coeffs.shape == want_coeffs.shape
    assert loss.span.coeffs.tobytes() == want_coeffs.tobytes()
    assert loss.rescaled == rescaled


def test_loss_values_reproduce_kernel():
    loss = make_loss("probe", stack(MIN, [feature(MIN, 0.6)]), 1.0)
    vals = loss.values([[0.3], [0.6], [0.9]])
    assert vals[:, 0] == pytest.approx([0.3, 0.6, 0.6], abs=1e-12)


@st.composite
def action_elements(draw):
    """1, 2 or 4 per-action elements over one kernel whose anchors repeat a
    small pool (0.0 and -0.0 among them); some actions are empty or all zero."""
    spec = draw(st.sampled_from([MIN, LIN2, EXP2]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spec.kind == "min":
        pool = np.vstack([r.uniform(0.0, 1.0, (4, 1)), [[0.0], [-0.0]]])
    else:
        pts = r.uniform(-0.5, 0.5, (4, spec.dim))
        pool = np.vstack([pts, np.zeros(spec.dim), -np.zeros(spec.dim)])
    elements = []
    for _ in range(draw(st.sampled_from([1, 2, 4]))):
        k = int(r.integers(0, 7))
        coeffs = r.standard_normal(k) * (0.0 if r.random() < 0.2 else 1.0)
        elements.append(element(spec, pool[r.integers(0, len(pool), k)], coeffs))
    return spec, elements


@given(action_elements(), st.sampled_from([1e9, 0.5]))
@settings(max_examples=80, deadline=None)
def test_loss_table_matches_per_action_reference(case, R1):
    """make_loss on one merged table gives each action's values and norm as
    the element itself does, densely, to 1e-12 relative, rescaling exactly
    the over-bound actions."""
    spec, elements = case
    loss = make_loss("t", stack(spec, elements), R1)
    assert loss.n_actions == len(elements)
    Y = np.vstack([el.anchors for el in elements] + [np.zeros((1, spec.dim))])
    for a, el in enumerate(elements):
        c = el.coeffs[:, 0]
        G = spec.gram(el.anchors, el.anchors)
        nv = np.sqrt(max(c @ G @ c, 0.0))
        assume(abs(nv - R1) > 1e-9 * R1)
        scale = R1 / nv if nv > R1 else 1.0
        K = spec.gram(Y, el.anchors)
        want = K @ c * scale
        slack = np.abs(K) @ np.abs(c) * scale
        assert np.all(np.abs(loss.values(Y)[:, a] - want) <= 1e-12 * slack + 1e-300)
        sq_slack = np.abs(c) @ np.abs(G) @ np.abs(c) * scale**2
        assert abs(loss.span.norms()[a] ** 2 - (nv * scale) ** 2) <= 1e-12 * sq_slack + 1e-300
    assert loss.rescaled == any(
        np.sqrt(max(el.coeffs[:, 0] @ spec.gram(el.anchors, el.anchors) @ el.coeffs[:, 0], 0.0)) > R1
        for el in elements
    )


def test_loss_values_make_one_gram_call():
    loss = random_loss(MIN, 4, 1.0)
    with spy(KernelSpec, "gram") as calls:
        vals = loss.values(sample_points(MIN, 5))
    assert vals.shape == (5, 4)
    assert len(calls) == 1


def test_loss_values_zero_action_column():
    loss = LossFunction("z", RkhsElement(MIN, [[0.5]], [[0.0, 1.0]]), 1.0)
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
    p = Predictor(MIN, ConstantBase(empty(MIN)))
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
        RkhsElement(
            MIN,
            np.vstack([la.span.anchors, lb.span.anchors]),
            np.vstack([0.7 * la.span.coeffs, lb.span.coeffs]),
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
        p.with_patch(PatchRecord("alg1", loss, 1.0, loss.span, eta=0.1))


# predictors and patches


def predicted(p, x):
    """The predicted element at a single context."""
    return element(p.kernel, p.anchors, p.coefficients(x)[0])


def test_empty_patch_chain_returns_base():
    pts = sample_points(MIN, 3)
    coeffs = np.array([0.2, 0.3, -0.1])
    p = constant_predictor(MIN, pts, coeffs)
    el = predicted(p, [[0.4]])
    assert np.array_equal(el.anchors, pts)
    assert np.array_equal(el.coeffs[:, 0], coeffs)


def test_base_is_projected_onto_ball():
    p = constant_predictor(MIN, [[0.81]], [3.0])  # norm 2.7 > R2
    el = predicted(p, [[0.0]])
    assert el.norms()[0] == pytest.approx(MIN.R2, rel=1e-12)


def test_zero_adjustment_patch_is_identity():
    p = constant_predictor(MIN, sample_points(MIN, 3), [0.3, 0.1, -0.2])
    before = predicted(p, [[0.25]])
    rec = PatchRecord(
        "alg1", random_loss(MIN, 2, 1.0, "w"), 4.0,
        RkhsElement(MIN, np.zeros((0, 1)), np.zeros((0, 2))), eta=0.5
    )
    after = predicted(p.with_patch(rec), [[0.25]])
    assert np.array_equal(after.anchors, before.anchors)
    assert np.array_equal(after.coeffs, before.coeffs)


def test_patched_norms_stay_in_ball():
    p = constant_predictor(MIN, sample_points(MIN, 4), rng.standard_normal(4))
    for t in range(5):
        adj = tuple(
            element(MIN, sample_points(MIN, 1), np.array([0.6]))
            for _ in range(2)
        )
        rec = record("alg1", random_loss(MIN, 2, 1.0, f"w{t}"), 3.0, adj, eta=0.6)
        p = p.with_patch(rec)
        for x in rng.standard_normal((3, 2)):
            assert predicted(p, x).norms()[0] <= MIN.R2 + 1e-6


def test_patch_record_validation():
    w = random_loss(MIN, 2, 1.0, "w")
    zz = RkhsElement(MIN, np.zeros((0, 1)), np.zeros((0, 2)))
    z1 = RkhsElement(MIN, np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        PatchRecord("alg3", w, 1.0, zz)
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, zz)  # missing eta
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, z1, eta=0.1)
    with pytest.raises(ValueError):
        PatchRecord("alg1", w, 1.0, zz, mixing=2 * np.eye(2), eta=0.1)  # not the identity
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, zz)  # missing mixing
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, zz, mixing=np.eye(3))
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, z1, mixing=np.eye(2))
    with pytest.raises(ValueError):
        PatchRecord("alg2", w, 1.0, RkhsElement(MIN, [[0.5]], np.zeros((2, 2))), mixing=np.eye(2))


def test_patch_record_rejects_rows_over_another_kernel():
    w = random_loss(MIN, 2, 1.0, "w")
    rows = RkhsElement(KernelSpec("min", 1, 2.0), [[0.5]], np.ones((1, 2)))
    with pytest.raises(KernelMismatchError):
        PatchRecord("alg1", w, 1.0, rows, eta=0.1)


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
    return element(LIN2, anchors, np.array([c for _, c in terms], dtype=np.float64))


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
        for row, c in zip(el.anchors, el.coeffs[:, 0]):
            j = index.setdefault(row.tobytes(), len(rows))
            if j == len(rows):
                rows.append(row)
                sums.append(0.0)
            sums[j] += c
        weights = [abs(c) * np.sqrt(LIN2.diag(rows[j][None])[0]) for j, c in enumerate(sums)]
        keep = [j for j, w in enumerate(weights) if w > 0]
        got = el.merged()
        assert got.anchors.tobytes() == np.array([rows[j] for j in keep]).tobytes()
        assert got.coeffs.tobytes() == np.array([sums[j] for j in keep]).tobytes()

    lossprime = make_loss(
        "lp", stack(LIN2, [feature(LIN2, [0.5, 0.0]), feature(LIN2, [0.0, 0.5])]), 1.0
    )
    base_el = _span(base)
    steps, mixings = [], []
    p = Predictor(LIN2, ConstantBase(base_el))
    for i, (t0, t1, mixing) in enumerate(chain):
        els = (_span(t0), _span(t1))
        if i % 2:
            p = p.with_patch(record("alg2", lossprime, 1.0, els, mixing=mixing))
        else:
            p = p.with_patch(record("alg1", lossprime, 1.0, els, eta=0.1))
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
            for row, c in zip(el.anchors, el.coeffs[:, 0]):
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
        PatchRecord("alg1", single_anchor_loss(LIN2, r1, 1.0, "w1"), 4.0,
                    RkhsElement(LIN2, d, np.eye(2)), eta=0.25)
    )
    p = p.with_patch(
        PatchRecord("alg2", single_anchor_loss(LIN2, r2, 1.0, "w2"), 2.0,
                    RkhsElement(LIN2, gvecs, np.eye(2)), mixing=M)
    )

    sim = oracle.VectorPredictor(lambda X: np.tile(base_coeffs @ base_anchors, (len(X), 1)), LIN2.R2)
    sim.add_alg1(d, r1, 4.0)
    sim.add_alg2(M, gvecs, r2, 2.0)

    X = g.standard_normal((6, 2))
    implicit = p.coefficients(X) @ p.anchors  # linear kernel: span = plain vector sum
    assert np.allclose(implicit, sim.evaluate(X), atol=1e-9)

    probe = single_anchor_loss(LIN2, unit_rows(2, 0.9), 1.0, "probe")
    Lp = probe.span.coeffs.T @ probe.span.anchors
    assert np.allclose(
        loss_estimates(p, X, probe), oracle.loss_estimates(sim.evaluate(X), Lp), atol=1e-9
    )


def _dense_replay(p, X):
    """Replay over the anchors that recomputes every squared norm from the
    full Gram matrix (W @ G) before each projection; returns W and the number
    of steps whose projection moved at least one row."""
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
    for step, rec in zip(plan.steps, p.patches, strict=True):
        V = rec.witness_lossprime.values(plan.anchors[: step.n_before])
        P = oracle.softmax_rows(-rec.beta * (W[:, : step.n_before] @ V))
        W[:, : step.n_after] += (P @ rec.mixing) @ step.R
        project(step.n_after)
    return W, fired


def _random_chain(g, spec, pool, n_patches, scale):
    """Mixed alg1/alg2 records over the outcome rows of `pool`, so anchors
    repeat; every seventh is an alg1 push of norm 4 * R2 that sends every row
    out of the ball."""

    def element(k, coeff_scale):
        picks = g.integers(0, len(pool), k)
        return RkhsElement(spec, pool[picks], (g.standard_normal(k) * coeff_scale)[:, None])

    push = RkhsElement(spec, pool[:1], [[4.0 * spec.R2 / np.sqrt(spec.diag(pool[:1])[0])]])
    records = []
    for t in range(n_patches):
        lossprime = make_loss(f"lp{t}", stack(spec, [element(2, 1.0) for _ in range(2)]), 1.0)
        beta = float(g.uniform(0.5, 4.0))
        if t % 7 == 3:
            records.append(record("alg1", lossprime, beta, (push, push), eta=0.1))
        elif g.random() < 0.5:
            rows = tuple(element(int(g.integers(1, 4)), scale) for _ in range(2))
            records.append(record("alg1", lossprime, beta, rows, eta=0.1))
        else:
            A = g.standard_normal((2, 2))
            M = np.linalg.inv(A @ A.T / 4.0 + np.eye(2))
            rows = tuple(element(int(g.integers(1, 4)), scale) for _ in range(2))
            records.append(record("alg2", lossprime, beta, rows, mixing=(M + M.T) / 2.0))
    return records


EXP15 = KernelSpec("exp", 2, 1.5)


@pytest.mark.parametrize("spec", [MIN, LIN2, EXP15], ids=lambda s: s.kind)
@given(seed=st.integers(0, 2**32 - 1), n_patches=st.integers(4, 10), m=st.integers(2, 11))
@settings(max_examples=12, deadline=None)
def test_blocked_replay_matches_dense_replay_at_every_block_size(spec, seed, n_patches, m):
    """Replay in row blocks of 1, 3, m - 1, m and m + 1 contexts agrees with
    the dense replay over the anchors, on chains in which the projection
    fires: Z, n2, coefficients, loss estimates and an evaluated batch's Z, all
    to 1e-12 relative; an empty batch gives empty coordinates and estimates."""
    g = np.random.default_rng(seed)
    base = SimilarityBase(spec, sample_points(spec, 8, g), g.standard_normal((8, 2)), 0.7)
    pool = sample_points(spec, 30, g)
    p = Predictor(spec, base, tuple(_random_chain(g, spec, pool, n_patches, 0.6)))
    X = g.standard_normal((m, 2))
    batch = SampleBatch(X, sample_points(spec, m, g), "b")
    columns = [element(spec, pool[:4], g.standard_normal(4)) for _ in range(3)]
    loss = make_loss("probe", stack(spec, columns), 1.0)
    plan = p._plan
    W_ref, fired = _dense_replay(p, X)
    assert fired >= 1
    F = _dense_basis(plan)
    n2_ref = np.einsum("ij,ij->i", W_ref @ spec.gram(p.anchors, p.anchors), W_ref)
    est_ref = W_ref @ loss.values(p.anchors)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(np.abs(want).max(), 1.0))

    for block in (1, 3, m - 1, m, m + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "REPLAY_BLOCK", block)
            Z, n2 = p._replay(X)
            assert Z.shape == (m, plan.k)
            close(Z @ F, W_ref)
            close(n2, n2_ref)
            close(p.coefficients(X), W_ref)
            close(loss_estimates(p, X, loss), est_ref)
            close(evaluate_batch(p, batch).Z @ F, W_ref)
            Z0, n20 = p._replay(np.zeros((0, 2)))
            assert Z0.shape == (0, plan.k) and n20.shape == (0,)
            assert loss_estimates(p, np.zeros((0, 2)), loss).shape == (0, loss.n_actions)


def test_loss_estimates_hold_only_a_block_of_coordinates():
    """A decision on m >= 8 blocks of contexts never holds the (m, k)
    coordinate matrix: its traced peak stays under half of its m * k * 8
    bytes."""
    g = np.random.default_rng(61)
    base = SimilarityBase(MIN, sample_points(MIN, 10, g), g.standard_normal((10, 2)), 0.6)
    pool = sample_points(MIN, 200, g)
    p = Predictor(MIN, base, tuple(_random_chain(g, MIN, pool, 40, 0.4)))
    m = 8 * model.REPLAY_BLOCK
    X = g.standard_normal((m, 2))
    columns = [element(MIN, pool[:3], g.standard_normal(3)) for _ in range(3)]
    loss = make_loss("decide", stack(MIN, columns), 1.0)
    k = p._plan.k
    tracemalloc.start()
    try:
        got = loss_estimates(p, X, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * k * 8 / 2
    want = p._replay(X)[0] @ p._plan.lifted_values(loss)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_projection_scales_the_block_in_place():
    """Projecting a (512, 90) block whose rows all lie outside the R2 ball
    allocates less than the block itself: no projected row is copied out.
    Each projected row is its product with R2 / norm, and a row inside the
    ball keeps its bits, -0.0 entries included."""
    g = np.random.default_rng(67)
    R2, upto = 1.5, 80
    W = g.standard_normal((512, 90))
    n2 = g.uniform(1.2, 4.0, 512) * R2 * R2
    tracemalloc.start()
    try:
        model._project_rows(W, n2, upto, R2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < W.nbytes

    W = g.standard_normal((512, 90))
    W[::7, 3] = -0.0
    n2 = g.uniform(0.5, 1.5, 512) * R2 * R2
    W0, n20 = W.copy(), n2.copy()
    model._project_rows(W, n2, upto, R2)
    over = n20 > R2 * R2
    assert over.any() and not over.all()
    s = R2 / np.sqrt(n20[over])
    assert W[~over].tobytes() == W0[~over].tobytes()
    assert n2[~over].tobytes() == n20[~over].tobytes()
    assert W[over, :upto].tobytes() == (W0[over, :upto] * s[:, None]).tobytes()
    assert W[over, upto:].tobytes() == W0[over, upto:].tobytes()
    assert n2[over].tobytes() == (n20[over] * (s * s)).tobytes()


def _dense_basis(plan):
    """The patch-row basis F = [I; R_1; ...; R_T] as one (k, N) matrix."""
    N = len(plan.anchors)
    blocks = [np.eye(plan.n_base, N)]
    for step in plan.steps:
        blocks.append(np.hstack([step.R, np.zeros((len(step.R), N - step.n_after))]))
    return np.vstack(blocks)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_patches=st.integers(50, 64),
    scale=st.floats(0.05, 2.0),
)
@settings(max_examples=15, deadline=None)
def test_tracked_norms_match_dense_replay(seed, n_patches, scale):
    """Replay in the patch-row basis agrees with a replay over the anchors
    that recomputes each norm from the Gram matrix, over long chains in which
    the projection fires: the coordinates Z expand to W = Z F, the tracked
    squared norms equal diag(W G W^T), and loss estimates equal W L, all to
    1e-12 relative (to the ball's R2^2, the largest coefficient, and the
    largest estimate)."""
    g = np.random.default_rng(seed)
    spec = KernelSpec("linear", 2, 1.5)
    train = g.uniform(-1.0, 1.0, size=(12, 2))
    base = SimilarityBase(spec, train, g.standard_normal((12, 2)), bandwidth=0.8)
    pool = g.uniform(-1.0, 1.0, size=(40, 2))
    p = Predictor(spec, base, tuple(_random_chain(g, spec, pool, n_patches, scale)))
    X = g.standard_normal((16, 2))

    Z, n2 = p._replay(X)
    plan = p._plan
    assert Z.shape == (len(X), plan.k) == (len(X), 12 + 2 * n_patches)
    W = p.coefficients(X)
    assert W.tobytes() == plan.expand(Z).tobytes()
    G = spec.gram(p.anchors, p.anchors)
    dense_n2 = np.einsum("ij,ij->i", W @ G, W)
    np.testing.assert_allclose(n2, dense_n2, rtol=1e-12, atol=1e-12 * spec.R2**2)
    assert np.all(n2 <= spec.R2**2 * (1.0 + 1e-12))

    W_ref, fired = _dense_replay(p, X)
    assert fired >= n_patches // 7
    atol = 1e-12 * np.abs(W_ref).max()
    np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(Z @ _dense_basis(plan), W_ref, rtol=1e-12, atol=atol)

    columns = [element(spec, pool[:5], g.standard_normal(5)) for _ in range(3)]
    loss = make_loss("probe", stack(spec, columns), 1.0)
    want = W_ref @ loss.values(p.anchors)
    got = loss_estimates(p, X, loss)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_loss_estimates_never_expand_the_coefficients(monkeypatch):
    """A decision on a patched continuous-outcome predictor reads the replay
    coordinates and never builds the (m, N) coefficient matrix."""
    g = np.random.default_rng(43)
    train = sample_points(MIN, 30)
    base = SimilarityBase(MIN, train, g.standard_normal((30, 2)), bandwidth=0.6)
    p = Predictor(MIN, base, tuple(_random_chain(g, MIN, sample_points(MIN, 200), 6, 0.4)))
    X = g.standard_normal((50, 2))
    loss = random_loss(MIN, 3, 1.0, "decide")
    want = p.coefficients(X) @ loss.values(p.anchors)
    assert len(p.anchors) > p._plan.k

    def refuse(self, Z):
        raise AssertionError("the coefficient matrix was expanded")

    monkeypatch.setattr(_EvalPlan, "expand", refuse)
    got = loss_estimates(p, X, loss)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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
        parents.append((plan, len(plan.steps), plan.k, plan.anchors.tobytes()))
        p = p.with_patch(rec)
        assert all(a is b for a, b in zip(p._plan.steps, plan.steps, strict=False))
        assert len(p._plan.steps) == len(plan.steps) + 1
        p.coefficients(X)
    assert len(built) == 1

    q = predictor_from_doc(predictor_to_doc(p))
    fresh = _EvalPlan(q)
    assert p._plan.anchors.tobytes() == fresh.anchors.tobytes()
    assert p._plan.k == fresh.k
    for mine, theirs in zip(p._plan.steps, fresh.steps, strict=True):
        for name in ("n_before", "n_after", "k", "beta"):
            assert getattr(mine, name) == getattr(theirs, name), name
        for name in STEP_ARRAYS:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert np.array_equal(p.coefficients(X), q.coefficients(X))
    assert np.array_equal(p._replay(X)[0], q._replay(X)[0])

    for plan, n_steps, k, anchors in parents:
        assert len(plan.steps) == n_steps
        assert plan.k == k
        assert plan.anchors.tobytes() == anchors
        assert not plan.anchors.flags.writeable
        assert not plan.base_gram.flags.writeable
        for step in plan.steps:
            assert not any(getattr(step, name).flags.writeable for name in STEP_ARRAYS)


STEP_ARRAYS = ("table", "M", "R", "S")


def test_extend_evaluated_is_a_full_replay_of_the_child(monkeypatch):
    """Bit for bit, in one replay block, across blocks of 5 rows, and with a
    last block of one row, whose products can round otherwise than the same
    row's inside a larger block."""
    g = np.random.default_rng(47)
    base = SimilarityBase(MIN, sample_points(MIN, 10), g.standard_normal((10, 2)), bandwidth=0.6)
    records = _random_chain(g, MIN, sample_points(MIN, 60), 5, 0.8)
    parent = Predictor(MIN, base, tuple(records[:-1]))
    child = parent.with_patch(records[-1])
    batch = SampleBatch(g.standard_normal((24, 2)), sample_points(MIN, 24), "b")
    for block in (model.REPLAY_BLOCK, 5, 23):
        monkeypatch.setattr(model, "REPLAY_BLOCK", block)
        got = extend_evaluated(evaluate_batch(parent, batch), child)
        want = evaluate_batch(child, batch)
        for name in ("Z", "pnorm2"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.plan is want.plan is child._plan
    assert got.batch_id == "b"
    with pytest.raises(ValueError, match="parent"):
        extend_evaluated(want, child)
    with pytest.raises(ValueError, match="no patch"):
        extend_evaluated(evaluate_batch(Predictor(MIN, base), batch), Predictor(MIN, base))


def test_extend_evaluated_rejects_a_siblings_batch():
    """Two children of one parent whose patches share their anchors give
    batches of the same shapes; only the batch of the grandchild's own
    parent extends."""
    g = np.random.default_rng(53)
    base = SimilarityBase(MIN, sample_points(MIN, 10), g.standard_normal((10, 2)), bandwidth=0.6)
    records = _random_chain(g, MIN, sample_points(MIN, 60), 3, 0.8)
    rec = records[1]
    twin = PatchRecord(rec.algorithm, rec.witness_lossprime, rec.beta + 1.0,
                       RkhsElement(MIN, rec.rows.anchors, -0.5 * rec.rows.coeffs), mixing=rec.mixing,
                       eta=rec.eta)
    parent = Predictor(MIN, base, tuple(records[:1]))
    first, second = parent.with_patch(rec), parent.with_patch(twin)
    grandchild = second.with_patch(records[2])
    batch = SampleBatch(g.standard_normal((24, 2)), sample_points(MIN, 24), "b")
    sibling = evaluate_batch(first, batch)
    assert sibling.Z.shape == evaluate_batch(second, batch).Z.shape
    assert len(sibling.plan.anchors) == grandchild._plan.steps[-1].n_before
    with pytest.raises(ValueError, match="parent"):
        extend_evaluated(sibling, grandchild)
    # the same chain with a plan of its own is not the parent either
    rebuilt = Predictor(MIN, base, second.patches)
    with pytest.raises(ValueError, match="parent"):
        extend_evaluated(evaluate_batch(rebuilt, batch), grandchild)
    got = extend_evaluated(evaluate_batch(second, batch), grandchild)
    assert got.Z.tobytes() == evaluate_batch(grandchild, batch).Z.tobytes()


def test_evaluate_batch_reuses_coefficients():
    """The batch keeps the replay's coordinates; they expand to exactly the
    coefficients the predictor gives."""
    g = np.random.default_rng(59)
    base = SimilarityBase(MIN, sample_points(MIN, 8), g.standard_normal((8, 2)), bandwidth=0.6)
    p = Predictor(MIN, base, tuple(_random_chain(g, MIN, sample_points(MIN, 40), 4, 0.5)))
    batch = SampleBatch(g.standard_normal((6, 2)), sample_points(MIN, 6), "b0")
    eb = evaluate_batch(p, batch)
    assert len(eb) == 6
    assert eb.batch_id == "b0"
    assert eb.plan is p._plan
    assert p.coefficients(batch.X).tobytes() == eb.plan.expand(eb.Z).tobytes()


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


def test_similarity_base_in_place_steps_keep_every_bit():
    """weights() builds the squared distances and scales them in place: the
    same bytes as the written-out expression, for near contexts and for far
    ones whose weights underflow to 0."""
    g = np.random.default_rng(37)
    contexts = g.standard_normal((40, 3))
    for bw in (0.05, 0.3, 2.0):
        base = SimilarityBase(MIN, sample_points(MIN, 40, g), contexts, bandwidth=bw)
        X = np.vstack([g.standard_normal((9, 3)), g.standard_normal((4, 3)) * 1e3])
        d2 = (
            np.einsum("ij,ij->i", X, X)[:, None]
            + np.einsum("ij,ij->i", contexts, contexts)[None, :]
            - 2.0 * X @ contexts.T
        )
        want = _softmax_written_out(-d2 / (2.0 * bw**2))
        got = base.weights(X)
        assert got.tobytes() == want.tobytes()
        assert np.any(got[9:] == 0.0)


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
    adj = tuple(element(MIN, sample_points(MIN, 1), np.array([0.15])) for _ in range(2))
    p = p.with_patch(
        record("alg1", random_loss(MIN, 2, 1.0, "w1"), 4.0, adj, batch_id="b1", eta=0.15)
    )
    rows = tuple(element(MIN, sample_points(MIN, 2), rng.standard_normal(2) * 0.1) for _ in range(2))
    M = np.linalg.inv(np.array([[1.3, 0.2], [0.2, 1.1]]))
    M = (M + M.T) / 2.0
    return p.with_patch(
        record("alg2", random_loss(MIN, 2, 1.0, "w2"), 2.0, rows, batch_id="b2", mixing=M)
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


# predictor.json of a constant base and one hand-built alg1 patch, as written
# when a constant base held a flat coefficient vector; the text must not change
CONSTANT_BASE_DOC = (
    '{"base":{"element":{"anchors":[[0.25],[0.75]],"coeffs":[0.5,-0.125]},"kind":"constant"},'
    '"format":"decal.predictor/cut-1","kernel":{"R2":1.5,"dim":1,"kind":"min"},'
    '"patches":[{"algorithm":"alg1","anchors":[[0.5],[0.125]],"batch_id":"b","beta":2.0,'
    '"coeffs":[[0.25,0.0],[0.0,-0.5]],"eta":0.5,"witness_lossprime":{"R1":1.0,'
    '"anchors":[[0.5],[0.25]],"coeffs":[[1.0,0.0],[0.0,0.5]],"loss_id":"w","rescaled":false}}]}\n'
)


def test_constant_base_predictor_file_text_is_unchanged(tmp_path):
    base = ConstantBase(element(MIN, [[0.25], [0.75]], [0.5, -0.125]))
    lp = make_loss("w", stack(MIN, [element(MIN, [[0.5]], [1.0]), element(MIN, [[0.25]], [0.5])]), 1.0)
    rows = RkhsElement(MIN, [[0.5], [0.125]], [[0.25, 0.0], [0.0, -0.5]])
    p = Predictor(MIN, base).with_patch(PatchRecord("alg1", lp, 2.0, rows, "b", eta=0.5))
    path = tmp_path / "predictor.json"
    save_predictor(path, p)
    assert path.read_text() == CONSTANT_BASE_DOC
    q = load_predictor(path)
    assert q.base.element.coeffs.shape == (2, 1)
    save_predictor(tmp_path / "again.json", q)
    assert (tmp_path / "again.json").read_text() == CONSTANT_BASE_DOC
    with pytest.raises(ValueError):
        ConstantBase(RkhsElement(MIN, [[0.25]], [[0.5, 0.5]]))


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
    assert np.array_equal(back.span.norms(), loss.span.norms())
    Y = sample_points(MIN, 6)
    assert np.array_equal(back.values(Y), loss.values(Y))

    path = tmp_path / "loss.json"
    save_json(path, loss_file_doc(loss))
    again = load_loss(path)
    assert again.span.spec == MIN
    assert np.array_equal(again.values(Y), loss.values(Y))


@pytest.mark.parametrize("key, value", [
    ("dim", True), ("dim", "1"), ("dim", 1.5), ("dim", None), ("R2", True), ("R2", "1.5"),
    ("R2", [1.5]),
])
def test_kernel_doc_refuses_what_is_not_a_number(tmp_path, key, value):
    """JSON true reads as 1 in Python, so without a type check a file with
    `"dim": true` or `"R2": true` loaded as dim 1 or R2 1.0."""
    p, loss = build_patched_predictor(), random_loss(MIN, 2, 1.0, "k")
    for name, doc, load in (("predictor.json", predictor_to_doc(p), load_predictor),
                            ("loss.json", loss_file_doc(loss), load_loss)):
        path = tmp_path / name
        save_json(path, doc)
        load(path)
        doc = json.loads(path.read_text())
        doc["kernel"][key] = value
        save_json(path, doc)
        with pytest.raises(ValueError, match=f"kernel '{key}'"):
            load(path)
