"""Kernel evaluations and exact span arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import kernel
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    OutcomeDomainError,
    RkhsElement,
    as_outcomes,
    compress,
    feature,
    gram_apply,
    inner,
    norm,
    norm2,
    span_gram,
    zero_element,
)

MIN = KernelSpec("min", 1, 1.5)
LIN3 = KernelSpec("linear", 3, 1.0)
EXP2 = KernelSpec("exp", 2, 2.0)

rng = np.random.default_rng(7)


def sample_points(spec, n, r=rng):
    if spec.kind == "min":
        return r.uniform(0.0, 1.0, size=(n, 1))
    pts = r.standard_normal((n, spec.dim))
    radii = r.uniform(0.0, spec.domain_radius, size=(n, 1))
    return pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12) * radii


def random_span(spec, n):
    return RkhsElement(spec, sample_points(spec, n), rng.standard_normal(n))


def kval(spec, y1, y2):
    """K(y1, y2) for one pair of outcomes, each checked against the domain."""
    a, b = as_outcomes(y1, spec.dim), as_outcomes(y2, spec.dim)
    spec.check_domain(a)
    spec.check_domain(b)
    return float(spec.gram(a, b)[0, 0])


def concat(a, u, v):
    """a * u + v as one concatenated span."""
    anchors = np.vstack([u.anchors, v.anchors])
    return RkhsElement(u.spec, anchors, np.concatenate([a * u.coeffs, v.coeffs]))


# fixed-coordinate values


def test_min_kernel_value():
    assert kval(MIN, 0.3, 0.7) == 0.3


def test_exp_kernel_origin_is_one():
    for y in ([0.0, 0.0], [0.5, -0.3], [1.0, 0.2]):
        assert kval(EXP2, [0.0, 0.0], y) == 1.0


def test_linear_orthogonal_is_zero():
    assert kval(LIN3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0


def test_reproducing_single_anchor():
    u = feature(MIN, 0.5)
    assert inner(u, u) == 0.5


def test_hand_expanded_difference_norm():
    # K(.4,.4) - 2 K(.4,.2) + K(.2,.2) = 0.4 - 0.4 + 0.2
    u = concat(-1.0, feature(MIN, 0.2), feature(MIN, 0.4))
    assert norm2(u) == pytest.approx(0.2, abs=1e-12)


def test_zero_element_inner_and_norm():
    z = zero_element(MIN)
    v = random_span(MIN, 5)
    assert inner(z, v) == 0.0
    assert norm(z) == 0.0
    assert len(z) == 0


@pytest.mark.parametrize("spec", [MIN, LIN3, EXP2], ids=lambda s: s.kind)
def test_feature_norm_bounded_by_R2(spec):
    Y = sample_points(spec, 200)
    diag = spec.diag(Y)
    assert np.all(diag <= spec.R2**2 + 1e-9)


@pytest.mark.parametrize("spec", [MIN, LIN3, EXP2], ids=lambda s: s.kind)
def test_kernel_symmetric_exactly(spec):
    Y = sample_points(spec, 30)
    G = spec.gram(Y, Y)
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("spec", [MIN, LIN3, EXP2], ids=lambda s: s.kind)
def test_gram_psd(spec):
    for n in (2, 7, 20):
        Y = sample_points(spec, n)
        eigs = np.linalg.eigvalsh(spec.gram(Y, Y))
        assert eigs.min() >= -1e-9


# the blocked Gram product


@pytest.mark.parametrize("spec", [MIN, LIN3, EXP2], ids=lambda s: s.kind)
@given(st.integers(1, 7), st.integers(0, 24), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_blocked_gram_products_match_dense(spec, block, n, k, seed):
    """Several row blocks, the last one ragged, give the dense products."""
    r = np.random.default_rng(seed)
    points = sample_points(spec, n, r)
    C = r.standard_normal((n, k))
    K = spec.gram(points, points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "SPAN_GRAM_BLOCK", block)
        applied = gram_apply(spec, points, C)
        products = span_gram(spec, points, C)
    for got, want, scale in (
        (applied, K @ C, np.abs(K) @ np.abs(C)),
        (products, C.T @ K @ C, np.abs(C).T @ np.abs(K) @ np.abs(C)),
    ):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-12 * scale)


# span arithmetic


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz(nu, nv, seed):
    r = np.random.default_rng(seed)
    u = RkhsElement(MIN, r.uniform(0, 1, (nu, 1)), r.standard_normal(nu))
    v = RkhsElement(MIN, r.uniform(0, 1, (nv, 1)), r.standard_normal(nv))
    assert abs(inner(u, v)) <= norm(u) * norm(v) + 1e-9


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_norm_matches_euclidean(n, seed):
    r = np.random.default_rng(seed)
    pts = r.standard_normal((n, 3))
    pts *= r.uniform(0.0, 0.9, size=(n, 1)) / np.maximum(
        np.linalg.norm(pts, axis=1, keepdims=True), 1e-12
    )
    c = r.standard_normal(n)
    v = RkhsElement(LIN3, pts, c)
    explicit = float(np.sum((c[:, None] * pts).sum(axis=0) ** 2))
    assert norm2(v) == pytest.approx(explicit, rel=1e-9, abs=1e-12)


@given(
    st.floats(-3, 3, allow_nan=False),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_axpy_linearity(a, nu, nv, nw, seed):
    r = np.random.default_rng(seed)

    def span(n):
        return RkhsElement(MIN, r.uniform(0, 1, (n, 1)), r.standard_normal(n))

    u, v, w = span(nu), span(nv), span(nw)
    lhs = inner(concat(a, u, v), w)
    rhs = a * inner(u, w) + inner(v, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_axpy_zero_scale_equals_v():
    u, v, w = (random_span(MIN, 4) for _ in range(3))
    assert inner(concat(0.0, u, v), w) == pytest.approx(inner(v, w), rel=1e-12, abs=1e-12)


def test_axpy_identity_with_zero():
    u = random_span(MIN, 4)
    s = concat(1.0, u, zero_element(MIN))
    assert norm(concat(-1.0, u, s)) <= 1e-9


def test_axpy_self_cancellation():
    u = random_span(MIN, 6)
    assert norm(concat(-1.0, u, u)) <= 1e-9


def test_scale_scales_norm():
    u = random_span(MIN, 5)
    scaled = RkhsElement(MIN, u.anchors, -2.5 * u.coeffs)
    assert norm(scaled) == pytest.approx(2.5 * norm(u), rel=1e-12)


def test_representation_robust_to_reordering():
    u = random_span(MIN, 8)
    perm = rng.permutation(8)
    shuffled = RkhsElement(MIN, u.anchors[perm], u.coeffs[perm])
    w = random_span(MIN, 5)
    assert inner(shuffled, w) == pytest.approx(inner(u, w), rel=1e-9, abs=1e-12)


def test_representation_robust_to_coefficient_split():
    anchors = np.array([[0.3], [0.8]])
    whole = RkhsElement(MIN, anchors, np.array([1.5, -0.5]))
    split = RkhsElement(
        MIN, np.array([[0.3], [0.3], [0.8]]), np.array([0.75, 0.75, -0.5])
    )
    w = random_span(MIN, 4)
    assert inner(split, w) == pytest.approx(inner(whole, w), rel=1e-9, abs=1e-12)


# compress


def test_compress_merges_duplicates():
    v = concat(1.0, feature(MIN, 0.5), feature(MIN, 0.5))
    c = compress(v)
    assert len(c) == 1
    assert c.coeffs[0] == 2.0
    assert c.anchors[0, 0] == 0.5


def test_compress_all_zero_coefficients():
    v = RkhsElement(MIN, rng.uniform(0, 1, (4, 1)), np.zeros(4))
    assert len(compress(v)) == 0


def test_compress_preserves_inner_products():
    v = random_span(MIN, 10)
    cv = compress(v)
    for _ in range(20):
        w = random_span(MIN, 3)
        assert inner(cv, w) == pytest.approx(inner(v, w), rel=1e-9, abs=1e-12)


# domain and spec errors


def test_min_kernel_rejects_outside_unit_interval():
    with pytest.raises(OutcomeDomainError):
        kval(MIN, 1.2, 0.5)


def test_linear_rejects_norm_above_R2():
    with pytest.raises(OutcomeDomainError):
        feature(LIN3, [1.5, 0.0, 0.0])


def test_exp_rejects_outside_ball():
    bad = np.full(2, EXP2.domain_radius)
    with pytest.raises(OutcomeDomainError):
        feature(EXP2, bad)


def test_exp_domain_radius_enforces_R2():
    # boundary point: K(y, y) = e^{||y||^2} = R2^2
    y = np.array([EXP2.domain_radius, 0.0])
    assert kval(EXP2, y, y) == pytest.approx(EXP2.R2**2, rel=1e-12)


def test_mismatched_specs_rejected():
    with pytest.raises(KernelMismatchError):
        inner(feature(MIN, 0.5), random_span(LIN3, 2))


def test_min_kernel_requires_dim_one():
    with pytest.raises(ValueError):
        KernelSpec("min", 2, 1.5)


def test_exp_kernel_requires_R2_at_least_one():
    with pytest.raises(ValueError):
        KernelSpec("exp", 2, 0.5)


def test_elements_are_frozen():
    v = random_span(MIN, 3)
    assert not v.anchors.flags.writeable
    assert not v.coeffs.flags.writeable
    with pytest.raises(Exception):
        v.coeffs = np.zeros(3)
