"""Kernel evaluations and exact span arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decal.kernel as kernel_module
from decal.kernel import (
    KernelMismatchError,
    KernelSpec,
    OutcomeDomainError,
    RkhsElement,
    as_outcomes,
    distinct_rows,
    merge_terms,
)
from spans import element, feature, inner, spy

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
    return element(spec, sample_points(spec, n), rng.standard_normal(n))


def kval(spec, y1, y2):
    """K(y1, y2) for one pair of outcomes, each checked against the domain."""
    a, b = as_outcomes(y1, spec.dim), as_outcomes(y2, spec.dim)
    spec.check_domain(a)
    spec.check_domain(b)
    return float(spec.gram(a, b)[0, 0])


def concat(a, u, v):
    """a * u + v as one concatenated span."""
    anchors = np.vstack([u.anchors, v.anchors])
    return RkhsElement(u.spec, anchors, np.vstack([a * u.coeffs, v.coeffs]))


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
    assert u.norms()[0] ** 2 == pytest.approx(0.2, abs=1e-12)


def empty(spec):
    return RkhsElement(spec, np.zeros((0, spec.dim)), np.zeros((0, 1)))


def test_zero_element_inner_and_norm():
    z = empty(MIN)
    v = random_span(MIN, 5)
    assert inner(z, v) == 0.0
    assert z.norms()[0] == 0.0
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


# span arithmetic


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz(nu, nv, seed):
    r = np.random.default_rng(seed)
    u = element(MIN, r.uniform(0, 1, (nu, 1)), r.standard_normal(nu))
    v = element(MIN, r.uniform(0, 1, (nv, 1)), r.standard_normal(nv))
    assert abs(inner(u, v)) <= u.norms()[0] * v.norms()[0] + 1e-9


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_norm_matches_euclidean(n, seed):
    r = np.random.default_rng(seed)
    pts = r.standard_normal((n, 3))
    pts *= r.uniform(0.0, 0.9, size=(n, 1)) / np.maximum(
        np.linalg.norm(pts, axis=1, keepdims=True), 1e-12
    )
    c = r.standard_normal(n)
    v = element(LIN3, pts, c)
    explicit = float(np.sum((c[:, None] * pts).sum(axis=0) ** 2))
    assert v.norms()[0] ** 2 == pytest.approx(explicit, rel=1e-9, abs=1e-12)


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
        return element(MIN, r.uniform(0, 1, (n, 1)), r.standard_normal(n))

    u, v, w = span(nu), span(nv), span(nw)
    lhs = inner(concat(a, u, v), w)
    rhs = a * inner(u, w) + inner(v, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_axpy_zero_scale_equals_v():
    u, v, w = (random_span(MIN, 4) for _ in range(3))
    assert inner(concat(0.0, u, v), w) == pytest.approx(inner(v, w), rel=1e-12, abs=1e-12)


def test_axpy_identity_with_zero():
    u = random_span(MIN, 4)
    s = concat(1.0, u, empty(MIN))
    assert concat(-1.0, u, s).norms()[0] <= 1e-9


def test_axpy_self_cancellation():
    u = random_span(MIN, 6)
    assert concat(-1.0, u, u).norms()[0] <= 1e-9


def test_scale_scales_norm():
    u = random_span(MIN, 5)
    scaled = RkhsElement(MIN, u.anchors, -2.5 * u.coeffs)
    assert scaled.norms()[0] == pytest.approx(2.5 * u.norms()[0], rel=1e-12)


def test_representation_robust_to_reordering():
    u = random_span(MIN, 8)
    perm = rng.permutation(8)
    shuffled = RkhsElement(MIN, u.anchors[perm], u.coeffs[perm])
    w = random_span(MIN, 5)
    assert inner(shuffled, w) == pytest.approx(inner(u, w), rel=1e-9, abs=1e-12)


def test_representation_robust_to_coefficient_split():
    anchors = np.array([[0.3], [0.8]])
    whole = element(MIN, anchors, np.array([1.5, -0.5]))
    split = element(
        MIN, np.array([[0.3], [0.3], [0.8]]), np.array([0.75, 0.75, -0.5])
    )
    w = random_span(MIN, 4)
    assert inner(split, w) == pytest.approx(inner(whole, w), rel=1e-9, abs=1e-12)


# compress


def test_compress_merges_duplicates():
    v = concat(1.0, feature(MIN, 0.5), feature(MIN, 0.5))
    c = v.merged()
    assert len(c) == 1
    assert c.coeffs[0, 0] == 2.0
    assert c.anchors[0, 0] == 0.5


def test_compress_all_zero_coefficients():
    v = RkhsElement(MIN, rng.uniform(0, 1, (4, 1)), np.zeros((4, 1)))
    assert len(v.merged()) == 0


@st.composite
def coefficient_tables(draw):
    """A kernel, (n, dim) anchors drawn with repeats (0.0 and -0.0 among
    them) and an (n, cols) coefficient matrix with some all-zero columns."""
    spec = draw(st.sampled_from([MIN, LIN3, EXP2]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.vstack([sample_points(spec, 5, r), np.zeros(spec.dim), -np.zeros(spec.dim)])
    n = draw(st.integers(1, 16))
    anchors = pool[r.integers(0, len(pool), n)]
    coeffs = r.standard_normal((n, draw(st.sampled_from([1, 2, 4]))))
    coeffs[:, r.random(coeffs.shape[1]) < 0.25] = 0.0
    coeffs[r.random(coeffs.shape) < 0.2] = 0.0
    return spec, anchors, coeffs


@given(coefficient_tables())
@settings(max_examples=80, deadline=None)
def test_merge_terms_columns_match_one_column_merges(table):
    """Each column of a multi-column merge, on the anchors where it is
    nonzero, is that column's own one-column merge, bit for bit; and that is
    a running sum per anchor in input order from 0.0."""
    spec, anchors, coeffs = table
    merged_anchors, merged = merge_terms(spec, anchors, coeffs)
    assert merged.shape == (len(merged_anchors), coeffs.shape[1])
    assert np.all(np.any(merged != 0.0, axis=1))
    for c in range(coeffs.shape[1]):
        alone_anchors, alone = merge_terms(spec, anchors, coeffs[:, c : c + 1])
        live = merged[:, c] != 0.0
        assert merged_anchors[live].tobytes() == alone_anchors.tobytes()
        assert merged[live, c].tobytes() == alone[:, 0].tobytes()
        sums = {}
        for row, x in zip(anchors, coeffs[:, c]):
            sums[row.tobytes()] = sums.get(row.tobytes(), 0.0) + x
        assert alone[:, 0].tolist() == [sums[row.tobytes()] for row in alone_anchors]


def test_compress_preserves_inner_products():
    v = random_span(MIN, 10)
    cv = v.merged()
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


def test_element_rejects_flat_or_miscounted_coefficients():
    with pytest.raises(ValueError):
        RkhsElement(MIN, [[0.2], [0.4]], np.ones(2))
    with pytest.raises(ValueError):
        RkhsElement(MIN, [[0.2], [0.4]], np.ones((3, 1)))


def test_element_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        RkhsElement(MIN, [[0.2], [0.4]], [[1.0, 0.0], [np.nan, 2.0]])


def test_element_rejects_anchor_outside_domain():
    with pytest.raises(OutcomeDomainError):
        RkhsElement(MIN, [[0.2], [1.5]], np.ones((2, 1)))


def test_elements_are_frozen():
    v = random_span(MIN, 3)
    assert not v.anchors.flags.writeable
    assert not v.coeffs.flags.writeable
    with pytest.raises(Exception):
        v.coeffs = np.zeros(3)


@given(
    picks=st.lists(st.integers(0, 5), min_size=0, max_size=40),
    cols=st.integers(1, 2),
    as_keys=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_distinct_rows_in_order_of_first_appearance(picks, cols, as_keys):
    """distinct_rows keys rows by their bytes, whether a row is one 8-byte
    word (a float64 outcome or an int64 key) or wider: 0.0 and -0.0 stay
    apart, and the distinct rows come in order of first appearance."""
    table = np.array([[0.5, 0.0], [0.0, 0.5], [-0.0, 0.5], [0.25, -0.0], [0.25, 0.0], [-0.0, -0.0]])
    rows = table[picks][:, :cols] if not as_keys else np.array(picks, dtype=np.int64)[:, None] * 7
    seen = {}
    for row in rows:
        seen.setdefault(row.tobytes(), len(seen))
    first, inverse = distinct_rows(rows)
    assert [rows[i].tobytes() for i in first] == list(seen)
    assert [seen[row.tobytes()] for row in rows] == inverse.tolist()
    assert all(first[inverse[i]] <= i for i in range(len(rows)))


def reference_distinct(rows):
    """distinct_rows by a dict keyed by row bytes, in order of first appearance."""
    seen, first = {}, []
    inverse = []
    for i, row in enumerate(rows):
        j = seen.setdefault(row.tobytes(), len(seen))
        if j == len(first):
            first.append(i)
        inverse.append(j)
    return first, inverse


# a palette of row entries whose bytes differ where their values compare equal
# (0.0 and -0.0) or not at all (NaN), plus values that end in many zero bits
ENTRIES = [0.0, -0.0, 0.5, 0.25, -2.0, 1 / 3, 1e-300, np.nan]


@given(
    cols=st.sampled_from([1, 2, 3, 50]),
    palette=st.lists(st.lists(st.sampled_from(ENTRIES), min_size=50, max_size=50),
                     min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=0, max_size=60),
    as_keys=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_distinct_rows_matches_row_bytes_reference(cols, palette, picks, as_keys):
    """Rows of 8, 16, 24 and 400 bytes, as float64 or int64 words, with
    repeats, +-0.0 and NaN: the hashed keys give the dict-of-row-bytes
    result, empty input included."""
    table = np.array(palette)[:, :cols]
    if as_keys:
        table = table.view(np.int64) % 5
    rows = table[[i % len(table) for i in picks]].reshape(-1, cols)
    first, inverse = distinct_rows(rows)
    want_first, want_inverse = reference_distinct(rows)
    assert first.tolist() == want_first
    assert inverse.tolist() == want_inverse


def test_distinct_rows_falls_back_on_a_hash_collision(monkeypatch):
    """With every multiplier zero, every row hashes onto one key: the byte
    check sees the collision and the raw-byte sort gives the exact result.
    Rows 1 and 2 differ only in the sign of one zero."""
    g = np.random.default_rng(3)
    table = g.standard_normal((5, 50))
    table[1, 7] = -0.0
    table[2] = table[1]
    table[2, 7] = 0.0
    rows = table[g.integers(0, 5, 40)]
    want = reference_distinct(rows)
    for zero_multipliers, keyings in ((False, 1), (True, 2)):
        if zero_multipliers:
            monkeypatch.setattr(kernel_module, "_row_multipliers",
                                lambda words: np.zeros(words, np.uint64))
        with spy(kernel_module, "_first_appearance") as keyed:
            first, inverse = distinct_rows(rows)
        # the hashed keys, then on a collision the raw bytes
        assert len(keyed) == keyings
        assert (first.tolist(), inverse.tolist()) == want
    assert len(np.unique(keyed[0][0])) == 1


def test_merging_a_checked_table_checks_only_its_coefficients():
    """merged() takes its anchors as checked (they are rows of a checked
    table) and runs no domain check, but still refuses a merge whose sum
    overflows to a non-finite coefficient."""
    u = random_span(LIN3, 6)
    with spy(KernelSpec, "check_domain") as checks:
        merged = u.merged()
    assert checks == [] and not merged.anchors.flags.writeable
    big = RkhsElement(MIN, [[0.5], [0.5]], [[1e308], [1e308]])
    with pytest.raises(ValueError, match="finite"):
        big.merged()
