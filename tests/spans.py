"""Span builders, a replay reader, a call spy and dense plan references the
tests share; all but the plan references use only the package's public types."""

import contextlib

import numpy as np

from decal.kernel import KernelSpec, RkhsElement, as_outcomes, check_spec, column_norms, merge_terms
from decal.model import SampleBatch, evaluate_batch


def element(spec: KernelSpec, anchors, coeffs) -> RkhsElement:
    """The one-column span sum_i coeffs[i] * phi(anchors[i])."""
    return RkhsElement(spec, anchors, np.asarray(coeffs, dtype=np.float64).reshape(-1, 1))


def feature(spec: KernelSpec, y) -> RkhsElement:
    """The single feature map phi(y): one anchor with coefficient 1."""
    return element(spec, as_outcomes(y, spec.dim), np.ones(1))


def inner(u: RkhsElement, v: RkhsElement) -> float:
    """<u, v> of two one-column spans, through u's values at v's anchors."""
    check_spec(u.spec, v.spec)
    return float(v.coeffs[:, 0] @ u.values(v.anchors)[:, 0])


def stack(spec: KernelSpec, elements) -> RkhsElement:
    """One-column spans as the columns of one unmerged anchor table: the
    anchors of each in turn, element a's terms in column a and zeros
    elsewhere.  This is how a loss used to be built from one element per
    action, kept as the reference for tables built directly."""
    for el in elements:
        check_spec(spec, el.spec)
    sizes = [len(el) for el in elements]
    coeffs = np.zeros((sum(sizes), len(elements)))
    coeffs[np.arange(sum(sizes)), np.repeat(np.arange(len(elements)), sizes)] = np.concatenate(
        [np.zeros(0)] + [el.coeffs[:, 0] for el in elements]
    )
    anchors = np.vstack([np.zeros((0, spec.dim))] + [el.anchors for el in elements])
    return RkhsElement(spec, anchors, coeffs)


def reference_loss(spec: KernelSpec, elements, R1: float):
    """(anchors, coeffs, rescaled) of a loss with one action per element, by
    the per-element steps: stack, merge repeated anchors, then rescale the
    columns whose norm exceeds R1 down to it."""
    table = stack(spec, elements)
    anchors, coeffs = merge_terms(spec, table.anchors, table.coeffs)
    nv = column_norms(spec, anchors, coeffs)
    over = nv > R1 * (1.0 + 1e-12)
    return anchors, coeffs * np.where(over, R1 / np.where(over, nv, 1.0), 1.0), bool(np.any(over))


def replay(p, X) -> tuple[np.ndarray, np.ndarray]:
    """(Z, n2): the replay coordinates over p's patch-row basis and the
    squared norms of the predictions at contexts X, as `evaluate_batch`
    computes them (with zero outcomes, which it does not read)."""
    batch = SampleBatch(X, np.zeros((len(X), p.kernel.dim)))
    eb = evaluate_batch(p, batch)
    return eb.Z, eb.pnorm2


@contextlib.contextmanager
def spy(owner, name, when=None):
    """Record the positional arguments of every call of owner.name while the
    block runs (only while when() is true, if given), then restore it."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        if when is None or when():
            calls.append(args)
        return real(*args, **kwargs)

    setattr(owner, name, recording)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


def dense_basis(plan, steps=None) -> np.ndarray:
    """A plan's patch-row basis F = [I; R_1; ...; R_T] as one dense (k, N)
    matrix over its anchors, each R_t built from its step's form as
    -ZB_t^T F_{<t} plus BU_t^T at the anchor rows of its points; with
    `steps`, only the rows of the plan's first `steps` steps, over their
    anchors."""
    chosen = plan.steps[:steps]
    N = chosen[-1].n_after if chosen else plan.n_base
    F = np.eye(plan.n_base, N)
    for st in chosen:
        R = np.zeros((len(st.M), N))
        R[:, : st.n_before] -= st.ZB.T @ F[: len(st.ZB), : st.n_before]
        R[:, st.at] += st.BU.T
        F = np.vstack([F, R])
    return F


def dense_rows(plan, t: int) -> np.ndarray:
    """Step t's rows R_t as a dense (|A|, n_after) matrix over the plan's
    anchors up to its own points, built from the step's form."""
    return dense_basis(plan, t + 1)[plan.steps[t].k :]


def gram_entries(grams) -> int:
    """The kernel entries that the KernelSpec.gram calls `grams` (as `spy`
    records them: self, Y1, Y2) computed."""
    return sum(len(args[1]) * len(args[2]) for args in grams)
