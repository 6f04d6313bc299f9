"""Kernels and exact arithmetic on finite feature-map spans.

Every object downstream (predictors, losses, calibration patches) is a finite
span ``sum_i c_i * phi(y_i)``, so inner products, norms, and projections all
reduce to Gram matrices over the anchor outcomes.  Coordinates of the feature
space are never materialized; the kernels below are the only place the
geometry enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("linear", "min", "exp")

# Anchors this far outside the declared domain are rejected.
DOMAIN_SLACK = 1e-9

# Rows of the point list per dense Gram block in gram_apply.
SPAN_GRAM_BLOCK = 2048


class KernelMismatchError(ValueError):
    """Spans built over different kernel specs were combined."""


class OutcomeDomainError(ValueError):
    """An outcome lies outside the kernel's declared domain."""


@dataclass(frozen=True)
class KernelSpec:
    """A named kernel together with the feature-norm bound R2.

    kind "linear":  K(u, v) = <u, v> on the ball ||y|| <= R2 of R^dim.
    kind "min":     K(u, v) = min(u, v) on [0, 1]; dim is fixed to 1.
    kind "exp":     K(u, v) = exp(<u, v>) on the ball ||y|| <= sqrt(2 ln R2).

    Each domain is chosen so that K(y, y) <= R2**2, i.e. feature vectors
    never leave the radius-R2 Hilbert ball.
    """

    kind: str
    dim: int
    R2: float

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("kernel dim must be >= 1")
        if self.kind == "min" and self.dim != 1:
            raise ValueError("min kernel is defined on scalars; dim must be 1")
        if not (math.isfinite(self.R2) and self.R2 > 0):
            raise ValueError("R2 must be finite and positive")
        if self.kind == "min" and self.R2 < 1.0:
            raise ValueError("min kernel has K(1, 1) = 1; R2 must be >= 1")
        if self.kind == "exp" and self.R2 < 1.0:
            raise ValueError("exp kernel needs R2 >= 1 for a nonempty domain")

    @property
    def domain_radius(self) -> float:
        """Radius of the Euclidean ball of admissible outcomes."""
        if self.kind == "linear":
            return self.R2
        if self.kind == "exp":
            return math.sqrt(2.0 * math.log(self.R2))
        return 1.0  # min kernel: upper end of [0, 1]

    def check_domain(self, Y: np.ndarray) -> None:
        """Raise OutcomeDomainError unless every row of Y is admissible."""
        Y = as_outcomes(Y, self.dim)
        if Y.size == 0:
            return
        if not np.all(np.isfinite(Y)):
            raise OutcomeDomainError("outcomes must be finite")
        if self.kind == "min":
            lo, hi = Y.min(), Y.max()
            if lo < -DOMAIN_SLACK or hi > 1.0 + DOMAIN_SLACK:
                raise OutcomeDomainError(
                    f"min-kernel outcomes must lie in [0, 1]; saw [{lo}, {hi}]"
                )
        else:
            r = math.sqrt(float(np.max(np.einsum("ij,ij->i", Y, Y))))
            if r > self.domain_radius + DOMAIN_SLACK:
                raise OutcomeDomainError(
                    f"outcome norm {r} exceeds domain radius {self.domain_radius}"
                )

    def gram(self, Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
        """Cross-Gram matrix K(Y1[i], Y2[j]); inputs are (n, dim) arrays."""
        if self.kind == "linear":
            return Y1 @ Y2.T
        if self.kind == "min":
            return np.minimum(Y1, Y2.T)
        return np.exp(Y1 @ Y2.T)

    def diag(self, Y: np.ndarray) -> np.ndarray:
        """K(y, y) for each row of Y."""
        if self.kind == "linear":
            return np.einsum("ij,ij->i", Y, Y)
        if self.kind == "min":
            return Y[:, 0].copy()
        return np.exp(np.einsum("ij,ij->i", Y, Y))


def as_outcomes(Y, dim: int) -> np.ndarray:
    """Coerce scalars / vectors / row-stacks into an (n, dim) float array."""
    arr = np.asarray(Y, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected outcomes of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class RkhsElement:
    """Immutable finite span sum_i coeffs[i] * phi(anchors[i])."""

    spec: KernelSpec
    anchors: np.ndarray  # (n, dim)
    coeffs: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        anchors = as_outcomes(self.anchors, self.spec.dim).copy()
        coeffs = np.asarray(self.coeffs, dtype=np.float64).reshape(-1).copy()
        if len(anchors) != len(coeffs):
            raise ValueError("anchor and coefficient counts differ")
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.spec.check_domain(anchors)
        anchors.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


def zero_element(spec: KernelSpec) -> RkhsElement:
    return RkhsElement(spec, np.zeros((0, spec.dim)), np.zeros(0))


def feature(spec: KernelSpec, y) -> RkhsElement:
    """The single feature map phi(y)."""
    return RkhsElement(spec, as_outcomes(y, spec.dim), np.ones(1))


def check_spec(a: KernelSpec, b: KernelSpec) -> None:
    """Raise KernelMismatchError unless spans over a and b share one RKHS."""
    if a != b:
        raise KernelMismatchError(f"kernel specs differ: {a} vs {b}")


def inner(u: RkhsElement, v: RkhsElement) -> float:
    """<u, v> via the cross-Gram matrix of the anchors."""
    check_spec(u.spec, v.spec)
    return float(u.coeffs @ u.spec.gram(u.anchors, v.anchors) @ v.coeffs)


def norm2(v: RkhsElement) -> float:
    """Squared norm, clamped at zero against Gram round-off."""
    return max(inner(v, v), 0.0)


def norm(v: RkhsElement) -> float:
    return math.sqrt(norm2(v))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise-distinct rows in order of first appearance.

    Returns (first, inverse): rows[first] are the distinct rows and
    rows[i] equals rows[first[inverse[i]]].  Rows compare as raw bytes, so
    0.0 and -0.0 stay distinct.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def merge_terms(
    spec: KernelSpec, anchors: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge bitwise-identical anchors of the span sum_i coeffs[i] *
    phi(anchors[i]), then drop the terms that are exactly zero (a zero
    coefficient or K(y, y) = 0); returns the remaining (anchors, coeffs).
    `anchors` is a nonempty (n, dim) float array.
    """
    first, inverse = distinct_rows(anchors)
    # bincount adds in input order from 0.0, as a running sum per anchor would
    merged = np.bincount(inverse, weights=coeffs, minlength=len(first))
    anchors = anchors[first]
    keep = np.abs(merged) * np.sqrt(np.maximum(spec.diag(anchors), 0.0)) > 0.0
    return anchors[keep], merged[keep]


def compress(v: RkhsElement) -> RkhsElement:
    """The same element with repeated anchors merged and zero terms dropped
    (see merge_terms)."""
    if len(v) == 0:
        return v
    return RkhsElement(v.spec, *merge_terms(v.spec, v.anchors, v.coeffs))


def gram_apply(spec: KernelSpec, points: np.ndarray, C: np.ndarray) -> np.ndarray:
    """K @ C for the Gram matrix K of `points`, in row blocks of SPAN_GRAM_BLOCK
    rows; the full n x n Gram matrix is never materialized."""
    out = np.empty((len(points), C.shape[1]))
    for i0 in range(0, len(points), SPAN_GRAM_BLOCK):
        i1 = min(i0 + SPAN_GRAM_BLOCK, len(points))
        out[i0:i1] = spec.gram(points[i0:i1], points) @ C
    return out


def span_gram(spec: KernelSpec, points: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C.T @ K @ C for the Gram matrix K of `points`.

    Columns of C are coefficient vectors over the shared point list; the
    result is the matrix of pairwise inner products of the spanned elements.
    """
    if len(points) != len(C):
        raise ValueError("points and coefficient rows differ in length")
    return C.T @ gram_apply(spec, points, C)
