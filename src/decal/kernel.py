"""Kernels and exact arithmetic on finite feature-map spans.

Every object downstream (predictors, losses, calibration patches) is a finite
span ``sum_i c_i * phi(y_i)``, held in one type: an `RkhsElement` is an anchor
table, one column of coefficients per spanned element over shared anchors.
Inner products, norms, and projections all reduce to Gram matrices over the
anchor outcomes.  Coordinates of the feature space are never materialized;
the kernels below are the only place the geometry enters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

KERNEL_KINDS = ("linear", "min", "exp")

# Anchors this far outside the declared domain are rejected.
DOMAIN_SLACK = 1e-9


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
    """Immutable anchor table, one column per spanned element: column j is
    sum_i coeffs[i, j] * phi(anchors[i]).  `form` is the model.CutForm the
    audit cut the table by, when it did."""

    spec: KernelSpec
    anchors: np.ndarray  # (M, dim)
    coeffs: np.ndarray  # (M, cols)
    form: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        anchors = as_outcomes(self.anchors, self.spec.dim).copy()
        coeffs = np.asarray(self.coeffs, dtype=np.float64).copy()
        if coeffs.ndim != 2 or len(coeffs) != len(anchors):
            raise ValueError("coefficients must be one row per anchor, one column per element")
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.spec.check_domain(anchors)
        anchors.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of_checked(cls, spec: KernelSpec, anchors: np.ndarray, coeffs: np.ndarray,
                    form: object = None) -> "RkhsElement":
        """A table whose anchors are rows the code has already checked against
        spec's domain (rows of a checked table or batch), as (M, dim) and
        (M, cols) float64 arrays that no one else writes: C-ordered ones are
        taken without a copy or a domain check and frozen in place.  The
        coefficients must still be finite."""
        anchors, coeffs = np.ascontiguousarray(anchors), np.ascontiguousarray(coeffs)
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        anchors.setflags(write=False)
        coeffs.setflags(write=False)
        el = object.__new__(cls)
        for name, value in (("spec", spec), ("anchors", anchors), ("coeffs", coeffs),
                            ("form", form)):
            object.__setattr__(el, name, value)
        return el

    def __len__(self) -> int:
        return len(self.coeffs)

    def norms(self) -> np.ndarray:
        """The norm of each column; (cols,)."""
        return column_norms(self.spec, self.anchors, self.coeffs)

    def values(self, Y) -> np.ndarray:
        """<column j, phi(Y[i])> from one Gram block; (n, cols)."""
        return self.spec.gram(as_outcomes(Y, self.spec.dim), self.anchors) @ self.coeffs

    def merged(self) -> "RkhsElement":
        """The same columns with repeated anchors merged and zero terms dropped."""
        return RkhsElement._of_checked(self.spec,
                                       *merge_terms(self.spec, self.anchors, self.coeffs))


def check_spec(a: KernelSpec, b: KernelSpec) -> None:
    """Raise KernelMismatchError unless spans over a and b share one RKHS."""
    if a != b:
        raise KernelMismatchError(f"kernel specs differ: {a} vs {b}")


def column_norms(spec: KernelSpec, anchors: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Norms of the spans that are the columns of `coeffs` over `anchors`: the
    root diagonal of coeffs^T G coeffs, clamped at zero against round-off."""
    G = spec.gram(anchors, anchors)
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", coeffs, G @ coeffs), 0.0))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise-distinct rows in order of first appearance.

    Returns (first, inverse): rows[first] are the distinct rows and
    rows[i] equals rows[first[inverse[i]]].  Rows compare as raw bytes, so
    0.0 and -0.0 stay distinct.  A row of 8 bytes (one float64 outcome, one
    int64 key) is keyed as one uint64.  A wider row is hashed to one uint64
    key by a single product of its 4-byte words with odd pseudo-random
    multipliers (mod 2**64), so one pass over the bytes replaces a sort of n
    wide keys; a 4-byte word times its own odd multiplier keeps every bit of
    the word, so rows whose floats end in zero bits hash apart too.  Every
    row is then checked to hold the bytes of the first row of its key, and
    on a hash collision the rows are sorted as raw bytes instead, so the
    result is the same either way.
    """
    rows = np.ascontiguousarray(rows)
    width = rows.itemsize * rows.shape[1]
    if width == 8:
        return _first_appearance(rows.view(np.uint64).ravel())
    if width % 4 == 0:
        words = rows.view(np.uint32)
        first, inverse = _first_appearance(
            np.einsum("ij,j->i", words, _row_multipliers(words.shape[1])))
        # distinct keys are distinct rows; otherwise compare the bytes
        if len(first) == len(words) or np.array_equal(words[first[inverse]], words):
            return first, inverse
    return _first_appearance(rows.view(np.dtype((np.void, width))).ravel())


@functools.cache
def _row_multipliers(words: int) -> np.ndarray:
    """The odd uint64 multipliers of distinct_rows' row hash, one per word;
    drawn from a fixed seed, though any multipliers give the same result."""
    m = np.random.default_rng(0x5EED).integers(
        0, 2**64, size=words, dtype=np.uint64, endpoint=False)
    m |= np.uint64(1)
    m.setflags(write=False)
    return m


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """distinct_rows' (first, inverse) of a 1-d array of keys."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def sum_rows(index: np.ndarray, size: int, C: np.ndarray) -> np.ndarray:
    """The rows of C (n, cols) summed by `index`: row j of the (size, cols)
    result is the sum of the rows C[i] with index[i] == j, added in input
    order from 0.0, as a running sum per row would."""
    cols = C.shape[1]
    bins = (index[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(bins, weights=C.ravel(), minlength=size * cols).reshape(size, cols)


def merge_terms(
    spec: KernelSpec, anchors: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge bitwise-identical anchors of the spans whose coefficients are
    the columns of `coeffs` (n, cols), then drop the anchors where every
    term is exactly zero (a zero coefficient or K(y, y) = 0); returns the
    remaining (anchors, coeffs).  `anchors` is an (n, dim) float array.
    """
    first, inverse = distinct_rows(anchors)
    merged = sum_rows(inverse, len(first), coeffs)
    anchors = anchors[first]
    scale = np.sqrt(np.maximum(spec.diag(anchors), 0.0))
    keep = np.any(np.abs(merged) * scale[:, None] > 0.0, axis=1)
    return anchors[keep], merged[keep]
