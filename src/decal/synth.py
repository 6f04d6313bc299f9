"""Synthetic instances: loss families, data generators, and the paired
indistinguishable worlds used to probe the binary-action lower bound.

The planted-bias generator draws outcomes from a finite support with
context-dependent mixture weights, and hands back the predictor whose
conditional feature mean is off by a fixed span element s.  That makes the
population decision-calibration error of the unpatched predictor exactly
R1 * ||s||, which the calibration and convergence tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .calibrate import DataExhaustedError
from .kernel import KernelSpec, RkhsElement, as_outcomes, distinct_rows
from .model import (
    Field,
    LossFunction,
    Predictor,
    PredictorBase,
    SampleBatch,
    as_contexts,
    make_loss,
    _array_doc,
    read_field,
    register_base,
    softmax,
)

COBB_DOUGLAS_R1 = math.sqrt(math.e)  # norm bound e^(||alpha||^2 / 2) on the simplex


# ---------------------------------------------------------------------------
# Loss families


def make_piecewise_linear_loss(
    k1, k2, c, n_actions: int, spec: KernelSpec, R1: float | None = None, loss_id: str = "piecewise"
) -> LossFunction:
    """Two-piece losses over the min kernel: slope k1 below the knee c,
    slope k2 above it, continuous at the knee.

    Per-action coefficient: k2 * phi(1) + (k1 - k2) * phi(c).  Scalars
    broadcast over actions; arrays give one piece description per action.
    The norm bound satisfies ||r(a)||^2 = (1 - c) k2^2 + c k1^2 <= R1^2
    for R1 = max(|k1|, |k2|), the default declaration.
    """
    if spec.kind != "min":
        raise ValueError("piecewise-linear losses are defined over the min kernel")
    k1 = np.broadcast_to(np.asarray(k1, dtype=np.float64), (n_actions,))
    k2 = np.broadcast_to(np.asarray(k2, dtype=np.float64), (n_actions,))
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (n_actions,))
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError("knee locations must lie in [0, 1]")
    if R1 is None:
        R1 = float(np.max(np.maximum(np.abs(k1), np.abs(k2))))
        if R1 <= 0:
            R1 = 1.0
    if np.max(np.maximum(np.abs(k1), np.abs(k2))) > R1 + 1e-9:
        raise ValueError("slopes exceed the declared norm bound R1")
    # action a spans rows 2a (anchor 1) and 2a + 1 (anchor c[a])
    anchors = np.column_stack([np.ones(n_actions), c]).reshape(-1, 1)
    coeffs = np.zeros((2 * n_actions, n_actions))
    coeffs[2 * np.arange(n_actions), np.arange(n_actions)] = k2
    coeffs[2 * np.arange(n_actions) + 1, np.arange(n_actions)] = k1 - k2
    return make_loss(loss_id, RkhsElement(spec, anchors, coeffs), R1)


def piecewise_linear_value(k1: float, k2: float, c: float, y: float) -> float:
    """Direct two-piece evaluation, the oracle the kernel form must match."""
    if y < c:
        return k1 * y
    return k2 * y + (k1 - k2) * c


def make_cobb_douglas_loss(
    alphas, spec: KernelSpec, sign: float = -1.0, loss_id: str = "cobb-douglas"
) -> LossFunction:
    """Cobb-Douglas utilities over the exp kernel, negated into losses.

    Each action has a simplex exponent vector alpha; the utility is
    exp(sum_j alpha_j y_j) = <phi(alpha), phi(y)>, so the loss coefficient is
    sign * phi(alpha) with sign=-1 for utility maximization.  Norm bound
    e^(||alpha||^2 / 2) <= sqrt(e) on the simplex.
    """
    if spec.kind != "exp":
        raise ValueError("Cobb-Douglas losses are defined over the exp kernel")
    if sign not in (-1.0, 1.0):
        raise ValueError("sign must be -1 or +1")
    A = np.asarray(alphas, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.shape[1] != spec.dim:
        raise ValueError(f"exponent vectors must have dimension {spec.dim}")
    if np.any(A < -1e-12) or np.any(np.abs(A.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("each exponent vector must lie on the probability simplex")
    if spec.domain_radius < 1.0 - 1e-12:
        raise ValueError("exp kernel domain must contain the simplex; need R2 >= sqrt(e)")
    return make_loss(loss_id, RkhsElement(spec, A, np.diag(np.full(len(A), sign))), COBB_DOUGLAS_R1)


def cobb_douglas_value(alpha, y, sign: float = -1.0) -> float:
    """Direct exponential-utility evaluation matching the kernel form."""
    return sign * math.exp(float(np.dot(alpha, y)))


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class ContextSpec:
    kind: str  # "uniform" on [0,1]^dim | "gaussian" standard normal
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown context kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("context dim must be >= 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(0.0, 1.0, size=(n, self.dim))
        return rng.standard_normal((n, self.dim))


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Deterministic outcomes y = A x + b, validated against the kernel domain."""

    matrix: np.ndarray  # (dim, dx)
    offset: np.ndarray  # (dim,)
    noise_scale: float = 0.0  # uniform per-coordinate noise in [-s, s]

    def sample(self, X: np.ndarray, spec: KernelSpec, rng: np.random.Generator) -> np.ndarray:
        Y = X @ np.asarray(self.matrix, dtype=np.float64).T + np.asarray(
            self.offset, dtype=np.float64
        )
        if self.noise_scale > 0:
            Y = Y + rng.uniform(-self.noise_scale, self.noise_scale, size=Y.shape)
        spec.check_domain(Y)
        return Y


@dataclass(frozen=True, eq=False)
class PlantedBiasMap:
    """Finite-support outcomes with softmax mixture weights.

    Outcomes are rows of `support`, drawn with probabilities
    q(x) = softmax(weight_matrix @ x + weight_offset).  The companion
    predictor uses coefficients q(x) - shift_coeffs, so its conditional
    residual feature mean is exactly s = sum_j shift_coeffs[j] phi(u_j)
    for every context.
    """

    support: np.ndarray  # (K, dim)
    weight_matrix: np.ndarray  # (K, dx)
    weight_offset: np.ndarray  # (K,)
    shift_coeffs: np.ndarray  # (K,)

    def mixture_weights(self, X: np.ndarray) -> np.ndarray:
        logits = X @ np.asarray(self.weight_matrix, dtype=np.float64).T + np.asarray(
            self.weight_offset, dtype=np.float64
        )
        return softmax(logits)

    def sample(self, X: np.ndarray, spec: KernelSpec, rng: np.random.Generator) -> np.ndarray:
        q = self.mixture_weights(X)
        u = rng.random(len(X))
        idx = (q.cumsum(axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, len(self.support) - 1)  # guard cumsum round-off
        return np.asarray(self.support, dtype=np.float64)[idx]


@dataclass(frozen=True)
class SynthSpec:
    kernel: KernelSpec
    contexts: ContextSpec
    outcomes: AffineMap | PlantedBiasMap
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


class SyntheticSource:
    """Endless stream of disjoint batches drawn from one SynthSpec."""

    def __init__(self, spec: SynthSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._count = 0

    def take(self, n: int) -> SampleBatch:
        X = self.spec.contexts.sample(n, self._rng)
        Y = self.spec.outcomes.sample(X, self.spec.kernel, self._rng)
        batch = SampleBatch(X, Y, batch_id=f"batch-{self._count:04d}")
        self._count += 1
        return batch


class ArraySource:
    """Finite source over fixed arrays; raises once the data runs out."""

    def __init__(self, X: np.ndarray, Y: np.ndarray) -> None:
        self.X = as_contexts(X)
        self.Y = np.asarray(Y, dtype=np.float64)  # each batch coerces its rows
        self._cursor = 0
        self._count = 0

    def take(self, n: int) -> SampleBatch:
        end = self._cursor + n
        if end > len(self.X):
            raise DataExhaustedError(
                f"requested {n} samples with {len(self.X) - self._cursor} remaining"
            )
        batch = SampleBatch(
            self.X[self._cursor : end], self.Y[self._cursor : end],
            batch_id=f"slice-{self._count:04d}",
        )
        self._cursor = end
        self._count += 1
        return batch


# ---------------------------------------------------------------------------
# Planted-bias instances


# The planted world's arrays, as PlantedBiasMap fields and as document keys.
_WORLD_KEYS = ("support", "weight_matrix", "weight_offset", "shift_coeffs")


@register_base
@dataclass(frozen=True, eq=False)
class LogitMixtureBase(PredictorBase):
    """A planted world's softmax mixture weights minus its shift."""

    kind: ClassVar[str] = "logit_mixture"
    spec: KernelSpec
    world: PlantedBiasMap

    def __post_init__(self) -> None:
        """The world's arrays must be finite, over one support of K >= 1
        outcomes in the kernel's domain: weight_matrix (K, dx), weight_offset and
        shift_coeffs (K,), with finite squares, and the shift's norm finite:
        the weights multiply a context by the weight rows, and replay squares
        the shift's norm, so past these they would replay to NaN."""
        arrays = {k: np.asarray(getattr(self.world, k), dtype=np.float64) for k in _WORLD_KEYS}
        K = len(arrays["support"]) if arrays["support"].ndim else -1
        if K == 0:
            raise ValueError("logit_mixture 'support' must hold at least one outcome")
        dx = arrays["weight_matrix"].shape[-1] if arrays["weight_matrix"].ndim == 2 else -1
        wants = {"support": (K, self.spec.dim), "weight_matrix": (K, dx),
                 "weight_offset": (K,), "shift_coeffs": (K,)}
        with np.errstate(over="ignore", invalid="ignore"):
            for key, arr in arrays.items():
                if arr.shape != wants[key]:
                    raise ValueError(f"logit_mixture {key!r}: shape {arr.shape}, not {wants[key]}")
                if not np.isfinite(arr * arr).all():
                    raise ValueError(f"logit_mixture {key!r} must have finite squares")
            c = arrays["shift_coeffs"]
            if not np.isfinite(c @ self.spec.gram(self.anchors, self.anchors) @ c):
                raise ValueError("logit_mixture 'shift_coeffs' must span a shift of finite norm")
        self.spec.check_domain(arrays["support"])

    @property
    def anchors(self) -> np.ndarray:
        return as_outcomes(self.world.support, self.spec.dim)

    def weights(self, X: np.ndarray) -> np.ndarray:
        w = self.world.mixture_weights(X)
        w -= np.asarray(self.world.shift_coeffs, dtype=np.float64)
        return w

    def to_doc(self) -> dict:
        arrays = {k: _array_doc(getattr(self.world, k)) for k in _WORLD_KEYS}
        return {"kind": self.kind, **arrays}

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "LogitMixtureBase":
        support = read_field(doc, "support", Field("array", domain=spec), "base ")
        K = len(support)
        shapes = {"weight_matrix": (K, None), "weight_offset": (K,), "shift_coeffs": (K,)}
        arrays = (read_field(doc, k, Field("array", shape=shapes[k]), "base ") for k in shapes)
        return cls(spec, PlantedBiasMap(support, *arrays))


@dataclass(frozen=True)
class PlantedInstance:
    """A planted-bias world plus the predictor that misses it by exactly s."""

    kernel: KernelSpec
    contexts: ContextSpec
    outcomes: PlantedBiasMap
    predictor: Predictor
    shift_norm: float

    def source(self, seed: int) -> SyntheticSource:
        return SyntheticSource(
            SynthSpec(self.kernel, self.contexts, self.outcomes, n=1, seed=seed)
        )


def _support_points(spec: KernelSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "min":
        return np.sort(rng.uniform(0.05, 0.95, size=(size, 1)), axis=0)
    radius = 0.55 * spec.domain_radius
    pts = rng.standard_normal((size, spec.dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * radius * rng.uniform(0.5, 1.0, size=(size, 1))


def planted_bias_instance(
    spec: KernelSpec,
    context_dim: int,
    support_size: int,
    shift_norm: float,
    seed: int,
    context_kind: str = "gaussian",
) -> PlantedInstance:
    """Seeded planted-bias instance with ||s|| = shift_norm exactly.

    The construction guarantees no prediction is ever projected: the
    coefficient vectors are a probability vector minus the shift, so
    ||p(x)|| <= max_j sqrt(K(u_j, u_j)) + shift_norm, which is checked
    against R2 up front.
    """
    if shift_norm < 0:
        raise ValueError("shift_norm must be >= 0")
    rng = np.random.default_rng(seed)
    support = _support_points(spec, support_size, rng)
    spec.check_domain(support)
    weight_matrix = rng.standard_normal((support_size, context_dim))
    weight_offset = rng.standard_normal(support_size) * 0.5

    diag = spec.diag(support)
    reach = math.sqrt(float(np.max(diag))) + shift_norm
    if reach > spec.R2 - 1e-9:
        raise ValueError(
            f"support norms plus shift ({reach}) leave no headroom under R2={spec.R2}"
        )

    if shift_norm == 0:
        shift = np.zeros(support_size)
        actual = 0.0
    else:
        gram = spec.gram(support, support)
        for _ in range(16):
            c = rng.standard_normal(support_size)
            c -= c.mean()  # keep predictor coefficients summing to 1
            raw = math.sqrt(max(float(c @ gram @ c), 0.0))
            if raw > 1e-9:
                shift = c * (shift_norm / raw)
                actual = math.sqrt(max(float(shift @ gram @ shift), 0.0))
                break
        else:
            raise RuntimeError("could not find a non-degenerate shift direction")

    outcomes = PlantedBiasMap(support, weight_matrix, weight_offset, shift)
    predictor = Predictor(spec, LogitMixtureBase(spec, outcomes))
    contexts = ContextSpec(context_kind, context_dim)
    return PlantedInstance(spec, contexts, outcomes, predictor, actual)


# ---------------------------------------------------------------------------
# Binary-action lower-bound worlds


@dataclass(frozen=True, eq=False)
class LowerBoundInstance:
    """Samples from one of the paired worlds over the prediction set
    V = {e_i / 2}: world 1 flips an independent fair noise sign per sample,
    world 2 ties the sign to a hidden per-coordinate pattern sigma.
    """

    d: int
    epsilon: float
    world: int  # 1 | 2
    predictions: np.ndarray  # (n, d), rows in V
    outcomes: np.ndarray  # (n, d)
    sigma: np.ndarray | None = None  # world 2 only; entries +-1/sqrt(d)


def gen_lower_bound(d: int, epsilon: float, n: int, world: int, seed: int) -> LowerBoundInstance:
    """One instance of the indistinguishability pair."""
    if world not in (1, 2):
        raise ValueError("world must be 1 or 2")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, d, size=n)
    P = np.zeros((n, d))
    P[np.arange(n), idx] = 0.5
    if world == 1:
        signs = rng.choice([-1.0, 1.0], size=n)
        sigma = None
    else:
        sigma = rng.choice([-1.0, 1.0], size=d) / math.sqrt(d)
        signs = np.sign(sigma[idx])
    Y = P.copy()
    Y[:, 0] += epsilon * signs
    return LowerBoundInstance(d, epsilon, world, P, Y, sigma)


def collision_reject(predictions: np.ndarray, outcomes: np.ndarray) -> bool:
    """The collision-sign distinguisher: reject (return True) iff some
    repeated prediction value carries discordant noise signs.
    """
    signs = np.sign(outcomes[:, 0] - predictions[:, 0])
    first, group = distinct_rows(predictions)
    return bool(np.any(signs != signs[first][group]))


def direction_grid(d: int, seed: int = 0, size: int = 4096) -> np.ndarray:
    """All 2^d sign vectors (scaled to unit norm) for d <= 12; otherwise a
    seeded sample of `size` random unit directions.
    """
    if d <= 12:
        bits = np.arange(2**d)[:, None] >> np.arange(d)[None, :]
        return ((bits & 1) * 2.0 - 1.0) / math.sqrt(d)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((size, d))
    return R / np.linalg.norm(R, axis=1, keepdims=True)


def decce_linear_binary(
    predictions: np.ndarray, outcomes: np.ndarray, r_grid: np.ndarray
) -> float:
    """Binary-action decision-calibration error over the linear kernel:
    max over directions r of
    ||Ehat[(y - p) 1(<r, p> > 0)]|| + ||Ehat[(y - p) 1(<r, p> <= 0)]||.
    """
    P = np.asarray(predictions, dtype=np.float64)
    Y = np.asarray(outcomes, dtype=np.float64)
    R = np.asarray(r_grid, dtype=np.float64)
    if len(P) == 0:
        raise ValueError("need at least one sample")
    resid = Y - P
    n = len(P)
    pos = (P @ R.T) > 0  # (n, G)
    total = resid.sum(axis=0)
    pos_means = (resid.T @ pos) / n  # (d, G)
    neg_means = (total[:, None] - resid.T @ pos) / n
    vals = np.linalg.norm(pos_means, axis=0) + np.linalg.norm(neg_means, axis=0)
    return float(np.max(vals))
