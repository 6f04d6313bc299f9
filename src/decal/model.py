"""Loss functions, predictors, and the smooth decision rule over kernel spans.

A predictor is a base coefficient map plus an ordered chain of calibration
patches.  Evaluation replays the chain: each patch recomputes the smooth
decision rule of its recorded witness loss against the element built so far,
adds the recorded rows mixed by the rule, and projects back onto the
radius-R2 ball.  All of this happens on coefficient vectors over one shared
anchor list, so a batch of contexts is one pass of matrix algebra.  Replay
tracks each prediction's squared norm through the updates instead of
recomputing it: each plan step caches its rows' products with the Gram
matrix, so no N x N Gram matrix is ever formed, and a patched predictor
extends its parent's plan by one step.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .kernel import (
    KernelSpec, RkhsElement, as_outcomes, check_spec, distinct_rows, gram_apply, norm
)

DEGENERATE_NORM = 1e-12


def as_contexts(X) -> np.ndarray:
    """Coerce a context or batch of contexts into an (m, dx) float array."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"contexts must be at most 2-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Paired contexts and outcomes drawn from one distribution."""

    X: np.ndarray  # (n, dx)
    Y: np.ndarray  # (n, dim)
    batch_id: str = ""

    def __post_init__(self) -> None:
        X = as_contexts(self.X).copy()
        Y = np.asarray(self.Y, dtype=np.float64).copy()
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        if len(X) != len(Y):
            raise ValueError("context and outcome counts differ")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def __len__(self) -> int:
        return len(self.X)


# ---------------------------------------------------------------------------
# Decision rules


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: subtract the max, exponentiate, divide by
    the sum -- scipy.special.softmax's operations, so its bits too."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def smooth_best_response(fvals, beta: float) -> np.ndarray:
    """Quantal response exp(-beta * f_a) / sum_b exp(-beta * f_b).

    Operates on the last axis; beta = 0 gives the uniform distribution.
    Overflow-safe via max subtraction inside the softmax.
    """
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError("beta must be finite and >= 0")
    f = np.asarray(fvals, dtype=np.float64)
    return softmax(-beta * f)


# ---------------------------------------------------------------------------
# Loss functions


@dataclass(frozen=True)
class LossFunction:
    """Per-action RKHS coefficients r(a); the loss value is <r(a), phi(y)>.

    make_loss enforces the norm bound R1 by rescaling any over-bound action
    coefficient down to norm R1 exactly (recorded in `rescaled`); callers
    that scale every action to norm R1 themselves construct it directly.
    """

    loss_id: str
    coefficients: tuple[RkhsElement, ...]
    R1: float
    rescaled: bool = False

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a loss needs at least one action")
        spec = self.coefficients[0].spec
        for el in self.coefficients:
            if el.spec != spec:
                raise ValueError("all action coefficients must share one kernel")
        if not self.R1 > 0:
            raise ValueError("R1 must be positive")

    @property
    def spec(self) -> KernelSpec:
        return self.coefficients[0].spec

    @property
    def n_actions(self) -> int:
        return len(self.coefficients)

    def norms(self) -> np.ndarray:
        return np.array([norm(el) for el in self.coefficients])

    def values(self, Y) -> np.ndarray:
        """Loss matrix ell(a, y_i), shape (n, n_actions).

        On a predictor's anchors these are the loss-estimate columns:
        <r(a), sum_j w_j phi(anchors[j])> = w @ values(anchors)[:, a].
        """
        spec = self.spec
        Ym = as_outcomes(Y, spec.dim)
        return np.column_stack([spec.gram(Ym, el.anchors) @ el.coeffs for el in self.coefficients])


def make_loss(loss_id: str, coefficients, R1: float) -> LossFunction:
    """Build a LossFunction, rescaling actions whose norm exceeds R1."""
    elements = []
    rescaled = False
    for el in coefficients:
        nv = norm(el)
        if nv > R1 * (1.0 + 1e-12):
            el = RkhsElement(el.spec, el.anchors, el.coeffs * (R1 / nv))
            rescaled = True
        elements.append(el)
    return LossFunction(loss_id, tuple(elements), R1, rescaled)


# ---------------------------------------------------------------------------
# Predictor bases

_BASE_REGISTRY: dict[str, type] = {}


def register_base(cls):
    _BASE_REGISTRY[cls.kind] = cls
    return cls


class PredictorBase:
    """Maps contexts to coefficient vectors over a fixed anchor set."""

    kind: ClassVar[str]
    anchors: np.ndarray

    def weights(self, X: np.ndarray) -> np.ndarray:  # (m, n_anchors)
        raise NotImplementedError

    def to_doc(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "PredictorBase":
        raise NotImplementedError


@register_base
@dataclass(frozen=True)
class ConstantBase(PredictorBase):
    """Context-independent element, e.g. the feature mean of a training batch."""

    kind: ClassVar[str] = "constant"
    element: RkhsElement

    @property
    def anchors(self) -> np.ndarray:
        return self.element.anchors

    def weights(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.element.coeffs, (len(X), 1))

    def to_doc(self) -> dict:
        return {"kind": self.kind, "element": element_to_doc(self.element)}

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "ConstantBase":
        return cls(element_from_doc(doc["element"], spec))


@register_base
@dataclass(frozen=True, eq=False)
class SimilarityBase(PredictorBase):
    """Similarity-weighted average of training outcomes.

    Weights are a Gaussian context kernel normalized over the training set,
    so the prediction at x is a convex combination of phi(train outcome).
    """

    kind: ClassVar[str] = "similarity"
    spec: KernelSpec
    anchors: np.ndarray  # training outcomes (N, dim)
    contexts: np.ndarray  # training contexts (N, dx)
    bandwidth: float

    def __post_init__(self) -> None:
        anchors = as_outcomes(self.anchors, self.spec.dim).copy()
        contexts = as_contexts(self.contexts).copy()
        if len(anchors) != len(contexts):
            raise ValueError("anchor and context counts differ")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        self.spec.check_domain(anchors)
        anchors.setflags(write=False)
        contexts.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "contexts", contexts)

    def weights(self, X: np.ndarray) -> np.ndarray:
        d2 = (
            np.einsum("ij,ij->i", X, X)[:, None]
            + np.einsum("ij,ij->i", self.contexts, self.contexts)[None, :]
            - 2.0 * X @ self.contexts.T
        )
        return softmax(-d2 / (2.0 * self.bandwidth**2))

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "anchors": self.anchors.tolist(),
            "contexts": self.contexts.tolist(),
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "SimilarityBase":
        return cls(
            spec,
            np.asarray(doc["anchors"], dtype=np.float64),
            np.asarray(doc["contexts"], dtype=np.float64),
            float(doc["bandwidth"]),
        )


# ---------------------------------------------------------------------------
# Patches


@dataclass(frozen=True, eq=False)
class PatchRecord:
    """One calibration round: the witness decision loss, the rule temperature
    used when the patch was laid down, and the update rows mixed by the rule.

    The update at x is sum_a (mixing @ ruleprob(x))_a * rows[a].  alg1 mixes
    with the identity, and rows[a] has norm eta * R1 (or is zero when the
    audited residual direction was degenerate).  alg2 mixes with
    (Dhat + I)^-1, and rows[a] is the raw per-action residual mean.
    """

    algorithm: str
    witness_lossprime: LossFunction
    beta: float
    batch_id: str = ""
    rows: tuple[RkhsElement, ...] = ()
    mixing: np.ndarray | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        n_act = self.witness_lossprime.n_actions
        if self.algorithm == "alg1":
            if self.eta is None or not self.eta > 0:
                raise ValueError("alg1 patches need eta > 0")
            # the file format stores no alg1 mixing, so any other would be lost
            if self.mixing is not None and not np.array_equal(self.mixing, np.eye(n_act)):
                raise ValueError("alg1 patches mix with the identity")
            mixing = np.eye(n_act)
        elif self.algorithm == "alg2":
            if self.mixing is None:
                raise ValueError("alg2 patches need the mixing matrix")
            mixing = np.asarray(self.mixing, dtype=np.float64).copy()
        else:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if mixing.shape != (n_act, n_act):
            raise ValueError("mixing matrix must be (|A|, |A|)")
        if len(self.rows) != n_act:
            raise ValueError("one row per action required")
        mixing.setflags(write=False)
        object.__setattr__(self, "mixing", mixing)


@dataclass(frozen=True)
class _PlanStep:
    n_before: int
    n_after: int
    beta: float
    V: np.ndarray  # (n_before, |A|) loss-estimate columns of the witness
    M: np.ndarray  # (|A|, |A|) the record's mixing
    R: np.ndarray  # (|A|, n_after) the record's rows over the anchors
    H: np.ndarray  # (n_after, |A|) K(anchors[:n_after], anchors[:n_after]) @ R.T
    S: np.ndarray  # (|A|, |A|) R @ H, the Gram matrix of the rows


class _EvalPlan:
    """Patch chain aligned onto one shared anchor matrix, one patch at a time.

    Every array a plan holds is read-only, so a child plan shares its
    parent's steps and the parent stays valid.
    """

    def __init__(self, predictor: "Predictor") -> None:
        self.spec = predictor.kernel
        anchors = as_outcomes(predictor.base.anchors, self.spec.dim).copy()
        base_gram = self.spec.gram(anchors, anchors)
        anchors.setflags(write=False)
        base_gram.setflags(write=False)
        self.anchors = anchors
        self.n_base = len(anchors)
        self.base_gram = base_gram
        self.steps: list[_PlanStep] = []
        for rec in predictor.patches:
            self._append(rec)

    def extended(self, rec: PatchRecord) -> "_EvalPlan":
        """This plan with one more patch appended; this plan is unchanged."""
        plan = copy.copy(self)
        plan.steps = list(self.steps)
        plan._append(rec)
        return plan

    def _append(self, rec: PatchRecord) -> None:
        """Align one patch: each of its anchors goes to the first bitwise-equal
        row so far, unseen rows are appended in order, base rows stay as given."""
        for other in (rec.witness_lossprime.spec, *(el.spec for el in rec.rows)):
            check_spec(self.spec, other)
        n_before = len(self.anchors)
        Z = np.vstack([self.anchors] + [el.anchors for el in rec.rows])
        first, inverse = distinct_rows(Z)
        seen = first < n_before
        # the position of each distinct row once the unseen ones are appended
        row_at = np.where(seen, first, n_before - np.count_nonzero(seen) + np.arange(len(first)))
        anchors = np.vstack([self.anchors, Z[first[~seen]]])
        n_after = len(anchors)

        R = np.zeros((len(rec.rows), n_after))
        offset = n_before
        for a, el in enumerate(rec.rows):
            cols = row_at[inverse[offset : offset + len(el)]]
            R[a] = np.bincount(cols, weights=el.coeffs, minlength=n_after)
            offset += len(el)
        H = gram_apply(self.spec, anchors, R.T)
        V = rec.witness_lossprime.values(anchors[:n_before])
        step = _PlanStep(n_before, n_after, rec.beta, V, rec.mixing, R, H, R @ H)
        for arr in (anchors, V, R, H, step.S):
            arr.setflags(write=False)
        self.anchors = anchors
        self.steps.append(step)


def _project_rows(W: np.ndarray, n2: np.ndarray, upto: int, R2: float) -> None:
    """Scale the rows of W[:, :upto] whose squared norm n2 exceeds R2**2 back
    onto the ball, in place, and scale their n2 to match."""
    over = n2 > R2 * R2
    if np.any(over):
        s = R2 / np.sqrt(n2[over])
        W[over, :upto] *= s[:, None]
        n2[over] *= s * s


@dataclass(frozen=True)
class Predictor:
    """Base coefficient map plus an ordered calibration patch chain."""

    kernel: KernelSpec
    base: PredictorBase
    patches: tuple[PatchRecord, ...] = ()

    @cached_property
    def _plan(self) -> _EvalPlan:
        return _EvalPlan(self)

    @property
    def anchors(self) -> np.ndarray:
        return self._plan.anchors

    def with_patch(self, record: PatchRecord) -> "Predictor":
        child = Predictor(self.kernel, self.base, self.patches + (record,))
        object.__setattr__(child, "_plan", self._plan.extended(record))
        return child

    def coefficients(self, X) -> np.ndarray:
        """Coefficient matrix of the predictions over self.anchors; (m, N)."""
        return self._replay(X)[0]

    def _replay(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Replay the patch chain on the whole batch at once, projecting onto
        the R2 ball after the base map and after every patch.

        Returns the coefficients W (m, N) and the squared norms n2 (m,) of
        the predictions.  n2 is tracked, not recomputed: with Q the mixed
        rule probabilities of a step, ||w + Q R||^2 = n2 + 2 <w, Q R> +
        ||Q R||^2, and the step's cached H and S supply both inner products.
        """
        plan = self._plan
        Xm = as_contexts(X)
        W = np.zeros((len(Xm), len(plan.anchors)))
        Wb = W[:, : plan.n_base]
        Wb[...] = self.base.weights(Xm)
        n2 = np.einsum("ij,ij->i", Wb @ plan.base_gram, Wb)
        R2 = self.kernel.R2
        _project_rows(W, n2, plan.n_base, R2)
        for st in plan.steps:
            # W[:, n_before:] is still zero, so the products need only the first columns
            sub = W[:, : st.n_before]
            Q = smooth_best_response(sub @ st.V, st.beta) @ st.M
            WH = sub @ st.H[: st.n_before]
            n2 += 2.0 * np.einsum("ij,ij->i", WH, Q) + np.einsum("ij,ij->i", Q @ st.S, Q)
            W[:, : st.n_after] += Q @ st.R
            _project_rows(W, n2, st.n_after, R2)
        return W, n2


def loss_estimates(p: Predictor, X, loss: LossFunction) -> np.ndarray:
    """Estimated losses f(x_i, a) = <r(a), p(x_i)>; shape (m, |A|)."""
    check_spec(p.kernel, loss.spec)
    return p.coefficients(X) @ loss.values(p.anchors)


@dataclass(frozen=True, eq=False)
class EvaluatedBatch:
    """A batch pushed through a predictor once; reused by audit and patching."""

    kernel: KernelSpec
    X: np.ndarray
    Y: np.ndarray
    anchors: np.ndarray
    W: np.ndarray
    pnorm2: np.ndarray  # (n,) squared norms of the predictions, tracked by replay
    batch_id: str = ""

    def __len__(self) -> int:
        return len(self.X)

    @cached_property
    def distinct_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, inverse): the bitwise-distinct rows of [Y; anchors] in
        order of first appearance, and the index of each row's point.
        Computed once per batch and shared by every audit scan on it."""
        rows = np.vstack([self.Y, self.anchors])
        first, inverse = distinct_rows(rows)
        points = rows[first]
        points.setflags(write=False)
        inverse.setflags(write=False)
        return points, inverse


def evaluate_batch(p: Predictor, batch: SampleBatch) -> EvaluatedBatch:
    W, pnorm2 = p._replay(batch.X)
    return EvaluatedBatch(p.kernel, batch.X, batch.Y, p.anchors, W, pnorm2, batch.batch_id)


# ---------------------------------------------------------------------------
# Serialization: structured JSON documents with exact float round-trip.


def kernel_to_doc(spec: KernelSpec) -> dict:
    return {"kind": spec.kind, "dim": spec.dim, "R2": spec.R2}


def kernel_from_doc(doc: dict) -> KernelSpec:
    return KernelSpec(doc["kind"], int(doc["dim"]), float(doc["R2"]))


def element_to_doc(el: RkhsElement) -> dict:
    return {"anchors": el.anchors.tolist(), "coeffs": el.coeffs.tolist()}


def element_from_doc(doc: dict, spec: KernelSpec) -> RkhsElement:
    anchors = np.asarray(doc["anchors"], dtype=np.float64).reshape(-1, spec.dim)
    return RkhsElement(spec, anchors, np.asarray(doc["coeffs"], dtype=np.float64))


def loss_to_doc(loss: LossFunction) -> dict:
    return {
        "loss_id": loss.loss_id,
        "R1": loss.R1,
        "rescaled": loss.rescaled,
        "coefficients": [element_to_doc(el) for el in loss.coefficients],
    }


def loss_from_doc(doc: dict, spec: KernelSpec) -> LossFunction:
    elements = tuple(element_from_doc(d, spec) for d in doc["coefficients"])
    return LossFunction(doc["loss_id"], elements, float(doc["R1"]), bool(doc["rescaled"]))


def base_from_doc(doc: dict, spec: KernelSpec) -> PredictorBase:
    cls = _BASE_REGISTRY.get(doc["kind"])
    if cls is None:
        raise ValueError(f"unknown predictor base kind {doc['kind']!r}")
    return cls.from_doc(doc, spec)


def patch_to_doc(rec: PatchRecord) -> dict:
    rows = [element_to_doc(el) for el in rec.rows]
    doc = {
        "algorithm": rec.algorithm,
        "witness_lossprime": loss_to_doc(rec.witness_lossprime),
        "beta": rec.beta,
        "batch_id": rec.batch_id,
    }
    if rec.algorithm == "alg1":
        doc["eta"] = rec.eta
        doc["adjustments"] = rows
    else:
        doc["mixing"] = rec.mixing.tolist()
        doc["residual_rows"] = rows
    return doc


def patch_from_doc(doc: dict, spec: KernelSpec) -> PatchRecord:
    alg1 = doc["algorithm"] == "alg1"
    rows = doc["adjustments"] if alg1 else doc["residual_rows"]
    return PatchRecord(
        doc["algorithm"],
        loss_from_doc(doc["witness_lossprime"], spec),
        float(doc["beta"]),
        doc["batch_id"],
        rows=tuple(element_from_doc(d, spec) for d in rows),
        mixing=None if alg1 else np.asarray(doc["mixing"], dtype=np.float64),
        eta=float(doc["eta"]) if alg1 else None,
    )


def predictor_to_doc(p: Predictor) -> dict:
    return {
        "kernel": kernel_to_doc(p.kernel),
        "base": p.base.to_doc(),
        "patches": [patch_to_doc(rec) for rec in p.patches],
    }


def predictor_from_doc(doc: dict) -> Predictor:
    spec = kernel_from_doc(doc["kernel"])
    base = base_from_doc(doc["base"], spec)
    patches = tuple(patch_from_doc(d, spec) for d in doc["patches"])
    return Predictor(spec, base, patches)


def save_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_predictor(path, p: Predictor) -> None:
    save_json(path, predictor_to_doc(p))


def load_predictor(path) -> Predictor:
    return predictor_from_doc(load_json(path))


def loss_file_doc(loss: LossFunction) -> dict:
    """The loss file document: the loss together with its kernel."""
    return {"kernel": kernel_to_doc(loss.spec), "loss": loss_to_doc(loss)}


def load_loss(path) -> LossFunction:
    doc = load_json(path)
    return loss_from_doc(doc["loss"], kernel_from_doc(doc["kernel"]))
