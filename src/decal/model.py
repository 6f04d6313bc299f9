"""Loss functions, predictors, and the smooth decision rule over kernel spans.

Every span is one `kernel.RkhsElement` anchor table: a loss's action columns,
a patch's update rows, a constant base's single column.

A predictor is a base coefficient map plus an ordered chain of calibration
patches.  Evaluation replays the chain: each patch recomputes the smooth
decision rule of its recorded witness loss against the element built so far,
adds the recorded rows mixed by the rule, and projects back onto the
radius-R2 ball.  Every prediction is a_0 * W_0(x) + sum_t a_t * Q_t(x) R_t,
with W_0 the base coefficients, Q_t the mixed rule probabilities of patch t,
R_t its |A| rows, and a_t the product of the projection scalings applied to
the row from patch t on.  Replay therefore carries coordinates over the
patch-row basis F = [I; R_1; ...; R_T] (k = n_base + sum_t |A_t| numbers)
and tracks their squared norms.  Each plan step caches the basis applied to
its witness columns and its rows' Gram products, and the plan keeps F G F^T,
so no N x N Gram matrix is formed, decisions and the audit read through the
basis, and a patched predictor extends its parent's plan by one step.
Replay runs in blocks of REPLAY_BLOCK contexts, so `loss_estimates` holds
block x k coordinates and `evaluate_batch`, the one way to push a batch
through a predictor, fills its coordinates block by block.  A batch keeps
its latest evaluation, which `evaluate_batch` returns on the same plan and
carries through the new steps of a plan extending it, the same blocks bit
for bit a full replay.  A decision
certifies the R2 projection with a norm bound, not the base's Gram product,
with the exact replay's bits (`Predictor._replay_rows`); only
`evaluate_batch` tracks exact squared norms.  An evaluated batch checks its
distinct outcomes against the kernel's domain once, as it merges them, so no
kernel block is built on an outcome outside it.

A step keeps its rows as their scaled form R_t = BU_t^T phi(U_t) - ZB_t^T
F_{<t}, over its distinct points U_t and the k_t basis rows before it, or,
when the N_t anchors so far are fewer than |U_t| + k_t, over every anchor
(ZB empty).  F X is the recursion F_t X = BU_t^T X[at_t] - ZB_t^T F_{<t} X,
at |A| min(|U_t| + k_t, N_t) per column and step, reading X's rows at_t a
step at a time, so F K(anchors, U) holds the (k, |U|) result and no kernel
block wider than the base's or one step's rows.  A step appends only its
points not yet anchors (found by `distinct_rows`): on a finite outcome
support N stays within the base's anchors and the support; on continuous
outcomes every step adds its points.

A witness or patch the audit cuts is its cut form: the batch's distinct
outcomes U and the parts BU (|U|, |A|) and ZB (k, |A|) of its columns
sum_u BU[u, a] phi(u) - sum_{i<k} ZB[i, a] f_i over the first k basis rows
f_i of the plan it was cut on, each column's unit scale and the step that
scales them all (an alg1 patch scales the witness's step, an alg2 patch has
unit 1: its raw residual means).  The plan it was cut on reads the span
through the form, and so does a longer plan descending from it (its base
and a prefix of its records, by identity): as the column block of F G F^T
of the patch the witness became, rescaled, with no kernel entry, or, for a
witness that became no patch of it, as F K(anchors, U) BU - (F G F^T)[:,
:k] ZB.  Any other loss (user losses, a random loss read on another batch,
a loaded `witness_loss.json`, a witness cut on another lineage) is read
densely, F @ values(anchors), but `EvaluatedBatch.lifted` reads a random
pool loss on its own batch off K_FU (`LossFunction.anchor_rows`), and
`EvaluatedBatch.values` a cut loss off the batch's own blocks.  A patch
not cut on the plan it extends is appended as the form over its own M
anchors, ZB zero, at N x M + M x M entries.  W = Z F is built only by
`coefficients` and, for a dense reader of a cut span's table, `cut_span`.

`predictor.json` (layout `cut-2`) stores each span whose form descends from
the predictor's own chain as that form and the number of records it was cut
on, and every float array as the base64 text of its C-order little-endian
float64 bytes (`_array_doc`), so no number goes through decimal text.  The
loader reads that text or, as layout `cut-1` wrote every array, nested
lists; it reads each cut back as a form on its records and folds the patches
in order, and a loaded lossprime that was an earlier patch's witness shares
that patch's arrays, matched once as the file loads, so the loaded
predictor, plan included, is the saved one bit for bit.
"""

from __future__ import annotations

import binascii
import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .kernel import (
    KERNEL_KINDS, KernelSpec, RkhsElement, as_outcomes, check_spec, distinct_rows, merge_terms,
    sum_rows,
)

DEGENERATE_NORM = 1e-12
# Contexts replayed at once: a block's (REPLAY_BLOCK, k) coordinates and its
# base-map temporaries stay small enough to be reused rather than mapped anew.
REPLAY_BLOCK = 512


def as_contexts(X) -> np.ndarray:
    """Coerce a context or batch of contexts into an (m, dx) array of finite floats."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"contexts must be at most 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("contexts must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Paired contexts and outcomes drawn from one distribution.  The batch
    keeps its latest evaluation (`evaluate_batch`) and the kernel blocks that
    evaluation built; dropping the batch frees them."""

    X: np.ndarray  # (n, dx)
    Y: np.ndarray  # (n, dim)
    batch_id: str = ""
    _evaluated: EvaluatedBatch | None = field(default=None, init=False, repr=False)

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


def _row_sum(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1), bit for bit: below 8 terms numpy adds them in order
    onto +0.0, as this fold of the columns does, without numpy's slow
    short-axis reduction."""
    if not 1 < x.shape[-1] < 8:
        return np.sum(x, axis=-1)
    total = x[..., 0] + 0.0
    for a in range(1, x.shape[-1]):
        total += x[..., a]
    return total


def softmax(z) -> np.ndarray:
    """Softmax over the last axis: subtract the max, exponentiate, divide by
    the sum -- scipy.special.softmax's operations, so its bits too; z is left
    as it was, and a 0-d z, with no action axis, is refused.  Below 8 actions
    each step runs one action column at a time (the sum is `_row_sum`), as
    numpy broadcasts and reduces over a short last axis slowly; from 8 terms
    on numpy's pairwise sum adds in another order, so its reductions stay."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0:
        raise ValueError("the smooth rule needs an action axis")
    A = z.shape[-1]
    if not 1 < A < 8:
        e = z - np.max(z, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.sum(e, axis=-1, keepdims=True)
        return e
    top = np.maximum(z[..., 0], z[..., 1], out=np.empty(z.shape[:-1]))
    for a in range(2, A):
        np.maximum(top, z[..., a], out=top)
    e = np.empty(z.shape)
    for a in range(A):
        np.subtract(z[..., a], top, out=e[..., a])
    np.exp(e, out=e)
    total = _row_sum(e)
    for a in range(A):
        e[..., a] /= total
    return e


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


@dataclass(frozen=True, eq=False)
class CutForm:
    """The audit's own form of |A| spans cut from one evaluated batch: column a
    is unit[a] * step * (sum_u BU[u, a] phi(U[u]) - sum_{i<k} ZB[i, a] f_i),
    with f_i row i of the patch-row basis of the plan whose lineage (base,
    patch records) it was cut on.  `predictor.json` stores the form in place
    of the anchor table that `table` builds from it."""

    lineage: tuple  # (PredictorBase, tuple[PatchRecord, ...])
    k: int
    U: np.ndarray  # (|U|, dim)
    BU: np.ndarray  # (|U|, |A|)
    ZB: np.ndarray  # (k, |A|)
    # R1 / the column's norm, or 0 where it is degenerate; ones for alg2 rows
    unit: np.ndarray  # (|A|,)
    step: float = 1.0  # alg1's eta R1 / witness R1; kept apart from unit for its bits

    def table(self, spec: KernelSpec) -> RkhsElement:
        """The form's table, `cut_span` on its lineage's plan rebuilt, which
        a cut span builds on the first read of its anchors or coeffs: one
        rebuild, T appends for a form cut after T patches, paid only by
        dense readers (`witness_loss.json`, a sibling plan's append,
        `lifted_values` or `empirical_gap` on a plan of another lineage),
        not by a round, a load, or a read on a plan descending from the
        lineage."""
        return cut_span(Predictor(spec, *self.lineage)._plan, self)

    def scaled(self, raw: np.ndarray) -> np.ndarray:
        """Raw columns times their unit scale (zero where that is zero) times the step."""
        # where, not the zero scale alone: a negative value times 0.0 is -0.0
        return np.where(self.unit > 0, raw * self.unit, 0.0) * self.step


def _width(span: RkhsElement) -> int:
    """A span's column count, read off its form if it has one (building no table)."""
    return span.coeffs.shape[1] if span.form is None else len(span.form.unit)


@dataclass(frozen=True, eq=False)
class LossFunction:
    """Per-action RKHS coefficients r(a), column a of one anchor table `span`;
    the loss value is <r(a), phi(y)>.

    make_loss enforces the norm bound R1 by rescaling any over-bound action
    column down to norm R1 exactly (recorded in `rescaled`); callers that
    scale every action to norm R1 themselves construct it directly.
    """

    loss_id: str
    span: RkhsElement  # (M, |A|), column a for action a
    R1: float
    rescaled: bool = False
    # (Y, rows) when span.anchors are the rows Y[rows] of the outcome array Y, as a
    # random pool loss's are; `EvaluatedBatch.lifted` reads it off K_FU of a batch of Y
    anchor_rows: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_actions == 0:
            raise ValueError("a loss needs at least one action")
        if not self.R1 > 0:
            raise ValueError("R1 must be positive")

    @property
    def n_actions(self) -> int:
        return _width(self.span)

    def values(self, Y) -> np.ndarray:
        """Loss matrix ell(a, y_i), shape (n, n_actions), from one Gram block.

        On a predictor's anchors these are the loss-estimate columns:
        <r(a), sum_j w_j phi(anchors[j])> = w @ values(anchors)[:, a].
        """
        return self.span.values(Y)


def make_loss(loss_id: str, span: RkhsElement, R1: float) -> LossFunction:
    """A LossFunction with one action per column of `span`: the table with
    repeated anchors merged, then the actions whose norm exceeds R1 rescaled
    down to it."""
    span = span.merged()
    nv = span.norms()
    over = nv > R1 * (1.0 + 1e-12)
    coeffs = span.coeffs * np.where(over, R1 / np.where(over, nv, 1.0), 1.0)
    return LossFunction(loss_id, RkhsElement(span.spec, span.anchors, coeffs), R1,
                        bool(np.any(over)))


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
    """Context-independent element, e.g. the feature mean of a training batch:
    a one-column span, written as one flat coefficient list."""

    kind: ClassVar[str] = "constant"
    element: RkhsElement

    def __post_init__(self) -> None:
        if self.element.coeffs.shape[1] != 1:
            raise ValueError("a constant base is one element: one coefficient column")
        if not np.isfinite(self.element.norms()[0]):  # replay squares it
            raise ValueError("constant base 'element' has 'coeffs' whose norm is not finite")

    @property
    def anchors(self) -> np.ndarray:
        return self.element.anchors

    def weights(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.element.coeffs[:, 0], (len(X), 1))

    def to_doc(self) -> dict:
        return {"kind": self.kind, "element": {"anchors": _array_doc(self.anchors),
                                               "coeffs": _array_doc(self.element.coeffs[:, 0])}}

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "ConstantBase":
        el = read_field(doc, "element", OBJECT, "base ")
        anchors = read_field(el, "anchors", Field("array", domain=spec), "element ")
        coeffs = read_field(el, "coeffs", Field("array", shape=(len(anchors),)), "element ")
        return cls(RkhsElement(spec, anchors, coeffs[:, None]))


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
        with np.errstate(over="ignore", invalid="ignore"):  # weights square the contexts
            norms2 = np.einsum("ij,ij->i", contexts, contexts)
        if not 0 < len(anchors) == len(contexts) or not np.all(np.isfinite(norms2)):
            raise ValueError("similarity base 'anchors' must be nonempty, and 'contexts' have"
                             " finite squares, one per anchor")
        if not (bw := self.bandwidth) > 0 or not 0 < bw * bw < math.inf:  # and the bandwidth
            raise ValueError(f"similarity base 'bandwidth' must be > 0, finite squared, got {bw!r}")
        self.spec.check_domain(anchors)
        anchors.setflags(write=False)
        contexts.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "contexts", contexts)

    def weights(self, X: np.ndarray) -> np.ndarray:
        C = self.contexts
        d2 = np.add.outer(np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", C, C))
        d2 -= 2.0 * X @ C.T
        d2 /= -(2.0 * self.bandwidth**2)
        return softmax(d2)

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "anchors": _array_doc(self.anchors),
            "contexts": _array_doc(self.contexts),
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "SimilarityBase":
        anchors = read_field(doc, "anchors", Field("array", domain=spec), "base ")
        contexts = read_field(doc, "contexts", Field("array", shape=(len(anchors), None)), "base ")
        return cls(spec, anchors, contexts, read_field(doc, "bandwidth", Field("float"), "base "))


# ---------------------------------------------------------------------------
# Patches


@dataclass(frozen=True, eq=False)
class PatchRecord:
    """One calibration round: the witness decision loss, the rule temperature
    used when the patch was laid down, and the update rows mixed by the rule:
    row a is column a of the table `rows`, over the witness's kernel.

    The update at x is sum_a (mixing @ ruleprob(x))_a * row a.  alg1 mixes with
    the identity, and row a has norm eta * R1 (or is zero when the audited
    residual direction was degenerate).  alg2 mixes with (Dhat + I)^-1, and
    row a is the raw per-action residual mean.
    """

    algorithm: str
    witness_lossprime: LossFunction
    beta: float
    rows: RkhsElement  # (M, |A|), column a for action a
    batch_id: str = ""
    mixing: np.ndarray | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        n_act = self.witness_lossprime.n_actions
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"a patch's beta must be finite and >= 0, got {self.beta!r}")
        if self.algorithm == "alg1":
            if self.eta is None or not (math.isfinite(self.eta) and self.eta > 0):
                raise ValueError(f"alg1 patches need a finite eta > 0, got {self.eta!r}")
            # the file format stores no alg1 mixing, so any other would be lost
            if self.mixing is not None and not np.array_equal(self.mixing, np.eye(n_act)):
                raise ValueError("alg1 patches mix with the identity")
            mixing = np.eye(n_act)
        elif self.algorithm == "alg2":
            if self.mixing is None:
                raise ValueError("alg2 patches need the mixing matrix")
            mixing = np.asarray(self.mixing, dtype=np.float64).copy()
            if not np.all(np.isfinite(mixing)):
                raise ValueError("alg2 patch 'mixing' must be finite")
        else:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if mixing.shape != (n_act, n_act):
            raise ValueError("mixing matrix must be (|A|, |A|)")
        check_spec(self.witness_lossprime.span.spec, self.rows.spec)
        if _width(self.rows) != n_act:
            raise ValueError("one coefficient column per action required")
        mixing.setflags(write=False)
        object.__setattr__(self, "mixing", mixing)


@dataclass(frozen=True)
class _PlanStep:
    n_before: int
    n_after: int  # the anchors before and after the step placed its points
    k: int  # basis rows before this step; its own coordinates are Z[:, k : k + |A|]
    beta: float
    M: np.ndarray  # (|A|, |A|) the record's mixing
    # the anchor rows of the step's points U: a slice when they are anchors
    # [i, j) in order, else an index array
    at: slice | np.ndarray
    # row a of the rows is sum_u BU[u, a] phi(U[u]) - sum_{i<j} ZB[i, a] f_i,
    # over the step's distinct points and the first j = k basis rows, or over
    # every anchor and j = 0 basis rows, whichever holds fewer numbers
    BU: np.ndarray  # (|U|, |A|)
    ZB: np.ndarray  # (j, |A|)
    S: np.ndarray  # (|A|, |A|) the Gram matrix of the rows
    # (k, 2 |A|) the basis so far applied to [V | G R^T], where V holds the
    # witness's loss-estimate columns on the anchors and G R^T the rows'
    # inner products with the anchors; F_{<t} G R^T is its right half
    table: np.ndarray

    def lift(self, X_own: np.ndarray, below: np.ndarray) -> np.ndarray:
        """F_t X = BU^T X_own - ZB^T below[:j], from X at the step's points and F_{<t} X."""
        out = self.BU.T @ X_own
        if len(self.ZB):
            out -= self.ZB.T @ below[: len(self.ZB)]
        return out

    def advance(self, Z: np.ndarray) -> np.ndarray:
        """Write this patch's mixed rule probabilities Q into the own |A|
        columns of coordinates Z (m, >= k + |A|), in place, and return what
        the patch adds to each squared norm: ||w + Q R||^2 - ||w||^2 =
        2 <w, Q R> + ||Q R||^2, whose inner products the table and S supply.
        They stay `einsum`s: a fold of the action columns adds in einsum's
        order only up to 2 actions, and from 3 on it moves the last bits."""
        a = len(self.M)
        ZT = Z[:, : self.k] @ self.table
        Q = smooth_best_response(ZT[:, :a], self.beta) @ self.M
        Z[:, self.k : self.k + a] = Q
        return 2.0 * np.einsum("ij,ij->i", ZT[:, a:], Q) + np.einsum("ij,ij->i", Q @ self.S, Q)


class _EvalPlan:
    """A patch chain as its steps' forms over one anchor list (the base's,
    then each step's points not seen before), with the patch-row basis F =
    [I_{n_base}; R_1; ...; R_T] that replay carries its coordinates over (k
    rows).

    Every array a plan holds is read-only, so a child plan shares its
    parent's steps and the parent stays valid.  The lineage (base, records)
    names the plan by the objects it was built from.
    """

    def __init__(self, predictor: "Predictor") -> None:
        self.spec = predictor.kernel
        self.lineage = (predictor.base, ())
        anchors = as_outcomes(predictor.base.anchors, self.spec.dim).copy()
        base_gram = self.spec.gram(anchors, anchors)
        anchors.setflags(write=False)
        base_gram.setflags(write=False)
        self.anchors = anchors
        self.n_base = len(anchors)
        self.k = self.widest = self.n_base  # widest: the most anchors one lift block reads
        self.base_gram = base_gram
        self.gram_F = base_gram  # F G F^T (k, k), G the Gram matrix of the anchors
        # the decide's norm bound (`Predictor._replay_rows`): the root of the
        # largest |entry| of each row and column of G, and its rounding slack
        big = np.abs(base_gram)
        root = np.sqrt(np.maximum(big.max(axis=0, initial=0.0), big.max(axis=1, initial=0.0)))
        root.setflags(write=False)
        self.base_root, self.slack = root, 1.0 + 8 * (self.n_base + 2) * np.finfo(np.float64).eps
        self.steps: list[_PlanStep] = []
        self._lifted = None  # the last (U, gram_lift(U)), see gram_lift
        for rec in predictor.patches:
            self._append(rec)

    def extended(self, rec: PatchRecord) -> "_EvalPlan":
        """This plan with one more patch appended; this plan is unchanged."""
        plan = copy.copy(self)
        plan.steps = list(self.steps)
        plan._append(rec)
        return plan

    def lift(self, X, steps: list | None = None, head: np.ndarray | None = None) -> np.ndarray:
        """F @ X, (k, cols), by the recursion F_t X = BU_t^T X[at_t] - ZB_t^T
        (F_{<t} X) over a prefix `steps` of the plan's steps, or those after
        `head`, F X over the steps before them.  X has a row per anchor, or is
        a function giving X[at], read block by block."""
        steps = self.steps if steps is None else steps
        rows = X.__getitem__ if isinstance(X, np.ndarray) else X
        head = rows(slice(0, self.n_base)) if head is None else head
        out = np.empty((steps[-1].k + len(steps[-1].M) if steps else len(head), head.shape[1]))
        out[: len(head)] = head
        for st in steps:
            out[st.k : st.k + len(st.M)] = st.lift(rows(st.at), out[: st.k])
        return out

    def gram_lift(self, U: np.ndarray, steps: list | None = None, head=None) -> np.ndarray:
        """F K(anchors, U), (k, |U|), by `lift` over `steps` from `head`,
        reading K(anchors, U) whole if no wider than the widest step block (on
        a finite support), else block by block, at (n_base + sum_t |at_t|) x
        |U| kernel entries.  A one-row block is read as two equal rows: numpy
        multiplies one row by gemv, which rounds unlike gemm.  The plan keeps
        the last U's full lift, which a patch cut on that batch reuses."""
        if steps is None:
            if self._lifted is None or self._lifted[0] is not U:
                self._lifted = (U, self.gram_lift(U, self.steps))
            return self._lifted[1]
        n = steps[-1].n_after if steps else self.n_base
        if head is None and n <= self.widest:
            return self.lift(self.spec.gram(self.anchors[:n], U), steps)

        def block(at):
            pts = self.anchors[at]
            return self.spec.gram(pts if len(pts) > 1 else np.vstack([pts, pts]), U)[: len(pts)]
        return self.lift(block, steps, head)

    def expand(self, Z: np.ndarray) -> np.ndarray:
        """The coefficients over the anchors, W = Z @ F, (m, N), by lift's
        recursion run backward over the plan's steps (N the anchors after
        them): step t adds Z_t BU_t^T at its points and takes Z_t ZB_t^T off
        the coordinates before it."""
        Z = Z.copy()
        W = np.zeros((len(Z), self.steps[-1].n_after if self.steps else self.n_base))
        for st in reversed(self.steps):
            Zt = Z[:, st.k : st.k + len(st.M)]
            W[:, st.at] += Zt @ st.BU.T
            if len(st.ZB):
                Z[:, : len(st.ZB)] -= Zt @ st.ZB.T
        W[:, : self.n_base] += Z[:, : self.n_base]
        return W

    def descends(self, form: CutForm | None) -> bool:
        """Whether this plan extends the plan `form` was cut on."""
        return _chain_prefix(form, *self.lineage) is not None

    def _fold(self, form: CutForm, KF: np.ndarray | None = None) -> np.ndarray:
        """F G times the unscaled spans of a form cut on this plan or a
        prefix of it, (k, |A|): KF BU - gram_F[:, :form.k] ZB, with KF = F
        K(anchors, U) (the caller's, when it has it)."""
        KF = self.gram_lift(form.U, self.steps) if KF is None else KF
        return KF @ form.BU - self.gram_F[:, : form.k] @ form.ZB

    def lifted_values(self, loss: LossFunction) -> np.ndarray:
        """F @ loss.values(anchors), (k, |A|).  A loss cut on this plan or a
        prefix of it is read by `_fold`, but one cut on an earlier prefix of
        j records, with the very parts (U, BU, ZB) of the rows step j was
        appended from (the loader shares them too), is gram_F[:, k_j : k_j +
        |A|] times the ratio of its column scales to the rows' (zero where
        its own is zero) unless a zero row scale is under a nonzero one; any
        other loss densely."""
        check_spec(self.spec, loss.span.spec)
        form = loss.span.form
        if not self.descends(form):
            return self.lift(loss.values(self.anchors))
        scale, j = form.unit * form.step, len(form.lineage[1])
        if j < len(self.steps):
            st, own = self.steps[j], self.lineage[1][j].rows.form
            if (_chain_prefix(own, *form.lineage) == j
                    and own.U is form.U and own.BU is form.BU and own.ZB is form.ZB):
                rows = own.unit * own.step
                if not np.any((rows == 0) & (scale != 0)):
                    ratio = np.where(scale != 0, scale / np.where(rows != 0, rows, 1.0), 0.0)
                    return self.gram_F[:, st.k : st.k + len(ratio)] * ratio
        return self._fold(form) * scale

    def _place(self, U: np.ndarray, BU: np.ndarray) -> tuple[slice | np.ndarray, np.ndarray]:
        """The anchor rows `at` of U's distinct rows in order of first
        appearance, and BU's rows summed over each of them in input order; a
        row that is no anchor yet goes onto the anchors, in that order.  Rows
        compare by their bytes: `distinct_rows` groups [anchors; U], then
        orders U's groups by their first appearance in U."""
        n = len(self.anchors)
        first, group = distinct_rows(np.vstack([self.anchors, U]))
        old = np.searchsorted(first, n)  # the groups the anchors hold come first
        own, inverse = distinct_rows(group[n:, None])
        g = group[n:][own]
        if old < len(first):
            self.anchors = np.vstack([self.anchors, U[first[old:] - n]])
        if np.all(g >= old):
            at = slice(n, n + len(g))
        else:
            at = np.where(g < old, first[g], n + g - old)
            at.setflags(write=False)
        return at, sum_rows(inverse, len(g), BU)

    def _append(self, rec: PatchRecord) -> None:
        """Append one patch as its rows' scaled form (U, BU, ZB): their cut
        form when they were cut on this very plan, else the form over their
        own anchors (U the anchors, BU the coefficients, ZB zero).  U's rows
        are placed among the anchors by `_place`, and BU's rows summed over
        each distinct point; when the anchors are then fewer than those
        points and ZB's rows, the step keeps the rows over every anchor.

        Then with KF = F K(anchors, U) (`gram_lift`, built beside its largest
        step block only, or the batch's K_FU when the rows were cut on it),
        F G R^T = KF BU - gram_F ZB and R G R^T = BU^T g - ZB^T F G R^T, with
        g = K(U, U) BU - KF^T ZB the rows' inner products with phi(U), not
        four quadratic terms that cancel when the rows are short against
        their parts.  A step whose scaled parts, S or table square past the
        float range (a loaded unit of 1e308, say) is refused."""
        check_spec(self.spec, rec.rows.spec)
        form = rec.rows.form
        if not (self.descends(form) and form.k == self.k):
            a = rec.rows.coeffs.shape[1]
            form = CutForm(self.lineage, self.k, rec.rows.anchors, rec.rows.coeffs,
                           np.zeros((self.k, a)), np.ones(a))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = form.unit * form.step
            BU, ZB = form.BU * scale, form.ZB * scale
            KF = self.gram_lift(form.U)
            cross = self._fold(form, KF) * scale
            table = np.hstack([self.lifted_values(rec.witness_lossprime), cross])
            g = self.spec.gram(form.U, form.U) @ BU - KF.T @ ZB
            S = BU.T @ g - ZB.T @ cross
            for key, arr in (("S", S), ("table", table), ("BU", BU), ("ZB", ZB)):
                if not np.isfinite(arr * arr).all():  # replay multiplies these
                    raise ValueError(f"patch {key!r} squares past the float range: a 'BU', 'ZB', "
                                     "'unit', 'step' or 'coeffs' of its rows or lossprime is huge")
            # replay moves a prediction within R2 by at most sqrt(max |M S M^T|)
            reach = self.spec.R2 + np.sqrt(np.max(np.abs(rec.mixing @ S @ rec.mixing.T)))
        if not reach < np.sqrt(np.finfo(np.float64).max):
            raise ValueError("patch 'mixing' moves a prediction past the float range")
        n = len(self.anchors)
        at, BU = self._place(form.U, BU)
        N = len(self.anchors)
        if N < len(BU) + len(ZB):  # the rows over every anchor hold fewer numbers
            RT = np.zeros((N, len(rec.mixing)))
            RT[at] = BU
            RT[:n] -= self.expand(ZB.T).T  # F's rows so far reach the n anchors before U
            at, BU, ZB = slice(0, N), RT, ZB[:0]
        step = _PlanStep(n, N, self.k, rec.beta, rec.mixing, at, BU, ZB, S, table)
        # the new rows' border of F G F^T is F_{<t} G R^T
        gram_F = np.block([[self.gram_F, cross], [cross.T, S]])
        for arr in (self.anchors, BU, ZB, S, table, gram_F):
            arr.setflags(write=False)
        self.gram_F = gram_F
        self._lifted, self.widest = None, max(self.widest, len(BU))
        self.lineage = (self.lineage[0], self.lineage[1] + (rec,))
        self.steps.append(step)
        self.k += len(step.M)


def cut_span(plan: _EvalPlan, form: CutForm) -> RkhsElement:
    """The anchor table of a form's columns, carrying the form, on the plan
    it was cut on (or one rebuilt from its lineage, `CutForm.table`): over
    the anchors [U; plan.anchors] with repeats merged, each raw column BU -
    F^T ZB times its unit scale (zero where that is zero) times the step.
    The table is taken as checked: plan.anchors are, and form.U lies in the
    kernel's domain (an evaluated batch checks its outcomes as it merges
    them, the loader a file's U)."""
    with np.errstate(over="ignore", invalid="ignore"):
        anchors, means = merge_terms(plan.spec, np.vstack([form.U, plan.anchors]),
                                     np.vstack([form.BU, -plan.expand(form.ZB.T).T]))
        coeffs = form.scaled(means)
    if not np.isfinite(coeffs).all():
        raise ValueError("a cut table is not finite: its 'BU', 'ZB', 'unit' or 'step' is too large")
    return RkhsElement._of_checked(plan.spec, anchors, coeffs, form)


def _project_rows(W: np.ndarray, n2: np.ndarray, upto: int, R2: float) -> None:
    """Scale the rows of W[:, :upto] whose squared norm n2 exceeds R2**2 back
    onto the ball, in place, and scale their n2 to match.  Every row is
    multiplied, by 1.0 off the ball, which keeps its bits, so no projected
    row is copied out."""
    over = n2 > R2 * R2
    if np.any(over):
        s = np.where(over, R2 / np.sqrt(np.where(over, n2, 1.0)), 1.0)
        W[:, :upto] *= s[:, None]
        n2 *= s * s


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
        """Coefficient matrix of the predictions over self.anchors; (m, N),
        expanded one replay block at a time."""
        Xm = as_contexts(X)
        plan = self._plan
        W = np.empty((len(Xm), len(plan.anchors)))
        for rows, Z in self._replay_blocks(Xm):
            W[rows] = plan.expand(Z)
        return W

    def _replay_blocks(self, Xm: np.ndarray):
        """Yield (rows, Z) for each block of REPLAY_BLOCK contexts, the
        block's coordinates replayed into one buffer that every block reuses,
        so no (m, k) matrix is held; blocks certify the projection
        (`_replay_rows`) until one's base bound fails, the rest replay exactly."""
        size = min(len(Xm), REPLAY_BLOCK)
        Zbuf, n2buf = np.empty((size, self._plan.k)), np.empty(size)
        certify = True
        for rows in _row_blocks(len(Xm)):
            b = rows.stop - rows.start
            certify = self._replay_rows(Xm[rows], Zbuf[:b], n2buf[:b], certify)
            yield rows, Zbuf[:b]

    def _replay_rows(self, X: np.ndarray, Z: np.ndarray, n2: np.ndarray,
                     certify: bool = False) -> bool:
        """Replay one block of contexts X into Z (b, k) and n2 (b,), in place.

        Z[:, :n_base] is the projected base map; each step reads the
        coordinates so far through its table, writes its mixed rule
        probabilities into its own |A| columns, and scales the rows it
        projects, all without forming W.  Every column of Z is written.

        With `certify`, Z is the exact replay's, bit for bit, without the
        base norms Zb G Zb^T.  With c_i^2 the largest |entry| of row and column
        i of the computed G, |G_ij| <= c_i c_j, so the exact fl((Zb G) . Zb)
        is at most (1 + gamma_{2n}) (|Zb| c)^2 for any kernel and any rounding
        of G, and the bound fl(fl(|Zb| @ fl(c))^2 * slack) at least (1 -
        gamma_n)^2 (1 - u)^4 slack (|Zb| c)^2 (n = n_base, u = eps / 2,
        gamma_j = j u / (1 - j u): Higham 2002, 3.1); slack = 1 + 8 (n + 2) eps
        covers both, barring underflow.  Each step adds its exact increment
        (`advance`) to the bound; rounding is monotone, so the bound stays >=
        the exact norm, and while every bound is <= R2^2 no row is projected
        (n2 then holds the bounds).  At the first bound past R2^2 the exact
        base norms are computed once and the recorded increments re-added with
        the exact projections; replay goes on exactly, no step run twice.
        Returns whether the base bound held (False when replaying exactly).
        """
        plan = self._plan
        Zb = Z[:, : plan.n_base]
        Zb[...] = self.base.weights(X)
        R2 = self.kernel.R2
        incs = []
        if certify:
            n2[...] = np.square(np.abs(Zb) @ plan.base_root) * plan.slack
            while np.all(n2 <= R2 * R2):
                if len(incs) == len(plan.steps):
                    return True
                incs.append(plan.steps[len(incs)].advance(Z))
                n2 += incs[-1]
        n2[...] = np.einsum("ij,ij->i", Zb @ plan.base_gram, Zb)
        _project_rows(Z, n2, plan.n_base, R2)
        for t, st in enumerate(plan.steps):
            n2 += incs[t] if t < len(incs) else st.advance(Z)
            _project_rows(Z, n2, st.k + len(st.M), R2)
        return bool(incs)


def _row_blocks(m: int):
    """The row slices of the replay blocks of an m-row batch."""
    return [slice(i, min(i + REPLAY_BLOCK, m)) for i in range(0, m, REPLAY_BLOCK)]


def loss_estimates(p: Predictor, X, loss: LossFunction) -> np.ndarray:
    """Estimated losses f(x_i, a) = <r(a), p(x_i)>; shape (m, |A|), read off
    the replay coordinates block by block, so neither the (m, N) coefficient
    matrix nor the (m, k) coordinate matrix is built."""
    L = p._plan.lifted_values(loss)
    Xm = as_contexts(X)
    out = np.empty((len(Xm), L.shape[1]))
    for rows, Z in p._replay_blocks(Xm):
        out[rows] = Z @ L
    return out


def _expand_columns(cols: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """cols[inverse], bit for bit, a column at a time: numpy gathers short rows slowly."""
    out = np.empty(inverse.shape + cols.shape[1:])
    for a in range(cols.shape[-1]):
        out[..., a] = cols[..., a].take(inverse, axis=0)
    return out


@dataclass(frozen=True, eq=False)
class EvaluatedBatch:
    """A nonempty batch pushed through a predictor, kept by the batch and
    shared by every reader of it, so every array it holds is read-only.
    Caches the kernel blocks over its distinct outcomes U that `lifted` and `values` read."""

    Y: np.ndarray
    plan: _EvalPlan
    Z: np.ndarray  # (n, k) the replay's coordinates over the patch-row basis
    pnorm2: np.ndarray  # (n,) squared norms of the predictions, tracked by replay
    batch_id: str = ""

    def __len__(self) -> int:
        return len(self.Y)

    @cached_property
    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, inverse): the bitwise-distinct outcomes in order of first
        appearance, and the index in U of each sample's outcome; U is
        refused (OutcomeDomainError) unless it lies in the kernel's domain."""
        first, inverse = distinct_rows(self.Y)
        U = self.Y[first]
        self.plan.spec.check_domain(U)
        U.setflags(write=False)
        inverse.setflags(write=False)
        return U, inverse

    @cached_property
    def K_UU(self) -> np.ndarray:
        """K(U, U); (|U|, |U|)."""
        K = self.plan.spec.gram(self.outcomes[0], self.outcomes[0])
        K.setflags(write=False)
        return K

    @cached_property
    def K_FU(self) -> np.ndarray:
        """F @ K(anchors, U), the basis's inner products with phi(U); (k, |U|)."""
        K = self.plan.gram_lift(self.outcomes[0])
        K.setflags(write=False)
        return K

    def lifted(self, loss: LossFunction) -> np.ndarray:
        """F @ loss.values(anchors), (k, |A|), which Z maps to the loss's
        estimates.  A loss anchored on rows of this batch's Y reads them
        off K_FU, since K(anchors, Y[i]) is column inverse[i] of K(anchors,
        U); every other loss goes through the plan (`_EvalPlan.lifted_values`)."""
        if loss.anchor_rows is not None and loss.anchor_rows[0] is self.Y:
            check_spec(self.plan.spec, loss.span.spec)
            return self.K_FU[:, self.outcomes[1][loss.anchor_rows[1]]] @ loss.span.coeffs
        return self.plan.lifted_values(loss)

    def values(self, loss: LossFunction) -> np.ndarray:
        """loss.values(Y), (n, |A|).  A loss cut on a plan this batch's plan
        descends from (its k basis rows f_i are the batch's first k) reads its
        raw columns on U off the batch's blocks, K(U, U_f) BU - K_FU[:k]^T ZB,
        at |U| x |U_f| kernel entries, expanded to the samples a column at a
        time (`_expand_columns`); any other reads Y unchecked, densely."""
        check_spec(self.plan.spec, loss.span.spec)
        form = loss.span.form
        if not self.plan.descends(form):
            return loss.values(self.Y)
        U, inverse = self.outcomes
        raw = self.plan.spec.gram(U, form.U) @ form.BU - self.K_FU[: form.k].T @ form.ZB
        return _expand_columns(form.scaled(raw), inverse)


def evaluate_batch(p: Predictor, batch: SampleBatch) -> EvaluatedBatch:
    """The batch replayed through p's chain in blocks of REPLAY_BLOCK
    contexts: its predictions' coordinates Z over the patch-row basis F (so
    W = Z @ F over the anchors) and their squared norms; no empty batch.

    The batch keeps the result.  Its evaluation on p's plan is returned as
    is; one on a plan that p's extends (the same base Gram matrix and its
    steps first, by identity, as `with_patch` makes it) is carried through
    the new steps only, block by block, bit for bit a full replay, with its
    merged outcomes and K_UU and its K_FU lifted through the new steps'
    rows; any other is replayed in full."""
    if len(batch) == 0:
        raise ValueError("need at least one sample")
    plan, old = p._plan, batch._evaluated
    if old is not None and old.plan is plan:
        return old
    done = len(old.plan.steps) if old is not None else 0
    carry = (old is not None and old.plan.base_gram is plan.base_gram
             and [id(st) for st in old.plan.steps] == [id(st) for st in plan.steps[:done]])
    Z, pnorm2 = np.empty((len(batch), plan.k)), np.empty(len(batch))
    for rows in _row_blocks(len(batch)):
        if not carry:
            p._replay_rows(batch.X[rows], Z[rows], pnorm2[rows])
            continue
        Z[rows, : old.plan.k], pnorm2[rows] = old.Z[rows], old.pnorm2[rows]
        for st in plan.steps[done:]:  # as `Predictor._replay_rows` replays them
            n2 = pnorm2[rows]
            n2 += st.advance(Z[rows])
            _project_rows(Z[rows], n2, st.k + len(st.M), p.kernel.R2)
    Z.setflags(write=False)
    pnorm2.setflags(write=False)
    eb = EvaluatedBatch(batch.Y, plan, Z, pnorm2, batch.batch_id)
    if carry:
        eb.__dict__.update((key, old.__dict__[key]) for key in ("outcomes", "K_UU")
                           if key in old.__dict__)  # the cached_properties' values
        if "K_FU" in old.__dict__:
            eb.__dict__["K_FU"] = K = plan.gram_lift(old.outcomes[0], plan.steps[done:], old.K_FU)
            K.setflags(write=False)
    object.__setattr__(batch, "_evaluated", eb)
    return eb


# ---------------------------------------------------------------------------
# Serialization: structured JSON documents with exact float round-trip.

# The predictor document layout; a document without it is refused.  cut-1
# wrote the same fields with every array as nested lists, which still load.
PREDICTOR_FORMAT = "decal.predictor/cut-2"

REQUIRED = object()
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string"), "bool": (bool, "true or false"), "object": (dict, "an object")}


class Field(NamedTuple):
    """What one key of a JSON document holds, as `read_field` reads it: an
    "int" (a JSON integer: not true, not 2.0), a "float" (a finite number),
    "str", "bool", "object", "list_<kind>" (at least `min_items` of those,
    distinct unless objects) or "array" (finite numbers as a float64 array of
    `shape`, None where a length of at least 1 goes; with a `domain`, any
    number of outcome rows in its domain), as nested lists or as `_array_doc`
    text.  A number in quotes is no number.  Every number, array entries
    included, lies in the range, and a scalar is one of any `choices`.
    `_KINDS` holds each scalar kind's Python types and what it must be."""

    kind: str
    default: object = REQUIRED
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    exclusive_max: bool = False
    choices: tuple | None = None
    allow_none: bool = False
    min_items: int = 1  # list kinds
    shape: tuple = ()  # arrays
    domain: KernelSpec | None = None  # arrays of outcome rows


OBJECT, STRING = Field("object"), Field("str")
POSITIVE = Field("float", minimum=0.0, exclusive_min=True)


def read_field(doc: dict, key: str, f: Field, where: str = ""):
    """doc[key] as `f` reads it; a missing key is f.default, refused when
    that is REQUIRED, and null is refused unless f.allow_none.  Every
    refusal is a ValueError naming the key after `where`, the object read."""
    if key not in doc:
        if f.default is REQUIRED:
            raise ValueError(f"missing required {where.strip()}: {key!r}")
        return f.default
    value = doc[key]
    try:
        if value is None and f.allow_none:
            return None
        if f.kind == "array":
            return _read_array(value, f)
        if not f.kind.startswith("list_"):
            return _read_scalar(value, f.kind, f)
        if not isinstance(value, list) or len(value) < f.min_items:
            raise ValueError(f"must be a list of at least {f.min_items} items, got {value!r:.60}")
        items = [_read_scalar(item, f.kind[5:], f, "each item ") for item in value]
        if f.kind != "list_object" and len(set(items)) < len(items):
            raise ValueError("items must be distinct")
        return items
    except (ValueError, OverflowError) as exc:  # overflow: an int no float holds
        raise ValueError(f"{where}{key!r}: {exc}") from exc


def _read_scalar(value, kind: str, f: Field, subject: str = ""):
    types, what = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{subject}must be {what}, got {value!r:.60}")
    if kind == "float" and not math.isfinite(value):  # an int past floats overflows here
        raise ValueError(f"{subject}must be finite, got {value!r:.60}")
    value = float(value) if kind == "float" else value
    if f.choices is not None and value not in f.choices:
        raise ValueError(f"{subject}must be one of {sorted(f.choices)}, got {value!r:.60}")
    _check_range(value, f, subject)
    return value


def _array_doc(arr) -> str | list:
    """An array as the base64 text of its C-order little-endian float64
    bytes, or, when it has no entries, as nested lists, which keep its shape."""
    arr = np.asarray(arr, dtype="<f8")
    return binascii.b2a_base64(arr.tobytes(), newline=False).decode() if arr.size else arr.tolist()


def _read_array(value, f: Field) -> np.ndarray:
    shape = (None, f.domain.dim) if f.domain is not None else f.shape
    if isinstance(value, str):  # `_array_doc` text, its one open length read off its size
        try:
            raw = binascii.a2b_base64(value)
            canonical = binascii.b2a_base64(raw, newline=False).decode() == value
        except ValueError:  # binascii.Error, or text beyond ASCII
            canonical = False
        if not canonical or len(raw) % 8:
            raise ValueError(f"must be base64 text of 8-byte floats, got {value!r:.60}")
        cells = np.frombuffer(raw, "<f8").astype(np.float64)
        known = math.prod(n for n in shape if n is not None)
        filled = [(len(cells) // known if known else 0) if n is None else n for n in shape]
        cells = cells.reshape(filled) if math.prod(filled) == len(cells) else cells
    else:
        cells = np.array(value, dtype=object)
        if cells.shape == (0,) and len(shape) > 1:  # JSON writes an array of no rows as []
            cells = cells.reshape(0, *(n or 0 for n in shape[1:]))
    least = 0 if f.domain is not None else 1  # the least open length
    if cells.ndim != len(shape) or any(
            m < least if n is None else m != n for n, m in zip(shape, cells.shape)):
        raise ValueError(f"must be an array of shape {shape}, None {least}+, got {cells.shape}")
    if cells.dtype == object and not {type(x) for x in cells.flat} <= {int, float}:
        raise ValueError("must hold numbers only, none in quotes, true or null")  # nor lists
    arr = cells.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError("must hold finite numbers only")
    _check_range(arr, f)
    if f.domain is not None:
        f.domain.check_domain(arr)
    return arr


def _check_range(x, f: Field, subject: str = "") -> None:
    lo, hi = f.minimum, f.maximum
    if lo is not None and np.any(x <= lo if f.exclusive_min else x < lo):
        raise ValueError(f"{subject}must be {'>' if f.exclusive_min else '>='} {lo}")
    if hi is not None and np.any(x >= hi if f.exclusive_max else x > hi):
        raise ValueError(f"{subject}must be {'<' if f.exclusive_max else '<='} {hi}")


def kernel_to_doc(spec: KernelSpec) -> dict:
    return {"kind": spec.kind, "dim": spec.dim, "R2": spec.R2}


def kernel_from_doc(doc: dict) -> KernelSpec:
    return KernelSpec(read_field(doc, "kind", Field("str", choices=KERNEL_KINDS), "kernel "),
                      read_field(doc, "dim", Field("int", minimum=1), "kernel "),
                      read_field(doc, "R2", POSITIVE, "kernel "))


def span_to_doc(span: RkhsElement) -> dict:
    """The anchors once, then the coefficients one list per column."""
    return {"anchors": _array_doc(span.anchors), "coeffs": _array_doc(span.coeffs.T)}


def span_from_doc(doc: dict, spec: KernelSpec, where: str = "",
                  actions: int | None = None) -> RkhsElement:
    anchors = read_field(doc, "anchors", Field("array", domain=spec), where)
    coeffs = read_field(doc, "coeffs", Field("array", shape=(actions, len(anchors))), where)
    span = RkhsElement(spec, anchors, coeffs.T)
    with np.errstate(over="ignore", invalid="ignore"):  # a table's values can overflow
        if not np.isfinite(span.norms()).all():
            raise ValueError(f"{where}'coeffs': columns must have finite norms")
    return span


def _chain_prefix(form: CutForm | None, base: PredictorBase, before: tuple) -> int | None:
    """How many records the plan `form` was cut on holds, when that plan is
    `base` and a prefix of the records `before` (a chain's lineage), compared
    by identity; None when it is not or there is no form."""
    if form is None:
        return None
    cut_base, recs = form.lineage
    if cut_base is not base or len(recs) > len(before):
        return None
    # records compare by identity (eq=False), so tuple equality is identity too
    return len(recs) if before[: len(recs)] == recs else None


def _table_to_doc(span: RkhsElement, chain) -> dict:
    """A span's cut form when it descends from `chain` = (base, the records
    before the span's own record), else its anchor table."""
    form = span.form
    j = None if chain is None else _chain_prefix(form, *chain)
    if j is None:
        return span_to_doc(span)
    return {"cut": {"prefix": j, "U": _array_doc(form.U), "BU": _array_doc(form.BU.T),
                    "ZB": _array_doc(form.ZB.T), "unit": _array_doc(form.unit), "step": form.step}}


def _table_from_doc(doc: dict, spec: KernelSpec, plan: _EvalPlan | None, where: str,
                    actions: int | None = None) -> RkhsElement:
    """The span of a span document, of `actions` columns when given; a cut is
    its form on the chain's first `prefix` records (a loss file's, read with
    no plan, has none); one on an earlier record's prefix whose U, BU and ZB
    have that record's rows' bytes holds those very arrays, as in memory.  A
    plan folds the cut's parts as they are, so U must lie in the domain, the
    parts be finite and the unit >= 0, while `cut_span` would drop or zero
    what it cannot weigh; `_append` refuses scaled parts that overflow."""
    if "cut" not in doc:
        if "anchors" not in doc:
            raise ValueError(f"missing required {where.strip()}: 'cut' or 'anchors'")
        return span_from_doc(doc, spec, where, actions)
    cut = read_field(doc, "cut", OBJECT, where)
    T = -1 if plan is None else len(plan.steps)
    j = read_field(cut, "prefix", Field("int", minimum=0, maximum=T), "cut ")
    k = plan.steps[j].k if j < T else plan.k
    U = read_field(cut, "U", Field("array", domain=spec), "cut ")
    # BU and ZB are written one list per action, as `coeffs` is, and held by row
    BU = read_field(cut, "BU", Field("array", shape=(actions, len(U))), "cut ")
    a = len(BU)
    ZB = read_field(cut, "ZB", Field("array", shape=(a, k)), "cut ")
    unit = read_field(cut, "unit", Field("array", shape=(a,), minimum=0.0), "cut ")
    step = read_field(cut, "step", Field("float"), "cut ")
    lineage = (plan.lineage[0], plan.lineage[1][:j])
    parts = (U, np.ascontiguousarray(BU.T), np.ascontiguousarray(ZB.T))
    own = () if j == T or (f := plan.lineage[1][j].rows.form) is None else (f.U, f.BU, f.ZB)
    if own and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(parts, own)):
        parts = own
    return RkhsElement._cut(spec, CutForm(lineage, k, *parts, unit, step))


def loss_to_doc(loss: LossFunction, chain=None) -> dict:
    return {
        "loss_id": loss.loss_id,
        "R1": loss.R1,
        "rescaled": loss.rescaled,
        **_table_to_doc(loss.span, chain),
    }


def loss_from_doc(doc: dict, spec: KernelSpec, plan: _EvalPlan | None = None) -> LossFunction:
    span = _table_from_doc(doc, spec, plan, "loss ")
    return LossFunction(read_field(doc, "loss_id", STRING, "loss "), span,
                        read_field(doc, "R1", POSITIVE, "loss "),
                        read_field(doc, "rescaled", Field("bool"), "loss "))


def base_from_doc(doc: dict, spec: KernelSpec) -> PredictorBase:
    kind = read_field(doc, "kind", Field("str", choices=tuple(_BASE_REGISTRY)), "base ")
    return _BASE_REGISTRY[kind].from_doc(doc, spec)


def patch_to_doc(rec: PatchRecord, chain) -> dict:
    doc = {
        "algorithm": rec.algorithm,
        "witness_lossprime": loss_to_doc(rec.witness_lossprime, chain),
        "beta": rec.beta,
        "batch_id": rec.batch_id,
        **_table_to_doc(rec.rows, chain),
    }
    if rec.algorithm == "alg1":
        doc["eta"] = rec.eta
    else:
        doc["mixing"] = _array_doc(rec.mixing)
    return doc


def patch_from_doc(doc: dict, spec: KernelSpec, plan: _EvalPlan) -> PatchRecord:
    algorithm = read_field(doc, "algorithm", Field("str", choices=("alg1", "alg2")), "patch ")
    lossprime = loss_from_doc(read_field(doc, "witness_lossprime", OBJECT, "patch "), spec, plan)
    a = lossprime.n_actions
    return PatchRecord(
        algorithm, lossprime, read_field(doc, "beta", Field("float", minimum=0.0), "patch "),
        _table_from_doc(doc, spec, plan, "patch ", a),
        read_field(doc, "batch_id", STRING, "patch "),
        mixing=read_field(doc, "mixing", Field("array", shape=(a, a)), "patch ")
        if algorithm == "alg2" else None,
        eta=read_field(doc, "eta", POSITIVE, "patch ") if algorithm == "alg1" else None,
    )


def predictor_to_doc(p: Predictor) -> dict:
    return {
        "format": PREDICTOR_FORMAT,
        "kernel": kernel_to_doc(p.kernel),
        "base": p.base.to_doc(),
        "patches": [patch_to_doc(rec, (p.base, p.patches[:t])) for t, rec in enumerate(p.patches)],
    }


def predictor_from_doc(doc: dict) -> Predictor:
    """The predictor of a document, its patches folded in order by
    `with_patch`, so each cut span is read back as its form, only the
    chain's current plan is kept, and it is built once, by the same path as
    in memory.  Every field is read by `read_field`; `_append` refuses a fold
    that a file's scales overflow."""
    read_field(doc, "format", Field("str", choices=(PREDICTOR_FORMAT, "decal.predictor/cut-1")),
               "predictor ")
    patches = read_field(doc, "patches", Field("list_object", min_items=0), "predictor ")
    spec = kernel_from_doc(read_field(doc, "kernel", OBJECT, "predictor "))
    p = Predictor(spec, base_from_doc(read_field(doc, "base", OBJECT, "predictor "), spec))
    with np.errstate(over="ignore", invalid="ignore"):
        for d in patches:
            p = p.with_patch(patch_from_doc(d, spec, p._plan))
    return p


def save_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def load_json(path) -> dict:
    """The JSON object in file `path`; a file of no JSON or no object is refused by name."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"file {path.name!r}: is not JSON: {exc}") from exc
    return read_field({path.name: doc}, path.name, OBJECT, "file ")


def save_predictor(path, p: Predictor) -> None:
    save_json(path, predictor_to_doc(p))


def load_predictor(path) -> Predictor:
    return predictor_from_doc(load_json(path))


def loss_file_doc(loss: LossFunction) -> dict:
    """The loss file document: the loss together with its kernel, refused
    unless `load_loss` would read it back."""
    doc = loss_to_doc(loss)
    loss_from_doc(doc, loss.span.spec)
    return {"kernel": kernel_to_doc(loss.span.spec), "loss": doc}


def load_loss(path) -> LossFunction:
    """The loss of a loss file, every field read by `read_field`."""
    doc = load_json(path)
    spec = kernel_from_doc(read_field(doc, "kernel", OBJECT, "loss file "))
    return loss_from_doc(read_field(doc, "loss", OBJECT, "loss file "), spec)
