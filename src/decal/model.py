"""Loss functions, predictors, and the smooth decision rule over kernel spans.

Every span is one `kernel.RkhsElement` anchor table: a loss's action columns,
a patch's update rows, a constant base's single column.

A predictor is a base coefficient map plus an ordered chain of calibration
patches.  Evaluation replays the chain: each patch recomputes the smooth
decision rule of its recorded witness loss against the element built so far,
adds the recorded rows mixed by the rule, and projects back onto the
radius-R2 ball.  Every prediction is a_0 * W_0(x) + sum_t a_t * Q_t(x) R_t,
with W_0 the base coefficients, Q_t the mixed rule probabilities of patch t,
R_t its rows over the shared anchor list, and a_t the product of the
projection scalings applied to the row from patch t on.
Replay therefore carries coordinates over the patch-row basis
F = [I; R_1; ...; R_T]: K = n_base + sum_t |A_t| numbers per prediction, not
one per anchor.  Each plan step caches the basis applied to its witness
columns and to its rows' Gram products, and replay tracks each prediction's
squared norm through the updates instead of recomputing it, so no N x N Gram
matrix is formed, a decision reads loss estimates straight off the
coordinates, and a patched predictor extends its parent's plan by one step.
The plan also keeps F G F^T, so the audit reads through the basis too.
Replay runs in row blocks of REPLAY_BLOCK contexts: a decision reuses one
block's (REPLAY_BLOCK, k) coordinates, so `loss_estimates` holds only
block x k numbers, and an evaluated batch is filled block by block.

A witness or patch table cut by the audit carries its cut form: the batch's
distinct outcomes U and the parts BU (|U|, |A|) and ZB (k, |A|) of its
columns sum_u BU[u, a] phi(u) - sum_{i<k} ZB[i, a] f_i, over the first k
rows f_i of the basis of the plan it was cut on, with each column's unit
scale and the step that scales them all.  A plan that descends from that
plan (the same base and a prefix of its patch records, compared by
identity) reads the span's Gram products through the form, K(anchors, U)
and F G F^T, as a fold over its steps: the form keeps its latest fold, and a
plan that extends it continues it through its new steps, at K(new anchors,
U) kernel entries, so a witness carried from round to round costs what each
round adds.  A loss without such a form (user losses, a
random loss read on another batch than its own, a loaded
`witness_loss.json`) is read densely, F @ values(anchors); the audit reads a
random pool loss on its own batch off the scan's K_FU instead (see
`LossFunction.anchor_rows`).  Patch rows without a form cut on the
very plan they extend (hand-built records, records cut on a sibling branch
or an equal but distinct base) are appended as the form over their own M
anchors, with ZB zero, at N x M + M x M entries, so no plan operation forms
an N x N Gram block.  The coefficients W = Z F are built only by
`coefficients` and, by `cut_span`, for a cut span's |A| rows.

`predictor.json` stores each span whose form descends from the predictor's
own chain as that form plus the number of chain records it was cut on; the
loader folds the patches in order and rebuilds each anchor table with
`cut_span` on the loaded prefix, so the loaded predictor, its plan
included, equals the saved one bit for bit.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .kernel import (
    KernelSpec, RkhsElement, as_outcomes, check_spec, distinct_rows, merge_terms, sum_rows,
)

DEGENERATE_NORM = 1e-12
# Contexts replayed at once: a block's (REPLAY_BLOCK, k) coordinates and its
# base-map temporaries stay small enough to be reused rather than mapped anew.
REPLAY_BLOCK = 512


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


def softmax(z) -> np.ndarray:
    """Softmax over the last axis: subtract the max, exponentiate, divide by
    the sum -- scipy.special.softmax's operations, so its bits too.  Only the
    shifted copy is allocated; z is left as it was.

    Below 8 actions the max and the sum are taken column by column
    (np.maximum, +=), since numpy reduces a short last axis slowly; numpy
    sums fewer than 8 terms one after another, so the bits are the same.
    From 8 terms on its pairwise sum unrolls by 8 and adds in another
    order, so there numpy's reductions are kept."""
    z = np.asarray(z, dtype=np.float64)
    A = z.shape[-1] if z.ndim else 1
    if 1 < A < 8:
        top = np.maximum(z[..., 0], z[..., 1], out=np.empty(z.shape[:-1]))
        for a in range(2, A):
            np.maximum(top, z[..., a], out=top)
        e = z - top[..., None]
        np.exp(e, out=e)
        total = np.add(e[..., 0], e[..., 1], out=np.empty(z.shape[:-1]))
        for a in range(2, A):
            total += e[..., a]
        e /= total[..., None]
        return e
    e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
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
    of the anchor table that `cut_span` rebuilds from it."""

    lineage: tuple  # (PredictorBase, tuple[PatchRecord, ...])
    k: int
    U: np.ndarray  # (|U|, dim)
    BU: np.ndarray  # (|U|, |A|)
    ZB: np.ndarray  # (k, |A|)
    # R1 / the column's norm, or 0 where it is degenerate; ones for alg2 rows
    unit: np.ndarray  # (|A|,)
    step: float = 1.0  # alg1's eta R1 / witness R1; kept apart from unit for its bits
    # the latest fold of the parts onto a plan (see _EvalPlan._fold), by the
    # parts' identity; `dataclasses.replace` hands it on, so the forms an alg1
    # or alg2 step rescales from a witness share it
    folds: dict = field(default_factory=dict, repr=False)


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
    # (Y, rows) when span.anchors are the rows Y[rows] of the outcome array Y,
    # as a random pool loss's are; the audit reads such a loss through the
    # kernel block its scan builds for a batch of that very Y
    anchor_rows: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_actions == 0:
            raise ValueError("a loss needs at least one action")
        if not self.R1 > 0:
            raise ValueError("R1 must be positive")

    @property
    def n_actions(self) -> int:
        return self.span.coeffs.shape[1]

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

    @property
    def anchors(self) -> np.ndarray:
        return self.element.anchors

    def weights(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.element.coeffs[:, 0], (len(X), 1))

    def to_doc(self) -> dict:
        doc = span_to_doc(self.element)
        return {"kind": self.kind, "element": {**doc, "coeffs": doc["coeffs"][0]}}

    @classmethod
    def from_doc(cls, doc: dict, spec: KernelSpec) -> "ConstantBase":
        el = doc["element"]
        return cls(span_from_doc({**el, "coeffs": [el["coeffs"]]}, spec))


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
        C = self.contexts
        d2 = np.add.outer(np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", C, C))
        d2 -= 2.0 * X @ C.T
        d2 /= -(2.0 * self.bandwidth**2)
        return softmax(d2)

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
        else:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if mixing.shape != (n_act, n_act):
            raise ValueError("mixing matrix must be (|A|, |A|)")
        check_spec(self.witness_lossprime.span.spec, self.rows.spec)
        if self.rows.coeffs.shape[1] != n_act:
            raise ValueError("one coefficient column per action required")
        mixing.setflags(write=False)
        object.__setattr__(self, "mixing", mixing)


@dataclass(frozen=True)
class _PlanStep:
    n_before: int
    n_after: int
    k: int  # basis rows before this step; its own coordinates are Z[:, k : k + |A|]
    beta: float
    M: np.ndarray  # (|A|, |A|) the record's mixing
    R: np.ndarray  # (|A|, n_after) the record's rows over the anchors
    S: np.ndarray  # (|A|, |A|) the Gram matrix of the rows
    # (k, 2 |A|) the basis so far applied to [V | H[:n_before]], where V holds
    # the witness's loss-estimate columns on the anchors and H = K(anchors,
    # anchors) @ R.T the rows' Gram products; F_{<t} G R^T is its right half
    table: np.ndarray

    def replay(self, Z: np.ndarray, n2: np.ndarray, R2: float) -> None:
        """Carry coordinates Z (m, >= k + |A|) and squared norms n2 through
        this patch, in place.

        With Q the mixed rule probabilities, ||w + Q R||^2 = n2 + 2 <w, Q R>
        + ||Q R||^2, and the table and S supply both inner products.
        """
        a = len(self.M)
        ZT = Z[:, : self.k] @ self.table
        Q = smooth_best_response(ZT[:, :a], self.beta) @ self.M
        n2 += 2.0 * np.einsum("ij,ij->i", ZT[:, a:], Q) + np.einsum("ij,ij->i", Q @ self.S, Q)
        Z[:, self.k : self.k + a] = Q
        _project_rows(Z, n2, self.k + a, R2)


@dataclass(frozen=True)
class _Fold:
    """A cut form's unscaled values folded over the first `steps` steps of a
    plan, the last of them `last`: X = K(anchors, U) BU over their anchors
    and L = F G times the spans over their basis rows (see _EvalPlan._fold)."""

    steps: int
    last: object  # the _PlanStep the fold ends with, None for the base
    X: np.ndarray  # (N, |A|)
    L: np.ndarray  # (k, |A|)


class _EvalPlan:
    """Patch chain aligned onto one shared anchor matrix, one patch at a time,
    with the patch-row basis F = [I_{n_base}; R_1; ...; R_T] that replay
    carries its coordinates over (k rows).

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
        self.k = self.n_base
        self.base_gram = base_gram
        self.gram_F = base_gram  # F G F^T (k, k), G the Gram matrix of the anchors
        self.steps: list[_PlanStep] = []
        for rec in predictor.patches:
            self._append(rec)

    def extended(self, rec: PatchRecord) -> "_EvalPlan":
        """This plan with one more patch appended; this plan is unchanged."""
        plan = copy.copy(self)
        plan.steps = list(self.steps)
        plan._append(rec)
        return plan

    def lift(self, X: np.ndarray) -> np.ndarray:
        """F @ X for X with one row per anchor (at least the last step's
        n_after): [X[:n_base]; R_1 @ X[:n_after_1]; ...], shape (k, cols)."""
        return np.vstack([X[: self.n_base]] + [st.R @ X[: st.n_after] for st in self.steps])

    def expand(self, Z: np.ndarray) -> np.ndarray:
        """The coefficients over the anchors, W = Z @ F: the base block, then
        one rank-|A| update per step; shape (m, N).  With no step the basis
        is the identity and W is Z itself."""
        if not self.steps:
            return Z
        W = np.zeros((len(Z), len(self.anchors)))
        W[:, : self.n_base] = Z[:, : self.n_base]
        for st in self.steps:
            W[:, : st.n_after] += Z[:, st.k : st.k + len(st.M)] @ st.R
        return W

    def descends(self, form: CutForm | None) -> bool:
        """Whether this plan extends the plan `form` was cut on."""
        return _chain_prefix(form, *self.lineage) is not None

    def _fold(self, form: CutForm, K_AU: np.ndarray | None = None) -> np.ndarray:
        """F G times the unscaled spans of a form this plan descends from,
        (k, |A|): F K(anchors, U) BU - gram_F[:, :form.k] ZB.

        The values are a fold over the plan's steps.  It starts on the plan
        the form was cut on, with K(its anchors, U) (K_AU, when the caller
        has it), and each later step adds the rows R_t @ X - cross_t^T ZB,
        where X = K(anchors, U) BU grows by the step's new anchors only and
        cross_t is that step's border of gram_F.  The form keeps its latest
        fold, which the forms an alg1 or alg2 step rescales from it share, and
        a plan whose steps extend that fold's continues it, so a carried
        witness costs its new anchors times |U| kernel entries a round.  Every
        plan folds the same blocks in the same order, wherever it starts, so a
        reloaded plan reads a form bit for bit as the calibrated one did."""
        key = (id(form.U), id(form.BU), id(form.ZB), form.k)
        fold = form.folds.get(key)
        if fold is None or fold.steps > len(self.steps) or (
                fold.steps and self.steps[fold.steps - 1] is not fold.last):
            j = len(form.lineage[1])
            n = self.steps[j - 1].n_after if j else self.n_base
            if K_AU is None:
                K_AU = self.spec.gram(self.anchors[:n], form.U)
            X = K_AU @ form.BU
            top = [X[: self.n_base]] + [st.R @ X[: st.n_after] for st in self.steps[:j]]
            L = np.vstack(top) - self.gram_F[: form.k, : form.k] @ form.ZB
            fold = _Fold(j, self.steps[j - 1] if j else None, X, L)
        if fold.steps < len(self.steps):
            X, blocks = fold.X, [fold.L]
            for st in self.steps[fold.steps :]:
                new = self.spec.gram(self.anchors[st.n_before : st.n_after], form.U) @ form.BU
                X = np.vstack([X, new])
                cross = st.table[: form.k, len(st.M) :]
                blocks.append(st.R @ X - cross.T @ form.ZB)
            fold = _Fold(len(self.steps), self.steps[-1], X, np.vstack(blocks))
        form.folds[key] = fold
        return fold.L

    def lifted_values(self, loss: LossFunction) -> np.ndarray:
        """F @ loss.values(anchors), (k, |A|): through the fold of the loss's
        cut form when this plan descends from the plan it was cut on,
        densely otherwise."""
        check_spec(self.spec, loss.span.spec)
        form = loss.span.form
        if not self.descends(form):
            return self.lift(loss.values(self.anchors))
        return self._fold(form) * (form.unit * form.step)

    def _append(self, rec: PatchRecord) -> None:
        """Align one patch: each of its anchors goes to the first bitwise-equal
        row so far, unseen rows are appended in order, base rows stay as given.

        The rows' Gram products come from a form (U, BU, ZB): their cut form
        when they were cut on this very plan, else the form over their own
        anchors (U the anchors, BU the coefficients, ZB zero).  Then F G R^T =
        F K(anchors, U) BU - gram_F ZB, and R G R^T = BU^T g - ZB^T F G R^T
        with g = K(U, U) BU - K(U, anchors) F^T ZB the rows' inner products
        with phi(U).  Expanding R G R^T into four quadratic terms instead
        would lose its digits to cancellation when the rows are short against
        their parts.  Either way the rows cost N x |U| + |U| x |U| kernel
        entries, N the anchors before them."""
        check_spec(self.spec, rec.rows.spec)
        n_before, form = len(self.anchors), rec.rows.form
        if not (self.descends(form) and form.k == self.k):
            a = rec.rows.coeffs.shape[1]
            form = CutForm(self.lineage, self.k, rec.rows.anchors, rec.rows.coeffs,
                           np.zeros((self.k, a)), np.ones(a))
        Z = np.vstack([self.anchors, rec.rows.anchors])
        first, inverse = distinct_rows(Z)
        seen = first < n_before
        # the position of each distinct row once the unseen ones are appended
        row_at = np.where(seen, first, n_before - np.count_nonzero(seen) + np.arange(len(first)))
        anchors = np.vstack([self.anchors, Z[first[~seen]]])
        n_after = len(anchors)
        # row-major, as the products below were written for: BLAS may round
        # a transposed operand differently
        R = np.ascontiguousarray(sum_rows(row_at[inverse[n_before:]], n_after, rec.rows.coeffs).T)
        scale = form.unit * form.step
        BU, ZB = form.BU * scale, form.ZB * scale
        K_AU = self.spec.gram(self.anchors, form.U)
        cross = self._fold(form, K_AU) * scale
        table = np.hstack([self.lifted_values(rec.witness_lossprime), cross])
        g = self.spec.gram(form.U, form.U) @ BU - K_AU.T @ self.expand(ZB.T).T
        S = BU.T @ g - ZB.T @ cross
        step = _PlanStep(n_before, n_after, self.k, rec.beta, rec.mixing, R, S, table)
        # the new rows' border of F G F^T is F_{<t} G R^T
        gram_F = np.block([[self.gram_F, cross], [cross.T, step.S]])
        for arr in (anchors, R, step.S, table, gram_F):
            arr.setflags(write=False)
        self.anchors = anchors
        self.gram_F = gram_F
        self.lineage = (self.lineage[0], self.lineage[1] + (rec,))
        self.steps.append(step)
        self.k += len(R)


def cut_span(plan: _EvalPlan, form: CutForm) -> tuple[RkhsElement, np.ndarray]:
    """The anchor table of a form's columns, cut on `plan` (the plan of its
    lineage), carrying the form: over the anchors [U; plan.anchors] with
    repeats merged, each raw column BU - F^T ZB times its unit scale (zero
    where that is zero) times the step.  Also returns the raw columns.

    The table is taken as checked: plan.anchors are, and form.U must lie in
    the kernel's domain (the audit checks its batch's outcomes, the loader a
    file's U, before they cut)."""
    anchors, means = merge_terms(plan.spec, np.vstack([form.U, plan.anchors]),
                                 np.vstack([form.BU, -plan.expand(form.ZB.T).T]))
    # where, not the zero scale alone: a negative coefficient times 0.0 is -0.0
    coeffs = np.where(form.unit > 0, means * form.unit, 0.0) * form.step
    return RkhsElement._of_checked(plan.spec, anchors, coeffs, form), means


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

    def _replay(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Replay the patch chain on every context, in blocks of REPLAY_BLOCK
        rows, projecting onto the R2 ball after the base map and after every
        patch.

        Returns the coordinates Z (m, k) of the predictions over the plan's
        patch-row basis F, so that their coefficients over the anchors are
        W = Z @ F, and their squared norms n2 (m,).
        """
        Xm = as_contexts(X)
        Z = np.empty((len(Xm), self._plan.k))
        n2 = np.empty(len(Xm))
        for rows in _row_blocks(len(Xm)):
            self._replay_rows(Xm[rows], Z[rows], n2[rows])
        return Z, n2

    def _replay_blocks(self, Xm: np.ndarray):
        """Yield (rows, Z) for each block of REPLAY_BLOCK contexts, the
        block's coordinates replayed into one buffer that every block reuses,
        so no (m, k) matrix is held."""
        size = min(len(Xm), REPLAY_BLOCK)
        Zbuf, n2buf = np.empty((size, self._plan.k)), np.empty(size)
        for rows in _row_blocks(len(Xm)):
            b = rows.stop - rows.start
            self._replay_rows(Xm[rows], Zbuf[:b], n2buf[:b])
            yield rows, Zbuf[:b]

    def _replay_rows(self, X: np.ndarray, Z: np.ndarray, n2: np.ndarray) -> None:
        """Replay one block of contexts X into Z (b, k) and n2 (b,), in place.

        Z[:, :n_base] is the projected base map; each step reads the
        coordinates so far through its table, writes its mixed rule
        probabilities into its own |A| columns, and scales the rows it
        projects, all without forming W.  Every column of Z is written.
        """
        plan = self._plan
        Zb = Z[:, : plan.n_base]
        Zb[...] = self.base.weights(X)
        n2[...] = np.einsum("ij,ij->i", Zb @ plan.base_gram, Zb)
        R2 = self.kernel.R2
        _project_rows(Z, n2, plan.n_base, R2)
        for st in plan.steps:
            st.replay(Z, n2, R2)


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


@dataclass(frozen=True, eq=False)
class EvaluatedBatch:
    """A batch pushed through a predictor once; reused by audit and patching.
    Caches the kernel blocks the audit reads, over the distinct outcomes U."""

    kernel: KernelSpec
    X: np.ndarray
    Y: np.ndarray
    plan: _EvalPlan
    Z: np.ndarray  # (n, k) the replay's coordinates over the patch-row basis
    pnorm2: np.ndarray  # (n,) squared norms of the predictions, tracked by replay
    batch_id: str = ""

    def __len__(self) -> int:
        return len(self.X)

    @cached_property
    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, inverse): the bitwise-distinct outcomes in order of first
        appearance, and the index in U of each sample's outcome."""
        first, inverse = distinct_rows(self.Y)
        U = self.Y[first]
        U.setflags(write=False)
        inverse.setflags(write=False)
        return U, inverse

    @cached_property
    def K_UU(self) -> np.ndarray:
        """K(U, U); (|U|, |U|)."""
        return self.kernel.gram(self.outcomes[0], self.outcomes[0])

    @cached_property
    def K_FU(self) -> np.ndarray:
        """F @ K(anchors, U), the basis's inner products with phi(U); (k, |U|)."""
        return self.plan.lift(self.kernel.gram(self.plan.anchors, self.outcomes[0]))


def evaluate_batch(p: Predictor, batch: SampleBatch) -> EvaluatedBatch:
    Z, pnorm2 = p._replay(batch.X)
    return EvaluatedBatch(p.kernel, batch.X, batch.Y, p._plan, Z, pnorm2, batch.batch_id)


def extend_evaluated(eb: EvaluatedBatch, p: Predictor) -> EvaluatedBatch:
    """The batch of `eb`, evaluated on p's parent, carried through p's last
    patch only: the same numbers as evaluate_batch(p, batch), bit for bit,
    without replaying the earlier patches again.  eb's plan must hold p's
    steps but the last, as the same objects (as `with_patch` makes it)."""
    plan = p._plan
    if not plan.steps:
        raise ValueError("the predictor has no patch to extend through")
    st = plan.steps[-1]
    same = [id(s) for s in eb.plan.steps] == [id(s) for s in plan.steps[:-1]]
    if not same or eb.plan.base_gram is not plan.base_gram:
        raise ValueError("the batch was not evaluated on the predictor's parent")
    Z = np.empty((len(eb), plan.k))
    Z[:, : st.k] = eb.Z
    pnorm2 = eb.pnorm2.copy()
    for rows in _row_blocks(len(eb)):
        st.replay(Z[rows], pnorm2[rows], p.kernel.R2)
    return EvaluatedBatch(p.kernel, eb.X, eb.Y, plan, Z, pnorm2, eb.batch_id)


# ---------------------------------------------------------------------------
# Serialization: structured JSON documents with exact float round-trip.

# The predictor document layout; a document without it is refused.
PREDICTOR_FORMAT = "decal.predictor/cut-1"


def kernel_to_doc(spec: KernelSpec) -> dict:
    return {"kind": spec.kind, "dim": spec.dim, "R2": spec.R2}


def kernel_from_doc(doc: dict) -> KernelSpec:
    """The kernel of a document; `dim` must be a whole number and `R2` a
    number (JSON true is neither, though Python reads it as 1)."""
    for key in ("dim", "R2"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], (int, float)):
            raise ValueError(f"kernel {key!r} must be a number, got {doc[key]!r}")
    if not float(doc["dim"]).is_integer():
        raise ValueError(f"kernel 'dim' must be a whole number, got {doc['dim']!r}")
    return KernelSpec(doc["kind"], int(doc["dim"]), float(doc["R2"]))


def span_to_doc(span: RkhsElement) -> dict:
    """The anchors once, then the coefficients one list per column."""
    return {"anchors": span.anchors.tolist(), "coeffs": span.coeffs.T.tolist()}


def span_from_doc(doc: dict, spec: KernelSpec) -> RkhsElement:
    anchors = np.asarray(doc["anchors"], dtype=np.float64).reshape(-1, spec.dim)
    return RkhsElement(spec, anchors, np.asarray(doc["coeffs"], dtype=np.float64).T)


def _chain_prefix(form: CutForm | None, base: PredictorBase, before: tuple) -> int | None:
    """How many records the plan `form` was cut on holds, when that plan is
    `base` and a prefix of the records `before` (a chain's lineage), compared
    by identity; None when it is not or there is no form."""
    if form is None:
        return None
    cut_base, recs = form.lineage
    if cut_base is not base or len(recs) > len(before):
        return None
    return len(recs) if all(a is b for a, b in zip(recs, before)) else None


def _table_to_doc(span: RkhsElement, chain) -> dict:
    """A span's cut form when it descends from `chain` = (base, the records
    before the span's own record), else its anchor table."""
    form = span.form
    j = None if chain is None else _chain_prefix(form, *chain)
    if j is None:
        return span_to_doc(span)
    return {"cut": {"prefix": j, "U": form.U.tolist(), "BU": form.BU.T.tolist(),
                    "ZB": form.ZB.T.tolist(), "unit": form.unit.tolist(), "step": form.step}}


def _table_from_doc(doc: dict, spec: KernelSpec, plans) -> RkhsElement:
    """The span of a span document; a cut is rebuilt by `cut_span` on
    plans[prefix], plans being the loaded chain's plans of the records
    before the span's own, one per prefix.  The cut's U is checked against
    the kernel's domain and its parts for finite values first, since its
    fold reads them as they are, while the table `cut_span` merges drops a
    term it cannot weigh."""
    if "cut" not in doc:
        return span_from_doc(doc, spec)
    cut = doc["cut"]
    j = int(cut["prefix"])
    if not 0 <= j < len(plans):
        raise ValueError(f"cut 'prefix' {j} names none of the {len(plans)} chain prefixes before it")
    plan = plans[j]
    U = np.asarray(cut["U"], dtype=np.float64).reshape(-1, spec.dim)
    # BU and ZB are written one list per action, as `coeffs` is, and held by row
    BU, ZB = (np.ascontiguousarray(np.asarray(cut[key], dtype=np.float64).T) for key in ("BU", "ZB"))
    unit = np.asarray(cut["unit"], dtype=np.float64)
    step = float(cut["step"])
    n_actions = BU.shape[-1]
    for key, arr, want in (("BU", BU, (len(U), n_actions)), ("ZB", ZB, (plan.k, n_actions)),
                           ("unit", unit, (n_actions,))):
        if arr.shape != want:
            raise ValueError(f"cut {key!r} has shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"cut {key!r} must be finite")
    if not math.isfinite(step):
        raise ValueError(f"cut 'step' must be finite, got {step!r}")
    spec.check_domain(U)
    return cut_span(plan, CutForm(plan.lineage, plan.k, U, BU, ZB, unit, step))[0]


def loss_to_doc(loss: LossFunction, chain=None) -> dict:
    return {
        "loss_id": loss.loss_id,
        "R1": loss.R1,
        "rescaled": loss.rescaled,
        **_table_to_doc(loss.span, chain),
    }


def loss_from_doc(doc: dict, spec: KernelSpec, plans=()) -> LossFunction:
    span = _table_from_doc(doc, spec, plans)
    return LossFunction(doc["loss_id"], span, float(doc["R1"]), bool(doc["rescaled"]))


def base_from_doc(doc: dict, spec: KernelSpec) -> PredictorBase:
    cls = _BASE_REGISTRY.get(doc["kind"])
    if cls is None:
        raise ValueError(f"unknown predictor base kind {doc['kind']!r}")
    return cls.from_doc(doc, spec)


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
        doc["mixing"] = rec.mixing.tolist()
    return doc


def patch_from_doc(doc: dict, spec: KernelSpec, plans) -> PatchRecord:
    alg1 = doc["algorithm"] == "alg1"
    return PatchRecord(
        doc["algorithm"],
        loss_from_doc(doc["witness_lossprime"], spec, plans),
        float(doc["beta"]),
        _table_from_doc(doc, spec, plans),
        doc["batch_id"],
        mixing=None if alg1 else np.asarray(doc["mixing"], dtype=np.float64),
        eta=float(doc["eta"]) if alg1 else None,
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
    `with_patch`, so each cut span is rebuilt on the plan of its prefix and
    the plan is built once, by the same path as in memory."""
    if doc.get("format") != PREDICTOR_FORMAT:
        raise ValueError(f"predictor 'format' is {doc.get('format')!r}, not {PREDICTOR_FORMAT!r}")
    spec = kernel_from_doc(doc["kernel"])
    p = Predictor(spec, base_from_doc(doc["base"], spec))
    plans = [p._plan]
    for d in doc["patches"]:
        p = p.with_patch(patch_from_doc(d, spec, plans))
        plans.append(p._plan)
    return p


def save_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_predictor(path, p: Predictor) -> None:
    save_json(path, predictor_to_doc(p))


def load_predictor(path) -> Predictor:
    return predictor_from_doc(load_json(path))


def loss_file_doc(loss: LossFunction) -> dict:
    """The loss file document: the loss together with its kernel."""
    return {"kernel": kernel_to_doc(loss.span.spec), "loss": loss_to_doc(loss)}


def load_loss(path) -> LossFunction:
    doc = load_json(path)
    return loss_from_doc(doc["loss"], kernel_from_doc(doc["kernel"]))
