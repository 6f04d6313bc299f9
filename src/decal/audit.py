"""Decision-calibration auditing.

The audit statistic for a pair (loss, lossprime) is the empirical mean of
sum_a <r_loss(a), phi(y) - p(x)> * k_a(x), where k is the smooth best
response induced by lossprime's estimated losses.  For a fixed lossprime the
loss side has a closed-form maximizer over the R1 ball: each action
coefficient is the rescaled per-action residual mean.  Auditing therefore
scans a pool of candidate lossprimes and takes the best closed-form witness.

The scan works in the predictor's patch-row basis, and each witness keeps
the scan's parts of its residual means (over the batch's distinct outcomes
and over the basis) as its cut form, so a later plan descending from the
scanned one evaluates the witness without expanding it over the anchors.

A scan costs what its batch adds.  Random pool losses are anchored on rows
of the batch's outcomes, so their values on the basis are columns of the
K_FU block the scan builds anyway, with no kernel call of their own; a
carried witness is read through its plan's fold (model._EvalPlan._fold);
and the whole pool goes through one product with the replay coordinates
and one softmax.  `random_loss_pool` merges its whole pool at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    KernelSpec, RkhsElement, as_outcomes, check_spec, column_norms, distinct_rows, sum_rows,
)
from .model import (
    DEGENERATE_NORM,
    CutForm,
    EvaluatedBatch,
    LossFunction,
    SampleBatch,
    cut_span,
    evaluate_batch,
    smooth_best_response,
)

AUDIT_THRESHOLD_FACTOR = 0.75  # audits fire at 3/4 of the calibration target
POOL_LOSS_SPAN = 8  # outcomes anchoring each action of a random pool loss


@dataclass(frozen=True, eq=False)
class AuditReport:
    found: bool
    witness_loss: LossFunction
    witness_lossprime: LossFunction
    empirical_gap: float
    threshold: float
    n_used: int
    candidate_pool_size: int
    batch_id: str = ""
    # the best candidate's rule on the batch (n, |A|), and its raw residual
    # means as the columns of an (M, |A|) matrix over witness_loss.span.anchors
    rule_probs: np.ndarray | None = None
    residual_means: np.ndarray | None = None


def batch_estimates(eb: EvaluatedBatch, loss: LossFunction) -> np.ndarray:
    """Estimated losses <r(a), p(x_i)> on the batch; (n, |A|)."""
    return eb.Z @ eb.plan.lifted_values(loss)


def rule_probabilities(eb: EvaluatedBatch, lossprime: LossFunction, beta: float) -> np.ndarray:
    """Smooth best-response probabilities on the batch; (n, |A|)."""
    return smooth_best_response(batch_estimates(eb, lossprime), beta)


def _require_samples(eb: EvaluatedBatch) -> None:
    if len(eb) == 0:
        raise ValueError("need at least one sample")


def _scan_values(eb: EvaluatedBatch, loss: LossFunction) -> np.ndarray:
    """F @ loss.values(anchors) for the scan, (k, |A|).  A loss anchored on
    rows of eb.Y reads them off the scan's own K_FU, since K(anchors, Y[i])
    is column inverse[i] of K(anchors, U); every other loss (a user loss, a
    loss drawn on another batch, a loaded one, a witness) takes its route
    through the plan."""
    if loss.anchor_rows is not None and loss.anchor_rows[0] is eb.Y:
        check_spec(eb.kernel, loss.span.spec)
        return eb.K_FU[:, eb.outcomes[1][loss.anchor_rows[1]]] @ loss.span.coeffs
    return eb.plan.lifted_values(loss)


def _gap_scan(eb: EvaluatedBatch, pool, beta: float, R1: float):
    """Witness-sup gap, per-action residual norms, rule probabilities and
    residual-mean parts of every candidate lossprime.  The whole pool's
    estimates are one product eb.Z @ [L_1 | ... | L_P] and its rules one
    softmax.  With B the rule probabilities, a residual mean is BU (B / n
    summed onto the distinct outcomes U) minus ZB = Z^T B / n over the basis
    F, and its squared norm is a diagonal entry of BU^T K_UU BU - 2 BU^T
    K_FU^T ZB + ZB^T gram_F ZB."""
    _require_samples(eb)
    if not pool:
        raise ValueError("candidate pool must be nonempty")
    counts = sorted({lp.n_actions for lp in pool})
    if len(counts) > 1:
        raise ValueError(f"candidate pool mixes action counts {counts}")
    n, P, A = len(eb), len(pool), counts[0]
    L = np.hstack([_scan_values(eb, lp) for lp in pool])
    B = smooth_best_response((eb.Z @ L).reshape(n, P, A), beta).reshape(n, P * A)
    cols = [slice(c * A, (c + 1) * A) for c in range(P)]
    probs = [B[:, at] for at in cols]
    U, inverse = eb.outcomes
    BU = sum_rows(inverse, len(U), B / n)
    ZB = (eb.Z.T @ B) / n
    sq = (
        np.einsum("ij,ij->j", BU, eb.K_UU @ BU)
        - 2.0 * np.einsum("ij,ij->j", eb.K_FU @ BU, ZB)
        + np.einsum("ij,ij->j", ZB, eb.plan.gram_F @ ZB)
    )
    norms = np.sqrt(np.clip(sq, 0.0, None)).reshape(P, A)
    gaps = R1 * np.where(norms > DEGENERATE_NORM, norms, 0.0).sum(axis=1)
    parts = [(BU[:, at], ZB[:, at]) for at in cols]
    return gaps, norms, probs, parts


def _unit_scale(nv: np.ndarray, R1: float) -> np.ndarray:
    """R1 / nv per column, or zero where nv is degenerate."""
    live = nv > DEGENERATE_NORM
    return np.where(live, R1 / np.where(live, nv, 1.0), 0.0)


def _unit_columns(coeffs: np.ndarray, nv: np.ndarray, R1: float) -> np.ndarray:
    """coeffs with each column rescaled from norm nv to R1, or zero where nv is degenerate."""
    # where, not the zero scale alone: a negative coefficient times 0.0 is -0.0
    return np.where(nv > DEGENERATE_NORM, coeffs * _unit_scale(nv, R1), 0.0)


def _witness(eb: EvaluatedBatch, parts, norms: np.ndarray, R1: float, loss_id: str):
    """One candidate's gap-maximizing loss and its raw residual means, cut
    from its parts in the pooled scan: each action coefficient is the
    residual mean weighted by that action's rule probability, rescaled to
    norm R1 by its norm from the pooled scan, or zero where it is degenerate.
    Every column lives on one merged table over [U; anchors], which
    `cut_span` builds from the parts and which carries the parts as its cut
    form; the caller has checked U against the kernel's domain.  The form
    copies its |A| columns out of the pooled scan, so that a witness kept
    for later rounds does not keep the whole pool's parts alive.
    """
    (BU, ZB), plan = parts, eb.plan
    form = CutForm(plan.lineage, plan.k, eb.outcomes[0], BU.copy(), ZB.copy(),
                   _unit_scale(norms, R1))
    span, means = cut_span(plan, form)
    return LossFunction(loss_id, span, R1), means


def closed_form_witnesses(
    eb: EvaluatedBatch, pool, *, R1: float, beta: float, loss_ids
) -> list[LossFunction]:
    """The gap-maximizing loss at norm bound R1 for every candidate lossprime
    of the pool, from one scan of the batch; loss_ids name them in order.
    """
    _, norms, _, parts = _gap_scan(eb, pool, beta, R1)
    eb.kernel.check_domain(eb.outcomes[0])
    scanned = zip(parts, norms, loss_ids, strict=True)
    return [_witness(eb, part, nv, R1, lid)[0] for part, nv, lid in scanned]


def empirical_gap(
    eb: EvaluatedBatch, loss: LossFunction, lossprime: LossFunction, *, beta: float
) -> float:
    """|Ehat[ sum_a <r(a), phi(y) - p(x)> * k_a(x) ]| on the batch."""
    _require_samples(eb)
    kprobs = rule_probabilities(eb, lossprime, beta)
    ests = batch_estimates(eb, loss)
    vals = loss.values(eb.Y)
    return abs(float(np.mean(np.sum((vals - ests) * kprobs, axis=1))))


def audit(
    p_or_eb,
    batch: SampleBatch | None = None,
    *,
    epsilon: float,
    pool,
    beta: float,
    R1: float,
    witness_id: str = "witness",
) -> AuditReport:
    """Scan the pool for the best closed-form witness pair on an
    EvaluatedBatch, or on a Predictor pushed through `batch`.

    found is True when the best gap exceeds 3 * epsilon / 4; the report
    carries the maximizing (witness, lossprime) pair either way.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    eb = p_or_eb
    if not isinstance(eb, EvaluatedBatch):
        if batch is None:
            raise ValueError("a batch is required when passing a Predictor")
        eb = evaluate_batch(p_or_eb, batch)
    gaps, norms, probs, parts = _gap_scan(eb, pool, beta, R1)
    best = int(np.argmax(gaps))
    eb.kernel.check_domain(eb.outcomes[0])
    witness, means = _witness(eb, parts[best], norms[best], R1, witness_id)
    threshold = AUDIT_THRESHOLD_FACTOR * epsilon
    gap = float(gaps[best])
    return AuditReport(
        found=gap > threshold,
        witness_loss=witness,
        witness_lossprime=pool[best],
        empirical_gap=gap,
        threshold=threshold,
        n_used=len(eb),
        candidate_pool_size=len(pool),
        batch_id=eb.batch_id,
        rule_probs=probs[best].copy(),
        residual_means=means,
    )


def decce_estimate(eb: EvaluatedBatch, *, pool, beta: float, R1: float) -> float:
    """Best witness-sup gap over the pool: a lower bound on the true decCE."""
    gaps = _gap_scan(eb, pool, beta, R1)[0]
    return float(np.max(gaps))


def random_loss_pool(
    spec: KernelSpec,
    Y: np.ndarray,
    n_actions: int,
    R1: float,
    size: int,
    rng: np.random.Generator,
    id_prefix: str = "rand",
) -> list[LossFunction]:
    """Random candidate losses anchored on observed outcomes: each action
    draws POOL_LOSS_SPAN distinct rows of Y (all of them when Y has fewer)
    with standard normal coefficients, and is rescaled to norm R1, or to
    zero where its norm is degenerate.

    The generator is read per loss and per action, `choice` then
    `standard_normal`.  The whole pool is merged at once: the drawn rows are
    deduplicated keyed by (loss, outcome) and summed by one `sum_rows`, the
    same sums in the same order as merging each loss alone, so every table
    is bitwise the one per-loss merging gives.  Each loss records the rows
    of Y it is anchored on (`LossFunction.anchor_rows`).
    """
    Y = as_outcomes(Y, spec.dim)
    n = len(Y)
    if n == 0:
        raise ValueError("need at least one outcome to anchor pool losses")
    spec.check_domain(Y)
    take = min(POOL_LOSS_SPAN, n)
    width = take * n_actions  # drawn rows per loss
    drawn = np.empty(size * width, dtype=np.intp)
    coeffs = np.zeros((size * width, n_actions))
    for k in range(size):
        for a in range(n_actions):
            at = slice((k * n_actions + a) * take, (k * n_actions + a + 1) * take)
            drawn[at] = rng.choice(n, size=take, replace=False)
            coeffs[at, a] = rng.standard_normal(take)
    # (loss, outcome) keys in order of first appearance: grouped by loss, and
    # within a loss in the order its own rows first appear
    distinct, outcome = distinct_rows(Y[drawn])
    key = np.arange(len(drawn)) // width * len(distinct) + outcome
    first, inverse = distinct_rows(key[:, None])
    merged = sum_rows(inverse, len(first), coeffs)
    rows = drawn[first]
    anchors = Y[rows]
    scale = np.sqrt(np.maximum(spec.diag(anchors), 0.0))
    keep = np.any(np.abs(merged) * scale[:, None] > 0.0, axis=1)
    owner = first[keep] // width
    rows, anchors, merged = rows[keep], anchors[keep], merged[keep]
    bounds = np.searchsorted(owner, np.arange(size + 1))
    tables = [slice(bounds[k], bounds[k + 1]) for k in range(size)]
    # per loss, as merging it alone computes them, for their bits
    norms = np.array([column_norms(spec, anchors[at], merged[at]) for at in tables])
    unit = _unit_columns(merged, norms.reshape(size, n_actions)[owner], R1)
    # Y is checked above, so its rows go into the tables unchecked
    return [
        LossFunction(f"{id_prefix}-{k:03d}", RkhsElement._of_checked(spec, anchors[at], unit[at]),
                     R1, anchor_rows=(Y, rows[at]))
        for k, at in enumerate(tables)
    ]
