"""Decision-calibration auditing.

The audit statistic for a pair (loss, lossprime) is the empirical mean of
sum_a <r_loss(a), phi(y) - p(x)> * k_a(x), where k is the smooth best
response induced by lossprime's estimated losses.  For a fixed lossprime the
loss side has a closed-form maximizer over the R1 ball: each action
coefficient is the rescaled per-action residual mean.  Auditing therefore
scans a pool of candidate lossprimes and takes the best closed-form witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    KernelSpec,
    RkhsElement,
    as_outcomes,
    check_spec,
    compress,
    merge_terms,
    span_gram,
    zero_element,
)
from .model import (
    DEGENERATE_NORM,
    EvaluatedBatch,
    LossFunction,
    SampleBatch,
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
    # the best candidate's rule on the batch (n, |A|) and raw residual means
    rule_probs: np.ndarray | None = None
    residual_rows: tuple[RkhsElement, ...] = ()


def batch_estimates(eb: EvaluatedBatch, loss: LossFunction) -> np.ndarray:
    """Estimated losses <r(a), p(x_i)> on the batch; (n, |A|)."""
    check_spec(eb.kernel, loss.spec)
    return eb.W @ loss.values(eb.anchors)


def rule_probabilities(eb: EvaluatedBatch, lossprime: LossFunction, beta: float) -> np.ndarray:
    """Smooth best-response probabilities on the batch; (n, |A|)."""
    return smooth_best_response(batch_estimates(eb, lossprime), beta)


def _residual_coeff_matrix(eb: EvaluatedBatch, B: np.ndarray) -> np.ndarray:
    """Coefficients of the weighted residual means over [Y; anchors].

    Column c of B weights the samples; the spanned element is
    (1/n) sum_i B[i, c] * (phi(y_i) - p(x_i)).
    """
    n = len(eb)
    return np.vstack([B / n, -(eb.W.T @ B) / n])


def _merged_coeffs(eb: EvaluatedBatch, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch's distinct points and the residual-mean coefficients over
    them; with every point distinct, the unmerged matrix as it is.

    Rows are summed onto their point in input order from 0.0, as compress's
    bincount does, so each column is bitwise what compress would give it.
    """
    points, inverse = eb.distinct_points
    C = _residual_coeff_matrix(eb, B)
    if len(points) == len(inverse):
        return points, C
    cols = C.shape[1]
    bins = (inverse[:, None] * cols + np.arange(cols)).ravel()
    merged = np.bincount(bins, weights=C.ravel(), minlength=len(points) * cols)
    return points, merged.reshape(len(points), cols)


def _require_samples(eb: EvaluatedBatch) -> None:
    if len(eb) == 0:
        raise ValueError("need at least one sample")


def _gap_scan(eb: EvaluatedBatch, pool, beta: float, R1: float):
    """Witness-sup gap, per-action residual norms and rule probabilities of
    every candidate lossprime, from one Gram pass over the batch's distinct
    points."""
    _require_samples(eb)
    if not pool:
        raise ValueError("candidate pool must be nonempty")
    counts = sorted({lp.n_actions for lp in pool})
    if len(counts) > 1:
        raise ValueError(f"candidate pool mixes action counts {counts}")
    probs = [rule_probabilities(eb, lp, beta) for lp in pool]
    gram = span_gram(eb.kernel, *_merged_coeffs(eb, np.hstack(probs)))
    norms = np.sqrt(np.clip(np.diag(gram), 0.0, None)).reshape(len(pool), -1)
    gaps = R1 * np.where(norms > DEGENERATE_NORM, norms, 0.0).sum(axis=1)
    return gaps, norms, probs


def _witness(eb: EvaluatedBatch, probs: np.ndarray, norms: np.ndarray, R1: float, loss_id: str):
    """One candidate's gap-maximizing loss and its raw residual means.

    Each action coefficient is the residual mean weighted by that action's
    rule probability, rescaled to norm R1 by its norm from the pooled scan,
    or zero where it is degenerate.
    """
    points, C = _merged_coeffs(eb, probs)
    means = tuple(compress(RkhsElement(eb.kernel, points, c)) for c in C.T)
    elements = [
        RkhsElement(el.spec, el.anchors, el.coeffs * (R1 / nv))
        if nv > DEGENERATE_NORM
        else zero_element(el.spec)
        for el, nv in zip(means, norms)
    ]
    return LossFunction(loss_id, tuple(elements), R1), means


def closed_form_witnesses(
    eb: EvaluatedBatch, pool, *, R1: float, beta: float, loss_ids
) -> list[LossFunction]:
    """The gap-maximizing loss at norm bound R1 for every candidate lossprime
    of the pool, from one scan of the batch; loss_ids name them in order.
    """
    _, norms, probs = _gap_scan(eb, pool, beta, R1)
    scanned = zip(probs, norms, loss_ids, strict=True)
    return [_witness(eb, P, nv, R1, lid)[0] for P, nv, lid in scanned]


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
    gaps, norms, probs = _gap_scan(eb, pool, beta, R1)
    best = int(np.argmax(gaps))
    witness, means = _witness(eb, probs[best], norms[best], R1, witness_id)
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
        rule_probs=probs[best],
        residual_rows=means,
    )


def decce_estimate(eb: EvaluatedBatch, *, pool, beta: float, R1: float) -> float:
    """Best witness-sup gap over the pool: a lower bound on the true decCE."""
    gaps, _, _ = _gap_scan(eb, pool, beta, R1)
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
    """Random candidate losses anchored on observed outcomes, each action
    coefficient normalized to norm R1 exactly.
    """
    Y = as_outcomes(Y, spec.dim)
    n = len(Y)
    if n == 0:
        raise ValueError("need at least one outcome to anchor pool losses")
    spec.check_domain(Y)
    pool = []
    for k in range(size):
        elements = []
        for _ in range(n_actions):
            take = min(POOL_LOSS_SPAN, n)
            idx = rng.choice(n, size=take, replace=False)
            anchors, coeffs = merge_terms(spec, Y[idx], rng.standard_normal(take))
            nv = np.sqrt(max(span_gram(spec, anchors, coeffs[:, None])[0, 0], 0.0))
            if nv <= DEGENERATE_NORM:
                elements.append(zero_element(spec))
            else:
                elements.append(RkhsElement(spec, anchors, coeffs * (R1 / nv)))
        pool.append(LossFunction(f"{id_prefix}-{k:03d}", tuple(elements), R1))
    return pool
