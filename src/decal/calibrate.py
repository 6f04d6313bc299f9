"""Iterative decision-calibration of a predictor.

Each round draws a fresh audit batch, scans a candidate pool for the best
closed-form witness, and if the witness gap exceeds 3 * epsilon / 4 appends
one patch to the predictor: either the fixed-step adjustment rule (alg1,
step size eta = epsilon / (2 R1^2)) or the regularized least-squares update
(alg2, ridge weight RIDGE_LAMBDA).  The squared distance between predictions
and outcome features acts as the potential; on every audit batch the alg1
patch decreases it by at least 2 * eta * gap - eta^2 * R1^2 before
projection, and projection never increases it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .audit import AuditReport, audit, decce_estimate, random_loss_pool
from .kernel import RkhsElement
from .model import (
    EvaluatedBatch, LossFunction, PatchRecord, Predictor, SampleBatch, evaluate_batch,
)

TRACE_COLUMNS = (
    "iter",
    "gap",
    "pot_before",
    "pot_after",
    "witness_id",
    "witness_prime_id",
    "batch_id",
)

# Confidence parameter for the held-out potential slack reported with a run.
HELDOUT_DELTA = 0.01

RIDGE_LAMBDA = 1.0  # alg2's regularizer, fixed


class DataExhaustedError(RuntimeError):
    """A sample source ran out before calibration finished."""


@dataclass(frozen=True)
class CalibConfig:
    """Run parameters; eta and max_iters default to the analysis constants
    eta = epsilon / (2 R1^2) and max_iters = ceil(16 R1^2 R2^2 / epsilon^2).
    """

    epsilon: float
    beta: float
    R1: float
    R2: float
    n_actions: int
    algorithm: str = "alg1"
    eta: float | None = None
    max_iters: int | None = None
    audit_batch_size: int = 192
    pool_size: int = 32
    heldout_size: int = 768
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and >= 0")
        if not (self.R1 > 0 and self.R2 > 0):
            raise ValueError("R1 and R2 must be positive")
        if self.n_actions < 1:
            raise ValueError("n_actions must be >= 1")
        if self.algorithm not in ("alg1", "alg2"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        try:
            if self.eta is None:
                object.__setattr__(self, "eta", self.epsilon / (2.0 * self.R1**2))
            if self.max_iters is None:
                cap = math.ceil(16.0 * self.R1**2 * self.R2**2 / self.epsilon**2)
                object.__setattr__(self, "max_iters", cap)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"epsilon = {self.epsilon!r}, R1 = {self.R1!r}, R2 = {self.R2!r} give no finite"
                " eta = epsilon / (2 R1^2) or max_iters = ceil(16 R1^2 R2^2 / epsilon^2)"
            ) from exc
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta!r}")
        if self.algorithm == "alg1" and not math.isfinite((g := self.eta * self.R1) * g * g * g):
            raise ValueError(f"'eta' times 'R1' is {g!r}: alg1 rows of that norm have a Gram"
                             " matrix that squares past the float range")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("audit_batch_size", "pool_size", "heldout_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    gap: float
    pot_before: float
    pot_after: float
    witness_id: str
    witness_prime_id: str
    batch_id: str
    wall_ms: float  # in-memory timing only; deterministic outputs omit it


@dataclass
class CalibrationTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    terminal: str = "calibrated"  # calibrated | iteration_cap | error
    error: str = ""
    final_gap: float = float("nan")
    initial_heldout_potential: float = float("nan")
    final_heldout_potential: float = float("nan")
    final_heldout_decce: float = float("nan")
    heldout_size: int = 0

    def to_csv_rows(self) -> list[list]:
        """The header and one row of raw values per iteration."""
        rows = [list(TRACE_COLUMNS)]
        for r in self.iterations:
            rows.append([r.iteration, r.gap, r.pot_before, r.pot_after, r.witness_id,
                         r.witness_prime_id, r.batch_id])
        return rows

    def to_doc(self) -> dict:
        """Every field but the iterations, which to_csv_rows writes."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "iterations"}


def _potential_eb(eb: EvaluatedBatch) -> float:
    """Ehat[ ||phi(y) - p(x)||^2 ] on an evaluated batch, through the basis."""
    inner_py = np.einsum("ij,ji->i", eb.Z, eb.K_FU[:, eb.outcomes[1]])
    return float(np.mean(eb.plan.spec.diag(eb.Y) - 2.0 * inner_py + eb.pnorm2))


def potential(p: Predictor, batch: SampleBatch) -> float:
    """Mean squared feature-space distance between predictions and outcomes."""
    return _potential_eb(evaluate_batch(p, batch))


def alg1_step(report: AuditReport, *, config: CalibConfig) -> PatchRecord:
    """Fixed-step patch: the audited witness scaled by eta, so each action's
    row is its residual mean rescaled to norm eta * R1 (zero for degenerate
    directions), mixed by the identity: the witness's cut form, step scaled.
    """
    if not report.found:
        raise ValueError("alg1_step requires a report with found=True")
    witness = report.witness_loss
    form = witness.span.form
    step = config.eta * config.R1 / witness.R1
    return PatchRecord(
        "alg1",
        report.witness_lossprime,
        config.beta,
        RkhsElement._cut(witness.span.spec, replace(form, step=form.step * step)),
        batch_id=report.batch_id,
        eta=config.eta,
    )


def alg2_step(report: AuditReport, *, config: CalibConfig) -> PatchRecord:
    """Regularized least-squares patch from the audited rule probabilities.

    Dhat[a, b] = Ehat[k_a k_b], mixing = (Dhat + RIDGE_LAMBDA * I)^-1, and
    the rows are the raw per-action residual means, the witness's cut form
    with unit 1 and step 1; the replayed update at x is rows^T @ mixing @ k(x).
    """
    if not report.found:
        raise ValueError("alg2_step requires a report with found=True")
    kprobs = report.rule_probs
    dhat = (kprobs.T @ kprobs) / report.n_used
    mixing = np.linalg.inv(dhat + RIDGE_LAMBDA * np.eye(kprobs.shape[1]))
    mixing = (mixing + mixing.T) / 2.0  # keep the inverse exactly symmetric
    span, form = report.witness_loss.span, report.witness_loss.span.form
    return PatchRecord(
        "alg2",
        report.witness_lossprime,
        config.beta,
        RkhsElement._cut(span.spec, replace(form, unit=np.ones_like(form.unit), step=1.0)),
        batch_id=report.batch_id,
        mixing=mixing,
    )


def _dedup_losses(losses) -> list[LossFunction]:
    first: dict[str, LossFunction] = {}
    for l in losses:
        first.setdefault(l.loss_id, l)
    return list(first.values())


def run_calibration(
    p0: Predictor,
    source,
    config: CalibConfig,
    user_losses=(),
) -> tuple[Predictor, CalibrationTrace]:
    """Audit-and-patch until no witness crosses the threshold.

    `source.take(n)` must yield a fresh SampleBatch per call (sample
    splitting); a held-out batch is drawn first and scored before and after.
    Candidate pools are re-seeded per iteration from config.seed and carry
    every previously found witness plus any user-registered losses.
    """
    trace = CalibrationTrace()
    try:
        heldout = source.take(config.heldout_size)
    except DataExhaustedError as exc:
        trace.terminal = "error"
        trace.error = str(exc)
        return p0, trace
    trace.heldout_size = len(heldout)
    trace.initial_heldout_potential = potential(p0, heldout)

    p = p0
    witnesses: list[LossFunction] = []

    def candidate_pool(Y, key: int) -> list[LossFunction]:
        """Random losses from the key-th child of SeedSequence(seed), then the
        witnesses found so far and the user losses; the first of an id wins."""
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(key,)))
        drawn = random_loss_pool(p0.kernel, Y, config.n_actions, config.R1, config.pool_size, rng)
        return _dedup_losses(drawn + witnesses + list(user_losses))

    trace.terminal = "iteration_cap"
    for t in range(config.max_iters):
        started = time.perf_counter()
        try:
            batch = source.take(config.audit_batch_size)
        except DataExhaustedError as exc:
            trace.terminal = "error"
            trace.error = str(exc)
            break
        eb = evaluate_batch(p, batch)
        report = audit(
            eb,
            epsilon=config.epsilon,
            pool=candidate_pool(batch.Y, t),
            beta=config.beta,
            R1=config.R1,
            witness_id=f"it{t:03d}-star",
        )
        if not report.found:
            trace.terminal = "calibrated"
            trace.final_gap = report.empirical_gap
            break
        pot_before = _potential_eb(eb)
        step = alg1_step if config.algorithm == "alg1" else alg2_step
        p_next = p.with_patch(step(report, config=config))
        pot_after = _potential_eb(evaluate_batch(p_next, batch))
        trace.iterations.append(
            IterationRecord(
                iteration=t,
                gap=report.empirical_gap,
                pot_before=pot_before,
                pot_after=pot_after,
                witness_id=report.witness_loss.loss_id,
                witness_prime_id=report.witness_lossprime.loss_id,
                batch_id=batch.batch_id,
                wall_ms=(time.perf_counter() - started) * 1e3,
            )
        )
        witnesses.append(report.witness_loss)
        p = p_next

    heldout_eb = evaluate_batch(p, heldout)
    trace.final_heldout_potential = _potential_eb(heldout_eb)
    trace.final_heldout_decce = decce_estimate(
        heldout_eb, pool=candidate_pool(heldout.Y, config.max_iters), beta=config.beta,
        R1=config.R1,
    )
    return p, trace
