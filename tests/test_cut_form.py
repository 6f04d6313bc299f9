"""Cut forms: witnesses and patches read through the basis they were cut from.

A witness or patch the audit cuts carries its parts (U, BU, ZB) in memory,
and a plan that descends from the plan it was cut on reads its Gram
products through them.  Every other plan takes the dense path, which is
the reference these tests compare against.
"""

import contextlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import model
from decal.audit import AuditReport, _gap_scan, _witness, random_loss_pool
from decal.calibrate import CalibConfig, alg1_step, alg2_step
from decal.kernel import KernelSpec
from decal.model import (
    LossFunction, Predictor, SampleBatch, SimilarityBase, evaluate_batch, predictor_from_doc,
    predictor_to_doc,
)

SPECS = {
    "min": KernelSpec("min", 1, 1.5),
    "linear": KernelSpec("linear", 2, 1.0),
    "exp": KernelSpec("exp", 2, 2.0),
}
REL = 1e-12
N_BASE, N_BATCH, POOL, ROUNDS = 6, 14, 3, 3


@contextlib.contextmanager
def spy(owner, name):
    """Record the calls of owner.name while the block runs."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    setattr(owner, name, recording)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


def outcomes(spec, n, g):
    """Continuous outcomes inside the kernel's domain."""
    if spec.kind == "min":
        return g.uniform(0.0, 1.0, (n, 1))
    Y = g.standard_normal((n, spec.dim))
    radius = 0.9 * spec.domain_radius
    return Y * (radius * g.uniform(0.2, 1.0, (n, 1)) / np.linalg.norm(Y, axis=1, keepdims=True))


def close(got, want):
    """got equals want to REL relative to the largest entry of want."""
    return np.max(np.abs(got - want), initial=0.0) <= REL * np.max(np.abs(want), initial=0.0)


def cut(p, batch, cfg, witnesses, g, zero, wid):
    """One audit round on p with the best witness's column `zero` (if any)
    cut as degenerate; returns the witness and the patch record built from it."""
    eb = evaluate_batch(p, batch)
    pool = random_loss_pool(p.kernel, batch.Y, cfg.n_actions, cfg.R1, POOL, g) + witnesses
    gaps, norms, probs, parts = _gap_scan(eb, pool, cfg.beta, cfg.R1)
    best = int(np.argmax(gaps))
    nv = norms[best].copy()
    if zero is not None:
        nv[zero % cfg.n_actions] = 0.0
    witness, means = _witness(eb, parts[best], nv, cfg.R1, wid)
    report = AuditReport(True, witness, pool[best], float(gaps[best]), 0.0, len(eb), len(pool),
                         batch.batch_id, probs[best], means)
    step = alg1_step if cfg.algorithm == "alg1" else alg2_step
    return witness, step(report, config=cfg)


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    finite=st.booleans(),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_cut_forms_match_the_dense_path(kind, n_actions, finite, algorithm, zero, seed):
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), bandwidth=1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)
    # finite support shares rows with the base anchors, so U collides with them
    support = np.vstack([train[:3], outcomes(spec, 3, g)])

    def draw(t):
        Y = support[g.integers(len(support), size=N_BATCH)] if finite else outcomes(spec, N_BATCH, g)
        return SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")

    p = Predictor(spec, base)
    plans, witnesses = [p._plan], []
    for t in range(ROUNDS):
        witness, rec = cut(p, draw(t), cfg, witnesses, g, zero, f"w{t}")
        with spy(model, "gram_apply") as dense_rows:
            p = p.with_patch(rec)
        assert not dense_rows  # the rows were cut on this very plan
        plans.append(p._plan)
        witnesses.append(witness)
    last, rec_last = cut(p, draw(ROUNDS), cfg, witnesses, g, zero, "last")
    witnesses.append(last)

    # every witness on every plan descending from the one it was cut on
    for t, w in enumerate(witnesses):
        for plan in plans[t:]:
            with spy(LossFunction, "values") as dense:
                got = plan.lifted_values(w)
            assert not dense
            assert close(got, plan.lift(w.values(plan.anchors)))

    # every step against the plan of the predictor reloaded from JSON
    reloaded = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(p))))
    with spy(model, "gram_apply") as dense_rows:
        fresh = reloaded._plan
    assert len(dense_rows) == ROUNDS
    for mine, theirs in zip(p._plan.steps, fresh.steps, strict=True):
        assert close(mine.S, theirs.S)
        assert close(mine.table, theirs.table)

    # a sibling branch, an equal but distinct base and the reloaded chain
    # read `last` (cut on p) densely
    sibling = Predictor(spec, base, p.patches[:-1]).with_patch(rec_last)
    twin_base = SimilarityBase(spec, base.anchors, base.contexts, base.bandwidth)
    with spy(model, "gram_apply") as dense_rows:
        twin = Predictor(spec, twin_base, p.patches)._plan
    assert len(dense_rows) == ROUNDS
    for plan in (sibling._plan, twin, fresh):
        with spy(LossFunction, "values") as dense:
            got = plan.lifted_values(last)
        assert len(dense) == 1
        assert np.array_equal(got, plan.lift(last.values(plan.anchors)))
