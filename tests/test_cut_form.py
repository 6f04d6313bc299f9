"""Cut forms: witnesses and patches read through the basis they were cut from.

A witness or patch the audit cuts carries its parts (U, BU, ZB) in memory,
and a plan that descends from the plan it was cut on reads its Gram
products through them.  Every other plan reads a witness densely, which is
the reference these tests compare against, and appends a patch as the form
over its own anchors, so no append reads the anchors' N x N Gram matrix.
"""

import base64
import contextlib
import copy
import dataclasses
import functools
import gc
import importlib
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import model
from decal.audit import (
    AuditReport, _gap_scan, _witness, audit, closed_form_witnesses, empirical_gap, random_loss_pool,
)
from decal.calibrate import CalibConfig, _potential_eb, alg1_step, alg2_step, run_calibration
from decal.kernel import KernelMismatchError, KernelSpec, RkhsElement, sum_rows
from decal.model import (
    DEGENERATE_NORM, ConstantBase, LossFunction, PatchRecord, Predictor, SampleBatch,
    SimilarityBase, cut_span, evaluate_batch, load_loss, load_predictor,
    loss_file_doc, predictor_from_doc, predictor_to_doc, save_predictor, smooth_best_response,
)
from decal.synth import AffineMap, ContextSpec, SynthSpec, SyntheticSource, planted_bias_instance
from docs import as_cut1
from spans import dense_rows, gram_entries, replay, spy

SPECS = {
    "min": KernelSpec("min", 1, 1.5),
    "linear": KernelSpec("linear", 2, 1.0),
    "exp": KernelSpec("exp", 2, 2.0),
}
REL = 1e-12
N_BASE, N_BATCH, POOL, ROUNDS = 6, 14, 3, 3


def own_anchor_reads(grams, records):
    """The records whose rows one of the KernelSpec.gram calls `grams` (as
    `spy` records them) read over the rows' own anchors, as its second point
    list, rather than through their cut form."""
    return [rec for rec in records if any(args[2] is rec.rows.anchors for args in grams)]


def outcomes(spec, n, g):
    """Continuous outcomes inside the kernel's domain."""
    if spec.kind == "min":
        return g.uniform(0.0, 1.0, (n, 1))
    Y = g.standard_normal((n, spec.dim))
    radius = 0.9 * spec.domain_radius
    return Y * (radius * g.uniform(0.2, 1.0, (n, 1)) / np.linalg.norm(Y, axis=1, keepdims=True))


def close(got, want, size=None):
    """got equals want to REL relative to the largest entry of want, or of
    `size` when given."""
    size = np.abs(want) if size is None else size
    return np.max(np.abs(got - want), initial=0.0) <= REL * np.max(size, initial=0.0)


def cut(p, batch, cfg, witnesses, g, zero, wid, pool=None):
    """One audit round on p, by default over random losses and the witnesses,
    with the best witness's column `zero` (if any) cut as degenerate; returns
    the witness and the patch record built from it."""
    eb = evaluate_batch(p, batch)
    if pool is None:
        pool = random_loss_pool(p.kernel, batch.Y, cfg.n_actions, cfg.R1, POOL, g) + witnesses
    gaps, norms, probs, parts = _gap_scan(eb, pool, cfg.beta, cfg.R1)
    best = int(np.argmax(gaps))
    nv = norms[best].copy()
    if zero is not None:
        nv[zero % cfg.n_actions] = 0.0
    witness = _witness(eb, parts[best], nv, cfg.R1, wid)
    report = AuditReport(True, witness, pool[best], float(gaps[best]), 0.0, len(eb), len(pool),
                         batch.batch_id, probs[best])
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
@settings(max_examples=40)
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
        with spy(KernelSpec, "gram") as grams:
            p = p.with_patch(rec)
        assert not own_anchor_reads(grams, [rec])  # the rows were cut on this very plan
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

    # the predictor reloaded from JSON folds its cut patches by the same path
    with spy(KernelSpec, "gram") as grams:
        fresh = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(p))))._plan
    assert not own_anchor_reads(grams, fresh.lineage[1])
    for mine, theirs in zip(p._plan.steps, fresh.steps, strict=True):
        assert np.array_equal(mine.S, theirs.S)
        assert np.array_equal(mine.table, theirs.table)

    # a sibling branch and an equal but distinct base append their records
    # over their own anchors, and they and the reloaded chain read `last`
    # (cut on p) densely
    with spy(KernelSpec, "gram") as grams:
        sibling = Predictor(spec, base, p.patches[:-1]).with_patch(rec_last)
    assert own_anchor_reads(grams, sibling.patches) == [rec_last]
    twin_base = SimilarityBase(spec, base.anchors, base.contexts, base.bandwidth)
    with spy(KernelSpec, "gram") as grams:
        twin = Predictor(spec, twin_base, p.patches)._plan
    assert own_anchor_reads(grams, p.patches) == list(p.patches)
    for plan in (sibling._plan, twin, fresh):
        with spy(LossFunction, "values") as dense:
            got = plan.lifted_values(last)
        assert len(dense) == 1
        assert np.array_equal(got, plan.lift(last.values(plan.anchors)))


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_every_witness_of_a_scan_is_read_through_its_form(kind, n_actions, algorithm, zero,
                                                          finite, seed):
    """Every witness a scan cuts, the one that became the patch and those
    that became none, is read by `lifted_values` on the plan it was cut on
    and on every plan descending from it through its form, with no dense
    read and no table, and equals the dense lift F @ values(anchors) to REL
    of its largest entry: with degenerate columns and, with `finite`,
    outcomes shared with the base anchors."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)
    support = np.vstack([train[:3], outcomes(spec, 3, g)])
    p, plans, scans = Predictor(spec, base), [], []
    for t in range(ROUNDS):
        Y = support[g.integers(len(support), size=N_BATCH)] if finite else outcomes(spec, N_BATCH, g)
        batch = SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")
        eb = evaluate_batch(p, batch)
        pool = random_loss_pool(spec, batch.Y, n_actions, cfg.R1, POOL + 1, g)
        gaps, norms, probs, parts = _gap_scan(eb, pool, cfg.beta, cfg.R1)
        scan = []
        for i in range(len(pool)):
            nv = norms[i].copy()
            if zero is not None:
                nv[zero % n_actions] = 0.0
            scan.append(_witness(eb, parts[i], nv, cfg.R1, f"w{t}.{i}"))
        best = int(np.argmax(gaps))
        report = AuditReport(True, scan[best], pool[best], float(gaps[best]), 0.0, len(eb),
                             len(pool), batch.batch_id, probs[best])
        plans.append(p._plan)
        scans.append(scan)
        p = p.with_patch((alg1_step if algorithm == "alg1" else alg2_step)(report, config=cfg))
    plans.append(p._plan)
    for t, scan in enumerate(scans):
        for plan in plans[t:]:
            with spy(LossFunction, "values") as dense, spy(model.CutForm, "table") as tables:
                got = [plan.lifted_values(w) for w in scan]
            assert not dense and not tables
            for w, lifted in zip(scan, got):
                assert close(lifted, plan.lift(w.values(plan.anchors)))


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_batch_block_values_match_the_dense_table(kind, n_actions, algorithm, zero, finite, seed):
    """A cut span's values on an evaluated batch, read off the batch's own
    blocks (`EvaluatedBatch.values`), equal its table's `values(eb.Y)` to REL
    of each column's largest |value|: for witnesses and the patch rows cut
    from them (alg1's scaled step, alg2's unit scales), cut on unpatched and
    patched lineages, read on the batch each was cut on, on a fresh batch
    of that plan and on every plan descending from it, with degenerate
    columns and, with `finite`, repeated outcomes and +-0.0 rows."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)
    support = np.vstack([train[:2], signed_support(spec, g)])

    def draw(t):
        Y = support[g.integers(len(support), size=N_BATCH)] if finite else outcomes(spec, N_BATCH, g)
        return SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")

    p, preds, cuts, witnesses = Predictor(spec, base), [], [], []
    for t in range(ROUNDS):
        batch = draw(t)
        witness, rec = cut(p, batch, cfg, witnesses, g, zero, f"w{t}")
        cuts.append((batch, [witness, LossFunction(f"rows{t}", rec.rows, cfg.R1)]))
        preds.append(p)
        p = p.with_patch(rec)
        witnesses.append(witness)
    preds.append(p)
    assert any(w.span.form.lineage[1] for w in witnesses)  # patched lineages too
    for t, (batch, losses) in enumerate(cuts):
        for q in preds[t:]:
            for b in (batch, draw(ROUNDS)):
                eb = evaluate_batch(q, b)
                for loss in losses:
                    want = loss.values(eb.Y)
                    size = np.abs(want).max(axis=0)
                    assert np.all(np.abs(eb.values(loss) - want) <= REL * size)


def signed_support(spec, g):
    """Nine outcomes: three drawn, then each again with its first coordinate
    set to 0.0 and to -0.0, which compare unequal bitwise but not as numbers."""
    rows = outcomes(spec, 3, g)
    pos, neg = rows.copy(), rows.copy()
    pos[:, 0], neg[:, 0] = 0.0, -0.0
    return np.vstack([rows, pos, neg])


def dense_scan(eb, pool, beta):
    """The pool scan one candidate at a time from its dense values: each
    rule probability matrix, the residual-mean parts BU and ZB, and the three
    terms of the squared norms, BU^T K_UU BU, BU^T K_FU^T ZB and
    ZB^T gram_F ZB, per column."""
    plan = eb.plan
    probs = [smooth_best_response(eb.Z @ plan.lift(lp.values(plan.anchors)), beta) for lp in pool]
    B = np.hstack(probs)
    U, inverse = eb.outcomes
    BU = sum_rows(inverse, len(U), B / len(B))
    ZB = eb.Z.T @ B / len(B)
    terms = (np.einsum("ij,ij->j", BU, eb.K_UU @ BU), np.einsum("ij,ij->j", eb.K_FU @ BU, ZB),
             np.einsum("ij,ij->j", ZB, plan.gram_F @ ZB))
    return probs, BU, ZB, terms


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    finite=st.booleans(),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_batch_routes_match_the_dense_path(kind, n_actions, finite, depth, seed):
    """Pool losses read off K_FU, the batched scan, and witnesses read on
    plans 1 to `depth` plies below the one they were cut on agree with the
    dense path to REL, on batches with repeated outcomes and +-0.0 rows.  A
    witness read on a plan extended patch by patch is bitwise the one a
    fresh plan of the same records reads.  A pool drawn on another batch is
    read densely, and a pool over another kernel is refused."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), bandwidth=1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions)
    support = np.vstack([train[:2], signed_support(spec, g)])

    def draw(t):
        if finite:
            Y = support[g.integers(len(support), size=N_BATCH)]
        else:
            Y = np.vstack([outcomes(spec, N_BATCH - 4, g),
                           support[g.integers(len(support), size=4)]])
        return SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")

    p, plans, witnesses = Predictor(spec, base), [], []
    for t in range(depth):
        witness, rec = cut(p, draw(t), cfg, witnesses, g, None, f"w{t}")
        plans.append(p._plan)
        p = p.with_patch(rec)
        witnesses.append(witness)
    plans.append(p._plan)

    # witnesses on every plan below the one they were cut on
    for t, w in enumerate(witnesses):
        for j, plan in enumerate(plans[t + 1 :], start=t + 1):
            with spy(LossFunction, "values") as dense:
                got = plan.lifted_values(w)
            assert not dense
            assert close(got, plan.lift(w.values(plan.anchors)))
            fresh = Predictor(spec, base, p.patches[:j])._plan
            assert fresh.lifted_values(w).tobytes() == got.tobytes()

    # the pool of the last batch through K_FU, then the batched scan
    batch = draw(depth)
    eb = evaluate_batch(p, batch)
    drawn = random_loss_pool(spec, batch.Y, n_actions, cfg.R1, POOL, g)
    plan = eb.plan
    with spy(LossFunction, "values") as dense:
        routed = [eb.lifted(loss) for loss in drawn]
    assert not dense
    for got, loss in zip(routed, drawn):
        assert close(got, plan.lift(loss.values(plan.anchors)))
    pool = drawn + witnesses
    gaps, norms, probs, parts = _gap_scan(eb, pool, cfg.beta, cfg.R1)
    want_probs, BU, ZB, (uu, fu, ff) = dense_scan(eb, pool, cfg.beta)
    for got, want in zip(probs, want_probs):
        assert np.max(np.abs(got - want)) <= REL
    assert close(np.hstack([part[0] for part in parts]), BU)
    assert close(np.hstack([part[1] for part in parts]), ZB)
    slack = REL * (np.abs(uu) + 2.0 * np.abs(fu) + np.abs(ff)) + 1e-300
    assert np.all(np.abs(norms.ravel() ** 2 - np.clip(uu - 2.0 * fu + ff, 0.0, None)) <= slack)
    assert np.all(np.abs(gaps - cfg.R1 * np.where(norms > DEGENERATE_NORM, norms, 0.0).sum(axis=1))
                  <= cfg.R1 * np.sqrt(slack).reshape(norms.shape).sum(axis=1))

    # fallbacks: a pool drawn on another batch, and one over another kernel
    other = random_loss_pool(spec, draw(depth + 1).Y, n_actions, cfg.R1, 1, g)[0]
    with spy(LossFunction, "values") as dense:
        got = eb.lifted(other)
    assert len(dense) == 1
    assert got.tobytes() == plan.lift(other.values(plan.anchors)).tobytes()
    wider = KernelSpec(spec.kind, spec.dim, 2.0 * spec.R2)
    with pytest.raises(KernelMismatchError):
        _gap_scan(eb, random_loss_pool(wider, batch.Y, n_actions, cfg.R1, 2, g), cfg.beta, cfg.R1)


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    finite=st.booleans(),
    depth=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_a_drawn_loss_is_read_off_its_own_batch(kind, n_actions, finite, depth, seed):
    """`EvaluatedBatch.lifted` reads a loss drawn on the batch off its K_FU,
    within REL of the plan's dense read and with no kernel call once K_FU
    is built, on unpatched and patched plans and batches with repeated
    outcomes; on another batch it is the dense read, bit for bit.
    `empirical_gap` of a (witness, drawn lossprime) pair reads the
    lossprime the same way, with no kernel block of its own, and agrees
    with the gap of the same lossprime read densely."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), bandwidth=1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions)
    support = np.vstack([train[:2], signed_support(spec, g)])

    def draw(t):
        fresh = 0 if finite else N_BATCH - 4
        Y = np.vstack([outcomes(spec, fresh, g),
                       support[g.integers(len(support), size=N_BATCH - fresh)]])
        return SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")

    p, witnesses = Predictor(spec, base), []
    for t in range(depth):
        witness, rec = cut(p, draw(t), cfg, witnesses, g, None, f"w{t}")
        p = p.with_patch(rec)
        witnesses.append(witness)
    batch = draw(depth)
    eb, plan = evaluate_batch(p, batch), p._plan
    drawn = random_loss_pool(spec, batch.Y, n_actions, cfg.R1, POOL, g)
    assert eb.K_FU.shape == (plan.k, len(eb.outcomes[0]))
    with spy(KernelSpec, "gram") as grams:
        lifted = [eb.lifted(loss) for loss in drawn]
    assert not grams
    for got, loss in zip(lifted, drawn):
        assert close(got, plan.lifted_values(loss))
    elsewhere = evaluate_batch(p, draw(depth + 1))
    for loss in drawn:
        assert elsewhere.lifted(loss).tobytes() == plan.lifted_values(loss).tobytes()

    ids = [f"star-{lp.loss_id}" for lp in drawn]
    pairs = list(zip(closed_form_witnesses(eb, drawn, R1=cfg.R1, beta=cfg.beta, loss_ids=ids),
                     drawn))
    with spy(KernelSpec, "gram") as grams, spy(LossFunction, "values") as dense:
        gaps = [empirical_gap(eb, w, lp, beta=cfg.beta) for w, lp in pairs]
    assert not [args for args in dense if any(args[0] is lp for lp in drawn)]
    assert not [args for args in grams if any(args[i] is lp.span.anchors
                                               for lp in drawn for i in (1, 2))]
    for gap, (w, lp) in zip(gaps, pairs):
        plain = LossFunction(lp.loss_id, lp.span, lp.R1)  # no anchor rows: read densely
        want = empirical_gap(eb, w, plain, beta=cfg.beta)
        assert abs(gap - want) <= REL * max(1.0, want)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_round_reads_only_the_kernel_entries_it_adds(kind):
    """A scan of drawn pool losses reads no kernel entries beyond K_UU and
    K_FU, and a witness carried onto a child plan reads none: it is its
    patch's column block of F G F^T."""
    spec = SPECS[kind]
    g = np.random.default_rng(31)
    base = SimilarityBase(spec, outcomes(spec, 40, g), g.standard_normal((40, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2)

    def draw(t):
        return SampleBatch(g.standard_normal((60, 2)), outcomes(spec, 60, g), f"b{t}")

    p, batch = Predictor(spec, base), draw(0)
    eb = evaluate_batch(p, batch)
    pool = random_loss_pool(spec, batch.Y, 2, cfg.R1, 16, g)
    with spy(KernelSpec, "gram") as grams:
        _gap_scan(eb, pool, cfg.beta, cfg.R1)
    U = eb.outcomes[0]
    assert gram_entries(grams) == len(U) ** 2 + len(p.anchors) * len(U)

    witnesses = []
    for t in range(3):
        witness, rec = cut(p, draw(t), cfg, witnesses, g, None, f"w{t}")
        child = p.with_patch(rec)
        witnesses.append(witness)
        new = len(child.anchors) - len(p.anchors)
        assert 0 < new < len(child.anchors)
        for w in witnesses:
            with spy(KernelSpec, "gram") as grams:
                child._plan.lifted_values(w)
            assert gram_entries(grams) == 0
        p = child


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_round_reuses_the_blocks_its_scan_built(kind):
    """After a scan built K_FU, appending a patch cut on that batch reads no
    K(anchors, U) again, only K(U, U) and its lossprime's entries, and the
    batch carried through the new patch continues K_FU at K(step's points,
    U), to the bits of a fresh lift."""
    spec = SPECS[kind]
    g = np.random.default_rng(31)
    base = SimilarityBase(spec, outcomes(spec, 40, g), g.standard_normal((40, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.01, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2)
    p, witnesses = Predictor(spec, base), []
    for t in range(3):
        batch = SampleBatch(g.standard_normal((60, 2)), outcomes(spec, 60, g), f"b{t}")
        eb = evaluate_batch(p, batch)
        pool = random_loss_pool(spec, batch.Y, 2, cfg.R1, POOL, g) + witnesses
        report = audit(eb, epsilon=cfg.epsilon, pool=pool, beta=cfg.beta, R1=cfg.R1,
                       witness_id=f"w{t}")
        rec, U = alg1_step(report, config=cfg), eb.outcomes[0]
        assert rec.rows.form.U is U and "K_FU" in eb.__dict__
        with spy(KernelSpec, "gram") as grams:
            q = p.with_patch(rec)
        lossprime = len(rec.witness_lossprime.span.anchors)
        assert gram_entries(grams) <= len(U) ** 2 + len(p.anchors) * lossprime
        with spy(KernelSpec, "gram") as grams:
            K_FU = evaluate_batch(q, batch).K_FU
        assert gram_entries(grams) == (len(q.anchors) - len(p.anchors)) * len(U)
        assert K_FU.tobytes() == q._plan.lift(spec.gram(q.anchors, U)).tobytes()
        witnesses.append(report.witness_loss)
        p = q


@given(
    kind=st.sampled_from(sorted(SPECS)),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    n=st.sampled_from([1, 511, 512, 513, 1025]),
    blocks=st.booleans(),
    via=st.booleans(),
    push=st.booleans(),
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40)
def test_a_carried_evaluation_is_a_fresh_replay(kind, algorithm, n, blocks, via, push, finite,
                                                seed):
    """A batch evaluated on p0 (and, with `via`, on its child) and then on
    the end of a chain of 3 cut patches is carried through the new steps
    with no replay, and its Z, pnorm2, K_FU, K_UU and potential are a fresh
    batch's full replay bit for bit, at n one short of, at and one past a
    REPLAY_BLOCK boundary.  With `blocks`, p0's evaluation built its kernel
    blocks first, which the carry keeps (K_UU) or lifts through the new
    steps' rows (K_FU); with `push`, alg1 rows of norm 3 R2 project rows in
    the carry.  A repeated evaluation is the same object; a loaded or a
    sibling predictor, and the chain's end after the sibling, replay the
    batch in full."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    base = SimilarityBase(spec, outcomes(spec, N_BASE, g), g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2, algorithm=algorithm,
                      eta=3.0 * spec.R2 if push else None)
    support = outcomes(spec, 5, g)

    def draw(m, name):
        Y = support[g.integers(len(support), size=m)] if finite else outcomes(spec, m, g)
        return SampleBatch(g.standard_normal((m, 2)), Y, name)

    ps = [Predictor(spec, base)]
    for t in range(3):
        ps.append(ps[-1].with_patch(cut(ps[-1], draw(N_BATCH, f"b{t}"), cfg, [], g, None, f"w{t}")[1]))
    p, batch = ps[-1], draw(n, "held")
    for q in ps[:2] if via else ps[:1]:
        first = evaluate_batch(q, batch)
        if blocks:
            first.K_UU, _potential_eb(first)
    with spy(Predictor, "_replay_rows") as replays:
        eb = evaluate_batch(p, batch)
    assert not replays
    assert ("K_FU" in eb.__dict__) == ("K_UU" in eb.__dict__) == blocks
    assert not blocks or eb.K_UU is first.K_UU
    want = evaluate_batch(p, SampleBatch(batch.X, batch.Y, "held"))
    assert _potential_eb(eb) == _potential_eb(want)
    for name in ("Z", "pnorm2", "K_FU", "K_UU"):
        assert getattr(eb, name).tobytes() == getattr(want, name).tobytes(), name
    assert evaluate_batch(p, batch) is eb

    sibling = ps[2].with_patch(cut(ps[2], draw(N_BATCH, "twin"), cfg, [], g, None, "twin")[1])
    loaded = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(p))))
    for q in (loaded, sibling, p):
        with spy(Predictor, "_replay_rows") as replays:
            got = evaluate_batch(q, batch)
        assert [args[0] for args in replays] == [q] * len(model._row_blocks(n))
        assert got.plan is q._plan and batch._evaluated is got
        if q is not sibling:
            assert got.Z.tobytes() == want.Z.tobytes()


def test_a_plan_holds_no_fold_of_a_witness_it_read():
    """A plan keeps nothing of a witness it read, so a long-lived plan
    audited again and again does not keep every witness read on it alive."""
    spec = SPECS["min"]
    g = np.random.default_rng(37)
    base = SimilarityBase(spec, outcomes(spec, N_BASE, g), g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2)
    p = Predictor(spec, base)
    p = p.with_patch(cut(p, SampleBatch(g.standard_normal((N_BATCH, 2)), outcomes(spec, N_BATCH, g),
                                        "b0"), cfg, [], g, None, "w0")[1])
    witness = cut(p, SampleBatch(g.standard_normal((N_BATCH, 2)), outcomes(spec, N_BATCH, g), "b1"),
                  cfg, [], g, None, "w1")[0]
    p._plan.lifted_values(witness)
    form = weakref.ref(witness.span.form)
    del witness
    gc.collect()
    assert form() is None


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_hand_built_record_appends_without_the_square_gram(kind):
    """Appending a hand-built record of M anchors to a plan of N anchors
    reads N M + M M kernel entries for its rows and N M' for its lossprime's
    M' anchors, not the (N + M)^2 of the grown anchors' Gram matrix, and
    gives the dense step: S = R G R^T and table = F [V | G R^T]."""
    spec, n, m = SPECS[kind], 400, 3
    g = np.random.default_rng(17)
    base = SimilarityBase(spec, outcomes(spec, n, g), g.standard_normal((n, 2)), 1.0)
    p = Predictor(spec, base)
    assert p._plan.k == n
    lossprime = random_loss_pool(spec, outcomes(spec, N_BATCH, g), 2, 1.0, 1, g)[0]
    rows = RkhsElement(spec, outcomes(spec, m, g), g.standard_normal((m, 2)))
    with spy(KernelSpec, "gram") as grams:
        q = p.with_patch(PatchRecord("alg1", lossprime, 4.0, rows, "hand", eta=0.1))
    entries = gram_entries(grams)
    assert entries <= n * m + m * m + n * len(lossprime.span.anchors)
    step, R, G = q._plan.steps[0], dense_rows(q._plan, 0), spec.gram(q.anchors, q.anchors)
    assert close(step.S, R @ G @ R.T)
    assert close(step.table, np.hstack([lossprime.values(p.anchors), G[:n] @ R.T]))


def chain(spec, algorithm, n_actions, g, zero=None, witnesses_only=False, finite=False,
          base=None):
    """A calibrated chain of cut patches with a hand-built dense patch after
    the first and, last but one, a record cut on a sibling branch; returns
    the predictor, the indices of its dense records and the random losses.
    With `finite`, every outcome and hand-built anchor is drawn from two base
    anchors and a signed support, so points repeat and +-0.0 rows occur.
    The base is `base`, by default a similarity base on fresh outcomes."""
    train = outcomes(spec, N_BASE, g)
    similarity = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), 1.0)
    base = similarity if base is None else base
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)
    support = np.vstack([train[:2], signed_support(spec, g)]) if finite else None

    def points(n):
        return outcomes(spec, n, g) if support is None else support[g.integers(len(support), size=n)]

    def draw(t):
        return SampleBatch(g.standard_normal((N_BATCH, 2)), points(N_BATCH), f"b{t}")

    def round_on(p, t, witnesses):
        # a pool of witnesses alone carries one as the lossprime
        pool = witnesses if witnesses_only and witnesses else None
        return cut(p, draw(t), cfg, witnesses, g, zero, f"w{t}", pool)

    p, witnesses, randoms = Predictor(spec, base), [], []
    for t in range(ROUNDS):
        witness, rec = round_on(p, t, witnesses)
        p = p.with_patch(rec)
        witnesses.append(witness)
        if t == 0:
            lossprime = random_loss_pool(spec, draw(t).Y, n_actions, cfg.R1, 1, g)[0]
            rows = g.standard_normal((3, n_actions)) * 0.1
            kw = {"eta": cfg.eta} if algorithm == "alg1" else {"mixing": 0.8 * np.eye(n_actions)}
            p = p.with_patch(PatchRecord(algorithm, lossprime, cfg.beta,
                                         RkhsElement(spec, points(3), rows), "hand", **kw))
            randoms.append(lossprime)
    _, forked = round_on(p, ROUNDS, witnesses)
    p = Predictor(spec, base, p.patches[:-1]).with_patch(forked)
    p = p.with_patch(round_on(p, ROUNDS + 1, witnesses)[1])
    return p, (1, len(p.patches) - 2), randoms


def table_lift(p, values_at):
    """F @ X from the records' own anchor tables, with X's rows at any points
    given by values_at(points): the rows at the base anchors, then for each
    record its coefficients against X's rows at its table's anchors.  Also
    returns the same product over the tables' and X's absolute values: the
    size of the terms each entry sums, which can cancel far below it."""
    X = values_at(p._plan.anchors[: p._plan.n_base])
    pairs = [(rec.rows.coeffs.T, values_at(rec.rows.anchors)) for rec in p.patches]
    return (np.vstack([X] + [C @ V for C, V in pairs]),
            np.vstack([np.abs(X)] + [np.abs(C) @ np.abs(V) for C, V in pairs]))


def close_by_block(plan, got, want, size):
    """got equals want to REL relative to the largest term `size` that an
    entry sums, for each row block of the plan's basis: the base's rows, then
    each step's |A| rows."""
    bounds = [(0, plan.n_base)] + [(st.k, st.k + len(st.M)) for st in plan.steps]
    return all(close(got[i:j], want[i:j], size[i:j]) for i, j in bounds)


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    finite=st.booleans(),
    witnesses_only=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_step_forms_match_the_record_tables(kind, n_actions, algorithm, zero, finite,
                                            witnesses_only, seed):
    """Each plan step's form spans its record's rows: against the records'
    own anchor tables, at REL of the terms that each entry sums, a step's
    rows lifted over points Y equal its record's values at Y, Z @ F expanded
    over the anchors gives Z's values at Y, and every lossprime's values on
    the basis, through F G F^T or densely, are the tables' too.  The chain
    holds cut, hand-built and sibling-branch records, over repeated and
    +-0.0 outcomes with `finite`."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    p, _, randoms = chain(spec, algorithm, n_actions, g, zero, witnesses_only, finite)
    plan = p._plan
    Y = np.vstack([outcomes(spec, 5, g), plan.anchors[g.integers(len(plan.anchors), size=3)]])
    lifted = plan.lift(spec.gram(plan.anchors, Y))
    want, size = table_lift(p, lambda pts: spec.gram(pts, Y))
    for step, rec in zip(plan.steps, p.patches, strict=True):
        block = slice(step.k, step.k + len(step.M))
        assert close(lifted[block], rec.rows.values(Y).T, size[block])
    assert close_by_block(plan, lifted, want, size)
    Z = g.standard_normal((4, plan.k))
    assert close(plan.expand(Z) @ spec.gram(plan.anchors, Y), Z @ want, np.abs(Z) @ size)
    for loss in randoms + [rec.witness_lossprime for rec in p.patches]:
        assert close_by_block(plan, plan.lifted_values(loss), *table_lift(p, loss.values))


def form_points(plan, rec):
    """The distinct points of the form a plan step was built from: the
    record's cut form when it was cut on the plan, else its own anchors."""
    U = rec.rows.form.U if plan.descends(rec.rows.form) else rec.rows.anchors
    return len({row.tobytes() for row in U})


def test_a_plan_keeps_nothing_as_wide_as_its_anchors():
    """On a continuous-outcome chain every patch adds anchors, yet a plan
    step keeps no array with more rows or columns than its own points or
    the basis rows before it."""
    g = np.random.default_rng(41)
    p, _, _ = chain(SPECS["min"], "alg1", 2, g, witnesses_only=True)
    plan = p._plan
    assert len(plan.anchors) > 2 * max(plan.k, N_BATCH)
    for step, rec in zip(plan.steps, p.patches, strict=True):
        bound = max(form_points(plan, rec), step.k)
        for name, arr in vars(step).items():
            if isinstance(arr, np.ndarray):
                assert max(arr.shape) <= bound, name


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_finite_support_chain_keeps_few_anchors_and_the_smaller_form(algorithm):
    """On outcomes from a finite support (with +-0.0 rows) a plan's anchors
    are the base's and the support's rows not among them, each once, however
    many patches place their points; and every step keeps the form of its
    rows that holds fewer numbers, its distinct points and the basis rows
    before it, or every anchor so far."""
    g = np.random.default_rng(43)
    p, _, _ = chain(SPECS["min"], algorithm, 2, g, finite=True)
    plan = p._plan
    assert len(plan.anchors) <= N_BASE + 9  # the nine rows of signed_support
    keys = [row.tobytes() for row in plan.anchors]
    assert len(set(keys[N_BASE:])) == len(keys) - N_BASE
    assert not set(keys[N_BASE:]) & set(keys[:N_BASE])
    dense = 0
    for step, rec in zip(plan.steps, p.patches, strict=True):
        assert len(step.BU) + len(step.ZB) == min(step.n_after, form_points(plan, rec) + step.k)
        dense += not len(step.ZB)
    assert dense >= 2


@contextlib.contextmanager
def recorded_lifts():
    """Record each _EvalPlan.gram_lift call while the block runs as (plan,
    its anchors then, the plan's steps whose rows the result holds, U,
    result)."""
    real, calls = model._EvalPlan.gram_lift, []

    def recording(plan, U, *args, **kwargs):
        got = real(plan, U, *args, **kwargs)
        calls.append((plan, plan.anchors, [st for st in plan.steps if st.k < len(got)], U, got))
        return got

    model._EvalPlan.gram_lift = recording
    try:
        yield calls
    finally:
        model._EvalPlan.gram_lift = real


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_a_lifted_kernel_block_is_read_one_step_at_a_time(kind, n_actions, algorithm, finite,
                                                          seed):
    """F K(anchors, U) is read one kernel block at a time wherever a plan
    lifts it: a batch's fresh K_FU and its continuation through one more
    patch, the loader's append of every patch, and a cut form's fold on the
    plan it was cut on.  No KernelSpec.gram call there reads more anchors
    than the base's or one step's points (every anchor so far, for a step
    kept as rows over them, where the whole block is read at once), while on
    continuous outcomes lifting the whole block read all N; and every lift
    is the dense lift of K(anchors, U) bit for bit.  The chain ends on a hand-built patch
    at one point, whose one-row block numpy would take by gemv."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    p, _, randoms = chain(spec, algorithm, n_actions, g, finite=finite)
    Y = np.vstack([outcomes(spec, 5, g), p.anchors[g.integers(len(p.anchors), size=5)]])
    kw = {"eta": 0.1} if algorithm == "alg1" else {"mixing": 0.8 * np.eye(n_actions)}
    one = RkhsElement(spec, Y[-1:], g.standard_normal((1, n_actions)) * 0.1)
    q = p.with_patch(PatchRecord(algorithm, randoms[0], 4.0, one, "one", **kw))
    plan = q._plan
    bound = max([plan.n_base] + [len(plan.anchors[st.at]) for st in plan.steps])
    # on a finite support the point's step keeps rows over the few anchors
    assert finite or len(plan.anchors[plan.steps[-1].at]) == 1

    def widest(grams, Us=None):
        return max(len(args[1]) for args in grams if Us is None or any(args[2] is U for U in Us))

    with recorded_lifts() as lifts:
        held = SampleBatch(g.standard_normal((len(Y), 2)), Y, "held")
        eb = evaluate_batch(p, held)
        with spy(KernelSpec, "gram") as grams:
            eb.K_FU
            evaluate_batch(q, held).K_FU
        assert widest(grams) <= bound
        with spy(KernelSpec, "gram") as grams:
            loaded = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(q))))
        # the reads for the patches' forms and the lossprimes' cut forms; a
        # lossprime without one is read densely, at every anchor
        Us = [rec.rows.anchors if rec.rows.form is None else rec.rows.form.U for rec in loaded.patches]
        Us += [rec.witness_lossprime.span.form.U for rec in loaded.patches
               if rec.witness_lossprime.span.form is not None]
        assert widest(grams, Us) <= bound
        starts = 0
        for rec in q.patches:
            if plan.descends(rec.rows.form):
                cut_on = Predictor(spec, *rec.rows.form.lineage)._plan
                with spy(KernelSpec, "gram") as grams:
                    cut_on._fold(rec.rows.form)
                assert widest(grams) <= bound
                starts += 1
        assert starts >= ROUNDS
    assert len(lifts) >= 2 + len(q.patches) + starts
    for lifted, anchors, steps, U, got in lifts:
        assert got.tobytes() == lifted.lift(spec.gram(anchors, U), steps).tobytes()


def assert_same_predictor(p, q, X, losses):
    """q is p bit for bit: records, plan steps, gram_F, coefficients and
    loss estimates."""
    for mine, theirs in zip(p.patches, q.patches, strict=True):
        for a, b in ((mine.rows, theirs.rows),
                     (mine.witness_lossprime.span, theirs.witness_lossprime.span)):
            assert a.anchors.tobytes() == b.anchors.tobytes()
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
    P, Q = p._plan, q._plan
    assert P.anchors.tobytes() == Q.anchors.tobytes()
    assert P.gram_F.tobytes() == Q.gram_F.tobytes()
    for mine, theirs in zip(P.steps, Q.steps, strict=True):
        assert (mine.n_before, mine.n_after, mine.k) == (theirs.n_before, theirs.n_after, theirs.k)
        assert repr(mine.at) == repr(theirs.at)
        for name in ("BU", "ZB", "S", "table", "M"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert p.coefficients(X).tobytes() == q.coefficients(X).tobytes()
    pairs = [(loss, loss) for loss in losses]
    pairs += [(a.witness_lossprime, b.witness_lossprime) for a, b in zip(p.patches, q.patches)]
    for a, b in pairs:
        assert model.loss_estimates(p, X, a).tobytes() == model.loss_estimates(q, X, b).tobytes()


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    witnesses_only=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_reloaded_predictor_is_the_calibrated_one(kind, n_actions, algorithm, zero,
                                                 witnesses_only, seed):
    g = np.random.default_rng(seed)
    p, dense, randoms = chain(SPECS[kind], algorithm, n_actions, g, zero, witnesses_only)
    text = json.dumps(predictor_to_doc(p))
    doc = json.loads(text)
    assert [i for i, d in enumerate(doc["patches"]) if "cut" not in d] == list(dense)
    if witnesses_only:
        # round 1's lossprime is round 0's witness, cut on the empty chain
        assert doc["patches"][2]["witness_lossprime"]["cut"]["prefix"] == 0
    q = predictor_from_doc(doc)
    assert_same_predictor(p, q, g.standard_normal((2 * model.REPLAY_BLOCK + 3, 2)), randoms)
    assert json.dumps(predictor_to_doc(q)) == text


def small_doc(binary=False):
    """The document of a two-round alg1 chain on the min kernel, in the
    cut-1 layout (every array as lists, as the spoils below edit them) or,
    with `binary`, as written (cut-2)."""
    g = np.random.default_rng(5)
    spec = SPECS["min"]
    base = SimilarityBase(spec, outcomes(spec, N_BASE, g), g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2)
    p = Predictor(spec, base)
    for t in range(2):
        batch = SampleBatch(g.standard_normal((N_BATCH, 2)), outcomes(spec, N_BATCH, g), f"b{t}")
        p = p.with_patch(cut(p, batch, cfg, [], g, None, f"w{t}")[1])
    doc = json.loads(json.dumps(predictor_to_doc(p)))
    return doc if binary else as_cut1(doc)


def drop_format(doc):
    del doc["format"]


def bad_format(doc):
    doc["format"] = "decal.predictor/dense-0"


def prefix_past_own_index(doc):
    doc["patches"][0]["cut"]["prefix"] = 1


def short_BU(doc):
    for column in doc["patches"][1]["cut"]["BU"]:
        column.pop()


def short_ZB(doc):
    for column in doc["patches"][1]["cut"]["ZB"]:
        column.pop()


def long_unit(doc):
    doc["patches"][0]["cut"]["unit"].append(1.0)


def nan_context(doc):
    doc["base"]["contexts"][0][0] = float("nan")


def infinite_context(doc):
    doc["base"]["contexts"][1][1] = float("-inf")


def true_bandwidth(doc):
    doc["base"]["bandwidth"] = True


def fractional_prefix(doc):
    doc["patches"][1]["cut"]["prefix"] += 0.7


def no_beta(doc):
    del doc["patches"][1]["beta"]


def string_mixing(doc):
    doc["patches"][1].update(algorithm="alg2", mixing="x")


def quoted_BU(doc):
    cut = doc["patches"][1]["cut"]
    cut["BU"] = [[repr(x) for x in column] for column in cut["BU"]]


def quoted_mixing(doc):
    doc["patches"][1].update(algorithm="alg2", mixing=[["1.0", "0.0"], ["0.0", "1.0"]])


def drop(name, *path):
    """A spoil named `name` that deletes the field at `path` of the document."""
    def spoil(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    spoil.__name__ = name
    return spoil


def put(name, value, *path):
    """A spoil named `name` that sets the field at `path` of the document to
    `value`."""
    def spoil(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    spoil.__name__ = name
    return spoil


# a number as a string or a bool, one past the float range, a fractional
# prefix, a mistyped string or bool: each loaded at one time; an unknown
# algorithm, a missing beta and null patches raised errors naming no key
LOSS, CUT = ("patches", 1, "witness_lossprime"), ("patches", 1, "cut")
MISTYPED = [
    (put("true_R1", True, *LOSS, "R1"), "'R1'"),
    (put("string_R1", "1.0", *LOSS, "R1"), "'R1'"),
    (put("overflowing_R1", json.loads("1e309"), *LOSS, "R1"), "'R1'"),
    (put("string_beta", "8", "patches", 1, "beta"), "'beta'"),
    (put("true_beta", True, "patches", 1, "beta"), "'beta'"),
    (put("string_eta", "0.05", "patches", 1, "eta"), "'eta'"),
    (put("string_step", "1.0", *CUT, "step"), "'step'"),
    (put("true_prefix", True, *CUT, "prefix"), "'prefix'"),
    (fractional_prefix, "'prefix'"),
    (put("string_rescaled", "no", *LOSS, "rescaled"), "'rescaled'"),
    (put("number_loss_id", 7, *LOSS, "loss_id"), "'loss_id'"),
    (put("list_batch_id", [1], "patches", 1, "batch_id"), "'batch_id'"),
    (put("unknown_algorithm", "alg3", "patches", 1, "algorithm"), "'algorithm'"),
    (no_beta, "'beta'"),
    (put("null_patches", None, "patches"), "'patches'"),
    # numbers in quotes inside arrays loaded, parsed by numpy; an R2 whose
    # square overflows failed every patch as a 'mixing' past the float range
    (quoted_BU, "'BU'"),
    (quoted_mixing, "'mixing'"),
    (put("huge_R2", 1e308, "kernel", "R2"), "'R2'"),
]
# objects and arrays `_field` does not read: a missing or null one, or an
# array of no numbers, is refused naming its own key, not the next one read
UNREAD = [
    (put("alg2_without_mixing", "alg2", "patches", 1, "algorithm"), "'mixing'"),
    (put("null_patch", None, "patches", 1), "'patches'"),
    (drop("no_kernel", "kernel"), "'kernel'"),
    (drop("no_lossprime", *LOSS), "'witness_lossprime'"),
    (put("null_base", None, "base"), "'base'"),
    (string_mixing, "'mixing'"),
    (put("null_U", None, *CUT, "U"), "'U'"),
    # read by direct indexing or a bare numpy conversion, which named no key
    (drop("no_kernel_kind", "kernel", "kind"), "'kind'"),
    (drop("no_base_kind", "base", "kind"), "'kind'"),
    (put("logit_mixture_without_support", {"kind": "logit_mixture"}, "base"), "'support'"),
    (put("string_contexts", "x", "base", "contexts"), "'contexts'"),
    (drop("no_bandwidth", "base", "bandwidth"), "'bandwidth'"),
    (put("constant_without_element", {"kind": "constant"}, "base"), "'element'"),
    (put("ragged_anchors", [[0.5], [0.5, 0.5]], *LOSS, "anchors"), "'anchors'"),
]


@pytest.mark.parametrize("spoil, key", [
    (drop_format, "'format'"), (bad_format, "'format'"), (prefix_past_own_index, "'prefix'"),
    (short_BU, "'BU'"), (short_ZB, "'ZB'"), (long_unit, "'unit'"),
    (nan_context, "'contexts'"), (infinite_context, "'contexts'"), (true_bandwidth, "'bandwidth'"),
    *MISTYPED, *UNREAD,
])
def test_loader_names_the_key_it_refuses(spoil, key):
    doc = small_doc()
    predictor_from_doc(copy.deepcopy(doc))
    spoil(doc)
    with pytest.raises(ValueError, match=key):
        predictor_from_doc(doc)


def test_a_load_keeps_one_live_plan(monkeypatch):
    """predictor_from_doc rebuilds each cut on the chain's current plan, so
    while a patch is appended no plan older than the one it extends is
    alive: an earlier prefix's plan, with its own F G F^T, is dropped as
    soon as the next is built.  Witnesses carried as later lossprimes make
    the file cut spans on earlier prefixes."""
    g = np.random.default_rng(13)
    doc = json.loads(json.dumps(predictor_to_doc(
        chain(SPECS["min"], "alg1", 2, g, witnesses_only=True)[0])))
    older, alive = [], []
    real = Predictor.with_patch

    def with_patch(self, record):
        gc.collect()
        alive.append(sum(ref() is not None for ref in older))
        older.append(weakref.ref(self._plan))
        return real(self, record)

    monkeypatch.setattr(Predictor, "with_patch", with_patch)
    predictor_from_doc(doc)
    assert len(alive) == len(doc["patches"]) >= 3
    assert alive == [0] * len(alive)


def carried_lossprimes(p):
    """The indices of p's records whose lossprime is a witness cut on an
    earlier prefix of p's own chain, whose own patch comes right after that
    prefix (not one dropped for a sibling's)."""
    plan = p._plan
    return [t for t, rec in enumerate(p.patches)
            if plan.descends(form := rec.witness_lossprime.span.form)
            and len(form.lineage[1]) < t
            and p.patches[len(form.lineage[1])].rows.form.U is form.U]


def shares_its_patch_parts(p, t):
    """Whether record t's lossprime holds the U, BU and ZB of the rows of the
    patch it became, as the same objects."""
    form = p.patches[t].witness_lossprime.span.form
    own = p.patches[len(form.lineage[1])].rows.form
    return own.U is form.U and own.BU is form.BU and own.ZB is form.ZB


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_load_reads_no_kernel_entry_for_a_carried_lossprime(algorithm):
    """A chain whose lossprimes are earlier witnesses loads with each such
    lossprime holding its witness's patch rows' parts, as in memory, and
    read as that patch's block of the loaded F G F^T: no fold of its parts
    (which would read K(anchors, U)) and no dense read of its table."""
    g = np.random.default_rng(13)
    p = chain(SPECS["min"], algorithm, 2, g, witnesses_only=True)[0]
    doc = json.loads(json.dumps(predictor_to_doc(p)))
    with spy(model._EvalPlan, "_fold") as folds, spy(LossFunction, "values") as dense:
        q = predictor_from_doc(doc)
    carried = carried_lossprimes(p)
    assert len(carried) >= 2
    assert all(shares_its_patch_parts(q, t) for t in carried)
    spans = [q.patches[t].witness_lossprime.span for t in carried]
    assert not [args for args in folds if any(args[1] is span.form for span in spans)]
    assert not [args for args in dense if any(args[0].span is span for span in spans)]


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_copy_of_a_step_form_reads_the_same_bits(kind, algorithm):
    """A lossprime whose parts equal a step's but are new arrays is no
    carried witness: it reads the same bits as the fold of its own parts,
    within REL of the in-memory lossprime's patch block, with no dense read."""
    g = np.random.default_rng(19)
    p = chain(SPECS[kind], algorithm, 2, g, zero=1, witnesses_only=True)[0]
    plan, seen = p._plan, 0
    for t in carried_lossprimes(p):
        loss = p.patches[t].witness_lossprime
        form = loss.span.form
        parts = {name: getattr(form, name).copy() for name in ("U", "BU", "ZB", "unit")}
        copied = LossFunction(loss.loss_id, RkhsElement._cut(
            loss.span.spec, dataclasses.replace(form, **parts)), loss.R1)
        with spy(model._EvalPlan, "_fold") as folds, spy(LossFunction, "values") as dense:
            mine, theirs = plan.lifted_values(loss), plan.lifted_values(copied)
        assert [args[1] for args in folds] == [copied.span.form] and not dense
        fold = plan._fold(copied.span.form) * (form.unit * form.step)
        assert theirs.tobytes() == fold.tobytes()
        assert close(theirs, mine)
        seen += 1
    assert seen


@pytest.mark.parametrize("reload", ["cut-1", "cut-2"])
def test_a_loaded_carried_lossprime_holds_its_patch_rows_parts(reload, tmp_path):
    """The carried lossprimes of a committed cut-1 file, and of its cut-2
    re-save reloaded, hold their patch rows' U, BU and ZB as the same
    objects, matched once as the file loads."""
    p = load_predictor(Path(__file__).parent / "data" / "cut1_continuous_alg2.json")
    if reload == "cut-2":
        save_predictor(tmp_path / "cut2.json", p)
        p = load_predictor(tmp_path / "cut2.json")
    carried = [t for t, rec in enumerate(p.patches)
               if p._plan.descends(form := rec.witness_lossprime.span.form)
               and len(form.lineage[1]) < t]
    assert len(carried) == 2
    assert all(shares_its_patch_parts(p, t) for t in carried)


def nan_U(doc):
    doc["patches"][1]["cut"]["U"][0][0] = float("nan")


def U_outside_domain(doc):
    doc["patches"][1]["cut"]["U"][0][0] = 1.5


def nan_BU(doc):
    doc["patches"][1]["cut"]["BU"][0][0] = float("nan")


def nan_ZB(doc):
    doc["patches"][1]["cut"]["ZB"][0][0] = float("nan")


def nan_unit(doc):
    doc["patches"][1]["cut"]["unit"][0] = float("nan")


def infinite_step(doc):
    doc["patches"][1]["cut"]["step"] = float("inf")


def negative_unit(doc):
    doc["patches"][1]["cut"]["unit"][0] = -1.0


def huge_unit(doc):
    doc["patches"][1]["cut"]["unit"][0] = 1e308


def huge_step(doc):
    doc["patches"][1]["cut"]["step"] = 1e308


@pytest.mark.parametrize("spoil, match", [
    (nan_U, "finite"), (U_outside_domain, "lie in"), (nan_BU, "'BU'"), (nan_ZB, "'ZB'"),
    (nan_unit, "'unit'"), (infinite_step, "'step'"), (negative_unit, "'unit'"),
    (huge_unit, "'S'"), (huge_step, "'BU'"),
])
def test_loader_refuses_a_cut_it_cannot_fold(spoil, match):
    """A plan folds a loaded cut's U and parts as they are, while the table
    `cut_span` merges from them drops a term it cannot weigh: so a NaN row
    of U loaded, and its fold read NaN, unless the loader checks the cut.
    A negative unit loaded too, its table column zeroed by `cut_span` while
    the plan scaled its row by it, and so did a unit of 1e308, whose scaled
    rows have an infinite Gram matrix S."""
    doc = small_doc()
    spoil(doc)
    with pytest.raises(ValueError, match=match):
        predictor_from_doc(doc)


def floats_of(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def text_of(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def rewrite(name, edit, *path):
    """A spoil named `name` that replaces the base64 text at `path` of a
    cut-2 document by edit(text)."""
    def spoil(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = edit(doc[path[-1]])
    spoil.__name__ = name
    return spoil


def entry(value):
    """An edit that sets the first float of a payload to `value`."""
    def edit(text):
        floats = floats_of(text).copy()
        floats[0] = value
        return text_of(floats)
    return edit


BINARY = [
    (rewrite("U_not_base64", lambda text: "not base64!", *CUT, "U"), "'U': .*base64"),
    (rewrite("U_cut_short", lambda text: text[:-1], *CUT, "U"), "'U': .*base64"),
    (rewrite("BU_odd_bytes", lambda text: base64.b64encode(base64.b64decode(text)[:-3]).decode(),
             *CUT, "BU"), "'BU': .*8-byte"),
    (rewrite("BU_one_float_short", lambda text: text_of(floats_of(text)[:-1]), *CUT, "BU"),
     "'BU': .*shape"),
    (rewrite("short_ZB", lambda text: text_of(floats_of(text)[:-1]), *CUT, "ZB"), "'ZB': .*shape"),
    (rewrite("long_unit", lambda text: text_of([*floats_of(text), 1.0]), *CUT, "unit"),
     "'unit': .*shape"),
    (rewrite("nan_BU", entry(float("nan")), *CUT, "BU"), "'BU': .*finite"),
    (rewrite("infinite_ZB", entry(float("inf")), *CUT, "ZB"), "'ZB': .*finite"),
    (rewrite("infinite_context", entry(-float("inf")), "base", "contexts"), "'contexts': .*finite"),
    (rewrite("nan_lossprime_coeffs", entry(float("nan")), *LOSS, "coeffs"), "'coeffs': .*finite"),
    (rewrite("U_outside_domain", entry(1.5), *CUT, "U"), "'U': .*lie in"),
    (rewrite("negative_unit", entry(-1.0), *CUT, "unit"), "'unit': must be >= 0"),
]


@pytest.mark.parametrize("spoil, match", BINARY, ids=[spoil.__name__ for spoil, _ in BINARY])
def test_loader_names_the_binary_field_it_refuses(spoil, match):
    """A cut-2 array that is not base64, not whole floats, not of its
    field's shape, not finite, outside the domain or below its minimum is
    refused naming its key, as the same fault in a cut-1 list is."""
    doc = small_doc(binary=True)
    predictor_from_doc(copy.deepcopy(doc))
    spoil(doc)
    with pytest.raises(ValueError, match=match):
        predictor_from_doc(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308])
def test_a_mixing_that_replays_no_number_is_refused(value):
    """An alg2 mixing of NaN or inf, or of 1e308 (whose mixed rows leave the
    float range), would replay all-NaN norms: the record refuses the first
    two and the plan the third, each naming 'mixing', in memory and on load,
    while the identity mixing loads."""
    doc = small_doc()
    for patch in doc["patches"]:
        patch["algorithm"], patch["mixing"] = "alg2", np.eye(2).tolist()
        del patch["eta"]
    q = predictor_from_doc(copy.deepcopy(doc))
    doc["patches"][0]["mixing"][0][0] = value
    with pytest.raises(ValueError, match="'mixing'"):
        predictor_from_doc(doc)
    rec = q.patches[0]
    mixing = np.eye(2)
    mixing[0, 0] = value
    with pytest.raises(ValueError, match="'mixing'"):
        Predictor(q.kernel, q.base).with_patch(PatchRecord(
            "alg2", rec.witness_lossprime, rec.beta, rec.rows, mixing=mixing))


def beta_nan(doc):
    doc["patches"][0]["beta"] = float("nan")


def beta_negative(doc):
    doc["patches"][1]["beta"] = -1.0


def eta_infinite(doc):
    doc["patches"][0]["eta"] = float("inf")


@pytest.mark.parametrize("spoil, match", [
    (beta_nan, "beta"), (beta_negative, "beta"), (eta_infinite, "eta"),
])
def test_loader_refuses_a_patch_it_cannot_replay(spoil, match):
    """A patch's beta must be finite and >= 0, and an alg1 eta finite, when
    the record is built: a loaded beta of NaN or -1 failed only at decide,
    and eta = inf passed eta > 0."""
    doc = small_doc()
    spoil(doc)
    with pytest.raises(ValueError, match=match):
        predictor_from_doc(doc)


# single-field mutations of predictor.json and witness_loss.json

@functools.cache
def mutation_documents():
    """(document, whether it is a loss file, its fields' (path, key) by
    `document_fields`) for an alg1 and an alg2 chain on each kernel, each on
    its own base kind (min on a similarity base, linear on a constant base,
    exp on a planted logit-mixture base), and for a witness_loss.json of
    each chain's last lossprime, as JSON gives them back, each as written
    (cut-2) and in the cut-1 layout."""
    docs = []
    for kind in sorted(SPECS):
        for algorithm in ("alg1", "alg2"):
            spec, g = SPECS[kind], np.random.default_rng(23)
            base = None  # the min kernel's: chain's similarity base
            if kind == "linear":
                mean = np.full((N_BASE, 1), 1.0 / N_BASE)
                base = ConstantBase(RkhsElement(spec, outcomes(spec, N_BASE, g), mean))
            elif kind == "exp":
                base = planted_bias_instance(spec, 2, N_BASE, 0.2, 23).predictor.base
            p = chain(spec, algorithm, 2, g, base=base)[0]
            loss = p.patches[-1].witness_lossprime
            for doc, is_loss in ((predictor_to_doc(p), False), (loss_file_doc(loss), True)):
                doc = json.loads(json.dumps(doc))
                for layout in (doc, as_cut1(doc)):
                    docs.append((layout, is_loss, list(document_fields(layout))))
    return docs


# the fields that hold a float array, as nested lists (cut-1) or base64 text (cut-2)
ARRAYS = {"anchors", "coeffs", "contexts", "U", "BU", "ZB", "unit", "mixing", "support",
          "weight_matrix", "weight_offset", "shift_coeffs"}
# the arrays whose shape an array's length sets: a lossprime's coeffs or BU
# set the action count of its cut's ZB and unit and of the patch's coeffs,
# BU and mixing
SHAPED_BY = {"anchors": {"coeffs", "contexts"}, "U": {"BU"},
             "BU": {"ZB", "unit", "coeffs", "BU", "mixing"}, "coeffs": {"coeffs", "BU", "mixing"},
             "support": {"weight_matrix", "weight_offset", "shift_coeffs"}}


def float_count(value):
    """The float count of base64 text of whole floats, else None."""
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:
        return None
    return len(raw) // 8 if len(raw) % 8 == 0 else None


def document_fields(doc, path=()):
    """(path, key) of every field of a document: each key of an object, each
    object of a list (by the list's key) and each entry of an array."""
    for key, value in doc.items():
        yield path + (key,), key
        if isinstance(value, dict):
            yield from document_fields(value, path + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                yield path + (key, i), key
                yield from document_fields(item, path + (key, i))
        elif isinstance(value, list):
            for index in np.ndindex(np.shape(value)):
                yield path + (key, *index), key


@given(data=st.data())
@settings(max_examples=300)
def test_a_mutated_field_is_refused_by_name_or_replays_finite(data):
    """Every single-field mutation of a document (a key dropped, a field
    nulled, of another type, a number in quotes, or NaN, an infinity or
    +-1e308 in its place; for a base64 array, its text cut short, appended
    to or not base64, or NaN, an infinity or +-1e308 in its payload) is
    refused by a ValueError naming the key, or loads a predictor whose
    replay on fixed contexts is finite (a loss whose values at fixed
    outcomes are).  An array given another length may be refused at the
    next array whose shape it sets, naming that array's key."""
    doc, is_loss, fields = data.draw(st.sampled_from(mutation_documents()))
    path, key = data.draw(st.sampled_from(fields))
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    value = parent[path[-1]]
    changes = [None, *(v for v in ("x", True, {}, [], 7) if type(v) is not type(value))]
    if isinstance(path[-1], str):  # a key, not an array entry or a list's object
        changes.append("drop")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        changes += [repr(value), float("nan"), float("inf"), float("-inf"), 1e308, -1e308]
    if isinstance(value, str) and key in ARRAYS:
        floats = floats_of(value)
        end = data.draw(st.integers(0, len(value) - 1))
        tail = data.draw(st.sampled_from(["A", "AA==", "AAAA", "=", text_of([0.5])]))
        i = data.draw(st.integers(0, len(floats) - 1))
        changes += ["x", value[:end], value + tail, "@" + value[1:], *(
            text_of(np.where(np.arange(len(floats)) == i, v, floats))
            for v in (float("nan"), float("inf"), float("-inf"), 1e308, -1e308))]
    change = data.draw(st.sampled_from(changes))
    named = {key}
    if isinstance(value, str) and key in ARRAYS and (
            change == [] or isinstance(change, str)
            and float_count(change) not in (None, len(floats_of(value)))):
        named |= SHAPED_BY.get(key, set())
    if change == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = change
    text = json.dumps(doc)
    try:
        if is_loss:
            with tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / "witness_loss.json").write_text(text)
                loss = load_loss(Path(tmp) / "witness_loss.json")
            got = [loss.values(outcomes(loss.span.spec, 5, np.random.default_rng(1)))]
        else:
            got = replay(predictor_from_doc(json.loads(text)),
                         np.random.default_rng(1).standard_normal((9, 2)))
    except ValueError as exc:
        assert any(repr(k) in str(exc) for k in named), (path, change, str(exc))
        return
    assert all(np.all(np.isfinite(arr)) for arr in got), (path, change)


# a cut span is its form: its table is built only when something reads it


def held_arrays(span):
    """The arrays a span holds now, its form's included, read without
    building a table it has not built."""
    parts = [*vars(span).values(), *(() if span.form is None else vars(span.form).values())]
    return [arr for arr in parts if isinstance(arr, np.ndarray)]


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_a_calibration_and_its_reload_build_no_cut_table(algorithm, tmp_path, monkeypatch):
    """Six continuous-outcome rounds (the benchmark's continuous_growth
    recipe) and a reload of their predictor.json call `cut_span` nowhere,
    and no witness, patch rows or cut lossprime holds a table: its form's
    arrays have a row per batch outcome or basis row, none a row per plan
    anchor."""
    spec, ctx = KernelSpec("min", 1, 1.5), ContextSpec("uniform", 2)
    amap = AffineMap(np.array([[0.4, 0.3]]), np.array([0.1]), noise_scale=0.1)
    g = np.random.default_rng(5)
    X = ctx.sample(200, g)
    p0 = Predictor(spec, SimilarityBase(spec, amap.sample(X, spec, g) * 0.7, X, 0.3))
    cfg = CalibConfig(epsilon=0.01, beta=8.0, R1=1.0, R2=1.5, n_actions=2, algorithm=algorithm,
                      max_iters=6, seed=5)
    audit_module, witnesses = importlib.import_module("decal.audit"), []
    real = audit_module._witness
    monkeypatch.setattr(audit_module, "_witness",
                        lambda *args: witnesses.append(real(*args)) or witnesses[-1])
    with spy(model, "cut_span") as cuts:
        p, _ = run_calibration(p0, SyntheticSource(SynthSpec(spec, ctx, amap, n=1, seed=6)), cfg)
        save_predictor(tmp_path / "predictor.json", p)
        q = load_predictor(tmp_path / "predictor.json")
    assert not cuts
    assert len(p.patches) == len(q.patches) == 6
    N = len(p.anchors)
    assert N > 4 * p._plan.k  # every patch added a batch of anchors
    spans = [w.span for w in witnesses]
    for rec in p.patches + q.patches:
        lossprime = rec.witness_lossprime.span
        spans += [rec.rows] + [lossprime] * (lossprime.form is not None)
    assert len(witnesses) == 6 and len(spans) >= 3 * 6
    for span in spans:
        assert set(vars(span)) == {"spec", "form"}
        assert max(len(arr) for arr in held_arrays(span)) <= max(len(span.form.U), span.form.k) < N


@given(
    kind=st.sampled_from(sorted(SPECS)),
    n_actions=st.integers(1, 3),
    algorithm=st.sampled_from(["alg1", "alg2"]),
    zero=st.one_of(st.none(), st.integers(0, 2)),
    finite=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20)
def test_a_table_read_late_is_the_one_cut_on_its_plan(kind, n_actions, algorithm, zero, finite,
                                                      seed):
    """The table a witness, a patch's rows or a loaded cut builds on its
    first read is bitwise `cut_span` on the plan it was cut on: the
    witness's table as the audit used to cut it, alg1 rows as that table
    times the step and alg2 rows as its raw residual means, as the patch
    steps used to build them, on unpatched and patched lineages, with
    degenerate columns and, with `finite`, outcomes that repeat base
    anchors and +-0.0 rows; and a loaded chain's cuts, read late, are the
    in-memory ones."""
    spec = SPECS[kind]
    g = np.random.default_rng(seed)
    train = outcomes(spec, N_BASE, g)
    base = SimilarityBase(spec, train, g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)
    support = np.vstack([train[:2], signed_support(spec, g)])
    p, witnesses, late = Predictor(spec, base), [], []
    for t in range(ROUNDS):
        Y = support[g.integers(len(support), size=N_BATCH)] if finite else outcomes(spec, N_BATCH, g)
        batch = SampleBatch(g.standard_normal((N_BATCH, 2)), Y, f"b{t}")
        witness, rec = cut(p, batch, cfg, witnesses, g, zero, f"w{t}")
        table = cut_span(p._plan, witness.span.form)
        raw = cut_span(p._plan, dataclasses.replace(witness.span.form, unit=np.ones(n_actions)))
        step = cfg.eta * cfg.R1 / witness.R1
        rows = table.coeffs * step if algorithm == "alg1" else raw.coeffs
        late += [(witness.span, table.anchors, table.coeffs), (rec.rows, table.anchors, rows)]
        p = p.with_patch(rec)
        witnesses.append(witness)
    q = predictor_from_doc(json.loads(json.dumps(predictor_to_doc(p))))
    for mine, theirs in zip(p.patches, q.patches, strict=True):
        for a, b in ((mine.rows, theirs.rows),
                     (mine.witness_lossprime.span, theirs.witness_lossprime.span)):
            if b.form is not None:
                assert set(vars(b)) == {"spec", "form"}
                late.append((b, a.anchors, a.coeffs))
    assert any(span.form.lineage[1] for span, _, _ in late)  # patched lineages too
    for span, anchors, coeffs in late:
        assert span.anchors.tobytes() == anchors.tobytes()
        assert span.coeffs.shape == coeffs.shape and span.coeffs.tobytes() == coeffs.tobytes()
