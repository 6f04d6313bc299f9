"""Cut forms: witnesses and patches read through the basis they were cut from.

A witness or patch the audit cuts carries its parts (U, BU, ZB) in memory,
and a plan that descends from the plan it was cut on reads its Gram
products through them.  Every other plan reads a witness densely, which is
the reference these tests compare against, and appends a patch as the form
over its own anchors, so no append reads the anchors' N x N Gram matrix.
"""

import copy
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import model
from decal.audit import AuditReport, _gap_scan, _scan_values, _witness, random_loss_pool
from decal.calibrate import CalibConfig, alg1_step, alg2_step
from decal.kernel import KernelMismatchError, KernelSpec, RkhsElement, sum_rows
from decal.model import (
    DEGENERATE_NORM, LossFunction, PatchRecord, Predictor, SampleBatch, SimilarityBase,
    evaluate_batch, predictor_from_doc, predictor_to_doc, smooth_best_response,
)
from spans import gram_entries, spy

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


def close(got, want):
    """got equals want to REL relative to the largest entry of want."""
    return np.max(np.abs(got - want), initial=0.0) <= REL * np.max(np.abs(want), initial=0.0)


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
@settings(max_examples=30, deadline=None)
def test_batch_routes_match_the_dense_path(kind, n_actions, finite, depth, seed):
    """Pool losses read off K_FU, the batched scan, and witnesses folded onto
    plans 1 to `depth` plies below the one they were cut on agree with the
    dense path to REL, on batches with repeated outcomes and +-0.0 rows.  A
    fold continued plan by plan is bitwise the fold a fresh plan runs from
    the start.  A pool drawn on another batch is read densely, and a pool
    over another kernel is refused."""
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
        routed = [_scan_values(eb, loss) for loss in drawn]
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
        got = _scan_values(eb, other)
    assert len(dense) == 1
    assert got.tobytes() == plan.lift(other.values(plan.anchors)).tobytes()
    wider = KernelSpec(spec.kind, spec.dim, 2.0 * spec.R2)
    with pytest.raises(KernelMismatchError):
        _gap_scan(eb, random_loss_pool(wider, batch.Y, n_actions, cfg.R1, 2, g), cfg.beta, cfg.R1)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_round_reads_only_the_kernel_entries_it_adds(kind):
    """A scan of drawn pool losses reads no kernel entries beyond K_UU and
    K_FU, and a witness carried onto a child plan reads K(new anchors, U)
    only, not K(anchors, U) over every anchor again."""
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
            assert gram_entries(grams) <= new * len(w.span.form.U)
        p = child


def test_a_plan_holds_no_fold_of_a_witness_it_read():
    """A form keeps its own fold, so a long-lived plan audited again and again
    does not keep every witness read on it alive."""
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
    assert witness.span.form.folds
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
    step, G = q._plan.steps[0], spec.gram(q.anchors, q.anchors)
    assert close(step.S, step.R @ G @ step.R.T)
    assert close(step.table, np.hstack([lossprime.values(p.anchors), G[:n] @ step.R.T]))


def chain(spec, algorithm, n_actions, g, zero=None, witnesses_only=False):
    """A calibrated chain of cut patches with a hand-built dense patch after
    the first and, last but one, a record cut on a sibling branch; returns
    the predictor, the indices of its dense records and the random losses."""
    base = SimilarityBase(spec, outcomes(spec, N_BASE, g), g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=n_actions,
                      algorithm=algorithm)

    def draw(t):
        return SampleBatch(g.standard_normal((N_BATCH, 2)), outcomes(spec, N_BATCH, g), f"b{t}")

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
                                         RkhsElement(spec, outcomes(spec, 3, g), rows), "hand", **kw))
            randoms.append(lossprime)
    _, forked = round_on(p, ROUNDS, witnesses)
    p = Predictor(spec, base, p.patches[:-1]).with_patch(forked)
    p = p.with_patch(round_on(p, ROUNDS + 1, witnesses)[1])
    return p, (1, len(p.patches) - 2), randoms


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
        for name in ("R", "S", "table", "M"):
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
@settings(max_examples=30, deadline=None)
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


def small_doc():
    """The document of a two-round alg1 chain on the min kernel."""
    g = np.random.default_rng(5)
    spec = SPECS["min"]
    base = SimilarityBase(spec, outcomes(spec, N_BASE, g), g.standard_normal((N_BASE, 2)), 1.0)
    cfg = CalibConfig(epsilon=0.1, beta=4.0, R1=1.0, R2=spec.R2, n_actions=2)
    p = Predictor(spec, base)
    for t in range(2):
        batch = SampleBatch(g.standard_normal((N_BATCH, 2)), outcomes(spec, N_BATCH, g), f"b{t}")
        p = p.with_patch(cut(p, batch, cfg, [], g, None, f"w{t}")[1])
    return json.loads(json.dumps(predictor_to_doc(p)))


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


@pytest.mark.parametrize("spoil, key", [
    (drop_format, "'format'"), (bad_format, "'format'"), (prefix_past_own_index, "'prefix'"),
    (short_BU, "'BU'"), (short_ZB, "'ZB'"), (long_unit, "'unit'"),
])
def test_loader_names_the_key_it_refuses(spoil, key):
    doc = small_doc()
    predictor_from_doc(copy.deepcopy(doc))
    spoil(doc)
    with pytest.raises(ValueError, match=key):
        predictor_from_doc(doc)


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


@pytest.mark.parametrize("spoil, match", [
    (nan_U, "finite"), (U_outside_domain, "lie in"), (nan_BU, "'BU'"), (nan_ZB, "'ZB'"),
    (nan_unit, "'unit'"), (infinite_step, "'step'"),
])
def test_loader_refuses_a_cut_it_cannot_fold(spoil, match):
    """A plan folds a loaded cut's U and parts as they are, while the table
    `cut_span` merges from them drops a term it cannot weigh: so a NaN row
    of U loaded, and its fold read NaN, unless the loader checks the cut."""
    doc = small_doc()
    spoil(doc)
    with pytest.raises(ValueError, match=match):
        predictor_from_doc(doc)


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
