"""In-memory span tracer that wraps decal's layers from outside the package.

Each wrapped call records one span (name, start, end, parent span) in flat
arrays, plus counts taken at the same boundary.  Nothing under ``src/decal``
changes: the wrappers replace the defining module's function *and* every
consumer module's import-time binding (``audit`` binds ``span_gram`` at
import, ``calibrate`` binds ``evaluate_batch``, ...), and methods are
replaced on their classes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("kernel", "model", "audit", "calibrate", "synth", "experiments", "cli")

# Not wrapped; their time stays with the caller.  The coercion helpers are
# leaves called tens of thousands of times per second, and the public
# `potential` only forwards to `_potential_eb`, which is recorded as
# `calibrate.potential` so that its calls count potential evaluations.
UNWRAPPED = {"kernel.as_outcomes", "model.as_contexts", "calibrate.potential"}

# Private functions and methods that carry a named per-layer metric.
EXTRA = {
    "calibrate._potential_eb": "calibrate.potential",
    "model._project_rows": "model.project_rows",
}
METHODS = (
    ("kernel", "KernelSpec", "gram", "kernel.gram"),
    ("kernel", "RkhsElement", "__post_init__", "kernel.element"),
    ("model", "Predictor", "coefficients", "model.coefficients"),
    ("model", "Predictor", "with_patch", "model.with_patch"),
    ("model", "LossFunction", "values", "model.loss_values"),
    ("model", "_EvalPlan", "__init__", "model.plan"),
    ("synth", "SyntheticSource", "take", "synth.take"),
)

JSON_SAVE = {
    "model.save_predictor", "model.save_json", "model.predictor_to_doc",
    "model.patch_to_doc", "model.loss_to_doc", "model.element_to_doc",
    "model.kernel_to_doc", "model.base_to_doc",
}
JSON_LOAD = {
    "model.load_predictor", "model.load_json", "model.predictor_from_doc",
    "model.patch_from_doc", "model.loss_from_doc", "model.element_from_doc",
    "model.kernel_from_doc", "model.base_from_doc",
}


class Tracer:
    """Spans and counts of one process; recording only while `enabled`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack = [-1]
        self.enabled = False

    def wrap(self, name: str, fn, post=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return nid, par, dur

    def summary(self, wall_s: float) -> dict:
        """Per-name calls / self time, per-layer self time, JSON save/load
        time (outermost serialization spans only) and bench-side time."""
        nid, par, dur = self.arrays()
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        out = {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "layer_self_s": {
                layer: float(sum(self_s[i] for i, n in enumerate(self.names)
                                 if n.startswith(layer + ".")))
                for layer in LAYERS
            },
            "spans": int(len(dur)),
        }
        for key, group in (("json_save_s", JSON_SAVE), ("json_load_s", JSON_LOAD)):
            member = np.array([n in group for n in self.names] + [False], dtype=bool)
            parent_member = member[np.where(has_parent, nid[np.maximum(par, 0)], k)]
            top = member[nid] & ~parent_member
            out[key] = float(dur[top].sum())
        out["bench_self_s"] = float(wall_s - dur[~has_parent].sum())
        return out

    def dump(self, path: Path) -> None:
        nid, par, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid.astype(np.int32),
            parent=par.astype(np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


# -- count hooks: run after the span closes, at the same call boundary ------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _span_gram(tr, result, args, kwargs):
    C = _arg(args, kwargs, 2, "C")
    tr.counts["kernel.span_gram.points"] += C.shape[0]
    tr.counts["kernel.span_gram.cols"] += C.shape[1]


def _gram(tr, result, args, kwargs):
    tr.counts["kernel.gram.entries"] += result.size


def _compress(tr, result, args, kwargs):
    tr.counts["kernel.compress.anchors_in"] += len(_arg(args, kwargs, 0, "v"))
    tr.counts["kernel.compress.anchors_out"] += len(result)


def _coefficients(tr, result, args, kwargs):
    tr.counts["model.coefficients.rows"] += result.shape[0]
    tr.counts["model.coefficients.steps"] += len(args[0].patches)


def _save_json(tr, result, args, kwargs):
    doc = _arg(args, kwargs, 1, "doc")
    if isinstance(doc, dict) and "patches" in doc:
        tr.counts["model.json.bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _audit(tr, result, args, kwargs):
    tr.counts["audit.audit.candidates"] += len(kwargs["pool"])
    tr.counts["audit.audit.found"] += int(result.found)


def _loss_pool(tr, result, args, kwargs):
    tr.counts["audit.random_loss_pool.losses"] += len(result)


def _run_calibration(tr, result, args, kwargs):
    records = result[1].iterations
    tr.counts["calibrate.rounds"] += len(records)
    if records:
        tr.samples["calibrate.round_ms.first"].append(records[0].wall_ms)
        tr.samples["calibrate.round_ms.last"].append(records[-1].wall_ms)


def _take(tr, result, args, kwargs):
    tr.counts["synth.take.rows"] += len(result)


HOOKS = {
    "kernel.span_gram": _span_gram,
    "kernel.gram": _gram,
    "kernel.compress": _compress,
    "model.coefficients": _coefficients,
    "model.save_json": _save_json,
    "audit.audit": _audit,
    "audit.random_loss_pool": _loss_pool,
    "calibrate.run_calibration": _run_calibration,
    "synth.take": _take,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of the traced layers, the EXTRA private
    ones and the METHODS; rebind each wrapped function wherever a decal
    module imported it.  Returns the number of wrapped callables."""
    import decal

    mods = {layer: importlib.import_module(f"decal.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            if attr.startswith("_"):
                name = EXTRA.get(name)
            if name is None:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    for mod in (decal, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    commands = mods["cli"].COMMANDS
    for key, fn in list(commands.items()):
        commands[key] = replaced.get(fn, fn)
    for layer, cls_name, meth, name in METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), HOOKS.get(name)))
    return len(replaced) + len(METHODS)
