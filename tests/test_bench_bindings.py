"""The benchmark's traced run binds to decal by name.

`bench/tracer.py` `install` looks up its METHODS on their classes and wraps
every public function, and its hooks read `save_json(path, doc)` by position
and `audit(..., pool=...)` by keyword.  A rename or a changed call there
fails only the traced benchmark, so this test runs the traced read and
write paths in a fresh process, with the package and bench/ importable.
Every span is built through the bound `RkhsElement.__post_init__` and every
loss is read through `LossFunction.values`, so both must record calls.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
tracer.enabled = True

import decal
import decal.cli

out = Path(sys.argv[1])
config = sys.argv[2]
rc = decal.cli.main(["calibrate", "--config", config, "--out", str(out / "run"), "--seed", "3",
                     "--quiet"])
assert rc == 0, rc
p = decal.load_predictor(out / "run" / "predictor.json")
assert p.patches
decal.save_predictor(out / "again.json", p)
q = decal.load_predictor(out / "again.json")
rng = np.random.default_rng(0)
loss = decal.make_piecewise_linear_loss(
    rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(0.1, 0.9, 2), 2, q.kernel
)
batch = decal.planted_bias_instance(q.kernel, 2, 24, 0.25, 0).source(1).take(64)
probs = decal.smooth_best_response(decal.loss_estimates(q, batch.X, loss), 8.0)
assert np.allclose(probs.sum(axis=1), 1.0)
scanned = tracer.counts["audit.audit.candidates"]
decal.audit(q, batch, epsilon=0.1, pool=[loss], beta=8.0, R1=1.0)
tracer.enabled = False

calls = tracer.summary(1.0)["calls"]
for name in ("cli.main", "model.with_patch", "model.plan", "kernel.gram", "kernel.element",
             "model.loss_values", "synth.take", "model.save_json", "model.load_predictor",
             "audit.audit"):
    assert calls.get(name, 0) > 0, name
assert tracer.counts["model.json.bytes"] > 0
assert tracer.counts["audit.audit.candidates"] == scanned + 1
print("ok")
"""


def test_traced_calibrate_save_load_decide_and_audit_run(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT / "configs" / "planted_bias.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
