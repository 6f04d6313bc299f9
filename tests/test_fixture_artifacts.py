"""The fixture's artifacts, byte for byte.

`decal calibrate` on `configs/planted_bias.json` (alg1, and alg2 with only
`algorithm` changed) and `decal audit` on that config's audit keys must
write the files under data/planted/, and four `decal experiment` runs the
files under data/experiment/: the uniform-convergence sweep, the regret
table at three actions (so that an action axis wider than 2 is pinned), and
the convergence and sample-count sweeps over one unsorted epsilon grid (so
that each sweep's cell order is pinned, and cells of one to three rounds
pin alg2 and the per-round inequality slack).  An earlier version wrote
those files: every byte of each artifact, and each manifest.json but its
volatile `timestamp` and `wall_ms`.  The numbers are bound to this machine's
BLAS bits, as the cut-1 reruns of test_layouts.py are.  A change that moves them on purpose rewrites these files from its own
run and says so in CHANGES.md; from the repository root,

    PYTHONPATH=src python3 tests/test_fixture_artifacts.py [RUN ...]

rewrites the named runs (default: all of them) under tests/data/.
"""

import json
from pathlib import Path

import pytest

from decal.cli import AUDIT_SCHEMA, main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
VOLATILE = ("timestamp", "wall_ms")


def configs() -> dict:
    """Each run's directory under data/, command and config, keyed by run."""
    doc = json.loads((ROOT / "configs" / "planted_bias.json").read_text())
    return {
        "alg1": ("planted/alg1", "calibrate", doc),
        "alg2": ("planted/alg2", "calibrate", dict(doc, algorithm="alg2")),
        "audit": ("planted/audit", "audit", {k: v for k, v in doc.items() if k in AUDIT_SCHEMA}),
        "uniform_convergence": ("experiment/uniform_convergence", "experiment", {
            "experiment": "uniform_convergence", "n_grid": [32, 128, 512],
            "reference_n": 2048, "resamples": 8, "pool_size": 4,
        }),
        "regret": ("experiment/regret", "experiment", {
            "experiment": "regret", "loss_count": 4, "regret_batch_size": 2048,
            "n_actions": 3,
        }),
        "convergence": ("experiment/convergence", "experiment", {
            "experiment": "convergence", "epsilons": [0.2, 0.3, 0.15],
            "audit_batch_size": 96, "heldout_size": 128,
        }),
        "sample_complexity": ("experiment/sample_complexity", "experiment", {
            "experiment": "sample_complexity", "eps_grid": [0.2, 0.3, 0.15],
        }),
    }


def write_run(run: str, out: Path, config: Path) -> int:
    """Run `run` into out, its config written to config; the exit code."""
    _, command, doc = configs()[run]
    config.write_text(json.dumps(doc))
    return main([command, "--config", str(config), "--out", str(out), "--quiet"])


def steady(manifest: Path) -> dict:
    doc = json.loads(manifest.read_text())
    assert all(key in doc for key in VOLATILE)
    return {k: v for k, v in doc.items() if k not in VOLATILE}


@pytest.mark.parametrize("run", sorted(configs()))
def test_the_fixture_writes_the_committed_artifacts(run, tmp_path):
    out, want_dir = tmp_path / run, DATA / configs()[run][0]
    assert write_run(run, out, tmp_path / "config.json") == 0
    want = sorted(path.name for path in want_dir.iterdir())
    assert sorted(path.name for path in out.iterdir()) == want
    for name in want:
        if name == "manifest.json":
            assert steady(out / name) == steady(want_dir / name)
        else:
            assert (out / name).read_bytes() == (want_dir / name).read_bytes(), name


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for run in sys.argv[1:] or sorted(configs()):
            assert write_run(run, DATA / configs()[run][0], Path(tmp) / "config.json") == 0, run
