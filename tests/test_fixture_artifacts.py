"""The fixture's artifacts, byte for byte.

`decal calibrate` on `configs/planted_bias.json` (alg1, and alg2 with only
`algorithm` changed) and `decal audit` on that config's audit keys must
write the files under data/planted/, which an earlier version wrote: every
byte of each artifact, and each manifest.json but its volatile `timestamp`
and `wall_ms`.  The numbers are bound to this machine's BLAS bits, as the
cut-1 reruns of test_layouts.py are.  A change that moves them on purpose
rewrites these files from its own run and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from decal.cli import AUDIT_SCHEMA, main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data" / "planted"
VOLATILE = ("timestamp", "wall_ms")


def configs() -> dict:
    """Each run's command and config, keyed by its directory under data/planted."""
    doc = json.loads((ROOT / "configs" / "planted_bias.json").read_text())
    return {
        "alg1": ("calibrate", doc),
        "alg2": ("calibrate", dict(doc, algorithm="alg2")),
        "audit": ("audit", {k: v for k, v in doc.items() if k in AUDIT_SCHEMA}),
    }


def steady(manifest: Path) -> dict:
    doc = json.loads(manifest.read_text())
    assert all(key in doc for key in VOLATILE)
    return {k: v for k, v in doc.items() if k not in VOLATILE}


@pytest.mark.parametrize("run", sorted(configs()))
def test_the_fixture_writes_the_committed_artifacts(run, tmp_path):
    command, doc = configs()[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / run
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    want = sorted(path.name for path in (DATA / run).iterdir())
    assert sorted(path.name for path in out.iterdir()) == want
    for name in want:
        if name == "manifest.json":
            assert steady(out / name) == steady(DATA / run / name)
        else:
            assert (out / name).read_bytes() == (DATA / run / name).read_bytes(), name
