"""The README's Quickstart runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_quickstart_runs():
    """The python block under `## Quickstart`, the one place the README
    shows the `audit(calibrated, batch, ...)` form and `random_loss_pool`'s
    positional call, runs in a fresh interpreter with the package importable,
    so a rename fails here rather than for a reader."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    terminal, rounds, decce, found, gap = proc.stdout.split()
    assert terminal == "calibrated" and int(rounds) >= 1
    assert found in ("True", "False") and float(gap) >= 0.0 and float(decce) >= 0.0
