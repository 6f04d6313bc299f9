"""Self-checks of the benchmark; run from the repository root:

    python3 bench/selfcheck.py

1. Every workload runs at a short length with no failed operation.
2. Every metric BENCHMARK.json names is printed, with its unit, in the
   final JSON line (end-to-end with --trace 0, per-layer with --trace 1).
3. The deterministic outcomes (held-out decCE, final anchor count, audit
   gaps) repeat exactly across two runs at the same seed.
4. Outside a checkout (only BENCHMARK.json and the benchmark's files) the
   benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

SEED = 7
SECONDS = 1.0


def run(args: list[str], cwd: Path | None = None) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def quality(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("quality: "))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems: list[str] = []

    for w in (w["name"] for w in spec["workloads"]):
        base = ["--workload", w, "--seed", str(SEED), "--seconds", str(SECONDS)]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run([*base, "--trace", str(trace)])
            if code != 0 or not lines:
                problems.append(f"{w} trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w} trace={trace}: metric {m['name']} missing or "
                                    f"not in {m['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{w} trace={trace}: unlisted metrics {sorted(extra)}")
            if trace == 0:
                first = quality(lines)
        code, lines = run([*base, "--trace", "0"])
        if code != 0 or quality(lines) != first:
            problems.append(f"{w}: deterministic outcomes differ at seed {SEED}")
        print(f"{w}: checked", flush=True)

    bare = Path(".bench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    name = spec["workloads"][0]["name"]
    code, lines = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("outside a checkout the benchmark did not fail cleanly")

    for p in problems:
        print(f"FAIL: {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
