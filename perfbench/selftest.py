#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny budget.

    python3 perfbench/selftest.py

Runs every workload for one pass, untraced and traced, then all four
workloads together, and asserts that each run exits 0, passes all its
checks, and prints exactly the metrics BENCHMARK.json names, with their
units. Finally it copies only BENCHMARK.json and perfbench/ into a scratch
directory and asserts that the benchmark fails there without printing a
result. Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
# the eight figures `--workload all` prints, with their units
SUMMARY_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "analytic_evals_per_s": "1/s",
    "design_points_per_s": "1/s",
    "figure_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(label: str, done, units: dict[str, str]) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (label, set(result))
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, (label, result)
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == units, f"{label}: metrics {got} != {units}"
    for name, entry in result["metrics"].items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, name, value)
    assert "# env " in done.stdout, f"{label}: no environment record"
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        result = check_result(f"{workload} trace 0", run(workload, 0), end_to_end)
        for name in ("setup_s", "wall_s", "items_per_s", "ok_frac", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, (workload, name)
        check_result(f"{workload} trace 1", run(workload, 1), per_layer)
        print(f"ok {workload}")
    check_result("all", run("all", 0), SUMMARY_UNITS)
    print("ok all")
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            RUN.parent, Path(bare) / RUN.parent.name, ignore=shutil.ignore_patterns("__pycache__")
        )
        done = run("mc_known_fresh", 0, cwd=Path(bare), script=Path(bare) / RUN.parent.name / RUN.name)
        assert done.returncode != 0 and done.stdout == "", (done.returncode, done.stdout)
    print("ok no package: exit status", done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
