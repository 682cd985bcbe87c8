#!/usr/bin/env python3
"""Benchmark of the ccdet package: Monte Carlo, closed forms and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_known_fresh, mc_random_wide, mc_injection, closed_form, or
``all`` (every workload in turn, untraced). The package is imported from
``src/`` of the same checkout; nothing is installed.

A run times fixed-size passes of the workload until the timed calls add up
to S seconds, after one untimed warm-up pass. Times are reported in nominal
seconds, corrected for the machine's drifting speed by a reference kernel
timed next to every segment (see clock.py). Outputs are checked after each
pass, outside the timed region. With ``--trace 1`` untraced and traced
passes alternate, and the per-layer numbers come from spans recorded around
the package's public functions (see spans.py).

Standard output ends with one JSON line:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

The lines before it are a readable report, ending in a ``# env`` line with
the run environment. The metric names, units and meanings are listed in
perfbench/README.md. Exit status: 0 when every check passed, 1 when a check
failed (the JSON line is still printed), 2 when the package is missing or the
arguments are invalid (nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mc_known_fresh", "mc_random_wide", "mc_injection", "closed_form")
# fresh interpreters timed for setup_s
SETUP_PROBES = 5
# the start-up that normalizes them, and its typical time on the 2-vCPU
# Intel Xeon VM the benchmark was defined on (numpy 2.4, scipy 1.17)
STARTUP_REFERENCE = "import numpy, scipy.linalg, scipy.special"
STARTUP_NOMINAL_S = 0.6


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Put the checkout's src/ first on the path and import ccdet from it."""
    package = ROOT / "src" / "ccdet"
    if not (package / "__init__.py").is_file():
        _fail(f"no ccdet package at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ccdet
    import ccdet.cli  # noqa: F401  (the CLI workloads call it)

    if Path(ccdet.__file__).resolve().parent != package.resolve():
        _fail(f"imported ccdet from {ccdet.__file__}, not from {package}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Thread counts of the OpenBLAS copies numpy and scipy load, as they
    are at run time (the benchmark never sets them)."""
    import numpy
    import scipy

    counts = {}
    for module in (numpy, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(lib, symbol):
                    getattr(lib, symbol).restype = ctypes.c_int
                    counts[Path(path).name] = int(getattr(lib, symbol)())
                    break
    return counts


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(workload: str, seed: int, cpu_per_wall: float, reference: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_rev": _git_rev(),
        "process.cpu_per_wall": cpu_per_wall,
        "reference": reference,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Median nominal wall time of a fresh interpreter that imports ccdet and
    builds the workload's inputs, which is what every CLI call pays.

    Start-up drifts with the machine like everything else, but the compute
    kernels of clock.py do not track it. Each probe is normalized instead by
    the interpreters that import numpy and scipy just before and just after
    it, at STARTUP_NOMINAL_S seconds per such start-up.
    """

    def wall(command: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        return time.perf_counter() - start

    probe = [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)]
    reference = [sys.executable, "-c", STARTUP_REFERENCE]
    before = wall(reference)
    times = []
    for _ in range(SETUP_PROBES):
        elapsed = wall(probe)
        after = wall(reference)
        times.append(elapsed * STARTUP_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


class Run:
    """Passes, checks and traces of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, workdir: Path):
        from spans import Tracer
        from workloads import WORKLOADS

        self.name = name
        self.seed = seed
        self.setup_s = setup_seconds(name, seed)
        self.tracer = Tracer() if trace else None
        self.timed = []
        self.traced = []
        self.problems: list[str] = []
        workload = WORKLOADS[name](seed, workdir)
        self._measure(workload, seconds)
        passes = self.timed + self.traced
        self.problems += [text for p in passes for text in p.problems]
        self.problems += workload.pooled(self.timed)
        self.attempted = sum(p.attempted for p in passes)
        self.ok = sum(p.ok for p in passes)
        self.known = sum(p.known for p in passes)
        run_problems = len(self.problems) - sum(len(p.problems) for p in passes)
        self.failed = self.attempted - self.ok - self.known + run_problems

    def _measure(self, workload, seconds: float) -> None:
        from spans import install

        reference = workload.run(0)  # warm-up, untimed
        workload.check(reference)
        self.problems += reference.problems
        index = 0
        while sum(p.clock.raw_total for p in self.timed + self.traced) < seconds:
            p = workload.run(index)
            workload.check(p)
            self.timed.append(p)
            if index == 0 and p.fingerprint != reference.fingerprint:
                self.problems.append("pass 0 does not reproduce the warm-up pass exactly")
            if self.tracer is not None:
                install(self.tracer)
                try:
                    q = workload.run(index)
                finally:
                    self.tracer.restore()
                workload.check(q)
                self.traced.append(q)
                if q.fingerprint != p.fingerprint:
                    self.problems.append(f"traced pass {index} differs from the untraced pass")
            index += 1
        clocks = [p.clock for p in self.timed]
        self.cpu_per_wall = sum(c.cpu for c in clocks) / sum(c.raw_total for c in clocks)
        self.reference = {
            "kernel": clocks[0].kernel,
            "measured_s": statistics.median(r for c in clocks for r in c.references),
            "nominal_s": clocks[0].reference_nominal,
        }

    # -- end-to-end metrics --------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        timed = self.timed
        items = sum(p.items for p in timed) / sum(p.item_seconds for p in timed)
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (statistics.median(p.wall for p in timed), "s"),
            "items_per_s": (items, "1/s"),
            "ok_frac": (self.ok / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def report(self) -> dict[str, tuple[float, str]]:
        """The workload's figures under the names the benchmark documents for
        users; the end-to-end metrics are a subset."""
        values = self.end_to_end()
        timed = self.timed
        fail_frac = 1.0 - values["ok_frac"][0]
        values["raw_wall_s"] = (statistics.median(p.clock.raw_total for p in timed), "s")
        if self.name == "closed_form":
            design_s = sum(p.clock.nominal["design"] for p in timed)
            values["analytic_evals_per_s"] = (values["items_per_s"][0], "1/s")
            values["design_points_per_s"] = (
                sum(p.outputs["design_points"] for p in timed) / design_s, "1/s"
            )
            values["figure_s"] = (
                statistics.median(p.clock.nominal["figures"] for p in timed), "s"
            )
        else:
            values["trials_per_s"] = (values["items_per_s"][0], "1/s")
        values["fail_frac"] = (fail_frac, "ratio")
        return values

    # -- per-layer metrics -----------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures of the traced passes, per pass, in raw seconds
        (spans are not adjusted to nominal seconds)."""
        tr = self.tracer
        n = len(self.traced)
        traced_wall = sum(p.clock.raw_total for p in self.traced) / n
        untraced = statistics.median(p.clock.raw_total for p in self.timed)

        def per_pass(value: float) -> float:
            return value / n

        def layer(span: str, rows: bool = False, share: bool = True):
            out = {
                f"{span}.calls": (per_pass(tr.calls(span)), "count"),
                f"{span}.s": (per_pass(tr.seconds(span)), "s"),
            }
            if rows:
                out[f"{span}.rows"] = (per_pass(tr.rows(span)), "count")
            if share:
                out[f"{span}.share"] = (per_pass(tr.seconds(span)) / traced_wall, "ratio")
            return out

        gen_calls = tr.calls("projection.gen_projection")
        attempts = tr.calls("projection.operator_from_matrix")
        evaluated = tr.calls("analytics.deflection_ev", parent="secrecy.optimize_constrained")
        feasible = tr.calls("analytics.deflection_fc", parent="secrecy.optimize_constrained")
        deflection = ("analytics.deflection_fc", "analytics.deflection_ev")
        values = {}
        values.update(layer("model.trial_stream"))
        values.update(layer("montecarlo.estimate", share=False))
        values["montecarlo.trials"] = (per_pass(sum(p.trials for p in self.traced)), "count")
        values["montecarlo.self_s"] = (per_pass(tr.self_seconds("montecarlo.estimate")), "s")
        values["montecarlo.self_share"] = (
            values["montecarlo.self_s"][0] / traced_wall, "ratio"
        )
        values.update(layer("projection.gen_projection"))
        values["projection.draw_attempts"] = (per_pass(attempts), "count")
        values["projection.draw_accept_ratio"] = (
            gen_calls / attempts if attempts else 0.0, "ratio"
        )
        values.update(layer("projection.whiten", rows=True))
        values.update(layer("detection.build_mixtures", share=False))
        values.update(layer("detection.loglik_rows", rows=True))
        values.update(layer("analytics.ncx2"))
        values["analytics.ncx2.errors"] = (per_pass(tr.errors("analytics.ncx2")), "count")
        values.update(layer("analytics.pe_random_exact", share=False))
        values["analytics.deflection.calls"] = (
            per_pass(sum(tr.calls(name) for name in deflection)), "count"
        )
        values["analytics.deflection.s"] = (
            per_pass(sum(tr.seconds(name) for name in deflection)), "s"
        )
        values["secrecy.points_evaluated"] = (per_pass(evaluated), "count")
        values["secrecy.points_feasible"] = (per_pass(feasible), "count")
        values["secrecy.feasible_ratio"] = (feasible / evaluated if evaluated else 0.0, "ratio")
        values["secrecy.self_s"] = (
            per_pass(tr.self_seconds("secrecy.optimize_constrained")), "s"
        )
        values.update(layer("cli.main", share=False))
        values["cli.self_s"] = (per_pass(tr.self_seconds("cli.main")), "s")
        values["cli.self_share"] = (values["cli.self_s"][0] / traced_wall, "ratio")
        values["cli.bytes_written"] = (
            per_pass(sum(p.bytes_written for p in self.traced)), "bytes"
        )
        values["process.cpu_per_wall"] = (self.cpu_per_wall, "ratio")
        values["trace.wall_s"] = (traced_wall, "s")
        values["trace.overhead_s"] = (
            statistics.median(p.clock.raw_total for p in self.traced) - untraced, "s"
        )
        return values


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _print_metrics(title: str, values: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:34s} {value:.6g} {unit}")


def _print_run(run: Run, seed: int, seconds: float, trace: bool) -> None:
    print(
        f"perfbench {run.name}: seed {seed}, {seconds:g} s budget, trace {int(trace)}, "
        f"{len(run.timed)} timed and {len(run.traced)} traced passes"
    )
    _print_metrics("end-to-end (untraced passes):", run.report())
    if trace:
        _print_metrics("per layer (per traced pass):", run.per_layer())
    print(
        f"checks: {run.attempted} operations, {run.ok} verified, {run.known} known "
        f"ncx2 non-convergence, {run.failed} failed"
    )
    for problem in run.problems:
        print(f"  FAIL {problem}")


def _result(correct: bool, attempted: int, failed: int, values: dict) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")
    return args


def _probe(workload: str, seed: int) -> int:
    """Import ccdet and build the workload's inputs, then exit (timed by the
    parent as setup_s)."""
    from workloads import WORKLOADS

    names = WORKLOAD_NAMES if workload == "all" else (workload,)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in names:
            WORKLOADS[name](seed, Path(workdir))
    return 0


def main(argv: list[str] | None = None) -> int:
    # exit through SystemExit on SIGTERM, so work directories are removed
    # and setup probes are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse_args(argv)
    _import_package()
    if args.probe:
        return _probe(args.workload, args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runs = [Run(name, args.seed, args.seconds, bool(args.trace), workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for run in runs:
        _print_run(run, args.seed, args.seconds, bool(args.trace))
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    correct = failed == 0
    if args.workload == "all":
        values = _summary(runs)
        _print_metrics("all workloads:", values)
    elif args.trace:
        values = runs[0].per_layer()
    else:
        values = runs[0].end_to_end()
    env = environment(
        args.workload,
        args.seed,
        statistics.mean(run.cpu_per_wall for run in runs),
        {run.name: run.reference for run in runs},
    )
    print("# env " + json.dumps(env))
    print(_result(correct, attempted, failed, values))
    return 0 if correct else 1


def _summary(runs: list[Run]) -> dict[str, tuple[float, str]]:
    """The eight end-to-end figures over all four workloads; wall_s is one
    median pass of each."""
    by_name = {run.name: run for run in runs}
    mc = [run for run in runs if run.name.startswith("mc_")]
    closed = by_name["closed_form"].report()
    attempted = sum(run.attempted for run in runs)
    return {
        "setup_s": (setup_seconds("all", runs[0].seed), "s"),
        "wall_s": (sum(run.end_to_end()["wall_s"][0] for run in runs), "s"),
        "trials_per_s": (
            sum(p.items for run in mc for p in run.timed)
            / sum(p.item_seconds for run in mc for p in run.timed),
            "1/s",
        ),
        "analytic_evals_per_s": closed["analytic_evals_per_s"],
        "design_points_per_s": closed["design_points_per_s"],
        "figure_s": closed["figure_s"],
        "fail_frac": ((attempted - sum(run.ok for run in runs)) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
