"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (scenario objects or
generated INI configs), runs one fixed-size *pass* per call to :meth:`run`
with only the calls into ccdet timed, and checks the pass's outputs in
:meth:`check`, outside the timed region. Pass ``i`` derives its inputs from
``(seed, workload, i)``, so two passes with the same index give identical
outputs and different passes give independent ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ccdet import analytics, cli, montecarlo
from ccdet.errors import DomainError
from ccdet.model import Scenario, SignalModel
from clock import Clock

# Monte Carlo checks allow this many Wald standard deviations. The fresh
# projection of mc_known_fresh adds batch-level variance on top of the
# binomial variance (about 1.5x at these settings), hence the wider margin.
WALD_SIGMAS = 5.0
WALD_SIGMAS_FRESH_PHI = 6.0
# absolute agreement required with the scipy.stats.ncx2 oracle
ORACLE_ATOL = 1e-8
# message of the known non-convergence of the ncx2 series at large lambda
NONCONVERGENCE = "did not converge"


@dataclass
class Pass:
    """Outcome of one pass.

    clock holds the timed calls, raw and nominal, by stage. items counts
    work items (trials, or successful analytic evaluations) done in
    item_stage. attempted counts operations; ok those that returned a
    verified result; known those that hit the known ncx2 non-convergence.
    problems lists unexpected failures and wrong outputs. fingerprint is
    compared exactly between passes with the same index.
    """

    index: int
    clock: Clock
    items: int
    attempted: int
    item_stage: str = "pass"
    ok: int = 0
    known: int = 0
    trials: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None
    outputs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Nominal seconds of the pass's timed calls."""
        return self.clock.nominal_total

    @property
    def item_seconds(self) -> float:
        return self.clock.nominal[self.item_stage]


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, index])


def _pass_seed(seed: int, workload: str, index: int) -> int:
    return int(pass_rng(seed, workload, index).integers(2**31))


def _wald_tolerance(p: float, trials: int, sigmas: float) -> float:
    return sigmas * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _run_cli(argv: list[str], clock: Clock, stage: str = "pass") -> int:
    """Call cli.main in-process as one timed segment; returns its exit status."""
    with contextlib.redirect_stderr(io.StringIO()), clock.segment(stage):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# mc_known_fresh
# ---------------------------------------------------------------------------


class KnownFresh:
    """estimate_errors_fresh_phi on the acceptance-criterion-1 scenario."""

    name = "mc_known_fresh"
    trials = 4000
    batches = 40  # a fresh projection per 100-trial batch

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        model = SignalModel(
            ambient_dim=100,
            mean=math.sqrt(2.0 / 100.0) * np.ones(100),
            signal_variance=0.0,
            noise_variance=1.0,
        )
        self.template = Scenario(model=model, compressed_dim=20, num_nodes=5, trials=self.trials)
        self.target = analytics.pe_deterministic_approx(0.2, 5, 2.0)

    @cached_property
    def jensen_gap(self) -> float:
        """The Q-approximation uses the mean projected energy c * ||s||^2; a
        fresh Gaussian projection has energy ||s||^2 * Beta(M/2, (P-M)/2), and
        averaging Q over that law shifts pe by this much (about 0.0033)."""
        from scipy import integrate, stats

        law = stats.beta(10, 40)
        mean_pe, _ = integrate.quad(
            lambda u: stats.norm.sf(0.5 * math.sqrt(5 * 2.0 * u)) * law.pdf(u), 0.0, 1.0
        )
        return abs(mean_pe - self.target)

    def run(self, index: int) -> Pass:
        scenario = replace(self.template, seed=_pass_seed(self.seed, self.name, index))
        clock = Clock()
        with clock.segment():
            result = montecarlo.estimate_errors_fresh_phi(scenario, self.trials, self.batches)
        estimate = (result.trials, result.pe_fc, result.pf_fc, result.pd_fc)
        return Pass(
            index=index,
            clock=clock,
            items=self.trials,
            attempted=1,
            trials=self.trials,
            fingerprint=estimate,
            outputs={"pe": result.pe_fc},
        )

    def check(self, p: Pass) -> None:
        pe = p.outputs["pe"]
        tol = _wald_tolerance(self.target, self.trials, WALD_SIGMAS_FRESH_PHI) + self.jensen_gap
        if abs(pe - self.target) <= tol:
            p.ok = 1
        else:
            p.problems.append(
                f"pass {p.index}: pe_fc {pe:.5f} vs Q-approximation {self.target:.5f} "
                f"beyond {tol:.5f}"
            )

    def pooled(self, passes: list[Pass]) -> list[str]:
        pe = float(np.mean([p.outputs["pe"] for p in passes]))
        total = self.trials * len(passes)
        tol = _wald_tolerance(self.target, total, WALD_SIGMAS_FRESH_PHI) + self.jensen_gap
        if abs(pe - self.target) > tol:
            return [f"pooled pe_fc {pe:.5f} over {total} trials vs {self.target:.5f} beyond {tol:.5f}"]
        return []


# ---------------------------------------------------------------------------
# mc_random_wide and mc_injection: `ccdet simulate` in-process
# ---------------------------------------------------------------------------

RANDOM_WIDE_CONFIG = """\
[signal]
ambient_dim = 100
mean = zeros
signal_variance = 1
noise_variance = 20

[scenario]
compressed_dim = 50
num_nodes = 50
seed = {seed}
trials = {trials}
"""

INJECTION_CONFIG = """\
[signal]
ambient_dim = 100
mean = constant:0.1414
signal_variance = 0
noise_variance = 1

[scenario]
compressed_dim = 20
num_nodes = 10
seed = {seed}
trials = {trials}

[injection]
fraction = 0.3
p10 = 0.8
p20 = 0.1
p11 = 0.1
p21 = 0.8
kappa = 2.381
art_variance = 1.0
"""


class CliSimulate:
    """`ccdet simulate` on a generated config; one fixed projection per pass."""

    kernel = "mixed"  # reference kernel of the nominal clock

    def __init__(self, name: str, template: str, trials: int, seed: int, workdir: Path):
        self.name = name
        self.trials = trials
        self.seed = seed
        self.config = workdir / f"{name}.ini"
        self.config.write_text(template.format(seed=seed, trials=trials))
        self.out = workdir / f"{name}.csv"

    def run(self, index: int) -> Pass:
        seed = _pass_seed(self.seed, self.name, index)
        argv = [
            "simulate", "--config", str(self.config), "--out", str(self.out),
            "--trials", str(self.trials), "--seed", str(seed),
        ]
        self.out.unlink(missing_ok=True)
        clock = Clock(self.kernel)
        status = _run_cli(argv, clock)
        p = Pass(index=index, clock=clock, items=self.trials, attempted=1, trials=self.trials)
        if status != 0 or not self.out.exists():
            p.problems.append(f"pass {index}: simulate exited with status {status}")
            return p
        data = self.out.read_bytes()
        p.bytes_written = len(data)
        p.fingerprint = data
        p.outputs = _read_csv(self.out)[0]
        p.outputs["expected_seed"] = str(seed)
        return p

    def _row_problems(self, row: dict[str, str]) -> list[str]:
        problems = []
        if int(row["trials"]) != self.trials or row["seed"] != row["expected_seed"]:
            problems.append(f"trials/seed columns {row['trials']}/{row['seed']} do not match the call")
        return problems

    def check(self, p: Pass) -> None:
        if not p.outputs:
            return
        problems = self._row_problems(p.outputs) + self.check_row(p.outputs)
        p.problems += [f"pass {p.index}: {text}" for text in problems]
        p.ok = int(not problems)

    def check_row(self, row: dict[str, str]) -> list[str]:
        raise NotImplementedError

    def pooled(self, passes: list[Pass]) -> list[str]:
        return []


class RandomWide(CliSimulate):
    """Criterion-2 scenario: random signal, zero mean, P=100, M=50, N=50."""

    kernel = "blas"

    def __init__(self, seed: int, workdir: Path):
        super().__init__("mc_random_wide", RANDOM_WIDE_CONFIG, 1000, seed, workdir)

    def check_row(self, row):
        emp, theory = float(row["pe_fc_emp"]), float(row["pe_fc_theory"])
        tol = _wald_tolerance(theory, self.trials, WALD_SIGMAS)
        if abs(emp - theory) > tol:
            return [f"pe_fc_emp {emp:.5f} vs pe_fc_theory {theory:.5f} beyond {tol:.5f}"]
        return []

    def pooled(self, passes):
        rows = [p.outputs for p in passes if p.outputs]
        emp = float(np.mean([float(r["pe_fc_emp"]) for r in rows]))
        theory = float(np.mean([float(r["pe_fc_theory"]) for r in rows]))
        tol = _wald_tolerance(theory, self.trials * len(rows), WALD_SIGMAS)
        if abs(emp - theory) > tol:
            return [f"pooled pe_fc_emp {emp:.5f} vs pe_fc_theory {theory:.5f} beyond {tol:.5f}"]
        return []


class Injection(CliSimulate):
    """Injection scenario on the blinding manifold, N=10, art_variance 1."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__("mc_injection", INJECTION_CONFIG, 2000, seed, workdir)

    def check_row(self, row):
        pe_fc, pe_ev = float(row["pe_fc_emp"]), float(row["pe_ev_emp"])
        if not pe_ev > pe_fc:
            return [f"pe_ev_emp {pe_ev:.5f} is not above pe_fc_emp {pe_fc:.5f}"]
        return []


# ---------------------------------------------------------------------------
# closed_form: analytics, `ccdet design` and `ccdet figure`
# ---------------------------------------------------------------------------

# 14 log-spaced points from 1 to 4e4; the series fails to converge at 4e4.
# A pass calls ncx2_sf at every other point and ncx2_cdf at the rest, and the
# next pass swaps them, so each pass makes one slow failing call, not two.
NCX2_NONCENTRALITIES = np.geomspace(1.0, 4e4, 14)
# (N, mean energy) grid of pe_random_exact; with variances (1, 20) its
# noncentralities stay at or below 1050. M is drawn per pass.
PE_NODES = (1, 5, 20)
PE_ENERGIES = (0.0, 0.01, 1.0, 2.5)
PE_VARIANCES = (1.0, 20.0)
DESIGN_TAU = 0.05
DESIGN_AXIS_POINTS = 12
# rows each `ccdet figure` preset writes
FIGURE_ROWS = {
    "2": 250, "3a": 120, "3b": 120, "4a": 620, "4b": 620,
    "5a": 620, "5b": 620, "6": 380, "7": 41,
}

DESIGN_CONFIG = """\
[signal]
ambient_dim = 100
mean = constant:0.1414
signal_variance = 0
noise_variance = 1

[scenario]
compressed_dim = 20
num_nodes = 10

[injection]
fraction = 0.3
p10 = 0.8
p20 = 0.1
p11 = 0.1
p21 = 0.8
kappa = 2.381

[design]
mode = constrained
tau = {tau}
c_grid = {c}
fraction_grid = {fraction}
kappa_grid = {kappa}
gamma_inv_grid = {gamma_inv}
"""


def _oracle_pe(m: int, n: int, energy: float) -> float:
    """Equal-priors random-signal error probability from scipy.stats.ncx2,
    with the thresholds and laws written out independently of ccdet."""
    from scipy import stats

    a, b = PE_VARIANCES
    raw = (a + b) * n * m * math.log1p(a / b) + n * energy
    transformed = (b / a) * raw + n * (b / a) ** 2 * energy
    pf = stats.ncx2.sf(transformed / b, n * m, n * energy * b / a**2)
    pm = stats.ncx2.cdf(transformed / (a + b), n * m, n * (energy / a) * (1.0 + b / a))
    return 0.5 * float(pf) + 0.5 * float(pm)


def _grid_text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class ClosedForm:
    """Closed forms, the constrained designer and the nine figure presets."""

    name = "closed_form"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model = SignalModel(
            ambient_dim=100, mean=np.zeros(100),
            signal_variance=PE_VARIANCES[0], noise_variance=PE_VARIANCES[1],
        )
        self.design_config = workdir / "design.ini"
        self.solution = workdir / "design.txt"
        self.figures = {fid: workdir / f"figure-{fid}.csv" for fid in FIGURE_ROWS}

    def inputs(self, index: int) -> dict:
        rng = pass_rng(self.seed, self.name, index)
        ms = sorted(int(v) for v in rng.choice(np.arange(5, 101), size=3, replace=False))
        pe_points = [(m, n, e) for m in ms for n in PE_NODES for e in PE_ENERGIES]
        dofs = rng.integers(10, 101, size=NCX2_NONCENTRALITIES.size)
        scale = rng.uniform(0.9, 1.1, size=NCX2_NONCENTRALITIES.size)
        ncx2_points = [
            ("ncx2_sf" if (k + index) % 2 == 0 else "ncx2_cdf", float((dof + lam) * s), int(dof),
             float(lam))
            for k, (dof, lam, s) in enumerate(zip(dofs, NCX2_NONCENTRALITIES, scale))
        ]
        points = DESIGN_AXIS_POINTS
        grids = {
            "c": np.sort(np.concatenate([[0.05], rng.uniform(0.05, 1.0, points - 1)])),
            "fraction": np.sort(rng.uniform(0.05, 1.0, points)),
            "kappa": np.sort(np.concatenate([[0.0], rng.uniform(0.0, 3.5, points - 1)])),
            "gamma_inv": np.sort(np.concatenate([[5.0], rng.uniform(0.0, 5.0, points - 1)])),
        }
        return {"pe": pe_points, "ncx2": ncx2_points, "grids": grids}

    def run(self, index: int) -> Pass:
        inputs = self.inputs(index)
        grids = inputs["grids"]
        self.design_config.write_text(
            DESIGN_CONFIG.format(tau=DESIGN_TAU, **{key: _grid_text(v) for key, v in grids.items()})
        )
        for path in (self.solution, *self.figures.values()):
            path.unlink(missing_ok=True)
        pe_values: list[object] = []
        ncx2_values: list[object] = []
        clock = Clock()
        # one segment per ncx2 call, so the reference kernel brackets each
        # slow series evaluation closely
        with clock.segment("analytic"):
            for m, n, energy in inputs["pe"]:
                try:
                    pe_values.append(analytics.pe_random_exact(self.model, m, n, energy).pe)
                except DomainError as exc:
                    pe_values.append(exc)
        for fn, x, dof, lam in inputs["ncx2"]:
            with clock.segment("analytic"):
                try:
                    ncx2_values.append(getattr(analytics, fn)(x, dof, lam))
                except DomainError as exc:
                    ncx2_values.append(exc)
        design_status = _run_cli(
            ["design", "--config", str(self.design_config), "--out", str(self.solution),
             "--mode", "constrained"],
            clock, "design",
        )
        figure_status = {
            fid: _run_cli(["figure", "--figure", fid, "--out", str(path)], clock, "figures")
            for fid, path in self.figures.items()
        }
        written = [path for path in (self.solution, *self.figures.values()) if path.exists()]
        digest = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
        values = [v if isinstance(v, float) else f"error: {v}" for v in pe_values + ncx2_values]
        return Pass(
            index=index,
            clock=clock,
            items=0,
            item_stage="analytic",
            attempted=len(pe_values) + len(ncx2_values) + 1 + len(self.figures),
            bytes_written=sum(path.stat().st_size for path in written),
            fingerprint=(values, digest),
            outputs={
                "inputs": inputs, "pe": pe_values, "ncx2": ncx2_values,
                "design_status": design_status, "figure_status": figure_status,
                "design_points": int(np.prod([len(v) for v in grids.values()])),
            },
        )

    def _analytic_ok(self, label: str, value, oracle: float, p: Pass) -> None:
        if isinstance(value, DomainError) and NONCONVERGENCE in str(value):
            p.known += 1
        elif isinstance(value, Exception):
            p.problems.append(f"pass {p.index}: {label} raised {value!r}")
        elif not abs(value - oracle) <= ORACLE_ATOL:
            p.problems.append(f"pass {p.index}: {label} = {value!r}, scipy oracle {oracle!r}")
        else:
            p.ok += 1
            p.items += 1

    def check(self, p: Pass) -> None:
        from scipy import stats

        out = p.outputs
        inputs = out["inputs"]
        for (m, n, energy), value in zip(inputs["pe"], out["pe"]):
            self._analytic_ok(
                f"pe_random_exact(M={m}, N={n}, E={energy})", value, _oracle_pe(m, n, energy), p
            )
        oracles = {"ncx2_sf": stats.ncx2.sf, "ncx2_cdf": stats.ncx2.cdf}
        for (fn, x, dof, lam), value in zip(inputs["ncx2"], out["ncx2"]):
            self._analytic_ok(
                f"{fn}(x={x:.6g}, dof={dof}, lambda={lam:.6g})",
                value,
                float(oracles[fn](x, dof, lam)),
                p,
            )
        self._check_design(p)
        for fid, path in self.figures.items():
            problem = self._figure_problem(fid, path, out["figure_status"][fid])
            if problem:
                p.problems.append(f"pass {p.index}: figure {fid}: {problem}")
            else:
                p.ok += 1

    def _check_design(self, p: Pass) -> None:
        status = p.outputs["design_status"]
        if status != 0 or not self.solution.exists():
            p.problems.append(f"pass {p.index}: design exited with status {status}")
            return
        fields = dict(
            line.split(" = ", 1) for line in self.solution.read_text().splitlines() if " = " in line
        )
        d_ev, d_fc = float(fields["d_ev_star"]), float(fields["d_fc_star"])
        if fields.get("regime") != "constrained-grid" or not math.isfinite(d_fc):
            p.problems.append(f"pass {p.index}: design solution {fields}")
        elif not d_ev <= DESIGN_TAU + 1e-9:
            p.problems.append(f"pass {p.index}: design d_ev {d_ev!r} exceeds tau {DESIGN_TAU}")
        else:
            p.ok += 1

    @staticmethod
    def _figure_problem(fid: str, path: Path, status: int) -> str | None:
        if status != 0 or not path.exists():
            return f"exited with status {status}"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != FIGURE_ROWS[fid]:
            return f"{len(rows)} rows, expected {FIGURE_ROWS[fid]}"
        if not all(math.isfinite(float(cell)) for row in rows for cell in row):
            return "non-finite value"
        return None

    def pooled(self, passes: list[Pass]) -> list[str]:
        return []


WORKLOADS = {
    "mc_known_fresh": KnownFresh,
    "mc_random_wide": RandomWide,
    "mc_injection": Injection,
    "closed_form": ClosedForm,
}
