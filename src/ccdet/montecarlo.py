"""Monte Carlo error estimation for the full sensing network.

Every covariance in the model is a scalar times phi phi^T, so the
likelihood-ratio tests of :mod:`ccdet.detection` read a node's whitened
observation z only through proj = z^T u and ||z||^2 (u = L^-1 phi mu). The
engine draws those two numbers directly instead of ambient vectors: given
the node's mixture component, with mean offset c and variance var, x =
z^T u / sqrt(E) is N(c sqrt(E), var) and ||z||^2 - x^2 is var times a
chi-squared variable with M - 1 degrees of freedom, where E = ||u||^2 is
the projected signal energy. Each block of trials is then scored in one
call to the test, the same for the fusion center and the eavesdropper.

Reproducibility contract, version CONTRACT_VERSION: trials are grouped in
blocks of TRIAL_BLOCK, and trial block k uses substream k, the generator of
trial_stream(scenario seed, k). A block always draws its whole layout (see
_draw_block) and a run uses only the rows of its trials, so trial t's
numbers depend on (seed, t) alone, and re-running with the same seed
reproduces the same counts exactly. The trial budget is split evenly across
hypotheses: trial t < (trials + 1) // 2 is drawn under the null. The
streams come from numpy Generator methods, whose output numpy does not
promise to keep across versions (NEP 19).

Infrastructure streams use reserved substream bases far above any block
index: projection draws at 2**62, per-batch derived master seeds at 2**61,
and per-grid-point master seeds for sweeps at 2**60. Fresh-projection
batching derives an independent master seed per batch; reusing the scenario
seed across batches would replay the same per-trial noise in every batch and
silently shrink the effective sample to a single batch.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .detection import ScenarioMixtures, build_mixtures, log_likelihood_ratios
from .errors import DimensionError, DomainError
from .model import RngContract, Scenario, trial_stream, validate_scenario
from .projection import ProjectionOperator, gen_projection

# version of the Monte Carlo draw layout; a new version moves simulate bytes
CONTRACT_VERSION = 2
# trials per block; block k draws from trial_stream(seed, k)
TRIAL_BLOCK = 256
PHI_STREAM_BASE = 2**62
BATCH_MASTER_BASE = 2**61
POINT_MASTER_BASE = 2**60

# 95% normal quantile for Wald intervals
_WALD_Z = 1.959963984540054

SWEEP_CSV_HEADER = (
    "axis_value",
    "pe_fc_emp",
    "pe_fc_ci",
    "pe_fc_theory",
    "pe_ev_emp",
    "pe_ev_ci",
    "d_fc",
    "d_ev",
    "trials",
    "seed",
)

_SWEEP_AXES = ("c", "N", "kappa", "fraction", "gamma_inv")


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical error estimate for one scenario.

    Attributes:
        trials: Total trial count (split evenly across hypotheses).
        pe_fc: Empirical prior-weighted error probability at the fusion center.
        pe_fc_ci: 95% Wald half-width for pe_fc.
        pf_fc: Empirical false-alarm probability.
        pd_fc: Empirical detection probability.
        pe_ev: Eavesdropper error probability; None without injection.
        pe_ev_ci: 95% Wald half-width for pe_ev; None without injection.
        wallclock: Elapsed seconds (not part of any data file).
        interval: Interval construction name.
        seed: Scenario master seed the estimate was produced with.
    """

    trials: int
    pe_fc: float
    pe_fc_ci: float
    pf_fc: float
    pd_fc: float
    pe_ev: float | None
    pe_ev_ci: float | None
    wallclock: float
    interval: str
    seed: int


def _draw_block(
    scenario: Scenario, mixtures: ScenarioMixtures, block: int, count: int, split: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-node statistics (proj, sq_norm) of the first `count` trials of
    trial block `block`, each of shape (count, N); sq_norm is None unless
    mixtures.uses_energy. Rows before `split` are drawn under H0, the rest
    under H1.

    The block draws, for all TRIAL_BLOCK rows and in this order, from
    trial_stream(seed, block): coins random((TRIAL_BLOCK, B)) when B > 0,
    normals eps standard_normal((TRIAL_BLOCK, N)), and, when the energy is
    used, chi2 = 2 standard_gamma((M - 1) / 2, (TRIAL_BLOCK, N)). A node's
    component is its clean density, or for an injecting node the component
    of the fusion center's mixture that its coin picks. With (c, var) that
    component's offset and variance and a = sqrt(energy), x = z^T u / a is
    N(c a, var): x = c a + sqrt(var) eps, proj = a x, sq_norm = x^2 + var chi2.
    """
    gen = trial_stream(scenario.seed, block)
    n, b = scenario.num_nodes, mixtures.num_injecting
    coins = gen.random((TRIAL_BLOCK, b))[:count] if b else None
    eps = gen.standard_normal((TRIAL_BLOCK, n))[:count]
    chi2 = None
    if mixtures.uses_energy:
        dof = scenario.compressed_dim - 1
        chi2 = 2.0 * gen.standard_gamma(dof / 2, (TRIAL_BLOCK, n))[:count]
    offset = np.empty((count, n))
    variance = np.empty((count, n))
    for h, rows in ((0, slice(None, split)), (1, slice(split, None))):
        offset[rows], variance[rows] = mixtures.clean[h].offsets[0], mixtures.clean[h].variance[0]
        if b:
            mix = mixtures.fc_byz[h]
            # coin < w+ picks +kappa, coin < w+ + w- picks -kappa, else 0
            component = np.searchsorted(np.cumsum(mix.weights[:2]), coins[rows], side="right")
            offset[rows, :b] = mix.offsets[component]
            variance[rows, :b] = mix.variance[component]
    a = math.sqrt(mixtures.clean[0].energy)
    x = offset * a + np.sqrt(variance) * eps
    sq_norm = None if chi2 is None else x * x + variance * chi2
    return a * x, sq_norm


def _check_hypothesis(hypothesis: str) -> str:
    if hypothesis not in ("H0", "H1"):
        raise DomainError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    return hypothesis


def _check_op_matches(scenario: Scenario, op: ProjectionOperator) -> None:
    if op.ambient_dim != scenario.model.ambient_dim:
        raise DimensionError("operator ambient dimension does not match the scenario")
    if op.compressed_dim != scenario.compressed_dim:
        raise DimensionError(
            "operator compressed dimension does not match the scenario"
        )


class _Counts:
    """Verdict tallies accumulated across batches and blocks."""

    def __init__(self) -> None:
        self.n_h0 = 0
        self.n_h1 = 0
        self.fc_fa = 0
        self.fc_det = 0
        self.eve_fa = 0
        self.eve_det = 0
        self.has_eve = False


def _accumulate(
    scenario: Scenario,
    op: ProjectionOperator,
    trials: int,
    counts: _Counts,
) -> None:
    mixtures = build_mixtures(scenario, op)
    n_h0 = (trials + 1) // 2
    for lo in range(0, trials, TRIAL_BLOCK):
        count = min(TRIAL_BLOCK, trials - lo)
        split = min(max(n_h0 - lo, 0), count)
        fc, eve = log_likelihood_ratios(
            mixtures, *_draw_block(scenario, mixtures, lo // TRIAL_BLOCK, count, split)
        )
        counts.fc_fa += int((fc[:split] > mixtures.threshold).sum())
        counts.fc_det += int((fc[split:] > mixtures.threshold).sum())
        if eve is not None:
            counts.has_eve = True
            counts.eve_fa += int((eve[:split] > mixtures.threshold).sum())
            counts.eve_det += int((eve[split:] > mixtures.threshold).sum())
    counts.n_h0 += n_h0
    counts.n_h1 += trials - n_h0


def _wald_half_width(p_hat: float, trials: int) -> float:
    return _WALD_Z * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def _result_from_counts(
    scenario: Scenario, counts: _Counts, wallclock: float
) -> MonteCarloResult:
    p0, p1 = scenario.priors
    trials = counts.n_h0 + counts.n_h1
    pf = counts.fc_fa / counts.n_h0
    pd = counts.fc_det / counts.n_h1
    pe = p0 * pf + p1 * (1.0 - pd)
    pe_ev = pe_ev_ci = None
    if counts.has_eve:
        pf_ev = counts.eve_fa / counts.n_h0
        pd_ev = counts.eve_det / counts.n_h1
        pe_ev = p0 * pf_ev + p1 * (1.0 - pd_ev)
        pe_ev_ci = _wald_half_width(pe_ev, trials)
    return MonteCarloResult(
        trials=trials,
        pe_fc=pe,
        pe_fc_ci=_wald_half_width(pe, trials),
        pf_fc=pf,
        pd_fc=pd,
        pe_ev=pe_ev,
        pe_ev_ci=pe_ev_ci,
        wallclock=wallclock,
        interval="wald",
        seed=scenario.seed,
    )


def estimate_errors(
    scenario: Scenario,
    op: ProjectionOperator,
    trials: int,
) -> MonteCarloResult:
    """Estimate error probabilities over the given trial budget.

    Trials are split evenly across hypotheses and trial block k draws from
    substream k, so estimates are reproducible from the scenario seed alone.
    """
    validate_scenario(scenario)
    _check_op_matches(scenario, op)
    trials = int(trials)
    if trials < 100:
        raise DomainError("estimate_errors needs at least 100 trials")
    start = time.perf_counter()
    counts = _Counts()
    _accumulate(scenario, op, trials, counts)
    return _result_from_counts(scenario, counts, time.perf_counter() - start)


def estimate_errors_fresh_phi(
    scenario: Scenario,
    trials: int,
    batches: int,
) -> MonteCarloResult:
    """Estimate errors with a fresh projection drawn for every batch.

    The budget must divide evenly into batches of even size so each batch
    splits exactly across hypotheses. Batch b derives an independent master
    seed from (scenario seed, 2**61 + b) and draws its projection from that
    master's reserved projection substream; deriving per-batch masters keeps
    the per-trial noise independent across batches.
    """
    validate_scenario(scenario)
    trials = int(trials)
    batches = int(batches)
    if batches < 1:
        raise DomainError("batches must be positive")
    if trials < 100:
        raise DomainError("estimate_errors_fresh_phi needs at least 100 trials")
    if trials % batches != 0:
        raise DomainError("trials must divide evenly into batches")
    per_batch = trials // batches
    if per_batch % 2 != 0:
        raise DomainError("per-batch trial count must be even")
    start = time.perf_counter()
    counts = _Counts()
    m = scenario.compressed_dim
    p = scenario.model.ambient_dim
    for b in range(batches):
        master = RngContract(scenario.seed, BATCH_MASTER_BASE + b).derive_master()
        batch_scenario = replace(scenario, seed=master)
        batch_op = gen_projection(m, p, RngContract(master, PHI_STREAM_BASE))
        _accumulate(batch_scenario, batch_op, per_batch, counts)
    return _result_from_counts(scenario, counts, time.perf_counter() - start)


def sample_transformed_statistics(
    scenario: Scenario,
    op: ProjectionOperator,
    hypothesis: str,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate the transformed random-signal statistic (the chi-squared
    form) for distribution diagnostics, shape (trials,).

    This is a single-stream vectorized probe of the statistic's law, not an
    error estimator; it does not use the per-trial substream contract.
    """
    validate_scenario(scenario)
    _check_op_matches(scenario, op)
    _check_hypothesis(hypothesis)
    model = scenario.model
    if model.signal_variance <= 0.0:
        raise DomainError("the transformed statistic needs signal_variance > 0")
    if scenario.injection is not None:
        raise DomainError("distribution probe is defined without injection")
    trials = int(trials)
    if trials < 1:
        raise DomainError("trials must be positive")
    n = scenario.num_nodes
    p = model.ambient_dim
    u = rng.standard_normal((trials, n, p)) * math.sqrt(model.noise_variance)
    if hypothesis == "H1":
        u += model.mean + rng.standard_normal((trials, n, p)) * math.sqrt(
            model.signal_variance
        )
    z = u @ op.whitened.T
    template = op.whitened @ model.mean
    quad = np.einsum("tnm,tnm->t", z, z)
    linear = z.sum(axis=1) @ template
    ratio = model.signal_variance / model.noise_variance
    raw = ratio * quad + 2.0 * linear
    energy = op.projector_energy(model.mean)
    shift = n * (1.0 / ratio) ** 2 * energy
    return raw / ratio + shift


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep.

    Attributes:
        axis: Swept parameter name.
        axis_value: Grid value.
        scenario: Fully derived scenario evaluated at this point.
        result: Monte Carlo estimate.
        pe_fc_theory: Closed-form error prediction; None for injection
            scenarios (no closed form for the mixture test).
        d_fc: Fusion-center deflection (injection scenarios only).
        d_ev: Eavesdropper deflection (injection scenarios only).
    """

    axis: str
    axis_value: float
    scenario: Scenario
    result: MonteCarloResult
    pe_fc_theory: float | None
    d_fc: float | None
    d_ev: float | None


def _derive_scenario(template: Scenario, axis: str, value: float) -> Scenario:
    if axis == "c":
        value = float(value)
        if not 0.0 < value <= 1.0:
            raise DomainError(f"compression ratio grid value {value} not in (0, 1]")
        m = int(math.floor(value * template.model.ambient_dim + 0.5))
        m = max(1, min(template.model.ambient_dim, m))
        return replace(template, compressed_dim=m)
    if axis == "N":
        return replace(template, num_nodes=int(value))
    if template.injection is None:
        raise DomainError(f"axis {axis!r} needs a scenario with an injection policy")
    if axis == "kappa":
        policy = replace(template.injection, kappa=float(value))
    elif axis == "fraction":
        policy = replace(template.injection, fraction=float(value))
    elif axis == "gamma_inv":
        policy = replace(template.injection, art_variance=float(value))
    else:
        raise DomainError(f"unknown sweep axis {axis!r}; valid axes: {_SWEEP_AXES}")
    return replace(template, injection=policy)


def closed_form_columns(
    scenario: Scenario, op: ProjectionOperator
) -> tuple[float | None, float | None, float | None]:
    """Closed-form companions of an empirical estimate: (pe_fc_theory, d_fc,
    d_ev). Error theory uses the realized projected energy and exists only
    without injection; the deflection pair exists only with injection (and is
    None when its formulas do not apply, e.g. a zero mean)."""
    model = scenario.model
    if scenario.injection is not None:
        policy = scenario.injection
        sigma2 = model.signal_variance + model.noise_variance + policy.art_variance
        try:
            report = analytics.deflection_report(
                policy, scenario.compression_ratio, model.mean_energy, sigma2
            )
        except DomainError:
            return None, None, None
        return None, report.d_fc, report.d_ev
    energy = op.projector_energy(model.mean)
    if model.is_deterministic:
        theory = analytics.pe_deterministic_exact(
            energy, model.noise_variance, scenario.num_nodes, scenario.priors
        )
    else:
        theory = analytics.pe_random_exact(
            model,
            scenario.compressed_dim,
            scenario.num_nodes,
            energy,
            scenario.priors,
        ).pe
    return theory, None, None


def sweep(scenario_template: Scenario, axis: str, grid) -> list[SweepPoint]:
    """Run estimate_errors across a parameter grid.

    Each grid point derives a scenario from the template, gives it an
    independent master seed from (template seed, 2**60 + point index), draws
    a fresh projection, and attaches the matching closed-form columns.
    """
    validate_scenario(scenario_template)
    if axis not in _SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}; valid axes: {_SWEEP_AXES}")
    grid = list(grid)
    if not grid:
        raise DomainError("sweep grid must be nonempty")
    points: list[SweepPoint] = []
    for j, value in enumerate(grid):
        derived = _derive_scenario(scenario_template, axis, value)
        master = RngContract(
            scenario_template.seed, POINT_MASTER_BASE + j
        ).derive_master()
        derived = replace(derived, seed=master)
        op = gen_projection(
            derived.compressed_dim,
            derived.model.ambient_dim,
            RngContract(master, PHI_STREAM_BASE),
        )
        result = estimate_errors(derived, op, derived.trials)
        theory, d_fc, d_ev = closed_form_columns(derived, op)
        points.append(
            SweepPoint(
                axis=axis,
                axis_value=float(value),
                scenario=derived,
                result=result,
                pe_fc_theory=theory,
                d_fc=d_fc,
                d_ev=d_ev,
            )
        )
    return points


def format_value(value) -> str:
    """Data-file text of one value: empty for None, shortest round-trip
    repr for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(points: list[SweepPoint], path) -> None:
    """Write sweep results as CSV; floats use shortest round-trip formatting
    so identical runs produce identical bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_HEADER)
        for point in points:
            r = point.result
            cells = (
                point.axis_value,
                r.pe_fc,
                r.pe_fc_ci,
                point.pe_fc_theory,
                r.pe_ev,
                r.pe_ev_ci,
                point.d_fc,
                point.d_ev,
                r.trials,
                r.seed,
            )
            writer.writerow([format_value(cell) for cell in cells])
