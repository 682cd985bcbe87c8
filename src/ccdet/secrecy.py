"""System design under a physical-layer secrecy constraint.

The artificial-noise injection has a blinding manifold: when the injecting
fraction, the policy's net mean-shift weight, and the injection scale satisfy
fraction * P_b * kappa = 1, the eavesdropper's two hypothesis mixtures have
identical means and its deflection is exactly zero, at any compression ratio.
On that manifold the fusion-center deflection has a closed form, and in the
high-SNR regime it is maximized by the largest allowed compression ratio, the
smallest allowed injecting fraction, and deterministic artificial noise (zero
artificial-noise variance). Off the manifold, or under a nonzero secrecy
budget, the trade-off is not monotone or convex, so the general problem is
solved by exhaustive grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .analytics import deflection_ev, deflection_fc
from .errors import DomainError, InfeasibleError
from .model import InjectionPolicy

# feasibility slack for the secrecy budget on grid points
CONSTRAINT_TOL = 1e-9
# default grid resolution per axis for fallback scans
DEFAULT_GRID_POINTS = 50

_GRID_KEYS = ("c", "fraction", "kappa", "gamma_inv")


@dataclass(frozen=True)
class DesignSolution:
    """Chosen operating point of the injection design problem.

    Attributes:
        c_star: Compression ratio.
        fraction_star: Injecting fraction.
        kappa_star: Injection scale.
        noise_variance_star: Artificial-noise variance.
        d_fc_star: Fusion-center deflection at the chosen point.
        d_ev_star: Eavesdropper deflection at the chosen point.
        regime: "perfect" for the closed-form blinding solution,
            "constrained-grid" for the grid search.
        fallback: True when the closed-form fraction rule did not apply (low
            SNR) and the fraction was chosen by a grid scan instead.
    """

    c_star: float
    fraction_star: float
    kappa_star: float
    noise_variance_star: float
    d_fc_star: float
    d_ev_star: float
    regime: str
    fallback: bool = False


def perfect_secrecy_kappa(fraction: float, p_b: float) -> float:
    """Injection scale that blinds the eavesdropper, kappa = 1/(fraction * P_b)."""
    fraction = float(fraction)
    p_b = float(p_b)
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if p_b <= 0.0:
        raise DomainError(
            "perfect secrecy needs a positive net mean-shift weight P_b; "
            f"got {p_b} (no nonnegative kappa blinds the eavesdropper)"
        )
    return 1.0 / (fraction * p_b)


def dfc_perfect(c: float, fraction: float, p_b: float, p_t: float, snr: float) -> float:
    """Fusion-center deflection on the blinding manifold.

    With D = c * snr (snr = mean_norm2 / sigma2 at zero artificial-noise
    variance) and kappa = 1/(fraction * P_b):

        D_FC = f (1 - 1/f)^2 / (P_t / (f^2 P_b^2) + 1/D) + (1 - f) D
    """
    c = float(c)
    fraction = float(fraction)
    p_b = float(p_b)
    p_t = float(p_t)
    snr = float(snr)
    if not 0.0 < c <= 1.0:
        raise DomainError(f"compression ratio must lie in (0, 1], got {c}")
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if p_b <= 0.0:
        raise DomainError("p_b must be strictly positive on the blinding manifold")
    if p_t < 0.0:
        raise DomainError("p_t must be nonnegative")
    if snr <= 0.0:
        raise DomainError("snr must be strictly positive")
    d = c * snr
    injected = (
        fraction
        * (1.0 - 1.0 / fraction) ** 2
        / (p_t / (fraction**2 * p_b**2) + 1.0 / d)
    )
    return injected + (1.0 - fraction) * d


def high_snr_check(mean_norm2: float, sigma2: float, p_b: float, p_t: float) -> bool:
    """True when mean_norm2 / sigma2 strictly exceeds P_b^2 / P_t, the regime
    in which the blinding-manifold deflection decreases with the fraction."""
    mean_norm2 = float(mean_norm2)
    sigma2 = float(sigma2)
    if not (mean_norm2 > 0.0 and sigma2 > 0.0):
        raise DomainError(
            "mean_norm2 and sigma2 must be strictly positive, "
            f"got mean_norm2={mean_norm2}, sigma2={sigma2}"
        )
    p_b = float(p_b)
    p_t = float(p_t)
    if p_t < 0.0:
        raise DomainError("p_t must be nonnegative")
    if p_t == 0.0:
        threshold = 0.0 if p_b == 0.0 else math.inf
    else:
        threshold = p_b**2 / p_t
    return mean_norm2 / sigma2 > threshold


def optimize_perfect(
    c_max: float,
    fraction_min: float,
    policy: InjectionPolicy,
    mean_norm2: float,
    sigma2: float,
) -> DesignSolution:
    """Best design on the blinding manifold.

    sigma2 is the signal-plus-sensing variance without artificial noise; the
    optimum always sets the artificial-noise variance to zero (the injected
    vector is the deterministic kappa * mean). In the high-SNR regime the
    deflection decreases with the fraction, so the solution is c = c_max,
    fraction = fraction_min, kappa = 1/(fraction * P_b). Otherwise the
    fraction is chosen by a grid scan over [fraction_min, 1] and the solution
    is flagged as a fallback.
    """
    c_max = float(c_max)
    fraction_min = float(fraction_min)
    if not 0.0 < c_max <= 1.0:
        raise DomainError(f"c_max must lie in (0, 1], got {c_max}")
    if not 0.0 < fraction_min <= 1.0:
        raise DomainError(f"fraction_min must lie in (0, 1], got {fraction_min}")
    p_b = policy.p_b
    p_t = policy.p_t
    fallback = not high_snr_check(mean_norm2, sigma2, p_b, p_t)
    snr = float(mean_norm2) / float(sigma2)
    if fallback:
        grid = np.linspace(fraction_min, 1.0, DEFAULT_GRID_POINTS)
        values = [dfc_perfect(c_max, f, p_b, p_t, snr) for f in grid]
        fraction_star = float(grid[int(np.argmax(values))])
    else:
        fraction_star = fraction_min
    kappa_star = perfect_secrecy_kappa(fraction_star, p_b)
    return DesignSolution(
        c_star=c_max,
        fraction_star=fraction_star,
        kappa_star=kappa_star,
        noise_variance_star=0.0,
        d_fc_star=dfc_perfect(c_max, fraction_star, p_b, p_t, snr),
        d_ev_star=0.0,
        regime="perfect",
        fallback=fallback,
    )


def optimize_constrained(
    tau: float,
    grids: dict,
    policy: InjectionPolicy,
    mean_norm2: float,
    base_variances: tuple[float, float],
) -> DesignSolution:
    """Grid search for the general secrecy-constrained design.

    grids maps each of "c", "fraction", "kappa", "gamma_inv" to a nonempty
    list of candidate values. base_variances = (signal_variance,
    noise_variance); each grid point's total variance adds its own
    artificial-noise value. A point is feasible when the eavesdropper
    deflection is at most tau (plus a 1e-9 slack); among feasible points the
    fusion-center deflection is maximized, with exact ties broken toward
    smaller fraction, then larger c, then smaller kappa.
    """
    tau = float(tau)
    if not tau >= 0.0:
        raise DomainError(f"tau must be nonnegative, got {tau}")
    missing = [key for key in _GRID_KEYS if key not in grids]
    extra = [key for key in grids if key not in _GRID_KEYS]
    if missing or extra:
        raise DomainError(
            f"grids must have exactly the keys {_GRID_KEYS}; "
            f"missing {missing}, unexpected {extra}"
        )
    axes = {key: [float(v) for v in grids[key]] for key in _GRID_KEYS}
    if any(len(axis) == 0 for axis in axes.values()):
        raise DomainError("every grid axis must be nonempty")
    alpha_inv, beta_inv = (float(base_variances[0]), float(base_variances[1]))
    if alpha_inv < 0.0 or beta_inv <= 0.0:
        raise DomainError("base_variances must be (nonnegative, positive)")
    best: DesignSolution | None = None

    def wins(cand: DesignSolution, incumbent: DesignSolution) -> bool:
        if cand.d_fc_star != incumbent.d_fc_star:
            return cand.d_fc_star > incumbent.d_fc_star
        key_cand = (cand.fraction_star, -cand.c_star, cand.kappa_star)
        key_inc = (incumbent.fraction_star, -incumbent.c_star, incumbent.kappa_star)
        return key_cand < key_inc

    for c, fraction, kappa, gamma_inv in product(
        axes["c"], axes["fraction"], axes["kappa"], axes["gamma_inv"]
    ):
        point_policy = replace(
            policy, fraction=fraction, kappa=kappa, art_variance=gamma_inv
        )
        sigma2 = alpha_inv + beta_inv + gamma_inv
        d_ev = deflection_ev(point_policy, c, mean_norm2, sigma2)
        if d_ev > tau + CONSTRAINT_TOL:
            continue
        candidate = DesignSolution(
            c_star=c,
            fraction_star=fraction,
            kappa_star=kappa,
            noise_variance_star=gamma_inv,
            d_fc_star=deflection_fc(point_policy, c, mean_norm2, sigma2),
            d_ev_star=d_ev,
            regime="constrained-grid",
        )
        if best is None or wins(candidate, best):
            best = candidate
    if best is None:
        raise InfeasibleError(
            f"no grid point satisfies the secrecy budget tau={tau}"
        )
    return best


@dataclass(frozen=True)
class ScanResult:
    """Values of one deflection quantity along one parameter axis.

    Attributes:
        quantity: "d_fc" or "d_ev".
        axis: "c", "fraction", or "gamma_inv".
        grid: Scanned values, ascending.
        values: Deflection at each grid value.
        is_monotone_increasing: All successive differences >= -1e-12.
        is_monotone_decreasing: All successive differences <= 1e-12.
    """

    quantity: str
    axis: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    is_monotone_increasing: bool
    is_monotone_decreasing: bool


def monotonicity_scan(
    quantity: str,
    axis: str,
    grid,
    policy: InjectionPolicy,
    c: float,
    mean_norm2: float,
    base_sigma2: float,
) -> ScanResult:
    """Evaluate d_fc or d_ev along one ascending grid.

    base_sigma2 is the signal-plus-sensing variance; the artificial-noise
    variance is added on top (the policy's value, or the grid value when
    scanning gamma_inv). Monotonicity flags use a 1e-12 tolerance on the
    successive differences, so a constant sequence sets both flags.
    """
    if quantity not in ("d_fc", "d_ev"):
        raise DomainError(f"quantity must be 'd_fc' or 'd_ev', got {quantity!r}")
    if axis not in ("c", "fraction", "gamma_inv"):
        raise DomainError(f"axis must be 'c', 'fraction', or 'gamma_inv', got {axis!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise DomainError("grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be sorted ascending")
    if float(base_sigma2) <= 0.0:
        raise DomainError("base_sigma2 must be strictly positive")
    fn = deflection_fc if quantity == "d_fc" else deflection_ev
    values = []
    for value in grid:
        if axis == "c":
            point_policy = policy
            point_c = value
            sigma2 = float(base_sigma2) + policy.art_variance
        elif axis == "fraction":
            point_policy = replace(policy, fraction=value)
            point_c = float(c)
            sigma2 = float(base_sigma2) + policy.art_variance
        else:
            point_policy = replace(policy, art_variance=value)
            point_c = float(c)
            sigma2 = float(base_sigma2) + value
        values.append(fn(point_policy, point_c, float(mean_norm2), sigma2))
    diffs = np.diff(values)
    return ScanResult(
        quantity=quantity,
        axis=axis,
        grid=tuple(grid),
        values=tuple(values),
        is_monotone_increasing=bool(np.all(diffs >= -1e-12)),
        is_monotone_decreasing=bool(np.all(diffs <= 1e-12)),
    )


def write_solution(solution: DesignSolution, path) -> None:
    """Serialize a design solution as one key = value line per field."""
    lines = [
        f"regime = {solution.regime}",
        f"c_star = {solution.c_star!r}",
        f"fraction_star = {solution.fraction_star!r}",
        f"kappa_star = {solution.kappa_star!r}",
        f"noise_variance_star = {solution.noise_variance_star!r}",
        f"d_fc_star = {solution.d_fc_star!r}",
        f"d_ev_star = {solution.d_ev_star!r}",
        f"fallback = {solution.fallback}",
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
