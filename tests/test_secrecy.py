"""Design-rule tests: blinding manifold, closed-form optimum, grid search,
and monotonicity scans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ccdet import (
    DomainError,
    InfeasibleError,
    InjectionPolicy,
    deflection_ev,
    deflection_fc,
    dfc_perfect,
    high_snr_check,
    monotonicity_scan,
    optimize_constrained,
    optimize_perfect,
    perfect_secrecy_kappa,
    write_solution,
)

# blinding-manifold deflection at c=0.5, f=0.3, P_b=1.4, P_t=0.41,
# snr=10**0.5, computed by direct arithmetic on the defining expression
DFC_PERFECT_REF = 1.659211384285448


def _policy(fraction=0.3, kappa=1.0, art_variance=0.0) -> InjectionPolicy:
    return InjectionPolicy(
        fraction=fraction,
        p10=0.8,
        p20=0.1,
        p11=0.1,
        p21=0.8,
        kappa=kappa,
        art_variance=art_variance,
    )


def test_perfect_secrecy_kappa_formula():
    assert perfect_secrecy_kappa(0.3, 1.4) == pytest.approx(1.0 / 0.42, rel=1e-14)
    policy = _policy(kappa=perfect_secrecy_kappa(0.3, 1.4))
    assert deflection_ev(policy, 0.5, 3.0, 1.0) <= 1e-30
    with pytest.raises(DomainError):
        perfect_secrecy_kappa(0.0, 1.4)
    with pytest.raises(DomainError):
        perfect_secrecy_kappa(0.3, 0.0)
    with pytest.raises(DomainError):
        perfect_secrecy_kappa(0.3, -1.0)


def test_dfc_perfect_reference_point_and_consistency():
    snr = 10.0**0.5
    assert dfc_perfect(0.5, 0.3, 1.4, 0.41, snr) == pytest.approx(
        DFC_PERFECT_REF, rel=1e-12
    )
    # must agree with the general fusion-center deflection evaluated at the
    # blinding kappa with zero artificial-noise variance
    policy = _policy(kappa=perfect_secrecy_kappa(0.3, 1.4))
    sigma2 = 1.0
    mean_norm2 = snr * sigma2
    assert dfc_perfect(0.5, 0.3, 1.4, 0.41, snr) == pytest.approx(
        deflection_fc(policy, 0.5, mean_norm2, sigma2), rel=1e-12
    )
    with pytest.raises(DomainError):
        dfc_perfect(0.0, 0.3, 1.4, 0.41, snr)
    with pytest.raises(DomainError):
        dfc_perfect(0.5, 0.0, 1.4, 0.41, snr)
    with pytest.raises(DomainError):
        dfc_perfect(0.5, 0.3, 0.0, 0.41, snr)
    with pytest.raises(DomainError):
        dfc_perfect(0.5, 0.3, 1.4, 0.41, 0.0)


def test_high_snr_check_threshold():
    # P_b^2 / P_t = 1.96 / 0.41 = 4.780487...
    threshold = 1.4**2 / 0.41
    assert high_snr_check(threshold + 1e-6, 1.0, 1.4, 0.41)
    assert not high_snr_check(threshold - 1e-6, 1.0, 1.4, 0.41)
    assert not high_snr_check(threshold, 1.0, 1.4, 0.41)
    # zero spread costs nothing, the regime is always high
    assert high_snr_check(0.1, 1.0, 1.4, 0.0) is False
    assert high_snr_check(0.1, 1.0, 0.0, 0.0) is True
    with pytest.raises(DomainError):
        high_snr_check(0.0, 1.0, 1.4, 0.41)
    with pytest.raises(DomainError):
        high_snr_check(1.0, 0.0, 1.4, 0.41)
    with pytest.raises(DomainError):
        high_snr_check(1.0, 1.0, 1.4, -0.1)


@pytest.mark.parametrize("mean_norm2, sigma2", [(1.0, 0.0), (0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
def test_optimize_perfect_validates_before_dividing(mean_norm2, sigma2):
    # a zero sigma2 used to raise ZeroDivisionError from mean_norm2 / sigma2
    with pytest.raises(DomainError, match=rf"mean_norm2={mean_norm2}, sigma2={sigma2}"):
        optimize_perfect(0.5, 0.2, _policy(), mean_norm2, sigma2)


def test_optimize_perfect_high_snr_closed_form():
    policy = _policy()
    solution = optimize_perfect(0.8, 0.25, policy, 6.0, 1.0)  # snr=6 > 4.78
    assert solution.regime == "perfect"
    assert not solution.fallback
    assert solution.c_star == 0.8
    assert solution.fraction_star == 0.25
    assert solution.kappa_star == pytest.approx(1.0 / (0.25 * 1.4), rel=1e-14)
    assert solution.noise_variance_star == 0.0
    assert solution.d_ev_star == 0.0
    assert solution.d_fc_star == pytest.approx(
        dfc_perfect(0.8, 0.25, 1.4, 0.41, 6.0), rel=1e-13
    )


def test_optimize_perfect_low_snr_falls_back_to_grid():
    policy = _policy()
    snr = 2.0  # below P_b^2 / P_t
    solution = optimize_perfect(0.8, 0.25, policy, 2.0, 1.0)
    assert solution.fallback
    grid = np.linspace(0.25, 1.0, 50)
    values = [dfc_perfect(0.8, float(f), 1.4, 0.41, snr) for f in grid]
    best = float(grid[int(np.argmax(values))])
    assert solution.fraction_star == best
    assert solution.d_fc_star == pytest.approx(max(values), rel=1e-13)
    assert solution.kappa_star == pytest.approx(
        perfect_secrecy_kappa(best, 1.4), rel=1e-13
    )
    with pytest.raises(DomainError):
        optimize_perfect(0.0, 0.25, policy, 2.0, 1.0)
    with pytest.raises(DomainError):
        optimize_perfect(0.8, 0.0, policy, 2.0, 1.0)


def test_optimize_constrained_feasibility_and_choice():
    policy = _policy()
    grids = {
        "c": [0.2, 0.5, 1.0],
        "fraction": [0.25, 0.5],
        "kappa": [0.0, 1.0, perfect_secrecy_kappa(0.5, 1.4)],
        "gamma_inv": [0.0, 2.0],
    }
    solution = optimize_constrained(0.05, grids, policy, 3.0, (0.5, 0.5))
    assert solution.regime == "constrained-grid"
    assert solution.d_ev_star <= 0.05 + 1e-9
    # exhaustive re-check: no feasible point beats the returned one
    best = -1.0
    for c in grids["c"]:
        for f in grids["fraction"]:
            for kappa in grids["kappa"]:
                for gamma in grids["gamma_inv"]:
                    point = InjectionPolicy(
                        fraction=f, p10=0.8, p20=0.1, p11=0.1, p21=0.8,
                        kappa=kappa, art_variance=gamma,
                    )
                    sigma2 = 0.5 + 0.5 + gamma
                    if deflection_ev(point, c, 3.0, sigma2) > 0.05 + 1e-9:
                        continue
                    best = max(best, deflection_fc(point, c, 3.0, sigma2))
    assert solution.d_fc_star == pytest.approx(best, rel=1e-13)


def test_optimize_constrained_unbounded_budget_prefers_no_injection_harm():
    policy = _policy()
    grids = {
        "c": [0.5, 1.0],
        "fraction": [0.25],
        "kappa": [0.0],
        "gamma_inv": [0.0],
    }
    solution = optimize_constrained(math.inf, grids, policy, 3.0, (0.5, 0.5))
    # with kappa = 0 the injection is inert, so larger c always wins
    assert solution.c_star == 1.0


def test_optimize_constrained_tie_break_prefers_smaller_fraction():
    policy = _policy()
    # kappa = 0 and gamma_inv = 0 make every fraction equivalent
    grids = {
        "c": [0.5],
        "fraction": [0.25, 0.75],
        "kappa": [0.0],
        "gamma_inv": [0.0],
    }
    solution = optimize_constrained(math.inf, grids, policy, 3.0, (0.5, 0.5))
    assert solution.fraction_star == 0.25


def test_optimize_constrained_infeasible_and_validation():
    policy = _policy()
    grids = {
        "c": [0.5],
        "fraction": [0.5],
        "kappa": [0.0],
        "gamma_inv": [0.0],
    }
    # kappa = 0 leaves the eavesdropper deflection at the clean value 1.5
    with pytest.raises(InfeasibleError):
        optimize_constrained(0.0, grids, policy, 3.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        optimize_constrained(-1.0, grids, policy, 3.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        optimize_constrained(0.1, {"c": [0.5]}, policy, 3.0, (0.5, 0.5))
    bad = dict(grids)
    bad["extra"] = [1.0]
    with pytest.raises(DomainError):
        optimize_constrained(0.1, bad, policy, 3.0, (0.5, 0.5))
    empty = dict(grids)
    empty["c"] = []
    with pytest.raises(DomainError):
        optimize_constrained(0.1, empty, policy, 3.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        optimize_constrained(0.1, grids, policy, 3.0, (0.5, 0.0))


def test_monotonicity_scan_gamma_axis_decreases():
    # adding artificial-noise variance only hurts the fusion center on the
    # blinding manifold
    kappa = perfect_secrecy_kappa(0.3, 1.4)
    policy = _policy(kappa=kappa)
    scan = monotonicity_scan(
        "d_fc", "gamma_inv", np.linspace(0.0, 10.0, 21), policy, 0.2, 5.0, 11.0
    )
    assert scan.quantity == "d_fc"
    assert scan.axis == "gamma_inv"
    assert scan.is_monotone_decreasing
    assert not scan.is_monotone_increasing
    assert len(scan.grid) == len(scan.values) == 21
    assert scan.values[0] > scan.values[-1]


def test_monotonicity_scan_c_axis_increases_on_manifold():
    kappa = perfect_secrecy_kappa(0.3, 1.4)
    policy = _policy(kappa=kappa)
    scan = monotonicity_scan(
        "d_fc", "c", np.linspace(0.1, 1.0, 10), policy, 0.0, 3.0, 1.0
    )
    assert scan.is_monotone_increasing
    ev_scan = monotonicity_scan(
        "d_ev", "c", np.linspace(0.1, 1.0, 10), policy, 0.0, 3.0, 1.0
    )
    # constant zero sets both flags
    assert ev_scan.is_monotone_increasing and ev_scan.is_monotone_decreasing
    assert max(ev_scan.values) <= 1e-30


def test_monotonicity_scan_validation():
    policy = _policy()
    with pytest.raises(DomainError):
        monotonicity_scan("pe", "c", [0.1, 0.5], policy, 0.2, 3.0, 1.0)
    with pytest.raises(DomainError):
        monotonicity_scan("d_fc", "kappa", [0.1, 0.5], policy, 0.2, 3.0, 1.0)
    with pytest.raises(DomainError):
        monotonicity_scan("d_fc", "c", [], policy, 0.2, 3.0, 1.0)
    with pytest.raises(DomainError):
        monotonicity_scan("d_fc", "c", [0.5, 0.1], policy, 0.2, 3.0, 1.0)
    with pytest.raises(DomainError):
        monotonicity_scan("d_fc", "c", [0.1, 0.5], policy, 0.2, 3.0, 0.0)


def test_write_solution_roundtrip(tmp_path):
    policy = _policy()
    solution = optimize_perfect(0.8, 0.25, policy, 6.0, 1.0)
    path = tmp_path / "design.txt"
    write_solution(solution, path)
    text = path.read_text()
    lines = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    assert lines["regime"] == "perfect"
    assert float(lines["c_star"]) == solution.c_star
    assert float(lines["kappa_star"]) == solution.kappa_star
    assert float(lines["d_fc_star"]) == solution.d_fc_star
    assert lines["fallback"] == "False"
    # identical rerun produces identical bytes
    path_b = tmp_path / "design_b.txt"
    write_solution(optimize_perfect(0.8, 0.25, policy, 6.0, 1.0), path_b)
    assert path.read_bytes() == path_b.read_bytes()
