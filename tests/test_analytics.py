"""Closed-form performance expressions against independent oracles.

Chi-squared machinery is cross-checked against scipy.stats (chi2, ncx2) and,
for the noncentral tails that ccdet itself takes from scipy, against a
50-digit mpmath Poisson mixture; the Q-function against scipy.stats.norm, and
the headline operating points against frozen values computed by direct
arithmetic on the defining formulas.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

import ccdet
from ccdet import (
    ChiSquareSpec,
    DomainError,
    InjectionPolicy,
    SignalModel,
    chi2_cdf,
    chi2_sf,
    deflection_clean,
    deflection_ev,
    deflection_fc,
    deflection_report,
    deflection_tilde_exact,
    deterministic_deflection,
    ncx2_cdf,
    ncx2_sf,
    nodes_required,
    pe_deterministic_approx,
    pe_deterministic_bounds,
    pe_deterministic_chernoff,
    pe_deterministic_exact,
    pe_random_approx,
    pe_random_chernoff,
    pe_random_exact,
    q_function,
    q_inverse,
    random_thresholds,
)

# aliased so pytest does not collect the library function as a test
from ccdet import test_stat_distribution as statistic_laws
from ccdet.errors import SingularCovarianceError

# Q(sqrt(2)/2), the 5-node c=0.2 snr=2 operating point
Q_HALF_SQRT2 = 0.23975006109347674

# tail arguments and error probabilities at the zero-mean random-signal
# reference point: variances (1, 20), ambient dimension 100, c=0.5, N=50
TAU0_REF = 0.17390193541069093
TAU1_REF = 0.17109662398341147
PE_APPROX_REF = 0.1942130406945053
PE_EXACT_REF = 0.194226941716917
PE_CHERNOFF_REF = 0.3446921780914205

# deflections of the 0.8/0.1 flip policy at f=0.3, kappa=1, c=0.2,
# mean_norm2=3, sigma2=1
D_FC_REF = 0.4431139646869983
D_EV_REF = 0.17774803177342943


def test_q_function_matches_normal_tail():
    for x in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.5, 6.0):
        assert q_function(x) == pytest.approx(stats.norm.sf(x), rel=1e-13)
    assert q_function(math.sqrt(2.0) / 2.0) == pytest.approx(Q_HALF_SQRT2, rel=1e-14)


def test_q_inverse_roundtrip_and_domain():
    for p in (1e-9, 1e-3, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-9)
    assert q_inverse(0.05) == pytest.approx(stats.norm.isf(0.05), rel=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            q_inverse(bad)


def test_pe_deterministic_exact_reference_point():
    # realized energy 0.4 over 5 nodes at unit noise gives Q(sqrt(2)/2)
    assert pe_deterministic_exact(0.4, 1.0, 5) == pytest.approx(
        Q_HALF_SQRT2, rel=1e-14
    )
    assert pe_deterministic_exact(0.0, 1.0, 5) == 0.5
    with pytest.raises(DomainError):
        pe_deterministic_exact(-0.1, 1.0, 5)
    with pytest.raises(DomainError):
        pe_deterministic_exact(0.4, 0.0, 5)


def test_pe_deterministic_exact_with_priors_matches_norm_oracle():
    # the fused log-likelihood ratio is N(-D/2, D) under H0 and N(D/2, D)
    # under H1; the Bayes test decides H1 above ln(p0/p1)
    for energy, beta_inv, n in ((0.4, 1.0, 5), (0.05, 2.0, 3), (1.7, 0.6, 12)):
        deflection = n * energy / beta_inv
        scale = math.sqrt(deflection)
        for p0 in (0.5, 0.7, 0.9, 0.1, 0.999):
            p1 = 1.0 - p0
            eta = math.log(p0 / p1)
            pf = stats.norm.sf(eta, loc=-0.5 * deflection, scale=scale)
            pm = stats.norm.cdf(eta, loc=0.5 * deflection, scale=scale)
            expected = p0 * pf + p1 * pm
            got = pe_deterministic_exact(energy, beta_inv, n, (p0, p1))
            assert got == pytest.approx(expected, rel=1e-12)
            # Bayes-optimal: no worse than the threshold 0, whose false-alarm
            # and miss probabilities are both Q(d/2)
            assert got <= q_function(0.5 * scale) * (1.0 + 1e-12)
    # equal priors are exactly the Q(d/2) form
    assert pe_deterministic_exact(0.4, 1.0, 5, (0.5, 0.5)) == pe_deterministic_exact(0.4, 1.0, 5)
    assert pe_deterministic_exact(0.4, 1.0, 5) == q_function(0.5 * math.sqrt(2.0))
    # no signal: always the likelier hypothesis; a zero prior: no error
    assert pe_deterministic_exact(0.0, 1.0, 5, (0.8, 0.2)) == 0.2
    assert pe_deterministic_exact(0.0, 1.0, 5, (0.3, 0.7)) == 0.3
    assert pe_deterministic_exact(0.4, 1.0, 5, (1.0, 0.0)) == 0.0
    assert pe_deterministic_exact(0.4, 1.0, 5, (0.0, 1.0)) == 0.0
    with pytest.raises(DomainError):
        pe_deterministic_exact(-0.1, 1.0, 5, (0.9, 0.1))


def test_pe_deterministic_approx_consistency():
    # the approximation replaces realized energy by c * ||s||^2
    assert pe_deterministic_approx(0.2, 5, 2.0) == pytest.approx(
        pe_deterministic_exact(0.2 * 2.0, 1.0, 5), rel=1e-14
    )
    assert pe_deterministic_approx(0.2, 5, 2.0) == pytest.approx(
        Q_HALF_SQRT2, rel=1e-14
    )
    with pytest.raises(DomainError):
        pe_deterministic_approx(0.0, 5, 2.0)
    with pytest.raises(DomainError):
        pe_deterministic_approx(1.2, 5, 2.0)
    with pytest.raises(DomainError):
        pe_deterministic_approx(0.5, 5, -1.0)


def test_deterministic_deflection_links_to_error():
    d = deterministic_deflection(0.4, 1.0, 5)
    assert d == pytest.approx(2.0, rel=1e-14)
    assert pe_deterministic_exact(0.4, 1.0, 5) == pytest.approx(
        q_function(math.sqrt(d) / 2.0), rel=1e-14
    )


def test_pe_deterministic_bounds_bracket_the_approximation():
    for eps in (0.05, 0.1, 0.3):
        lower, upper = pe_deterministic_bounds(0.2, 5, 2.0, eps)
        mid = pe_deterministic_approx(0.2, 5, 2.0)
        assert lower < mid < upper
    lower, upper = pe_deterministic_bounds(0.2, 5, 2.0, 0.0)
    assert lower == upper == pe_deterministic_approx(0.2, 5, 2.0)
    with pytest.raises(DomainError):
        pe_deterministic_bounds(0.2, 5, 2.0, 1.0)
    with pytest.raises(DomainError):
        pe_deterministic_bounds(0.2, 5, 2.0, -0.1)


def test_nodes_required_reference_values():
    # (4/snr) q_inverse(0.05)^2 / c at snr=2: 5.411086908190832 / c
    assert nodes_required(1.0, 2.0, 0.05) == 6
    assert nodes_required(0.2, 2.0, 0.05) == 28
    raw = (4.0 / 2.0) * q_inverse(0.05) ** 2
    assert raw == pytest.approx(5.411086908190832, rel=1e-12)
    # guaranteed point achieves the target
    n = nodes_required(0.2, 2.0, 0.05)
    assert pe_deterministic_approx(0.2, n, 2.0) <= 0.05
    assert pe_deterministic_approx(0.2, n - 1, 2.0) > 0.05
    # huge snr floors at one node
    assert nodes_required(1.0, 1e9, 0.4) == 1
    with pytest.raises(DomainError):
        nodes_required(0.2, 0.0, 0.05)
    with pytest.raises(DomainError):
        nodes_required(0.2, 2.0, 0.5)


def test_pe_deterministic_chernoff_dominates_exact():
    for c in (0.1, 0.5, 1.0):
        for n in (1, 5, 40):
            for snr in (1.0, 2.0, 4.0):
                assert pe_deterministic_chernoff(c, n, snr) >= pe_deterministic_approx(
                    c, n, snr
                )
    assert pe_deterministic_chernoff(0.2, 5, 2.0) == pytest.approx(
        0.5 * math.exp(-0.25), rel=1e-14
    )


def test_chi2_tails_match_scipy():
    for dof in (1, 5, 50):
        for x in (0.5, 2.0, dof, 3.0 * dof):
            assert chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-12)
            assert chi2_cdf(x, dof) == pytest.approx(stats.chi2.cdf(x, dof), rel=1e-12)
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_cdf(-1.0, 3) == 0.0
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)


def test_ncx2_tails_match_scipy():
    # both tails come from scipy.stats.ncx2 for nc > 0, so this pins the
    # argument passing; test_ncx2_tails_match_mpmath is the independent check
    for dof in (2, 10, 100):
        for nc in (0.5, 5.0, 100.0):
            mean = dof + nc
            for x in (0.2 * mean, mean, 2.5 * mean):
                assert ncx2_sf(x, dof, nc) == pytest.approx(
                    stats.ncx2.sf(x, dof, nc), rel=1e-9, abs=5e-12
                )
                assert ncx2_cdf(x, dof, nc) == pytest.approx(
                    stats.ncx2.cdf(x, dof, nc), rel=1e-9, abs=5e-12
                )


def _mpmath_ncx2_tails(x: float, dof: float, nc: float) -> tuple[float, float]:
    """(sf, cdf) of the noncentral chi-squared law at 50 digits.

    Poisson(nc/2) mixture of central tails Q(dof/2 + j, x/2) and
    P(dof/2 + j, x/2), summed over j within 40 sqrt(nc/2) + 40 of the Poisson
    mode; the Poisson mass left out is below 1e-240 at the points tested.
    Only the first term of each sum calls mpmath.gammainc. The Poisson weights
    and the incomplete-gamma increments y^a e^-y / Gamma(a + 1) then follow
    their exact recurrences, upward for Q and downward for P, so every step
    adds a positive term.
    """
    with mpmath.workdps(50):
        y, h, k = mpmath.mpf(x) / 2, mpmath.mpf(nc) / 2, mpmath.mpf(dof) / 2
        spread = 40 * int(mpmath.sqrt(h)) + 40
        j0, j1 = max(0, int(h) - spread), int(h) + spread

        def weight(j):
            return mpmath.exp(j * mpmath.log(h) - h - mpmath.loggamma(j + 1))

        def increment(a):
            return mpmath.exp(a * mpmath.log(y) - y - mpmath.loggamma(a + 1))

        w, d, sf = weight(j0), increment(k + j0), 0
        q = mpmath.gammainc(k + j0, y, mpmath.inf, regularized=True)
        for j in range(j0, j1 + 1):
            sf += w * q
            q += d
            w *= h / (j + 1)
            d *= y / (k + j + 1)
        w, d, cdf = weight(j1), increment(k + j1 - 1), 0
        p = mpmath.gammainc(k + j1, 0, y, regularized=True)
        for j in range(j1, j0 - 1, -1):
            cdf += w * p
            p += d
            w *= j / h
            d *= (k + j - 1) / y
        return float(sf), float(cdf)


@pytest.mark.parametrize(
    "x, dof, nc, sf_ref, cdf_ref",
    [
        # far upper tail, 1e-76
        (2502.5, 1, 1000.0, 6.3049047e-76, 1.0),
        # far lower tail, 1e-81
        (220.0, 100, 1000.0, 1.0, 4.8750212e-81),
        # noncentrality 4e4, the centre of the law
        (40010.0, 10, 4e4, 0.49900275, 0.50099725),
    ],
)
def test_ncx2_tails_match_mpmath(x, dof, nc, sf_ref, cdf_ref):
    # abs=0: pytest.approx would otherwise accept anything within 1e-12
    sf, cdf = _mpmath_ncx2_tails(x, dof, nc)
    assert sf == pytest.approx(sf_ref, rel=1e-7, abs=0)
    assert cdf == pytest.approx(cdf_ref, rel=1e-7, abs=0)
    assert ncx2_sf(x, dof, nc) == pytest.approx(sf, rel=1e-10, abs=0)
    assert ncx2_cdf(x, dof, nc) == pytest.approx(cdf, rel=1e-10, abs=0)


def test_import_does_not_load_scipy_stats():
    # scipy.stats is loaded only by a noncentral ncx2_* call; see analytics
    src = str(Path(ccdet.__file__).resolve().parents[1])
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\n"
        "import ccdet, ccdet.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'import'\n"
        "assert ccdet.ncx2_sf(3.0, 4, 0.0) == ccdet.chi2_sf(3.0, 4)\n"
        "assert 'scipy.stats' not in sys.modules, 'zero noncentrality'\n"
        "ccdet.ncx2_sf(3.0, 4, 1.0)\n"
        "assert 'scipy.stats' in sys.modules, 'noncentral'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_ncx2_zero_noncentrality_reduces_to_central():
    for dof in (3, 12):
        for x in (1.0, 6.0, 30.0):
            assert ncx2_sf(x, dof, 0.0) == chi2_sf(x, dof)
            assert ncx2_cdf(x, dof, 0.0) == chi2_cdf(x, dof)


def test_ncx2_tail_complement_and_domain():
    assert ncx2_sf(7.0, 4, 3.0) + ncx2_cdf(7.0, 4, 3.0) == pytest.approx(1.0, abs=1e-10)
    assert ncx2_sf(0.0, 4, 3.0) == 1.0
    assert ncx2_cdf(-2.0, 4, 3.0) == 0.0
    with pytest.raises(DomainError):
        ncx2_sf(1.0, 4, -0.5)
    with pytest.raises(DomainError):
        ncx2_cdf(1.0, 0, 1.0)


def test_chi_square_spec_moments_and_tails():
    spec = ChiSquareSpec(dof=10, noncentrality=4.0, scale=3.0)
    assert spec.mean == pytest.approx(3.0 * 14.0, rel=1e-14)
    assert spec.variance == pytest.approx(9.0 * 2.0 * 18.0, rel=1e-14)
    x = 40.0
    assert spec.sf(x) == pytest.approx(stats.ncx2.sf(x / 3.0, 10, 4.0), rel=1e-10)
    assert spec.cdf(x) == pytest.approx(stats.ncx2.cdf(x / 3.0, 10, 4.0), rel=1e-10)
    with pytest.raises(DomainError):
        ChiSquareSpec(dof=0, noncentrality=1.0, scale=1.0)
    with pytest.raises(DomainError):
        ChiSquareSpec(dof=3, noncentrality=-1.0, scale=1.0)
    with pytest.raises(DomainError):
        ChiSquareSpec(dof=3, noncentrality=1.0, scale=0.0)


def _random_model(p=100, mean=None, alpha_inv=1.0, beta_inv=20.0) -> SignalModel:
    if mean is None:
        mean = np.zeros(p)
    return SignalModel(
        ambient_dim=p, mean=mean, signal_variance=alpha_inv, noise_variance=beta_inv
    )


def test_test_stat_distribution_formulas():
    # per-node noncentralities scale with the projected mean energy E:
    #   H1: (E / a)(1 + b/a), scale a+b;  H0: E b / a^2, scale b
    model = _random_model()
    energy = 0.7
    spec_h0, spec_h1 = statistic_laws(model, 5, 3, energy)
    assert spec_h0.dof == spec_h1.dof == 15
    assert spec_h0.scale == 20.0
    assert spec_h1.scale == 21.0
    assert spec_h0.noncentrality == pytest.approx(3 * 0.7 * 20.0, rel=1e-13)
    assert spec_h1.noncentrality == pytest.approx(3 * 0.7 * 21.0, rel=1e-13)
    # zero mean energy is the only central null
    spec_h0, spec_h1 = statistic_laws(model, 5, 3, 0.0)
    assert spec_h0.noncentrality == 0.0
    assert spec_h1.noncentrality == 0.0
    deterministic = SignalModel(4, np.ones(4), 0.0, 1.0)
    with pytest.raises(DomainError):
        statistic_laws(deterministic, 2, 2, 0.0)


def test_random_thresholds_reference_point():
    # equal priors, zero mean: (a+b) n m log(1+a/b) = 21 * 2500 * log(1.05)
    model = _random_model()
    raw, transformed = random_thresholds(model, 50, 50, 0.0)
    assert raw == pytest.approx(21.0 * 2500.0 * math.log1p(0.05), rel=1e-13)
    assert transformed == pytest.approx(20.0 * raw, rel=1e-13)
    with pytest.raises(DomainError):
        random_thresholds(model, 50, 50, 0.0, priors=(1.0, 0.0))
    with pytest.raises(DomainError):
        random_thresholds(model, 50, 50, -0.5)


def test_random_thresholds_prior_shift():
    model = _random_model()
    equal, _ = random_thresholds(model, 10, 4, 0.3)
    skewed, _ = random_thresholds(model, 10, 4, 0.3, priors=(0.9, 0.1))
    shift = (1.0 + 20.0) * 2.0 * math.log(9.0)
    assert skewed - equal == pytest.approx(shift, rel=1e-12)


@pytest.mark.parametrize("priors", [(1.0, 0.0), (0.0, 1.0)])
def test_pe_random_exact_degenerate_priors_pick_the_certain_hypothesis(priors):
    # no finite threshold exists, so random_thresholds refuses; the exact
    # error follows the test that always decides the hypothesis of prior one
    model = _random_model()
    with pytest.raises(DomainError):
        random_thresholds(model, 10, 4, 0.3, priors=priors)
    exact = pe_random_exact(model, 10, 4, 0.3, priors=priors)
    rate = 0.0 if priors == (1.0, 0.0) else 1.0
    assert (exact.pe, exact.pf, exact.pd) == (0.0, rate, rate)
    assert exact.threshold == exact.threshold_transformed == (math.inf if rate == 0.0 else -math.inf)


def test_random_thresholds_transformed_consistent_with_energy():
    model = _random_model(mean=np.full(100, 0.1))
    energy = 0.8
    raw, transformed = random_thresholds(model, 30, 7, energy)
    b_over_a = 20.0
    assert transformed == pytest.approx(
        b_over_a * raw + 7 * b_over_a**2 * energy, rel=1e-12
    )


def test_pe_random_exact_reference_point():
    model = _random_model()
    exact = pe_random_exact(model, 50, 50, 0.0)
    assert exact.pe == pytest.approx(PE_EXACT_REF, rel=1e-12)
    assert exact.pe == pytest.approx(0.5 * exact.pf + 0.5 * (1.0 - exact.pd), rel=1e-13)
    # independent evaluation of the same tails with scipy
    pf = stats.chi2.sf(exact.threshold_transformed / 20.0, 2500)
    pm = stats.chi2.cdf(exact.threshold_transformed / 21.0, 2500)
    assert exact.pf == pytest.approx(pf, rel=1e-10)
    assert 1.0 - exact.pd == pytest.approx(pm, rel=1e-10)


def test_pe_random_exact_with_nonzero_mean_scipy_oracle():
    mean = np.zeros(100)
    mean[:4] = 0.5
    model = _random_model(mean=mean)
    energy = 0.6 * model.mean_energy
    exact = pe_random_exact(model, 40, 6, energy, priors=(0.6, 0.4))
    spec_h0, spec_h1 = statistic_laws(model, 40, 6, energy)
    pf = stats.ncx2.sf(
        exact.threshold_transformed / spec_h0.scale, 240, spec_h0.noncentrality
    )
    pm = stats.ncx2.cdf(
        exact.threshold_transformed / spec_h1.scale, 240, spec_h1.noncentrality
    )
    assert exact.pf == pytest.approx(pf, rel=1e-9)
    assert exact.pe == pytest.approx(0.6 * pf + 0.4 * pm, rel=1e-9)


def test_pe_random_approx_reference_point():
    approx = pe_random_approx(0.5, 50, 100, 0.0, 1.0, 20.0)
    assert approx.tau0 == pytest.approx(TAU0_REF, rel=1e-9)
    assert approx.tau1 == pytest.approx(TAU1_REF, rel=1e-9)
    assert approx.pe == pytest.approx(PE_APPROX_REF, rel=1e-12)
    # direct evaluation of the defining zero-mean expressions
    r = 1.0 / 20.0
    tau0 = math.sqrt(50.0) * ((1.0 + 1.0 / r) * math.log1p(r) - 1.0)
    tau1 = math.sqrt(50.0) * (1.0 - (1.0 / r) * math.log1p(r))
    assert approx.tau0 == pytest.approx(tau0, rel=1e-12)
    assert approx.tau1 == pytest.approx(tau1, rel=1e-12)
    scale = math.sqrt(0.5 * 50)
    assert approx.pf == pytest.approx(q_function(scale * tau0), rel=1e-12)
    assert approx.pd == pytest.approx(1.0 - q_function(scale * tau1), rel=1e-12)
    # the approximation sits near the exact value at this operating point
    assert abs(approx.pe - PE_EXACT_REF) < 2e-5


def test_pe_random_approx_nonzero_mean_terms():
    # mean energy enters tau0 through the (1 + 1/r) factor and tau1 through
    # the inflated degrees of freedom
    approx = pe_random_approx(0.5, 10, 100, 2.0, 1.0, 20.0)
    r = 0.05
    delta1p = 2.0 * (1.0 + 1.0 / r)
    tau0 = math.sqrt(50.0) * ((1.0 + 1.0 / r) * (math.log1p(r) + 2.0 / 100.0) - 1.0)
    tau1 = math.sqrt((100.0 + delta1p) / 2.0) * (
        1.0 - (1.0 / r) * (100.0 * math.log1p(r) + 2.0) / (100.0 + delta1p)
    )
    assert approx.tau0 == pytest.approx(tau0, rel=1e-12)
    assert approx.tau1 == pytest.approx(tau1, rel=1e-12)
    with pytest.raises(DomainError):
        pe_random_approx(0.5, 10, 100, -1.0, 1.0, 20.0)
    with pytest.raises(DomainError):
        pe_random_approx(0.5, 10, 100, 0.0, 0.0, 20.0)


def test_pe_random_chernoff_reference_and_domination():
    approx = pe_random_approx(0.5, 50, 100, 0.0, 1.0, 20.0)
    bound = pe_random_chernoff(0.5, 50, approx.tau0, approx.tau1)
    assert bound == pytest.approx(PE_CHERNOFF_REF, rel=1e-9)
    direct = 0.25 * math.exp(-0.5 * 50 * approx.tau0**2 / 2.0) + 0.25 * math.exp(
        -0.5 * 50 * approx.tau1**2 / 2.0
    )
    assert bound == pytest.approx(direct, rel=1e-14)
    assert bound >= approx.pe
    with pytest.raises(DomainError):
        pe_random_chernoff(0.5, 50, 0.0, approx.tau1)


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


def test_deflection_clean_formula():
    assert deflection_clean(0.2, 3.0, 1.0) == pytest.approx(0.6, rel=1e-14)
    with pytest.raises(DomainError):
        deflection_clean(0.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        deflection_clean(0.2, 3.0, 0.0)


def test_deflection_fc_reference_point():
    assert deflection_fc(_policy(), 0.2, 3.0, 1.0) == pytest.approx(D_FC_REF, rel=1e-12)
    # direct arithmetic: f (1-P_b k)^2 / (k^2 P_t + s2/(c m2)) + (1-f) c m2 / s2
    direct = 0.3 * (1.0 - 1.4) ** 2 / (0.41 + 1.0 / 0.6) + 0.7 * 0.6
    assert deflection_fc(_policy(), 0.2, 3.0, 1.0) == pytest.approx(direct, rel=1e-13)


def test_deflection_ev_reference_point():
    assert deflection_ev(_policy(), 0.2, 3.0, 1.0) == pytest.approx(D_EV_REF, rel=1e-12)
    direct = (1.0 - 0.3 * 1.4) ** 2 / (0.3 * 0.753 + 1.0 / 0.6)
    assert deflection_ev(_policy(), 0.2, 3.0, 1.0) == pytest.approx(direct, rel=1e-13)


def test_deflection_ev_vanishes_on_blinding_manifold():
    kappa = 1.0 / (0.3 * 1.4)
    for c in np.linspace(0.1, 1.0, 10):
        assert deflection_ev(_policy(kappa=kappa), float(c), 3.0, 1.0) <= 1e-30


def test_deflection_tilde_exact_forms_agree():
    # the two-term expression collapses to (1 - P_b k)^2 E / r_b
    policy = _policy(kappa=0.7)
    energy = 1.3
    sigma2 = 2.1
    tilde = deflection_tilde_exact(policy, energy, sigma2)
    r_b = sigma2 + policy.p_t * policy.kappa**2 * energy
    assert tilde == pytest.approx(
        (1.0 - policy.p_b * policy.kappa) ** 2 * energy / r_b, rel=1e-12
    )
    with pytest.raises(SingularCovarianceError):
        deflection_tilde_exact(policy, energy, 0.0)
    with pytest.raises(DomainError):
        deflection_tilde_exact(policy, -0.5, sigma2)


def test_deflection_tilde_exact_matches_rank_one_brute_force():
    # quadratic form against the full covariance, inverted directly
    rng = np.random.default_rng(123)
    for _ in range(10):
        m, p = 4, 9
        phi = rng.standard_normal((m, p))
        mu = rng.standard_normal(p)
        gram = phi @ phi.T
        proj = phi @ mu
        energy = float(proj @ np.linalg.solve(gram, proj))
        policy = _policy(kappa=float(rng.uniform(0.1, 2.0)))
        sigma2 = float(rng.uniform(0.5, 3.0))
        cov = sigma2 * gram + policy.p_t * policy.kappa**2 * np.outer(proj, proj)
        gap = (1.0 - policy.p_b * policy.kappa) * proj
        direct = float(gap @ np.linalg.solve(cov, gap))
        assert deflection_tilde_exact(policy, energy, sigma2) == pytest.approx(
            direct, rel=1e-9
        )


def test_deflection_report_decomposition():
    policy = _policy(kappa=1.2, art_variance=0.5)
    report = deflection_report(policy, 0.4, 3.0, 1.5)
    assert report.d_fc == pytest.approx(
        policy.fraction * report.d_tilde + (1.0 - policy.fraction) * report.d_clean,
        rel=1e-12,
    )
    assert set(report.intermediates) == {"p_b", "p_t", "p_t_e", "sigma2", "r_b"}
    assert report.intermediates["sigma2"] == 1.5
    assert report.intermediates["r_b"] == pytest.approx(
        1.5 + policy.p_t * 1.2**2 * 0.4 * 3.0, rel=1e-13
    )
    assert report.d_ev == pytest.approx(deflection_ev(policy, 0.4, 3.0, 1.5), rel=1e-14)
