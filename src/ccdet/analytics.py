"""Closed-form performance expressions for compressed collaborative detection.

Deterministic-signal case: the fused statistic is Gaussian under each
hypothesis, so the error probability is an exact Q-function of the projected
signal energy, with compression-ratio approximations, stable-embedding bounds,
and a Chernoff exponent built on top.

Random-signal case: the (monotone-transformed) fused statistic is a scaled
noncentral chi-squared variable under each hypothesis; this module carries the
distribution specs, an exact error probability from the two noncentral tails
(scipy.stats.ncx2; the central tails when the noncentrality is zero), and the
large-sample Gaussian approximation of the two tail terms.

Artificial-noise injection: modified deflection coefficients quantify how far
apart the two hypothesis mixtures sit at the fusion center and at an
eavesdropper, including the exact single-node form obtained from a rank-one
covariance update.

Scale convention: signal_variance, noise_variance, and art_variance are the
per-coordinate variances of the signal, sensing noise, and artificial noise
(alpha_inv, beta_inv, gamma_inv in the parameter names below, where those
quantities appear without a model object).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv, gammainc, gammaincc

from .errors import DomainError, SingularCovarianceError
from .model import InjectionPolicy, SignalModel


def q_function(x: float) -> float:
    """Standard normal upper-tail probability Q(x)."""
    return 0.5 * float(erfc(float(x) / math.sqrt(2.0)))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inverse needs p in (0, 1), got {p}")
    return math.sqrt(2.0) * float(erfcinv(2.0 * p))


# ---------------------------------------------------------------------------
# deterministic-signal case
# ---------------------------------------------------------------------------


def pe_deterministic_exact(
    projector_energy: float, beta_inv: float, n: int, priors: tuple[float, float] = (0.5, 0.5)
) -> float:
    """Exact Bayes error probability for a deterministic signal.

    The fused log-likelihood ratio is N(-d^2/2, d^2) under H0 and N(d^2/2, d^2)
    under H1, d^2 the deterministic_deflection, and H1 is decided above
    eta = ln(p0/p1): P_E = p0 Q(d/2 + eta/d) + p1 Q(d/2 - eta/d), Q(d/2) at
    equal priors. At d = 0, or with a zero prior, the test always picks the
    likelier hypothesis (H0 on a tie) and P_E = min(p0, p1).
    """
    d = math.sqrt(deterministic_deflection(projector_energy, beta_inv, n))
    p0, p1 = (float(priors[0]), float(priors[1]))
    if d == 0.0 or p0 == 0.0 or p1 == 0.0:
        return min(p0, p1)
    eta = math.log(p0 / p1)
    return p0 * q_function(0.5 * d + eta / d) + p1 * q_function(0.5 * d - eta / d)


def deterministic_deflection(projector_energy: float, beta_inv: float, n: int) -> float:
    """Variance-normalized squared distance between the two statistic centers,
    D = n * projector_energy / beta_inv; at equal priors
    pe_deterministic_exact equals Q(sqrt(D)/2)."""
    projector_energy = float(projector_energy)
    beta_inv = float(beta_inv)
    if projector_energy < 0.0:
        raise DomainError("projector_energy must be nonnegative")
    if beta_inv <= 0.0:
        raise DomainError("beta_inv must be strictly positive")
    if n < 0:
        raise DomainError("n must be nonnegative")
    return n * projector_energy / beta_inv


def _check_ratio_and_nodes(c: float, n: float) -> tuple[float, float]:
    c = float(c)
    n = float(n)
    if not 0.0 < c <= 1.0:
        raise DomainError(f"compression ratio must lie in (0, 1], got {c}")
    if n < 0:
        raise DomainError("node count must be nonnegative")
    return c, n


def pe_deterministic_approx(c: float, n: int, snr: float) -> float:
    """Compression-ratio approximation Q(0.5 sqrt(c n snr)).

    Replaces the realized projected energy by its concentration value c||s||^2,
    with snr = ||s||^2 / beta_inv.
    """
    c, n = _check_ratio_and_nodes(c, n)
    snr = float(snr)
    if snr < 0.0:
        raise DomainError("snr must be nonnegative")
    return q_function(0.5 * math.sqrt(c * n * snr))


def pe_deterministic_bounds(
    c: float, n: int, snr: float, eps: float
) -> tuple[float, float]:
    """Two-sided bounds on the deterministic error probability when the
    projection is an eps-stable embedding of the signal: the projected energy
    lies in [(1-eps), (1+eps)] times c||s||^2, so the error probability lies in
    [Q(0.5 sqrt((1+eps) c n snr)), Q(0.5 sqrt((1-eps) c n snr))].
    Returns (lower, upper); eps = 0 collapses both onto the approximation.
    """
    c, n = _check_ratio_and_nodes(c, n)
    snr = float(snr)
    eps = float(eps)
    if snr < 0.0:
        raise DomainError("snr must be nonnegative")
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")
    lower = q_function(0.5 * math.sqrt((1.0 + eps) * c * n * snr))
    upper = q_function(0.5 * math.sqrt((1.0 - eps) * c * n * snr))
    return lower, upper


def nodes_required(c: float, snr: float, delta: float) -> int:
    """Smallest node count guaranteeing approximate error probability <= delta,
    from c*n >= (4/snr) * q_inverse(delta)^2."""
    c = float(c)
    snr = float(snr)
    if not 0.0 < c <= 1.0:
        raise DomainError(f"compression ratio must lie in (0, 1], got {c}")
    if snr <= 0.0:
        raise DomainError("snr must be strictly positive")
    delta = float(delta)
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 0.5), got {delta}")
    bound = (4.0 / snr) * q_inverse(delta) ** 2 / c
    return max(1, int(math.ceil(bound - 1e-9)))


def pe_deterministic_chernoff(c: float, n: int, snr: float) -> float:
    """Exponential upper bound 0.5 exp(-c n snr / 8) on the deterministic
    error probability."""
    c, n = _check_ratio_and_nodes(c, n)
    snr = float(snr)
    if snr < 0.0:
        raise DomainError("snr must be nonnegative")
    return 0.5 * math.exp(-c * n * snr / 8.0)


# ---------------------------------------------------------------------------
# chi-squared machinery for the random-signal case
# ---------------------------------------------------------------------------


def chi2_sf(x: float, dof: float) -> float:
    """Central chi-squared upper-tail probability."""
    if dof <= 0:
        raise DomainError("dof must be positive")
    x = float(x)
    if x <= 0.0:
        return 1.0
    return float(gammaincc(0.5 * dof, 0.5 * x))


def chi2_cdf(x: float, dof: float) -> float:
    """Central chi-squared lower-tail probability."""
    if dof <= 0:
        raise DomainError("dof must be positive")
    x = float(x)
    if x <= 0.0:
        return 0.0
    return float(gammainc(0.5 * dof, 0.5 * x))


def _ncx2_tail(x: float, dof: float, noncentrality: float, upper: bool) -> float:
    """Upper or lower noncentral chi-squared tail."""
    if dof <= 0:
        raise DomainError("dof must be positive")
    noncentrality = float(noncentrality)
    if noncentrality < 0.0:
        raise DomainError("noncentrality must be nonnegative")
    if noncentrality == 0.0:
        return chi2_sf(x, dof) if upper else chi2_cdf(x, dof)
    x = float(x)
    if x <= 0.0:
        return 1.0 if upper else 0.0
    # imported here, not at module level: scipy.stats more than doubles the
    # start-up time and adds about 40 MB to every `ccdet` process, zero-mean
    # runs included, which need only the central tails above
    from scipy.stats import ncx2

    return float((ncx2.sf if upper else ncx2.cdf)(x, dof, noncentrality))


def ncx2_sf(x: float, dof: float, noncentrality: float) -> float:
    """Noncentral chi-squared upper-tail probability."""
    return _ncx2_tail(x, dof, noncentrality, upper=True)


def ncx2_cdf(x: float, dof: float, noncentrality: float) -> float:
    """Noncentral chi-squared lower-tail probability."""
    return _ncx2_tail(x, dof, noncentrality, upper=False)


@dataclass(frozen=True)
class ChiSquareSpec:
    """Law of the fused random-signal statistic under one hypothesis: the
    statistic divided by ``scale`` is noncentral chi-squared.

    Attributes:
        dof: Degrees of freedom (node count times compressed dimension).
        noncentrality: Total noncentrality of the scaled variate.
        scale: Variance scale (per-coordinate variance of the compressed
            observation under this hypothesis).
    """

    dof: int
    noncentrality: float
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dof", int(self.dof))
        object.__setattr__(self, "noncentrality", float(self.noncentrality))
        object.__setattr__(self, "scale", float(self.scale))
        if self.dof < 1:
            raise DomainError("dof must be a positive integer")
        if self.noncentrality < 0.0:
            raise DomainError("noncentrality must be nonnegative")
        if self.scale <= 0.0:
            raise DomainError("scale must be strictly positive")

    @property
    def mean(self) -> float:
        """Mean of the unscaled statistic, scale * (dof + noncentrality)."""
        return self.scale * (self.dof + self.noncentrality)

    @property
    def variance(self) -> float:
        """Variance of the unscaled statistic,
        scale^2 * 2 * (dof + 2 * noncentrality)."""
        return self.scale**2 * 2.0 * (self.dof + 2.0 * self.noncentrality)

    def sf(self, x: float) -> float:
        """P(statistic > x)."""
        return ncx2_sf(float(x) / self.scale, self.dof, self.noncentrality)

    def cdf(self, x: float) -> float:
        """P(statistic <= x)."""
        return ncx2_cdf(float(x) / self.scale, self.dof, self.noncentrality)


def test_stat_distribution(
    model: SignalModel, m: int, n: int, projector_mean_energy: float
) -> tuple[ChiSquareSpec, ChiSquareSpec]:
    """Distribution specs of the transformed fused statistic under (H0, H1).

    The transformed statistic divided by the per-coordinate compressed
    variance (noise_variance under H0, signal+noise variance under H1) is
    noncentral chi-squared with n*m degrees of freedom. With E the projected
    mean energy and r = signal_variance / noise_variance, the per-node
    noncentralities are

        delta1 = (E / signal_variance) * (1 + 1/r)   under H1,
        delta0 = E * noise_variance / signal_variance^2   under H0,

    each multiplied by n for the fused statistic. The H0 noncentrality comes
    from the same deterministic mean offset that completes the square in the
    transformed statistic; it vanishes exactly when the mean is zero, which is
    the only case in which the null law is central.
    """
    if model.signal_variance <= 0.0:
        raise DomainError(
            "test_stat_distribution needs signal_variance > 0; the deterministic "
            "case has a Gaussian statistic instead"
        )
    m = int(m)
    n = int(n)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive integers")
    energy = float(projector_mean_energy)
    if energy < 0.0:
        raise DomainError("projector_mean_energy must be nonnegative")
    alpha_inv = model.signal_variance
    beta_inv = model.noise_variance
    delta1 = (energy / alpha_inv) * (1.0 + beta_inv / alpha_inv)
    delta0 = energy * beta_inv / alpha_inv**2
    spec_h0 = ChiSquareSpec(dof=n * m, noncentrality=n * delta0, scale=beta_inv)
    spec_h1 = ChiSquareSpec(
        dof=n * m, noncentrality=n * delta1, scale=alpha_inv + beta_inv
    )
    return spec_h0, spec_h1


@dataclass(frozen=True)
class RandomPeExact:
    """Exact random-signal error probabilities at the optimal threshold.

    Attributes:
        pe: Bayes error probability.
        pf: False-alarm probability.
        pd: Detection probability.
        threshold: Threshold for the raw fused statistic.
        threshold_transformed: Same threshold mapped to the transformed
            (chi-squared) statistic.
    """

    pe: float
    pf: float
    pd: float
    threshold: float
    threshold_transformed: float


def random_thresholds(
    model: SignalModel,
    m: int,
    n: int,
    projector_mean_energy: float,
    priors: tuple[float, float] = (0.5, 0.5),
) -> tuple[float, float]:
    """Thresholds of the random-signal test: (raw, transformed).

    raw = (a+b) * (2 log(P0/P1) + n m log(1 + a/b)) + n E with
    a = signal_variance, b = noise_variance, E the projected mean energy; the
    transformed threshold is (b/a) * raw + n (b/a)^2 E, matching the
    chi-squared laws of test_stat_distribution.
    """
    if model.signal_variance <= 0.0:
        raise DomainError("random_thresholds needs signal_variance > 0")
    m = int(m)
    n = int(n)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive integers")
    energy = float(projector_mean_energy)
    if energy < 0.0:
        raise DomainError("projector_mean_energy must be nonnegative")
    p0, p1 = (float(priors[0]), float(priors[1]))
    if p0 <= 0.0 or p1 <= 0.0:
        raise DomainError("priors must be strictly positive for a finite threshold")
    alpha_inv = model.signal_variance
    beta_inv = model.noise_variance
    ratio = alpha_inv / beta_inv
    raw = (alpha_inv + beta_inv) * (
        2.0 * math.log(p0 / p1) + n * m * math.log1p(ratio)
    ) + n * energy
    transformed = (beta_inv / alpha_inv) * raw + n * (beta_inv / alpha_inv) ** 2 * energy
    return raw, transformed


def pe_random_exact(
    model: SignalModel,
    m: int,
    n: int,
    projector_mean_energy: float,
    priors: tuple[float, float] = (0.5, 0.5),
) -> RandomPeExact:
    """Exact error probabilities of the random-signal test from the
    noncentral chi-squared tails (no Gaussian approximation).

    A zero prior makes the other hypothesis certain: the test then always
    picks it (thresholds -inf or +inf), as the Monte Carlo detector does, and
    pe is 0.
    """
    spec_h0, spec_h1 = test_stat_distribution(model, m, n, projector_mean_energy)
    p0, p1 = (float(priors[0]), float(priors[1]))
    if p0 == 0.0 or p1 == 0.0:
        raw = transformed = -math.inf if p0 == 0.0 else math.inf
        pf = float(p0 == 0.0)
        pm = 1.0 - pf
    else:
        raw, transformed = random_thresholds(model, m, n, projector_mean_energy, priors)
        pf = spec_h0.sf(transformed)
        pm = spec_h1.cdf(transformed)
    pd = 1.0 - pm
    pe = p0 * pf + p1 * pm
    return RandomPeExact(
        pe=pe, pf=pf, pd=pd, threshold=raw, threshold_transformed=transformed
    )


@dataclass(frozen=True)
class RandomPeApprox:
    """Gaussian-approximation error probabilities for the random-signal test.

    Attributes:
        pe: Approximate Bayes error probability (equal priors).
        pf: Approximate false-alarm probability.
        pd: Approximate detection probability.
        tau0: Normalized H0 tail argument; pf = Q(sqrt(c n) tau0).
        tau1: Normalized H1 tail argument; 1 - pd = Q(sqrt(c n) tau1).
    """

    pe: float
    pf: float
    pd: float
    tau0: float
    tau1: float


def pe_random_approx(
    c: float,
    n: int,
    ambient_dim: int,
    mean_norm2: float,
    alpha_inv: float,
    beta_inv: float,
) -> RandomPeApprox:
    """Large-sample Gaussian approximation of the random-signal error
    probability at equal priors.

    With r = alpha_inv / beta_inv, P the ambient dimension, and
    delta1' = (mean_norm2 / alpha_inv) (1 + 1/r):

        tau0 = sqrt(P/2) ((1 + 1/r)(log(1+r) + mean_norm2/(alpha_inv P)) - 1)
        tau1 = sqrt((P + delta1')/2)
               (1 - (1/r)(P log(1+r) + mean_norm2/alpha_inv) / (P + delta1'))
        pe   = 0.5 Q(sqrt(c n) tau0) + 0.5 Q(sqrt(c n) tau1)

    The two normal tails approximate the chi-squared false-alarm and miss
    probabilities; the approximation treats the null law as central and is
    therefore most accurate for small mean energy (it is exact in the
    mean-zero limit of the underlying laws).
    """
    c = float(c)
    if not 0.0 < c <= 1.0:
        raise DomainError(f"compression ratio must lie in (0, 1], got {c}")
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    ambient_dim = int(ambient_dim)
    if ambient_dim < 1:
        raise DomainError("ambient_dim must be a positive integer")
    mean_norm2 = float(mean_norm2)
    if mean_norm2 < 0.0:
        raise DomainError("mean_norm2 must be nonnegative")
    alpha_inv = float(alpha_inv)
    beta_inv = float(beta_inv)
    if alpha_inv <= 0.0 or beta_inv <= 0.0:
        raise DomainError("variances must be strictly positive")
    r = alpha_inv / beta_inv
    p = float(ambient_dim)
    log1r = math.log1p(r)
    tau0 = math.sqrt(p / 2.0) * (
        (1.0 + 1.0 / r) * (log1r + mean_norm2 / (alpha_inv * p)) - 1.0
    )
    delta1p = (mean_norm2 / alpha_inv) * (1.0 + 1.0 / r)
    tau1 = math.sqrt((p + delta1p) / 2.0) * (
        1.0 - (1.0 / r) * (p * log1r + mean_norm2 / alpha_inv) / (p + delta1p)
    )
    scale = math.sqrt(c * n)
    pf = q_function(scale * tau0)
    pm = q_function(scale * tau1)
    return RandomPeApprox(pe=0.5 * pf + 0.5 * pm, pf=pf, pd=1.0 - pm, tau0=tau0, tau1=tau1)


def pe_random_chernoff(c: float, n: int, tau0: float, tau1: float) -> float:
    """Exponential upper bound on the random-signal error probability,
    0.25 exp(-c n tau0^2 / 2) + 0.25 exp(-c n tau1^2 / 2)."""
    c, n = _check_ratio_and_nodes(c, n)
    tau0 = float(tau0)
    tau1 = float(tau1)
    if tau0 <= 0.0 or tau1 <= 0.0:
        raise DomainError("tau0 and tau1 must be strictly positive")
    return 0.25 * math.exp(-c * n * tau0**2 / 2.0) + 0.25 * math.exp(
        -c * n * tau1**2 / 2.0
    )


# ---------------------------------------------------------------------------
# modified deflection coefficients under artificial-noise injection
# ---------------------------------------------------------------------------


def _check_deflection_inputs(c: float, mean_norm2: float, sigma2: float) -> None:
    if not 0.0 < float(c) <= 1.0:
        raise DomainError(f"compression ratio must lie in (0, 1], got {c}")
    if float(mean_norm2) <= 0.0:
        raise DomainError("mean_norm2 must be strictly positive")
    if float(sigma2) <= 0.0:
        raise DomainError("sigma2 must be strictly positive")


def deflection_clean(c: float, mean_norm2: float, sigma2: float) -> float:
    """Per-node deflection of a non-injecting node, c * mean_norm2 / sigma2."""
    _check_deflection_inputs(c, mean_norm2, sigma2)
    return float(c) * float(mean_norm2) / float(sigma2)


def deflection_fc(
    policy: InjectionPolicy, c: float, mean_norm2: float, sigma2: float
) -> float:
    """Network-average modified deflection at the fusion center.

    sigma2 is the total per-coordinate variance under the alternative
    (signal + sensing noise + artificial noise). With f the injecting
    fraction, kappa the injection scale, and the policy's net mean-shift and
    spread weights P_b and P_t:

        D_FC = f (1 - P_b kappa)^2 / (kappa^2 P_t + sigma2 / (c mean_norm2))
               + (1 - f) c mean_norm2 / sigma2

    This keeps the paper's approximation, which puts the artificial-noise
    variance into every node's sigma2, clean nodes and the unchanged
    injection component included; the Monte Carlo tests of
    ccdet.detection add it to the +-kappa components only.
    """
    _check_deflection_inputs(c, mean_norm2, sigma2)
    c = float(c)
    mean_norm2 = float(mean_norm2)
    sigma2 = float(sigma2)
    f = policy.fraction
    kappa = policy.kappa
    injected = (
        f
        * (1.0 - policy.p_b * kappa) ** 2
        / (kappa**2 * policy.p_t + sigma2 / (c * mean_norm2))
    )
    return injected + (1.0 - f) * c * mean_norm2 / sigma2


def deflection_ev(
    policy: InjectionPolicy, c: float, mean_norm2: float, sigma2: float
) -> float:
    """Modified deflection at an eavesdropper that cannot tell injecting
    nodes apart and therefore sees fraction-rescaled mixtures:

        D_EV = (1 - f P_b kappa)^2
               / (f kappa^2 P_t_e + sigma2 / (c mean_norm2))

    Zero exactly on the blinding manifold f P_b kappa = 1. Like
    deflection_fc, it keeps the paper's approximation of the artificial-noise
    variance in every node's sigma2.
    """
    _check_deflection_inputs(c, mean_norm2, sigma2)
    c = float(c)
    mean_norm2 = float(mean_norm2)
    sigma2 = float(sigma2)
    f = policy.fraction
    kappa = policy.kappa
    return (1.0 - f * policy.p_b * kappa) ** 2 / (
        f * kappa**2 * policy.p_t_e + sigma2 / (c * mean_norm2)
    )


def deflection_tilde_exact(
    policy: InjectionPolicy, projector_mean_energy: float, sigma2: float
) -> float:
    """Exact per-node deflection of an injecting node at the fusion center,
    using the realized projected mean energy E = ||P_hat mu||^2.

    The injected observation is a three-component mixture whose hypothesis
    mean gap is (1 - P_b kappa) phi mu and whose alternative covariance is the
    base covariance plus a rank-one spread term; inverting that rank-one
    update gives

        D = (1 - P_b kappa)^2 E / sigma2
            - P_t kappa^2 (1 - P_b kappa)^2 E^2 / (sigma2 r_b),
        r_b = sigma2 + P_t kappa^2 E,

    which simplifies to (1 - P_b kappa)^2 E / r_b.
    """
    energy = float(projector_mean_energy)
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise SingularCovarianceError("sigma2 must be strictly positive")
    if energy < 0.0:
        raise DomainError("projector_mean_energy must be nonnegative")
    kappa = policy.kappa
    gap = (1.0 - policy.p_b * kappa) ** 2
    r_b = sigma2 + policy.p_t * kappa**2 * energy
    return gap * energy / sigma2 - policy.p_t * kappa**2 * gap * energy**2 / (
        sigma2 * r_b
    )


@dataclass(frozen=True)
class DeflectionReport:
    """All deflection figures for one injection design point.

    Attributes:
        d_fc: Network-average deflection at the fusion center.
        d_ev: Deflection at the eavesdropper.
        d_clean: Per-node deflection of a non-injecting node.
        d_tilde: Per-node deflection of an injecting node (compression-ratio
            approximation, consistent with d_fc).
        intermediates: p_b, p_t, p_t_e, sigma2, and the rank-one-update
            denominator r_b.
    """

    d_fc: float
    d_ev: float
    d_clean: float
    d_tilde: float
    intermediates: dict[str, float]


def deflection_report(
    policy: InjectionPolicy, c: float, mean_norm2: float, sigma2: float
) -> DeflectionReport:
    """Bundle the deflection coefficients of one design point; satisfies
    d_fc = fraction * d_tilde + (1 - fraction) * d_clean."""
    _check_deflection_inputs(c, mean_norm2, sigma2)
    approx_energy = float(c) * float(mean_norm2)
    d_tilde = deflection_tilde_exact(policy, approx_energy, sigma2)
    report = DeflectionReport(
        d_fc=deflection_fc(policy, c, mean_norm2, sigma2),
        d_ev=deflection_ev(policy, c, mean_norm2, sigma2),
        d_clean=deflection_clean(c, mean_norm2, sigma2),
        d_tilde=d_tilde,
        intermediates={
            "p_b": policy.p_b,
            "p_t": policy.p_t,
            "p_t_e": policy.p_t_e,
            "sigma2": float(sigma2),
            "r_b": float(sigma2) + policy.p_t * policy.kappa**2 * approx_energy,
        },
    )
    return report
