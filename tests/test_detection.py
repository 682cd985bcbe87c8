"""Mixture densities, per-scenario mixtures and the likelihood-ratio tests
against density oracles.

scipy.stats.multivariate_normal supplies the component densities in the
compressed coordinates and scipy.special.logsumexp the mixture combination;
one extended-precision check goes through mpmath. Projections and whitened
energies are formed with dense numpy.linalg algebra, independently of the
operator's cached factorization. Each test of the fusion-center and
eavesdropper statistics draws compressed observations y, evaluates these
densities on y directly and passes the tests each node's statistics
y^T G^-1 phi mu and y^T G^-1 y (the projection and energy of the whitened
observation), which pins the tests to the underlying likelihood-ratio tests.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

from ccdet import (
    DimensionError,
    DomainError,
    GaussianMixture,
    InjectionPolicy,
    ProbabilityError,
    RngContract,
    Scenario,
    SignalModel,
    SingularCovarianceError,
    build_mixtures,
    estimate_errors,
    gen_projection,
    log_likelihood_ratios,
)


def _brute_stats(op, mean, ys):
    """(proj, sq_norm, log det L): y^T G^-1 phi mu, y^T G^-1 y and half the
    log determinant of G, by dense linear algebra."""
    gram_inv = np.linalg.inv(op.phi @ op.phi.T)
    proj = ys @ (gram_inv @ (op.phi @ mean))
    sq_norm = np.einsum("...i,ij,...j->...", ys, gram_inv, ys)
    return proj, sq_norm, 0.5 * np.linalg.slogdet(op.phi @ op.phi.T)[1]


def _node_stats(op, mean, ys):
    """(proj, sq_norm) of compressed observations ys, by dense algebra."""
    proj, sq_norm, _ = _brute_stats(op, mean, ys)
    return proj, sq_norm


def _brute_energy(op, mean) -> float:
    p_hat = op.phi.T @ np.linalg.solve(op.phi @ op.phi.T, op.phi)
    return float(mean @ p_hat @ mean)


def _setting(seed=0, m=4, p=9):
    op = gen_projection(m, p, RngContract(seed, 2**62))
    mean = np.random.default_rng(seed + 1).standard_normal(p) * 0.6
    return op, mean


def _mixture(op, mean, weights, offsets, variance) -> GaussianMixture:
    return GaussianMixture(
        weights, offsets, variance, _brute_energy(op, mean), op.compressed_dim
    )


def _scipy_mixture_loglik(ys, weights, means, covs):
    parts = np.stack(
        [stats.multivariate_normal.logpdf(ys, mean, cov) for mean, cov in zip(means, covs)],
        axis=-1,
    )
    return logsumexp(np.atleast_2d(parts) + np.log(weights)[None, :], axis=1)


def test_mixture_validation():
    good = GaussianMixture([0.2, 0.3, 0.5], [1.0, -1.0, 0.0], 1.5, 2.0, 4)
    assert good.num_components == 3
    assert good.dim == 4
    with pytest.raises(ProbabilityError):
        GaussianMixture([0.7, 0.7], [0.0, 1.0], 1.0, 1.0, 2)
    with pytest.raises(ProbabilityError):
        GaussianMixture([-0.2, 1.2], [0.0, 1.0], 1.0, 1.0, 2)
    with pytest.raises(DimensionError):
        GaussianMixture([0.5, 0.5], [0.0, 1.0, 2.0], 1.0, 1.0, 2)
    with pytest.raises(DimensionError):
        GaussianMixture([1.0], [0.0], 1.0, 1.0, 0)
    with pytest.raises(SingularCovarianceError):
        GaussianMixture([1.0], [0.0], 0.0, 1.0, 2)
    with pytest.raises(SingularCovarianceError):
        GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 0.0], 1.0, 2)
    with pytest.raises(DimensionError):
        GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 2.0, 3.0], 1.0, 2)
    # a scalar variance is shared by every component
    assert np.array_equal(good.variance, [1.5, 1.5, 1.5])
    with pytest.raises(DomainError):
        GaussianMixture([1.0], [0.0], 1.0, -1.0, 2)


def test_mixture_copies_and_freezes_inputs():
    weights = np.array([0.5, 0.5])
    offsets = np.array([0.0, 1.0])
    mix = GaussianMixture(weights, offsets, 1.0, 2.0, 3)
    weights[0] = 0.9
    offsets[0] = 5.0
    assert mix.weights[0] == 0.5
    assert mix.offsets[0] == 0.0
    with pytest.raises(ValueError):
        mix.weights[0] = 0.1
    with pytest.raises(ValueError):
        mix.offsets[0] = 0.1


def test_component_logpdfs_match_scipy():
    op, mean = _setting(seed=5)
    ys = np.random.default_rng(6).standard_normal((8, 4))
    proj, sq_norm, log_det_l = _brute_stats(op, mean, ys)
    for offset in (0.0, 1.0, 2.381, -1.4):
        for variance in (0.3, 2.5):
            mix = _mixture(op, mean, [1.0], [offset], variance)
            expected = stats.multivariate_normal.logpdf(
                ys, offset * (op.phi @ mean), variance * op.gram
            )
            got = mix.loglik_rows(proj, sq_norm) - log_det_l
            assert np.allclose(got, expected, rtol=1e-11, atol=1e-11)


def test_loglik_rows_match_scipy_logsumexp():
    op, mean = _setting(seed=7)
    mix = _mixture(op, mean, [0.5, 0.2, 0.3], [1.7, -0.7, 1.0], 1.8)
    ys = np.random.default_rng(8).standard_normal((10, 4)) * 3.0
    proj, sq_norm, log_det_l = _brute_stats(op, mean, ys)
    means = np.outer(mix.offsets, op.phi @ mean)
    expected = _scipy_mixture_loglik(ys, mix.weights, means, [1.8 * op.gram] * 3)
    got = mix.loglik_rows(proj, sq_norm) - log_det_l
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-11)
    # one variance per component
    variances = [0.4, 2.9, 1.1]
    mix = _mixture(op, mean, [0.5, 0.2, 0.3], [1.7, -0.7, 1.0], variances)
    expected = _scipy_mixture_loglik(ys, mix.weights, means, [v * op.gram for v in variances])
    got = mix.loglik_rows(proj, sq_norm) - log_det_l
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-11)
    # stacked (T, N) statistics score elementwise
    stacked = mix.loglik_rows(proj.reshape(2, 5), sq_norm.reshape(2, 5))
    assert np.array_equal(stacked, mix.loglik_rows(proj, sq_norm).reshape(2, 5))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_loglik_rows_property_per_component_variances(data):
    # any isotropic mixture with one variance per component, against scipy's
    # multivariate_normal densities combined by logsumexp
    dim = data.draw(st.integers(1, 8), label="dim")
    k = data.draw(st.integers(1, 3), label="components")

    def floats(lo, hi, size):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    raw = floats(0.05, 1.0, k)
    weights = raw / raw.sum()
    offsets = floats(-3.0, 3.0, k)
    variances = floats(1e-2, 1e2, k)
    u = floats(-2.0, 2.0, dim)
    z = floats(-10.0, 10.0, dim)
    mix = GaussianMixture(weights, offsets, variances, float(u @ u), dim)
    parts = [
        math.log(w) + stats.multivariate_normal.logpdf(z, c * u, v * np.eye(dim))
        for w, c, v in zip(weights, offsets, variances)
    ]
    expected = float(logsumexp(parts))
    assert float(mix.loglik_rows(z @ u, z @ z)) == pytest.approx(expected, rel=1e-9, abs=1e-7)


def test_loglik_single_component_is_plain_logpdf():
    op, mean = _setting(seed=9, m=2, p=5)
    mix = _mixture(op, mean, [1.0], [1.0], 2.0)
    y = np.array([0.2, 0.7])
    proj, sq_norm, log_det_l = _brute_stats(op, mean, y)
    expected = stats.multivariate_normal.logpdf(y, op.phi @ mean, 2.0 * op.gram)
    assert float(mix.loglik_rows(proj, sq_norm)) - log_det_l == pytest.approx(
        expected, rel=1e-12
    )
    # a one-weight mixture of several components is the same density
    padded = _mixture(op, mean, [0.0, 1.0], [3.0, 1.0], 2.0)
    assert float(padded.loglik_rows(proj, sq_norm)) == pytest.approx(
        float(mix.loglik_rows(proj, sq_norm)), rel=1e-14
    )


def test_loglik_far_tail_is_stable():
    # naive exp-sum underflows here; the max-shifted form must not
    op, mean = _setting(seed=10, m=2, p=4)
    mix = _mixture(op, mean, [0.9, 0.1], [0.0, 1.0], 1.0)
    y = 60.0 * (op.phi @ mean) / math.sqrt(mix.energy)
    proj, sq_norm, log_det_l = _brute_stats(op, mean, y)
    value = float(mix.loglik_rows(proj, sq_norm)) - log_det_l
    assert math.isfinite(value)
    # the closer component dominates; its term alone is a tight lower bound
    dominant = stats.multivariate_normal.logpdf(y, op.phi @ mean, op.gram) + math.log(0.1)
    assert value >= dominant
    assert value == pytest.approx(dominant, rel=1e-6)


def test_loglik_matches_mpmath_reference():
    op, mean = _setting(seed=11, m=2, p=5)
    mix = _mixture(op, mean, [0.6, 0.3, 0.1], [0.0, 2.0, -3.0], 1.3)
    y = np.array([8.0, -5.0])
    proj, sq_norm, log_det_l = _brute_stats(op, mean, y)
    cov = 1.3 * op.gram
    cov_inv = np.linalg.inv(cov)
    log_norm = -0.5 * (2 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for w, offset in zip(mix.weights, mix.offsets):
            d = y - offset * (op.phi @ mean)
            quad = float(d @ cov_inv @ d)
            total += mpmath.mpf(float(w)) * mpmath.e ** (
                mpmath.mpf(log_norm) - mpmath.mpf(quad) / 2
            )
        expected = float(mpmath.log(total))
    got = float(mix.loglik_rows(proj, sq_norm)) - log_det_l
    assert got == pytest.approx(expected, rel=1e-12)


def test_decision_tie_goes_to_null():
    # a zero signal makes both hypotheses identical: every ratio is exactly
    # log(P0/P1) = 0, and a tie must decide H0 in every trial
    model = SignalModel(ambient_dim=10, mean=np.zeros(10), signal_variance=0.0, noise_variance=1.0)
    scenario = Scenario(model=model, compressed_dim=4, num_nodes=3, seed=5)
    op = gen_projection(4, 10, RngContract(5, 2**62))
    mixtures = build_mixtures(scenario, op)
    ys = np.random.default_rng(5).standard_normal((6, 3, 4))
    fc, eve = log_likelihood_ratios(mixtures, *_node_stats(op, np.zeros(10), ys))
    assert eve is None
    assert np.all(fc == mixtures.threshold) and mixtures.threshold == 0.0
    result = estimate_errors(scenario, op, 200)
    assert (result.pf_fc, result.pd_fc, result.pe_fc) == (0.0, 0.0, 0.5)


def _deterministic_scenario(op, s, n, noise_variance, priors=(0.5, 0.5)) -> Scenario:
    model = SignalModel(op.ambient_dim, s, 0.0, noise_variance)
    return Scenario(model=model, compressed_dim=op.compressed_dim, num_nodes=n, priors=priors)


def test_fc_statistic_deterministic_matches_brute_force():
    # the summed ratio is the matched filter sum_i y_i^T G^-1 phi s, shifted
    # by the projected energy and scaled by the noise variance
    op = gen_projection(4, 9, RngContract(2, 2**62))
    rng = np.random.default_rng(3)
    s = rng.standard_normal(9)
    ys = rng.standard_normal((2, 5, 4))
    mixtures = build_mixtures(_deterministic_scenario(op, s, 5, 1.3), op)
    fc, _ = log_likelihood_ratios(mixtures, *_node_stats(op, s, ys))
    template = np.linalg.solve(op.gram, op.phi @ s)
    energy = _brute_energy(op, s)
    for t in range(2):
        matched = float(sum(y @ template for y in ys[t]))
        assert 1.3 * fc[t] == pytest.approx(matched - 0.5 * 5 * energy, rel=1e-10)
    assert not mixtures.uses_energy
    with pytest.raises(DimensionError):
        log_likelihood_ratios(mixtures, np.ones((2, 5, 3)))
    with pytest.raises(DimensionError):
        log_likelihood_ratios(mixtures, np.ones(5))


def test_fc_threshold_deterministic_is_half_projected_energy():
    # the ratio of a node at y = 0 is minus half the projected energy over
    # the noise variance, so an all-zero trial sits at -(n/2) ||P_hat s||^2
    op = gen_projection(4, 9, RngContract(4, 2**62))
    s = np.random.default_rng(5).standard_normal(9)
    mixtures = build_mixtures(_deterministic_scenario(op, s, 7, 1.0), op)
    fc, _ = log_likelihood_ratios(mixtures, np.zeros((1, 7)))
    p_hat = op.phi.T @ np.linalg.solve(op.gram, op.phi)
    expected = 0.5 * 7 * float(s @ p_hat @ s)
    assert -fc[0] == pytest.approx(expected, rel=1e-11)
    assert mixtures.clean[1].energy == pytest.approx(float(s @ p_hat @ s), rel=1e-11)


def test_deterministic_verdict_equals_density_ratio_test():
    # the summed ratio must equal the sum of per-node log density ratios
    # (signal-mean versus zero-mean Gaussians) evaluated directly
    op = gen_projection(3, 8, RngContract(6, 2**62))
    s = np.random.default_rng(7).standard_normal(8) * 0.7
    beta_inv = 1.3
    cov = beta_inv * op.gram
    mean1 = op.phi @ s
    n = 4
    rng = np.random.default_rng(8)
    for priors in ((0.5, 0.5), (0.3, 0.7)):
        mixtures = build_mixtures(_deterministic_scenario(op, s, n, beta_inv, priors), op)
        log_prior = math.log(priors[0] / priors[1])
        assert mixtures.threshold == pytest.approx(log_prior, rel=1e-15)
        for _ in range(25):
            ys = rng.multivariate_normal(np.zeros(3), cov, size=n) + (
                mean1 if rng.random() < 0.5 else 0.0
            )
            llr = float(
                stats.multivariate_normal.logpdf(ys, mean1, cov).sum()
                - stats.multivariate_normal.logpdf(ys, np.zeros(3), cov).sum()
            )
            fc, _ = log_likelihood_ratios(mixtures, *_node_stats(op, s, ys[None]))
            assert fc[0] == pytest.approx(llr, rel=1e-8, abs=1e-9)
            assert (fc[0] > mixtures.threshold) == (llr > log_prior)


def _random_model(p=8, mean_scale=0.4, alpha_inv=0.9, beta_inv=1.4) -> SignalModel:
    mean = mean_scale * np.linspace(-1.0, 1.0, p)
    return SignalModel(
        ambient_dim=p, mean=mean, signal_variance=alpha_inv, noise_variance=beta_inv
    )


def test_fc_statistic_random_matches_brute_force():
    # with r = a / b the quadratic statistic r sum_i y_i^T G^-1 y_i +
    # 2 sum_i y_i^T G^-1 phi mu equals 2 (a + b) times the summed ratio plus
    # n m (a + b) log(1 + a/b) + n ||P_hat mu||^2
    op = gen_projection(3, 8, RngContract(9, 2**62))
    model = _random_model()
    scenario = Scenario(model=model, compressed_dim=3, num_nodes=5)
    ys = np.random.default_rng(10).standard_normal((3, 5, 3))
    mixtures = build_mixtures(scenario, op)
    assert mixtures.uses_energy
    proj, sq_norm = _node_stats(op, model.mean, ys)
    fc, eve = log_likelihood_ratios(mixtures, proj, sq_norm)
    assert eve is None
    with pytest.raises(DimensionError):
        log_likelihood_ratios(mixtures, proj, sq_norm[:, :4])
    gram_inv = np.linalg.inv(op.gram)
    proj_mean = op.phi @ model.mean
    a, b = model.signal_variance, model.noise_variance
    shift = 5 * 3 * (a + b) * math.log1p(a / b) + 5 * _brute_energy(op, model.mean)
    for t in range(3):
        statistic = (a / b) * float(np.einsum("ij,jk,ik->", ys[t], gram_inv, ys[t])) + 2.0 * float(
            ys[t].sum(axis=0) @ gram_inv @ proj_mean
        )
        assert 2.0 * (a + b) * fc[t] + shift == pytest.approx(statistic, rel=1e-10)


def test_fc_threshold_random_uses_realized_energy():
    op = gen_projection(3, 8, RngContract(11, 2**62))
    model = _random_model()
    energy = _brute_energy(op, model.mean)
    scenario = Scenario(model=model, compressed_dim=3, num_nodes=6)
    mixtures = build_mixtures(scenario, op)
    for mix in mixtures.clean:
        assert mix.energy == pytest.approx(energy, rel=1e-12)
        assert mix.dim == 3
    assert mixtures.threshold == 0.0
    skewed = build_mixtures(Scenario(model=model, compressed_dim=3, num_nodes=6, priors=(0.8, 0.2)), op)
    assert skewed.threshold == pytest.approx(math.log(4.0), rel=1e-14)
    with pytest.raises(DimensionError):
        build_mixtures(Scenario(model=model, compressed_dim=4, num_nodes=6), op)


def test_random_verdict_equals_density_ratio_test():
    # the summed ratio against log(P0/P1) must decide exactly like the
    # Gaussian density ratio with covariances (a+b) G versus b G
    op = gen_projection(3, 8, RngContract(12, 2**62))
    model = _random_model()
    a, b = model.signal_variance, model.noise_variance
    mean1 = op.phi @ model.mean
    cov0 = b * op.gram
    cov1 = (a + b) * op.gram
    n = 4
    rng = np.random.default_rng(13)
    for priors in ((0.5, 0.5), (0.75, 0.25)):
        scenario = Scenario(model=model, compressed_dim=3, num_nodes=n, priors=priors)
        mixtures = build_mixtures(scenario, op)
        log_prior = math.log(priors[0] / priors[1])
        for _ in range(25):
            if rng.random() < 0.5:
                ys = rng.multivariate_normal(np.zeros(3), cov0, size=n)
            else:
                ys = rng.multivariate_normal(mean1, cov1, size=n)
            llr = float(
                stats.multivariate_normal.logpdf(ys, mean1, cov1).sum()
                - stats.multivariate_normal.logpdf(ys, np.zeros(3), cov0).sum()
            )
            fc, _ = log_likelihood_ratios(mixtures, *_node_stats(op, model.mean, ys[None]))
            assert fc[0] == pytest.approx(llr, rel=1e-9, abs=1e-10)
            assert (fc[0] > mixtures.threshold) == (llr > log_prior)


def test_whitened_energy_does_not_depend_on_block_size():
    # each trial is whitened and scored on its own, so a stack scored in
    # blocks gives exactly the ratios of the whole stack
    op = gen_projection(3, 8, RngContract(14, 2**62))
    model = _random_model()
    scenario = Scenario(model=model, compressed_dim=3, num_nodes=4)
    mixtures = build_mixtures(scenario, op)
    u = op.whiten(op.phi @ model.mean)

    def scored(ys):
        zs = op.whiten(ys)
        return log_likelihood_ratios(mixtures, zs @ u, np.einsum("tnm,tnm->tn", zs, zs))[0]

    ys = np.random.default_rng(15).standard_normal((50, 4, 3))
    whole = scored(ys)
    # blocks of three trials: 16 full blocks and a remainder of two
    blocked = np.concatenate([scored(ys[t : t + 3]) for t in range(0, 50, 3)])
    assert np.array_equal(blocked, whole)


def _injection_scenario(p=6, m=3, n=5, fraction=0.3, kappa=1.0, art_variance=0.4, priors=(0.5, 0.5)):
    model = SignalModel(
        ambient_dim=p,
        mean=0.8 * np.ones(p),
        signal_variance=0.7,
        noise_variance=1.1,
    )
    policy = InjectionPolicy(
        fraction=fraction,
        p10=0.8,
        p20=0.1,
        p11=0.1,
        p21=0.8,
        kappa=kappa,
        art_variance=art_variance,
    )
    return Scenario(
        model=model, compressed_dim=m, num_nodes=n, priors=priors, seed=17, injection=policy
    )


def test_build_mixtures_structure():
    scenario = _injection_scenario()
    op = gen_projection(3, 6, RngContract(scenario.seed, 2**62))
    mixtures = build_mixtures(scenario, op)
    model = scenario.model
    energy = _brute_energy(op, model.mean)
    assert mixtures.num_injecting == 2
    assert mixtures.uses_energy

    h0, h1 = mixtures.fc_byz
    assert np.allclose(h0.weights, [0.8, 0.1, 0.1])
    assert np.allclose(h1.weights, [0.1, 0.8, 0.1])
    assert np.array_equal(h0.offsets, [1.0, -1.0, 0.0])
    assert np.array_equal(h1.offsets, [2.0, 0.0, 1.0])
    # the unchanged component carries no artificial noise
    assert np.allclose(h0.variance, [1.1 + 0.4, 1.1 + 0.4, 1.1], rtol=1e-15)
    assert np.allclose(h1.variance, [1.8 + 0.4, 1.8 + 0.4, 1.8], rtol=1e-15)

    e0, e1 = mixtures.eve
    assert np.allclose(e0.weights, [0.24, 0.03, 0.73])
    assert np.allclose(e1.weights, [0.03, 0.24, 0.73])
    assert np.array_equal(e0.offsets, h0.offsets)
    assert np.array_equal(e0.variance, h0.variance)
    assert np.array_equal(e1.variance, h1.variance)

    c0, c1 = mixtures.clean
    assert c0.num_components == c1.num_components == 1
    assert (c0.offsets[0], c1.offsets[0]) == (0.0, 1.0)
    assert c0.variance == pytest.approx([1.1])
    assert c1.variance == pytest.approx([0.7 + 1.1])
    for mix in (h0, h1, e0, e1, c0, c1):
        assert mix.energy == pytest.approx(energy, rel=1e-12)
        assert mix.dim == 3


def test_build_mixtures_without_policy_and_matching_dims():
    scenario = _injection_scenario()
    clean = Scenario(
        model=scenario.model, compressed_dim=3, num_nodes=5, seed=17, injection=None
    )
    op = gen_projection(3, 6, RngContract(17, 2**62))
    mixtures = build_mixtures(clean, op)
    assert mixtures.fc_byz is None and mixtures.eve is None
    assert mixtures.num_injecting == 0
    # a deterministic signal without artificial noise: one variance throughout
    fixed = _injection_scenario(art_variance=0.0)
    fixed = Scenario(
        model=SignalModel(6, fixed.model.mean, 0.0, 1.1),
        compressed_dim=3,
        num_nodes=5,
        injection=fixed.injection,
    )
    assert not build_mixtures(fixed, op).uses_energy
    mismatched = gen_projection(2, 6, RngContract(17, 2**62))
    with pytest.raises(DimensionError):
        build_mixtures(scenario, mismatched)
    wider = gen_projection(3, 7, RngContract(17, 2**62))
    with pytest.raises(DimensionError):
        build_mixtures(scenario, wider)


def _oracle_pair(ys, pair, op, mean):
    h0, h1 = pair
    direction = op.phi @ mean

    def loglik(mix):
        covs = [v * op.gram for v in mix.variance]
        return _scipy_mixture_loglik(ys, mix.weights, np.outer(mix.offsets, direction), covs)

    return loglik(h1) - loglik(h0)


def test_fc_decide_with_byzantines_matches_density_oracle():
    scenario = _injection_scenario(priors=(0.6, 0.4))
    op = gen_projection(3, 6, RngContract(scenario.seed, 2**62))
    mixtures = build_mixtures(scenario, op)
    mean = scenario.model.mean
    assert mixtures.threshold == pytest.approx(math.log(1.5), rel=1e-12)
    rng = np.random.default_rng(21)
    ys = rng.standard_normal((20, 5, 3)) * 2.0
    fc, _ = log_likelihood_ratios(mixtures, *_node_stats(op, mean, ys))
    for t in range(20):
        byz = _oracle_pair(ys[t, :2], mixtures.fc_byz, op, mean)
        clean1 = stats.multivariate_normal.logpdf(ys[t, 2:], op.phi @ mean, 1.8 * op.gram)
        clean0 = stats.multivariate_normal.logpdf(ys[t, 2:], np.zeros(3), 1.1 * op.gram)
        expected = float(byz.sum() + clean1.sum() - clean0.sum())
        assert fc[t] == pytest.approx(expected, rel=1e-9, abs=1e-10)


def test_fc_decide_flag_routing():
    # a wildly offset observation must be scored by the mixture its node's
    # role names: the first num_injecting nodes are the injectors
    scenario = _injection_scenario(n=2, fraction=0.5, kappa=3.0, art_variance=0.0)
    op = gen_projection(3, 6, RngContract(scenario.seed, 2**62))
    mixtures = build_mixtures(scenario, op)
    assert mixtures.num_injecting == 1
    y_at_offset = (op.phi @ scenario.model.mean) * (1.0 + 3.0)
    proj, sq_norm = _node_stats(op, scenario.model.mean, np.stack([y_at_offset, np.zeros(3)])[None])
    flagged, _ = log_likelihood_ratios(mixtures, proj, sq_norm)
    unflagged, _ = log_likelihood_ratios(mixtures, proj[:, ::-1], sq_norm[:, ::-1])
    assert flagged[0] != unflagged[0]
    mean = scenario.model.mean
    expected = _oracle_pair(y_at_offset, mixtures.fc_byz, op, mean)[0]
    expected += _oracle_pair(np.zeros(3), mixtures.clean, op, mean)[0]
    assert flagged[0] == pytest.approx(expected, rel=1e-9)


def test_eve_decide_matches_density_oracle():
    scenario = _injection_scenario()
    op = gen_projection(3, 6, RngContract(scenario.seed, 2**62))
    mixtures = build_mixtures(scenario, op)
    rng = np.random.default_rng(22)
    ys = rng.standard_normal((4, 5, 3)) * 1.5
    _, eve = log_likelihood_ratios(mixtures, *_node_stats(op, scenario.model.mean, ys))
    for t in range(4):
        expected = float(_oracle_pair(ys[t], mixtures.eve, op, scenario.model.mean).sum())
        assert eve[t] == pytest.approx(expected, rel=1e-9, abs=1e-10)
    assert mixtures.threshold == 0.0
