"""Monte Carlo engine tests: reproducibility, block independence, agreement
of the engine with per-trial scipy density ratios, the v1 generative model
as a distributional oracle, pinned verdict counts of both contracts,
closed-form cross-checks, and sweep serialization."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from ccdet import (
    DimensionError,
    DomainError,
    InjectionPolicy,
    RngContract,
    Scenario,
    SignalModel,
    build_mixtures,
    closed_form_columns,
    estimate_errors,
    estimate_errors_fresh_phi,
    gen_projection,
    log_likelihood_ratios,
    pe_deterministic_exact,
    pe_random_exact,
    sample_transformed_statistics,
    sweep,
    trial_stream,
    write_sweep_csv,
)
from ccdet import montecarlo
from ccdet import test_stat_distribution as statistic_laws
from ccdet.montecarlo import (
    CONTRACT_VERSION,
    PHI_STREAM_BASE,
    SWEEP_CSV_HEADER,
    TRIAL_BLOCK,
    _accumulate,
    _Counts,
    _draw_block,
)


def _deterministic_scenario(seed=101, trials=400) -> Scenario:
    p = 40
    mean = np.full(p, math.sqrt(2.0 / p))  # ||s||^2 = 2
    model = SignalModel(ambient_dim=p, mean=mean, signal_variance=0.0, noise_variance=1.0)
    return Scenario(model=model, compressed_dim=8, num_nodes=5, seed=seed, trials=trials)


def _random_scenario(seed=202, trials=400, mean_scale=0.0) -> Scenario:
    p = 30
    model = SignalModel(
        ambient_dim=p,
        mean=np.full(p, mean_scale),
        signal_variance=1.0,
        noise_variance=5.0,
    )
    return Scenario(model=model, compressed_dim=15, num_nodes=6, seed=seed, trials=trials)


def _wide_scenario(seed=404) -> Scenario:
    # M=50 of P=100, the compression of the mc_random_wide benchmark, on 5 nodes
    p = 100
    model = SignalModel(
        ambient_dim=p, mean=np.full(p, 0.1), signal_variance=0.05, noise_variance=1.0
    )
    return Scenario(model=model, compressed_dim=50, num_nodes=5, seed=seed)


def _injection_scenario(
    seed=303, kappa=1.0, art_variance=0.5, fraction=0.4, signal_variance=0.6
) -> Scenario:
    p = 12
    model = SignalModel(
        ambient_dim=p,
        mean=np.full(p, 0.5),
        signal_variance=signal_variance,
        noise_variance=1.2,
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
        model=model, compressed_dim=5, num_nodes=5, seed=seed, injection=policy
    )


def _operator(scenario: Scenario):
    return gen_projection(
        scenario.compressed_dim,
        scenario.model.ambient_dim,
        RngContract(scenario.seed, PHI_STREAM_BASE),
    )


def _draw_trial_ys(
    scenario: Scenario, op, hypothesis: str, rng: np.random.Generator
) -> np.ndarray:
    """The generative model of contract v1, which drew ambient vectors: one
    trial's whitened compressed observations, shape (N, M), drawn with its
    own generator in v1's order (sensing noise (N, P); under H1 the per-node
    signal (N, P) when signal_variance > 0; injection coins (B,);
    artificial-noise randomness (B, P) when art_variance > 0)."""
    model = scenario.model
    n = scenario.num_nodes
    p = model.ambient_dim
    u = rng.standard_normal((n, p)) * math.sqrt(model.noise_variance)
    if hypothesis == "H1":
        if model.signal_variance > 0.0:
            u = u + model.mean + rng.standard_normal((n, p)) * math.sqrt(
                model.signal_variance
            )
        else:
            u = u + model.mean
    zs = u @ op.whitened.T
    policy = scenario.injection
    b = scenario.num_injecting
    if policy is not None and b > 0:
        coins = rng.random(b)
        if policy.art_variance > 0.0:
            w = policy.kappa * model.mean + rng.standard_normal((b, p)) * math.sqrt(
                policy.art_variance
            )
            zw = w @ op.whitened.T
        else:
            zw = policy.kappa * (model.mean @ op.whitened.T)
        if hypothesis == "H1":
            p_add, p_sub = policy.p11, policy.p21
        else:
            p_add, p_sub = policy.p10, policy.p20
        signs = np.where(coins < p_add, 1.0, np.where(coins < p_add + p_sub, -1.0, 0.0))
        zs[:b] += signs[:, None] * zw
    return zs


def _score(scenario: Scenario, op, zs: np.ndarray):
    """Summed ratios of a (T, N, M) stack of whitened trials, from each
    node's projection z^T u (u = W mu) and energy ||z||^2."""
    direction = op.whitened @ scenario.model.mean
    sq_norm = np.einsum("tnm,tnm->tn", zs, zs)
    return log_likelihood_ratios(build_mixtures(scenario, op), zs @ direction, sq_norm)


def _simulate_trial(scenario: Scenario, op, hypothesis: str, t: int):
    """One trial drawn from its substream and scored as a T = 1 stack."""
    ys = _draw_trial_ys(scenario, op, hypothesis, trial_stream(scenario.seed, t))
    return _score(scenario, op, ys[None])


def test_simulate_trial_reproducible_and_validated():
    scenario = _deterministic_scenario()
    op = _operator(scenario)
    first, first_eve = _simulate_trial(scenario, op, "H1", 3)
    second, _ = _simulate_trial(scenario, op, "H1", 3)
    assert first.shape == (1,)
    assert first[0] == second[0]
    assert first_eve is None
    with pytest.raises(DomainError):
        sample_transformed_statistics(
            _random_scenario(), _operator(_random_scenario()), "h1", 10, trial_stream(0, 0)
        )
    wrong_op = gen_projection(7, 40, RngContract(scenario.seed, PHI_STREAM_BASE))
    with pytest.raises(DimensionError):
        _simulate_trial(scenario, wrong_op, "H0", 0)


def test_simulate_trial_injection_produces_both_decisions():
    scenario = _injection_scenario()
    op = _operator(scenario)
    fc, eve = _simulate_trial(scenario, op, "H0", 0)
    assert fc.shape == eve.shape == (1,)
    assert np.isfinite(fc[0]) and np.isfinite(eve[0])
    assert build_mixtures(scenario, op).threshold == 0.0


def _mixture_logpdf(ys, weights, offsets, variances, direction, gram):
    """Log density of each row of ys under sum_k w_k N(c_k direction,
    v_k * gram), by scipy."""
    parts = np.stack(
        [
            stats.multivariate_normal.logpdf(ys, c * direction, v * gram)
            for c, v in zip(offsets, variances)
        ],
        axis=-1,
    )
    with np.errstate(divide="ignore"):
        return logsumexp(np.atleast_2d(parts) + np.log(weights), axis=-1)


def _oracle_llrs(scenario: Scenario, ys: np.ndarray, op):
    """Per-trial summed log-likelihood ratios (fc, eve) of one (N, M) trial,
    written out from the generative model of _draw_trial_ys: under
    hypothesis h a node whose injection component shifts it by c kappa phi mu
    (c in {+1, -1, 0}) has mean (h + c kappa) phi mu and covariance
    (s + h a + |c| art) G, so the unchanged component carries no artificial
    noise."""
    model = scenario.model
    direction = op.phi @ model.mean
    gram = op.phi @ op.phi.T
    a, s = model.signal_variance, model.noise_variance

    def pair(rows, w0, w1, offsets, arts):
        h0 = _mixture_logpdf(rows, w0, offsets, s + arts, direction, gram)
        h1 = _mixture_logpdf(rows, w1, offsets + 1.0, a + s + arts, direction, gram)
        return float((h1 - h0).sum())

    def clean(rows):
        return pair(rows, [1.0], [1.0], np.zeros(1), np.zeros(1))

    policy = scenario.injection
    if policy is None:
        return clean(ys), None
    b = scenario.num_injecting
    k, f, art = policy.kappa, policy.fraction, policy.art_variance
    offsets = np.array([k, -k, 0.0])
    fc_w0 = [policy.p10, policy.p20, 1.0 - policy.p10 - policy.p20]
    fc_w1 = [policy.p11, policy.p21, 1.0 - policy.p11 - policy.p21]
    eve_w0 = [f * policy.p10, f * policy.p20, 1.0 - f * (policy.p10 + policy.p20)]
    eve_w1 = [f * policy.p11, f * policy.p21, 1.0 - f * (policy.p11 + policy.p21)]
    arts = np.array([art, art, 0.0])
    fc = pair(ys[:b], fc_w0, fc_w1, offsets, arts) + clean(ys[b:])
    return fc, pair(ys, eve_w0, eve_w1, offsets, arts)


def _v2_node_draws(scenario: Scenario, energy: float, t: int, hypothesis: str):
    """Per-trial oracle of contract v2, written out from the scenario
    fields: (x, var, chi2) of every node of trial t under `hypothesis`.

    It draws the whole block of trial t from trial_stream(seed, t //
    TRIAL_BLOCK) in the documented layout (coins (TRIAL_BLOCK, B) when
    B > 0, normals (TRIAL_BLOCK, N), then 2 standard_gamma((M - 1) / 2)
    (TRIAL_BLOCK, N) when the energy is used) and keeps row t % TRIAL_BLOCK.
    A node whose injection component shifts it by c kappa (c in {+1, -1,
    0}) has x = z^T u / a ~ N((h + c kappa) a, var), var = s + h a_s +
    |c| art and a = sqrt(energy); chi2 is None when the energy is unused.
    """
    model, policy = scenario.model, scenario.injection
    n, b, m = scenario.num_nodes, scenario.num_injecting, scenario.compressed_dim
    gen = trial_stream(scenario.seed, t // TRIAL_BLOCK)
    row = t % TRIAL_BLOCK
    coins = gen.random((TRIAL_BLOCK, b))[row] if b else np.zeros(0)
    eps = gen.standard_normal((TRIAL_BLOCK, n))[row]
    art = policy.art_variance if policy is not None else 0.0
    uses_energy = model.signal_variance > 0.0 or art > 0.0
    chi2 = None
    if uses_energy:
        chi2 = 2.0 * gen.standard_gamma((m - 1) / 2, (TRIAL_BLOCK, n))[row]
    h = 1.0 if hypothesis == "H1" else 0.0
    offset = np.full(n, h)
    var = np.full(n, model.noise_variance + h * model.signal_variance)
    if b:
        p_add, p_sub = (policy.p11, policy.p21) if h else (policy.p10, policy.p20)
        signs = np.where(coins < p_add, 1.0, np.where(coins < p_add + p_sub, -1.0, 0.0))
        offset[:b] += signs * policy.kappa
        var[:b] += np.abs(signs) * art
    return offset * math.sqrt(energy) + np.sqrt(var) * eps, var, chi2


def _replay_counts(scenario: Scenario, op, trials: int):
    """Replay the engine's trial schedule under contract v2 and decide each
    trial by the scipy density ratio against log(P0/P1). Each node's
    whitened observation is rebuilt from its v2 draw as z = x u_hat +
    sqrt(var chi2) v_hat (u_hat = u / a, or any unit vector when a = 0;
    v_hat a unit vector orthogonal to it), and scored as y = L z."""
    p0, p1 = scenario.priors
    threshold = math.log(p0 / p1)
    m = scenario.compressed_dim
    energy = op.projector_energy(scenario.model.mean)
    u = op.whitened @ scenario.model.mean
    u_hat = u / math.sqrt(energy) if energy > 0 else np.eye(m)[0]
    # the second column of Q is a unit vector orthogonal to u_hat
    basis = np.linalg.qr(np.column_stack([u_hat, np.eye(m)]))[0]
    v_hat = basis[:, 1] if m > 1 else np.zeros(m)
    n_h0 = (trials + 1) // 2
    counts = {"H0": [0, 0], "H1": [0, 0]}
    for t in range(trials):
        hypothesis = "H0" if t < n_h0 else "H1"
        x, var, chi2 = _v2_node_draws(scenario, energy, t, hypothesis)
        rest = np.zeros_like(x) if chi2 is None else np.sqrt(var * chi2)
        zs = np.outer(x, u_hat) + np.outer(rest, v_hat)
        fc, eve = _oracle_llrs(scenario, zs @ op.gram_cholesky.T, op)
        counts[hypothesis][0] += fc > threshold
        counts[hypothesis][1] += eve is not None and eve > threshold
    return n_h0, counts["H0"][0], counts["H1"][0], counts["H0"][1], counts["H1"][1]


@pytest.mark.parametrize(
    "make_scenario",
    [_deterministic_scenario, _random_scenario, _injection_scenario],
    ids=["deterministic", "random", "injection"],
)
def test_engine_agrees_with_scalar_path(make_scenario):
    # the scalar path is the per-trial scipy density ratio of _oracle_llrs
    # on observations rebuilt from the v2 draws
    scenario = make_scenario()
    op = _operator(scenario)
    trials = 120
    result = estimate_errors(scenario, op, trials)
    n_h0, fa, det, eve_fa, eve_det = _replay_counts(scenario, op, trials)
    n_h1 = trials - n_h0
    assert result.pf_fc == pytest.approx(fa / n_h0, abs=1e-15)
    assert result.pd_fc == pytest.approx(det / n_h1, abs=1e-15)
    if scenario.injection is not None:
        expected_ev = 0.5 * (eve_fa / n_h0) + 0.5 * (1.0 - eve_det / n_h1)
        assert result.pe_ev == pytest.approx(expected_ev, abs=1e-15)
    else:
        assert result.pe_ev is None
        assert result.pe_ev_ci is None


@pytest.mark.parametrize(
    "make_scenario",
    [
        _deterministic_scenario,
        _random_scenario,
        _injection_scenario,
        lambda: _injection_scenario(signal_variance=0.0),
        lambda: _injection_scenario(art_variance=0.0),
    ],
    ids=["deterministic", "random", "injection", "injection_deterministic", "injection_fixed_noise"],
)
def test_llrs_equal_generative_density_ratios(make_scenario):
    # the tests must score the density of the data the engine simulates:
    # on each replayed trial the summed ratios equal the scipy ratios of
    # _oracle_llrs, whose unchanged component carries no artificial noise
    scenario = make_scenario()
    op = _operator(scenario)
    for t in range(40):
        hypothesis = "H0" if t < 20 else "H1"
        zs = _draw_trial_ys(scenario, op, hypothesis, trial_stream(scenario.seed, t))
        fc, eve = _score(scenario, op, zs[None])
        fc_ref, eve_ref = _oracle_llrs(scenario, zs @ op.gram_cholesky.T, op)
        assert fc[0] == pytest.approx(fc_ref, rel=1e-9, abs=1e-9)
        if eve_ref is None:
            assert eve is None
        else:
            assert eve[0] == pytest.approx(eve_ref, rel=1e-9, abs=1e-9)


def _verdict_counts(threshold: float, fc_h0, fc_h1, eve_h0, eve_h1):
    eve = (0, 0) if eve_h0 is None else (
        int((eve_h0 > threshold).sum()), int((eve_h1 > threshold).sum())
    )
    return (
        fc_h0.size,
        fc_h1.size,
        int((fc_h0 > threshold).sum()),
        int((fc_h1 > threshold).sum()),
        *eve,
    )


def _v1_llrs(scenario: Scenario, op, hypothesis: str, trials: range):
    """Per-trial (fc, eve) ratios of contract v1: the ambient draws of
    _draw_trial_ys from trial_stream(seed, t), scored by the package's test."""
    zs = np.stack(
        [_draw_trial_ys(scenario, op, hypothesis, trial_stream(scenario.seed, t)) for t in trials]
    )
    return _score(scenario, op, zs)


# (n_h0, n_h1, fc false alarms, fc detections, eve false alarms, eve
# detections) of 2000 trials of contract v1, replayed from _draw_trial_ys
# and scored by the package's test; any change to the v1 draws, the
# statistics or the thresholds moves these counts
PINNED_COUNTS = {
    "deterministic": (1000, 1000, 212, 780, 0, 0),
    "random_zero_mean": (1000, 1000, 244, 722, 0, 0),
    "random_nonzero_mean": (1000, 1000, 103, 732, 0, 0),
    "injection_deterministic": (1000, 1000, 164, 843, 319, 700),
    "injection_fixed_noise": (1000, 1000, 134, 823, 174, 752),
    "injection_random": (1000, 1000, 178, 899, 305, 854),
}

# the same 2000-trial estimates drawn by the engine under contract v2
PINNED_COUNTS_V2 = {
    "deterministic": (1000, 1000, 221, 767, 0, 0),
    "random_zero_mean": (1000, 1000, 237, 700, 0, 0),
    "random_nonzero_mean": (1000, 1000, 103, 759, 0, 0),
    "injection_deterministic": (1000, 1000, 165, 844, 291, 704),
    "injection_fixed_noise": (1000, 1000, 122, 826, 177, 751),
    "injection_random": (1000, 1000, 140, 884, 285, 840),
}


def _pinned_scenario(kind: str) -> Scenario:
    if kind == "deterministic":
        return _deterministic_scenario(seed=11)
    if kind == "random_zero_mean":
        return _random_scenario(seed=12)
    if kind == "random_nonzero_mean":
        return replace(_random_scenario(seed=13, mean_scale=0.3), priors=(0.6, 0.4))
    if kind == "injection_deterministic":
        return _injection_scenario(seed=14, signal_variance=0.0)
    if kind == "injection_fixed_noise":
        return _injection_scenario(seed=16, art_variance=0.0)
    return replace(_injection_scenario(seed=15), priors=(0.4, 0.6))


@pytest.mark.parametrize("kind", sorted(PINNED_COUNTS))
def test_pinned_verdict_counts(kind):
    scenario = _pinned_scenario(kind)
    op = _operator(scenario)
    fc_h0, eve_h0 = _v1_llrs(scenario, op, "H0", range(1000))
    fc_h1, eve_h1 = _v1_llrs(scenario, op, "H1", range(1000, 2000))
    threshold = build_mixtures(scenario, op).threshold
    assert _verdict_counts(threshold, fc_h0, fc_h1, eve_h0, eve_h1) == PINNED_COUNTS[kind]


@pytest.mark.parametrize("kind", sorted(PINNED_COUNTS_V2))
def test_pinned_contract_v2_counts(kind):
    assert (CONTRACT_VERSION, TRIAL_BLOCK) == (2, 256)
    scenario = _pinned_scenario(kind)
    op = _operator(scenario)
    counts = _Counts()
    _accumulate(scenario, op, 2000, counts)
    got = (counts.n_h0, counts.n_h1, counts.fc_fa, counts.fc_det, counts.eve_fa, counts.eve_det)
    assert got == PINNED_COUNTS_V2[kind]
    n_h0, n_h1, fa, det, eve_fa, eve_det = got
    result = estimate_errors(scenario, op, 2000)
    p0, p1 = scenario.priors
    assert (result.pf_fc, result.pd_fc) == (fa / n_h0, det / n_h1)
    if scenario.injection is None:
        assert result.pe_ev is None
    else:
        assert result.pe_ev == p0 * (eve_fa / n_h0) + p1 * (1.0 - eve_det / n_h1)


def _v2_llrs(scenario: Scenario, op, hypothesis: str, blocks: int):
    """Per-trial (fc, eve) ratios of `blocks` whole v2 blocks, every row
    drawn under `hypothesis`."""
    mixtures = build_mixtures(scenario, op)
    split = TRIAL_BLOCK if hypothesis == "H0" else 0
    scored = [
        log_likelihood_ratios(mixtures, *_draw_block(scenario, mixtures, k, TRIAL_BLOCK, split))
        for k in range(blocks)
    ]
    fc = np.concatenate([s[0] for s in scored])
    eve = None if scored[0][1] is None else np.concatenate([s[1] for s in scored])
    return fc, eve


@pytest.mark.parametrize(
    "make_scenario",
    [_deterministic_scenario, _random_scenario, _injection_scenario],
    ids=["deterministic", "random", "injection"],
)
def test_v1_and_v2_llrs_agree_in_distribution(make_scenario):
    # the two contracts draw the same model in different coordinates, so
    # their per-trial ratios must pass a two-sample KS test per hypothesis
    scenario = make_scenario()
    op = _operator(scenario)
    for hypothesis in ("H0", "H1"):
        v1_fc, v1_eve = _v1_llrs(scenario, op, hypothesis, range(1024))
        v2_fc, v2_eve = _v2_llrs(scenario, op, hypothesis, 4)
        assert stats.ks_2samp(v1_fc, v2_fc).pvalue > 1e-3
        if v1_eve is not None:
            assert stats.ks_2samp(v1_eve, v2_eve).pvalue > 1e-3


@pytest.mark.parametrize("priors", [(1.0, 0.0), (0.0, 1.0)])
@pytest.mark.parametrize(
    "make_scenario",
    [_deterministic_scenario, _random_scenario, _injection_scenario],
    ids=["deterministic", "random", "injection"],
)
def test_degenerate_priors_decide_the_certain_hypothesis(make_scenario, priors):
    # log(P0/P1) is +inf or -inf: every trial decides the hypothesis of
    # prior one, whatever the signal kind, and no error is made
    scenario = replace(make_scenario(), priors=priors)
    result = estimate_errors(scenario, _operator(scenario), 200)
    rate = 0.0 if priors == (1.0, 0.0) else 1.0
    assert (result.pf_fc, result.pd_fc, result.pe_fc) == (rate, rate, 0.0)
    if scenario.injection is not None:
        assert result.pe_ev == 0.0


def test_estimate_errors_block_independence(monkeypatch):
    # block k draws from its own substream and a run keeps only the rows of
    # its trials, so a run of 2 * 256 + 37 trials must count exactly what
    # scoring each block drawn on its own counts, in any order
    trials = 2 * TRIAL_BLOCK + 37
    n_h0 = (trials + 1) // 2
    for make_scenario in (_deterministic_scenario, _random_scenario, _injection_scenario):
        scenario = make_scenario()
        op = _operator(scenario)
        mixtures = build_mixtures(scenario, op)
        sizes = []

        def scored(mixtures, proj, sq_norm=None, sizes=sizes):
            sizes.append(proj.shape[0])
            return log_likelihood_ratios(mixtures, proj, sq_norm)

        monkeypatch.setattr(montecarlo, "log_likelihood_ratios", scored)
        counts = _Counts()
        _accumulate(scenario, op, trials, counts)
        monkeypatch.undo()
        assert sizes == [TRIAL_BLOCK, TRIAL_BLOCK, 37]
        fc_h0, fc_h1, eve_h0, eve_h1 = [], [], [], []
        for k in (2, 0, 1):
            lo = k * TRIAL_BLOCK
            count = min(TRIAL_BLOCK, trials - lo)
            split = min(max(n_h0 - lo, 0), count)
            fc, eve = log_likelihood_ratios(
                mixtures, *_draw_block(scenario, mixtures, k, count, split)
            )
            fc_h0.append(fc[:split])
            fc_h1.append(fc[split:])
            if eve is not None:
                eve_h0.append(eve[:split])
                eve_h1.append(eve[split:])
        eves = (np.concatenate(eve_h0), np.concatenate(eve_h1)) if eve_h0 else (None, None)
        expected = _verdict_counts(
            mixtures.threshold, np.concatenate(fc_h0), np.concatenate(fc_h1), *eves
        )
        got = (counts.n_h0, counts.n_h1, counts.fc_fa, counts.fc_det, counts.eve_fa, counts.eve_det)
        assert got == expected


@pytest.mark.parametrize(
    "make_scenario",
    [
        _deterministic_scenario,
        _random_scenario,
        _injection_scenario,
        lambda: _injection_scenario(art_variance=0.0, signal_variance=0.0),
        _wide_scenario,
    ],
    ids=["deterministic", "random", "injection", "injection_fixed_noise", "wide"],
)
@pytest.mark.parametrize("hypothesis", ["H0", "H1"])
def test_chunk_drawer_equals_per_trial_draws(make_scenario, hypothesis):
    # bit for bit: the rows the engine draws for a block are the per-trial
    # draws of the documented layout, and a short run (the 37 rows of a
    # remainder) keeps the first rows of the same block
    scenario = make_scenario()
    op = _operator(scenario)
    mixtures = build_mixtures(scenario, op)
    energy = op.projector_energy(scenario.model.mean)
    for block, count in ((1, TRIAL_BLOCK), (1, 37), (4, 5)):
        split = count if hypothesis == "H0" else 0
        proj, sq_norm = _draw_block(scenario, mixtures, block, count, split)
        draws = [
            _v2_node_draws(scenario, energy, t, hypothesis)
            for t in range(block * TRIAL_BLOCK, block * TRIAL_BLOCK + count)
        ]
        x = np.stack([d[0] for d in draws])
        assert np.array_equal(proj, math.sqrt(energy) * x)
        if mixtures.uses_energy:
            expected = np.stack([xi * xi + var * chi2 for xi, var, chi2 in draws])
            assert np.array_equal(sq_norm, expected)
        else:
            assert sq_norm is None and draws[0][2] is None


def _edge_scenario(kind: str) -> Scenario:
    p, m, n, signal, mean_norm2 = {
        "M1_random": (6, 1, 4, 2.0, 1.0),
        "MP_deterministic": (6, 6, 3, 0.0, 1.0),
        "MP_random": (6, 6, 3, 0.5, 0.5),
        "N1_deterministic": (20, 5, 1, 0.0, 4.0),
        "N1_random": (20, 5, 1, 3.0, 1.0),
        "zero_mean_random": (20, 5, 4, 0.5, 0.0),
    }[kind]
    model = SignalModel(p, np.full(p, math.sqrt(mean_norm2 / p)), signal, 1.0)
    return Scenario(model=model, compressed_dim=m, num_nodes=n, seed=31)


@pytest.mark.parametrize(
    "kind",
    ["M1_random", "MP_deterministic", "MP_random", "N1_deterministic", "N1_random", "zero_mean_random"],
)
def test_v2_edges_match_exact_error(kind):
    # M = 1 draws chi-squared with zero degrees of freedom (always 0), M = P
    # keeps every coordinate, N = 1 has one node, a zero mean gives a = 0
    scenario = _edge_scenario(kind)
    op = _operator(scenario)
    trials = 20000
    result = estimate_errors(scenario, op, trials)
    model = scenario.model
    energy = op.projector_energy(model.mean)
    if model.is_deterministic:
        theory = pe_deterministic_exact(energy, model.noise_variance, scenario.num_nodes)
    else:
        theory = pe_random_exact(model, scenario.compressed_dim, scenario.num_nodes, energy).pe
    se = math.sqrt(theory * (1.0 - theory) / trials)
    assert abs(result.pe_fc - theory) < 4.0 * se


@pytest.mark.parametrize("signal_variance", [0.0, 0.6])
def test_policy_without_injectors_keeps_clean_counts(signal_variance):
    # fraction * N = 0.4 rounds to zero injectors: no coins are drawn and
    # every node is clean, so the fusion center counts what it counts
    # without a policy (the energy draws come after the normals)
    scenario = _injection_scenario(fraction=0.08, signal_variance=signal_variance)
    assert scenario.num_injecting == 0
    op = _operator(scenario)
    with_policy, without = _Counts(), _Counts()
    _accumulate(scenario, op, 1000, with_policy)
    _accumulate(replace(scenario, injection=None), op, 1000, without)
    assert (with_policy.fc_fa, with_policy.fc_det) == (without.fc_fa, without.fc_det)
    assert with_policy.has_eve and not without.has_eve


def test_estimate_errors_odd_split_gives_extra_null_trial():
    scenario = _deterministic_scenario(trials=101)
    op = _operator(scenario)
    result = estimate_errors(scenario, op, 101)
    # 51 null trials, 50 alternative trials: the rates are exact multiples
    assert result.pf_fc * 51 == pytest.approx(round(result.pf_fc * 51), abs=1e-9)
    assert result.pd_fc * 50 == pytest.approx(round(result.pd_fc * 50), abs=1e-9)


def test_estimate_errors_validates_budget_and_op():
    scenario = _deterministic_scenario()
    op = _operator(scenario)
    with pytest.raises(DomainError):
        estimate_errors(scenario, op, 99)
    wrong_op = gen_projection(8, 39, RngContract(0, PHI_STREAM_BASE))
    with pytest.raises(DimensionError):
        estimate_errors(scenario, wrong_op, 200)


def test_estimate_errors_matches_deterministic_theory():
    scenario = _deterministic_scenario(trials=4000)
    op = _operator(scenario)
    result = estimate_errors(scenario, op, scenario.trials)
    energy = op.projector_energy(scenario.model.mean)
    theory = pe_deterministic_exact(energy, 1.0, scenario.num_nodes)
    se = math.sqrt(theory * (1.0 - theory) / scenario.trials)
    assert abs(result.pe_fc - theory) < 4.0 * se
    assert result.pe_fc_ci == pytest.approx(
        1.959963984540054 * math.sqrt(result.pe_fc * (1 - result.pe_fc) / 4000),
        rel=1e-12,
    )


def test_estimate_errors_matches_random_theory():
    scenario = _random_scenario(trials=4000)
    op = _operator(scenario)
    result = estimate_errors(scenario, op, scenario.trials)
    energy = op.projector_energy(scenario.model.mean)
    theory = pe_random_exact(
        scenario.model, scenario.compressed_dim, scenario.num_nodes, energy
    ).pe
    se = math.sqrt(theory * (1.0 - theory) / scenario.trials)
    assert abs(result.pe_fc - theory) < 4.0 * se


def test_estimate_errors_matches_random_theory_nonzero_mean():
    scenario = _random_scenario(seed=203, trials=4000, mean_scale=0.3)
    op = _operator(scenario)
    result = estimate_errors(scenario, op, scenario.trials)
    energy = op.projector_energy(scenario.model.mean)
    theory = pe_random_exact(
        scenario.model, scenario.compressed_dim, scenario.num_nodes, energy
    ).pe
    se = math.sqrt(theory * (1.0 - theory) / scenario.trials)
    assert abs(result.pe_fc - theory) < 4.0 * se


def test_estimate_errors_injection_reports_eavesdropper():
    scenario = _injection_scenario()
    op = _operator(scenario)
    result = estimate_errors(scenario, op, 400)
    assert result.pe_ev is not None
    assert 0.0 <= result.pe_ev <= 1.0
    assert result.pe_ev_ci is not None
    # the fusion center, knowing who injects, does at least as well on
    # average; with these budgets it should be strictly better
    assert result.pe_fc < result.pe_ev + 0.1


def test_estimate_errors_fresh_phi_validation():
    scenario = _deterministic_scenario()
    with pytest.raises(DomainError):
        estimate_errors_fresh_phi(scenario, 150, 4)  # not divisible
    with pytest.raises(DomainError):
        estimate_errors_fresh_phi(scenario, 404, 4)  # odd per-batch count
    with pytest.raises(DomainError):
        estimate_errors_fresh_phi(scenario, 80, 2)  # below minimum budget
    with pytest.raises(DomainError):
        estimate_errors_fresh_phi(scenario, 400, 0)


def test_estimate_errors_fresh_phi_reproducible_and_distinct():
    scenario = _deterministic_scenario(trials=400)
    first = estimate_errors_fresh_phi(scenario, 400, 4)
    second = estimate_errors_fresh_phi(scenario, 400, 4)
    assert first.pe_fc == second.pe_fc
    assert first.pf_fc == second.pf_fc
    assert first.seed == scenario.seed
    # a different master seed moves the estimate
    moved = estimate_errors_fresh_phi(
        Scenario(
            model=scenario.model,
            compressed_dim=scenario.compressed_dim,
            num_nodes=scenario.num_nodes,
            seed=scenario.seed + 1,
            trials=scenario.trials,
        ),
        400,
        4,
    )
    assert (moved.pf_fc, moved.pd_fc) != (first.pf_fc, first.pd_fc)


def test_estimate_errors_fresh_phi_batches_are_independent():
    # batch masters must differ, otherwise every batch would replay the same
    # noise; two single-batch runs at consecutive batch indices must differ
    scenario = _deterministic_scenario(trials=400)
    one = estimate_errors_fresh_phi(scenario, 200, 1)
    two = estimate_errors_fresh_phi(scenario, 400, 2)
    # the first 200 trials of the two-batch run reuse batch 0; the second
    # batch adds new information, so the pooled estimate moves
    assert (one.pf_fc, one.pd_fc) != (two.pf_fc, two.pd_fc)


def test_sample_transformed_statistics_moments():
    scenario = _random_scenario(trials=400)
    op = _operator(scenario)
    spec_h0, spec_h1 = statistic_laws(
        scenario.model,
        scenario.compressed_dim,
        scenario.num_nodes,
        op.projector_energy(scenario.model.mean),
    )
    rng = np.random.default_rng(2718)
    for hypothesis, spec in (("H0", spec_h0), ("H1", spec_h1)):
        samples = sample_transformed_statistics(scenario, op, hypothesis, 4000, rng)
        assert samples.shape == (4000,)
        se = math.sqrt(spec.variance / 4000)
        assert abs(float(samples.mean()) - spec.mean) < 5.0 * se


def test_sample_transformed_statistics_nonzero_mean_moments():
    scenario = _random_scenario(seed=204, trials=400, mean_scale=0.4)
    op = _operator(scenario)
    spec_h0, spec_h1 = statistic_laws(
        scenario.model,
        scenario.compressed_dim,
        scenario.num_nodes,
        op.projector_energy(scenario.model.mean),
    )
    rng = np.random.default_rng(2719)
    for hypothesis, spec in (("H0", spec_h0), ("H1", spec_h1)):
        samples = sample_transformed_statistics(scenario, op, hypothesis, 4000, rng)
        se = math.sqrt(spec.variance / 4000)
        assert abs(float(samples.mean()) - spec.mean) < 5.0 * se


def test_sample_transformed_statistics_domain():
    det = _deterministic_scenario()
    with pytest.raises(DomainError):
        sample_transformed_statistics(det, _operator(det), "H0", 10, trial_stream(0, 0))
    inj = _injection_scenario()
    with pytest.raises(DomainError):
        sample_transformed_statistics(inj, _operator(inj), "H0", 10, trial_stream(0, 0))
    rnd = _random_scenario()
    with pytest.raises(DomainError):
        sample_transformed_statistics(rnd, _operator(rnd), "H0", 0, trial_stream(0, 0))


def test_closed_form_columns_by_scenario_kind():
    det = _deterministic_scenario()
    theory, d_fc, d_ev = closed_form_columns(det, _operator(det))
    assert theory is not None and d_fc is None and d_ev is None
    energy = _operator(det).projector_energy(det.model.mean)
    assert theory == pytest.approx(
        pe_deterministic_exact(energy, 1.0, det.num_nodes), rel=1e-13
    )

    rnd = _random_scenario()
    theory, d_fc, d_ev = closed_form_columns(rnd, _operator(rnd))
    assert theory is not None and d_fc is None and d_ev is None

    inj = _injection_scenario()
    theory, d_fc, d_ev = closed_form_columns(inj, _operator(inj))
    assert theory is None
    assert d_fc is not None and d_ev is not None

    # a zero-mean injection scenario has no deflection closed form
    zero_mean = Scenario(
        model=SignalModel(12, np.zeros(12), 0.6, 1.2),
        compressed_dim=5,
        num_nodes=5,
        seed=1,
        injection=inj.injection,
    )
    assert closed_form_columns(zero_mean, _operator(zero_mean)) == (None, None, None)


def test_sweep_derives_scenarios_and_is_deterministic():
    template = _deterministic_scenario(trials=200)
    points = sweep(template, "c", [0.2, 0.5, 1.0])
    assert [p.scenario.compressed_dim for p in points] == [8, 20, 40]
    assert [p.axis_value for p in points] == [0.2, 0.5, 1.0]
    assert all(p.axis == "c" for p in points)
    assert all(p.pe_fc_theory is not None for p in points)
    assert all(p.d_fc is None and p.d_ev is None for p in points)
    # error decreases with more measurements at these budgets
    assert points[2].pe_fc_theory < points[0].pe_fc_theory
    again = sweep(template, "c", [0.2, 0.5, 1.0])
    assert [p.result.pe_fc for p in again] == [p.result.pe_fc for p in points]
    # distinct grid points use distinct derived masters
    assert points[0].result.seed != points[1].result.seed


def test_sweep_node_axis_and_validation():
    template = _deterministic_scenario(trials=200)
    points = sweep(template, "N", [2, 8])
    assert [p.scenario.num_nodes for p in points] == [2, 8]
    with pytest.raises(DomainError):
        sweep(template, "kappa", [0.5, 1.0])
    with pytest.raises(DomainError):
        sweep(template, "c", [])
    with pytest.raises(DomainError):
        sweep(template, "c", [1.5])
    with pytest.raises(DomainError):
        sweep(template, "unknown", [1.0])


def test_sweep_injection_axes():
    template = _injection_scenario()
    template = Scenario(
        model=template.model,
        compressed_dim=template.compressed_dim,
        num_nodes=template.num_nodes,
        seed=template.seed,
        trials=200,
        injection=template.injection,
    )
    points = sweep(template, "kappa", [0.5, 2.0])
    assert [p.scenario.injection.kappa for p in points] == [0.5, 2.0]
    assert all(p.pe_fc_theory is None for p in points)
    assert all(p.d_fc is not None for p in points)
    gamma_points = sweep(template, "gamma_inv", [0.0, 1.0])
    assert [p.scenario.injection.art_variance for p in gamma_points] == [0.0, 1.0]
    fraction_points = sweep(template, "fraction", [0.2, 0.8])
    assert [p.scenario.injection.fraction for p in fraction_points] == [0.2, 0.8]


def test_write_sweep_csv_layout_and_determinism(tmp_path):
    template = _injection_scenario()
    template = Scenario(
        model=template.model,
        compressed_dim=template.compressed_dim,
        num_nodes=template.num_nodes,
        seed=template.seed,
        trials=200,
        injection=template.injection,
    )
    points = sweep(template, "kappa", [0.5, 2.0])
    path_a = tmp_path / "sweep_a.csv"
    path_b = tmp_path / "sweep_b.csv"
    write_sweep_csv(points, path_a)
    write_sweep_csv(sweep(template, "kappa", [0.5, 2.0]), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(SWEEP_CSV_HEADER)
    assert len(rows) == 3
    # injection rows have empty theory cells and populated deflections
    header_index = {name: i for i, name in enumerate(rows[0])}
    assert rows[1][header_index["pe_fc_theory"]] == ""
    assert rows[1][header_index["d_fc"]] != ""
    assert float(rows[1][header_index["axis_value"]]) == 0.5
    # floats round-trip through repr
    assert float(rows[1][header_index["pe_fc_emp"]]) == points[0].result.pe_fc


def test_write_sweep_csv_plain_scenario_cells(tmp_path):
    template = _deterministic_scenario(trials=200)
    points = sweep(template, "c", [0.5])
    path = tmp_path / "sweep_det.csv"
    write_sweep_csv(points, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header_index = {name: i for i, name in enumerate(rows[0])}
    assert rows[1][header_index["pe_fc_theory"]] != ""
    assert rows[1][header_index["pe_ev_emp"]] == ""
    assert rows[1][header_index["d_fc"]] == ""
    assert rows[1][header_index["trials"]] == "200"
