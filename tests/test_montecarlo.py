"""Monte Carlo engine tests: reproducibility, chunk invariance, agreement of
the vectorized engine with per-trial scipy density ratios, pinned verdict
counts, closed-form cross-checks, and sweep serialization."""

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
    PHI_STREAM_BASE,
    SWEEP_CSV_HEADER,
    _accumulate,
    _Counts,
    _draw_trial_ys,
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


def _simulate_trial(scenario: Scenario, op, hypothesis: str, t: int):
    """One trial drawn from its substream and scored as a T = 1 stack."""
    ys = _draw_trial_ys(scenario, op, hypothesis, trial_stream(scenario.seed, t))
    return log_likelihood_ratios(build_mixtures(scenario, op), ys[None])


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


def _mixture_logpdf(ys, weights, offsets, variance, direction, gram):
    """Log density of each row of ys under sum_k w_k N(c_k direction,
    variance * gram), by scipy."""
    parts = np.stack(
        [stats.multivariate_normal.logpdf(ys, c * direction, variance * gram) for c in offsets],
        axis=-1,
    )
    with np.errstate(divide="ignore"):
        return logsumexp(np.atleast_2d(parts) + np.log(weights), axis=-1)


def _oracle_llrs(scenario: Scenario, ys: np.ndarray, op):
    """Per-trial summed log-likelihood ratios (fc, eve) of one (N, M) trial,
    written out from the scenario fields."""
    model = scenario.model
    direction = op.phi @ model.mean
    gram = op.phi @ op.phi.T
    a, s = model.signal_variance, model.noise_variance

    def pair(rows, w0, w1, offsets, art):
        h0 = _mixture_logpdf(rows, w0, offsets, art + s, direction, gram)
        h1 = _mixture_logpdf(rows, w1, offsets + 1.0, a + art + s, direction, gram)
        return float((h1 - h0).sum())

    def clean(rows):
        return pair(rows, [1.0], [1.0], np.zeros(1), 0.0)

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
    fc = pair(ys[:b], fc_w0, fc_w1, offsets, art) + clean(ys[b:])
    return fc, pair(ys, eve_w0, eve_w1, offsets, art)


def _replay_counts(scenario: Scenario, op, trials: int):
    """Replay the engine's trial schedule and decide each trial by the
    scipy density ratio against log(P0/P1), on the compressed observations
    y = L z of the engine's whitened draws z."""
    p0, p1 = scenario.priors
    threshold = math.log(p0 / p1)
    n_h0 = (trials + 1) // 2
    counts = {"H0": [0, 0], "H1": [0, 0]}
    for t in range(trials):
        hypothesis = "H0" if t < n_h0 else "H1"
        zs = _draw_trial_ys(scenario, op, hypothesis, trial_stream(scenario.seed, t))
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


# (n_h0, n_h1, fc false alarms, fc detections, eve false alarms, eve
# detections) of a 2000-trial estimate; any change to the draws, the
# statistics or the thresholds moves these counts
PINNED_COUNTS = {
    "deterministic": (1000, 1000, 212, 780, 0, 0),
    "random_zero_mean": (1000, 1000, 244, 722, 0, 0),
    "random_nonzero_mean": (1000, 1000, 103, 732, 0, 0),
    "injection_deterministic": (1000, 1000, 160, 844, 325, 662),
    "injection_random": (1000, 1000, 172, 894, 158, 703),
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
    return replace(_injection_scenario(seed=15), priors=(0.4, 0.6))


@pytest.mark.parametrize("kind", sorted(PINNED_COUNTS))
def test_pinned_verdict_counts(kind):
    scenario = _pinned_scenario(kind)
    op = _operator(scenario)
    counts = _Counts()
    _accumulate(scenario, op, 2000, counts)
    got = (counts.n_h0, counts.n_h1, counts.fc_fa, counts.fc_det, counts.eve_fa, counts.eve_det)
    assert got == PINNED_COUNTS[kind]
    n_h0, n_h1, fa, det, eve_fa, eve_det = got
    result = estimate_errors(scenario, op, 2000)
    p0, p1 = scenario.priors
    assert (result.pf_fc, result.pd_fc) == (fa / n_h0, det / n_h1)
    if scenario.injection is None:
        assert result.pe_ev is None
    else:
        assert result.pe_ev == p0 * (eve_fa / n_h0) + p1 * (1.0 - eve_det / n_h1)


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


def test_estimate_errors_chunk_invariance(monkeypatch):
    # every trial draws from its own substream and is scored on its own, so
    # results cannot depend on how many trials a chunk holds: one trial per
    # chunk and seven per chunk (a remainder in both hypotheses' spans of
    # 125) must give exactly the default's results
    for make_scenario in (_deterministic_scenario, _random_scenario, _injection_scenario):
        scenario = make_scenario()
        op = _operator(scenario)
        default = replace(estimate_errors(scenario, op, 250), wallclock=0.0)
        assert default.trials == 250
        assert default.seed == scenario.seed
        assert default.interval == "wald"
        values = scenario.num_nodes * scenario.compressed_dim
        for per_chunk in (1, 7):
            monkeypatch.setattr(montecarlo, "CHUNK_VALUES", per_chunk * values)
            chunked = estimate_errors(scenario, op, 250)
            assert replace(chunked, wallclock=0.0) == default
        monkeypatch.undo()


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
