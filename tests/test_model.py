"""Validation and reproducibility tests for the problem-description types."""

from __future__ import annotations

import numpy as np
import pytest

from ccdet import (
    DimensionError,
    DomainError,
    InjectionPolicy,
    PriorError,
    ProbabilityError,
    RngContract,
    Scenario,
    SignalModel,
    trial_stream,
    validate_scenario,
)
from ccdet.model import trial_streams


def _model(p=8, mean=None, alpha_inv=0.0, beta_inv=1.0) -> SignalModel:
    if mean is None:
        mean = np.ones(p)
    return SignalModel(
        ambient_dim=p, mean=mean, signal_variance=alpha_inv, noise_variance=beta_inv
    )


def test_signal_model_basic_fields():
    model = _model(p=4, mean=[1.0, 2.0, 0.0, -1.0], alpha_inv=0.5, beta_inv=2.0)
    assert model.ambient_dim == 4
    assert model.signal_variance == 0.5
    assert model.noise_variance == 2.0
    assert not model.is_deterministic
    assert model.mean_energy == pytest.approx(6.0, rel=1e-15)


def test_signal_model_deterministic_flag():
    assert _model(alpha_inv=0.0).is_deterministic
    assert not _model(alpha_inv=1e-12).is_deterministic


def test_signal_model_mean_is_readonly_copy():
    source = np.ones(5)
    model = _model(p=5, mean=source)
    source[0] = 99.0
    assert model.mean[0] == 1.0
    with pytest.raises(ValueError):
        model.mean[0] = 3.0


def test_signal_model_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        _model(p=0, mean=[])
    with pytest.raises(DimensionError):
        SignalModel(3, np.ones(4), 0.0, 1.0)
    with pytest.raises(DimensionError):
        SignalModel(3, np.ones((3, 1)), 0.0, 1.0)
    with pytest.raises(DomainError):
        SignalModel(3, [np.nan, 0.0, 0.0], 0.0, 1.0)
    with pytest.raises(DomainError):
        _model(alpha_inv=-0.1)
    with pytest.raises(DomainError):
        _model(beta_inv=0.0)
    with pytest.raises(DomainError):
        _model(beta_inv=-1.0)


def _policy(**overrides) -> InjectionPolicy:
    fields = dict(
        fraction=0.3, p10=0.8, p20=0.1, p11=0.1, p21=0.8, kappa=1.0, art_variance=0.0
    )
    fields.update(overrides)
    return InjectionPolicy(**fields)


def test_injection_policy_composite_weights():
    # hand arithmetic for the 0.8/0.1 flip policy:
    #   P_b  = (0.8-0.1) + (0.8-0.1)          = 1.4
    #   P_t  = 0.1 + 0.8 - (0.1-0.8)^2        = 0.41
    #   P_tE = 0.1 + 0.8 - 0.3*(0.1-0.8)^2    = 0.753
    policy = _policy()
    assert policy.p_b == pytest.approx(1.4, rel=1e-15)
    assert policy.p_t == pytest.approx(0.41, rel=1e-14)
    assert policy.p_t_e == pytest.approx(0.753, rel=1e-14)


def test_injection_policy_silent_components_sum():
    policy = _policy(p10=0.6, p20=0.4)
    assert policy.p10 + policy.p20 == pytest.approx(1.0)


def test_injection_policy_rejects_bad_inputs():
    with pytest.raises(ProbabilityError):
        _policy(fraction=0.0)
    with pytest.raises(ProbabilityError):
        _policy(fraction=1.5)
    with pytest.raises(ProbabilityError):
        _policy(p10=-0.1)
    with pytest.raises(ProbabilityError):
        _policy(p21=1.2)
    with pytest.raises(ProbabilityError):
        _policy(p10=0.7, p20=0.4)
    with pytest.raises(ProbabilityError):
        _policy(p11=0.9, p21=0.2)
    with pytest.raises(DomainError):
        _policy(kappa=-0.5)
    with pytest.raises(DomainError):
        _policy(art_variance=-1.0)


def _scenario(**overrides) -> Scenario:
    fields = dict(model=_model(), compressed_dim=4, num_nodes=5)
    fields.update(overrides)
    return Scenario(**fields)


def test_scenario_defaults_and_ratio():
    scenario = _scenario()
    assert scenario.priors == (0.5, 0.5)
    assert scenario.seed == 0
    assert scenario.trials == 10000
    assert scenario.injection is None
    assert scenario.compression_ratio == pytest.approx(0.5)
    assert scenario.num_injecting == 0


def test_scenario_num_injecting_rounds_half_up():
    # f*N = 1.5 -> 2 and f*N = 2.5 -> 3
    assert _scenario(injection=_policy(fraction=0.3)).num_injecting == 2
    assert _scenario(injection=_policy(fraction=0.5)).num_injecting == 3
    assert _scenario(injection=_policy(fraction=0.05)).num_injecting == 0
    assert _scenario(injection=_policy(fraction=1.0)).num_injecting == 5


def test_scenario_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        _scenario(compressed_dim=0)
    with pytest.raises(DimensionError):
        _scenario(compressed_dim=9)
    with pytest.raises(DimensionError):
        _scenario(num_nodes=0)
    with pytest.raises(DimensionError):
        _scenario(trials=0)
    with pytest.raises(PriorError):
        _scenario(priors=(0.6, 0.6))
    with pytest.raises(PriorError):
        _scenario(priors=(-0.1, 1.1))
    with pytest.raises(PriorError):
        _scenario(priors=(0.5, 0.25, 0.25))


def test_validate_scenario_is_idempotent():
    scenario = _scenario(injection=_policy())
    assert validate_scenario(scenario) is scenario
    assert validate_scenario(validate_scenario(scenario)) is scenario
    with pytest.raises(DimensionError):
        validate_scenario("not a scenario")


def test_rng_contract_reproducible_streams():
    a = RngContract(1234, 7).generator().standard_normal(16)
    b = RngContract(1234, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_rng_contract_distinct_substreams_differ():
    a = RngContract(1234, 0).generator().standard_normal(16)
    b = RngContract(1234, 1).generator().standard_normal(16)
    c = RngContract(1235, 0).generator().standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_contract_extra_entropy_changes_stream():
    contract = RngContract(99, 3)
    a = contract.generator(1).standard_normal(8)
    b = contract.generator(2).standard_normal(8)
    assert not np.array_equal(a, b)
    # numpy zero-pads seed entropy, so a trailing zero index is the same
    # address as no index; pin that so substream allocation accounts for it
    base = contract.generator().standard_normal(8)
    padded = contract.generator(0).standard_normal(8)
    assert np.array_equal(base, padded)


def test_rng_contract_masks_master_seed():
    wrapped = RngContract(2**64 + 5, 0)
    assert wrapped.master_seed == 5
    same = RngContract(5, 0).generator().standard_normal(4)
    assert np.array_equal(wrapped.generator().standard_normal(4), same)


def test_rng_contract_rejects_negative_substream():
    with pytest.raises(DomainError):
        RngContract(1, -1)
    with pytest.raises(DomainError):
        trial_stream(1, -2)


def test_derive_master_is_deterministic_and_keyed():
    base = RngContract(42, 2**61)
    assert base.derive_master() == base.derive_master()
    assert base.derive_master(0) != base.derive_master(1)
    assert RngContract(42, 2**61 + 1).derive_master() != base.derive_master()
    derived = base.derive_master()
    assert 0 <= derived < 2**64


def test_trial_stream_matches_contract_address():
    via_helper = trial_stream(77, 11).standard_normal(12)
    via_contract = RngContract(77, 11).generator().standard_normal(12)
    assert np.array_equal(via_helper, via_contract)


@pytest.mark.parametrize(
    "master",
    [-12345, 0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    + [int(m) for m in np.random.default_rng(8128).integers(0, 2**64, 3, dtype=np.uint64)],
)
def test_trial_streams_reproduce_trial_stream(master):
    # each yield must be in the exact PCG64 state numpy builds for
    # trial_stream(master, t), over small t and across 2**32, where t's
    # entropy grows from one 32-bit word to two
    for start, stop in ((0, 301), (2**32 - 4, 2**32 + 4)):
        seen = 0
        for t, gen in zip(range(start, stop), trial_streams(master, start, stop)):
            reference = trial_stream(master, t)
            assert gen.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(gen.standard_normal(16), reference.standard_normal(16))
            seen += 1
        assert seen == stop - start


def test_trial_streams_validates_the_range():
    assert list(trial_streams(3, 5, 5)) == []
    (gen,) = trial_streams(3, 7, 8)
    assert np.array_equal(gen.random(4), trial_stream(3, 7).random(4))
    for start, stop in ((-1, 2), (4, 3), (0, 2**64 + 1)):
        with pytest.raises(DomainError):
            trial_streams(3, start, stop)
