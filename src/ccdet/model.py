"""Problem description types for collaborative compressive detection.

A fleet of ``num_nodes`` sensors observes an ambient-dimension signal in
Gaussian noise. Under the null hypothesis each node sees pure noise; under the
alternative it sees the signal plus noise. The signal is Gaussian with a known
mean and isotropic variance ``signal_variance``; setting that variance to zero
designates the deterministic-signal case, where the mean itself plays the role
of the signal. Each node forwards a compressed observation (a shared random
projection of its measurement) to a fusion center, which runs a
likelihood-ratio test.

An optional :class:`InjectionPolicy` describes nodes that deliberately add or
subtract a random artificial-noise vector before compressing, a countermeasure
that degrades an eavesdropper listening to the same channel while the fusion
center, knowing who injects, stays near-optimal.

Randomness is governed by :class:`RngContract`, a (master seed, substream)
pair that yields reproducible, order-independent numpy generators.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, PriorError, ProbabilityError

PRIOR_TOL = 1e-12

_UINT64_MASK = (1 << 64) - 1


def _as_readonly_vector(values, length: int, label: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != length:
        raise DimensionError(
            f"{label} must be a length-{length} vector, got shape {vec.shape}"
        )
    if not np.all(np.isfinite(vec)):
        raise DomainError(f"{label} must be finite")
    vec = vec.copy()
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Signal and noise description shared by every node.

    Attributes:
        ambient_dim: Dimension of the uncompressed observations.
        mean: Signal mean vector (the signal itself in the deterministic case).
        signal_variance: Per-coordinate signal variance; zero means the signal
            equals ``mean`` deterministically.
        noise_variance: Per-coordinate sensing-noise variance, strictly positive.
    """

    ambient_dim: int
    mean: np.ndarray
    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        if int(self.ambient_dim) < 1:
            raise DimensionError("ambient_dim must be a positive integer")
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        object.__setattr__(
            self, "mean", _as_readonly_vector(self.mean, self.ambient_dim, "mean")
        )
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        if self.signal_variance < 0.0:
            raise DomainError("signal_variance must be nonnegative")
        if self.noise_variance <= 0.0:
            raise DomainError("noise_variance must be strictly positive")

    @property
    def is_deterministic(self) -> bool:
        """True when the signal is the mean vector with no random part."""
        return self.signal_variance == 0.0

    @property
    def mean_energy(self) -> float:
        """Squared Euclidean norm of the mean vector."""
        return float(self.mean @ self.mean)


@dataclass(frozen=True)
class InjectionPolicy:
    """Artificial-noise injection behaviour of the participating nodes.

    A fraction of the nodes draw an artificial-noise vector W with mean
    ``kappa`` times the signal mean and isotropic variance ``art_variance``.
    Under hypothesis j an injecting node adds W with probability ``p1j``,
    subtracts it with probability ``p2j``, and sends its observation unchanged
    otherwise.

    Attributes:
        fraction: Fraction of nodes that inject, in (0, 1].
        p10, p20: Add / subtract probabilities under the null hypothesis.
        p11, p21: Add / subtract probabilities under the alternative.
        kappa: Scale of the artificial-noise mean relative to the signal mean.
        art_variance: Per-coordinate variance of the artificial noise.
    """

    fraction: float
    p10: float
    p20: float
    p11: float
    p21: float
    kappa: float
    art_variance: float

    def __post_init__(self) -> None:
        for name in ("fraction", "p10", "p20", "p11", "p21", "kappa", "art_variance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.fraction <= 1.0:
            raise ProbabilityError("fraction must lie in (0, 1]")
        for name in ("p10", "p20", "p11", "p21"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ProbabilityError(f"{name} must lie in [0, 1]")
        if self.p10 + self.p20 > 1.0 + PRIOR_TOL:
            raise ProbabilityError("p10 + p20 must not exceed 1")
        if self.p11 + self.p21 > 1.0 + PRIOR_TOL:
            raise ProbabilityError("p11 + p21 must not exceed 1")
        if self.kappa < 0.0:
            raise DomainError("kappa must be nonnegative")
        if self.art_variance < 0.0:
            raise DomainError("art_variance must be nonnegative")

    @property
    def p_b(self) -> float:
        """Net mean-shift weight of the injection, (p10 - p20) + (p21 - p11)."""
        return (self.p10 - self.p20) + (self.p21 - self.p11)

    @property
    def p_t(self) -> float:
        """Spread weight of the injection under the alternative at the fusion
        center, p11 + p21 - (p11 - p21)^2."""
        return self.p11 + self.p21 - (self.p11 - self.p21) ** 2

    @property
    def p_t_e(self) -> float:
        """Spread weight seen by the eavesdropper, whose mixture weights are
        rescaled by the injecting fraction: p11 + p21 - fraction*(p11 - p21)^2."""
        return self.p11 + self.p21 - self.fraction * (self.p11 - self.p21) ** 2


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete experiment description.

    Attributes:
        model: Signal and noise description.
        compressed_dim: Rows of the shared random projection, 1 <= M <= P.
        num_nodes: Number of sensing nodes.
        priors: Hypothesis priors (P0, P1), nonnegative, summing to one.
        seed: Master seed for the reproducibility contract.
        trials: Monte Carlo trial budget attached to the scenario.
        injection: Optional artificial-noise injection policy.
    """

    model: SignalModel
    compressed_dim: int
    num_nodes: int
    priors: tuple[float, float] = (0.5, 0.5)
    seed: int = 0
    trials: int = 10000
    injection: InjectionPolicy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "compressed_dim", int(self.compressed_dim))
        object.__setattr__(self, "num_nodes", int(self.num_nodes))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        if not 1 <= self.compressed_dim <= self.model.ambient_dim:
            raise DimensionError(
                "compressed_dim must satisfy 1 <= M <= ambient_dim, got "
                f"M={self.compressed_dim}, P={self.model.ambient_dim}"
            )
        if self.num_nodes < 1:
            raise DimensionError("num_nodes must be a positive integer")
        if self.trials < 1:
            raise DimensionError("trials must be a positive integer")
        priors = tuple(float(p) for p in self.priors)
        if len(priors) != 2:
            raise PriorError("priors must be a pair (P0, P1)")
        if min(priors) < 0.0:
            raise PriorError("priors must be nonnegative")
        if abs(priors[0] + priors[1] - 1.0) > PRIOR_TOL:
            raise PriorError("priors must sum to one")
        object.__setattr__(self, "priors", priors)

    @property
    def compression_ratio(self) -> float:
        """Compression ratio c = M / P."""
        return self.compressed_dim / self.model.ambient_dim

    @property
    def num_injecting(self) -> int:
        """Number of injecting nodes, round(fraction * num_nodes) with half
        values rounded up. Zero when no policy is attached or the product
        rounds to zero (the policy is then inert)."""
        if self.injection is None:
            return 0
        return int(np.floor(self.injection.fraction * self.num_nodes + 0.5))


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check that `scenario` is a Scenario and return it unchanged.

    Every field is already validated when the frozen dataclasses are built,
    and dataclasses.replace re-runs those checks, so a Scenario instance is
    valid by construction; the call is idempotent.
    """
    if not isinstance(scenario, Scenario):
        raise DimensionError("validate_scenario expects a Scenario instance")
    return scenario


@dataclass(frozen=True)
class RngContract:
    """Reproducible random-stream addressing.

    A stream is addressed by (master_seed, substream_id); equal addresses give
    bit-identical generators and distinct addresses give independent streams,
    no matter in which order they are created. Substream ids are allocated by
    convention: Monte Carlo trial t uses substream t, and infrastructure
    streams sit at bases far above any realistic trial count (projection draws
    at 2**62, per-batch derived masters at 2**61, sweep grid points at 2**60).

    Attributes:
        master_seed: 64-bit master seed (reduced modulo 2**64).
        substream_id: Nonnegative substream index.
    """

    master_seed: int
    substream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", int(self.master_seed) & _UINT64_MASK)
        object.__setattr__(self, "substream_id", int(self.substream_id))
        if self.substream_id < 0:
            raise DomainError("substream_id must be nonnegative")

    def sequence(self, *extra: int) -> np.random.SeedSequence:
        """SeedSequence for this address, optionally extended by extra indices
        (used for retry attempts inside a single logical draw)."""
        entropy = [self.master_seed, self.substream_id, *(int(e) for e in extra)]
        return np.random.SeedSequence(entropy)

    def generator(self, *extra: int) -> np.random.Generator:
        """Fresh numpy Generator for this address."""
        return np.random.default_rng(self.sequence(*extra))

    def derive_master(self, *extra: int) -> int:
        """Derive an independent 64-bit master seed from this address, for
        nesting (per-batch or per-grid-point scenario seeds)."""
        return int(self.sequence(*extra).generate_state(1, np.uint64)[0])


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Generator for one Monte Carlo trial: substream = trial index."""
    if trial_index < 0:
        raise DomainError("trial_index must be nonnegative")
    return RngContract(master_seed, trial_index).generator()


# numpy's SeedSequence hash constants (pool of four 32-bit words)
_SEED_INIT_A = 0x43B0D7E5
_SEED_MULT_A = 0x931E8875
_SEED_INIT_B = 0x8B51F9DD
_SEED_MULT_B = 0x58F38DED
_SEED_MIX_L = 0xCA01F9DD
_SEED_MIX_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of `count` successive hash steps, as uint32
    columns; the constant sequence does not depend on the hashed values."""
    xors, mults = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
    )


# 4 hashes fill the pool and 12 mix it; generate_state(4, uint64) hashes 8 words
_POOL_XOR, _POOL_MULT = _hash_constants(_SEED_INIT_A, _SEED_MULT_A, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(_SEED_INIT_B, _SEED_MULT_B, 8)
_SHIFT16 = np.uint32(16)


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (words ^ xor) * mult
    return value ^ (value >> _SHIFT16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_SEED_MIX_L) * x - np.uint32(_SEED_MIX_R) * y
    return value ^ (value >> _SHIFT16)


def trial_streams(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Generators of trial_stream(master_seed, t) for t in [start, stop).

    Yields one reused Generator, re-seeded before each yield to the exact
    state of trial_stream(master_seed, t), so each yield draws the numbers
    of that trial's own generator; draw from it before advancing. This
    replaces building a SeedSequence, a PCG64 and a Generator per trial:
    the SeedSequence hash of the entropy words (master & (2**64 - 1), t) is
    computed in uint32 arithmetic for all t at once, the PCG64 seeding step,
    inc = 2 initseq + 1 and state = ((inc + initstate) MULT + inc)
    mod 2**128, in Python ints, and each (state, inc) is loaded through the
    PCG64 ``state`` setter.
    """
    start, stop = int(start), int(stop)
    if not 0 <= start <= stop <= 2**64:
        raise DomainError(
            f"trial range must satisfy 0 <= start <= stop <= 2**64, got [{start}, {stop})"
        )
    master = int(master_seed) & _UINT64_MASK
    trials = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
    # entropy words, one row each: the master's one or two words, then t's
    # two; a missing word hashes like a zero word, so t < 2**32 and a
    # master below 2**32 need no special case
    master_words = [master & _MASK32] + ([master >> 32] if master >> 32 else [])
    k = len(master_words)
    entropy = np.zeros((4, trials.shape[0]), dtype=np.uint32)
    entropy[:k] = np.array(master_words, dtype=np.uint32)[:, None]
    entropy[k] = trials & np.uint64(_MASK32)
    entropy[k + 1] = trials >> np.uint64(32)
    pool = _hash(entropy, _POOL_XOR[:4], _POOL_MULT[:4])
    # every source word is mixed into the three others, in order; within one
    # source the three updates are independent
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hash(pool[src], _POOL_XOR[steps], _POOL_MULT[steps]))
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    seeds = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
    return _reseeded(zip(*seeds))


def _reseeded(seeds) -> Iterator[np.random.Generator]:
    """One Generator, re-seeded per PCG64 seed (initstate, initseq) given
    as 64-bit words (hi, lo, hi, lo)."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for hi_state, lo_state, hi_seq, lo_seq in seeds:
        inc = ((((hi_seq << 64) | lo_seq) << 1) | 1) & _MASK128
        initstate = (hi_state << 64) | lo_state
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
