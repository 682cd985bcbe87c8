"""Per-node observation densities and the likelihood-ratio tests of the
fusion center and the eavesdropper.

Every covariance in the model is a scalar times G = phi phi^T, so in the
whitened coordinates z = L^-1 y (L L^T = G) of a compressed observation y each
node's density is an isotropic Gaussian mixture whose component means all lie
on the one direction u = L^-1 phi mu. A density depends on z only through two
numbers, the projection z^T u and the energy ||z||^2, so the tests take those
two numbers per node; the energy cancels from every ratio when all components
share one variance (a deterministic signal without artificial noise).

Without injection every node follows the clean pair of densities. Under
artificial-noise injection each injecting node's observation follows a
three-component mixture: the fusion center, which knows who injects, scores
those nodes against the mixture with the true add/subtract probabilities and
the rest against the clean pair, while the eavesdropper, which cannot tell
nodes apart, scores every node against a mixture whose weights are rescaled
by the injecting fraction. Both tests compare the summed log-likelihood
ratio with log(P0/P1) and resolve ties toward the null hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    ProbabilityError,
    SingularCovarianceError,
)
from .model import Scenario
from .projection import ProjectionOperator

WEIGHT_SUM_TOL = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Isotropic Gaussian mixture in whitened coordinates whose component
    means all lie on one direction u.

    Component k has mean offsets[k] * u and covariance variance[k] * I_dim.

    Attributes:
        weights: Component probabilities, summing to one.
        offsets: Component mean positions along u, one per weight.
        variance: Per-coordinate variance of each component, strictly
            positive; a scalar gives every component the same variance.
        energy: Squared length ||u||^2 of the direction.
        dim: Dimension of the whitened observations.
    """

    weights: np.ndarray
    offsets: np.ndarray
    variance: np.ndarray
    energy: float
    dim: int

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float, copy=True)
        offsets = np.array(self.offsets, dtype=float, copy=True)
        if weights.ndim != 1 or weights.size == 0:
            raise DimensionError("weights must be a nonempty 1-d array")
        if np.any(weights < 0.0):
            raise ProbabilityError("mixture weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ProbabilityError("mixture weights must sum to one")
        if offsets.shape != weights.shape:
            raise DimensionError("one offset per weight is required")
        variance = np.array(self.variance, dtype=float)
        if variance.ndim > 1 or variance.size not in (1, weights.size):
            raise DimensionError("one variance per weight (or a single one) is required")
        variance = np.broadcast_to(variance, weights.shape).copy()
        if not np.all(variance > 0.0):
            raise SingularCovarianceError("variances must be strictly positive")
        if not float(self.energy) >= 0.0:
            raise DomainError("energy must be nonnegative")
        if int(self.dim) < 1:
            raise DimensionError("dim must be a positive integer")
        # log w_k - (dim / 2) log variance_k, -inf for a zero weight
        log_norms = np.full(weights.shape, -np.inf)
        np.log(weights, out=log_norms, where=weights > 0.0)
        log_norms -= 0.5 * int(self.dim) * np.log(variance)
        for arr in (weights, offsets, variance, log_norms):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "energy", float(self.energy))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "_log_norms", log_norms)

    @property
    def num_components(self) -> int:
        return self.weights.size

    def loglik_rows(self, proj, sq_norm) -> np.ndarray:
        """Mixture log density of whitened observations z, elementwise over
        proj = z^T u and sq_norm = ||z||^2 (arrays of one shape).

        A caller that only differences mixtures whose variances all equal
        may pass sq_norm = 0: the energy term -sq_norm / (2 variance) is
        then the same on both sides and cancels.
        """
        proj = np.asarray(proj, dtype=float)
        if self.num_components == 1:
            variance = float(self.variance[0])
            inv_var = 1.0 / variance
            c = float(self.offsets[0])
            base = -0.5 * inv_var * sq_norm - 0.5 * self.dim * (_LOG_2PI + math.log(variance))
            return (inv_var * c) * proj + (base - 0.5 * inv_var * c * c * self.energy)
        offsets = self.offsets
        inv_var = 1.0 / self.variance
        scored = self._log_norms + inv_var * (
            proj[..., None] * offsets
            - 0.5 * np.asarray(sq_norm)[..., None]
            - 0.5 * self.energy * offsets * offsets
        )
        shift = scored.max(axis=-1)
        # all-zero-weight rows cannot occur (weights sum to one)
        log_sum = np.log(np.exp(scored - shift[..., None]).sum(axis=-1))
        return shift + log_sum - 0.5 * self.dim * _LOG_2PI


Pair = tuple[GaussianMixture, GaussianMixture]


@dataclass(frozen=True, eq=False)
class ScenarioMixtures:
    """Observation densities of one scenario under each hypothesis.

    Attributes:
        threshold: log(P0/P1); a test decides H1 only above it.
        num_injecting: Injecting nodes, the first nodes of every trial.
        clean: (H0, H1) single-component densities of a non-injecting node.
        fc_byz: (H0, H1) mixtures for an injecting node as scored by the
            fusion center (true add/subtract probabilities); None without
            injection.
        eve: (H0, H1) mixtures as scored by the eavesdropper (weights
            rescaled by the injecting fraction); None without injection,
            where the eavesdropper's test coincides with the fusion center's.
    """

    threshold: float
    num_injecting: int
    clean: Pair
    fc_byz: Pair | None = None
    eve: Pair | None = None

    @property
    def uses_energy(self) -> bool:
        """True unless every component of every density has one variance,
        the only case in which the energy ||z||^2 cancels from every
        ratio."""
        pairs = [pair for pair in (self.clean, self.fc_byz, self.eve) if pair is not None]
        variances = np.concatenate([mix.variance for pair in pairs for mix in pair])
        return bool(np.any(variances != variances[0]))


def _prior_log_ratio(priors: tuple[float, float]) -> float:
    p0, p1 = (float(priors[0]), float(priors[1]))
    if p0 < 0.0 or p1 < 0.0:
        raise DomainError("priors must be nonnegative")
    if p1 == 0.0:
        return math.inf
    if p0 == 0.0:
        return -math.inf
    return math.log(p0 / p1)


def build_mixtures(scenario: Scenario, op: ProjectionOperator) -> ScenarioMixtures:
    """Construct all per-node observation densities of a scenario.

    The clean pair has offsets {0} and {1} with variances noise and
    signal + noise. Injected components sit at offsets {+kappa, -kappa, 0}
    around the hypothesis offset (0 or 1). The unchanged component 0 keeps
    the clean variance of its hypothesis, and the +-kappa components, which
    carry the artificial noise, add art to it; signal, noise and art are the
    signal, sensing-noise and artificial-noise variances. The eavesdropper's
    pair has the same components.
    """
    model = scenario.model
    if model.ambient_dim != op.ambient_dim:
        raise DimensionError("scenario and operator ambient dimensions differ")
    if scenario.compressed_dim != op.compressed_dim:
        raise DimensionError("scenario and operator compressed dimensions differ")
    energy = op.projector_energy(model.mean)
    m = op.compressed_dim

    def density(weights, offsets, variance) -> GaussianMixture:
        return GaussianMixture(weights, offsets, variance, energy, m)

    noise, signal = model.noise_variance, model.signal_variance
    clean = (density([1.0], [0.0], noise), density([1.0], [1.0], signal + noise))
    fc_byz = eve = None
    policy = scenario.injection
    if policy is not None:
        k, art, f = policy.kappa, policy.art_variance, policy.fraction
        var0, var1 = noise, signal + noise

        def pair(w0, w1) -> Pair:
            return (
                density(w0, [k, -k, 0.0], [var0 + art, var0 + art, var0]),
                density(w1, [1.0 + k, 1.0 - k, 1.0], [var1 + art, var1 + art, var1]),
            )

        fc_byz = pair(
            [policy.p10, policy.p20, 1.0 - policy.p10 - policy.p20],
            [policy.p11, policy.p21, 1.0 - policy.p11 - policy.p21],
        )
        eve = pair(
            [f * policy.p10, f * policy.p20, 1.0 - f * (policy.p10 + policy.p20)],
            [f * policy.p11, f * policy.p21, 1.0 - f * (policy.p11 + policy.p21)],
        )
    return ScenarioMixtures(
        threshold=_prior_log_ratio(scenario.priors),
        num_injecting=scenario.num_injecting,
        clean=clean,
        fc_byz=fc_byz,
        eve=eve,
    )


def log_likelihood_ratios(
    mixtures: ScenarioMixtures, proj, sq_norm=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Summed log-likelihood ratios of T trials, one per trial for the
    fusion center and for the eavesdropper (None without injection).

    proj = z^T u and sq_norm = ||z||^2 are (T, N) arrays of each node's
    whitened observation z; sq_norm is read only when mixtures.uses_energy
    and may be None otherwise. A test decides H1 when its ratio exceeds
    mixtures.threshold.
    """
    proj = np.asarray(proj, dtype=float)
    if proj.ndim != 2:
        raise DimensionError(f"expected (T, N) projections, got shape {proj.shape}")
    if mixtures.uses_energy:
        sq_norm = np.asarray(sq_norm, dtype=float)
        if sq_norm.shape != proj.shape:
            raise DimensionError(
                f"energies of shape {sq_norm.shape} do not match projections {proj.shape}"
            )
    else:
        sq_norm = np.zeros(proj.shape)

    def summed(pair: Pair, nodes: slice) -> np.ndarray:
        h0, h1 = pair
        p, e = proj[:, nodes], sq_norm[:, nodes]
        return (h1.loglik_rows(p, e) - h0.loglik_rows(p, e)).sum(axis=1)

    everyone = slice(None)
    if mixtures.eve is None:
        return summed(mixtures.clean, everyone), None
    b = mixtures.num_injecting
    fc = summed(mixtures.fc_byz, slice(None, b)) + summed(mixtures.clean, slice(b, None))
    return fc, summed(mixtures.eve, everyone)
