"""Shared random projection operators and embedding diagnostics.

All nodes compress with one M x P matrix phi of i.i.d. standard Gaussian
entries (every statistic in this package pairs phi with the inverse Gram
matrix (phi phi^T)^-1, so the entry scale cancels and standard entries lose no
generality). The associated orthogonal projector onto the row space,
P_hat = phi^T (phi phi^T)^-1 phi, drives both the detection statistics and the
embedding diagnostics: the normalized distortion rho(x) = (P/M) ||P_hat x||^2
/ ||x||^2 concentrates around one, which is what makes compressed detection
performance predictable from the compression ratio alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import DimensionError, DomainError, RankError, ZeroVectorError
from .model import RngContract

# condition-number acceptance bound for the Gram matrix of a fresh draw
MAX_GRAM_CONDITION = 1e12
# consecutive rank-deficient draws tolerated before giving up
MAX_DRAW_ATTEMPTS = 8


@dataclass(frozen=True, eq=False)
class ProjectionOperator:
    """A compression matrix with its cached row-space algebra.

    Attributes:
        phi: The M x P compression matrix.
        gram: phi phi^T, symmetric positive definite.
        gram_cholesky: Lower-triangular Cholesky factor L with L L^T = gram.
        whitened: W = L^-1 phi, with orthonormal rows; W u is the whitened
            compression L^-1 phi u that the Monte Carlo engine draws.
    """

    phi: np.ndarray
    gram: np.ndarray
    gram_cholesky: np.ndarray
    whitened: np.ndarray

    @property
    def compressed_dim(self) -> int:
        return self.phi.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.phi.shape[1]

    def whiten(self, ys: np.ndarray) -> np.ndarray:
        """Map compressed rows y to L^-1 y, so a covariance sigma2 * gram
        becomes sigma2 * identity."""
        ys = np.asarray(ys, dtype=float)
        if ys.shape[-1] != self.compressed_dim:
            raise DimensionError(
                f"expected trailing dimension {self.compressed_dim}, got {ys.shape}"
            )
        flat = ys.reshape(-1, self.compressed_dim)
        out = solve_triangular(self.gram_cholesky, flat.T, lower=True).T
        return out.reshape(ys.shape)

    def gram_solve(self, ys: np.ndarray) -> np.ndarray:
        """Solve gram @ x = y for one vector or for rows of a stack."""
        ys = np.asarray(ys, dtype=float)
        flat = np.atleast_2d(ys)
        out = cho_solve((self.gram_cholesky, True), flat.T).T
        return out.reshape(ys.shape)

    def projector_energy(self, x: np.ndarray) -> float:
        """Squared norm of the row-space projection, ||P_hat x||^2."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionError(
                f"expected a length-{self.ambient_dim} vector, got shape {x.shape}"
            )
        z = solve_triangular(self.gram_cholesky, self.phi @ x, lower=True)
        return float(z @ z)


def operator_from_matrix(phi: np.ndarray) -> ProjectionOperator:
    """Build the cached operator algebra for a given compression matrix.

    Raises RankError when the rows of phi are numerically rank deficient
    (Gram condition number above MAX_GRAM_CONDITION or Cholesky failure).
    """
    phi = np.array(phi, dtype=float, copy=True)
    if phi.ndim != 2:
        raise DimensionError(f"phi must be a 2-d array, got shape {phi.shape}")
    m, p = phi.shape
    if not 1 <= m <= p:
        raise DimensionError(f"phi must have 1 <= M <= P rows, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise DimensionError("phi must be finite")
    gram = phi @ phi.T
    gram = 0.5 * (gram + gram.T)  # enforce exact symmetry of the product
    try:
        chol = cholesky(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise RankError("phi rows are numerically rank deficient") from exc
    diag = np.diag(chol)
    if diag.min() <= 0.0 or (diag.max() / diag.min()) ** 2 > MAX_GRAM_CONDITION:
        raise RankError("phi Gram matrix condition number exceeds the bound")
    whitened = solve_triangular(chol, phi, lower=True)
    for arr in (phi, gram, chol, whitened):
        arr.flags.writeable = False
    return ProjectionOperator(phi=phi, gram=gram, gram_cholesky=chol, whitened=whitened)


def gen_projection(m: int, p: int, rng: RngContract) -> ProjectionOperator:
    """Draw a fresh M x P Gaussian compression operator.

    Entries are i.i.d. standard normal. A draw whose Gram matrix is
    numerically rank deficient is discarded and redrawn from a derived
    substream (the contract's entropy extended by the attempt index), up to
    MAX_DRAW_ATTEMPTS consecutive attempts, after which RankError is raised.
    """
    if not 1 <= int(m) <= int(p):
        raise DimensionError(f"need 1 <= M <= P, got M={m}, P={p}")
    if not isinstance(rng, RngContract):
        raise DimensionError("gen_projection expects an RngContract")
    for attempt in range(MAX_DRAW_ATTEMPTS):
        phi = rng.generator(attempt).standard_normal((int(m), int(p)))
        try:
            return operator_from_matrix(phi)
        except RankError:
            continue
    raise RankError(
        f"no full-rank projection after {MAX_DRAW_ATTEMPTS} attempts (M={m}, P={p})"
    )


def embedding_distortion(op: ProjectionOperator, x: np.ndarray) -> float:
    """Normalized row-space energy rho(x) = (P/M) ||P_hat x||^2 / ||x||^2.

    For a fresh Gaussian operator and any fixed nonzero x this concentrates
    around one as the dimensions grow. Raises ZeroVectorError for ||x|| = 0.
    """
    x = np.asarray(x, dtype=float)
    energy = float(x @ x)
    if energy == 0.0:
        raise ZeroVectorError("embedding distortion is undefined for the zero vector")
    ratio = op.ambient_dim / op.compressed_dim
    return ratio * op.projector_energy(x) / energy


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of an epsilon-stable embedding check over a probe set.

    Attributes:
        eps: Distortion tolerance.
        count: Number of probe vectors examined.
        pass_fraction: Fraction with |rho(x) - 1| <= eps.
        worst_rho: The distortion value farthest from one.
    """

    eps: float
    count: int
    pass_fraction: float
    worst_rho: float

    @property
    def passed(self) -> bool:
        return self.pass_fraction == 1.0


def check_stable_embedding(
    op: ProjectionOperator, xs: np.ndarray, eps: float
) -> EmbeddingReport:
    """Check |rho(x) - 1| <= eps for every row of xs."""
    if not float(eps) > 0.0:
        raise DomainError("eps must be strictly positive")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != op.ambient_dim:
        raise DimensionError(
            f"probe vectors must have length {op.ambient_dim}, got shape {xs.shape}"
        )
    rhos = np.array([embedding_distortion(op, x) for x in xs])
    deviations = np.abs(rhos - 1.0)
    worst = rhos[int(np.argmax(deviations))]
    pass_fraction = float(np.mean(deviations <= eps))
    return EmbeddingReport(
        eps=float(eps),
        count=int(xs.shape[0]),
        pass_fraction=pass_fraction,
        worst_rho=float(worst),
    )


def save_operator(op: ProjectionOperator, path) -> None:
    """Write the compression matrix as row-major text, one row per line."""
    np.savetxt(path, op.phi, fmt="%.17g")


def load_operator(path) -> ProjectionOperator:
    """Read a compression matrix written by save_operator and rebuild the
    cached algebra."""
    phi = np.loadtxt(path, dtype=float)
    return operator_from_matrix(np.atleast_2d(phi))
