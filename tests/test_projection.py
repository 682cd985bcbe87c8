"""Projection-operator algebra, embedding diagnostics, and persistence tests.

Projector identities are checked against direct dense linear algebra
(numpy.linalg) as the independent reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from ccdet import (
    DimensionError,
    DomainError,
    RankError,
    RngContract,
    ZeroVectorError,
    check_stable_embedding,
    embedding_distortion,
    gen_projection,
    load_operator,
    operator_from_matrix,
    save_operator,
)

# independent projector for cross-checks
def _brute_projector(phi: np.ndarray) -> np.ndarray:
    return phi.T @ np.linalg.inv(phi @ phi.T) @ phi


def test_gen_projection_shape_and_determinism():
    op1 = gen_projection(5, 12, RngContract(2024, 2**62))
    op2 = gen_projection(5, 12, RngContract(2024, 2**62))
    assert op1.phi.shape == (5, 12)
    assert op1.compressed_dim == 5
    assert op1.ambient_dim == 12
    assert np.array_equal(op1.phi, op2.phi)
    op3 = gen_projection(5, 12, RngContract(2025, 2**62))
    assert not np.array_equal(op1.phi, op3.phi)


def test_gen_projection_rejects_bad_dims_and_rng():
    with pytest.raises(DimensionError):
        gen_projection(0, 5, RngContract(0))
    with pytest.raises(DimensionError):
        gen_projection(6, 5, RngContract(0))
    with pytest.raises(DimensionError):
        gen_projection(2, 5, np.random.default_rng(0))


def test_operator_from_matrix_caches_consistent_algebra():
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((4, 9))
    op = operator_from_matrix(phi)
    assert np.allclose(op.gram, phi @ phi.T, rtol=1e-13, atol=0)
    assert np.allclose(
        op.gram_cholesky @ op.gram_cholesky.T, op.gram, rtol=1e-12, atol=1e-12
    )
    # gram_solve against the inverse Gram matrix, on the identity's columns
    assert np.allclose(op.gram_solve(np.eye(4)), np.linalg.inv(phi @ phi.T), rtol=1e-10, atol=1e-12)
    # projector_energy is the quadratic form of the row-space projector
    projector = _brute_projector(phi)
    for x in np.random.default_rng(8).standard_normal((5, 9)):
        assert op.projector_energy(x) == pytest.approx(float(x @ projector @ x), rel=1e-10)


def test_whitened_has_orthonormal_rows_and_factors_phi(tmp_path):
    op = gen_projection(5, 12, RngContract(31, 2**62))
    w = op.whitened
    assert w.shape == (5, 12)
    assert np.allclose(w @ w.T, np.eye(5), rtol=0, atol=1e-10)
    assert np.allclose(op.gram_cholesky @ w, op.phi, rtol=1e-12, atol=1e-12)
    # the independent reference: L^-1 phi with L from numpy's Cholesky
    reference = np.linalg.solve(np.linalg.cholesky(op.phi @ op.phi.T), op.phi)
    assert np.allclose(w, reference, rtol=1e-10, atol=1e-10)
    # compressing with W is whitening the phi-compressed vector
    u = np.random.default_rng(32).standard_normal((3, 12))
    assert np.allclose(u @ w.T, op.whiten(u @ op.phi.T), rtol=1e-10, atol=1e-12)
    path = tmp_path / "phi.txt"
    save_operator(op, path)
    loaded = load_operator(path)
    assert np.array_equal(loaded.whitened, w)
    assert not loaded.whitened.flags.writeable


def test_operator_from_matrix_copies_and_freezes():
    phi = np.random.default_rng(3).standard_normal((3, 6))
    op = operator_from_matrix(phi)
    phi[0, 0] = 1e6
    assert op.phi[0, 0] != 1e6
    for arr in (op.phi, op.gram, op.gram_cholesky, op.whitened):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_operator_from_matrix_rejects_rank_deficiency():
    row = np.arange(1.0, 7.0)
    phi = np.vstack([row, 2.0 * row])
    with pytest.raises(RankError):
        operator_from_matrix(phi)


def test_operator_from_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        operator_from_matrix(np.ones(5))
    with pytest.raises(DimensionError):
        operator_from_matrix(np.ones((4, 3)))
    bad = np.ones((2, 4))
    bad[0, 0] = np.inf
    with pytest.raises(DimensionError):
        operator_from_matrix(bad)


def test_whiten_normalizes_gram_covariance():
    op = gen_projection(4, 10, RngContract(21, 2**62))
    ys = np.random.default_rng(9).standard_normal((6, 4))
    z = op.whiten(ys)
    # z = L^-1 y row-wise, so z L^T = y
    assert np.allclose(z @ op.gram_cholesky.T, ys, rtol=1e-11, atol=1e-12)
    # whitening preserves shape on stacked inputs
    stack = np.random.default_rng(10).standard_normal((3, 5, 4))
    assert op.whiten(stack).shape == (3, 5, 4)
    with pytest.raises(DimensionError):
        op.whiten(np.ones((2, 3)))


def test_gram_solve_matches_direct_solve():
    op = gen_projection(5, 9, RngContract(31, 2**62))
    y = np.random.default_rng(13).standard_normal(5)
    assert np.allclose(op.gram_solve(y), np.linalg.solve(op.gram, y), rtol=1e-10)
    ys = np.random.default_rng(14).standard_normal((7, 5))
    assert np.allclose(
        op.gram_solve(ys), np.linalg.solve(op.gram, ys.T).T, rtol=1e-10
    )


def test_projector_energy_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((4, 11))
        op = operator_from_matrix(phi)
        x = rng.standard_normal(11)
        p_hat = _brute_projector(phi)
        expected = float(x @ p_hat @ x)
        assert op.projector_energy(x) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(DimensionError):
        op.projector_energy(np.ones(4))


def test_embedding_distortion_is_exact_on_row_space():
    op = gen_projection(4, 12, RngContract(41, 2**62))
    # a vector already in the row space projects to itself
    x = op.phi.T @ np.array([1.0, -2.0, 0.5, 3.0])
    assert embedding_distortion(op, x) == pytest.approx(12.0 / 4.0, rel=1e-10)
    with pytest.raises(ZeroVectorError):
        embedding_distortion(op, np.zeros(12))


def test_embedding_distortion_concentrates_in_high_dimension():
    op = gen_projection(1000, 2000, RngContract(51, 2**62))
    rng = np.random.default_rng(52)
    rhos = [embedding_distortion(op, rng.standard_normal(2000)) for _ in range(20)]
    assert max(abs(r - 1.0) for r in rhos) < 0.2


def test_check_stable_embedding_report_fields():
    op = gen_projection(1000, 2000, RngContract(61, 2**62))
    xs = np.random.default_rng(62).standard_normal((30, 2000))
    report = check_stable_embedding(op, xs, eps=0.3)
    assert report.count == 30
    assert report.eps == 0.3
    assert report.pass_fraction == 1.0
    assert report.passed
    assert abs(report.worst_rho - 1.0) <= 0.3
    tight = check_stable_embedding(op, xs, eps=1e-6)
    assert not tight.passed
    assert tight.pass_fraction < 1.0


def test_check_stable_embedding_rejects_bad_eps_and_shape():
    op = gen_projection(2, 5, RngContract(71, 2**62))
    xs = np.ones((3, 5))
    with pytest.raises(DomainError):
        check_stable_embedding(op, xs, eps=0.0)
    with pytest.raises(DomainError):
        check_stable_embedding(op, xs, eps=-0.1)
    with pytest.raises(DimensionError):
        check_stable_embedding(op, np.ones((3, 4)), eps=0.1)


def test_save_load_roundtrip_preserves_bits(tmp_path):
    op = gen_projection(3, 8, RngContract(81, 2**62))
    path = tmp_path / "phi.txt"
    save_operator(op, path)
    loaded = load_operator(path)
    assert np.array_equal(loaded.phi, op.phi)
    x = np.random.default_rng(82).standard_normal(8)
    assert loaded.projector_energy(x) == pytest.approx(
        op.projector_energy(x), rel=1e-14
    )


def test_load_operator_handles_single_row(tmp_path):
    op = gen_projection(1, 6, RngContract(91, 2**62))
    path = tmp_path / "phi_row.txt"
    save_operator(op, path)
    loaded = load_operator(path)
    assert loaded.phi.shape == (1, 6)
    assert np.array_equal(loaded.phi, op.phi)
