import numpy as np
import pytest
import scipy.sparse as sp

from gdflow.linalg import (
    FactorizationCache,
    SolverError,
    residual_norm,
    solve_general,
    solve_spd,
)
from gdflow.gd import scheme_a
from gdflow.mesh import build_cartesian


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        x = solve_spd(sp.identity(3, format="csr"), b)
        assert np.allclose(x, b)

    def test_hand_2x2(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = solve_spd(A, np.array([1.0, 2.0]))
        assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0])

    def test_zero_rhs(self):
        A = sp.identity(4, format="csr")
        assert np.allclose(solve_spd(A, np.zeros(4)), 0.0)

    def test_rank_one_graph_laplacian(self):
        gd = scheme_a(build_cartesian(3, 1.0))
        G = gd.grad_gram()
        m = gd.mean_vector()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(gd.ndof)
        b -= m * (m @ b) / (m @ m) * 0.0  # arbitrary rhs is fine
        x = solve_spd(G, b, rank_one=m)
        dense = G.toarray() + np.outer(m, m)
        oracle = np.linalg.solve(dense, b)
        assert np.allclose(x, oracle, atol=1e-8)
        assert residual_norm(G, x, b, rank_one=m) <= 1e-9 * np.linalg.norm(b)

    def test_dense_matches_random_spd(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((12, 12))
        A = B @ B.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        x = solve_spd(sp.csr_matrix(A), b)
        assert np.allclose(x, np.linalg.solve(A, b))

    def test_requires_sparse(self):
        with pytest.raises(TypeError):
            solve_spd(np.eye(3), np.ones(3))

    def test_non_finite_rhs_raises(self):
        A = sp.diags([2.0, 4.0, 8.0]).tocsr()
        with pytest.raises(SolverError, match="non-finite"):
            solve_spd(A, np.array([1.0, np.nan, 1.0]))

    def test_non_finite_matrix_raises(self):
        A = sp.diags([2.0, np.nan, 8.0]).tocsr()
        with pytest.raises(SolverError):
            solve_spd(A, np.ones(3))


class TestSolveGeneral:
    def test_diagonal(self):
        A = sp.diags([2.0, 4.0, 8.0]).tocsr()
        x = solve_general(A, np.array([2.0, 2.0, 2.0]))
        assert np.allclose(x, [1.0, 0.5, 0.25])

    def test_small_nonsymmetric(self):
        A = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, -1.0], [0.0, -2.0, 4.0]])
        b = np.array([1.0, 0.0, 2.0])
        x = solve_general(sp.csr_matrix(A), b)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-12)

    def test_zero_rhs(self):
        A = sp.identity(5, format="csr")
        assert np.allclose(solve_general(A, np.zeros(5)), 0.0)

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises((SolverError, RuntimeError, np.linalg.LinAlgError)):
            solve_general(A, np.array([1.0, 0.0]))


class TestFactorizationCache:
    def test_reuses_factorization(self):
        rng = np.random.default_rng(3)
        A = sp.csr_matrix(rng.standard_normal((10, 10)) + 10 * np.eye(10))
        cache = FactorizationCache()
        dense = A.toarray()
        for _ in range(4):
            b = rng.standard_normal(10)
            x = cache.solve(A, b)
            assert np.allclose(x, np.linalg.solve(dense, b))
        assert cache.factorizations == 1

    def test_refactorizes_on_change(self):
        cache = FactorizationCache()
        A1 = sp.csr_matrix(2.0 * np.eye(4))
        A2 = sp.csr_matrix(3.0 * np.eye(4))
        b = np.ones(4)
        assert np.allclose(cache.solve(A1, b), 0.5)
        assert np.allclose(cache.solve(A2, b), 1.0 / 3.0)
        assert np.allclose(cache.solve(A1, b), 0.5)
        assert cache.factorizations == 3

    def test_non_finite_rhs_raises(self):
        A = sp.diags([2.0, 4.0, 8.0]).tocsr()
        with pytest.raises(SolverError, match="non-finite"):
            FactorizationCache().solve(A, np.array([1.0, np.nan, 1.0]))

    def test_non_finite_solution_raises(self):
        A = sp.diags([2.0, np.inf, 8.0]).tocsr()
        with pytest.raises(SolverError):
            FactorizationCache().solve(A, np.ones(3))

    def test_singular_matrix_raises_solver_error(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        cache = FactorizationCache()
        with pytest.raises(SolverError, match="singular"):
            cache.solve(A, np.array([1.0, 0.0]))
        assert cache.factorizations == 0


class TestResidualNorm:
    def test_exact_solution(self):
        A = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 5.0]]))
        x = np.array([0.5, 0.2])
        b = np.array([1.0, 1.0])
        assert residual_norm(A, x, b) == 0.0

    def test_rank_one_term(self):
        A = sp.identity(2, format="csr")
        m = np.array([1.0, 1.0])
        x = np.array([1.0, 0.0])
        b = np.array([2.0, 1.0])
        # (A + mm^T)x = (2, 1) exactly
        assert residual_norm(A, x, b, rank_one=m) == 0.0
