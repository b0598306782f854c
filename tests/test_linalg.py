from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gdflow import assembly, linalg, sim
from gdflow.linalg import (
    MAX_UPDATE_RANK,
    RESIDUAL_TOL,
    SUPERNODES,
    FactorizationCache,
    SolverError,
    residual_norm,
    solve_general,
    solve_pcg,
    solve_spd,
    spd_solver,
)
from gdflow.gd import scheme_a, scheme_b
from gdflow.mesh import build_cartesian, build_dual, build_structured_triangulation
from oracles import lexsort_ordering, sliced_spd_solve


def scheme_b_reps(reps):
    mesh = build_structured_triangulation(reps, 1.0)
    return scheme_b(mesh, build_dual(mesh))


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
        m = gd.recon_measures
        rng = np.random.default_rng(1)
        b = rng.standard_normal(gd.ndof)
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


class TestSpdSolver:
    @pytest.mark.parametrize("make", [lambda: scheme_a(build_cartesian(3, 1.0)),
                                      lambda: scheme_b_reps(2)],
                             ids=["scheme_a_n3", "scheme_b_reps2"])
    def test_rank_one_matches_dense_for_incompatible_rhs(self, make):
        gd = make()
        G, m = gd.grad_gram(), gd.recon_measures
        b = np.random.default_rng(5).standard_normal(gd.ndof) + 1.0
        assert abs(b.sum()) > 1.0
        x = spd_solver(G, rank_one=m)(b)
        oracle = np.linalg.solve(G.toarray() + np.outer(m, m), b)
        assert np.allclose(x, oracle, rtol=0.0,
                           atol=1e-10 * np.abs(oracle).max())
        assert np.isclose(m @ x, b.sum() / m.sum(), rtol=1e-12)

    def test_rank_one_rejects_nonzero_row_sums(self):
        G = scheme_a(build_cartesian(3, 1.0)).grad_gram()
        m = np.ones(G.shape[0])
        solve = spd_solver(G + sp.identity(G.shape[0]), rank_one=m)
        b = np.random.default_rng(0).standard_normal(G.shape[0])
        with pytest.raises(SolverError, match="residual"):
            solve(b)

    def test_one_factorisation_serves_many_rhs(self):
        gd = scheme_b_reps(2)
        G, m = gd.grad_gram(), gd.recon_measures
        dense = G.toarray() + np.outer(m, m)
        solve = spd_solver(G, rank_one=m)
        rng = np.random.default_rng(11)
        for _ in range(4):
            b = rng.standard_normal(gd.ndof)
            assert np.allclose(solve(b), np.linalg.solve(dense, b),
                               atol=1e-10)
        assert np.allclose(solve(np.zeros(gd.ndof)), 0.0)
        with pytest.raises(SolverError, match="non-finite"):
            solve(np.full(gd.ndof, np.inf))

    @pytest.mark.parametrize("scheme", ["a", "b"])
    @pytest.mark.parametrize("system", ["pressure", "quality"])
    def test_pinned_solve_matches_the_sliced_solve(self, scheme, system):
        """Pinning the last dof on A's pattern solves what the LU of
        A[:-1, :-1] without its stored zeros solved: the lit2 pressure
        matrix with the mean functional, the unit-square Gram matrix with
        the measures (as quality._elliptic), each with right-hand sides
        of the sums it meets."""
        rng = np.random.default_rng(4)
        if system == "pressure":
            mesh = {"n": 12} if scheme == "a" else {"reps": 8}
            problem = sim.build_problem(sim.RunConfig(
                test="lit2", scheme=scheme, dt=36.0, **mesh))
            gd = problem.gd
            c = rng.uniform(0.0, 1.0, gd.ndof)
            A, _ = assembly.pressure_matrix(gd, c, problem.mobility)
            m = gd.recon_measures / gd.domain_area
            b = rng.standard_normal(gd.ndof)
            rhs = [problem.dsrc.pressure_rhs(), b - b.mean()]
        else:
            gd = scheme_a(build_cartesian(12, 1.0)) if scheme == "a" \
                else scheme_b_reps(8)
            A, m = gd.grad_gram(), gd.recon_measures
            rhs = [rng.standard_normal(gd.ndof) + 1.0]
        data = A.data.copy()
        solve = spd_solver(A, rank_one=m)
        for b in rhs:
            x, oracle = solve(b), sliced_spd_solve(A, b, m)
            assert np.linalg.norm(x - oracle) \
                <= 1e-12 * np.linalg.norm(oracle)
        assert np.array_equal(A.data, data)  # pinned in a copy

    def test_last_row_without_stored_diagonal_raises(self):
        # the last row stores a zero at (2, 0) but no (2, 2) to pin
        A = sp.csr_matrix((np.array([1.0, -1.0, -1.0, 1.0, 0.0]),
                           np.array([0, 1, 0, 1, 0]), np.array([0, 2, 4, 5])),
                          shape=(3, 3))
        with pytest.raises(SolverError, match="diagonal"):
            spd_solver(A, rank_one=np.ones(3))
        assert np.array_equal(A.data, [1.0, -1.0, -1.0, 1.0, 0.0])


class TestSolvePcg:
    """(M + G) w = b, with M the reconstruction masses, preconditioned by
    the LU of the pinned elliptic matrix G + m m^T, as in
    quality.consistency_defect."""

    @staticmethod
    def system(gd):
        G, m = gd.grad_gram(), gd.recon_measures
        return (sp.diags(m) + G).tocsr(), spd_solver(G, rank_one=m)

    @pytest.mark.parametrize("make", [lambda: scheme_a(build_cartesian(16, 1.0)),
                                      lambda: scheme_b_reps(8)],
                             ids=["scheme_a_n16", "scheme_b_reps8"])
    def test_matches_direct_lu(self, make):
        A, precond = self.system(make())
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        x = solve_pcg(A, b, precond)
        direct = solve_spd(A, b)
        assert np.linalg.norm(x - direct) <= 1e-11 * np.linalg.norm(direct)

    def test_zero_rhs(self):
        A, precond = self.system(scheme_b_reps(2))
        assert np.array_equal(solve_pcg(A, np.zeros(A.shape[0]), precond),
                              np.zeros(A.shape[0]))

    def test_non_finite_rhs_raises(self):
        A, precond = self.system(scheme_b_reps(2))
        b = np.ones(A.shape[0])
        b[3] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_pcg(A, b, precond)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "CG_MAX_ITER", 1)
        A, precond = self.system(scheme_a(build_cartesian(8, 1.0)))
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        with pytest.raises(SolverError, match="did not converge in 1 "):
            solve_pcg(A, b, precond)


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


def jacobians(B, W):
    """(W, J) from dense B and W: a cache's update columns W (CSC) and
    J(theta) = B + W diag(theta) on one CSR pattern, formed from values
    alone as a transport operator forms its Jacobians."""
    n = len(B)
    P = sp.csr_matrix((B != 0) | (W != 0) | np.eye(n, dtype=bool))
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    b, w = B[rows, P.indices], W[rows, P.indices]

    def J(theta):
        return sp.csr_matrix((b + w * theta[P.indices], P.indices, P.indptr),
                             shape=(n, n))
    return sp.csc_matrix(W), J


def parts(n, seed):
    """Random sparse B and W with B + W diag(theta) diagonally dominant in
    every row for every theta in [0, 1]^n, and no zero column in W."""
    rng = np.random.default_rng(seed)
    hit = rng.random((2, n, n)) < 0.1
    B = np.where(hit[0], rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    W = np.where(hit[1], rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    B += (2.0 * n + 1.0) * np.eye(n)
    return B, W + np.diag(rng.uniform(0.5, 1.0, n))


def dominant(n, seed):
    """(W, J) of ``jacobians`` for ``parts(n, seed)``."""
    return jacobians(*parts(n, seed))


def flags(n, seed):
    """Random clamp flags in {0, 1}^n."""
    return np.random.default_rng(seed).integers(0, 2, n).astype(float)


def flipped(theta, dofs):
    """theta with the flags of ``dofs`` flipped."""
    theta = theta.copy()
    theta[dofs] = 1.0 - theta[dofs]
    return theta


class TestFactorizationCache:
    def test_reuses_factorization(self):
        rng = np.random.default_rng(3)
        W, J = dominant(10, seed=3)
        theta = flags(10, seed=3)
        cache = FactorizationCache(W, [])
        dense = J(theta).toarray()
        for _ in range(4):
            b = rng.standard_normal(10)
            x = cache.solve(J(theta), b, theta)
            assert np.allclose(x, np.linalg.solve(dense, b))
        assert cache.factorizations == 1

    def test_small_change_is_an_update(self):
        # 4 flipped flags <= MAX_UPDATE_RANK: J(ones) is an update of the LU
        # of J(zeros), and zeros again flips no flag against it
        W, J = jacobians(2.0 * np.eye(4), np.eye(4))
        cache = FactorizationCache(W, [])
        zeros, ones, b = np.zeros(4), np.ones(4), np.ones(4)
        assert np.allclose(cache.solve(J(zeros), b, zeros), 0.5)
        assert np.allclose(cache.solve(J(ones), b, ones), 1.0 / 3.0)
        assert np.allclose(cache.solve(J(zeros), b, zeros), 0.5)
        assert cache.factorizations == 1

    def test_refactorizes_beyond_max_update_rank(self):
        n = MAX_UPDATE_RANK + 8
        W, J = jacobians(2.0 * np.eye(n), np.eye(n))
        cache = FactorizationCache(W, [])
        zeros, ones, b = np.zeros(n), np.ones(n), np.ones(n)
        assert np.allclose(cache.solve(J(zeros), b, zeros), 0.5)
        assert np.allclose(cache.solve(J(ones), b, ones), 1.0 / 3.0)
        assert cache.factorizations == 2

    def test_equal_new_matrix_reuses_factorization(self):
        W, J = jacobians(2.0 * np.eye(4), np.eye(4))
        cache = FactorizationCache(W, [])
        b = np.ones(4)
        cache.solve(J(np.zeros(4)), b, np.zeros(4))
        assert np.allclose(cache.solve(J(np.zeros(4)), b, np.zeros(4)), 0.5)
        assert cache.factorizations == 1

    def test_non_finite_rhs_raises(self):
        W, J = jacobians(np.diag([2.0, 4.0, 8.0]), np.zeros((3, 3)))
        theta = np.zeros(3)
        with pytest.raises(SolverError, match="non-finite"):
            FactorizationCache(W, []).solve(J(theta),
                                            np.array([1.0, np.nan, 1.0]),
                                            theta)

    def test_non_finite_solution_raises(self):
        W, J = jacobians(np.diag([2.0, np.inf, 8.0]), np.zeros((3, 3)))
        theta = np.zeros(3)
        with pytest.raises(SolverError):
            FactorizationCache(W, []).solve(J(theta), np.ones(3), theta)

    def test_singular_matrix_raises_solver_error(self):
        W, J = jacobians(np.ones((2, 2)), np.zeros((2, 2)))
        theta = np.zeros(2)
        cache = FactorizationCache(W, [])
        with pytest.raises(SolverError, match="singular"):
            cache.solve(J(theta), np.array([1.0, 0.0]), theta)
        assert cache.factorizations == 0


def runs(A0):
    """The ordering lists of a run on which a cache's LU of A0 is the first
    of its pattern (minimum degree) and a later one (reordered: natural
    order, solved through p)."""
    later = []
    linalg._lu(A0, later)
    return [], later


class CountingLU:
    """Logs the shape of every right-hand side a SuperLU factorisation
    solves: (n,) for one vector, (n, k) for a block of k columns."""

    def __init__(self, lu, log):
        self._lu, self._log = lu, log

    def solve(self, b):
        self._log.append(b.shape)
        return self._lu.solve(b)


def columns(log):
    """The right-hand-side columns in a ``CountingLU`` log."""
    return sum(shape[1] if len(shape) == 2 else 1 for shape in log)


def counting(monkeypatch):
    """The ``CountingLU`` log of every LU ``linalg`` factors from now on."""
    solves, real = [], linalg._lu
    monkeypatch.setattr(linalg, "_lu", lambda A, *rest: CountingLU(
        real(A, *rest), solves))
    return solves


class TestFactorizationCacheUpdate:
    def test_update_matches_dense_solve(self):
        W, J = dominant(50, seed=1)
        t0 = flags(50, seed=1)
        t1 = flipped(t0, [3, 17, 40])
        b = np.random.default_rng(3).standard_normal(50)
        for orderings in runs(J(t0)):
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_changed_columns_are_solved_once(self, monkeypatch):
        solves = counting(monkeypatch)
        W, J = dominant(30, seed=4)
        cols = [2, 9, 21, 29]
        t0 = flags(30, seed=5)
        t1 = flipped(t0, cols)
        b = np.random.default_rng(6).standard_normal(30)
        for orderings in runs(J(t0)):
            solves.clear()
            cache = FactorizationCache(W, orderings)
            for theta in (t0, t1, t0, t1):
                x = cache.solve(J(theta), b, theta)
                assert np.allclose(x, np.linalg.solve(J(theta).toarray(), b),
                                   rtol=0.0, atol=1e-12)
            # one column per right-hand side, and one per flipped flag
            assert columns(solves) == 4 + len(cols)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_more_new_columns_than_one_block(self, monkeypatch):
        solves = counting(monkeypatch)
        W, J = dominant(60, seed=26)
        cols = np.random.default_rng(27).choice(60, size=20, replace=False)
        t0 = flags(60, seed=28)
        t1 = flipped(t0, cols)
        b = np.random.default_rng(29).standard_normal(60)
        for orderings in runs(J(t0)):
            solves.clear()
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            blocks = [shape for shape in solves if len(shape) == 2]
            assert len(blocks) > 1
            assert all(k <= linalg._BLOCK for _, k in blocks)
            assert columns(solves) == 2 + len(cols)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_non_finite_column_in_a_block_raises_and_refactors(self):
        W, J = dominant(30, seed=30)
        t0 = flags(30, seed=31)
        t1 = flipped(t0, [1, 8, 15, 22])
        b = np.ones(30)

        def poisoned(cache):  # column 2 of the first block solved is NaN
            real, calls = cache._lu, []

            def solve(v):
                calls.append(v.shape)
                x = real.solve(v)
                if len(calls) == 1:
                    x[:, 2] = np.nan
                return x
            cache._lu = SimpleNamespace(solve=solve)
            return calls
        for orderings in runs(J(t0)):
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            calls = poisoned(cache)
            with pytest.raises(SolverError, match="non-finite low-rank"):
                cache._update(t1)
            assert calls == [(30, 4)]
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            calls = poisoned(cache)
            x = cache.solve(J(t1), b, t1)
            assert calls == [(30, 4)]  # the rest was solved with the new LU
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(orderings) == 1

    @pytest.mark.parametrize("W, dofs", [
        (np.diag([-2.0, 0.0, 0.0, 0.0]), [0]),
        (np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), [0, 1]),
    ], ids=["zero_column", "equal_columns"])
    def test_singular_update_raises_solver_error(self, W, dofs):
        W, J = jacobians(2.0 * np.eye(4), W)
        t0 = np.zeros(4)
        t1 = flipped(t0, dofs)
        cache = FactorizationCache(W, [])
        cache.solve(J(t0), np.ones(4), t0)
        with pytest.raises(SolverError, match="singular"):
            cache.solve(J(t1), np.array([1.0, 0.0, 1.0, 1.0]), t1)

    def test_inf_in_changed_column_raises_solver_error(self):
        """An inf in a flipped update column raises where its solve is
        computed, and J is factored instead: a Jacobian that holds the inf
        too fails, one that does not is solved."""
        B, Wd = parts(20, seed=7)
        Wd[4, 11] = 0.5
        _, J = jacobians(B, Wd)
        Wd[4, 11] = np.inf
        W, J_inf = jacobians(B, Wd)
        t0 = np.zeros(20)
        t1 = flipped(t0, [11])
        b = np.ones(20)
        for orderings in runs(J(t0)):
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            with pytest.raises(SolverError, match="non-finite low-rank"):
                cache._update(t1)
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            with pytest.raises(SolverError):
                cache.solve(J_inf(t1), b, t1)
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(orderings) == 1

    def test_inf_on_the_pattern_is_factored_and_raises(self):
        """An inf in J that W diag(theta - theta0) does not account for
        fails the update's residual check: J is factored, and its residual
        fails."""
        W, J = dominant(20, seed=7)
        t0 = flags(20, seed=7)
        t1 = flipped(t0, [3])
        J1 = J(t1)
        J1.data[5] = np.inf
        cache = FactorizationCache(W, [])
        cache.solve(J(t0), np.ones(20), t0)
        with pytest.raises(SolverError):
            cache.solve(J1, np.ones(20), t1)

    def test_jacobian_off_the_update_is_factored(self):
        """A J that is not J0 + W diag(theta - theta0) fails the update's
        residual check and is factored: never a wrong answer."""
        W, J = dominant(40, seed=32)
        t0 = flags(40, seed=33)
        t1 = flipped(t0, [6, 19])
        J1 = J(t1)
        J1.data[J1.indices == 25] += 1.0  # a column whose flag is kept
        b = np.random.default_rng(34).standard_normal(40)
        for orderings in runs(J(t0)):
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J1, b, t1)
            assert np.allclose(x, np.linalg.solve(J1.toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(orderings) == 1

    @pytest.mark.parametrize("capacitance", ["wrong", "singular"])
    def test_residual_miss_refactors(self, monkeypatch, capacitance):
        W, J = dominant(40, seed=8)
        t0 = flags(40, seed=9)
        t1 = flipped(t0, [0, 5, 39])
        b = np.random.default_rng(10).standard_normal(40)
        oracle = np.linalg.solve(J(t1).toarray(), b)
        real, calls = np.linalg.solve, []

        def bad(K, r):
            calls.append(K.shape)
            if capacitance == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return 2.0 * real(K, r)
        for orderings in runs(J(t0)):
            calls.clear()
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            with monkeypatch.context() as m:
                m.setattr(linalg.np.linalg, "solve", bad)
                x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, oracle, rtol=0.0, atol=1e-12)
            assert residual_norm(J(t1), x, b) \
                <= RESIDUAL_TOL * np.linalg.norm(b)
            assert calls == [(3, 3)]
            assert cache.factorizations == 2
            assert len(orderings) == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k1=st.integers(0, 40),
           k2=st.integers(0, 40))
    def test_update_rule(self, seed, k1, k2):
        # two successive Jacobians flip k1 and k2 random flags of theta0
        n = 60
        rng = np.random.default_rng(seed)
        W, J = dominant(n, seed)
        t0 = flags(n, seed)
        thetas = [t0] + [flipped(t0, rng.choice(n, size=k, replace=False))
                         for k in (k1, k2)]
        bs = rng.standard_normal((3, n))
        for orderings in runs(J(t0)):
            ref, kept, expected = t0, set(), 1
            cache = FactorizationCache(W, orderings)
            for theta, b in zip(thetas, bs):
                x = cache.solve(J(theta), b, theta)
                assert residual_norm(J(theta), x, b) \
                    <= RESIDUAL_TOL * np.linalg.norm(b)
                S = set(np.flatnonzero(theta != ref))
                if len(kept | S) > MAX_UPDATE_RANK:
                    ref, kept, expected = theta, set(), expected + 1
                else:
                    kept |= S
                assert cache.factorizations == expected
            assert len(orderings) == 1


class TestFactorizationCacheSamePattern:
    """Jacobians of one operator: the number of flags flipped since the
    last LU, not the matrix values, decides between an update and a
    factorisation."""

    @pytest.mark.parametrize("k", [1, MAX_UPDATE_RANK])
    def test_few_changed_columns_are_an_update(self, monkeypatch, k):
        solves = counting(monkeypatch)
        n = 60
        W, J = dominant(n, seed=11)
        t0 = flags(n, seed=12)
        t1 = flipped(t0, np.random.default_rng(13).choice(n, size=k,
                                                          replace=False))
        b = np.random.default_rng(14).standard_normal(n)
        for orderings in runs(J(t0)):
            solves.clear()
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 1
            # one column per right-hand side, and one per flipped flag
            assert columns(solves) == 2 + k
            assert len(orderings) == 1

    def test_many_changed_columns_are_factored(self, monkeypatch):
        solves = counting(monkeypatch)
        n = 60
        W, J = dominant(n, seed=15)
        t0 = flags(n, seed=16)
        t1 = flipped(t0, np.arange(MAX_UPDATE_RANK + 1))
        b = np.random.default_rng(17).standard_normal(n)
        for orderings in runs(J(t0)):
            solves.clear()
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            x = cache.solve(J(t1), b, t1)
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(solves) == 2  # no column of an update was solved
            assert len(orderings) == 1


def test_supernodes_keep_relax_within_panel_size():
    # a relaxed supernode wider than a panel corrupts SuperLU's heap
    assert 1 <= SUPERNODES["relax"] <= SUPERNODES["panel_size"]


def pinned_matrix(A, m):
    """The matrix that ``spd_solver(A, m)`` factors, as it hands it to
    ``_lu``."""
    factored, real = [], linalg._lu

    def recording(M, orderings=None):
        factored.append(M)
        return real(M, orderings)
    with mock.patch.object(linalg, "_lu", recording):
        spd_solver(A, rank_one=m)
    return factored[0]


def run_matrices(cfg):
    """A pinned pressure matrix and a transport Jacobian of ``cfg`` at two
    concentrations: two matrices on each of the (one or two) patterns."""
    problem = sim.build_problem(cfg)
    gd, mats = problem.gd, []
    for seed in (0, 1):
        c = np.random.default_rng(seed).uniform(0.0, 1.0, gd.ndof)
        G, _ = assembly.pressure_matrix(gd, c, problem.mobility)
        G = pinned_matrix(G, gd.recon_measures / gd.domain_area)
        _, U, _ = assembly.solve_pressure(gd, c, problem.mobility,
                                          problem.dsrc, [])
        op = assembly.TransportOperator(gd, U, cfg.dt, problem.dsrc,
                                        problem.params, cfg.variant, [])
        mats.append((G, op.jacobian((c <= 0.5).astype(float))))
    return list(zip(*mats))


class TestOrderedFactorisation:
    """The second LU of a pattern reuses the first one's minimum-degree
    ordering: it has the fill of a minimum-degree LU and its solutions."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls, real = [], linalg.spla.splu

        def recording(A, **kwargs):
            lu = real(A, **kwargs)
            calls.append((kwargs["permc_spec"], lu))
            return lu
        monkeypatch.setattr(linalg.spla, "splu", recording)
        return calls

    @pytest.mark.parametrize("cfg", [
        sim.RunConfig(test="lit2", scheme="a", n=12, dt=36.0),
        sim.RunConfig(test="lit2", scheme="b", reps=8, dt=36.0),
    ], ids=["scheme_a", "scheme_b"])
    @pytest.mark.parametrize("system", ["pressure", "transport"])
    def test_same_fill_and_solution_as_minimum_degree(self, splu_calls, cfg,
                                                      system):
        A0, A1 = run_matrices(cfg)[system == "transport"]
        assert np.array_equal(A0.indices, A1.indices)
        assert not np.array_equal(A0.data, A1.data)
        orderings = []
        linalg._lu(A0, orderings)
        ordered = linalg._lu(A1, orderings)
        assert len(orderings) == 1
        assert [spec for spec, _ in splu_calls[-2:]] == ["MMD_AT_PLUS_A",
                                                         "NATURAL"]
        natural_lu = splu_calls[-1][1]
        mmd = linalg.spla.splu(A1.tocsc(), permc_spec="MMD_AT_PLUS_A",
                               **SUPERNODES)
        assert natural_lu.nnz == mmd.nnz
        assert natural_lu.nnz <= linalg.spla.splu(
            A1.tocsc(), permc_spec="MMD_AT_PLUS_A").nnz
        b = np.random.default_rng(2).standard_normal(A1.shape[0])
        x, oracle = ordered.solve(b), mmd.solve(b)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("cfg", [
        sim.RunConfig(test="lit2", scheme="a", n=12, dt=36.0),
        sim.RunConfig(test="lit2", scheme="b", reps=8, dt=36.0),
    ], ids=["scheme_a", "scheme_b"])
    @pytest.mark.parametrize("system", ["pressure", "transport"])
    def test_kept_pattern_matches_the_sort(self, cfg, system):
        A = run_matrices(cfg)[system == "transport"][0]
        orderings = []
        linalg._lu(A, orderings)
        (indptr, indices, p, q, at, Bi, Bp), = orderings
        assert np.array_equal(q[p], np.arange(A.shape[0]))
        for kept, oracle in zip((at, Bi, Bp), lexsort_ordering(A, p)):
            assert np.array_equal(kept, oracle)

    @pytest.mark.parametrize("cfg, shared", [
        (sim.RunConfig(test="lit2", scheme="b", reps=8, dt=36.0), True),
        (sim.RunConfig(test="analytic1", scheme="a", n=12, dt=0.02), True),
        (sim.RunConfig(test="lit2", scheme="a", n=12, dt=36.0), False),
    ], ids=["scheme_b", "scheme_a", "scheme_a_cross"])
    def test_pinned_pressure_is_on_the_transport_pattern(self, cfg, shared):
        """One ordering serves both systems unless D12 puts the transport
        on the cross pattern."""
        (G, _), (J, _) = run_matrices(cfg)
        assert shared == (np.array_equal(G.indptr, J.indptr)
                          and np.array_equal(G.indices, J.indices))
        orderings = []
        linalg._lu(G, orderings)
        linalg._lu(J, orderings)
        assert len(orderings) == 2 - shared

    def test_first_lu_of_a_pattern_is_the_one_shot_lu(self):
        A = dominant(40, seed=21)[1](np.zeros(40))
        b = np.random.default_rng(22).standard_normal(40)
        orderings = []
        x = linalg._lu(A, orderings).solve(b)
        assert np.array_equal(x, linalg._lu(A).solve(b))
        linalg._lu(A[:-1, :-1], orderings)
        linalg._lu(A, orderings)
        assert len(orderings) == 2  # one entry per pattern

    def test_singular_matrix_on_a_known_pattern_raises(self):
        A = sp.csr_matrix(2.0 * np.eye(3))
        orderings = []
        linalg._lu(A, orderings)
        A.data[1] = 0.0
        with pytest.raises(SolverError, match="singular"):
            linalg._lu(A, orderings)

    def test_cache_uses_the_orderings(self, splu_calls):
        n = MAX_UPDATE_RANK + 8
        W, J = dominant(n, seed=23)
        orderings = []
        cache = FactorizationCache(W, orderings)
        b = np.ones(n)
        for theta in (np.zeros(n), np.ones(n), np.zeros(n)):
            x = cache.solve(J(theta), b, theta)
            assert np.allclose(x, np.linalg.solve(J(theta).toarray(), b),
                               rtol=0.0, atol=1e-12)
        assert cache.factorizations == 3
        assert [spec for spec, _ in splu_calls] == [
            "MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
        assert len(orderings) == 1


class TestNonFiniteUpdate:
    """A non-finite J0^-1 W_j is rejected where it is computed, before it
    enters the update: the Jacobian is factored instead."""

    @staticmethod
    def poisoned_column_solve(cache):
        real, calls = cache._lu, []

        def solve(v):  # the first solve after this is a column's J0^-1 W_j
            calls.append(v)
            x = real.solve(v)
            return np.full_like(x, np.nan) if len(calls) == 1 else x
        cache._lu = SimpleNamespace(solve=solve)
        return calls

    def test_non_finite_column_raises_solver_error(self):
        W, J = dominant(20, seed=24)
        t0 = flags(20, seed=25)
        cache = FactorizationCache(W, [])
        cache.solve(J(t0), np.ones(20), t0)
        self.poisoned_column_solve(cache)
        with pytest.raises(SolverError, match="non-finite low-rank update"):
            cache._update(flipped(t0, [3]))

    def test_non_finite_update_is_refactored(self):
        W, J = dominant(20, seed=24)
        t0 = flags(20, seed=25)
        t1 = flipped(t0, [3])
        b = np.ones(20)
        for orderings in runs(J(t0)):
            cache = FactorizationCache(W, orderings)
            cache.solve(J(t0), b, t0)
            calls = self.poisoned_column_solve(cache)
            x = cache.solve(J(t1), b, t1)
            assert len(calls) == 1  # the rest was solved with the new LU
            assert np.allclose(x, np.linalg.solve(J(t1).toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(orderings) == 1


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
