from types import SimpleNamespace

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
from oracles import lexsort_ordering


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


class TestFactorizationCache:
    def test_reuses_factorization(self):
        rng = np.random.default_rng(3)
        A = sp.csr_matrix(rng.standard_normal((10, 10)) + 10 * np.eye(10))
        cache = FactorizationCache([])
        dense = A.toarray()
        for _ in range(4):
            b = rng.standard_normal(10)
            x = cache.solve(A, b)
            assert np.allclose(x, np.linalg.solve(dense, b))
        assert cache.factorizations == 1

    def test_small_change_is_an_update(self):
        # 4 changed columns <= MAX_UPDATE_RANK: A2 is an update of the LU
        # of A1, and A1 again differs from the reference in no column
        cache = FactorizationCache([])
        A1 = sp.csr_matrix(2.0 * np.eye(4))
        A2 = sp.csr_matrix(3.0 * np.eye(4))
        b = np.ones(4)
        assert np.allclose(cache.solve(A1, b), 0.5)
        assert np.allclose(cache.solve(A2, b), 1.0 / 3.0)
        assert np.allclose(cache.solve(A1, b), 0.5)
        assert cache.factorizations == 1

    def test_refactorizes_beyond_max_update_rank(self):
        n = MAX_UPDATE_RANK + 8
        cache = FactorizationCache([])
        b = np.ones(n)
        assert np.allclose(cache.solve(sp.csr_matrix(2.0 * np.eye(n)), b),
                           0.5)
        assert np.allclose(cache.solve(sp.csr_matrix(3.0 * np.eye(n)), b),
                           1.0 / 3.0)
        assert cache.factorizations == 2

    def test_equal_new_matrix_reuses_factorization(self):
        cache = FactorizationCache([])
        b = np.ones(4)
        cache.solve(sp.csr_matrix(2.0 * np.eye(4)), b)
        assert np.allclose(cache.solve(sp.csr_matrix(2.0 * np.eye(4)), b), 0.5)
        assert cache.factorizations == 1

    def test_in_place_change_is_an_update(self):
        cache = FactorizationCache([])
        A = sp.csr_matrix(2.0 * np.eye(4))
        b = np.ones(4)
        assert np.allclose(cache.solve(A, b), 0.5)
        A.data[0] = 4.0
        assert np.allclose(cache.solve(A, b), [0.25, 0.5, 0.5, 0.5])
        assert cache.factorizations == 1

    def test_non_finite_rhs_raises(self):
        A = sp.diags([2.0, 4.0, 8.0]).tocsr()
        with pytest.raises(SolverError, match="non-finite"):
            FactorizationCache([]).solve(A, np.array([1.0, np.nan, 1.0]))

    def test_non_finite_solution_raises(self):
        A = sp.diags([2.0, np.inf, 8.0]).tocsr()
        with pytest.raises(SolverError):
            FactorizationCache([]).solve(A, np.ones(3))

    def test_singular_matrix_raises_solver_error(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        cache = FactorizationCache([])
        with pytest.raises(SolverError, match="singular"):
            cache.solve(A, np.array([1.0, 0.0]))
        assert cache.factorizations == 0


def dominant(n, seed):
    """A random sparse matrix whose diagonal dominates every row and column,
    also after ``change_columns``."""
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=0.1, random_state=rng,
                  data_rvs=lambda k: rng.uniform(-1.0, 1.0, k))
    return (R + sp.identity(n) * (2.0 * n + 1.0)).tocsr()


def change_columns(A, cols, seed):
    """A with a random change in every stored entry of the columns ``cols``,
    on the pattern of A."""
    A = A.copy()
    hit = np.isin(A.indices, cols)
    A.data[hit] += np.random.default_rng(seed).uniform(-1.0, 1.0, hit.sum())
    return A


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
        A0 = dominant(50, seed=1)
        A1 = change_columns(A0, [3, 17, 40], seed=2)
        b = np.random.default_rng(3).standard_normal(50)
        for orderings in runs(A0):
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            x = cache.solve(A1, b)
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_changed_columns_are_solved_once(self, monkeypatch):
        solves = counting(monkeypatch)
        A0 = dominant(30, seed=4)
        cols = [2, 9, 21, 29]
        A1 = change_columns(A0, cols, seed=5)
        b = np.random.default_rng(6).standard_normal(30)
        for orderings in runs(A0):
            solves.clear()
            cache = FactorizationCache(orderings)
            for A in (A0, A1, A0, A1):
                x = cache.solve(A, b)
                assert np.allclose(x, np.linalg.solve(A.toarray(), b),
                                   rtol=0.0, atol=1e-12)
            # one column per right-hand side, and one per changed column
            assert columns(solves) == 4 + len(cols)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_more_new_columns_than_one_block(self, monkeypatch):
        solves = counting(monkeypatch)
        A0 = dominant(60, seed=26)
        cols = np.random.default_rng(27).choice(60, size=20, replace=False)
        A1 = change_columns(A0, cols, seed=28)
        b = np.random.default_rng(29).standard_normal(60)
        for orderings in runs(A0):
            solves.clear()
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            x = cache.solve(A1, b)
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b),
                               rtol=0.0, atol=1e-12)
            blocks = [shape for shape in solves if len(shape) == 2]
            assert len(blocks) > 1
            assert all(k <= linalg._BLOCK for _, k in blocks)
            assert columns(solves) == 2 + len(cols)
            assert cache.factorizations == 1
            assert len(orderings) == 1

    def test_non_finite_column_in_a_block_raises_and_refactors(self):
        A0 = dominant(30, seed=30)
        A1 = change_columns(A0, [1, 8, 15, 22], seed=31)
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
        for orderings in runs(A0):
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            calls = poisoned(cache)
            with pytest.raises(SolverError, match="non-finite low-rank"):
                cache._update(A1)
            assert calls == [(30, 4)]
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            calls = poisoned(cache)
            x = cache.solve(A1, b)
            assert calls == [(30, 4)]  # the rest was solved with the new LU
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b),
                               rtol=0.0, atol=1e-12)
            assert cache.factorizations == 2
            assert len(orderings) == 1

    @pytest.mark.parametrize("A1", [
        sp.csr_matrix(np.diag([0.0, 2.0, 2.0, 2.0])),
        sp.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 2.0]])),
    ], ids=["zero_column", "equal_columns"])
    def test_singular_update_raises_solver_error(self, A1):
        cache = FactorizationCache([])
        cache.solve(sp.csr_matrix(2.0 * np.eye(4)), np.ones(4))
        with pytest.raises(SolverError, match="singular"):
            cache.solve(A1, np.array([1.0, 0.0, 1.0, 1.0]))

    def test_inf_in_changed_column_raises_solver_error(self):
        A0 = dominant(20, seed=7)
        A1 = A0.tolil()
        A1[4, 11] = np.inf
        for orderings in runs(A0):
            cache = FactorizationCache(orderings)
            cache.solve(A0, np.ones(20))
            with pytest.raises(SolverError):
                cache.solve(A1.tocsr(), np.ones(20))

    def test_inf_on_the_pattern_is_factored_and_raises(self):
        """A non-finite difference on A0's own pattern fails the update's
        residual check: the matrix is factored, and its residual fails."""
        A0 = dominant(20, seed=7)
        A1 = A0.copy()
        A1.data[5] = np.inf
        cache = FactorizationCache([])
        cache.solve(A0, np.ones(20))
        with pytest.raises(SolverError):
            cache.solve(A1, np.ones(20))

    @pytest.mark.parametrize("capacitance", ["wrong", "singular"])
    def test_residual_miss_refactors(self, monkeypatch, capacitance):
        A0 = dominant(40, seed=8)
        A1 = change_columns(A0, [0, 5, 39], seed=9)
        b = np.random.default_rng(10).standard_normal(40)
        oracle = np.linalg.solve(A1.toarray(), b)
        real, calls = np.linalg.solve, []

        def bad(K, r):
            calls.append(K.shape)
            if capacitance == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return 2.0 * real(K, r)
        for orderings in runs(A0):
            calls.clear()
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            with monkeypatch.context() as m:
                m.setattr(linalg.np.linalg, "solve", bad)
                x = cache.solve(A1, b)
            assert np.allclose(x, oracle, rtol=0.0, atol=1e-12)
            assert residual_norm(A1, x, b) <= RESIDUAL_TOL * np.linalg.norm(b)
            assert calls == [(3, 3)]
            assert cache.factorizations == 2
            assert len(orderings) == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k1=st.integers(0, 40),
           k2=st.integers(0, 40))
    def test_update_rule(self, seed, k1, k2):
        # two successive matrices change k1 and k2 random columns of A0
        n = 60
        rng = np.random.default_rng(seed)
        A0 = dominant(n, seed)
        mats = [change_columns(A0, rng.choice(n, size=k, replace=False),
                               seed + i) for i, k in enumerate((k1, k2))]
        bs = rng.standard_normal((3, n))
        for orderings in runs(A0):
            ref, kept, expected = A0.toarray(), set(), 1
            cache = FactorizationCache(orderings)
            for A, b in zip([A0] + mats, bs):
                x = cache.solve(A, b)
                assert residual_norm(A, x, b) \
                    <= RESIDUAL_TOL * np.linalg.norm(b)
                dense = A.toarray()
                S = set(np.flatnonzero((dense != ref).any(axis=0)))
                if len(S) > MAX_UPDATE_RANK \
                        or len(kept | S) > MAX_UPDATE_RANK:
                    ref, kept, expected = dense, set(), expected + 1
                else:
                    kept |= S
                assert cache.factorizations == expected
            assert len(orderings) == 1


def on_pattern(A0, cols, seed):
    """A0 with new values in its stored entries of the columns ``cols``."""
    A = A0.copy()
    hit = np.isin(A.indices, cols)
    A.data[hit] += np.random.default_rng(seed).uniform(0.5, 1.0, hit.sum())
    return A


class TestFactorizationCacheSamePattern:
    """A matrix on the pattern of A0: the changed columns are read from the
    values, and no sparse difference A - A0 is formed.  A matrix on another
    pattern is factored."""

    @pytest.fixture
    def no_difference(self, monkeypatch):
        def forbidden(self, other):
            raise AssertionError("formed A - A0")
        monkeypatch.setattr(sp.csr_matrix, "__sub__", forbidden)

    @pytest.mark.parametrize("k", [1, MAX_UPDATE_RANK])
    def test_few_changed_columns_are_an_update(self, monkeypatch,
                                               no_difference, k):
        solves = counting(monkeypatch)
        n = 60
        A0 = dominant(n, seed=11)
        cols = np.random.default_rng(12).choice(n, size=k, replace=False)
        A1 = on_pattern(A0, cols, seed=13)
        b = np.random.default_rng(14).standard_normal(n)
        for orderings in runs(A0):
            solves.clear()
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            x = cache.solve(A1, b)
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b), rtol=0.0,
                               atol=1e-12)
            assert cache.factorizations == 1
            # one column per right-hand side, and one per changed column
            assert columns(solves) == 2 + k
            assert len(orderings) == 1

    def test_many_changed_columns_are_factored(self, monkeypatch,
                                               no_difference):
        solves = counting(monkeypatch)
        n = 60
        A0 = dominant(n, seed=15)
        A1 = on_pattern(A0, np.arange(MAX_UPDATE_RANK + 1), seed=16)
        b = np.random.default_rng(17).standard_normal(n)
        for orderings in runs(A0):
            solves.clear()
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            x = cache.solve(A1, b)
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b), rtol=0.0,
                               atol=1e-12)
            assert cache.factorizations == 2
            assert len(solves) == 2  # no column of an update was solved
            assert len(orderings) == 1

    def test_new_pattern_is_factored(self, no_difference):
        n = 40
        A0 = dominant(n, seed=18)
        dense = A0.toarray()
        j = int(np.flatnonzero(dense[:, 7] == 0.0)[0])
        dense[j, 7] = 0.5  # one entry outside the pattern of A0
        A1 = on_pattern(sp.csr_matrix(dense), [2, 30], seed=19)
        assert A1.nnz == A0.nnz + 1
        b = np.random.default_rng(20).standard_normal(n)
        cache = FactorizationCache([])
        cache.solve(A0, b)
        x = cache.solve(A1, b)
        assert np.allclose(x, np.linalg.solve(A1.toarray(), b), rtol=0.0,
                           atol=1e-12)
        assert cache.factorizations == 2


def test_supernodes_keep_relax_within_panel_size():
    # a relaxed supernode wider than a panel corrupts SuperLU's heap
    assert 1 <= SUPERNODES["relax"] <= SUPERNODES["panel_size"]


def run_matrices(cfg):
    """A pinned pressure matrix and a transport Jacobian of ``cfg`` at two
    concentrations: two matrices on each of the two patterns."""
    problem = sim.build_problem(cfg)
    gd, mats = problem.gd, []
    for seed in (0, 1):
        c = np.random.default_rng(seed).uniform(0.0, 1.0, gd.ndof)
        G, _ = assembly.pressure_matrix(gd, c, problem.mobility)
        G = G.tocsr()[:-1, :-1]
        G.eliminate_zeros()
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

    def test_first_lu_of_a_pattern_is_the_one_shot_lu(self):
        A = dominant(40, seed=21)
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
        orderings = []
        cache = FactorizationCache(orderings)
        b = np.ones(n)
        for scale in (2.0, 3.0, 4.0):
            A = dominant(n, seed=23) * scale
            x = cache.solve(A, b)
            assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=0.0,
                               atol=1e-12)
        assert cache.factorizations == 3
        assert [spec for spec, _ in splu_calls] == [
            "MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
        assert len(orderings) == 1


class TestNonFiniteUpdate:
    """A non-finite Z_j is rejected where it is computed, before it enters
    the update: the matrix is factored instead."""

    @staticmethod
    def poisoned_column_solve(cache):
        real, calls = cache._lu, []

        def solve(v):  # the first solve after this is a column's Z_j
            calls.append(v)
            x = real.solve(v)
            return np.full_like(x, np.nan) if len(calls) == 1 else x
        cache._lu = SimpleNamespace(solve=solve)
        return calls

    def test_non_finite_column_raises_solver_error(self):
        A0 = dominant(20, seed=24)
        cache = FactorizationCache([])
        cache.solve(A0, np.ones(20))
        self.poisoned_column_solve(cache)
        with pytest.raises(SolverError, match="non-finite low-rank update"):
            cache._update(change_columns(A0, [3], seed=25))

    def test_non_finite_update_is_refactored(self):
        A0 = dominant(20, seed=24)
        A1 = change_columns(A0, [3], seed=25)
        b = np.ones(20)
        for orderings in runs(A0):
            cache = FactorizationCache(orderings)
            cache.solve(A0, b)
            calls = self.poisoned_column_solve(cache)
            x = cache.solve(A1, b)
            assert len(calls) == 1  # the rest was solved with the new LU
            assert np.allclose(x, np.linalg.solve(A1.toarray(), b), rtol=0.0,
                               atol=1e-12)
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
