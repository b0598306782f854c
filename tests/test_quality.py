import numpy as np
import pytest
import scipy.linalg

from gdflow import linalg, quality

from gdflow.gd import GradientDiscretisation, scheme_a, scheme_b
from gdflow.mesh import build_cartesian, build_dual, build_structured_triangulation
from gdflow.quality import (
    coercivity_constant,
    consistency_defect,
    default_test_field,
    default_test_function,
    limit_conformity_defect,
    quality_report,
)


def make_a(n):
    return scheme_a(build_cartesian(n, 1.0))


def make_b(reps):
    mesh = build_structured_triangulation(reps, 1.0)
    return scheme_b(mesh, build_dual(mesh))


@pytest.fixture
def lu_calls(monkeypatch):
    """(factored, solves): the shape of every matrix splu factors, and one
    entry per solve with one of those LUs."""
    factored, solves = [], []
    real = linalg.spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(1)
            return self.lu.solve(b)

    def counting(A, **kwargs):
        factored.append(A.shape)
        return CountingLU(real(A, **kwargs))
    monkeypatch.setattr(linalg.spla, "splu", counting)
    return factored, solves


def dense_ell_matrix(gd):
    K = gd.grad_gram().toarray()
    m = gd.recon_measures
    return K + np.outer(m, m)


class TestCoercivity:
    def test_probe_lower_bound(self):
        gd = make_a(4)
        cd = coercivity_constant(gd)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.standard_normal(gd.ndof)
            ratio = np.sqrt(gd.recon_measures @ gd.pi(w) ** 2) / gd.norm_ell(w)
            assert ratio <= cd + 1e-6

    def test_constant_gives_at_least_one(self):
        gd = make_a(4)
        assert coercivity_constant(gd) >= 1.0 - 1e-10

    def test_dense_pencil_oracle_3x3(self):
        gd = make_a(3)
        P = np.diag(gd.recon_measures)
        H = dense_ell_matrix(gd)
        lam = scipy.linalg.eigh(P, H, eigvals_only=True)[-1]
        assert np.isclose(coercivity_constant(gd), np.sqrt(lam), atol=1e-6)

    def test_scheme_b_oracle(self):
        gd = make_b(2)
        P = np.diag(gd.recon_measures)
        H = dense_ell_matrix(gd)
        lam = scipy.linalg.eigh(P, H, eigvals_only=True)[-1]
        assert np.isclose(coercivity_constant(gd), np.sqrt(lam), atol=1e-6)

    @pytest.mark.parametrize("make, tol", [(lambda: make_a(6), 1e-8),
                                           (lambda: make_a(6), 1e-13),
                                           (lambda: make_b(3), 1e-8)],
                             ids=["a_n6", "a_n6_tight_tol", "b_reps3"])
    def test_factors_once_per_call(self, monkeypatch, lu_calls, make, tol):
        monkeypatch.setattr(quality, "POWER_TOL", tol)
        gd = make()
        factored, solves = lu_calls
        coercivity_constant(gd)
        assert len(solves) > 2   # several power iterations ...
        assert factored == [(gd.ndof, gd.ndof)]   # ... one pinned LU


class TestConsistency:
    def test_constant_function_exact(self):
        gd = make_a(4)
        defect = consistency_defect(
            gd, lambda p: np.ones(len(p)), lambda p: np.zeros((len(p), 2)))
        assert defect <= 1e-6

    def test_affine_function_first_order(self):
        # the gradient part is exact; the piecewise-constant reconstruction
        # leaves an O(h) defect that halves with the mesh size
        def f(p):
            return 2.0 * p[:, 0] - p[:, 1]

        def grad_f(p):
            return np.tile([2.0, -1.0], (len(p), 1))

        coarse = consistency_defect(make_b(2), f, grad_f)
        fine = consistency_defect(make_b(4), f, grad_f)
        assert fine < 0.6 * coarse

    def test_decreases_under_refinement(self):
        f, grad_f = default_test_function()
        vals = [consistency_defect(make_a(n), f, grad_f) for n in (4, 8, 16)]
        assert vals[0] > vals[1] > vals[2]

    def test_dense_least_squares_oracle_3x3(self):
        gd = make_a(3)
        f, grad_f = default_test_function()
        rq, gq = gd.recon_quad, gd.grad_quad
        fv = f(rq.points)
        gv = grad_f(gq.points)
        Gx = gd.grad_x.toarray()
        Gy = gd.grad_y.toarray()

        def cell_int(quad, vals, n_cells):
            out = np.zeros(n_cells)
            np.add.at(out, quad.cells, quad.weights * vals)
            return out

        # the reconstruction is the identity on dof vectors
        rhs = (cell_int(rq, fv, gd.ndof)
               + Gx.T @ cell_int(gq, gv[:, 0], gd.n_grad_cells)
               + Gy.T @ cell_int(gq, gv[:, 1], gd.n_grad_cells))
        A = np.diag(gd.recon_measures) + gd.grad_gram().toarray()
        w = np.linalg.solve(A, rhs)
        gw = np.column_stack([Gx @ w, Gy @ w])
        err_pi = (gd.recon_measures @ w ** 2 - 2 * w @ cell_int(rq, fv, gd.ndof)
                  + rq.weights @ fv ** 2)
        err_g = (gd.grad_measures @ (gw ** 2).sum(axis=1)
                 - 2 * w @ (Gx.T @ cell_int(gq, gv[:, 0], gd.n_grad_cells)
                            + Gy.T @ cell_int(gq, gv[:, 1], gd.n_grad_cells))
                 + gq.weights @ (gv ** 2).sum(axis=1))
        oracle = np.sqrt(max(err_pi, 0.0)) + np.sqrt(max(err_g, 0.0))
        assert np.isclose(consistency_defect(gd, f, grad_f), oracle, atol=1e-8)


class TestLimitConformity:
    def test_zero_field(self):
        gd = make_a(4)
        defect = limit_conformity_defect(
            gd, lambda p: np.zeros((len(p), 2)), lambda p: np.zeros(len(p)))
        assert defect == 0.0

    def test_nonzero_normal_trace_rejected(self):
        with pytest.raises(ValueError, match="nonzero normal trace"):
            limit_conformity_defect(
                make_a(4), lambda p: np.column_stack([np.ones(len(p)),
                                                      np.zeros(len(p))]),
                lambda p: np.zeros(len(p)))

    def test_decreases_under_refinement(self):
        phi, div_phi = default_test_field()
        vals = [limit_conformity_defect(make_a(n), phi, div_phi)
                for n in (4, 8, 16)]
        assert vals[0] > vals[1] > vals[2]

    def test_dense_factorisation_oracle_3x3(self):
        gd = make_a(3)
        phi, div_phi = default_test_field()
        rq, gq = gd.recon_quad, gd.grad_quad
        pv = phi(gq.points)
        dv = div_phi(rq.points)

        def cell_int(quad, vals, n_cells):
            out = np.zeros(n_cells)
            np.add.at(out, quad.cells, quad.weights * vals)
            return out

        ell = (gd.grad_x.toarray().T @ cell_int(gq, pv[:, 0], gd.n_grad_cells)
               + gd.grad_y.toarray().T @ cell_int(gq, pv[:, 1], gd.n_grad_cells)
               + cell_int(rq, dv, gd.ndof))
        H = dense_ell_matrix(gd)
        oracle = np.sqrt(ell @ np.linalg.solve(H, ell))
        assert np.isclose(limit_conformity_defect(gd, phi, div_phi), oracle,
                          atol=1e-8)


class TestSharedFactorisation:
    """C_D and W_D solve with the LU of the pinned elliptic matrix E, which
    also preconditions the CG solve of S_D; the LU of the last
    discretisation asked for is kept."""

    def test_three_indicators_factor_once(self, lu_calls):
        factored, _ = lu_calls
        first, second = make_a(6), make_b(3)
        pinned = [(gd.ndof, gd.ndof) for gd in (first, second)]
        quality_report(first)
        assert factored == pinned[:1]   # the pinned LU and no other
        quality_report(second)
        assert factored == pinned
        quality_report(first)
        assert factored == pinned + pinned[:1]

    def test_gram_assembled_once(self, monkeypatch):
        """S_D forms M + G from the G kept next to the LU of E."""
        assembled = []
        real = GradientDiscretisation.grad_gram

        def counting(gd, *args, **kwargs):
            assembled.append(id(gd))
            return real(gd, *args, **kwargs)
        monkeypatch.setattr(GradientDiscretisation, "grad_gram", counting)
        first, second = make_a(6), make_b(3)
        quality_report(first)
        assert assembled == [id(first)]
        quality_report(second)
        assert assembled == [id(first), id(second)]

    @pytest.mark.parametrize("make", [lambda: make_a(64), lambda: make_b(32)],
                             ids=["a_n64", "b_reps32"])
    def test_cg_iterations_mesh_independent(self, monkeypatch, make):
        iters = []
        real = linalg.spla.cg

        def counting(*args, **kwargs):
            return real(*args, callback=lambda xk: iters.append(1), **kwargs)
        monkeypatch.setattr(linalg.spla, "cg", counting)
        consistency_defect(make(), *default_test_function())
        assert 0 < len(iters) <= 12

    @pytest.mark.parametrize("make", [lambda: make_a(16), lambda: make_b(8)],
                             ids=["a_n16", "b_reps8"])
    def test_consistency_matches_direct_lu(self, monkeypatch, make):
        gd = make()
        f, grad_f = default_test_function()
        pcg = consistency_defect(gd, f, grad_f)
        monkeypatch.setattr(linalg, "solve_pcg",
                            lambda A, b, precond: linalg.solve_spd(A, b))
        direct = consistency_defect(gd, f, grad_f)
        assert abs(pcg - direct) <= 1e-11 * direct

    def test_cell_integrals_match_scatter_add(self):
        f, _ = default_test_function()
        for gd in (make_a(8), make_b(8)):
            for quad, n in ((gd.recon_quad, gd.ndof),
                            (gd.grad_quad, gd.n_grad_cells)):
                vals = f(quad.points)
                ref = np.zeros(n)
                np.add.at(ref, quad.cells, quad.weights * vals)
                assert np.array_equal(quality._cell_integrals(quad, vals, n),
                                      ref)


class TestQualityReport:
    def test_report_fields(self):
        rep = quality_report(make_a(4))
        assert rep.ndof == 25
        assert rep.coercivity >= 1.0 - 1e-10
        assert rep.consistency > 0.0
        assert rep.limit_conformity > 0.0
