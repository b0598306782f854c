import numpy as np
import scipy.linalg

from gdflow.gd import scheme_a, scheme_b
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


def dense_ell_matrix(gd):
    K = gd.grad_gram().toarray()
    m = gd.mean_vector()
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
        P = gd.pi_gram().toarray()
        H = dense_ell_matrix(gd)
        lam = scipy.linalg.eigh(P, H, eigvals_only=True)[-1]
        assert np.isclose(coercivity_constant(gd), np.sqrt(lam), atol=1e-6)

    def test_scheme_b_oracle(self):
        gd = make_b(2)
        P = gd.pi_gram().toarray()
        H = dense_ell_matrix(gd)
        lam = scipy.linalg.eigh(P, H, eigvals_only=True)[-1]
        assert np.isclose(coercivity_constant(gd), np.sqrt(lam), atol=1e-6)


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
        A = gd.pi_gram().toarray() + gd.grad_gram().toarray()
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


class TestQualityReport:
    def test_report_fields(self):
        rep = quality_report(make_a(4))
        assert rep.ndof == 25
        assert rep.coercivity >= 1.0 - 1e-10
        assert rep.consistency["sin_product"] > 0.0
        assert rep.limit_conformity["curl_bubble"] > 0.0
