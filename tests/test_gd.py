import numpy as np
import pytest

from gdflow import gd as gd_module
from gdflow.gd import scheme_a, scheme_b
from gdflow.mesh import (
    TriangularMesh,
    build_cartesian,
    build_dual,
    build_structured_triangulation,
)

from oracles import loop_dual_subpoints, loop_gauss4_points, loop_p1_gradients


def make_a(n=3, L=1.0):
    return scheme_a(build_cartesian(n, L))


def make_b(reps=2, L=1.0):
    mesh = build_structured_triangulation(reps, L)
    return scheme_b(mesh, build_dual(mesh))


class TestSchemeAStructure:
    def test_grad_cell_count_and_measures(self):
        gd = make_a(2)
        assert gd.n_grad_cells == 16
        assert np.allclose(gd.grad_measures, gd.h ** 2 / 4.0)
        assert np.isclose(gd.grad_measures.sum(), 1.0)

    def test_constant_reconstruction_and_zero_gradient(self):
        gd = make_a(4)
        w = np.full(gd.ndof, 3.7)
        assert np.allclose(gd.pi(w), 3.7)
        assert np.allclose(gd.grad(w), 0.0)

    def test_affine_exactness(self):
        gd = make_a(5)
        w = gd.interpolate(lambda p: p[:, 0])
        assert np.allclose(gd.grad(w), [1.0, 0.0])
        w = gd.interpolate(lambda p: 2.0 * p[:, 1] - p[:, 0])
        assert np.allclose(gd.grad(w), [-1.0, 2.0])

    def test_overlap_rows_are_unit(self):
        gd = make_a(3)
        assert np.allclose(np.asarray(gd.overlap.sum(axis=1)).ravel(), 1.0)
        assert np.all(gd.overlap.data == 1.0)

    def test_overlap_column_measures_match_recon(self):
        # each dof owns exactly the quadrants inside its reconstruction box
        gd = make_a(3)
        owned = gd.overlap.T @ gd.grad_measures
        assert np.allclose(owned, gd.recon_measures)


class TestSchemeBStructure:
    def test_hand_p1_gradient(self):
        mesh = TriangularMesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]))
        gd = scheme_b(mesh, build_dual(mesh))
        w = np.array([0.0, 1.0, 0.0])
        assert np.allclose(gd.grad(w), [[1.0, 0.0]])

    def test_affine_exactness(self):
        gd = make_b(3)
        w = gd.interpolate(lambda p: 0.5 + 2.0 * p[:, 0] - 3.0 * p[:, 1])
        assert np.allclose(gd.grad(w), [2.0, -3.0])

    def test_constant(self):
        gd = make_b(2)
        w = np.full(gd.ndof, -1.25)
        assert np.allclose(gd.pi(w), -1.25)
        assert np.allclose(gd.grad(w), 0.0)

    def test_overlap_rows(self):
        gd = make_b(2)
        assert np.allclose(np.asarray(gd.overlap.sum(axis=1)).ravel(), 1.0)
        assert np.allclose(gd.overlap.data, 1.0 / 3.0)

    def test_measures_partition(self):
        gd = make_b(3)
        assert np.isclose(gd.recon_measures.sum(), 1.0)
        assert np.isclose(gd.grad_measures.sum(), 1.0)

    def test_matches_loop_construction(self):
        mesh = build_structured_triangulation(3, 1.0)
        vertices = mesh.vertices.copy()
        inner = np.all((vertices > 1e-9) & (vertices < 1.0 - 1e-9), axis=1)
        vertices[inner] += np.random.default_rng(2).uniform(
            -0.04, 0.04, (int(inner.sum()), 2))
        mesh = TriangularMesh(vertices=vertices, triangles=mesh.triangles)
        gd = scheme_b(mesh, build_dual(mesh))
        rows = np.repeat(np.arange(mesh.n_triangles), 3)
        for built, ref in zip((gd.grad_x, gd.grad_y), loop_p1_gradients(mesh)):
            dense = np.zeros((mesh.n_triangles, gd.ndof))
            dense[rows, mesh.triangles.ravel()] = ref.ravel()
            assert np.array_equal(built.toarray(), dense)
        assert np.array_equal(gd.recon_quad.points, loop_dual_subpoints(mesh))


def test_gauss4_matches_loop():
    rng = np.random.default_rng(4)
    x0, y0 = rng.random(7), rng.random(7)
    x1, y1 = x0 + rng.random(7), y0 + rng.random(7)
    quad = gd_module._gauss4(x0, x1, y0, y1, np.arange(7))
    assert np.array_equal(quad.points, loop_gauss4_points(x0, x1, y0, y1))


@pytest.mark.parametrize("gd", [make_a(3), make_b(2)], ids=["a", "b"])
class TestNorms:
    def test_ones(self, gd):
        w = np.ones(gd.ndof)
        assert np.isclose(gd.norm_ell(w), 1.0)

    def test_zero(self, gd):
        w = np.zeros(gd.ndof)
        assert gd.norm_ell(w) == 0.0

    def test_dense_gram_oracle(self, gd):
        rng = np.random.default_rng(42)
        Gx = gd.grad_x.toarray()
        Gy = gd.grad_y.toarray()
        Mg = np.diag(gd.grad_measures)
        K = Gx.T @ Mg @ Gx + Gy.T @ Mg @ Gy
        m = gd.recon_measures
        for _ in range(5):
            w = rng.standard_normal(gd.ndof)
            ell = np.sqrt(w @ K @ w + (m @ w) ** 2)
            assert np.isclose(gd.norm_ell(w), ell, rtol=1e-12)
        assert np.allclose(gd.grad_gram().toarray(), K)

    def test_weighted_gram_dense_oracle(self, gd):
        rng = np.random.default_rng(3)
        a11, a22, a12 = rng.random((3, gd.n_grad_cells))
        Gx = gd.grad_x.toarray()
        Gy = gd.grad_y.toarray()
        K = np.zeros((gd.ndof, gd.ndof))
        for g, mg in enumerate(gd.grad_measures):
            B = np.stack([Gx[g], Gy[g]])  # the cell's gradient rows
            A = np.array([[a11[g], a12[g]], [a12[g], a22[g]]])
            K += mg * B.T @ A @ B
        assert np.allclose(gd.grad_gram(a11, a22, a12).toarray(), K)
        assert np.array_equal(gd.grad_gram(1.0, 1.0, 0.0).toarray(),
                              gd.grad_gram().toarray())


@pytest.mark.parametrize("make", [make_a, make_b], ids=["a", "b"])
class TestInterpolation:
    def test_constant(self, make):
        gd = make(3)
        w = gd.interpolate(lambda p: np.full(len(p), 2.5))
        assert np.allclose(gd.pi(w), 2.5)

    def test_refinement_decreases_l2_error(self, make):
        def f(p):
            return np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

        errs = []
        for n in (2, 4, 8):
            gd = make(n)
            w = gd.interpolate(f)
            # midpoint-quadrature distance on the reconstruction cells
            diff = gd.pi(w)[gd.recon_quad.cells] - f(gd.recon_quad.points)
            errs.append(np.sqrt(gd.recon_quad.weights @ diff ** 2))
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("gd", [make_a(3), make_b(2)], ids=["a", "b"])
class TestQuadratures:
    def test_weights_partition_measures(self, gd):
        for quad, measures in ((gd.recon_quad, gd.recon_measures),
                               (gd.grad_quad, gd.grad_measures)):
            per_cell = np.zeros(len(measures))
            np.add.at(per_cell, quad.cells, quad.weights)
            assert np.allclose(per_cell, measures)

    def test_affine_integral_exact(self, gd):
        # int over (0,1)^2 of (x + 2y) = 1.5
        for quad in (gd.recon_quad, gd.grad_quad):
            vals = quad.points[:, 0] + 2.0 * quad.points[:, 1]
            assert np.isclose(quad.weights @ vals, 1.5)
