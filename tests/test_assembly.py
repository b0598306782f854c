import numpy as np
import pytest
import scipy.sparse as sp

from gdflow.assembly import (
    ConfigurationError,
    DirichletBC,
    artificial_diffusion,
    convection_matrix,
    diffusion_matrix,
    discretize_sources,
    eliminate_dirichlet,
    mass_balance_residual,
    pressure_matrix,
    solve_pressure,
    transport_step,
)
from gdflow.gd import scheme_a, scheme_b
from gdflow.mesh import build_cartesian, build_dual, build_structured_triangulation
from gdflow.physics import (
    DispersionParams,
    MobilityTensor,
    SourceModel,
    ViscosityModel,
    five_spot_sources,
    radial_test_sources,
)


def make_a(n=3, L=1.0):
    return scheme_a(build_cartesian(n, L))


def make_b(reps=2, L=1.0):
    mesh = build_structured_triangulation(reps, L)
    return scheme_b(mesh, build_dual(mesh))


def unit_mobility():
    return MobilityTensor(k=1.0, viscosity_model=ViscosityModel(M=1.0))


class TestDiscreteSources:
    def test_dirac_lands_on_anchored_dof(self):
        gd = make_a(4)
        dsrc = discretize_sources(gd, five_spot_sources(1.0, 2.0))
        corner = int(np.argmin(((gd.anchors - [1.0, 1.0]) ** 2).sum(axis=1)))
        origin = int(np.argmin((gd.anchors ** 2).sum(axis=1)))
        assert dsrc.q_injection[corner] == 2.0
        assert dsrc.q_injection.sum() == 2.0
        assert dsrc.q_production[origin] == 2.0

    def test_off_grid_well_rejected(self):
        gd = make_a(4)
        src = SourceModel(injections=(((0.513, 0.1), 1.0),),
                          productions=(((0.0, 0.0), 1.0),))
        with pytest.raises(ConfigurationError, match="well point"):
            discretize_sources(gd, src)

    @pytest.mark.parametrize("make", [make_a, make_b], ids=["a", "b"])
    def test_lineic_weights_balance(self, make):
        gd = make(4)
        dsrc = discretize_sources(gd, radial_test_sources())
        assert np.isclose(dsrc.q_production.sum(), np.pi / 2.0)
        assert np.all(dsrc.q_production >= 0.0)
        # only dofs on the bottom/left edges produce
        x, y = gd.anchors[:, 0], gd.anchors[:, 1]
        off_edge = (x > 1e-12) & (y > 1e-12)
        assert np.all(dsrc.q_production[off_edge] == 0.0)
        assert np.isclose(dsrc.pressure_rhs().sum(), 0.0, atol=1e-14)


@pytest.mark.parametrize("make", [make_a, make_b], ids=["a", "b"])
class TestPressure:
    def test_zero_sources(self, make):
        gd = make(3)
        dsrc = discretize_sources(
            gd, SourceModel(injections=(), productions=()))
        p, U, info = solve_pressure(gd, np.zeros(gd.ndof), unit_mobility(), dsrc)
        assert np.allclose(p, 0.0)
        assert np.allclose(U, 0.0)

    def test_zero_mean_and_residual(self, make):
        gd = make(4)
        dsrc = discretize_sources(gd, five_spot_sources(1.0, 3.0))
        c = np.linspace(0.0, 1.0, gd.ndof)
        mobility = MobilityTensor(k=1.0, viscosity_model=ViscosityModel(M=40.0))
        p, U, info = solve_pressure(gd, c, mobility, dsrc)
        assert abs(info["pressure_mean"]) <= 1e-10 * max(info["rhs_norm"], 1.0)
        assert info["residual"] <= 1e-9 * info["rhs_norm"]

    def test_matrix_is_symmetric_with_zero_row_sums(self, make):
        gd = make(3)
        c = np.linspace(0.0, 1.0, gd.ndof)
        mobility = MobilityTensor(k=2.0, viscosity_model=ViscosityModel(M=10.0))
        G, a = pressure_matrix(gd, c, mobility)
        dense = G.toarray()
        assert np.allclose(dense, dense.T)
        assert np.allclose(dense @ np.ones(gd.ndof), 0.0, atol=1e-12)
        # k / mu(c) over c in [0, 1] spans [k, k M] = [2, 20]
        assert np.all(a >= 2.0 - 1e-12) and np.all(a <= 20.0 + 1e-12)


class TestConvection:
    def test_zero_velocity(self):
        gd = make_a(3)
        U = np.zeros((gd.n_grad_cells, 2))
        C = convection_matrix(gd, U, "centred")
        assert C.nnz == 0 or np.allclose(C.toarray(), 0.0)

    def test_columns_sum_to_zero_for_constant_test(self):
        # pairing against 1_D vanishes since grad(1_D) = 0
        gd = make_a(4)
        rng = np.random.default_rng(5)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        for variant in ("centred", "upstream"):
            C = convection_matrix(gd, U, variant)
            assert np.allclose(np.ones(gd.ndof) @ C.toarray(), 0.0, atol=1e-12)

    def test_artificial_diffusion_dense_oracle(self):
        gd = make_a(3)
        rng = np.random.default_rng(11)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        C = convection_matrix(gd, U, "centred")
        S = artificial_diffusion(C).toarray()
        dense = C.toarray()
        n = dense.shape[0]
        oracle = np.zeros_like(dense)
        for i in range(n):
            for j in range(n):
                if i != j:
                    d = max(0.0, dense[i, j], dense[j, i])
                    oracle[i, j] = -d
                    oracle[i, i] += d
        assert np.allclose(S, oracle, atol=1e-14)
        assert np.allclose(S @ np.ones(n), 0.0, atol=1e-12)

    def test_upstream_has_nonpositive_offdiagonals(self):
        gd = make_a(3)
        rng = np.random.default_rng(2)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        M = convection_matrix(gd, U, "upstream").toarray()
        off = M - np.diag(np.diag(M))
        assert np.all(off <= 1e-13)

    def test_unknown_variant(self):
        gd = make_a(3)
        U = np.zeros((gd.n_grad_cells, 2))
        with pytest.raises(ConfigurationError):
            convection_matrix(gd, U, "weird")


class TestDiffusionMatrix:
    @pytest.mark.parametrize("variant", ["centred", "upstream", "dh"])
    def test_spd_on_random_velocity(self, variant):
        gd = make_b(2)
        rng = np.random.default_rng(8)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        params = DispersionParams(phi=0.1, dm=1.0, dl=5.0, dt_=0.5)
        D = diffusion_matrix(gd, U, params, variant).toarray()
        assert np.allclose(D, D.T)
        eig = np.linalg.eigvalsh(D)
        assert eig.min() >= -1e-10

    def test_dh_adds_diffusion(self):
        gd = make_a(4)
        U = np.tile([1.0, 0.0], (gd.n_grad_cells, 1))
        params = DispersionParams(phi=1.0, dm=1e-6)
        w = gd.interpolate(lambda p: p[:, 0])
        D0 = diffusion_matrix(gd, U, params, "centred")
        Dh = diffusion_matrix(gd, U, params, "dh")
        assert w @ (Dh @ w) > w @ (D0 @ w)


class TestDirichlet:
    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            DirichletBC(dofs=np.array([], dtype=int), values=np.array([]))

    def test_elimination_oracle(self):
        rng = np.random.default_rng(4)
        A = sp.csr_matrix(rng.standard_normal((6, 6)) + 6 * np.eye(6))
        b = rng.standard_normal(6)
        bc = DirichletBC(dofs=np.array([1, 4]), values=np.array([2.0, -1.0]))
        A_ff, b_f, free_idx = eliminate_dirichlet(A, b, bc)
        x = np.empty(6)
        x[bc.dofs] = bc.values
        x[free_idx] = np.linalg.solve(A_ff.toarray(), b_f)
        # full residual vanishes at the free rows
        r = A @ x - b
        assert np.allclose(r[free_idx], 0.0, atol=1e-12)


class TestTransportStep:
    def params(self):
        return DispersionParams(phi=0.1, dm=1.0)

    def test_mass_conserved_without_sources(self):
        gd = make_a(4)
        dsrc = discretize_sources(
            gd, SourceModel(injections=(), productions=()))
        rng = np.random.default_rng(6)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = np.clip(rng.random(gd.ndof), 0.0, 1.0)
        params = self.params()
        c, info = transport_step(gd, U, c_prev, 0.1, dsrc, params, "centred")
        m0 = params.phi * gd.recon_measures @ c_prev
        m1 = params.phi * gd.recon_measures @ c
        assert abs(m1 - m0) <= 1e-10 * max(abs(m0), 1.0)

    def test_constant_fixed_point(self):
        gd = make_b(2)
        dsrc = discretize_sources(gd, five_spot_sources(1.0, 2.0))
        c_prev = np.ones(gd.ndof)
        _, U, _ = solve_pressure(gd, c_prev, unit_mobility(), dsrc)
        c, info = transport_step(gd, U, c_prev, 0.05, dsrc, self.params(),
                                 "centred")
        assert np.max(np.abs(c - 1.0)) <= 1e-10

    def test_identity_truncation_comparison(self):
        # when the solution stays inside [0,1] the truncated system matches
        # the plain linear system
        gd = make_a(4)
        dsrc = discretize_sources(
            gd, SourceModel(injections=(), productions=()))
        rng = np.random.default_rng(10)
        U = 0.1 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = 0.25 + 0.5 * rng.random(gd.ndof)
        params = self.params()
        dt = 0.05
        c, info = transport_step(gd, U, c_prev, dt, dsrc, params, "centred")
        assert np.all(c >= -1e-9) and np.all(c <= 1.0 + 1e-9)
        mass = params.phi * gd.recon_measures
        base = sp.diags(mass / dt) + diffusion_matrix(gd, U, params, "centred")
        C = convection_matrix(gd, U, "centred")
        linear = np.linalg.solve((base + C).toarray(), mass * c_prev / dt)
        assert np.allclose(c, linear, atol=1e-8)

    def test_dirichlet_values_enforced_and_lifted(self):
        gd = make_a(4)
        dsrc = discretize_sources(gd, radial_test_sources(),
                                  production_in_transport=False)
        rng = np.random.default_rng(12)
        U = 0.2 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = np.zeros(gd.ndof)
        x, y = gd.anchors[:, 0], gd.anchors[:, 1]
        dofs = np.flatnonzero((np.abs(y) < 1e-12) & (x < 1.0 - 1e-12))
        bc = DirichletBC(dofs=dofs, values=np.full(len(dofs), 0.25))
        params = self.params()
        dt = 0.05
        c, info = transport_step(gd, U, c_prev, dt, dsrc, params, "centred",
                                 dirichlet=bc)
        assert np.allclose(c[dofs], 0.25)
        # interior residual of the full nonlinear equation
        mass = params.phi * gd.recon_measures
        base = sp.diags(mass / dt) + diffusion_matrix(gd, U, params, "centred")
        C = convection_matrix(gd, U, "centred")
        r = base @ c + C @ np.clip(c, 0.0, 1.0) \
            - mass * c_prev / dt - dsrc.chat * dsrc.q_injection
        free = np.ones(gd.ndof, dtype=bool)
        free[dofs] = False
        assert np.max(np.abs(r[free])) <= 1e-9

    def test_picard_reports_iterations(self):
        gd = make_a(3)
        dsrc = discretize_sources(
            gd, SourceModel(injections=(), productions=()))
        U = np.zeros((gd.n_grad_cells, 2))
        c, info = transport_step(gd, U, np.zeros(gd.ndof), 0.1, dsrc,
                                 self.params(), "centred")
        assert info["picard_iters"] >= 1
        assert info["picard_relative"] <= 1e-9 or info["picard_residual"] == 0.0


class TestMassBalanceResidual:
    def test_consistent_step_has_small_residual(self):
        gd = make_a(5)
        dsrc = discretize_sources(gd, five_spot_sources(1.0, 2.0))
        mobility = unit_mobility()
        params = DispersionParams(phi=0.1, dm=0.5)
        c_prev = np.zeros(gd.ndof)
        p, U, _ = solve_pressure(gd, c_prev, mobility, dsrc)
        c, _ = transport_step(gd, U, c_prev, 0.05, dsrc, params, "centred")
        res = mass_balance_residual(gd, c_prev, c, 0.05, dsrc, params)
        assert res <= 1e-9
