import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdflow.assembly import (
    PICARD_MAX_ITER,
    VARIANTS,
    ConfigError,
    PicardError,
    DiscreteSources,
    TransportOperator,
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
from gdflow import gd as gd_module
from gdflow.gd import scheme_a, scheme_b
from gdflow.linalg import residual_norm
from gdflow.mesh import build_cartesian, build_dual, \
    build_structured_triangulation, load_mesh
from gdflow.physics import DispersionParams, MobilityTensor, tensor_D_field
from gdflow.sim import TESTS, RunConfig, build_problem, run_coupled
import oracles
from oracles import save_mesh, transport_jacobian, transport_matrices


def make_a(n=3, L=1.0):
    return scheme_a(build_cartesian(n, L))


def make_b(reps=2, L=1.0):
    mesh = build_structured_triangulation(reps, L)
    return scheme_b(mesh, build_dual(mesh))


def no_sources(gd):
    return DiscreteSources(q_injection=np.zeros(gd.ndof),
                           q_production=np.zeros(gd.ndof))


def unit_mobility():
    return MobilityTensor(k=1.0, M=1.0)


def pressure_residual(gd, c_prev, mobility, dsrc, p):
    """||(G + m m^T) p - b|| of the pressure system, recomputed, with the
    mean functional m = recon_measures / |Omega|."""
    G, _ = pressure_matrix(gd, c_prev, mobility)
    return residual_norm(G, p, dsrc.pressure_rhs(),
                         rank_one=gd.recon_measures / gd.domain_area)


def step(gd, U, c_prev, dt, dsrc, params, variant, dofs=None, values=None):
    """transport_step on the operator of (U, dt), with ``values`` on the
    Dirichlet ``dofs``."""
    op = TransportOperator(gd, U, dt, dsrc, params, variant, [], dofs)
    return transport_step(op, c_prev, dirichlet=values)


class TestDiscreteSources:
    def test_dirac_lands_on_anchored_dof(self):
        gd = make_a(4)
        dsrc = discretize_sources(gd, 1.0, 2.0)
        corner = int(np.argmin(((gd.anchors - [1.0, 1.0]) ** 2).sum(axis=1)))
        origin = int(np.argmin((gd.anchors ** 2).sum(axis=1)))
        assert dsrc.q_injection[corner] == 2.0
        assert dsrc.q_injection.sum() == 2.0
        assert dsrc.q_production[origin] == 2.0

    def test_off_grid_well_rejected(self):
        gd = make_a(4)
        # the grid has side 1 and spacing 0.25: no dof at (0.9, 0.9)
        with pytest.raises(ConfigError, match="well point"):
            discretize_sources(gd, 0.9, 1.0)

    @pytest.mark.parametrize("make", [make_a, make_b], ids=["a", "b"])
    def test_lineic_weights_balance(self, make):
        gd = make(4)
        dsrc = discretize_sources(gd, 1.0, None)
        assert np.isclose(dsrc.q_production.sum(), np.pi / 2.0)
        assert np.all(dsrc.q_production >= 0.0)
        # only dofs on the bottom/left edges produce
        x, y = gd.anchors[:, 0], gd.anchors[:, 1]
        off_edge = (x > 1e-12) & (y > 1e-12)
        assert np.all(dsrc.q_production[off_edge] == 0.0)
        assert np.isclose(dsrc.pressure_rhs().sum(), 0.0, atol=1e-14)

    @pytest.mark.parametrize("size", [{"n": 8}, {"reps": 4}], ids=["a", "b"])
    @pytest.mark.parametrize("test", TESTS)
    def test_pressure_rhs_sums_to_zero(self, test, size):
        # spd_solver's residual check with the mean functional holds only
        # for |sum(b)| << ||b||: every built-in test's pressure b has it
        scheme = "a" if "n" in size else "b"
        dt = 0.1 if test.startswith("analytic") else 18.0
        b = build_problem(RunConfig(test=test, scheme=scheme, dt=dt,
                                    **size)).dsrc.pressure_rhs()
        assert abs(b.sum()) <= 1e-14 * np.linalg.norm(b), b.sum()


@pytest.mark.parametrize("make", [make_a, make_b], ids=["a", "b"])
class TestPressure:
    def test_zero_sources(self, make):
        gd = make(3)
        dsrc = no_sources(gd)
        p, U, info = solve_pressure(gd, np.zeros(gd.ndof), unit_mobility(),
                                    dsrc, [])
        assert np.allclose(p, 0.0)
        assert np.allclose(U, 0.0)

    def test_zero_mean_and_residual(self, make):
        gd = make(4)
        dsrc = discretize_sources(gd, 1.0, 3.0)
        c = np.linspace(0.0, 1.0, gd.ndof)
        mobility = MobilityTensor(k=1.0, M=40.0)
        p, U, info = solve_pressure(gd, c, mobility, dsrc, [])
        assert abs(info["pressure_mean"]) <= 1e-10 * max(info["pressure_rhs_norm"], 1.0)
        assert pressure_residual(gd, c, mobility, dsrc, p) \
            <= 1e-9 * info["pressure_rhs_norm"]

    def test_matrix_is_symmetric_with_zero_row_sums(self, make):
        gd = make(3)
        c = np.linspace(0.0, 1.0, gd.ndof)
        mobility = MobilityTensor(k=2.0, M=10.0)
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
        with pytest.raises(ConfigError, match="unknown convection variant"):
            convection_matrix(gd, U, "weird")
        with pytest.raises(ConfigError, match="unknown convection variant"):
            diffusion_matrix(gd, U, DispersionParams(phi=0.1, dm=1.0),
                             "weird")


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
        gd = make_a(3)
        with pytest.raises(ConfigError, match="empty Dirichlet dof set"):
            TransportOperator(gd, np.zeros((gd.n_grad_cells, 2)), 0.1,
                              no_sources(gd), DispersionParams(phi=0.1, dm=1.0),
                              "centred", [],
                              dirichlet_dofs=np.array([], dtype=int))

    def test_identity_rows_in_place(self):
        """The Dirichlet rows of a matrix on the operator's pattern become
        identity rows; the other rows and the shared index arrays of the
        pattern stay as they are."""
        gd = make_a(3)
        dofs = np.array([0, 2, 7])
        op = TransportOperator(gd, np.zeros((gd.n_grad_cells, 2)), 0.1,
                               no_sources(gd), DispersionParams(phi=0.1,
                                                                dm=1.0),
                               "centred", [], dofs)
        P = gd.pattern()
        A = P.matrix(np.random.default_rng(4).standard_normal(P.nnz))
        dense = A.toarray()
        assert eliminate_dirichlet(A, op.dirichlet_rows) is A
        free = np.setdiff1d(np.arange(gd.ndof), dofs)
        assert np.array_equal(A.toarray()[dofs], np.eye(gd.ndof)[dofs])
        assert np.array_equal(A.toarray()[free], dense[free])
        for part in ("indices", "indptr"):
            assert np.shares_memory(getattr(A, part), getattr(P, part))


class TestTransportStep:
    def params(self):
        return DispersionParams(phi=0.1, dm=1.0)

    def test_mass_conserved_without_sources(self):
        gd = make_a(4)
        dsrc = no_sources(gd)
        rng = np.random.default_rng(6)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = np.clip(rng.random(gd.ndof), 0.0, 1.0)
        params = self.params()
        c, info = step(gd, U, c_prev, 0.1, dsrc, params, "centred")
        m0 = params.phi * gd.recon_measures @ c_prev
        m1 = params.phi * gd.recon_measures @ c
        assert abs(m1 - m0) <= 1e-10 * max(abs(m0), 1.0)

    def test_constant_fixed_point(self):
        gd = make_b(2)
        dsrc = discretize_sources(gd, 1.0, 2.0)
        c_prev = np.ones(gd.ndof)
        _, U, _ = solve_pressure(gd, c_prev, unit_mobility(), dsrc, [])
        c, info = step(gd, U, c_prev, 0.05, dsrc, self.params(),
                                 "centred")
        assert np.max(np.abs(c - 1.0)) <= 1e-10

    def test_identity_truncation_comparison(self):
        # when the solution stays inside [0,1] the truncated system matches
        # the plain linear system
        gd = make_a(4)
        dsrc = no_sources(gd)
        rng = np.random.default_rng(10)
        U = 0.1 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = 0.25 + 0.5 * rng.random(gd.ndof)
        params = self.params()
        dt = 0.05
        c, info = step(gd, U, c_prev, dt, dsrc, params, "centred")
        assert np.all(c >= -1e-9) and np.all(c <= 1.0 + 1e-9)
        mass = params.phi * gd.recon_measures
        base = sp.diags(mass / dt) + diffusion_matrix(gd, U, params, "centred")
        C = convection_matrix(gd, U, "centred")
        linear = np.linalg.solve((base + C).toarray(), mass * c_prev / dt)
        assert np.allclose(c, linear, atol=1e-8)

    def test_dirichlet_values_enforced_and_lifted(self):
        gd = make_a(4)
        dsrc = discretize_sources(gd, 1.0, None)
        rng = np.random.default_rng(12)
        U = 0.2 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = np.zeros(gd.ndof)
        x, y = gd.anchors[:, 0], gd.anchors[:, 1]
        dofs = np.flatnonzero((np.abs(y) < 1e-12) & (x < 1.0 - 1e-12))
        params = self.params()
        dt = 0.05
        c, info = step(gd, U, c_prev, dt, dsrc, params, "centred",
                       dofs=dofs, values=np.full(len(dofs), 0.25))
        assert np.allclose(c[dofs], 0.25)
        # interior residual of the full nonlinear equation, with the
        # production reaction on the left edge
        mass = params.phi * gd.recon_measures
        base = sp.diags(mass / dt + dsrc.q_production) \
            + diffusion_matrix(gd, U, params, "centred")
        C = convection_matrix(gd, U, "centred")
        r = base @ c + C @ np.clip(c, 0.0, 1.0) \
            - mass * c_prev / dt - dsrc.q_injection
        free = np.ones(gd.ndof, dtype=bool)
        free[dofs] = False
        assert np.max(np.abs(r[free])) <= 1e-9

    def operators(self):
        """An operator without and one with the Dirichlet dofs 0 and 2."""
        gd = make_a(3)
        dsrc = no_sources(gd)
        U = np.zeros((gd.n_grad_cells, 2))
        plain = TransportOperator(gd, U, 0.1, dsrc, self.params(), "centred",
                                  [])
        fixed = TransportOperator(gd, U, 0.1, dsrc, self.params(), "centred",
                                  [], np.array([0, 2]))
        return np.zeros(gd.ndof), plain, fixed

    def test_dirichlet_values_need_dirichlet_dofs(self):
        c_prev, plain, fixed = self.operators()
        for op, values in ((plain, np.zeros(2)), (fixed, None)):
            with pytest.raises(ConfigError, match="Dirichlet values"):
                transport_step(op, c_prev, dirichlet=values)

    @pytest.mark.parametrize("values", [[], [0.5], [0.5, 0.5, 0.5],
                                        [[0.5, 0.5]]],
                             ids=["none", "short", "long", "2d"])
    def test_dirichlet_values_of_wrong_length_rejected(self, values):
        c_prev, _, fixed = self.operators()
        with pytest.raises(ConfigError, match="Dirichlet values"):
            transport_step(fixed, c_prev, dirichlet=np.array(values))

    def test_dirichlet_values_land_on_the_operators_dofs(self):
        c_prev, _, fixed = self.operators()
        c, _ = transport_step(fixed, c_prev, dirichlet=np.array([0.25, 0.75]))
        assert c[0] == 0.25 and c[2] == 0.75

    def test_picard_reports_iterations(self):
        gd = make_a(3)
        dsrc = no_sources(gd)
        U = np.zeros((gd.n_grad_cells, 2))
        c, info = step(gd, U, np.zeros(gd.ndof), 0.1, dsrc,
                                 self.params(), "centred")
        assert info["picard_iters"] >= 1
        assert info["picard_relative"] <= 1e-9 or info["picard_residual"] == 0.0


@functools.lru_cache(maxsize=None)
def small_gd(kind, size):
    return make_a(size) if kind == "a" else make_b(size)


# deterministic examples, no example database written to disk
PROPERTY = settings(database=None, derandomize=True, deadline=None,
                    max_examples=10)
GEOMETRIES = st.sampled_from([("a", 3), ("a", 4), ("b", 1), ("b", 2)])
SEEDS = st.integers(0, 2 ** 32 - 1)
STEPS = st.sampled_from([0.01, 0.1, 1.0])
RATES = st.sampled_from([0.5, 2.0, 30.0])


def converged_step(variant, *args, **kwargs):
    """transport_step, skipping the example where the centred iteration
    stalls: only that variant may raise PicardError (see
    TestCentredStall); the monotone variants must converge."""
    try:
        return step(*args, variant, **kwargs)
    except PicardError as exc:
        if variant != "centred":
            raise
        assert len(exc.history) == PICARD_MAX_ITER
        assume(False)


@pytest.mark.parametrize("variant", VARIANTS)
class TestTransportProperties:
    params = DispersionParams(phi=0.1, dm=0.5, dl=0.2, dt_=0.05)

    @PROPERTY
    @given(geometry=GEOMETRIES, seed=SEEDS, dt=STEPS)
    def test_mass_conserved_without_sources(self, variant, geometry, seed,
                                            dt):
        gd = small_gd(*geometry)
        dsrc = no_sources(gd)
        rng = np.random.default_rng(seed)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = rng.random(gd.ndof)
        c, info = converged_step(variant, gd, U, c_prev, dt, dsrc,
                                 self.params)
        mass = self.params.phi * gd.recon_measures
        m0, m1 = mass @ c_prev, mass @ c
        # diffusion and convection have zero column sums, so the mass
        # change is dt times the sum of the final residual
        bound = dt * np.sqrt(gd.ndof) * info["picard_residual"]
        assert abs(m1 - m0) <= bound + 1e-12 * m0

    @PROPERTY
    @given(geometry=GEOMETRIES, dt=STEPS, rate=RATES)
    def test_constant_one_is_a_fixed_point(self, variant, geometry, dt,
                                           rate):
        gd = small_gd(*geometry)
        dsrc = discretize_sources(gd, 1.0, rate)
        c_prev = np.ones(gd.ndof)
        _, U, _ = solve_pressure(gd, c_prev, unit_mobility(), dsrc, [])
        c, _ = step(gd, U, c_prev, dt, dsrc, self.params, variant)
        assert np.max(np.abs(c - 1.0)) <= 1e-10

    @PROPERTY
    @given(geometry=GEOMETRIES, seed=SEEDS, dt=STEPS, rate=RATES)
    def test_mass_balance_with_sources(self, variant, geometry, seed, dt,
                                       rate):
        gd = small_gd(*geometry)
        dsrc = discretize_sources(gd, 1.0, rate)
        rng = np.random.default_rng(seed)
        c_prev = rng.random(gd.ndof)
        _, U, _ = solve_pressure(gd, c_prev, unit_mobility(), dsrc, [])
        c, info = converged_step(variant, gd, U, c_prev, dt, dsrc,
                                 self.params)
        mass = self.params.phi * gd.recon_measures
        # diffusion and convection have zero column sums: the balance
        # defect is the sum of the final residual F(c)
        defect = (mass @ (c - c_prev) / dt
                  - (dsrc.q_injection.sum() - dsrc.q_production @ c))
        b0 = mass * c_prev / dt + dsrc.q_injection
        assert abs(defect) <= (np.sqrt(gd.ndof) * info["picard_residual"]
                               + 1e-12 * np.linalg.norm(b0))

    @PROPERTY
    @given(geometry=GEOMETRIES, seed=SEEDS, dt=STEPS)
    def test_dirichlet_values_exact_and_free_rows_solved(
            self, variant, geometry, seed, dt):
        gd = small_gd(*geometry)
        dsrc = discretize_sources(gd, 1.0, None)
        rng = np.random.default_rng(seed)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = rng.random(gd.ndof)
        k = rng.integers(1, gd.ndof)
        dofs = np.sort(rng.choice(gd.ndof, size=k, replace=False))
        values = rng.uniform(-0.25, 1.25, size=k)
        c, _ = converged_step(variant, gd, U, c_prev, dt, dsrc, self.params,
                              dofs=dofs, values=values)
        assert np.array_equal(c[dofs], values)
        # F(c) = base c + C T(c) - b0, rebuilt here, with the production
        # reaction in base
        mass = self.params.phi * gd.recon_measures
        base = sp.diags(mass / dt + dsrc.q_production) \
            + diffusion_matrix(gd, U, self.params, variant)
        C = convection_matrix(gd, U, variant)
        b0 = mass * c_prev / dt + dsrc.q_injection
        free = np.ones(gd.ndof, dtype=bool)
        free[dofs] = False
        r = (base @ c + C @ np.clip(c, 0.0, 1.0) - b0)[free]
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b0)


def stored(A):
    """Rows and columns of the stored entries of A."""
    A = A.tocoo()
    return A.row, A.col


@pytest.mark.parametrize("variant", VARIANTS)
class TestTransportOperatorProperties:
    @PROPERTY
    @given(geometry=GEOMETRIES, seed=SEEDS, dt=STEPS,
           rate=st.sampled_from([None, 2.0]),
           dispersion=st.sampled_from([(0.5, 0.2, 0.05), (0.0, 0.2, 0.05),
                                       (0.0, 0.0, 0.0)]),
           dirichlet=st.booleans())
    def test_fixed_pattern_jacobian_is_the_assembled_one(
            self, variant, geometry, seed, dt, rate, dispersion, dirichlet):
        gd = small_gd(*geometry)
        rng = np.random.default_rng(seed)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        U[rng.random(gd.n_grad_cells) < 0.3] = 0.0  # cells at rest
        dm, dl, dt_disp = dispersion
        params = DispersionParams(phi=0.1, dm=dm, dl=dl, dt_=dt_disp)
        dsrc = discretize_sources(gd, 1.0, rate)
        dofs = free = None
        if dirichlet:
            dofs = np.sort(rng.choice(gd.ndof, size=rng.integers(1, gd.ndof),
                                      replace=False))
            free = np.setdiff1d(np.arange(gd.ndof), dofs)
        op = TransportOperator(gd, U, dt, dsrc, params, variant, [], dofs)
        base, C = transport_matrices(gd, U, dt, dsrc, params, variant)
        for got, ref in ((op.base, base), (op.C, C)):
            assert np.array_equal(got.toarray(), ref.toarray())
        # base and C share one pattern P, and every entry of base and C
        # lies in P; with longitudinal dispersion, the diffusion stencil
        # also holds the upstream C
        for part in ("indices", "indptr"):
            assert np.shares_memory(getattr(op.base, part),
                                    getattr(op.C, part))
        in_P = np.zeros((gd.ndof, gd.ndof), dtype=bool)
        in_P[stored(op.base)] = True
        upstream = convection_matrix(gd, U, "upstream")
        for A in (base, C) + ((upstream,) if dl > 0 else ()):
            assert np.all(in_P[stored(A)])
        for theta in (rng.integers(0, 2, gd.ndof).astype(float),
                      np.zeros(gd.ndof), np.ones(gd.ndof)):
            J = op.jacobian(theta)
            ref = transport_jacobian(base, C, theta, dofs)
            assert J.has_sorted_indices
            assert np.array_equal(J.toarray(), ref.toarray())
            if dirichlet:  # the free block is the one sliced from J
                sliced = transport_jacobian(base, C, theta).tocsc()
                sliced = sliced[:, free][free].tocsr()
                block = ref.tocsc()[:, free][free].tocsr()
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(block, part),
                                          getattr(sliced, part))


class TestJacobianUpdateColumns:
    """The transport cache solves J(theta) as an update of J(theta0) by
    its columns W: J(theta) - J(theta0) = W diag(theta - theta0), to
    rounding, for all flags, and W and that difference are zero on the
    Dirichlet rows."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("cfg", [
        dict(test="lit2", scheme="a", n=6, dt=36.0),
        dict(test="lit2", scheme="b", reps=3, dt=36.0),
        dict(test="analytic2", scheme="a", n=6, dt=0.04),
        dict(test="analytic2", scheme="b", reps=3, dt=0.04),
    ], ids=["neumann_a", "neumann_b", "dirichlet_a", "dirichlet_b"])
    def test_jacobians_differ_by_the_update_columns(self, cfg, variant):
        cfg = RunConfig(variant=variant, **cfg)
        problem = build_problem(cfg)
        gd, dofs = problem.gd, problem.dirichlet_dofs
        rng = np.random.default_rng(0)
        c = rng.uniform(0.0, 1.0, gd.ndof)
        _, U, _ = solve_pressure(gd, c, problem.mobility, problem.dsrc, [])
        op = TransportOperator(gd, U, cfg.dt, problem.dsrc, problem.params,
                               variant, [], dofs)
        assert (dofs is None) == (cfg.test == "lit2")
        if cfg.test == "lit2" and cfg.scheme == "a":  # D12: cross pattern
            assert op.base.nnz == gd.pattern(True).nnz > gd.pattern().nnz
        W = op.cache._W.toarray()
        scale = np.abs(op.base.toarray()) + np.abs(op.C.toarray())
        for _ in range(5):
            t0, t1 = rng.integers(0, 2, (2, gd.ndof)).astype(float)
            diff = op.jacobian(t1).toarray() - op.jacobian(t0).toarray()
            assert np.all(np.abs(diff - W * (t1 - t0))
                          <= 4.0 * np.finfo(float).eps * scale)
            if dofs is not None:
                assert not W[dofs].any()
                assert not diff[dofs].any()


def loaded_gd(tmp_path):
    """Scheme b on a mesh file: tri3 with its interior vertices moved."""
    mesh = build_structured_triangulation(3, 1.0)
    rng = np.random.default_rng(21)
    inside = np.all((mesh.vertices > 1e-12) & (mesh.vertices < 1 - 1e-12),
                    axis=1)
    mesh.vertices[inside] += rng.uniform(-0.03, 0.03, (inside.sum(), 2))
    save_mesh(mesh, tmp_path / "moved.mesh")
    mesh = load_mesh(tmp_path / "moved.mesh")
    return scheme_b(mesh, build_dual(mesh))


DISCRETISATIONS = {"a": lambda tmp_path: make_a(4),
                   "b": lambda tmp_path: make_b(2),
                   "loaded": loaded_gd}


def assert_matches_oracle(A, ref):
    """A within 1e-13 of ref relative to its largest entry, with every
    stored entry of ref stored in A."""
    assert np.max(np.abs((A - ref).toarray())) \
        <= 1e-13 * np.max(np.abs(ref.data))
    in_A = np.zeros(A.shape, dtype=bool)
    in_A[stored(A)] = True
    assert np.all(in_A[stored(ref)])


@pytest.mark.parametrize("geometry", list(DISCRETISATIONS))
class TestAssemblyPattern:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dl", [0.0, 0.4], ids=["no_D12", "D12"])
    def test_matrices_match_product_oracle(self, tmp_path, geometry, variant,
                                           dl):
        gd = DISCRETISATIONS[geometry](tmp_path)
        rng = np.random.default_rng(17)
        U = 0.3 * rng.standard_normal((gd.n_grad_cells, 2))
        U[rng.random(gd.n_grad_cells) < 0.2] = 0.0
        params = DispersionParams(phi=0.1, dm=0.5, dl=dl, dt_=dl / 4)
        h = gd.h if variant == "dh" else None
        D11, D22, D12 = tensor_D_field(params, U, h=h)
        assert np.any(D12) == (dl > 0)
        assert_matches_oracle(diffusion_matrix(gd, U, params, variant),
                              oracles.grad_gram(gd, D11, D22, D12))
        for cross in (False, True):
            assert_matches_oracle(convection_matrix(gd, U, variant, cross),
                                  oracles.convection_matrix(gd, U, variant))
        centred = convection_matrix(gd, U, "centred")
        ref = oracles.artificial_diffusion(centred)
        assert_matches_oracle(artificial_diffusion(centred), ref)
        G, a = pressure_matrix(gd, rng.random(gd.ndof),
                               MobilityTensor(k=1.0, M=41.0))
        assert_matches_oracle(G, oracles.grad_gram(gd, a, a))

    @pytest.mark.parametrize("cross", [False, True])
    def test_pattern_is_symmetric(self, tmp_path, geometry, cross):
        gd = DISCRETISATIONS[geometry](tmp_path)
        P = gd.pattern(cross)
        A = P.matrix(np.arange(1.0, P.nnz + 1))
        assert A.has_sorted_indices
        rows, cols = stored(A)
        assert set(zip(rows, cols)) == set(zip(cols, rows))
        # the column-major order lists the mirror of every entry, which
        # artificial_diffusion relies on
        assert np.array_equal(A.tocsc().data, A.toarray()[cols, rows])
        assert np.array_equal(A.diagonal(), P.diag + 1.0)
        # the plain pattern's entries are among those of the cross one
        plain, full = (gd.pattern(c) for c in (False, True))
        in_cross = np.zeros(A.shape, dtype=bool)
        in_cross[stored(full.matrix(np.ones(full.nnz)))] = True
        assert np.all(in_cross[stored(plain.matrix(np.ones(plain.nnz)))])
        for name in ("indptr", "indices", "pos", "diag"):
            assert not getattr(P, name).flags.writeable, name

    def test_cross_pattern_matches_products(self, tmp_path, geometry):
        """Both patterns, read off the local table, equal the ones built
        from sparse products of the operators' structure bit for bit; on
        scheme b the cross pattern couples no other pairs and is the plain
        one."""
        gd = DISCRETISATIONS[geometry](tmp_path)
        for cross in (False, True):
            P = gd.pattern(cross)
            ref = oracles.assembly_pattern(gd, cross)
            for name, a in zip(("indptr", "indices", "pos", "diag"), ref):
                got = getattr(P, name)
                assert got.dtype == a.dtype, name
                assert np.array_equal(got, a), name
        assert (gd.pattern(True) is gd.pattern()) == (gd.kind == "b")

    def test_local_table_matches_operators(self, tmp_path, geometry,
                                           monkeypatch):
        """grad_x, grad_y and overlap hold the table's values on the
        local dofs of every cell and nothing else; the table is read-only,
        its int64 dofs ascend in every cell, and each operator is built
        once per discretisation."""
        built = []

        def counting(gd, row, _real=gd_module.GradientDiscretisation._csr):
            built.append(id(row))
            return _real(gd, row)
        monkeypatch.setattr(gd_module.GradientDiscretisation, "_csr",
                            counting)
        gd = DISCRETISATIONS[geometry](tmp_path)
        dofs, rows = gd.local[0], gd.local[1:]
        assert dofs.dtype == np.int64
        assert np.all(np.diff(dofs, axis=0) > 0)
        for a in gd.local:
            assert not a.flags.writeable
        cells = np.arange(gd.n_grad_cells)
        views = (gd.grad_x, gd.grad_y, gd.overlap)
        for row, A in zip(rows, views):
            dense = np.zeros((gd.n_grad_cells, gd.ndof))
            dense[cells, dofs] = row
            assert np.array_equal(A.toarray(), dense)
            assert A.has_canonical_format
        U = np.ones((gd.n_grad_cells, 2))
        gd.grad_gram(1.0, 1.0, 0.5)
        convection_matrix(gd, U, "upstream", cross=True)
        w = np.ones(gd.ndof)
        pressure_matrix(gd, w, MobilityTensor(k=1.0, M=2.0))
        gd.grad(w)
        gd.norm_ell(w)
        assert all(a is b for a, b in zip((gd.grad_x, gd.grad_y,
                                           gd.overlap), views))
        assert sorted(built) == sorted(id(row) for row in rows)

    def test_in_place_change_raises(self, tmp_path, geometry):
        gd = DISCRETISATIONS[geometry](tmp_path)
        rng = np.random.default_rng(3)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        params = DispersionParams(phi=0.1, dm=0.5, dl=0.4, dt_=0.1)
        dsrc = discretize_sources(gd, 1.0, None)
        dofs = np.flatnonzero(dsrc.q_production)
        op = TransportOperator(gd, U, 0.1, dsrc, params, "centred", [], dofs)
        before = [A.toarray() for A in (op.base, op.C, gd.grad_gram())]
        J = op.jacobian(np.ones(gd.ndof))
        for A in (op.base, op.C, gd.grad_gram(), J):
            with pytest.raises(ValueError, match="read-only"):
                A.eliminate_zeros()
            A.has_sorted_indices = False
            with pytest.raises(ValueError, match="read-only"):
                A.sort_indices()
        op = TransportOperator(gd, U, 0.1, dsrc, params, "centred", [], dofs)
        after = [A.toarray() for A in (op.base, op.C, gd.grad_gram())]
        for got, ref in zip(after, before):
            assert np.array_equal(got, ref)
        assert np.array_equal(op.jacobian(np.ones(gd.ndof)).toarray(),
                              J.toarray())


def test_isotropic_scheme_a_pattern_is_five_point():
    N = 4
    gd = make_a(N)
    rows, cols = stored(gd.grad_gram())
    di = np.abs(rows % (N + 1) - cols % (N + 1))
    dj = np.abs(rows // (N + 1) - cols // (N + 1))
    assert np.all(di + dj <= 1)
    # the diagonal and both directions of the 2 N (N + 1) lattice edges
    assert len(rows) == gd.ndof + 4 * N * (N + 1)
    assert gd.pattern(True).nnz > gd.pattern().nnz


class TestPressureProperties:
    @PROPERTY
    @given(geometry=GEOMETRIES, seed=SEEDS, rate=RATES,
           m_ratio=st.sampled_from([1.0, 41.0]))
    def test_zero_mean_and_residual(self, geometry, seed, rate, m_ratio):
        gd = small_gd(*geometry)
        dsrc = discretize_sources(gd, 1.0, rate)
        c_prev = np.random.default_rng(seed).random(gd.ndof)
        mobility = MobilityTensor(k=1.0, M=m_ratio)
        p, _, info = solve_pressure(gd, c_prev, mobility, dsrc, [])
        assert abs(info["pressure_mean"]) <= 1e-8 * info["pressure_rhs_norm"]
        assert pressure_residual(gd, c_prev, mobility, dsrc, p) \
            <= 1e-9 * info["pressure_rhs_norm"]


class TestCentredStall:
    @pytest.mark.xfail(raises=PicardError, strict=True,
                       reason="the centred Newton iteration stalls at a "
                              "nonzero residual at high cell Peclet numbers")
    def test_centred_step_converges_at_high_peclet(self):
        gd = small_gd("a", 3)
        dsrc = no_sources(gd)
        rng = np.random.default_rng(0)
        U = rng.standard_normal((gd.n_grad_cells, 2))
        c_prev = rng.random(gd.ndof)
        step(gd, U, c_prev, 0.1, dsrc,
                       TestTransportProperties.params, "centred")

    @pytest.mark.parametrize("n, dt", [(50, 0.04), (25, 0.08)])
    def test_analytic2_long_steps_converge(self, n, dt):
        """These runs stalled in a 2-cycle of the clamp flags of two dofs
        next to (1, 0) and (0, 1) while the production there had no
        reaction in the transport equation."""
        _, report = run_coupled(RunConfig(test="analytic2", scheme="a", n=n,
                                          dt=dt, variant="centred"))
        assert len(report.diagnostics) == round(0.4 / dt)
        assert max(row["picard_iters"] for row in report.diagnostics) <= 30


class TestMassBalanceResidual:
    def test_consistent_step_has_small_residual(self):
        gd = make_a(5)
        dsrc = discretize_sources(gd, 1.0, 2.0)
        mobility = unit_mobility()
        params = DispersionParams(phi=0.1, dm=0.5)
        c_prev = np.zeros(gd.ndof)
        p, U, _ = solve_pressure(gd, c_prev, mobility, dsrc, [])
        c, _ = step(gd, U, c_prev, 0.05, dsrc, params, "centred")
        res = mass_balance_residual(gd, c_prev, c, 0.05, dsrc, params)
        assert res <= 1e-9
