import numpy as np
import pytest

from gdflow.physics import (
    AnalyticalRadialSolution,
    DispersionParams,
    MobilityTensor,
    SourceModel,
    ViscosityModel,
    boundary_production_weights,
    five_spot_sources,
    production_angle,
    psi,
    radial_test_sources,
    tensor_D_field,
    truncate,
    viscosity,
)

from oracles import psi_direct, tensor_D, tensor_Dh


def tensor_at(params, u, h=None):
    """tensor_D_field on the single velocity ``u``, as a 2x2 matrix."""
    D11, D22, D12 = tensor_D_field(params, np.array([u], dtype=float), h=h)
    return np.array([[D11[0], D12[0]], [D12[0], D22[0]]])


class TestTruncate:
    @pytest.mark.parametrize("s,expected", [(-0.5, 0.0), (0.3, 0.3), (2.0, 1.0)])
    def test_scalar(self, s, expected):
        assert truncate(s) == expected

    def test_array(self):
        assert np.allclose(truncate(np.array([-1.0, 0.5, 1.5])),
                           [0.0, 0.5, 1.0])


class TestViscosity:
    def test_m41_endpoint(self):
        model = ViscosityModel(mu0=1.0, M=41.0)
        assert np.isclose(viscosity(model, 1.0), 1.0 / 41.0)

    def test_m1_constant(self):
        model = ViscosityModel(mu0=2.0, M=1.0)
        for c in (0.0, 0.3, 1.0):
            assert np.isclose(viscosity(model, c), 2.0)

    def test_argument_clamped(self):
        model = ViscosityModel(mu0=1.0, M=40.0)
        assert viscosity(model, -3.0) == viscosity(model, 0.0)
        assert viscosity(model, 2.0) == viscosity(model, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ViscosityModel(mu0=0.0)
        with pytest.raises(ValueError):
            ViscosityModel(M=0.5)

    @pytest.mark.parametrize("kwargs", [dict(mu0=np.nan), dict(mu0=np.inf),
                                        dict(M=np.nan), dict(M=np.inf)])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ViscosityModel(**kwargs)

    def test_mobility_bounds(self):
        # k / mu(c) runs from k / mu0 at c = 0 to k M / mu0 at c = 1
        mob = MobilityTensor(k=80.0, viscosity_model=ViscosityModel(M=41.0))
        assert np.isclose(mob.scalar(0.0), 80.0)
        assert np.isclose(mob.scalar(1.0), 80.0 * 41.0)
        c = np.linspace(0.0, 1.0, 11)
        vals = mob.scalar(c)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals >= 80.0 - 1e-12) and np.all(vals <= 80.0 * 41.0 + 1e-12)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_mobility_invalid_permeability(self, k):
        with pytest.raises(ValueError):
            MobilityTensor(k=k)


class TestDispersionTensor:
    def params(self, dm=0.0, dl=5.0, dt_=0.5):
        return DispersionParams(phi=1.0, dm=dm, dl=dl, dt_=dt_)

    def test_axis_aligned(self):
        D = tensor_at(self.params(), (1.0, 0.0))
        assert np.allclose(D, np.diag([5.0, 0.5]))

    def test_hand_example_3_4(self):
        D = tensor_at(self.params(), (3.0, 4.0))
        assert np.allclose(D, [[10.6, 10.8], [10.8, 16.9]])
        # independent matrix-arithmetic oracle
        u = np.array([3.0, 4.0])
        E = np.outer(u, u) / 25.0
        oracle = 5.0 * (5.0 * E + 0.5 * (np.eye(2) - E))
        assert np.allclose(D, oracle)

    def test_zero_velocity_is_molecular(self):
        D = tensor_at(self.params(dm=2.0), (0.0, 0.0))
        assert np.allclose(D, 2.0 * np.eye(2))

    def test_porosity_scaling(self):
        p = DispersionParams(phi=0.1, dm=10.0, dl=50.0, dt_=5.0)
        assert p.D_m == 1.0 and p.D_l == 5.0 and p.D_t == 0.5

    def test_dh_floor(self):
        p = DispersionParams(phi=1.0, dm=0.0, dl=0.0, dt_=0.0)
        D = tensor_at(p, (1.0, 0.0), h=0.02)
        assert np.allclose(D, 0.02 * np.eye(2))

    def test_dh_zero_velocity(self):
        p = self.params(dm=1.0)
        assert np.allclose(tensor_at(p, (0.0, 0.0), h=0.1),
                           tensor_at(p, (0.0, 0.0)))

    def test_field_matches_single(self):
        p = self.params(dm=0.3)
        U = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 2.0], [0.5, 0.0]])
        D11, D22, D12 = tensor_D_field(p, U)
        for k, u in enumerate(U):
            D = tensor_D(p, u)
            assert np.isclose(D11[k], D[0, 0])
            assert np.isclose(D22[k], D[1, 1])
            assert np.isclose(D12[k], D[0, 1])

    def test_field_dh_matches_single(self):
        p = self.params(dm=0.001)
        U = np.array([[3.0, 4.0], [0.0, 0.0], [0.01, 0.0]])
        D11, D22, D12 = tensor_D_field(p, U, h=0.04)
        for k, u in enumerate(U):
            D = tensor_Dh(p, u, 0.04)
            assert np.isclose(D11[k], D[0, 0])
            assert np.isclose(D22[k], D[1, 1])
            assert np.isclose(D12[k], D[0, 1])

    def test_invalid(self):
        with pytest.raises(ValueError):
            DispersionParams(phi=0.0)
        with pytest.raises(ValueError):
            DispersionParams(dm=-1.0)
        with pytest.raises(ValueError):
            tensor_D_field(self.params(), np.array([[1.0, 0.0]]), h=0.0)

    @pytest.mark.parametrize("kwargs", [dict(dm=np.nan), dict(dl=np.inf),
                                        dict(dt_=-np.inf), dict(phi=np.nan)])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DispersionParams(**kwargs)


class TestPsi:
    def test_order_zero(self):
        z = np.linspace(0.0, 10.0, 7)
        assert np.allclose(psi(z, 0), np.exp(-z))

    def test_hand_value(self):
        assert np.isclose(psi(1.0, 1), 2.0 * np.exp(-1.0), atol=1e-15)

    def test_matches_direct_oracle(self):
        z = np.linspace(0.0, 50.0, 101)
        for N in (0, 1, 9, 99, 499):
            assert np.max(np.abs(psi(z, N) - psi_direct(z, N))) <= 1e-12

    def test_bounds_and_monotonicity(self):
        z = np.linspace(0.0, 200.0, 400)
        v = psi(z, 9)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) <= 1e-15)

    def test_underflow_region(self):
        assert psi(800.0, 9) == 0.0
        assert psi(1e6, 499) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            psi(1.0, -1)
        with pytest.raises(ValueError):
            psi(-0.1, 3)


class TestAnalyticalRadialSolution:
    def test_series_order(self):
        assert AnalyticalRadialSolution(dm=0.05).N == 9
        assert AnalyticalRadialSolution(dm=0.001).N == 499

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError):
            AnalyticalRadialSolution(dm=0.07)

    def test_centre_value(self):
        sol = AnalyticalRadialSolution(dm=0.05)
        assert sol.concentration(np.array([1.0, 1.0]), 0.123) == 1.0

    def test_far_corner(self):
        sol = AnalyticalRadialSolution(dm=0.05)
        val = sol.concentration(np.array([0.0, 0.0]), 0.4)
        assert np.isclose(val, psi_direct(25.0, 9), atol=1e-14)
        assert val < 1e-3

    def test_initial_limit(self):
        sol = AnalyticalRadialSolution(dm=0.05)
        val = sol.concentration(np.array([0.5, 0.5]), 1e-9)
        assert val == 0.0

    def test_time_validation(self):
        sol = AnalyticalRadialSolution(dm=0.05)
        with pytest.raises(ValueError):
            sol.concentration(np.array([0.5, 0.5]), 0.0)


class TestLineicProduction:
    def test_full_edges(self):
        for edge in ("bottom", "left"):
            w = boundary_production_weights(np.array([0.0, 1.0]), edge)
            assert np.isclose(w.sum(), np.pi / 4.0)

    def test_angle_against_quadrature_oracle(self):
        # integrate dtheta numerically along the bottom edge
        s = np.linspace(0.2, 0.8, 2001)
        th = production_angle(s, "bottom")
        num = np.trapezoid(np.gradient(th, s), s)
        assert np.isclose(th[-1] - th[0], num, atol=1e-6)
        w = boundary_production_weights(np.array([0.2, 0.8]), "bottom")
        assert np.isclose(w[0], th[-1] - th[0], atol=1e-12)

    def test_weights_nonnegative_and_additive(self):
        breaks = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
        w = boundary_production_weights(breaks, "left")
        assert np.all(w >= 0.0)
        assert np.isclose(w.sum(), np.pi / 4.0)

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            production_angle(0.5, "top")


class TestSourceModel:
    def test_five_spot_balanced(self):
        src = five_spot_sources(1000.0, 30.0)
        src.check_compatibility()
        assert src.total_injection() == 30.0

    def test_radial_sources_balanced(self):
        src = radial_test_sources()
        src.check_compatibility()
        assert np.isclose(src.total_injection(), np.pi / 2.0)
        assert np.isclose(src.lineic_production_rate, np.pi / 2.0)

    def test_incompatible_rejected(self):
        src = SourceModel(injections=(((0.5, 0.5), 2.0),),
                          productions=(((0.0, 0.0), 1.0),))
        with pytest.raises(ValueError, match="incompatible"):
            src.check_compatibility()
