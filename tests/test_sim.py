import numpy as np
import pytest

from gdflow.sim import (
    ConfigError,
    RunConfig,
    build_problem,
    convergence_suite,
    error_norms,
    run_coupled,
)
import gdflow
from gdflow import assembly, io_cli, linalg
from gdflow import gd as gd_mod


class TestRunConfig:
    def test_defaults_filled(self):
        cfg = RunConfig(test="analytic1", scheme="a", n=10, dt=0.02).resolved()
        assert cfg.t_final == 0.4
        assert cfg.m_ratio == 1.0
        assert cfg.dm == 0.05
        assert cfg.n_steps == 20
        assert cfg.side == 1.0

    def test_lit_defaults(self):
        cfg = RunConfig(test="lit2", scheme="b", reps=4, dt=18.0).resolved()
        assert cfg.side == 1000.0
        assert cfg.m_ratio == 41.0
        assert cfg.dl == 50.0
        assert cfg.phi == 0.1

    def test_overrides_kept(self):
        cfg = RunConfig(test="analytic1", scheme="a", n=10, dt=0.02,
                        dm=0.025).resolved()
        assert cfg.dm == 0.025

    @pytest.mark.parametrize("kwargs", [
        dict(test="bogus", scheme="a", n=5, dt=0.02),
        dict(test="analytic1", scheme="c", n=5, dt=0.02),
        dict(test="analytic1", scheme="a", n=5, dt=0.02, variant="x"),
        dict(test="analytic1", scheme="a", n=5, dt=0.03),   # no division
        dict(test="analytic1", scheme="a", n=5),            # missing dt
        dict(test="analytic1", scheme="a", dt=0.02),        # missing n
        dict(test="analytic1", scheme="b", dt=0.02),        # missing mesh
        dict(test="analytic1", scheme="a", n=5, dt=0.02, vtk_every=-3),
        dict(test="analytic1", scheme="a", n=5, reps=2, dt=0.02),
        dict(test="analytic1", scheme="a", n=5, mesh_file="m.mesh", dt=0.02),
        dict(test="analytic1", scheme="b", n=5, reps=2, dt=0.02),
        dict(test="analytic1", scheme="b", reps=2, mesh_file="m.mesh",
             dt=0.02),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).resolved()

    def test_mesh_labels(self):
        assert RunConfig(test="analytic1", scheme="a", n=25,
                         dt=0.02).mesh_label == "25x25"
        assert RunConfig(test="analytic1", scheme="b", reps=16,
                         dt=0.02).mesh_label == "tri16"


class TestErrorNorms:
    def test_exact_interpolant_constant(self):
        cfg = RunConfig(test="analytic1", scheme="a", n=8, dt=0.02).resolved()
        problem = build_problem(cfg)
        gd = problem.gd
        c = problem.exact.concentration(gd.anchors, 0.4)
        l1, l2 = error_norms(gd, c, problem.exact, 0.4)
        assert l1 <= 1e-14 and l2 <= 1e-14

    def test_uniform_offset(self):
        cfg = RunConfig(test="analytic1", scheme="a", n=8, dt=0.02).resolved()
        problem = build_problem(cfg)
        gd = problem.gd
        c = problem.exact.concentration(gd.anchors, 0.4) + 0.01
        l1, l2 = error_norms(gd, c, problem.exact, 0.4)
        assert np.isclose(l1, 0.01)
        assert np.isclose(l2, 0.01)


class TestRunCoupled:
    def test_zero_sources_stay_zero(self):
        cfg = RunConfig(test="lit1", scheme="a", n=6, dt=108.0).resolved()
        problem = build_problem(cfg)
        dsrc = assembly.DiscreteSources(
            q_injection=np.zeros(problem.gd.ndof),
            q_production=np.zeros(problem.gd.ndof))
        problem = type(problem)(gd=problem.gd, mobility=problem.mobility,
                                params=problem.params, dsrc=dsrc)
        state, report = run_coupled(cfg, problem=problem)
        assert np.allclose(state.c, 0.0)
        assert np.allclose(state.p, 0.0)

    def test_pressure_constant_when_m_is_one(self):
        cfg = RunConfig(test="lit1", scheme="a", n=8, dt=108.0)
        seen = []
        state, report = run_coupled(
            RunConfig(**{**cfg.__dict__, "vtk_every": 1}),
            snapshot_cb=lambda step, t, s: seen.append(s.p.copy()))
        for p in seen[1:]:
            assert np.array_equal(p, seen[0])

    def test_diagnostics_rows(self):
        cfg = RunConfig(test="lit1", scheme="a", n=6, dt=108.0)
        _, report = run_coupled(cfg)
        assert len(report.diagnostics) == 10
        for row in report.diagnostics:
            assert abs(row["pressure_mean"]) <= 1e-8 * row["pressure_rhs_norm"]
            assert row["mass_residual"] <= 1e-8
            assert row["picard_iters"] <= 30

    def test_initial_condition_callable(self):
        cfg = RunConfig(test="lit1", scheme="a", n=6, dt=108.0)
        state, _ = run_coupled(cfg, c0=lambda p: np.full(len(p), 1.0))
        assert np.max(np.abs(state.c - 1.0)) <= 1e-10

    def test_analytic_small_run_error_reasonable(self):
        cfg = RunConfig(test="analytic1", scheme="a", n=10, dt=0.04)
        _, report = run_coupled(cfg)
        assert 0.0 < report.l1 < 0.2
        assert 0.0 < report.l2 < 0.3

    @pytest.mark.parametrize("cfg", [
        RunConfig(test="analytic1", scheme="a", n=10, dt=0.04),
        RunConfig(test="analytic2", scheme="b", reps=4, dt=0.04),
    ], ids=["analytic1-a", "analytic2-b"])
    def test_dirichlet_values_hold_after_every_step(self, cfg):
        problem = build_problem(cfg)
        dofs, held = problem.dirichlet_dofs, []
        run_coupled(RunConfig(**{**cfg.__dict__, "vtk_every": 1}),
                    problem=problem,
                    snapshot_cb=lambda step, t, s: held.append(
                        np.array_equal(s.c[dofs], problem.dirichlet_at(t))))
        assert held == [True] * cfg.resolved().n_steps

    TA1_COARSE = RunConfig(test="analytic1", scheme="a", n=25, dt=0.02)

    def test_every_step_uses_config_dt(self, monkeypatch):
        seen = []
        real = assembly.transport_step

        def recording(op, *args, **kwargs):
            seen.append(op.dt)
            return real(op, *args, **kwargs)
        monkeypatch.setattr(assembly, "transport_step", recording)
        run_coupled(self.TA1_COARSE)
        assert len(seen) == 20
        assert all(dt == 0.02 for dt in seen), sorted(set(seen))

    def test_repeated_step_matrix_reuses_lu(self, monkeypatch):
        # M = 1 fixes the transport operator: with one dt per run, a step
        # that starts on the previous step's clamp set reuses its LU
        calls = []
        real = linalg._lu

        def counting(A, *rest):
            calls.append(A.shape)
            return real(A, *rest)
        monkeypatch.setattr(linalg, "_lu", counting)
        _, report = run_coupled(self.TA1_COARSE)
        assert len(calls) <= 23
        # the pressure LU, then the transport ones counted per step
        assert len(calls) == 1 + sum(row["factorizations"]
                                     for row in report.diagnostics)


class TestRunDeterminism:
    @pytest.mark.parametrize("cfg, orderings", [
        (RunConfig(test="lit2", scheme="b", reps=8, dt=36.0,
                   t_final=6 * 36.0), 1),
        (RunConfig(test="lit2", scheme="a", n=12, dt=36.0,
                   t_final=6 * 36.0), 2),
    ], ids=["scheme_b", "scheme_a_cross"])
    def test_repeated_run_is_bitwise_equal(self, monkeypatch, tmp_path, cfg,
                                           orderings):
        """M != 1: every step factors the pinned pressure and the transport
        again.  Each run orders their patterns afresh, one for both on
        scheme b, and the pressure's and the cross one on scheme a with
        D12, so a repeated run is the same to the bit."""
        specs, real = [], linalg.spla.splu

        def recording(A, **kwargs):
            specs.append(kwargs["permc_spec"])
            return real(A, **kwargs)
        monkeypatch.setattr(linalg.spla, "splu", recording)
        runs = []
        for tag in ("first", "second"):
            first = len(specs)
            state, report = run_coupled(cfg)
            path = tmp_path / f"diagnostics_{tag}.csv"
            io_cli.write_diagnostics(path, report.diagnostics)
            runs.append((state, path.read_bytes()))
            # one minimum-degree LU per pattern, the first at the first
            # pressure LU
            assert specs[first] == "MMD_AT_PLUS_A"
            assert specs.count("MMD_AT_PLUS_A") == orderings * len(runs)
        assert specs.count("NATURAL") >= 2 * 5 * 2
        (s1, d1), (s2, d2) = runs
        for name in ("c", "p", "U"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
        assert d1 == d2


CACHE = linalg.FactorizationCache


class FreshCache(CACHE):
    """Factors every matrix anew: the reference for the LU updates."""

    def solve(self, J, b, theta):
        fresh = CACHE(self._W, self._orderings)
        x = fresh.solve(J, b, theta)
        self.factorizations += fresh.factorizations
        return x


class TestLuUpdateTrajectory:
    @pytest.mark.parametrize("cfg", [
        RunConfig(test="analytic1", scheme="b", reps=16, dt=0.02),
        RunConfig(test="lit2", scheme="b", reps=8, dt=36.0),
    ], ids=["analytic1_dirichlet", "lit2_neumann"])
    def test_same_newton_iterates_fewer_factorizations(self, cfg,
                                                       monkeypatch):
        state, report = run_coupled(cfg)
        monkeypatch.setattr(linalg, "FactorizationCache", FreshCache)
        ref_state, ref_report = run_coupled(cfg)
        for key in ("picard_iters", "backtracks"):
            assert [row[key] for row in report.diagnostics] == \
                [row[key] for row in ref_report.diagnostics]
        assert np.linalg.norm(state.c - ref_state.c) \
            <= 1e-10 * np.linalg.norm(ref_state.c)
        factorizations = [sum(row["factorizations"] for row in r.diagnostics)
                          for r in (report, ref_report)]
        assert factorizations[0] < factorizations[1], factorizations


class TestTransportOperatorReuse:
    @pytest.mark.parametrize("cfg", [
        RunConfig(test="analytic1", scheme="b", reps=4, dt=0.04),
        RunConfig(test="analytic2", scheme="b", reps=4, dt=0.04),
    ], ids=["analytic1_once_per_run", "analytic2_once_per_step"])
    def test_matrices_built_once_per_velocity(self, cfg, monkeypatch):
        calls = {"diffusion_matrix": 0, "convection_matrix": 0}
        for name in calls:
            def counting(*args, _real=getattr(assembly, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(assembly, name, counting)
        run_coupled(cfg)
        cfg = cfg.resolved()
        built = 1 if cfg.m_ratio == 1.0 else cfg.n_steps
        assert calls == {"diffusion_matrix": built, "convection_matrix": built}

    def test_same_counts_as_per_step_assembly(self):
        # per-step counts of the analytic1 B tri16 run with base and C
        # assembled anew on every step and J on every iteration
        cfg = RunConfig(test="analytic1", scheme="b", reps=16, dt=0.02)
        _, report = run_coupled(cfg)
        counts = {key: [row[key] for row in report.diagnostics]
                  for key in ("picard_iters", "backtracks", "factorizations")}
        assert counts == {
            "picard_iters": [2, 2, 3, 2, 2, 3] + [2] * 14,
            "backtracks": [0] * 20,
            "factorizations": [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                               0, 1, 0, 0, 0],
        }

    def test_operators_do_not_share_a_factorization(self):
        # two operators of one velocity: each solves with its own LU, so
        # the first step on the second one factors once more
        problem = build_problem(RunConfig(test="analytic1", scheme="a", n=4,
                                          dt=0.1))
        gd = problem.gd
        c0 = np.zeros(gd.ndof)
        _, U, _ = assembly.solve_pressure(gd, c0, problem.mobility,
                                          problem.dsrc, [])
        ops = [assembly.TransportOperator(gd, U, 0.1, problem.dsrc,
                                          problem.params, "centred", [],
                                          problem.dirichlet_dofs)
               for _ in range(2)]
        steps = [assembly.transport_step(op, c0,
                                         dirichlet=problem.dirichlet_at(0.1))
                 for op in ops]
        assert [op.cache.factorizations for op in ops] == [1, 1]
        assert np.array_equal(steps[0][0], steps[1][0])


class TestRadialProduction:
    @pytest.mark.parametrize("cfg", [
        RunConfig(test="analytic1", scheme="a", n=8, dt=0.04),
        RunConfig(test="analytic1", scheme="b", reps=4, dt=0.04),
    ], ids=["a", "b"])
    def test_every_producing_dof_is_fixed_or_reacts(self, cfg):
        """Solute leaves with the fluid: a producing dof is a Dirichlet dof
        or carries its production on the diagonal of the transport
        operator's base."""
        problem = build_problem(cfg)
        gd, dsrc, dofs = problem.gd, problem.dsrc, problem.dirichlet_dofs
        U = np.zeros((gd.n_grad_cells, 2))

        def base_diagonal(dsrc):
            return assembly.TransportOperator(
                gd, U, cfg.dt, dsrc, problem.params, "centred", [],
                dofs).base.diagonal()
        reaction = base_diagonal(dsrc) - base_diagonal(
            assembly.DiscreteSources(q_injection=dsrc.q_injection,
                                     q_production=np.zeros(gd.ndof)))
        free = np.setdiff1d(np.flatnonzero(dsrc.q_production), dofs)
        # the far ends (1, 0) and (0, 1) of the two producing edges
        assert np.array_equal(gd.anchors[free], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(reaction[free], dsrc.q_production[free],
                           rtol=1e-12, atol=0.0)


class TestAssemblyPatternCache:
    # M != 1 without dispersion: a pressure matrix and a transport operator
    # per step, all on the one pattern without cross terms; lit2's D12
    # puts the diffusion on the cross pattern, which on scheme b holds no
    # other pairs and is the plain one, never built apart
    @pytest.mark.parametrize("cfg, patterns", [
        (RunConfig(test="analytic2", scheme="a", n=8, dt=0.02,
                   t_final=0.06), 1),
        (RunConfig(test="analytic2", scheme="b", reps=4, dt=0.02,
                   t_final=0.06), 1),
        (RunConfig(test="lit2", scheme="a", n=8, dt=18.0, t_final=54.0), 2),
        (RunConfig(test="lit2", scheme="b", reps=4, dt=18.0,
                   t_final=54.0), 1),
    ], ids=["a", "b", "lit2-a", "lit2-b"])
    def test_pattern_built_once_per_discretisation(self, cfg, patterns,
                                                   monkeypatch):
        built = []

        def counting(gd, *args, _real=gd_mod._build_pattern):
            built.append(id(gd))
            return _real(gd, *args)
        monkeypatch.setattr(gd_mod, "_build_pattern", counting)
        problem = build_problem(cfg)
        assert built == []  # built on first use, not with the problem
        _, report = run_coupled(cfg, problem=problem)
        assert len(report.diagnostics) == 3
        assert built == [id(problem.gd)] * patterns


class TestPicardIteration:
    def test_line_search_bounds_iterations(self):
        # a Table 2 scheme B centred column (`gdflow table --suite ta2b`):
        # from step 2 on, full Newton steps overshoot and cycle between
        # clamp sets unless the line search shortens them
        cfg = RunConfig(test="analytic2", scheme="b", reps=64, dt=0.005,
                        t_final=0.025)
        _, report = run_coupled(cfg)
        iters = [row["picard_iters"] for row in report.diagnostics]
        assert max(iters) <= 30, iters
        assert sum(row["backtracks"] for row in report.diagnostics) >= 1

    @staticmethod
    def first_step():
        """Arguments of the first transport step of a small analytic run,
        which needs two Picard iterations."""
        problem = build_problem(RunConfig(test="analytic1", scheme="a", n=4,
                                          dt=0.1))
        gd = problem.gd
        c0 = np.zeros(gd.ndof)
        _, U, _ = assembly.solve_pressure(gd, c0, problem.mobility,
                                          problem.dsrc, [])
        op = assembly.TransportOperator(gd, U, 0.1, problem.dsrc,
                                        problem.params, "centred", [],
                                        problem.dirichlet_dofs)
        return (op, c0), problem.dirichlet_at(0.1)

    def test_picard_error_keeps_history(self, monkeypatch):
        args, values = self.first_step()
        _, info = assembly.transport_step(*args, dirichlet=values)
        assert info["picard_iters"] >= 2
        monkeypatch.setattr(assembly, "PICARD_MAX_ITER", 1)
        with pytest.raises(assembly.PicardError) as exc:
            assembly.transport_step(*args, dirichlet=values)
        assert len(exc.value.history) == 1

    def test_step_floor_ends_backtracking(self, monkeypatch):
        # no step length can meet this decrease condition: each iteration
        # halves down to the floor and takes that short step
        monkeypatch.setattr(assembly, "ARMIJO_DECREASE",
                            2.0 / assembly.MIN_STEP)
        monkeypatch.setattr(assembly, "PICARD_MAX_ITER", 3)
        args, values = self.first_step()
        with pytest.raises(assembly.PicardError) as exc:
            assembly.transport_step(*args, dirichlet=values)
        history = exc.value.history
        assert len(history) == 3
        assert history[0] > history[1] > history[2]


class TestConvergenceSuite:
    def test_rows_and_ratios(self):
        rows = convergence_suite((
            RunConfig(test="analytic1", scheme="a", n=8, dt=0.05),
            RunConfig(test="analytic1", scheme="a", n=16, dt=0.025)))
        assert len(rows) == 2
        assert np.isnan(rows[0]["ratio_l1"])
        assert np.isclose(rows[1]["ratio_l1"], rows[0]["l1"] / rows[1]["l1"])
        assert rows[1]["l1"] < rows[0]["l1"]


def test_public_names_resolve():
    for name in gdflow.__all__:
        assert getattr(gdflow, name) is not None
