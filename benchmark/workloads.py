"""Workloads of the gdflow benchmark: the inputs, one timed repetition, and
the correctness gate every repetition must pass before its times count.

A workload has three methods:

* ``setup(seed)`` builds what the repetitions share (the problem, or the
  discretisations of a refinement sequence); the harness times it as
  ``setup_s``.
* ``run(state, seed, out_dir, stamp)`` is one timed repetition.  It calls
  ``stamp()`` after every step, so the harness can time steps without
  touching the program.
* ``check(outcome)`` returns the list of failed checks; an empty list
  means the repetition is correct.

Run lengths are shorter than the published tables so that a repetition
takes a few seconds; the L1/L2 references for those lengths were recorded
at the commit that introduced the benchmark.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gdflow import gd as gd_mod
from gdflow import io_cli, mesh, quality, sim

PICARD_MAX = 30           # acceptance criterion 9
REF_RTOL = 1e-3           # far above solver tolerances, far below any real error
NEUMANN_MASS_TOL = 1e-8   # acceptance criterion 5
NEUMANN_MEAN_TOL = 1e-8   # acceptance criterion 6
CD_SPREAD_MAX = 0.05      # acceptance criterion 8


def _finite(name, values):
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{name} has non-finite values"]


def _within(name, value, ref, rtol):
    if abs(value - ref) <= rtol * abs(ref):
        return []
    return [f"{name}={value:.6e} not within {rtol:g} of {ref:.6e}"]


def _vtk_cell_count(path):
    with open(path) as f:
        for line in f:
            if line.startswith("CELL_DATA"):
                return int(line.split()[1])
    raise ValueError(f"{path}: no CELL_DATA section")


@dataclass(frozen=True)
class Coupled:
    """One coupled run (pressure -> Darcy velocity -> transport per step).

    With ``snapshot_every`` > 0 it also does the output work of
    ``gdflow run``: a VTK snapshot every that many steps, each validated
    after writing, then ``errors.csv`` and ``diagnostics.csv``.
    """

    config: sim.RunConfig
    snapshot_every: int = 0
    reference: dict = None   # {"l1": ..., "l2": ...} at this run length

    def setup(self, seed):
        return sim.build_problem(self.config)

    def work_units(self, problem):
        """Degrees of freedom times steps of one repetition."""
        return problem.gd.ndof * self.config.resolved().n_steps

    def run(self, problem, seed, out_dir, stamp):
        out_dir = Path(out_dir)
        every = self.snapshot_every

        def snapshot(step, t, state):
            if every and step % every == 0:
                path = out_dir / f"fields_{step}.vtk"
                io_cli.write_vtk(state.gd, {"c": state.gd.pi(state.c),
                                            "p": state.gd.pi(state.p)},
                                 path, velocity=state.U)
                io_cli.validate_vtk(path)
            stamp()

        config = self.config
        state, report = sim.run_coupled(config, snapshot_cb=snapshot,
                                        problem=problem)
        files = []
        if every:
            files = sorted(out_dir.glob("fields_*.vtk"))
            io_cli.write_error_rows(out_dir / "errors.csv", [{
                "scheme": config.scheme, "variant": config.variant,
                "mesh": config.mesh_label, "dt": config.dt,
                "l1": report.l1, "l2": report.l2, "ratio_l1": float("nan")}])
            io_cli.write_diagnostics(out_dir / "diagnostics.csv",
                                     report.diagnostics)
            files += [out_dir / "errors.csv", out_dir / "diagnostics.csv"]
        return {"problem": problem, "state": state, "report": report,
                "files": files}

    def check(self, outcome):
        problem, state, report = (outcome["problem"], outcome["state"],
                                  outcome["report"])
        config = self.config.resolved()
        fails = []
        for name in ("c", "p", "U"):
            fails += _finite(name, getattr(state, name))
        diags = report.diagnostics
        if len(diags) != config.n_steps:
            fails.append(f"{len(diags)} diagnostics rows for "
                         f"{config.n_steps} steps")
        for key in ("picard_residual", "pressure_mean", "pressure_rhs_norm",
                    "cmin", "cmax"):
            fails += _finite(f"diagnostics {key}", [d[key] for d in diags])
        worst = report.max_picard_iters()
        if worst > PICARD_MAX:
            fails.append(f"{worst} Picard iterations in one step "
                         f"> {PICARD_MAX}")
        if problem.exact is not None:
            fails += _finite("l1/l2", [report.l1, report.l2])
        if self.reference is not None:
            fails += _within("L1", report.l1, self.reference["l1"], REF_RTOL)
            fails += _within("L2", report.l2, self.reference["l2"], REF_RTOL)
        if problem.dirichlet_dofs is None:
            mass = max(d["mass_residual"] for d in diags)
            if not mass <= NEUMANN_MASS_TOL:
                fails.append(f"mass residual {mass:.3e} > {NEUMANN_MASS_TOL}")
            mean = max(abs(d["pressure_mean"]) / d["pressure_rhs_norm"]
                       for d in diags)
            if not mean <= NEUMANN_MEAN_TOL:
                fails.append(f"|pressure mean| / ||rhs|| = {mean:.3e} "
                             f"> {NEUMANN_MEAN_TOL}")
        if self.snapshot_every:
            fails += self._check_files(outcome["files"], state.gd.ndof,
                                       config.n_steps)
        return fails

    def _check_files(self, files, ndof, n_steps):
        fails = []
        vtks = [f for f in files if f.suffix == ".vtk"]
        expected = n_steps // self.snapshot_every
        if len(vtks) != expected:
            fails.append(f"{len(vtks)} VTK snapshots, expected {expected}")
        for path in vtks:
            try:
                io_cli.validate_vtk(path)
                cells = _vtk_cell_count(path)
            except (OSError, ValueError, IndexError) as exc:
                fails.append(f"invalid VTK {path.name}: {exc}")
                continue
            if cells != ndof:
                fails.append(f"{path.name} has {cells} cells for {ndof} dofs")
        for name, rows in (("errors.csv", 1), ("diagnostics.csv", n_steps)):
            path = next((f for f in files if f.name == name), None)
            if path is None or not path.exists():
                fails.append(f"{name} missing")
            elif len(path.read_text().splitlines()) != rows + 1:
                fails.append(f"{name} does not hold {rows} rows")
        return fails


@dataclass(frozen=True)
class QualitySequence:
    """The three quality indicators over the ``gdflow quality`` refinement
    sequences; the seed sets the power iteration's start vector."""

    levels: tuple = (("a", (8, 16, 32, 64, 128)), ("b", (8, 16, 32, 64)))

    def setup(self, seed):
        gds = []
        for scheme, sizes in self.levels:
            for size in sizes:
                if scheme == "a":
                    gd = gd_mod.scheme_a(mesh.build_cartesian(size, 1.0))
                else:
                    tri = mesh.build_structured_triangulation(size, 1.0)
                    gd = gd_mod.scheme_b(tri, mesh.build_dual(tri))
                gds.append((scheme, gd))
        return gds

    def work_units(self, gds):
        """Degrees of freedom times indicator evaluations of one repetition."""
        return 3 * sum(gd.ndof for _, gd in gds)

    def run(self, gds, seed, out_dir, stamp):
        f, grad_f = quality.default_test_function()
        phi, div_phi = quality.default_test_field()
        rows = []
        for scheme, gd in gds:
            cd = quality.coercivity_constant(gd, seed=seed)
            stamp()
            sd = quality.consistency_defect(gd, f, grad_f)
            stamp()
            wd = quality.limit_conformity_defect(gd, phi, div_phi)
            stamp()
            rows.append((scheme, cd, sd, wd))
        return {"rows": rows}

    def check(self, outcome):
        rows = outcome["rows"]
        fails = _finite("indicators", [r[1:] for r in rows])
        if fails:
            return fails
        for scheme, _ in self.levels:
            cds, sds, wds = zip(*(r[1:] for r in rows if r[0] == scheme))
            spread = (max(cds) - min(cds)) / min(cds)
            if spread > CD_SPREAD_MAX:
                fails.append(f"scheme {scheme}: C_D spread {spread:.3%} "
                             f"> {CD_SPREAD_MAX:.0%}")
            for name, vals in (("S_D", sds), ("W_D", wds)):
                if not all(a > b for a, b in zip(vals, vals[1:])):
                    fails.append(f"scheme {scheme}: {name} not strictly "
                                 f"decreasing {vals}")
        return fails


def coupled(t_final, snapshot_every=0, reference=None, **config):
    """A ``Coupled`` workload from ``RunConfig`` fields."""
    # vtk_every=1 makes the loop call the snapshot hook after every step
    return Coupled(config=sim.RunConfig(t_final=t_final, vtk_every=1,
                                        **config),
                   snapshot_every=snapshot_every, reference=reference)


WORKLOADS = {
    # Table 1, scheme B, finest column: M = 1, so one pressure solve and
    # the time goes to transport factorisations, solves and assembly.
    "radial-p1": coupled(
        test="analytic1", scheme="b", reps=64, dt=0.00125, variant="centred",
        t_final=12 * 0.00125,
        reference={"l1": 2.136366115e-3, "l2": 1.087783603e-2}),
    # pure-Neumann five-spot with the output of `gdflow run`
    "fivespot-vtk": coupled(
        test="lit2", scheme="b", reps=32, dt=18.0, t_final=20 * 18.0,
        snapshot_every=5),
    # the rank-one pressure operator solved many times with one matrix
    "quality-seq": QualitySequence(),
}
