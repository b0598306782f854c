"""Coupled time loop (pressure -> Darcy velocity -> implicit transport per
step), the four built-in test configurations, error measurement against the
analytical radial solution, and the registry of convergence studies."""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly, linalg
from .assembly import ConfigError, discretize_sources
from .gd import scheme_a, scheme_b
from .mesh import build_cartesian, build_dual, build_structured_triangulation, \
    load_mesh
from .physics import AnalyticalRadialSolution, DispersionParams, \
    MobilityTensor

TESTS = ("analytic1", "analytic2", "lit1", "lit2")
SCHEMES = ("a", "b")

# per-test physics defaults: side length, final time, mobility ratio,
# molecular diffusion, dispersion lengths, porosity, permeability, and the
# five-spot well rate (None: the radial sources of the analytic tests)
_TEST_DEFAULTS = {
    "analytic1": dict(side=1.0, t_final=0.4, m_ratio=1.0, dm=0.05,
                      dl=0.0, dt_disp=0.0, phi=1.0, perm=1.0, rate=None),
    "analytic2": dict(side=1.0, t_final=0.4, m_ratio=40.0, dm=0.001,
                      dl=0.0, dt_disp=0.0, phi=1.0, perm=1.0, rate=None),
    "lit1": dict(side=1000.0, t_final=1080.0, m_ratio=1.0, dm=10.0,
                 dl=0.0, dt_disp=0.0, phi=0.1, perm=80.0, rate=30.0),
    "lit2": dict(side=1000.0, t_final=1080.0, m_ratio=41.0, dm=0.0,
                 dl=50.0, dt_disp=5.0, phi=0.1, perm=80.0, rate=30.0),
}


@dataclass(frozen=True)
class RunConfig:
    test: str
    scheme: str = "a"
    variant: str = "centred"
    n: int = None            # Cartesian cells per side (scheme a)
    reps: int = None         # pattern replications (scheme b)
    mesh_file: str = None    # external triangulation (scheme b)
    dt: float = None
    t_final: float = None
    m_ratio: float = None
    dm: float = None
    dl: float = None
    dt_disp: float = None
    phi: float = None
    perm: float = None
    out_dir: str = "out"
    vtk_every: int = 0

    def resolved(self):
        """Fill unset physics fields from the test defaults and validate."""
        if self.test not in TESTS:
            raise ConfigError(f"unknown test {self.test!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant not in assembly.VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        d = _TEST_DEFAULTS[self.test]
        updates = {k: d[k] for k in
                   ("t_final", "m_ratio", "dm", "dl", "dt_disp", "phi", "perm")
                   if getattr(self, k) is None}
        cfg = replace(self, **updates)
        if cfg.dt is None or not (np.isfinite(cfg.dt) and cfg.dt > 0):
            raise ConfigError("a positive finite time step dt is required")
        if not np.isfinite(cfg.t_final / cfg.dt):
            raise ConfigError(f"t_final/dt={cfg.t_final}/{cfg.dt} is not finite")
        n_steps = round(cfg.t_final / cfg.dt)
        if n_steps < 1 or abs(n_steps * cfg.dt - cfg.t_final) > 1e-9 * cfg.t_final:
            raise ConfigError(
                f"dt={cfg.dt} does not divide t_final={cfg.t_final}")
        if cfg.vtk_every < 0:
            raise ConfigError(f"vtk_every must be >= 0, got {cfg.vtk_every}")
        if cfg.scheme == "a":
            if cfg.n is None:
                raise ConfigError("scheme a needs the cell count n")
            if cfg.reps is not None or cfg.mesh_file is not None:
                raise ConfigError("scheme a takes n, not reps or mesh_file")
        elif cfg.n is not None:
            raise ConfigError("scheme b takes reps or mesh_file, not n")
        elif (cfg.reps is None) == (cfg.mesh_file is None):
            raise ConfigError("scheme b needs exactly one of reps and "
                              "mesh_file")
        return cfg

    @property
    def side(self):
        return _TEST_DEFAULTS[self.test]["side"]

    @property
    def n_steps(self):
        return round(self.t_final / self.dt)

    @property
    def mesh_label(self):
        if self.scheme == "a":
            return f"{self.n}x{self.n}"
        if self.mesh_file is not None:
            return self.mesh_file
        return f"tri{self.reps}"


@dataclass
class ErrorReport:
    l1: float
    l2: float
    diagnostics: list = field(default_factory=list)
    wall_time: float = 0.0

    def max_picard_iters(self):
        return max((d["picard_iters"] for d in self.diagnostics), default=0)


@dataclass
class State:
    gd: object
    p: np.ndarray
    c: np.ndarray
    U: np.ndarray
    t: float


def build_discretisation(scheme, size, side, mesh_file=None):
    """Scheme a on the grid of ``size`` cells per side of (0, side)^2, or
    scheme b on ``mesh_file`` or else on ``size`` pattern replications."""
    if scheme == "a":
        return scheme_a(build_cartesian(size, side))
    mesh = load_mesh(mesh_file) if mesh_file is not None \
        else build_structured_triangulation(size, side)
    return scheme_b(mesh, build_dual(mesh))


@dataclass(frozen=True)
class Problem:
    gd: object
    mobility: MobilityTensor
    params: DispersionParams
    dsrc: assembly.DiscreteSources
    exact: AnalyticalRadialSolution = None
    dirichlet_dofs: np.ndarray = None  # concentration constraints

    def dirichlet_at(self, t):
        """The exact concentration at time t on the Dirichlet dofs."""
        if self.dirichlet_dofs is None:
            return None
        return np.atleast_1d(self.exact.concentration(
            self.gd.anchors[self.dirichlet_dofs], t))


def _radial_dirichlet_dofs(gd):
    """Dofs on the two boundary edges through the origin (corner included,
    far endpoints excluded)."""
    x, y = gd.anchors.T
    tol = 1e-12  # the bottom edge, then the left edge
    return np.flatnonzero((np.abs(y) < tol) & (x < 1.0 - tol)
                          | (np.abs(x) < tol) & (y < 1.0 - tol))


def build_problem(config):
    config = config.resolved()
    size = config.n if config.scheme == "a" else config.reps
    gd = build_discretisation(config.scheme, size, config.side,
                              config.mesh_file)
    mobility = MobilityTensor(k=config.perm, M=config.m_ratio)
    params = DispersionParams(phi=config.phi, dm=config.dm,
                              dl=config.dl, dt_=config.dt_disp)
    rate = _TEST_DEFAULTS[config.test]["rate"]
    dsrc = discretize_sources(gd, config.side, rate)
    if rate is not None:  # five-spot: pure Neumann, no exact solution
        return Problem(gd=gd, mobility=mobility, params=params, dsrc=dsrc)
    return Problem(gd=gd, mobility=mobility, params=params, dsrc=dsrc,
                   exact=AnalyticalRadialSolution(dm=config.dm),
                   dirichlet_dofs=_radial_dirichlet_dofs(gd))


def error_norms(gd, c, exact, t):
    """Cellwise L1/L2 distances between the reconstructed concentration and
    the exact solution evaluated at the dof anchors."""
    diff = c - exact.concentration(gd.anchors, t)
    l1 = float(gd.recon_measures @ np.abs(diff))
    l2 = float(np.sqrt(gd.recon_measures @ diff ** 2))
    return l1, l2


def run_coupled(config, c0=None, snapshot_cb=None, problem=None):
    """Execute the coupled scheme and return (final State, ErrorReport).

    The pressure step uses the previous concentration (explicit coupling);
    the transport step is implicit.  ``c0``, a function of the points,
    overrides the zero initial concentration; ``snapshot_cb`` is called as
    (step, t, state) after selected steps.
    """
    config = config.resolved()
    if problem is None:
        problem = build_problem(config)
    gd = problem.gd
    c = np.zeros(gd.ndof) if c0 is None else gd.interpolate(c0)

    constant_mobility = problem.mobility.M == 1.0
    operator = None
    orderings = []  # see linalg._lu; one list per run keeps runs independent
    diagnostics = []
    start = time.perf_counter()
    neumann = problem.dirichlet_dofs is None

    for n in range(config.n_steps):
        t_next = (n + 1) * config.dt
        try:
            if operator is None or not constant_mobility:
                operator = None  # free it and its LU before the next solve
                p, U, p_info = assembly.solve_pressure(
                    gd, c, problem.mobility, problem.dsrc, orderings)
                operator = assembly.TransportOperator(
                    gd, U, config.dt, problem.dsrc, problem.params,
                    config.variant, orderings, problem.dirichlet_dofs)
            c_prev = c
            factored = operator.cache.factorizations
            c, t_info = assembly.transport_step(
                operator, c_prev, dirichlet=problem.dirichlet_at(t_next))
        except (linalg.SolverError, assembly.PicardError) as exc:
            exc.args = (f"step {n + 1} (t={t_next:g}): {exc.args[0]}",) \
                + exc.args[1:]
            raise
        row = {
            "step": n + 1, "t": float(t_next),
            **p_info,
            **t_info,
            "factorizations": operator.cache.factorizations - factored,
            "cmin": float(c.min()), "cmax": float(c.max()),
            "mass_residual": (assembly.mass_balance_residual(
                gd, c_prev, c, config.dt, problem.dsrc, problem.params)
                if neumann else float("nan")),
        }
        diagnostics.append(row)
        if snapshot_cb is not None and config.vtk_every > 0 \
                and (n + 1) % config.vtk_every == 0:
            snapshot_cb(n + 1, t_next, State(gd=gd, p=p, c=c, U=U, t=t_next))

    wall = time.perf_counter() - start
    l1 = l2 = float("nan")
    if problem.exact is not None:
        l1, l2 = error_norms(gd, c, problem.exact, config.t_final)
    report = ErrorReport(l1=l1, l2=l2, diagnostics=diagnostics, wall_time=wall)
    return State(gd=gd, p=p, c=c, U=U, t=config.t_final), report


def error_row(config, report, coarser=None):
    """One errors.csv row; ``coarser`` is the previous level's row."""
    return {"scheme": config.scheme, "variant": config.variant,
            "mesh": config.mesh_label, "dt": config.dt,
            "l1": report.l1, "l2": report.l2,
            "ratio_l1": coarser["l1"] / report.l1 if coarser else float("nan")}


def convergence_suite(column):
    """Run one column of RunConfigs at successive levels, one row each."""
    rows = []
    for config in column:
        _, report = run_coupled(config)
        rows.append(error_row(config, report, rows[-1] if rows else None))
    return rows


def _column(test, scheme, variant, levels):
    """One scheme and variant of ``test`` at each (mesh, dt) level."""
    size = "n" if scheme == "a" else "reps"
    return tuple(RunConfig(test=test, scheme=scheme, variant=variant, dt=dt,
                           **{size: mesh}) for mesh, dt in levels)


# the paper's error tables: study -> columns of one scheme and variant
_T2A = ((25, 0.02), (50, 0.01), (100, 0.005))
_T2B = ((16, 0.02), (32, 0.01), (64, 0.005))
STUDIES = {
    "ta1": (_column("analytic1", "a", "centred",
                    ((25, 0.02), (50, 0.005), (100, 0.00125))),
            _column("analytic1", "b", "centred",
                    ((16, 0.02), (32, 0.005), (64, 0.00125)))),
    "ta2a": tuple(_column("analytic2", "a", v, _T2A)
                  for v in assembly.VARIANTS),
    "ta2b": tuple(_column("analytic2", "b", v, _T2B)
                  for v in assembly.VARIANTS),
}
