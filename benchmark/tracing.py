"""Outside-in tracing for the gdflow benchmark.

The tracer wraps named functions of the gdflow modules, and the SciPy
solver entry points that ``gdflow.linalg`` calls, by replacing module (or
class) attributes; it records one span per call in memory and reduces the
spans to per-layer metrics.  The program is not modified, and the
wrappers are removed again when the ``traced`` block ends.

Every target is looked up by module and name, so a target that a later
version of the program removes is listed in ``Tracer.absent`` and its
metrics read 0; nothing fails.  Counting at the SciPy boundary keeps the
factorisation and Krylov counts valid whatever shape ``gdflow.linalg``
takes.
"""

import contextlib
import functools
import importlib
import sys
import time

# (module, attribute, layer).  The layer is the gdflow module a span's time
# is charged to; the SciPy calls belong to linalg, whose boundary they are.
TARGETS = (
    ("gdflow.sim", "build_problem", "sim"),
    ("gdflow.sim", "build_discretisation", "sim"),
    ("gdflow.sim", "run_coupled", "sim"),
    ("gdflow.sim", "error_norms", "sim"),
    ("gdflow.assembly", "discretize_sources", "assembly"),
    ("gdflow.assembly", "solve_pressure", "assembly"),
    ("gdflow.assembly", "pressure_matrix", "assembly"),
    ("gdflow.assembly", "transport_step", "assembly"),
    ("gdflow.assembly", "diffusion_matrix", "assembly"),
    ("gdflow.assembly", "convection_matrix", "assembly"),
    ("gdflow.assembly", "artificial_diffusion", "assembly"),
    ("gdflow.assembly", "eliminate_dirichlet", "assembly"),
    ("gdflow.assembly", "mass_balance_residual", "assembly"),
    ("gdflow.linalg", "solve_spd", "linalg"),
    ("gdflow.linalg", "solve_general", "linalg"),
    ("gdflow.linalg", "residual_norm", "linalg"),
    ("gdflow.linalg", "FactorizationCache.solve", "linalg"),
    ("gdflow.io_cli", "write_vtk", "io_cli"),
    ("gdflow.io_cli", "validate_vtk", "io_cli"),
    ("gdflow.io_cli", "dof_velocity", "io_cli"),
    ("gdflow.io_cli", "write_csv", "io_cli"),
    ("gdflow.io_cli", "write_error_rows", "io_cli"),
    ("gdflow.io_cli", "write_diagnostics", "io_cli"),
    ("gdflow.quality", "coercivity_constant", "quality"),
    ("gdflow.quality", "consistency_defect", "quality"),
    ("gdflow.quality", "limit_conformity_defect", "quality"),
    ("gdflow.quality", "quality_report", "quality"),
    ("gdflow.mesh", "build_cartesian", "mesh"),
    ("gdflow.mesh", "build_structured_triangulation", "mesh"),
    ("gdflow.mesh", "build_dual", "mesh"),
    ("gdflow.mesh", "load_mesh", "mesh"),
    ("gdflow.mesh", "validate_mesh", "mesh"),
    ("gdflow.gd", "scheme_a", "gd"),
    ("gdflow.gd", "scheme_b", "gd"),
    ("scipy.sparse.linalg", "splu", "linalg"),
    ("scipy.sparse.linalg", "spsolve", "linalg"),
    ("scipy.sparse.linalg", "cg", "linalg"),
    ("scipy.sparse.linalg", "bicgstab", "linalg"),
    ("scipy.sparse.linalg", "gmres", "linalg"),
)

KRYLOV = ("scipy.cg", "scipy.bicgstab", "scipy.gmres")
# layers whose self time is reported; together they cover every span
LAYERS = ("bench", "sim", "assembly", "linalg", "io_cli", "quality",
          "mesh", "gd")

# span record fields
NAME, LAYER, START, END, PARENT, VALUE = range(6)
# names of the harness's root spans: one timed repetition, one set-up
REP_ROOT, SETUP_ROOT = "bench.rep", "bench.setup"


class _TracedLU:
    """A SuperLU factorisation whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans ``[name, layer, start, end, parent, value]`` in memory.

    ``value`` holds the LU fill (L.nnz + U.nnz) of a ``splu`` span and the
    iteration count of a Krylov span.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer):
        idx = self.open(name, layer)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _wrap_splu(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, "linalg")
            try:
                lu = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.spans[idx][VALUE] = lu.nnz
            return _TracedLU(lu, self.wrap(lu.solve, "scipy.SuperLU.solve",
                                           "linalg"))
        return traced

    def _wrap_krylov(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, "linalg")
            record = self.spans[idx]
            user_callback = kwargs.get("callback")

            def count(*cb_args):
                record[VALUE] += 1
                if user_callback is not None:
                    user_callback(*cb_args)

            if user_callback is None and name == "scipy.gmres":
                kwargs.setdefault("callback_type", "pr_norm")
            kwargs["callback"] = count
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        self.absent = []
        for module_name, attr, layer in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if module_name.startswith("scipy"):
                span_name = f"scipy.{name}"
                if span_name == "scipy.splu":
                    wrapper = self._wrap_splu(original, span_name)
                elif span_name in KRYLOV:
                    wrapper = self._wrap_krylov(original, span_name)
                else:
                    wrapper = self.wrap(original, span_name, layer)
            else:
                wrapper = self.wrap(original, f"{layer}.{attr}", layer)
            if path:
                self._patch(owner, name, wrapper)
                continue
            # every module namespace that holds the function: its home, the
            # public module it was found in, and gdflow's own modules
            homes = {module_name, getattr(original, "__module__", None)}
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name in homes
                                          or mod_name.startswith("gdflow")):
                    continue
                for key, val in list(vars(module).items()):
                    if val is original:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def traced(targets=TARGETS, tracer=None):
    """Install the hooks for the duration of the block; spans go to
    ``tracer`` (a new one by default)."""
    tracer = Tracer() if tracer is None else tracer
    tracer.install(targets)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _is_solve(spans, i):
    """An outermost linalg span that solves a system (not a residual check)."""
    span = spans[i]
    parent = span[PARENT]
    return (span[LAYER] == "linalg" and span[NAME] != "linalg.residual_norm"
            and (parent < 0 or spans[parent][LAYER] != "linalg"))


def _ancestors(spans, i):
    i = spans[i][PARENT]
    while i >= 0:
        yield spans[i]
        i = spans[i][PARENT]


def summarize(spans):
    """Reduce spans to per-layer metrics, per repetition and per set-up.

    A span belongs to the repetition (or set-up) whose root span it sits
    under; spans under neither are ignored.  Self time is a span's duration
    minus the time its direct children cover, so the layers' self times
    sum to the duration of the root spans.
    """
    n = len(spans)
    root = [0] * n
    child_time = [0.0] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]

    phases = {REP_ROOT: {}, SETUP_ROOT: {}}
    counts = {REP_ROOT: 0, SETUP_ROOT: 0}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, span in enumerate(spans):
        phase = spans[root[i]][NAME]
        if phase not in phases:
            continue
        if root[i] == i:
            counts[phase] += 1
        acc = phases[phase]
        dur = span[END] - span[START]
        own = dur - child_time[i]
        name, layer = span[NAME], span[LAYER]
        add(f"{name}:calls", 1)
        add(f"{name}:incl", dur)
        add(f"{name}:self", own)
        add(f"{layer}.self_s", own)
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != layer:
            add(f"{layer}:outer", dur)
        if name == "scipy.splu":
            acc["lu_fill_nnz"] = max(acc.get("lu_fill_nnz", 0), span[VALUE])
        if name in KRYLOV:
            add("krylov_iters", span[VALUE])
            add("krylov_s", dur)
        if _is_solve(spans, i):
            above = [a[NAME] for a in _ancestors(spans, i)]
            kind = ("transport" if "assembly.transport_step" in above
                    else "pressure")
            add(f"{kind}_solve_calls", 1)
            add(f"{kind}_solve_s", dur)
            if any(a.startswith("quality.") for a in above):
                add("quality_solves", 1)

    reps = max(counts[REP_ROOT], 1)
    setups = max(counts[SETUP_ROOT], 1)
    rep, setup = phases[REP_ROOT], phases[SETUP_ROOT]

    def per_rep(key):
        return rep.get(key, 0.0) / reps

    factorizations = per_rep("scipy.splu:calls")
    transport_calls = per_rep("transport_solve_calls")
    metrics = {
        "linalg.factorizations": factorizations,
        "linalg.factor_s": per_rep("scipy.splu:incl"),
        "linalg.lu_fill_nnz": rep.get("lu_fill_nnz", 0),
        "linalg.transport_solve_calls": transport_calls,
        "linalg.transport_solve_s": per_rep("transport_solve_s"),
        "linalg.solves_per_factorization": (
            transport_calls / factorizations if factorizations else 0.0),
        "linalg.pressure_solve_calls": per_rep("pressure_solve_calls"),
        "linalg.pressure_solve_s": per_rep("pressure_solve_s"),
        "linalg.krylov_iters": per_rep("krylov_iters"),
        "linalg.krylov_s": per_rep("krylov_s"),
        "assembly.solve_pressure_s": per_rep("assembly.solve_pressure:incl"),
        "assembly.pressure_matrix_s": per_rep(
            "assembly.pressure_matrix:incl"),
        "assembly.transport_step_s": per_rep("assembly.transport_step:incl"),
        "assembly.transport_self_s": per_rep("assembly.transport_step:self"),
        "assembly.diffusion_matrix_s": per_rep(
            "assembly.diffusion_matrix:incl"),
        "assembly.convection_matrix_s": per_rep(
            "assembly.convection_matrix:incl"),
        "assembly.eliminate_dirichlet_s": per_rep(
            "assembly.eliminate_dirichlet:incl"),
        "assembly.eliminate_dirichlet_calls": per_rep(
            "assembly.eliminate_dirichlet:calls"),
        "assembly.mass_balance_s": per_rep(
            "assembly.mass_balance_residual:incl"),
        "sim.loop_self_s": per_rep("sim.run_coupled:self"),
        "io_cli.write_vtk_s": per_rep("io_cli.write_vtk:incl"),
        "io_cli.validate_vtk_s": per_rep("io_cli.validate_vtk:incl"),
        "io_cli.write_csv_s": per_rep("io_cli.write_csv:incl"),
        "quality.coercivity_s": per_rep("quality.coercivity_constant:incl"),
        "quality.consistency_s": per_rep("quality.consistency_defect:incl"),
        "quality.limit_conformity_s": per_rep(
            "quality.limit_conformity_defect:incl"),
        "quality.spd_solves": per_rep("quality_solves"),
        "mesh.build_s": setup.get("mesh:outer", 0.0) / setups,
        "gd.build_s": setup.get("gd:outer", 0.0) / setups,
        "assembly.discretize_sources_s": setup.get(
            "assembly.discretize_sources:incl", 0.0) / setups,
        "trace.setup_s": setup.get(f"{SETUP_ROOT}:incl", 0.0) / setups,
        "trace.solve_s": per_rep(f"{REP_ROOT}:incl"),
        "trace.spans_per_rep": sum(v for k, v in rep.items()
                                   if k.endswith(":calls")) / reps,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_rep(f"{layer}.self_s")
    metrics["trace.accounted_s"] = sum(metrics[f"{layer}.self_s"]
                                       for layer in LAYERS)
    return metrics
