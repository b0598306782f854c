"""Configuration files, CSV/VTK emission and the command-line surface."""

import argparse
import csv
import sys
from collections import deque
from itertools import islice
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import assembly, linalg, quality, sim
from .mesh import _unique_edges, build_cartesian, build_dual, \
    build_structured_triangulation, load_mesh
from .sim import ConfigError, RunConfig

# config-file key -> RunConfig field, where the two differ
_KEY_FIELDS = {"level": "reps"}
_FIELD_KEYS = {name: key for key, name in _KEY_FIELDS.items()}
_KEY_TYPES = {_FIELD_KEYS.get(f.name, f.name): f.type
              for f in fields(RunConfig)}


def parse_config(path):
    """Read a key=value config file into a validated RunConfig."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[_KEY_FIELDS.get(key, key)] = _KEY_TYPES[key](val)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {val!r} for {key!r}")
    if "test" not in values:
        raise ConfigError(f"{path}: missing required key 'test'")
    return RunConfig(**values).resolved()


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def write_csv(path, fieldnames, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


ERROR_COLUMNS = ("scheme", "variant", "mesh", "dt", "l1", "l2", "ratio_l1")
DIAG_COLUMNS = ("step", "t", "mass_residual", "pressure_mean",
                "picard_iters", "picard_residual", "picard_relative",
                "backtracks", "factorizations", "cmin", "cmax")


def write_error_rows(path, rows):
    write_csv(path, ERROR_COLUMNS, rows)


def write_diagnostics(path, diagnostics):
    write_csv(path, DIAG_COLUMNS, diagnostics)


# ---------------------------------------------------------------------------
# legacy ASCII VTK

def _scheme_a_polygons(gd):
    """Reconstruction boxes, counter-clockwise from the lower-left corner."""
    x0, y0, x1, y1 = gd.geometry.boxes()
    points = np.stack([x0, y0, x1, y0, x1, y1, x0, y1], axis=1).reshape(-1, 2)
    return points, np.arange(len(points)).reshape(-1, 4)


def _scheme_b_polygons(gd):
    """Dual cells: the midpoints of the vertex's edges, the centroids of its
    triangles (and the vertex itself on the boundary), by angle about their
    mean."""
    mesh = gd.geometry
    nv, v = mesh.n_vertices, mesh.vertices
    edges, incident = _unique_edges(mesh.triangles)
    boundary = np.unique(edges[incident == 1])
    mid = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    centroid = np.repeat(v[mesh.triangles].mean(axis=1), 3, axis=0)
    owner = np.concatenate([edges.T.ravel(), mesh.triangles.ravel(), boundary])
    pts = np.concatenate([mid, mid, centroid, v[boundary]])
    # the centre sums each cell's points in (x, y) order
    order = np.lexsort((pts[:, 1], pts[:, 0], owner))
    owner, pts = owner[order], pts[order]
    counts = np.bincount(owner, minlength=nv)
    cx = np.bincount(owner, weights=pts[:, 0], minlength=nv) / counts
    cy = np.bincount(owner, weights=pts[:, 1], minlength=nv) / counts
    angle = np.arctan2(pts[:, 1] - cy[owner], pts[:, 0] - cx[owner])
    points = pts[np.lexsort((angle, owner))]
    polys = np.split(np.arange(len(points)), np.cumsum(counts)[:-1])
    return points, polys


def dof_velocity(gd, U):
    """Measure-weighted average of the gradient-cell velocity over each
    reconstruction cell."""
    mg = gd.grad_measures
    weights = gd.overlap.T @ mg
    return (gd.overlap.T @ (mg[:, None] * U)) / weights[:, None]


def _format_rows(rows, fmt):
    """``fmt % row`` per row of a 1-D or 2-D array, formatted in one call;
    the text equals what ``np.savetxt(f, rows, fmt=fmt)`` writes."""
    rows = np.asarray(rows, dtype=float)
    return (fmt + "\n") * len(rows) % tuple(rows.ravel().tolist())


# (gd, text) of the last discretisation written: only the last one is kept,
# as in linalg.FactorizationCache
_geometry = (None, "")


def _geometry_text(gd):
    """The header, POINTS, CELLS and CELL_TYPES of ``gd``'s file: formatted
    once, then reused while ``gd`` is the last discretisation written."""
    global _geometry
    if _geometry[0] is not gd:
        polygons = _scheme_a_polygons if gd.kind == "a" else _scheme_b_polygons
        points, polys = polygons(gd)
        size = sum(len(p) + 1 for p in polys)
        _geometry = gd, "".join([
            "# vtk DataFile Version 3.0\n"
            "gdflow fields\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {len(points)} double\n",
            _format_rows(points, "%.9g %.9g 0"),
            f"CELLS {len(polys)} {size}\n",
            *(f"{len(p)} {' '.join(map(str, p))}\n" for p in polys),
            f"CELL_TYPES {len(polys)}\n",
            *("9\n" if len(p) == 4 else "7\n" for p in polys)])
    return _geometry[1]


def write_vtk(gd, scalar_fields, path, velocity=None):
    """Write the reconstruction cells as polygons with CELL_DATA scalars
    (one value per cell) and, optionally, the cell-averaged Darcy velocity.

    ``scalar_fields`` maps names to per-dof arrays; ``velocity`` is the
    per-gradient-cell field, aggregated onto the reconstruction cells.
    """
    for name, values in scalar_fields.items():
        if len(values) != gd.ndof:
            raise ValueError(f"field {name!r} has {len(values)} values "
                             f"for {gd.ndof} cells")
    geometry = _geometry_text(gd)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(geometry)
        f.write(f"CELL_DATA {gd.ndof}\n")
        for name, values in scalar_fields.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            f.write(_format_rows(values, "%.9g"))
        if velocity is not None:
            f.write("VECTORS velocity double\n")
            f.write(_format_rows(dof_velocity(gd, velocity), "%.9g %.9g 0"))


def validate_vtk(path):
    """Self-consistency check: declared counts match the record counts.
    The file is read as a stream, one line at a time."""
    with open(path) as f:
        def header(prefix, what):
            """The counts of the next line that starts with ``prefix``."""
            for line in f:
                if line.startswith(prefix):
                    fields = line.split()[1:1 + len(what)]
                    if len(fields) < len(what):
                        missing = " and ".join(what[len(fields):])
                        raise ValueError(f"{path}: {prefix} header lacks "
                                         f"its {missing}")
                    return [int(v) for v in fields]
            raise ValueError(f"{path}: missing {prefix!r} section")

        def records(n, valid, section):
            """Check the next n lines with ``valid``; yield each."""
            got = 0
            for line in islice(f, n):
                if not valid(line):
                    break
                got += 1
                yield line
            if got < n:
                raise ValueError(f"{path}: truncated {section}")

        def skip(n):
            deque(islice(f, n), maxlen=0)

        n_points, = header("POINTS", ["count"])
        skip(n_points)
        n_cells, size = header("CELLS", ["count", "size"])
        counted = sum(int(r.split()[0]) + 1 for r in records(
            n_cells, str.strip, "CELLS records"))
        if counted != size:
            raise ValueError(f"{path}: CELLS size {size} != records {counted}")
        if header("CELL_TYPES", ["count"])[0] != n_cells:
            raise ValueError(f"{path}: CELL_TYPES count mismatch")
        skip(n_cells)
        if header("CELL_DATA", ["count"])[0] != n_cells:
            raise ValueError(f"{path}: CELL_DATA count mismatch")
        for line in f:
            if line.startswith("SCALARS"):
                skip(1)  # LOOKUP_TABLE
                values = records(n_cells, str.strip, "SCALARS array")
            elif line.startswith("VECTORS"):
                values = records(n_cells, lambda v: len(v.split()) == 3,
                                 "VECTORS array")
            else:
                continue
            deque(values, maxlen=0)
    return True


# ---------------------------------------------------------------------------
# CLI

def _cmd_run(args):
    config = parse_config(args.config)
    if args.out_dir:
        config = RunConfig(**{**config.__dict__, "out_dir": args.out_dir})
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails early

    def snapshot(step, t, state):
        write_vtk(state.gd, {"c": state.c, "p": state.p},
                  out / f"fields_{step}.vtk", velocity=state.U)

    state, report = sim.run_coupled(config, snapshot_cb=snapshot)
    write_error_rows(out / "errors.csv", [{
        "scheme": config.scheme, "variant": config.variant,
        "mesh": config.mesh_label, "dt": config.dt,
        "l1": report.l1, "l2": report.l2, "ratio_l1": float("nan")}])
    write_diagnostics(out / "diagnostics.csv", report.diagnostics)
    print(f"run complete: {config.test} scheme {config.scheme} "
          f"({config.mesh_label}, dt={config.dt}) "
          f"L1={report.l1:.6g} L2={report.l2:.6g} "
          f"wall={report.wall_time:.1f}s")
    return 0


_SUITES = {
    "ta1": [("analytic1", "a", "centred", sim.TABLE1_A),
            ("analytic1", "b", "centred", sim.TABLE1_B)],
    "ta2a": [("analytic2", "a", "centred", sim.TABLE2_A),
             ("analytic2", "a", "upstream", sim.TABLE2_A),
             ("analytic2", "a", "dh", sim.TABLE2_A)],
    "ta2b": [("analytic2", "b", "centred", sim.TABLE2_B),
             ("analytic2", "b", "upstream", sim.TABLE2_B),
             ("analytic2", "b", "dh", sim.TABLE2_B)],
}


def _cmd_table(args):
    rows = []
    for test, scheme, variant, levels in _SUITES[args.suite]:
        rows.extend(sim.convergence_suite(test, scheme, variant, levels))
    path = Path(args.out_dir) / "errors.csv"
    write_error_rows(path, rows)
    for row in rows:
        print(f"{row['scheme']:>2} {row['variant']:>9} {row['mesh']:>10} "
              f"dt={row['dt']:<8g} L1={row['l1']:.6g} L2={row['l2']:.6g}")
    print(f"wrote {path}")
    return 0


def _cmd_quality(args):
    if args.levels < 1:
        raise ConfigError(f"quality needs --levels >= 1, got {args.levels}")
    rows = []
    for lvl in range(args.levels):
        size = args.base * 2 ** lvl
        rep = quality.quality_report(
            sim.build_discretisation(args.scheme, size, 1.0))
        mesh_label = f"{size}x{size}" if args.scheme == "a" else f"tri{size}"
        rows.append({"mesh": mesh_label, "h": rep.h, "ndof": rep.ndof,
                     "C_D": rep.coercivity,
                     "S_D": rep.consistency, "W_D": rep.limit_conformity})
    path = Path(args.out_dir) / "quality.csv"
    write_csv(path, ("mesh", "h", "ndof", "C_D", "S_D", "W_D"), rows)
    for row in rows:
        print(f"{row['mesh']:>10} C_D={row['C_D']:.6g} "
              f"S_D={row['S_D']:.6g} W_D={row['W_D']:.6g}")
    return 0


def _cmd_mesh_info(args):
    if sum(a is not None for a in (args.n, args.reps, args.mesh_file)) > 1:
        raise ConfigError("give only one of --n, --reps, --mesh-file")
    if args.mesh_file is not None:
        mesh = load_mesh(args.mesh_file)
    elif args.reps is not None:
        mesh = build_structured_triangulation(args.reps, args.side)
    elif args.n is not None:
        grid = build_cartesian(args.n, args.side)
        print(f"cartesian grid: {grid.N}x{grid.N} cells, h={grid.h:g}, "
              f"{grid.n_nodes} nodes, {grid.n_squares} primal squares, "
              f"recon area total {grid.recon_areas.sum():g}")
        return 0
    else:
        raise ConfigError("mesh-info needs one of --n, --reps, --mesh-file")
    areas = mesh.areas()
    print(f"triangulation: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_edges())} boundary edges, "
          f"area {areas.sum():g}, "
          f"h_min={np.sqrt(areas.min()):.4g}, "
          f"dual measure total {build_dual(mesh).sum():g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdflow",
        description="Gradient-discretisation miscible displacement solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="reproduce an error table")
    p_table.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_table.add_argument("--out-dir", default="out")
    p_table.set_defaults(func=_cmd_table)

    p_q = sub.add_parser("quality", help="emit discretisation quality CSV")
    p_q.add_argument("--scheme", required=True, choices=("a", "b"))
    p_q.add_argument("--levels", type=int, default=3)
    p_q.add_argument("--base", type=int, default=8)
    p_q.add_argument("--out-dir", default="out")
    p_q.set_defaults(func=_cmd_quality)

    p_m = sub.add_parser("mesh-info", help="print mesh statistics")
    p_m.add_argument("--n", type=int, default=None)
    p_m.add_argument("--reps", type=int, default=None)
    p_m.add_argument("--mesh-file", default=None)
    p_m.add_argument("--side", type=float, default=1.0)
    p_m.set_defaults(func=_cmd_mesh_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (linalg.SolverError, assembly.PicardError,
            quality.QualityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
