"""Meshes: Cartesian grids with node-centred reconstruction boxes, conforming
triangulations with barycentric dual cells, and a plain-text mesh file reader.
"""

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid mesh parameters or a mesh violating a structural invariant."""


class MeshParseError(MeshError):
    """Malformed mesh file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform grid on (0, L)^2 with degrees of freedom at the lattice nodes.

    The reconstruction box of a node is the h-box centred at the node
    intersected with the domain: full boxes of area h^2 in the interior,
    half boxes on the edges and quarter boxes at the corners.
    """

    N: int
    L: float
    nodes: np.ndarray = field(repr=False)        # ((N+1)^2, 2)
    recon_areas: np.ndarray = field(repr=False)  # ((N+1)^2,)

    @property
    def h(self):
        return self.L / self.N

    @property
    def n_nodes(self):
        return (self.N + 1) ** 2

    @property
    def n_squares(self):
        return self.N ** 2


def build_cartesian(N, L):
    """Build the node-centred Cartesian grid with N cells per side on (0, L)^2."""
    if N < 2:
        raise MeshError(f"need at least 2 cells per side, got N={N}")
    if not (np.isfinite(L * L) and L > 0):
        raise MeshError("side length must be finite and positive with a "
                        f"finite square, got L={L}")
    h = L / N
    coords_1d = np.arange(N + 1) * h
    xx, yy = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    w = np.full(N + 1, h)
    w[0] = w[-1] = h / 2.0
    recon_areas = (w[None, :] * w[:, None]).ravel()
    return CartesianGrid(N=N, L=float(L), nodes=nodes, recon_areas=recon_areas)


@dataclass(frozen=True)
class TriangularMesh:
    """Conforming triangulation with positively oriented triangles."""

    vertices: np.ndarray = field(repr=False)   # (nv, 2)
    triangles: np.ndarray = field(repr=False)  # (nt, 3) vertex indices

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def areas(self):
        return _signed_areas(self.vertices, self.triangles)

    def boundary_edges(self):
        """Edges incident to exactly one triangle, as (i, j) vertex pairs."""
        edges, counts = _unique_edges(self.triangles)
        return edges[counts == 1]


@dataclass(frozen=True)
class DualMesh:
    """Barycentric dual cells: each vertex receives a third of every incident
    triangle's area."""

    measures: np.ndarray = field(repr=False)  # (nv,)


def _signed_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def _unique_edges(triangles):
    """Edges as sorted vertex pairs (i < j) and how many triangles share each."""
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    n = int(pairs.max(initial=0)) + 1  # one integer key per pair
    keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1], return_counts=True)
    return np.column_stack(np.divmod(keys, n)), counts


def validate_mesh(mesh, area=None):
    """Check orientation and conformity invariants; raise MeshError on failure."""
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= mesh.n_vertices:
        raise MeshError("triangle vertex index out of range")
    finite = np.isfinite(mesh.vertices).all(axis=1)
    if not finite.all():
        raise MeshError(f"vertex {int(np.argmin(finite))} has non-finite "
                        "coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.areas()
        total = areas.sum()
    if not np.isfinite(total):
        raise MeshError("triangle areas overflow: their sum is not finite")
    if np.any(areas <= 0):
        bad = int(np.argmax(areas <= 0))
        raise MeshError(f"triangle {bad} is inverted or degenerate "
                        f"(signed area {areas[bad]:.3e})")
    edges, counts = _unique_edges(mesh.triangles)
    if np.any(counts > 2):
        k = int(np.argmax(counts > 2))
        raise MeshError(f"edge {tuple(edges[k].tolist())} shared by "
                        f"{counts[k]} triangles")
    if area is not None:
        if abs(total - area) > 1e-12 * area:
            raise MeshError(f"triangle areas sum to {total!r}, expected {area!r}")
    return mesh


def build_structured_triangulation(reps, L):
    """Triangulate (0, L)^2 by replicating a fixed 2x2-block base pattern.

    ``reps`` copies of the base pattern per side give 2*reps square blocks
    per side, each split into two triangles along a diagonal whose direction
    alternates with block parity (criss-cross).  Triangles are numbered
    block by block, i fastest, two per block.
    """
    if reps < 1:
        raise MeshError(f"replication count must be >= 1, got {reps}")
    if not (np.isfinite(L) and L > 0):
        raise MeshError(f"side length must be finite and positive, got L={L}")
    n = 2 * reps
    h = L / n
    coords = np.arange(n + 1) * h
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    j, i = np.divmod(np.arange(n * n), n)  # blocks, i fastest
    v00 = i + j * (n + 1)
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    even = ((i + j) % 2 == 0)[:, None]
    # even blocks: diagonal from (i, j) to (i+1, j+1);
    # odd blocks: diagonal from (i+1, j) to (i, j+1)
    first = np.where(even, np.column_stack([v00, v10, v11]),
                     np.column_stack([v00, v10, v01]))
    second = np.where(even, np.column_stack([v00, v11, v01]),
                      np.column_stack([v10, v11, v01]))
    triangles = np.stack([first, second], axis=1).reshape(-1, 3)
    mesh = TriangularMesh(vertices=vertices, triangles=triangles)
    return validate_mesh(mesh, area=L * L)


def build_dual(mesh):
    """Barycentric dual-cell measures: |K_i| = sum of incident areas / 3."""
    areas = mesh.areas()
    measures = np.zeros(mesh.n_vertices)
    np.add.at(measures, mesh.triangles.ravel(),
              np.repeat(areas / 3.0, 3))
    if np.any(measures <= 0):
        raise MeshError("isolated vertex: zero dual measure")
    return DualMesh(measures=measures)


def load_mesh(path):
    """Read a mesh from the plain-text format and validate it.

    Format: ``vertices <n>`` followed by n lines ``x y``, then
    ``triangles <m>`` followed by m lines ``i j k`` (0-based).
    Lines starting with ``#`` are comments.
    """
    tokens = []  # (line_number, [fields])
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.append((lineno, line.split()))
    pos = 0

    def expect_header(name, count_of):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshParseError(f"unexpected end of file, expected '{name}' header")
        lineno, fields = tokens[pos]
        if len(fields) != 2 or fields[0] != name:
            raise MeshParseError(f"expected '{name} <{count_of}>'", line=lineno)
        try:
            n = int(fields[1])
        except ValueError:
            raise MeshParseError(f"bad {count_of} count {fields[1]!r}", line=lineno)
        if n < 0:
            raise MeshParseError(f"negative {count_of} count", line=lineno)
        pos += 1
        return n

    def read_rows(n, width, conv, what):
        nonlocal pos
        rows = np.empty((n, width), dtype=float if conv is float else int)
        for r in range(n):
            if pos >= len(tokens):
                raise MeshParseError(f"unexpected end of file while reading {what}")
            lineno, fields = tokens[pos]
            if len(fields) != width:
                raise MeshParseError(f"expected {width} fields for {what}", line=lineno)
            try:
                rows[r] = [conv(x) for x in fields]
            except ValueError:
                raise MeshParseError(f"bad {what} entry {fields!r}", line=lineno)
            pos += 1
        return rows

    nv = expect_header("vertices", "vertex")
    vertices = read_rows(nv, 2, float, "vertex")
    nt = expect_header("triangles", "triangle")
    triangles = read_rows(nt, 3, int, "triangle")
    if pos != len(tokens):
        raise MeshParseError("trailing content after triangle block",
                             line=tokens[pos][0])
    return validate_mesh(TriangularMesh(vertices=vertices, triangles=triangles))


def save_mesh(mesh, path):
    """Write the plain-text format read by :func:`load_mesh`."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices}\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        f.write(f"triangles {mesh.n_triangles}\n")
        np.savetxt(f, mesh.triangles, fmt="%d")
