"""Meshes: Cartesian grids with node-centred reconstruction boxes, conforming
triangulations with barycentric dual cells, and a plain-text mesh file reader.
"""

from dataclasses import dataclass, field
from itertools import islice

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

    def boxes(self):
        """Reconstruction boxes as corner arrays (x0, y0, x1, y1), node by
        node, x fastest."""
        coords = np.arange(self.N + 1) * self.h
        lo = np.maximum(coords - self.h / 2.0, 0.0)
        hi = np.minimum(coords + self.h / 2.0, self.L)
        x0, y0 = (a.ravel() for a in np.meshgrid(lo, lo))
        x1, y1 = (a.ravel() for a in np.meshgrid(hi, hi))
        return x0, y0, x1, y1


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


def _signed_areas(vertices, triangles):
    p0, p1, p2 = (vertices[triangles[:, k]] for k in range(3))
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def _unique_edges(triangles, directed=False):
    """Edges (i, j), i < j unless ``directed``, and their triangle counts."""
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = pairs if directed else np.sort(pairs, axis=1)
    n = int(pairs.max(initial=0)) + 1  # one integer key per pair
    keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1], return_counts=True)
    return np.column_stack(np.divmod(keys, n)), counts


def validate_mesh(mesh):
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
    # each directed edge in one triangle at most: as every triangle is
    # positive, a third triangle on an edge repeats one of its directions
    edges, counts = _unique_edges(mesh.triangles, directed=True)
    if np.any(counts > 1):
        k = int(np.argmax(counts > 1))
        raise MeshError(f"directed edge {tuple(edges[k].tolist())} shared by "
                        f"{counts[k]} triangles")
    return mesh


def build_structured_triangulation(reps, L):
    """Triangulate (0, L)^2 by replicating a fixed 2x2-block base pattern.

    ``reps`` copies of the base pattern per side give 2*reps square blocks
    per side, each split into two triangles along a diagonal whose direction
    alternates with block parity (criss-cross).  Triangles are numbered
    block by block, i fastest, two per block.  Valid by construction, the
    mesh skips ``validate_mesh``; the tests check that it would pass.
    """
    if reps < 1:
        raise MeshError(f"replication count must be >= 1, got {reps}")
    if not (np.isfinite(L) and L > 0):
        raise MeshError(f"side length must be finite and positive, got L={L}")
    if not np.isfinite(L * L):
        raise MeshError("triangle areas overflow: their sum is not finite")
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
    return TriangularMesh(vertices=vertices, triangles=triangles)


def build_dual(mesh):
    """Barycentric dual-cell measures: |K_i| = sum of incident areas / 3."""
    areas = mesh.areas()
    measures = np.bincount(mesh.triangles.ravel(), np.repeat(areas / 3.0, 3),
                           mesh.n_vertices)
    if np.any(measures <= 0):
        raise MeshError("isolated vertex: zero dual measure")
    return measures


def _read_block(lines, name, what, width, dtype):
    """The rows of the block ``name <n>`` that starts ``lines``, an iterator
    of (line number, fields): n rows of ``width`` entries each."""
    header = next(lines, None)
    if header is None:
        raise MeshParseError(f"unexpected end of file, expected '{name}' header")
    lineno, fields = header
    if len(fields) != 2 or fields[0] != name:
        raise MeshParseError(f"expected '{name} <{what}>'", line=lineno)
    try:
        n = int(fields[1])
    except ValueError:
        raise MeshParseError(f"bad {what} count {fields[1]!r}", line=lineno)
    if n < 0:
        raise MeshParseError(f"negative {what} count", line=lineno)
    rows = []  # no more rows than the file has lines, whatever n says
    for lineno, fields in islice(lines, n):
        if len(fields) != width:
            raise MeshParseError(f"expected {width} fields for {what}", line=lineno)
        try:
            rows.append(np.array(fields, dtype=dtype))
        except (ValueError, OverflowError):
            raise MeshParseError(f"bad {what} entry {fields!r}", line=lineno)
    if len(rows) < n:
        raise MeshParseError(f"unexpected end of file while reading {what}")
    return np.array(rows, dtype=dtype).reshape(n, width)


def load_mesh(path):
    """Read a mesh from the plain-text format and validate it.

    Format: ``vertices <n>`` followed by n lines ``x y``, then
    ``triangles <m>`` followed by m lines ``i j k`` (0-based).
    Lines starting with ``#`` are comments.
    """
    with open(path) as f:
        lines = ((lineno, fields) for lineno, raw in enumerate(f, start=1)
                 if (fields := raw.split("#", 1)[0].split()))
        vertices = _read_block(lines, "vertices", "vertex", 2, float)
        triangles = _read_block(lines, "triangles", "triangle", 3, int)
        trailing = next(lines, None)
    if trailing is not None:
        raise MeshParseError("trailing content after triangle block",
                             line=trailing[0])
    return validate_mesh(TriangularMesh(vertices=vertices, triangles=triangles))
