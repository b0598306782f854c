"""The gradient-discretisation abstraction: dof space, piecewise-constant
function reconstruction, piecewise-constant gradient reconstruction,
pointwise interpolation, the discrete elliptic norm, and its two concrete
instantiations (node-centred finite differences, mass-lumped P1).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Quadrature:
    """Points/weights for integrating smooth fields against piecewise-constant
    discrete factors; ``cells[k]`` is the cell owning point k."""

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    cells: np.ndarray    # (nq,) int


@dataclass(frozen=True)
class GradientDiscretisation:
    """Sparse realisation of a gradient discretisation.

    Both schemes reconstruct functions as one constant per dof (the
    reconstruction cells are in one-to-one correspondence with the dofs), so
    the reconstruction Pi is the identity on dof vectors.

    The local table ``local`` = (dofs, gx, gy, ov) defines it cell by cell:
    the k ascending local dofs dofs[:, g] of gradient cell g and on them the
    rows of grad_x, grad_y and overlap, as read-only (k, ngrad) arrays.
    ``overlap[g, d]`` is the fraction of g on which the function
    reconstruction equals dof d; rows sum to one.  It gives exact quadrature
    of products of a dof-wise nonlinearity with gradient-cell quantities.
    The CSR operators and both assembly patterns are built from the table
    on first use.
    """

    kind: str                 # "a" | "b"
    ndof: int
    anchors: np.ndarray = field(repr=False)         # (ndof, 2)
    recon_measures: np.ndarray = field(repr=False)  # (ndof,)
    grad_measures: np.ndarray = field(repr=False)   # (ngrad,)
    local: tuple = field(repr=False)                # 4 x (k, ngrad)
    h: float
    domain_area: float
    recon_quad: Quadrature = field(repr=False)
    grad_quad: Quadrature = field(repr=False)
    geometry: object = field(repr=False, default=None)  # grid or mesh

    @property
    def n_grad_cells(self):
        return len(self.grad_measures)

    grad_x = cached_property(lambda self: self._csr(self.local[1]))
    grad_y = cached_property(lambda self: self._csr(self.local[2]))
    overlap = cached_property(lambda self: self._csr(self.local[3]))

    def _csr(self, row):
        """The (ngrad, ndof) operator of the nonzeros of a table row."""
        row, nz = row.T, row.T != 0
        return sp.csr_matrix((row[nz], self.local[0].T[nz],
                              np.r_[0, np.cumsum(nz.sum(axis=1))]),
                             shape=(self.n_grad_cells, self.ndof))

    def pi(self, w):
        """Reconstructed cell values: one per dof, so ``w`` itself."""
        return np.asarray(w)

    def grad(self, w):
        return np.column_stack([self.grad_x @ w, self.grad_y @ w])

    def norm_ell(self, w):
        g2 = self.grad_measures @ ((self.grad_x @ w) ** 2 + (self.grad_y @ w) ** 2)
        mean = float(self.recon_measures @ w)
        return float(np.sqrt(g2 + mean ** 2))

    def interpolate(self, f):
        """Pointwise interpolation: dof_i = f(anchor_i).

        ``f`` maps an (n, 2) array of points to n values.
        """
        return np.asarray(f(self.anchors), dtype=float)

    def grad_gram(self, a11=1.0, a22=1.0, a12=None):
        """Stiffness sum_g |g| (A_g grad phi_j) . grad phi_i of the symmetric
        tensor field A = [[a11, a12], [a12, a22]], constant or one value per
        gradient cell; the defaults give the Gram matrix of the gradients.
        It lies on ``pattern(cross)``, cross telling whether a12 is nonzero
        anywhere, and entries that cancel stay stored as zeros."""
        _, gx, gy, _ = self.local
        mg = self.grad_measures
        terms = [(gx, mg * a11, gx), (gy, mg * a22, gy)]
        cross = a12 is not None and bool(np.any(a12))
        if cross:
            terms += [(gx, mg * a12, gy), (gy, mg * a12, gx)]
        return self.pattern(cross).assemble(terms)

    def pattern(self, cross=False):
        """The ``AssemblyPattern`` of this discretisation, built on first
        use.  Without ``cross`` it leaves out the pairs that only grad_x (x)
        grad_y couples, so an isotropic stiffness keeps its stencil
        (5-point on scheme a); the convection lies in both."""
        return self._cross_pattern if cross else self._plain_pattern

    def _pairs(self, cross):
        """The (k, k, ngrad) mask of local pairs x(x)x | y(x)y, or g(x)g if
        ``cross``, and g(x)o | o(x)g, x, y, o the nonzeros of gx, gy, ov."""
        x, y, o = (row != 0 for row in self.local[1:])
        g = x | y
        terms = [(g, g)] if cross else [(x, x), (y, y)]
        return np.any([u[:, None] & v[None]
                       for u, v in terms + [(g, o), (o, g)]], axis=0)

    @cached_property
    def _plain_pattern(self):
        return _build_pattern(self, self._pairs(cross=False))

    @cached_property
    def _cross_pattern(self):
        pairs = self._pairs(cross=True)
        if np.array_equal(pairs, self._pairs(cross=False)):  # scheme b
            return self._plain_pattern
        return _build_pattern(self, pairs)


@dataclass(frozen=True)
class AssemblyPattern:
    """The sorted, symmetric CSR pattern P of the matrices assembled on a
    gradient discretisation, sums over the gradient cells g of k x k blocks
    on the local dofs of g; P holds the pairs the local table couples.
    ``pos[g, i, j]`` is the position in P of the local entry (i, j), or nnz
    where P has none, and ``diag`` the position of every diagonal entry.
    The arrays are read-only: every matrix on P shares them."""

    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray
    diag: np.ndarray

    @property
    def nnz(self):
        return len(self.indices)

    def matrix(self, data):
        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def assemble(self, terms):
        """The matrix on P of sum u^T diag(w) v over the ``terms`` (u, w, v),
        u and v (k, ngrad) rows and w the cell weights: the local blocks
        (u_ig w_g) v_jg are summed over the terms cell by cell, then
        scattered onto P once."""
        data = np.zeros(self.nnz + 1)
        for start in range(0, len(self.pos), _CHUNK):
            c = slice(start, start + _CHUNK)
            local = sum((u[:, c].T * w[c, None])[:, :, None]
                        * v[:, c].T[:, None, :] for u, w, v in terms)
            np.add.at(data, self.pos[c].ravel(), local.ravel())
        return self.matrix(data[:-1])


# gradient cells per chunk of AssemblyPattern.assemble: one chunk for the
# whole of scheme a n=128 raised the peak memory of quality-seq by 7 MB
_CHUNK = 8192


def _build_pattern(gd, pairs):
    """The ``AssemblyPattern`` of the local ``pairs`` of gd, which hold the
    diagonal; pos is searched pair by pair to keep the temporaries small."""
    n, dofs = gd.ndof, gd.local[0]
    k = len(dofs)
    keys = np.unique(np.concatenate([(dofs[i] * n + dofs[j])[pairs[i, j]]
                                     for i, j in np.ndindex(k, k)]))
    indptr = np.searchsorted(keys // n, np.arange(n + 1))
    pos = np.empty((dofs.shape[1], k, k), dtype=np.int32)
    for i, j in np.ndindex(k, k):
        key = dofs[i] * n + dofs[j]
        at = np.searchsorted(keys, key)
        pos[:, i, j] = np.where(keys.take(at, mode="clip") == key, at,
                                len(keys))
    diag = np.searchsorted(keys, np.arange(n) * (n + 1))
    return AssemblyPattern(*_read_only(*(
        a.astype(np.int32, copy=False) for a in (indptr, keys % n, pos, diag))))


def _local_table(dofs, gx, gy, ov):
    """The read-only local table of k rows of dofs and values, the dofs
    of each cell ascending and int64: pattern keys overflow int32."""
    dofs = np.reshape(dofs, (len(dofs), -1)).astype(np.int64)
    order = np.argsort(dofs, axis=0)
    return _read_only(*(np.take_along_axis(np.reshape(a, dofs.shape),
                                           order, axis=0)
                        for a in (dofs, gx, gy, ov)))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _gauss4(x0, x1, y0, y1, cells):
    """2x2 tensor Gauss points on the rectangles [x0,x1] x [y0,y1]."""
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    dx = 0.5 * (x1 - x0) / np.sqrt(3.0)
    dy = 0.5 * (y1 - y0) / np.sqrt(3.0)
    sx = np.array([-1.0, -1.0, 1.0, 1.0])[:, None]  # corners, y fastest
    sy = np.array([-1.0, 1.0, -1.0, 1.0])[:, None]
    points = np.column_stack([(cx + sx * dx).ravel(), (cy + sy * dy).ravel()])
    area = (x1 - x0) * (y1 - y0)
    weights = np.tile(area / 4.0, 4)
    return Quadrature(points=points, weights=weights, cells=np.tile(cells, 4))


def scheme_a(grid):
    """Node-centred finite-difference discretisation on a Cartesian grid.

    Dofs live at the lattice nodes; the gradient is piecewise constant on
    the four quadrants of every primal square, each component being the
    difference quotient along the quadrant's nearest grid edge.
    """
    N, h = grid.N, grid.h
    ndof = grid.n_nodes
    stride = N + 1

    # the quadrants (da, db) of every primal square (ii, jj), corner by
    # corner, and the corner (a, b) owning each
    ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()  # primal squares
    da, db = (np.array(d)[:, None] for d in ((0, 0, 1, 1), (0, 1, 0, 1)))
    a, b = ii + da, jj + db
    # x-difference along the horizontal edge at the corner's height,
    # y-difference along the vertical edge at the corner's abscissa: +-1/h
    # on the corner, -+1/h on its neighbour along x, resp. y
    dofs = [a + b * stride, (2 * ii + 1 - a) + b * stride,
            a + (2 * jj + 1 - b) * stride]
    sx, sy = (np.broadcast_to((2 * d - 1.0) / h, a.shape) for d in (da, db))
    zero, one = np.zeros(a.shape), np.ones(a.shape)
    local = _local_table(dofs, [sx, -sx, zero], [sy, zero, -sy],
                         [one, zero, zero])
    ngrad = 4 * N * N
    grad_measures = np.full(ngrad, h * h / 4.0)

    qx0 = (ii * h + da * h / 2.0).ravel()
    qy0 = (jj * h + db * h / 2.0).ravel()
    grad_quad = _gauss4(qx0, qx0 + h / 2.0, qy0, qy0 + h / 2.0,
                        np.arange(ngrad))

    bx0, by0, bx1, by1 = grid.boxes()
    recon_quad = _gauss4(bx0, bx1, by0, by1, np.arange(ndof))

    return GradientDiscretisation(
        kind="a", ndof=ndof, anchors=grid.nodes,
        recon_measures=grid.recon_areas, grad_measures=grad_measures,
        local=local, h=h, domain_area=grid.L ** 2,
        recon_quad=recon_quad, grad_quad=grad_quad, geometry=grid)


def scheme_b(mesh, measures):
    """Mass-lumped P1 discretisation: vertex dofs, dual cells of the given
    ``measures`` (see ``build_dual``), constant P1 gradients per triangle."""
    ndof = mesh.n_vertices
    tri = mesh.triangles
    areas = mesh.areas()
    p = mesh.vertices[tri]  # (nt, 3, 2)
    nt = mesh.n_triangles

    # barycentric gradients: grad(lambda_i) = rot90(opposite edge) / (2A)
    pj, pk = np.roll(p, -1, axis=1), np.roll(p, -2, axis=1)  # next corners
    gx = (pj[..., 1] - pk[..., 1]) / (2.0 * areas[:, None])
    gy = (pk[..., 0] - pj[..., 0]) / (2.0 * areas[:, None])
    local = _local_table(tri.T, gx.T, gy.T, np.full((3, nt), 1.0 / 3.0))

    edges = p - np.roll(p, 1, axis=1)
    h = float(np.sqrt((edges ** 2).sum(axis=2)).max())

    # edge midpoints: exact for P2, and each lies in one dual-cell third
    mids = 0.5 * (p + pj)  # (nt, 3, 2)
    grad_quad = Quadrature(points=mids.reshape(-1, 2),
                           weights=np.repeat(areas / 3.0, 3),
                           cells=np.repeat(np.arange(nt), 3))

    # one point per (triangle, vertex) third of the dual cell
    centroid = p.mean(axis=1)  # (nt, 2)
    sub_pts = (p + mids + 0.5 * (p + pk) + centroid[:, None]) / 4.0
    recon_quad = Quadrature(points=sub_pts.reshape(-1, 2),
                            weights=np.repeat(areas / 3.0, 3),
                            cells=tri.ravel())

    return GradientDiscretisation(
        kind="b", ndof=ndof, anchors=mesh.vertices,
        recon_measures=measures, grad_measures=areas,
        local=local, h=h, domain_area=float(areas.sum()),
        recon_quad=recon_quad, grad_quad=grad_quad, geometry=mesh)
