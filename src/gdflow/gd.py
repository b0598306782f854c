"""The gradient-discretisation abstraction: dof space, piecewise-constant
function reconstruction, piecewise-constant gradient reconstruction,
pointwise interpolation, the discrete elliptic norm, and its two concrete
instantiations (node-centred finite differences, mass-lumped P1).
"""

from dataclasses import dataclass, field

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

    ``overlap[g, d]`` is the fraction of gradient cell g on which the
    function reconstruction equals dof d; rows sum to one.  It gives exact
    quadrature of products of a dof-wise nonlinearity with gradient-cell
    quantities.
    """

    kind: str                 # "a" | "b"
    ndof: int
    anchors: np.ndarray = field(repr=False)         # (ndof, 2)
    recon_measures: np.ndarray = field(repr=False)  # (ndof,)
    grad_measures: np.ndarray = field(repr=False)   # (ngrad,)
    grad_x: sp.csr_matrix = field(repr=False)       # (ngrad, ndof)
    grad_y: sp.csr_matrix = field(repr=False)       # (ngrad, ndof)
    overlap: sp.csr_matrix = field(repr=False)      # (ngrad, ndof)
    h: float
    domain_area: float
    recon_quad: Quadrature = field(repr=False)
    grad_quad: Quadrature = field(repr=False)
    geometry: object = field(repr=False, default=None)

    @property
    def n_grad_cells(self):
        return len(self.grad_measures)

    def pi(self, w):
        """Reconstructed cell values: one per dof, so ``w`` itself."""
        return np.asarray(w)

    def grad(self, w):
        return np.column_stack([self.grad_x @ w, self.grad_y @ w])

    def norm_ell(self, w):
        g2 = self.grad_measures @ ((self.grad_x @ w) ** 2 + (self.grad_y @ w) ** 2)
        mean = float(self.recon_measures @ self.pi(w))
        return float(np.sqrt(g2 + mean ** 2))

    def interpolate(self, f):
        """Pointwise interpolation: dof_i = f(anchor_i).

        ``f`` maps an (n, 2) array of points to n values.
        """
        return np.asarray(f(self.anchors), dtype=float)

    # Gram matrices shared by the quality indicators.
    def grad_gram(self):
        mg = sp.diags(self.grad_measures)
        return (self.grad_x.T @ mg @ self.grad_x
                + self.grad_y.T @ mg @ self.grad_y).tocsr()

    def pi_gram(self):
        return sp.diags(self.recon_measures).tocsr()

    def mean_vector(self):
        """Vector m with m_i = integral of the i-th reconstruction basis."""
        return self.recon_measures


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

    ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()  # primal squares

    rows, gx_cols, gx_vals, gy_cols, gy_vals = [], [], [], [], []
    owner_cols = []
    qx0, qx1, qy0, qy1 = [], [], [], []
    row0 = 0
    nsq = N * N
    for da in (0, 1):      # corner offset in x
        for db in (0, 1):  # corner offset in y
            a = ii + da
            b = jj + db
            r = np.arange(row0, row0 + nsq)
            rows.append(np.repeat(r, 2))
            # x-difference along the horizontal edge at the corner's height
            gx_cols.append(np.column_stack([(ii + 1) + b * stride,
                                            ii + b * stride]).ravel())
            gx_vals.append(np.tile([1.0 / h, -1.0 / h], nsq))
            # y-difference along the vertical edge at the corner's abscissa
            gy_cols.append(np.column_stack([a + (jj + 1) * stride,
                                            a + jj * stride]).ravel())
            gy_vals.append(np.tile([1.0 / h, -1.0 / h], nsq))
            owner_cols.append(a + b * stride)
            qx0.append(ii * h + da * h / 2.0)
            qy0.append(jj * h + db * h / 2.0)
            row0 += nsq
    ngrad = 4 * nsq
    rows = np.concatenate(rows)
    grad_x = sp.csr_matrix((np.concatenate(gx_vals),
                            (rows, np.concatenate(gx_cols))),
                           shape=(ngrad, ndof))
    grad_y = sp.csr_matrix((np.concatenate(gy_vals),
                            (rows, np.concatenate(gy_cols))),
                           shape=(ngrad, ndof))
    overlap = sp.csr_matrix((np.ones(ngrad),
                             (np.arange(ngrad), np.concatenate(owner_cols))),
                            shape=(ngrad, ndof))
    grad_measures = np.full(ngrad, h * h / 4.0)

    qx0 = np.concatenate(qx0)
    qy0 = np.concatenate(qy0)
    grad_quad = _gauss4(qx0, qx0 + h / 2.0, qy0, qy0 + h / 2.0,
                        np.arange(ngrad))

    # recon boxes (cut at the boundary)
    coords = np.arange(N + 1) * h
    lo = np.maximum(coords - h / 2.0, 0.0)
    hi = np.minimum(coords + h / 2.0, grid.L)
    bx0, by0 = np.meshgrid(lo, lo, indexing="xy")
    bx1, by1 = np.meshgrid(hi, hi, indexing="xy")
    recon_quad = _gauss4(bx0.ravel(), bx1.ravel(), by0.ravel(), by1.ravel(),
                         np.arange(ndof))

    return GradientDiscretisation(
        kind="a", ndof=ndof, anchors=grid.nodes,
        recon_measures=grid.recon_areas, grad_measures=grad_measures,
        grad_x=grad_x, grad_y=grad_y, overlap=overlap,
        h=h, domain_area=grid.L ** 2,
        recon_quad=recon_quad, grad_quad=grad_quad, geometry=grid)


def scheme_b(mesh, dual):
    """Mass-lumped P1 discretisation: vertex dofs, dual-cell reconstruction,
    constant P1 gradients per triangle."""
    ndof = mesh.n_vertices
    tri = mesh.triangles
    areas = mesh.areas()
    p = mesh.vertices[tri]  # (nt, 3, 2)
    nt = mesh.n_triangles

    # barycentric gradients: grad(lambda_i) = rot90(opposite edge) / (2A)
    pj, pk = np.roll(p, -1, axis=1), np.roll(p, -2, axis=1)  # next corners
    gx = (pj[..., 1] - pk[..., 1]) / (2.0 * areas[:, None])
    gy = (pk[..., 0] - pj[..., 0]) / (2.0 * areas[:, None])
    rows = np.repeat(np.arange(nt), 3)
    cols = tri.ravel()
    grad_x = sp.csr_matrix((gx.ravel(), (rows, cols)), shape=(nt, ndof))
    grad_y = sp.csr_matrix((gy.ravel(), (rows, cols)), shape=(nt, ndof))
    overlap = sp.csr_matrix((np.full(3 * nt, 1.0 / 3.0), (rows, cols)),
                            shape=(nt, ndof))

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
        recon_measures=dual.measures, grad_measures=areas,
        grad_x=grad_x, grad_y=grad_y, overlap=overlap,
        h=h, domain_area=float(areas.sum()),
        recon_quad=recon_quad, grad_quad=grad_quad, geometry=(mesh, dual))
