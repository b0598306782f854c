"""Reference implementations used only as test oracles.

They are the plain scalar and loop versions of code that the package
computes with array operations: the single-velocity dispersion tensors, the
partial-sum form of the radial profile, the ray-angle form of the lineic
production, and the loop builders of the structured triangulation, the edge
incidence counts, the VTK polygons, the Gauss points of rectangles and the
P1 gradients and dual quadrature points.  ``save_mesh`` writes the mesh
files the tests read back; ``VERTICES_ONLY_FILE``,
``HUGE_VERTEX_COUNT_FILE`` and ``REPEATED_EDGE_FILES`` are invalid ones.
``transport_matrices`` and ``transport_jacobian`` are the per-step and per-iteration transport
assembly that ``TransportOperator`` replaced, and ``grad_gram``,
``convection_matrix`` and ``artificial_diffusion`` the sparse-product
assembly that the cached ``AssemblyPattern`` replaced; the products drop
the entries that cancel.  ``assembly_pattern`` builds that pattern from
sparse products of the operators' structure, as it was before it was
read off the local table.  ``lexsort_ordering`` is the sort that
``linalg._lu`` used to place the entries of A in the CSC pattern of
A[q][:, q].
"""

import numpy as np
import scipy.sparse as sp

from gdflow import assembly


def tensor_D(params, u):
    """Diffusion-dispersion tensor for a single velocity; 2x2 symmetric.

    The mechanical dispersion part |u| (D_l E(u) + D_t (I - E(u))) is taken
    to vanish at u = 0, its continuous limit.
    """
    u = np.asarray(u, dtype=float)
    Dm, Dl, Dt = params.D_m, params.D_l, params.D_t
    norm = float(np.hypot(u[0], u[1]))
    if norm == 0.0:
        return np.array([[Dm, 0.0], [0.0, Dm]])
    e = np.outer(u, u) / norm ** 2
    return Dm * np.eye(2) + norm * (Dl * e + Dt * (np.eye(2) - e))


def tensor_Dh(params, u, h):
    """Stabilised tensor: diagonal entries raised to at least |u| * h."""
    if h <= 0:
        raise ValueError(f"mesh size must be positive, got {h}")
    D = tensor_D(params, u)
    norm = float(np.hypot(u[0], u[1]))
    D[0, 0] = max(D[0, 0], norm * h)
    D[1, 1] = max(D[1, 1], norm * h)
    return D


def psi_direct(z, N):
    """Independent partial-sum evaluation of the same profile (oracle)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, N + 1):
        term = term * z / k
        total = total + term
    with np.errstate(under="ignore"):
        out = np.exp(-z) * total
    return out if out.size > 1 else float(out[0])


def production_angle(s, edge):
    """Angle at I=(1,1) between the rays I->O (O the origin) and I->M, where
    M = (s, 0) on the bottom edge or (0, s) on the left edge."""
    s = np.asarray(s, dtype=float)
    if edge == "bottom":
        vx, vy = s - 1.0, -np.ones_like(s)
    elif edge == "left":
        vx, vy = -np.ones_like(s), s - 1.0
    else:
        raise ValueError(f"edge must be 'bottom' or 'left', got {edge!r}")
    # reference ray I->O is (-1, -1)
    cross = np.abs(vx * (-1.0) - vy * (-1.0))
    dot = -vx - vy
    ang = np.arctan2(cross, dot)
    return ang if ang.ndim else float(ang)


def loop_triangles(reps):
    """Criss-cross triangles of the (2 reps)^2 block grid, block by block."""
    n = 2 * reps

    def vid(i, j):
        return i + j * (n + 1)

    triangles = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                # diagonal from (i, j) to (i+1, j+1)
                triangles.append((v00, v10, v11))
                triangles.append((v00, v11, v01))
            else:
                # diagonal from (i+1, j) to (i, j+1)
                triangles.append((v00, v10, v01))
                triangles.append((v10, v11, v01))
    return np.array(triangles, dtype=int)


def loop_edge_counts(triangles):
    """{(i, j): number of triangles sharing the edge}, i < j."""
    counts = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def loop_scheme_a_polygons(grid):
    coords = np.arange(grid.N + 1) * grid.h
    lo = np.maximum(coords - grid.h / 2.0, 0.0)
    hi = np.minimum(coords + grid.h / 2.0, grid.L)
    points, polys = [], []
    for j in range(grid.N + 1):
        for i in range(grid.N + 1):
            base = len(points)
            points.extend([(lo[i], lo[j]), (hi[i], lo[j]),
                           (hi[i], hi[j]), (lo[i], hi[j])])
            polys.append([base, base + 1, base + 2, base + 3])
    return np.array(points), polys


def loop_scheme_b_polygons(mesh):
    nv = mesh.n_vertices
    corner_pts = [[] for _ in range(nv)]
    for tri, centroid in zip(mesh.triangles,
                             mesh.vertices[mesh.triangles].mean(axis=1)):
        for k in range(3):
            v = tri[k]
            m1 = 0.5 * (mesh.vertices[v] + mesh.vertices[tri[(k + 1) % 3]])
            m2 = 0.5 * (mesh.vertices[v] + mesh.vertices[tri[(k + 2) % 3]])
            corner_pts[v].extend([tuple(m1), tuple(m2), tuple(centroid)])
    boundary_vertices = set(
        v for e, c in loop_edge_counts(mesh.triangles).items() if c == 1
        for v in e)
    points, polys = [], []
    for v in range(nv):
        pts = {p for p in corner_pts[v]}
        if v in boundary_vertices:
            pts.add(tuple(mesh.vertices[v]))
        pts = np.array(sorted(pts))
        centre = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - centre[1],
                                      pts[:, 0] - centre[0]))
        base = len(points)
        points.extend(pts[order].tolist())
        polys.append(list(range(base, base + len(pts))))
    return np.array(points), polys


def loop_gauss4_points(x0, x1, y0, y1):
    """2x2 Gauss points of the rectangles, one block per corner sign pair."""
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    dx = 0.5 * (x1 - x0) / np.sqrt(3.0)
    dy = 0.5 * (y1 - y0) / np.sqrt(3.0)
    pts = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            pts.append(np.column_stack([cx + sx * dx, cy + sy * dy]))
    return np.concatenate(pts)


def loop_p1_gradients(mesh):
    """Barycentric gradients (gx, gy), each (nt, 3), corner by corner."""
    areas = mesh.areas()
    p = mesh.vertices[mesh.triangles]
    nt = mesh.n_triangles
    gx = np.empty((nt, 3))
    gy = np.empty((nt, 3))
    for k in range(3):
        pj = p[:, (k + 1) % 3]
        pk = p[:, (k + 2) % 3]
        gx[:, k] = (pj[:, 1] - pk[:, 1]) / (2.0 * areas)
        gy[:, k] = (pk[:, 0] - pj[:, 0]) / (2.0 * areas)
    return gx, gy


def loop_dual_subpoints(mesh):
    """One quadrature point per (triangle, corner) third of a dual cell."""
    p = mesh.vertices[mesh.triangles]
    centroid = p.mean(axis=1)
    sub_pts = np.empty((mesh.n_triangles, 3, 2))
    for k in range(3):
        m1 = 0.5 * (p[:, k] + p[:, (k + 1) % 3])
        m2 = 0.5 * (p[:, k] + p[:, (k + 2) % 3])
        sub_pts[:, k] = (p[:, k] + m1 + m2 + centroid) / 4.0
    return sub_pts.reshape(-1, 2)


def save_mesh(mesh, path):
    """Write the plain-text format read by ``gdflow.mesh.load_mesh``."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices}\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        f.write(f"triangles {mesh.n_triangles}\n")
        np.savetxt(f, mesh.triangles, fmt="%d")


# a mesh file that ends before its triangles header
VERTICES_ONLY_FILE = "vertices 3\n0 0\n1 0\n0 1\n"

# a mesh file declaring terabytes of vertex rows and holding one
HUGE_VERTEX_COUNT_FILE = "vertices 400000000000\n0 0\n"

# one triangle given twice (area 1, no boundary edge), and a unit square
# with a third triangle folded over its two (area 1.5): each runs edge
# (0, 1) twice the same way, which no positively oriented conforming mesh
# does
REPEATED_EDGE_FILES = {
    "duplicated": "vertices 3\n0 0\n1 0\n0 1\n"
                  "triangles 2\n0 1 2\n0 1 2\n",
    "folded": "vertices 4\n0 0\n1 0\n1 1\n0 1\n"
              "triangles 3\n0 1 2\n0 2 3\n0 1 3\n",
}


def transport_matrices(gd, U, dt, dsrc, params, variant):
    """base = mass / dt + diffusion + the production reaction and the
    convection C, assembled anew for one transport step."""
    mass = params.phi * gd.recon_measures
    base = sp.diags(mass / dt) + assembly.diffusion_matrix(gd, U, params,
                                                           variant)
    base = base + sp.diags(dsrc.q_production)
    return base.tocsr(), assembly.convection_matrix(gd, U, variant)


def transport_jacobian(base, C, theta, dofs=None):
    """base + C diag(theta) by a sparse product and sum, with identity rows
    on the Dirichlet ``dofs`` when they are given."""
    J = (base + C @ sp.diags(theta)).tocsr()
    if dofs is not None:
        keep = np.ones(J.shape[0])
        keep[dofs] = 0.0
        J = (sp.diags(keep) @ J + sp.diags(1.0 - keep)).tocsr()
    return J


def grad_gram(gd, a11=1.0, a22=1.0, a12=None):
    """``GradientDiscretisation.grad_gram`` by sparse triple products."""
    mg = gd.grad_measures
    gx, gy = gd.grad_x, gd.grad_y
    K = gx.T @ sp.diags(mg * a11) @ gx + gy.T @ sp.diags(mg * a22) @ gy
    if a12 is not None and np.any(a12):
        m12 = sp.diags(mg * a12)
        K = K + gx.T @ m12 @ gy + gy.T @ m12 @ gx
    return K.tocsr()


def artificial_diffusion(C):
    """``assembly.artificial_diffusion`` by sparse maximum and sums."""
    S = C.maximum(C.T).tocsr()
    S = S - sp.diags(S.diagonal())
    S.data = np.maximum(S.data, 0.0)
    S.eliminate_zeros()
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    return (sp.diags(row_sums) - S).tocsr()


def convection_matrix(gd, U, variant):
    """``assembly.convection_matrix`` by sparse products."""
    mg = gd.grad_measures
    C = -(gd.grad_x.T @ sp.diags(mg * U[:, 0])
          + gd.grad_y.T @ sp.diags(mg * U[:, 1])) @ gd.overlap
    C = C.tocsr()
    if variant == "upstream":
        C = (C + artificial_diffusion(C)).tocsr()
    return C


def assembly_pattern(gd, cross=False):
    """(indptr, indices, pos, diag) of ``gd.pattern(cross)`` from the
    structure Sx, Sy, So of grad_x, grad_y and overlap (ones on the stored
    entries): Sx^T Sx + Sy^T Sy, or Sg^T Sg with Sg = Sx + Sy for the
    cross pattern, plus Sg^T So + So^T Sg; pos[g, i, j] is searched pair
    by pair of the local dofs gd.local[0][:, g]."""
    sx, sy, so = (sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr),
                                shape=A.shape)
                  for A in (gd.grad_x, gd.grad_y, gd.overlap))
    sg = sx + sy
    S = sg.T @ sg if cross else sx.T @ sx + sy.T @ sy
    S = (S + sg.T @ so + so.T @ sg).tocsr()
    S.sort_indices()
    n, dofs = gd.ndof, gd.local[0]
    keys = np.repeat(np.arange(n), np.diff(S.indptr)) * n + S.indices
    pos = np.empty((dofs.shape[1],) + (len(dofs),) * 2, dtype=np.int32)
    for i, j in np.ndindex(pos.shape[1:]):
        key = dofs[i] * n + dofs[j]
        at = np.searchsorted(keys, key)
        pos[:, i, j] = np.where(keys.take(at, mode="clip") == key, at, S.nnz)
    diag = np.searchsorted(keys, np.arange(n) * (n + 1)).astype(np.int32)
    return S.indptr, S.indices, pos, diag


def lexsort_ordering(A, p):
    """The positions in the CSR matrix A of the CSC pattern of A[q][:, q],
    q = p^-1, and that pattern's row indices and column pointers, by
    sorting the permuted (column, row) pairs of every entry."""
    n = A.shape[0]
    row, col = p[np.repeat(np.arange(n), np.diff(A.indptr))], p[A.indices]
    at = np.lexsort((row, col))  # column by column, rows ascending
    return at, row[at], np.searchsorted(col[at], np.arange(n + 1))
