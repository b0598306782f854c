"""Reference implementations used only as test oracles.

They are the plain scalar and loop versions of code that the package
computes with array operations: the single-velocity dispersion tensors, the
partial-sum form of the radial profile, and the loop builders of the
structured triangulation, the edge incidence counts, the VTK polygons, the
Gauss points of rectangles and the P1 gradients and dual quadrature points.
"""

import numpy as np


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
