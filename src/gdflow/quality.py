"""Numerical estimators of the discretisation quality measures: the
coercivity constant C_D, the consistency defect S_D of a smooth test
function, and the limit-conformity defect W_D of a divergence-compatible
test field.

All three share one LU of the pinned elliptic matrix E = G + m m^T (G the
gradient Gram matrix, m the reconstruction measures): C_D and W_D solve
with it, and it preconditions the CG solve of S_D's (M + G) w = r, M =
diag(m).  As (m^T x)^2 <= |Omega| x^T M x and x^T M x <= C_D^2 x^T E x,
spectrum(E^-1 (M + G)) lies in [1, 1 + C_D^2] on the unit square, so CG
takes a number of iterations independent of the mesh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg


# relative change of the power-iteration eigenvalue estimate that counts
# as converged, and the iteration cap
POWER_TOL = 1e-8
POWER_MAX_ITER = 500


class QualityError(RuntimeError):
    pass


@dataclass(frozen=True)
class QualityReport:
    h: float
    ndof: int
    coercivity: float
    consistency: float
    limit_conformity: float


_ell = (None, None, None)  # (gd, G, solve) of the last discretisation


def _elliptic(gd):
    """The Gram matrix G of ``gd`` and the solver of E x = (G + m m^T) x = b,
    kept while ``gd`` is the last discretisation asked for.  Only that LU is
    kept, as in io_cli._geometry: one per gd would hold a sequence's LUs."""
    global _ell
    if _ell[0] is not gd:
        _ell = None, None, None  # free the old LU before SuperLU allocates
        G = gd.grad_gram()
        _ell = gd, G, linalg.spd_solver(G, gd.recon_measures)
    return _ell[1:]


def coercivity_constant(gd, seed=0):
    """Worst-case ratio of the reconstructed L2 norm to the elliptic norm,
    via power iteration on the generalized eigenproblem of the two Gram
    matrices.  The elliptic operator is factored once for all iterations."""
    m = gd.recon_measures
    _, ell_solve = _elliptic(gd)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(gd.ndof)
    lam_prev = 0.0
    for _ in range(POWER_MAX_ITER):
        y = ell_solve(m * x)
        y /= np.linalg.norm(y)
        lam = float(y @ (m * y)) / gd.norm_ell(y) ** 2
        if abs(lam - lam_prev) <= POWER_TOL * max(lam, 1e-30):
            return float(np.sqrt(lam))
        lam_prev, x = lam, y
    raise QualityError(
        f"power iteration did not converge (last eigenvalue {lam_prev:.6e})")


def _cell_integrals(quad, values, n_cells):
    return np.bincount(quad.cells, quad.weights * values, n_cells)


def _grad_load(gd, vals):
    """Load vector of int(grad w . v), v given at the grad_quad points."""
    gq, ng = gd.grad_quad, gd.n_grad_cells
    return (gd.grad_x.T @ _cell_integrals(gq, vals[:, 0], ng)
            + gd.grad_y.T @ _cell_integrals(gq, vals[:, 1], ng))


def consistency_defect(gd, f, grad_f):
    """Best-approximation distance of (f, grad f) by reconstructed pairs.

    Minimises the squared-sum surrogate (a linear least-squares problem) and
    reports the sum of the two norms at the minimiser; ``f`` maps (n, 2)
    points to values, ``grad_f`` to (n, 2) gradients.
    """
    rq, gq = gd.recon_quad, gd.grad_quad
    f_vals = np.asarray(f(rq.points), dtype=float)
    g_vals = np.asarray(grad_f(gq.points), dtype=float)

    rhs_pi = _cell_integrals(rq, f_vals, gd.ndof)
    rhs_g = _grad_load(gd, g_vals)
    G, ell_solve = _elliptic(gd)
    A = (sp.diags(gd.recon_measures) + G).tocsr()
    w = linalg.solve_pcg(A, rhs_pi + rhs_g, ell_solve)

    gw = gd.grad(w)
    err_pi = (gd.recon_measures @ w ** 2 - 2.0 * float(w @ rhs_pi)
              + float(rq.weights @ f_vals ** 2))
    err_g = (gd.grad_measures @ (gw ** 2).sum(axis=1) - 2.0 * float(w @ rhs_g)
             + float(gq.weights @ (g_vals ** 2).sum(axis=1)))
    return float(np.sqrt(max(err_pi, 0.0)) + np.sqrt(max(err_g, 0.0)))


def _check_normal_trace(phi, L):
    """Sample the normal trace at 256 midpoints per side of (0, L)^2: the
    component of phi along the axis that the side is normal to."""
    s = (np.arange(256) + 0.5) / 256 * L
    for axis, at in ((1, 0.0), (1, L), (0, 0.0), (0, L)):
        pts = np.column_stack([s, s])
        pts[:, axis] = at
        vals = np.asarray(phi(pts), dtype=float)
        trace = np.abs(vals[:, axis])
        if np.any(trace > 1e-10 * max(float(np.abs(vals).max()), 1.0)):
            raise ValueError(
                "test field has nonzero normal trace on the boundary "
                f"(max {trace.max():.3e})")


def limit_conformity_defect(gd, phi, div_phi):
    """Dual elliptic norm of the divergence-formula functional
    w -> int(grad w . phi + Pi w * div phi); ``phi`` must have vanishing
    normal trace on the boundary."""
    _check_normal_trace(phi, float(np.sqrt(gd.domain_area)))
    rq, gq = gd.recon_quad, gd.grad_quad
    phi_vals = np.asarray(phi(gq.points), dtype=float)
    div_vals = np.asarray(div_phi(rq.points), dtype=float)
    ell = _grad_load(gd, phi_vals) + _cell_integrals(rq, div_vals, gd.ndof)
    x = _elliptic(gd)[1](ell)
    return float(np.sqrt(max(float(ell @ x), 0.0)))


def default_test_function():
    """Smooth scalar test for the consistency defect."""
    def f(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad_f(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)])
    return f, grad_f


def default_test_field():
    """Divergence-free curl (-gy, gx) of x^2 (1 - x)^2 y^2 (1 - y)^2, with
    zero normal trace on the unit square."""
    def phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        gx = (2 * x * (1 - x) ** 2 - 2 * x ** 2 * (1 - x)) * y ** 2 * (1 - y) ** 2
        gy = x ** 2 * (1 - x) ** 2 * (2 * y * (1 - y) ** 2 - 2 * y ** 2 * (1 - y))
        return np.column_stack([-gy, gx])

    def div_phi(pts):
        return np.zeros(len(pts))
    return phi, div_phi


def quality_report(gd):
    """The three indicators with the default test function and field."""
    f, grad_f = default_test_function()
    phi, div_phi = default_test_field()
    return QualityReport(
        h=gd.h, ndof=gd.ndof,
        coercivity=coercivity_constant(gd),
        consistency=consistency_defect(gd, f, grad_f),
        limit_conformity=limit_conformity_defect(gd, phi, div_phi))
