"""Numerical estimators of the discretisation quality measures: the
coercivity constant, the consistency defect of a smooth test function, and
the limit-conformity defect of a divergence-compatible test field.
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


def _ell_solver(gd):
    """Solver of the zero-mean elliptic system (G + m m^T) x = b."""
    return linalg.spd_solver(gd.grad_gram(), rank_one=gd.recon_measures)


def coercivity_constant(gd, seed=0):
    """Worst-case ratio of the reconstructed L2 norm to the elliptic norm,
    via power iteration on the generalized eigenproblem of the two Gram
    matrices.  The elliptic operator is factored once for all iterations."""
    m = gd.recon_measures
    ell_solve = _ell_solver(gd)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(gd.ndof)
    lam_prev = 0.0
    for _ in range(POWER_MAX_ITER):
        y = ell_solve(m * x)
        y /= np.linalg.norm(y)
        num = float(y @ (m * y))
        den = gd.norm_ell(y) ** 2
        lam = num / den
        if abs(lam - lam_prev) <= POWER_TOL * max(lam, 1e-30):
            return float(np.sqrt(lam))
        lam_prev = lam
        x = y
    raise QualityError(
        f"power iteration did not converge (last eigenvalue {lam_prev:.6e})")


def _cell_integrals(quad, values, n_cells):
    out = np.zeros(n_cells)
    np.add.at(out, quad.cells, quad.weights * values)
    return out


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
    rhs_gx = gd.grad_x.T @ _cell_integrals(gq, g_vals[:, 0], gd.n_grad_cells)
    rhs_gy = gd.grad_y.T @ _cell_integrals(gq, g_vals[:, 1], gd.n_grad_cells)
    A = (sp.diags(gd.recon_measures) + gd.grad_gram()).tocsr()
    w = linalg.solve_spd(A, rhs_pi + rhs_gx + rhs_gy)

    f_sq = float(rq.weights @ f_vals ** 2)
    g_sq = float(gq.weights @ (g_vals ** 2).sum(axis=1))
    gw = gd.grad(w)
    err_pi = (gd.recon_measures @ w ** 2
              - 2.0 * float(w @ rhs_pi) + f_sq)
    err_g = (gd.grad_measures @ (gw ** 2).sum(axis=1)
             - 2.0 * float(w @ (rhs_gx + rhs_gy)) + g_sq)
    return float(np.sqrt(max(err_pi, 0.0)) + np.sqrt(max(err_g, 0.0)))


def _check_normal_trace(phi, L):
    """Sample the normal trace at 256 midpoints per side of (0, L)^2."""
    s = (np.arange(256) + 0.5) / 256 * L
    zeros = np.zeros_like(s)
    full = np.full_like(s, L)
    for pts, normal in (
            (np.column_stack([s, zeros]), (0.0, -1.0)),
            (np.column_stack([s, full]), (0.0, 1.0)),
            (np.column_stack([zeros, s]), (-1.0, 0.0)),
            (np.column_stack([full, s]), (1.0, 0.0))):
        vals = np.asarray(phi(pts), dtype=float)
        trace = vals[:, 0] * normal[0] + vals[:, 1] * normal[1]
        scale = max(float(np.abs(vals).max()), 1.0)
        if np.any(np.abs(trace) > 1e-10 * scale):
            raise ValueError(
                "test field has nonzero normal trace on the boundary "
                f"(max {np.abs(trace).max():.3e})")


def limit_conformity_defect(gd, phi, div_phi):
    """Dual elliptic norm of the divergence-formula functional
    w -> int(grad w . phi + Pi w * div phi); ``phi`` must have vanishing
    normal trace on the boundary."""
    L = float(np.sqrt(gd.domain_area))
    _check_normal_trace(phi, L)
    rq, gq = gd.recon_quad, gd.grad_quad
    phi_vals = np.asarray(phi(gq.points), dtype=float)
    div_vals = np.asarray(div_phi(rq.points), dtype=float)
    ell = (gd.grad_x.T @ _cell_integrals(gq, phi_vals[:, 0], gd.n_grad_cells)
           + gd.grad_y.T @ _cell_integrals(gq, phi_vals[:, 1], gd.n_grad_cells)
           + _cell_integrals(rq, div_vals, gd.ndof))
    if not np.any(ell):
        return 0.0
    x = _ell_solver(gd)(ell)
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
    """Divergence-free curl field with zero normal trace on the unit square."""
    def stream_grad(pts):
        x, y = pts[:, 0], pts[:, 1]
        gx = (2 * x * (1 - x) ** 2 - 2 * x ** 2 * (1 - x)) * y ** 2 * (1 - y) ** 2
        gy = x ** 2 * (1 - x) ** 2 * (2 * y * (1 - y) ** 2 - 2 * y ** 2 * (1 - y))
        return gx, gy

    def phi(pts):
        gx, gy = stream_grad(pts)
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
