"""Per-time-step discrete systems: the pressure equation with its zero-mean
rank-one term, the Darcy velocity reconstruction, and the implicit transport
equation with the truncated convection nonlinearity resolved by Picard
iteration (centred, upstream or vanishing-diffusion variants).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .physics import boundary_production_weights, tensor_D_field, truncate

VARIANTS = ("centred", "upstream", "dh")

PICARD_TOL = 1e-9
PICARD_MAX_ITER = 100
PICARD_DAMPING = 0.5
PICARD_STALL_WINDOW = 5


class ConfigurationError(ValueError):
    pass


class PicardError(RuntimeError):
    """Picard iteration failed to converge; carries the residual history."""

    def __init__(self, message, history):
        self.history = list(history)
        super().__init__(message)


@dataclass(frozen=True)
class DiscreteSources:
    """Per-dof source rates: Dirac wells land on the dof anchored at the
    well point, lineic production is split by angle increments over the
    boundary cells."""

    q_injection: np.ndarray
    q_production: np.ndarray
    chat: float
    production_in_transport: bool = True

    def pressure_rhs(self):
        return self.q_injection - self.q_production


@dataclass(frozen=True)
class DirichletBC:
    """Prescribed dof values; rows/columns are eliminated with rhs lifting."""

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.dofs) == 0:
            raise ConfigurationError("empty Dirichlet dof set")
        if len(self.dofs) != len(self.values):
            raise ConfigurationError("Dirichlet dofs/values length mismatch")


def _locate_dof(gd, point, tol=1e-9):
    d2 = ((gd.anchors - np.asarray(point)) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    if d2[i] > tol ** 2 * max(1.0, gd.domain_area):
        raise ConfigurationError(
            f"no dof anchored at well point {tuple(point)}")
    return i


def _lineic_weights(gd, edge):
    """Angle-increment weights for the dofs along one unit-square edge."""
    x, y = gd.anchors[:, 0], gd.anchors[:, 1]
    if edge == "bottom":
        on_edge = np.flatnonzero(np.abs(y) < 1e-12)
        s = x[on_edge]
    else:
        on_edge = np.flatnonzero(np.abs(x) < 1e-12)
        s = y[on_edge]
    order = np.argsort(s)
    on_edge, s = on_edge[order], s[order]
    # cell cut points: midpoints between consecutive anchors
    breaks = np.concatenate([[0.0], 0.5 * (s[1:] + s[:-1]), [1.0]])
    return on_edge, boundary_production_weights(breaks, edge)


def discretize_sources(gd, sources, production_in_transport=True):
    sources.check_compatibility()
    qi = np.zeros(gd.ndof)
    qp = np.zeros(gd.ndof)
    for point, rate in sources.injections:
        qi[_locate_dof(gd, point)] += rate
    for point, rate in sources.productions:
        qp[_locate_dof(gd, point)] += rate
    if sources.lineic_production_rate > 0.0:
        scale = sources.lineic_production_rate / (np.pi / 2.0)
        for edge in ("bottom", "left"):
            dofs, weights = _lineic_weights(gd, edge)
            np.add.at(qp, dofs, scale * weights)
    return DiscreteSources(q_injection=qi, q_production=qp,
                           chat=sources.injected_concentration,
                           production_in_transport=production_in_transport)


def _grad_bilinear(gd, a11, a22, a12):
    """Sparse matrix of the form sum_g |g| (A_g grad phi_j) . grad phi_i for
    a per-gradient-cell symmetric tensor field (a11, a22, a12)."""
    mg = gd.grad_measures
    gx, gy = gd.grad_x, gd.grad_y
    K = (gx.T @ sp.diags(mg * a11) @ gx
         + gy.T @ sp.diags(mg * a22) @ gy)
    if a12 is not None and np.any(a12):
        K = K + gx.T @ sp.diags(mg * a12) @ gy \
              + gy.T @ sp.diags(mg * a12) @ gx
    return K.tocsr()


def pressure_matrix(gd, c_prev, mobility):
    """Stiffness of the mobility-weighted bilinear form, using the exact
    piecewise-constant quadrature of A(Pi c) on every gradient cell."""
    a = gd.overlap @ mobility.scalar(gd.pi(c_prev))
    return _grad_bilinear(gd, a, a, None), a


def solve_pressure(gd, c_prev, mobility, dsrc, tol=linalg.DEFAULT_TOL):
    """Solve the zero-mean pressure system and reconstruct the Darcy field.

    Returns (p, U, info); U is the per-gradient-cell velocity
    -A(Pi c_prev) grad p, and info records the discrete pressure mean.
    """
    G, a = pressure_matrix(gd, c_prev, mobility)
    m = gd.mean_vector()
    b = dsrc.pressure_rhs()
    # the compatible rhs makes the solution independent of the rank-one
    # scaling; match it to the stiffness diagonal for conditioning
    alpha = float(G.diagonal().mean()) / float(m @ m)
    ms = np.sqrt(alpha) * m
    p = linalg.solve_spd(G, b, rank_one=ms, tol=tol)
    # pin the zero-mean normalisation exactly (G annihilates constants)
    p = p - (m @ p) / gd.domain_area
    U = -a[:, None] * gd.grad(p)
    info = {
        "pressure_mean": float(m @ p),
        "rhs_norm": float(np.linalg.norm(b)),
        "residual": linalg.residual_norm(G, p, b, rank_one=ms),
    }
    return p, U, info


def diffusion_matrix(gd, U, params, variant):
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown convection variant {variant!r}")
    h = gd.h if variant == "dh" else None
    D11, D22, D12 = tensor_D_field(params, U, h=h)
    return _grad_bilinear(gd, D11, D22, D12)


def artificial_diffusion(C):
    """Symmetric graph-Laplacian upwinding operator for a convection matrix:
    off-diagonal removals d_ij = max(0, c_ij, c_ji), zero row sums."""
    S = C.maximum(C.T).tocsr()
    S = S - sp.diags(S.diagonal())
    S.data = np.maximum(S.data, 0.0)
    S.eliminate_zeros()
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    return (sp.diags(row_sums) - S).tocsr()


def convection_matrix(gd, U, variant):
    """Matrix C with (C w)_i = -int T-free transport of w against U.grad(phi_i);
    the truncation is applied to the argument before multiplying."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown convection variant {variant!r}")
    mg = gd.grad_measures
    C = -(gd.grad_x.T @ sp.diags(mg * U[:, 0])
          + gd.grad_y.T @ sp.diags(mg * U[:, 1])) @ gd.overlap
    C = C.tocsr()
    if variant == "upstream":
        C = (C + artificial_diffusion(C)).tocsr()
    return C


def eliminate_dirichlet(A, b, bc):
    """Row/column elimination with rhs lifting; returns the free subsystem."""
    n = A.shape[0]
    free = np.ones(n, dtype=bool)
    free[bc.dofs] = False
    free_idx = np.flatnonzero(free)
    A_csc = A.tocsc()
    b_free = b[free_idx] - A_csc[:, bc.dofs][free_idx] @ bc.values
    A_ff = A_csc[:, free_idx][free_idx].tocsr()
    return A_ff, b_free, free_idx


def transport_step(gd, U, c_prev, dt, dsrc, params, variant,
                   dirichlet=None, cache=None,
                   tol=PICARD_TOL, max_iter=PICARD_MAX_ITER):
    """One implicit transport step.

    The truncation nonlinearity is resolved by Picard iteration: around the
    current iterate z the clamp is linearised dof-wise
    (T(c) ~ theta(z) c + tau(z), exact wherever z stays in [0, 1]) and the
    resulting linear system is solved.  Damping engages automatically when
    the nonlinear residual stalls.

    Returns (c_next, info) with the iteration count and accepted residual.
    """
    mass = params.phi * gd.recon_measures
    base = sp.diags(mass / dt) + diffusion_matrix(gd, U, params, variant)
    if dsrc.production_in_transport and np.any(dsrc.q_production):
        base = base + sp.diags(dsrc.q_production)
    base = base.tocsr()
    C = convection_matrix(gd, U, variant)
    b0 = mass * c_prev / dt + dsrc.chat * dsrc.q_injection

    free = np.ones(gd.ndof, dtype=bool)
    if dirichlet is not None:
        free[dirichlet.dofs] = False
    scale = max(float(np.linalg.norm(b0)), 1e-30)

    def nonlinear_residual(c):
        r = base @ c + C @ truncate(c) - b0
        return float(np.linalg.norm(r[free]))

    if cache is None:
        cache = linalg.FactorizationCache()
    z = c_prev.copy()
    if dirichlet is not None:
        z[dirichlet.dofs] = dirichlet.values
    history = []
    stalled = 0
    damping = 1.0
    c = z
    for it in range(1, max_iter + 1):
        inside = (z >= 0.0) & (z <= 1.0)
        theta = inside.astype(float)
        tau = truncate(z) - theta * z
        A = (base + C @ sp.diags(theta)).tocsr()
        b = b0 - C @ tau
        if dirichlet is not None:
            A_ff, b_f, free_idx = eliminate_dirichlet(A, b, dirichlet)
            c = np.empty(gd.ndof)
            c[dirichlet.dofs] = dirichlet.values
            c[free_idx] = cache.solve(A_ff, b_f)
        else:
            c = cache.solve(A, b)
        if damping < 1.0:
            c = z + damping * (c - z)
        res = nonlinear_residual(c)
        change = float(np.max(np.abs(c - z)))
        history.append(res)
        if res <= tol * scale or change <= tol:
            info = {"picard_iters": it, "picard_residual": res,
                    "picard_relative": res / scale}
            return c, info
        if len(history) >= 2 and res >= history[-2]:
            stalled += 1
            if stalled >= PICARD_STALL_WINDOW:
                damping = PICARD_DAMPING
        else:
            stalled = 0
        z = c
    raise PicardError(
        f"no convergence after {max_iter} iterations "
        f"(last residual {history[-1]:.3e}, scale {scale:.3e})", history)


def mass_balance_residual(gd, c_prev, c_next, dt, dsrc, params):
    """Neumann-test balance: Phi-weighted mass rate vs implicit source terms,
    relative to the source magnitude."""
    mass = params.phi * gd.recon_measures
    lhs = float(mass @ (gd.pi(c_next) - gd.pi(c_prev))) / dt
    rhs = float(dsrc.chat * dsrc.q_injection.sum()
                - dsrc.q_production @ gd.pi(c_next))
    scale = max(abs(dsrc.q_injection.sum()), 1e-30)
    return abs(lhs - rhs) / scale
