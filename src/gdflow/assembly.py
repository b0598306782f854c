"""Per-time-step discrete systems: the corner and lineic well sources, the
pressure equation with its zero-mean rank-one term, the Darcy velocity
reconstruction, and the implicit transport equation with the truncated
convection nonlinearity resolved by Picard iteration (centred, upstream or
vanishing-diffusion variants).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .physics import tensor_D_field, truncate

VARIANTS = ("centred", "upstream", "dh")

PICARD_TOL = 1e-9
PICARD_MAX_ITER = 100
ARMIJO_DECREASE = 1e-4   # sufficient decrease of the residual per unit step
MIN_STEP = 2.0 ** -10    # floor of the step halving
WELL_TOL = 1e-9          # well point to dof anchor, relative to the side


class ConfigError(ValueError):
    pass


class PicardError(RuntimeError):
    """Picard iteration failed to converge; carries the residual history."""

    def __init__(self, message, history):
        self.history = list(history)
        super().__init__(message)


@dataclass(frozen=True)
class DiscreteSources:
    """Per-dof source rates of the injected fluid (concentration 1) and of
    the production, which the transport equation takes as a reaction
    term."""

    q_injection: np.ndarray
    q_production: np.ndarray

    def pressure_rhs(self):
        return self.q_injection - self.q_production


def _locate_dof(gd, point):
    d2 = ((gd.anchors - np.asarray(point)) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    if d2[i] > WELL_TOL ** 2 * max(1.0, gd.domain_area):
        raise ConfigError(f"no dof anchored at well point {tuple(point)}")
    return i


def discretize_sources(gd, side, rate):
    """Per-dof sources: with a ``rate``, the quarter five-spot wells at
    (side, side) and the origin; with ``rate=None``, the radial test's pi/2
    injection at (1, 1) and, on each dof of the two edges through the
    origin, a production equal to the angle its segment subtends at (1, 1),
    where (s, 0) and (0, s) lie at arctan2(s, 2 - s) from the origin."""
    qi, qp = np.zeros(gd.ndof), np.zeros(gd.ndof)
    if rate is not None:
        qi[_locate_dof(gd, (side, side))] += rate
        qp[_locate_dof(gd, (0.0, 0.0))] += rate
        return DiscreteSources(q_injection=qi, q_production=qp)
    qi[_locate_dof(gd, (1.0, 1.0))] += np.pi / 2.0
    for along, across in ((0, 1), (1, 0)):  # bottom, left edge
        on_edge = np.flatnonzero(np.abs(gd.anchors[:, across]) < 1e-12)
        s = gd.anchors[on_edge, along]
        order = np.argsort(s)
        s = s[order]
        # cell cut points: midpoints between consecutive anchors
        breaks = np.concatenate([[0.0], 0.5 * (s[1:] + s[:-1]), [1.0]])
        angle = np.arctan2(breaks, 2.0 - breaks)
        np.add.at(qp, on_edge[order], np.diff(angle))
    return DiscreteSources(q_injection=qi, q_production=qp)


def pressure_matrix(gd, c_prev, mobility):
    """Stiffness of the mobility-weighted bilinear form, using the exact
    piecewise-constant quadrature of A(Pi c) on every gradient cell."""
    a = gd.overlap @ mobility.scalar(c_prev)
    return gd.grad_gram(a, a), a


def solve_pressure(gd, c_prev, mobility, dsrc, orderings):
    """Solve the zero-mean pressure system and reconstruct the Darcy field.

    Returns (p, U, info); U is the per-gradient-cell velocity
    -A(Pi c_prev) grad p, and info records the discrete pressure mean.
    """
    G, a = pressure_matrix(gd, c_prev, mobility)
    m = gd.recon_measures
    b = dsrc.pressure_rhs()
    # the rank-one term is the mean functional m / |Omega|, free of the
    # domain scale: with the measures m themselves it grows like |Omega|^2
    # and its rounding alone exceeds the residual bound on (0, 1000)^2
    mean = m / gd.domain_area
    p = linalg.solve_spd(G, b, rank_one=mean, orderings=orderings)
    # pin the zero-mean normalisation exactly (G annihilates constants)
    p = p - (m @ p) / gd.domain_area
    U = -a[:, None] * gd.grad(p)
    info = {"pressure_mean": float(m @ p),
            "pressure_rhs_norm": float(np.linalg.norm(b))}
    return p, U, info


def diffusion_matrix(gd, U, params, variant):
    if variant not in VARIANTS:
        raise ConfigError(f"unknown convection variant {variant!r}")
    h = gd.h if variant == "dh" else None
    D11, D22, D12 = tensor_D_field(params, U, h=h)
    return gd.grad_gram(D11, D22, D12)


def artificial_diffusion(C):
    """Symmetric graph-Laplacian upwinding operator for a convection matrix
    C whose pattern is symmetric, with sorted rows and the diagonal:
    off-diagonal removals d_ij = max(0, c_ij, c_ji), zero row sums, on the
    pattern of C."""
    n = C.shape[0]
    rows = np.repeat(np.arange(n), np.diff(C.indptr))
    diag = rows == C.indices
    # on such a pattern the column-major values are the mirrors c_ji
    d = np.maximum(np.maximum(C.data, C.tocsc().data), 0.0)
    d[diag] = 0.0
    data = -d
    data[diag] = np.bincount(rows, d, n)[rows[diag]]
    return sp.csr_matrix((data, C.indices, C.indptr), shape=C.shape)


def convection_matrix(gd, U, variant, cross=False):
    """Matrix C with (C w)_i = -int T-free transport of w against U.grad(phi_i),
    on ``gd.pattern(cross)``, which holds it either way; the truncation is
    applied to the argument before multiplying."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown convection variant {variant!r}")
    _, gx, gy, overlap = gd.local
    mg = gd.grad_measures
    flux = gx * (mg * U[:, 0]) + gy * (mg * U[:, 1])
    C = gd.pattern(cross).assemble([(flux, np.full(len(mg), -1.0), overlap)])
    if variant == "upstream":
        C.data += artificial_diffusion(C).data
    return C


def eliminate_dirichlet(J, rows):
    """Make the Dirichlet rows of J identity rows, in place.

    J lies on the pattern P that ``rows`` = (entries, diag), the positions
    in P of all entries and of the diagonals of those rows, was computed
    for; the other rows, and the index arrays of J, are left as they are.
    """
    entries, diag = rows
    J.data[entries] = 0.0
    J.data[diag] = 1.0
    return J


class TransportOperator:
    """The transport system of one velocity U and time step dt.

    ``base`` = mass / dt + diffusion + the production reaction and the
    convection ``C`` define the residual F(c) = base c + C T(c) - b0 and the
    Jacobian base + C diag(theta), both on the pattern P of the diffusion
    (the cross one where the dispersion has a D12 part) and its index
    arrays.  Each step prescribes values on ``dirichlet_dofs``, if given,
    whose Jacobian rows become identity rows in place at the positions
    ``dirichlet_rows`` in P.  With W = C without the Dirichlet rows, two
    Jacobians differ by W diag(theta - theta0), so ``cache`` (with
    ``orderings``, as long-lived as the operator) solves them by updating
    its LU in the clamp flags that flipped.
    """

    def __init__(self, gd, U, dt, dsrc, params, variant, orderings,
                 dirichlet_dofs=None):
        if dirichlet_dofs is not None and len(dirichlet_dofs) == 0:
            raise ConfigError("empty Dirichlet dof set")
        self.dt = dt
        self.mass = params.phi * gd.recon_measures
        D = diffusion_matrix(gd, U, params, variant)
        cross = D.nnz != gd.pattern().nnz  # D12 puts D on the cross one
        P, C = gd.pattern(cross), convection_matrix(gd, U, variant, cross)
        base = D.data
        base[P.diag] += self.mass / dt
        base[P.diag] += dsrc.q_production
        self.base, self.C = P.matrix(base), C
        self.q_injection = dsrc.q_injection
        # the column of every entry of P: intp indexes theta twice as fast
        self.cols = P.indices.astype(np.intp)
        self.dirichlet_dofs = dirichlet_dofs
        self.dirichlet_rows = None
        W = C.tocsc()
        if dirichlet_dofs is not None:
            row = np.repeat(np.arange(gd.ndof), np.diff(P.indptr))
            self.dirichlet_rows = (
                np.flatnonzero(np.isin(row, dirichlet_dofs)),
                P.diag[dirichlet_dofs])
            W.data[np.isin(W.indices, dirichlet_dofs)] = 0.0
        self.cache = linalg.FactorizationCache(W, orderings)

    def jacobian(self, theta):
        """base + C diag(theta) on P, with identity rows on the Dirichlet
        dofs."""
        base = self.base
        J = sp.csr_matrix((base.data + self.C.data * theta[self.cols],
                           base.indices, base.indptr), shape=base.shape)
        if self.dirichlet_rows is not None:
            eliminate_dirichlet(J, self.dirichlet_rows)
        return J


def transport_step(op, c_prev, dirichlet=None):
    """One implicit transport step on the ``TransportOperator`` op.

    The truncation nonlinearity is resolved by a semismooth Newton
    ("Picard") iteration on F(c) = base c + C T(c) - b0, set to zero on the
    Dirichlet dofs, which the iterate z holds from the start.  At z,
    J = base + C diag(theta) with theta = 1 where z lies in [0, 1] and 0
    elsewhere, and identity rows on the Dirichlet dofs; the correction
    solves J delta = F(z) with the LU kept by ``op.cache``, so delta is
    zero on the Dirichlet dofs.  An Armijo line search
    globalises c = z - lam delta: unless the full step passes the
    convergence test, lam = 1 is halved (down to MIN_STEP) while
    ||F(c)|| > (1 - ARMIJO_DECREASE lam) ||F(z)||.  ``dirichlet`` is the
    array of values on the operator's Dirichlet dofs, in their order.

    Returns (c_next, info) with the iteration count, the number of step
    halvings and the accepted residual; raises PicardError with the
    residual history after PICARD_MAX_ITER iterations.
    """
    dofs = op.dirichlet_dofs
    if (dirichlet is None) != (dofs is None) \
            or np.shape(dirichlet) != np.shape(dofs):
        raise ConfigError("Dirichlet values do not fit the Dirichlet dofs "
                          "of the transport operator")
    base, C = op.base, op.C
    b0 = op.mass * c_prev / op.dt + op.q_injection
    z = c_prev.copy()
    if dofs is not None:
        z[dofs] = dirichlet
    scale = max(float(np.linalg.norm(b0)), 1e-30)

    def residual(c):
        F = base @ c + C @ truncate(c) - b0
        if dofs is not None:
            F[dofs] = 0.0
        return F, float(np.linalg.norm(F))

    F, res_z = residual(z)
    history = []
    backtracks = 0
    for it in range(1, PICARD_MAX_ITER + 1):
        theta = ((z >= 0.0) & (z <= 1.0)).astype(float)
        delta = op.cache.solve(op.jacobian(theta), F, theta)
        c, lam = z - delta, 1.0
        F, res = residual(c)
        converged = (res <= PICARD_TOL * scale
                     or np.max(np.abs(delta)) <= PICARD_TOL)
        while (not converged and lam > MIN_STEP
               and res > (1.0 - ARMIJO_DECREASE * lam) * res_z):
            lam *= 0.5
            backtracks += 1
            c = z - lam * delta
            F, res = residual(c)
        history.append(res)
        if converged:
            info = {"picard_iters": it, "backtracks": backtracks,
                    "picard_residual": res, "picard_relative": res / scale}
            return c, info
        z, res_z = c, res
    raise PicardError(
        f"no convergence after {PICARD_MAX_ITER} iterations "
        f"(last residual {history[-1]:.3e}, scale {scale:.3e})", history)


def mass_balance_residual(gd, c_prev, c_next, dt, dsrc, params):
    """Neumann-test balance: Phi-weighted mass rate vs implicit source terms,
    relative to the source magnitude."""
    mass = params.phi * gd.recon_measures
    lhs = float(mass @ (c_next - c_prev)) / dt
    rhs = float(dsrc.q_injection.sum() - dsrc.q_production @ c_next)
    scale = max(abs(dsrc.q_injection.sum()), 1e-30)
    return abs(lhs - rhs) / scale
