"""Sparse solvers for the per-step systems.

Every system is solved with a SuperLU factorisation on narrow supernodes
(``SUPERNODES``) and checked against an independently recomputed
residual; the later LUs of a pattern in a run reuse the column ordering
of its first (``_lu``; Davis, Direct Methods for Sparse Linear Systems,
2006).  ``spd_solver`` solves (A + m m^T) x = b for many right-hand
sides by pinning A on its own pattern, so the pressure shares the
transport's ordering; ``solve_pcg`` is CG preconditioned with it, and
``FactorizationCache`` solves a transport operator's Jacobians by
low-rank updates in the clamp flags that flipped since its last LU.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ||A x - b|| relative to ||b|| above which a solve fails
RESIDUAL_TOL = 1e-10
# changed columns a FactorizationCache solves as an update of its last LU
MAX_UPDATE_RANK = 48
# columns per LU solve of an update's D_j: wider blocks are slower per column
_BLOCK = 8
# iterations of a preconditioned CG solve before it fails
CG_MAX_ITER = 50
# SuperLU supernode relaxation and panel width (Demmel et al., SIAM J.
# Matrix Anal. Appl. 20, 1999): narrow supernodes factor these matrices
# fastest; relax > panel_size corrupts SuperLU's heap
SUPERNODES = {"relax": 1, "panel_size": 1}


class SolverError(RuntimeError):
    """A linear solve failed: non-finite data, singular matrix or residual."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


def residual_norm(A, x, b, rank_one=None):
    """Independently recomputed ||Ax - b||."""
    r = A @ x - b
    if rank_one is not None:
        r = r + rank_one * (rank_one @ x)
    return float(np.linalg.norm(r))


def _lu(A, orderings=None):
    """The LU of the CSR matrix A (or an object with its ``solve``) in the
    minimum-degree ordering p of A^T + A.  ``orderings``, one run's list of
    the patterns it factored, keeps p, q = p^-1 and the positions in A of
    the CSC pattern of A[q][:, q]; a later LU of the pattern gathers A's
    values into that pattern and factors it in natural order."""
    try:
        for indptr, indices, p, q, at, Bi, Bp in orderings or ():
            if np.array_equal(A.indptr, indptr) \
                    and np.array_equal(A.indices, indices):
                B = sp.csc_matrix((A.data[at], Bi, Bp), shape=A.shape)
                lu = spla.splu(B, permc_spec="NATURAL", **SUPERNODES)
                return SimpleNamespace(solve=lambda b: lu.solve(b[q])[p])
        # kept arrays first, not to fragment the heap; intp p, q gather fast
        if orderings is not None:
            n, indptr, indices = A.shape[0], A.indptr.copy(), A.indices.copy()
            p, q = np.empty(n, np.intp), np.empty(n, np.intp)
            at, Bi = np.empty(A.nnz, np.int32), np.empty(A.nnz, np.int32)
            Bp = np.empty(n + 1, np.int32)
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", **SUPERNODES)
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorisation failed: {exc}") from exc
    if orderings is not None:
        p[:] = lu.perm_c
        q[p] = np.arange(n)
        # entry (i, j) of A is entry (p[i], p[j]) of A[q][:, q]
        M = sp.csr_matrix((np.arange(A.nnz), p[indices], indptr),
                          shape=A.shape)[q].tocsc()
        at[:], Bi[:], Bp[:] = M.data, M.indices, M.indptr
        orderings.append((indptr, indices, p, q, at, Bi, Bp))
    return lu


def _finite_rhs(b):
    """b as a float array and its norm; rejects a non-finite b."""
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise SolverError("right-hand side has non-finite entries")
    return b, bnorm


def _checked(A, x, b, bnorm, rank_one=None):
    """x, unless ||(A + m m^T) x - b|| > RESIDUAL_TOL * ||b||."""
    res = residual_norm(A, x, b, rank_one=rank_one)
    if not res <= RESIDUAL_TOL * bnorm:
        raise SolverError(f"solve residual {res:.3e} > "
                          f"{RESIDUAL_TOL * bnorm:.3e}", residual=res)
    return x


def spd_solver(A, rank_one=None, orderings=None):
    """Factor A on its stored pattern once (``_lu``); return ``solve(b)``
    for (A + m m^T) x = b, which rejects a non-finite b and raises
    SolverError unless ||(A + m m^T) x - b|| <= RESIDUAL_TOL * ||b||.
    With m = ``rank_one``, A must annihilate constants, or no solve passes:
    its stored last row and column become those of I (SolverError if the
    diagonal is not stored), A x0 = b - s m is solved for s = sum(b)/sum(m)
    and a constant shift gives m^T x = s.  A x rounds in proportion to s,
    so the check needs |sum(b)| << ||b||; every pressure b sums to 0."""
    if not sp.issparse(A):
        raise TypeError("expected a sparse matrix")
    A = A.tocsr()
    if rank_one is None:
        direct = _lu(A, orderings).solve
    else:
        m = np.asarray(rank_one, dtype=float)
        msum, P, n = float(m.sum()), A.copy(), A.shape[0] - 1
        last = slice(P.indptr[n], P.indptr[-1])
        if not np.any(P.indices[last] == n):
            raise SolverError("the pinned last row stores no diagonal")
        P.data[P.indices == n], P.data[last] = 0.0, P.indices[last] == n
        pinned = _lu(P, orderings)

        def direct(b):
            s = b.sum() / msum
            x = pinned.solve(np.append((b - s * m)[:-1], 0.0))
            return x + (s - m @ x) / msum

    def solve(b):
        b, bnorm = _finite_rhs(b)
        return _checked(A, direct(b), b, bnorm, rank_one)
    return solve


def solve_spd(A, b, rank_one=None, orderings=None):
    """Solve (A + m m^T) x = b once; see ``spd_solver``."""
    return spd_solver(A, rank_one, orderings)(b)


def solve_pcg(A, b, precond):
    """Solve the SPD system A x = b by conjugate gradients preconditioned
    with ``precond``, the solve of a spectrally equivalent system.  Rejects
    a non-finite b; raises SolverError unless CG converges within
    CG_MAX_ITER iterations and ||A x - b|| <= RESIDUAL_TOL * ||b||."""
    b, bnorm = _finite_rhs(b)
    x, info = spla.cg(A, b, rtol=0.1 * RESIDUAL_TOL, atol=0.0,
                      maxiter=CG_MAX_ITER,
                      M=spla.LinearOperator(A.shape, matvec=precond))
    if info != 0:
        raise SolverError(f"CG did not converge in {CG_MAX_ITER} iterations")
    return _checked(A, x, b, bnorm)


def solve_general(A, b):
    """Solve a nonsymmetric sparse system by ``spd_solver``'s plain LU."""
    return spd_solver(A)(b)


class FactorizationCache:
    """Solves the Jacobians J(theta) of one transport operator with few LU
    factorisations.

    Keeps the LU of a Jacobian J0 (``_lu`` with the run's ``orderings``)
    and its clamp flags theta0.  J(theta) = J0 + W diag(theta - theta0),
    with ``W`` (CSC) the operator's convection without its Dirichlet rows;
    with S the dofs whose flag flipped, J is solved
    - with the LU of J0 when S is empty;
    - as x = y - Z_S (I + Z_S[S, :])^-1 y[S], y = J0^-1 b, Z_S = J0^-1 W_S
      diag(theta_S - theta0_S) (Sherman-Morrison-Woodbury) when the kept
      J0^-1 W_j, S among them, number at most MAX_UPDATE_RANK.  The new
      J0^-1 W_j are solved ``_BLOCK`` per LU solve and kept, per dof,
      until J0 is replaced;
    - otherwise by factoring J, which becomes J0.
    Every solve rejects a non-finite b and checks the residual against J.
    An update with a non-finite J0^-1 W_j, a singular capacitance matrix
    or a residual above RESIDUAL_TOL is redone by factoring J.
    """

    def __init__(self, W, orderings):
        self._W, self._orderings = W, orderings
        self._lu = self._Z = None
        self.factorizations = 0

    def _factor(self, J, theta):
        self._lu = self._Z = None  # free the old LU before SuperLU's new one
        self._lu = _lu(J, self._orderings)
        self._theta, self._kept = theta.copy(), 0
        self._row = np.full(len(theta), -1)  # dof j -> row of J0^-1 W_j
        self._Z = np.zeros((MAX_UPDATE_RANK, len(theta)))
        self.factorizations += 1

    def _update(self, theta):
        """The dofs S whose flag flipped since J0, computing the J0^-1 W_j
        not yet kept; None when J must be factored instead.  Raises
        SolverError on a non-finite J0^-1 W_j."""
        if self._lu is None:
            return None
        S = np.flatnonzero(theta != self._theta)
        new = S[self._row[S] < 0]
        if self._kept + len(new) > MAX_UPDATE_RANK:
            return None
        self._row[new] = np.arange(self._kept, self._kept + len(new))
        self._kept += len(new)
        # the new W_j, _BLOCK per LU solve; after a raise, solve factors J
        W = self._W
        for block in (new[s:s + _BLOCK] for s in range(0, len(new), _BLOCK)):
            D = np.zeros((len(theta), len(block)), order="F")
            for c, j in enumerate(block):
                at = slice(W.indptr[j], W.indptr[j + 1])
                D[W.indices[at], c] = W.data[at]
            Z = self._lu.solve(D)
            if not np.isfinite(Z).all():
                raise SolverError("non-finite low-rank update")
            self._Z[self._row[block]] = Z.T
        return S

    def _solve_update(self, b, S, theta):
        y, d = self._lu.solve(b), theta[S] - self._theta[S]
        v = np.zeros(self._kept)
        v[self._row[S]] = d * np.linalg.solve(
            np.eye(len(S)) + self._Z[np.ix_(self._row[S], S)].T * d, y[S])
        return y - self._Z[:self._kept].T @ v

    def solve(self, J, b, theta):
        """Solve J x = b for the Jacobian J of the clamp flags theta."""
        b, bnorm = _finite_rhs(b)
        try:
            S = self._update(theta)
            if S is not None and len(S):
                return _checked(J, self._solve_update(b, S, theta), b, bnorm)
        except (SolverError, np.linalg.LinAlgError):
            S = None  # redone by factoring J
        if S is None:
            self._factor(J, theta)
        return _checked(J, self._lu.solve(b), b, bnorm)
