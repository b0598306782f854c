"""Sparse linear solvers for the per-step systems: conjugate gradients for
the symmetric positive-definite pressure operator (sparse plus an optional
rank-one term), BiCGStab with an LU fallback for the nonsymmetric transport
systems, and a factorisation cache for repeated solves with one matrix.
"""

import hashlib

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-10
DENSE_FALLBACK_MAX = 2000


class SolverError(RuntimeError):
    """A linear solve failed: non-finite data, singular matrix or residual."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


def _as_csr(A):
    if not sp.issparse(A):
        raise TypeError("expected a sparse matrix")
    return A.tocsr()


def _rhs_norm(b):
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise SolverError("right-hand side has non-finite entries")
    return bnorm


def residual_norm(A, x, b, rank_one=None):
    """Independently recomputed ||Ax - b||."""
    r = A @ x - b
    if rank_one is not None:
        r = r + rank_one * (rank_one @ x)
    return float(np.linalg.norm(r))


def solve_spd(A, b, rank_one=None, tol=DEFAULT_TOL, maxiter=None):
    """Solve (A + m m^T) x = b by Jacobi-preconditioned conjugate gradients.

    ``rank_one`` is the optional vector m; the rank-one term is applied
    matrix-free, never stored.
    """
    A = _as_csr(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = _rhs_norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    if maxiter is None:
        maxiter = 20 * n

    diag = A.diagonal().copy()
    if rank_one is not None:
        m = np.asarray(rank_one, dtype=float)
        diag = diag + m * m

        def matvec(x):
            return A @ x + m * (m @ x)
        op = spla.LinearOperator((n, n), matvec=matvec)
    else:
        op = A
    diag[diag <= 0.0] = 1.0
    precond = spla.LinearOperator((n, n), matvec=lambda x: x / diag)

    x, info = spla.cg(op, b, rtol=tol * 0.5, atol=0.0, maxiter=maxiter,
                      M=precond)
    res = residual_norm(A, x, b, rank_one=rank_one)
    if not res <= tol * bnorm:
        raise SolverError(
            f"conjugate gradients stalled (info={info}): "
            f"residual {res:.3e} > {tol:.1e} * ||b|| = {tol * bnorm:.3e}",
            residual=res)
    return x


def solve_general(A, b, tol=DEFAULT_TOL, maxiter=None):
    """Solve a nonsymmetric sparse system; BiCGStab first, then LU.

    Small systems (n <= 2000) fall back to dense LU; larger ones to a sparse
    factorisation.  The returned solution always satisfies the residual
    bound or a SolverError is raised.
    """
    A = _as_csr(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    if maxiter is None:
        maxiter = 20 * n

    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    precond = spla.LinearOperator((n, n), matvec=lambda x: x / diag)
    x, info = spla.bicgstab(A, b, rtol=tol * 0.5, atol=0.0,
                            maxiter=maxiter, M=precond)
    if info == 0 and residual_norm(A, x, b) <= tol * bnorm:
        return x

    if n <= DENSE_FALLBACK_MAX:
        x = scipy.linalg.solve(A.toarray(), b)
    else:
        x = spla.splu(A.tocsc()).solve(b)
    res = residual_norm(A, x, b)
    if not res <= tol * bnorm:
        raise SolverError(
            f"direct fallback residual {res:.3e} > {tol * bnorm:.3e}",
            residual=res)
    return x


def _matrix_key(A):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(A.indptr).tobytes())
    h.update(np.ascontiguousarray(A.indices).tobytes())
    h.update(np.ascontiguousarray(A.data).tobytes())
    return (A.shape, h.hexdigest())


class FactorizationCache:
    """Reuses a sparse LU factorisation across solves with the same matrix.

    The time loop refactorises only when the assembled matrix actually
    changes (constant-viscosity runs keep one factorisation throughout).
    """

    def __init__(self, tol=DEFAULT_TOL):
        self.tol = tol
        self._key = None
        self._lu = None
        self.factorizations = 0

    def solve(self, A, b):
        A = _as_csr(A)
        b = np.asarray(b, dtype=float)
        bnorm = _rhs_norm(b)
        key = _matrix_key(A)
        if key != self._key:
            try:
                self._lu = spla.splu(A.tocsc())
            except RuntimeError as exc:
                raise SolverError(f"sparse LU factorisation failed: {exc}") \
                    from exc
            self._key = key
            self.factorizations += 1
        x = self._lu.solve(b)
        res = residual_norm(A, x, b)
        if not res <= self.tol * bnorm:
            raise SolverError(
                f"factorised solve residual {res:.3e} > {self.tol * bnorm:.3e}",
                residual=res)
        return x
