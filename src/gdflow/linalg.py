"""Sparse direct solvers for the per-step systems.

Every system is solved by one sparse LU with a minimum-degree ordering of
A^T + A, and every solution is checked against an independently recomputed
residual.  ``spd_solver`` factors once and returns a solve for any number
of right-hand sides.  Given m, it solves the zero-mean elliptic system
(A + m m^T) x = b, where A annihilates constants: the last dof is pinned,
A x0 = b - s m is solved with s = sum(b) / sum(m), and a constant shift
gives m^T x = s, which holds for every exact solution.
``FactorizationCache`` keeps the transport factorisation while the
assembled matrix stays the same.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ||A x - b|| relative to ||b|| above which a solve fails
RESIDUAL_TOL = 1e-10
# |A 1| relative to the row sums of |A| below which a row counts as
# annihilating constants
ZERO_ROW_SUM_TOL = 1e-10


class SolverError(RuntimeError):
    """A linear solve failed: non-finite data, singular matrix or residual."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


def _as_csr(A):
    if not sp.issparse(A):
        raise TypeError("expected a sparse matrix")
    return A.tocsr()


def residual_norm(A, x, b, rank_one=None):
    """Independently recomputed ||Ax - b||."""
    r = A @ x - b
    if rank_one is not None:
        r = r + rank_one * (rank_one @ x)
    return float(np.linalg.norm(r))


def _lu(A):
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorisation failed: {exc}") from exc


def spd_solver(A, rank_one=None):
    """Factor A once; return ``solve(b)`` for (A + m m^T) x = b.

    ``rank_one`` is the optional vector m; A must then annihilate
    constants.  Each solve rejects a non-finite b and raises SolverError
    unless ||(A + m m^T) x - b|| <= RESIDUAL_TOL * ||b||.
    """
    A = _as_csr(A)
    n = A.shape[0]
    if rank_one is None:
        direct = _lu(A).solve
    else:
        m = np.asarray(rank_one, dtype=float)
        ones = np.ones(n)
        if not np.all(np.abs(A @ ones)
                      <= ZERO_ROW_SUM_TOL * (abs(A) @ ones)):
            raise SolverError("rank-one solve needs a matrix whose rows "
                              "sum to zero")
        msum = float(m.sum())
        pinned = _lu(A[:-1, :-1])

        def direct(b):
            s = b.sum() / msum
            x = np.zeros(n)
            x[:-1] = pinned.solve((b - s * m)[:-1])
            return x + (s - m @ x) / msum

    def solve(b):
        b = np.asarray(b, dtype=float)
        bnorm = np.linalg.norm(b)
        if not np.isfinite(bnorm):
            raise SolverError("right-hand side has non-finite entries")
        if bnorm == 0.0:
            return np.zeros(n)
        x = direct(b)
        res = residual_norm(A, x, b, rank_one=rank_one)
        if not res <= RESIDUAL_TOL * bnorm:
            raise SolverError(f"LU solve residual {res:.3e} > "
                              f"{RESIDUAL_TOL * bnorm:.3e}", residual=res)
        return x
    return solve


def solve_spd(A, b, rank_one=None):
    """Solve (A + m m^T) x = b once; see ``spd_solver``."""
    return spd_solver(A, rank_one)(b)


def solve_general(A, b):
    """Solve a nonsymmetric sparse system (the plain LU path of
    ``spd_solver`` needs no symmetry)."""
    return spd_solver(A)(b)


class FactorizationCache:
    """Reuses the ``spd_solver`` of the last factored matrix while each new
    matrix equals it exactly (shape, ``indptr``, ``indices`` and ``data``).
    The cache compares against its own copy, so a caller may change a
    matrix in place.  The transport matrix changes with the velocity, dt
    and the clamp set of the Picard iterate, so even constant-viscosity
    runs refactorise whenever a dof enters or leaves [0, 1]."""

    def __init__(self):
        self._A = None
        self._solve = None
        self.factorizations = 0

    def solve(self, A, b):
        A = _as_csr(A)
        last = self._A
        if (last is None or A.shape != last.shape
                or not np.array_equal(A.indptr, last.indptr)
                or not np.array_equal(A.indices, last.indices)
                or not np.array_equal(A.data, last.data)):
            A = A.copy()
            self._solve = spd_solver(A)
            self._A = A
            self.factorizations += 1
        return self._solve(b)
