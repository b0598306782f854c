"""Sparse solvers for the per-step systems.

Every system is solved with a SuperLU factorisation on narrow supernodes
(``SUPERNODES``) and checked against an independently recomputed
residual; the later LUs of a pattern in a run reuse the column ordering
of its first (``_lu``; Davis, Direct Methods for Sparse Linear Systems,
2006).  ``spd_solver`` solves (A + m m^T) x = b for many right-hand
sides, ``solve_pcg`` is CG preconditioned with such a solve, and
``FactorizationCache`` solves transport systems by low-rank updates.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ||A x - b|| relative to ||b|| above which a solve fails
RESIDUAL_TOL = 1e-10
# changed columns a FactorizationCache solves as an update of its last LU
MAX_UPDATE_RANK = 32
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
        row, col = p[np.repeat(np.arange(n), np.diff(indptr))], p[indices]
        at[:] = np.lexsort((row, col))  # column by column, rows ascending
        Bi[:], Bp[:] = row[at], np.searchsorted(col[at], np.arange(n + 1))
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
    """Factor the nonzeros of A once (see ``_lu``); return ``solve(b)`` for
    (A + m m^T) x = b.

    With m = ``rank_one``, A must annihilate constants, or no solve passes:
    the last dof is pinned, A x0 = b - s m is solved with s = sum(b)/sum(m),
    and a constant shift gives m^T x = s.  Each solve rejects a non-finite
    b; SolverError unless ||(A + m m^T) x - b|| <= RESIDUAL_TOL * ||b||.
    """
    A = _as_csr(A)
    if not np.all(A.data):  # stored zeros would only add LU fill
        A = A.copy()
        A.eliminate_zeros()
    if rank_one is None:
        direct = _lu(A, orderings).solve
    else:
        m = np.asarray(rank_one, dtype=float)
        msum = float(m.sum())
        pinned = _lu(A[:-1, :-1], orderings)

        def direct(b):
            s = b.sum() / msum
            x = np.zeros_like(b)
            x[:-1] = pinned.solve((b - s * m)[:-1])
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
    """Solve a nonsymmetric sparse system (the plain LU path of
    ``spd_solver`` needs no symmetry)."""
    return spd_solver(A)(b)


class FactorizationCache:
    """Solves a sequence of transport systems with few LU factorisations.

    Keeps a reference matrix A0 (its own copy: a caller may change a matrix
    in place) and its LU, ``_lu`` with the run's ``orderings``.  A new A
    on the pattern of A0 whose D = A - A0 changes the columns S is solved
    - with the LU of A0 when S is empty;
    - as x = y - Z_S (I + Z_S[S, :])^-1 y[S], y = A0^-1 b, Z_j = A0^-1 D_j
      (Sherman-Morrison-Woodbury) when |S| <= MAX_UPDATE_RANK.  Each Z_j
      is kept while D_j stays exactly equal, until A0 is replaced;
    - otherwise, when the kept Z_j would exceed MAX_UPDATE_RANK, or when A
      has another pattern, by factoring A, which becomes A0.
    Every solve rejects a non-finite b and checks the residual against A.
    An update with a non-finite Z_j, a singular capacitance matrix or a
    residual above RESIDUAL_TOL is redone by factoring A.
    """

    def __init__(self, orderings):
        self._orderings = orderings
        self._drop()
        self.factorizations = 0

    def _drop(self):
        self._A = self._lu = self._Z = None
        self._cols = {}  # column j -> (row of Z_j in _Z, bytes of D_j)

    def _factor(self, A):
        self._drop()  # free the old LU before SuperLU allocates the new one
        self._lu = _lu(A, self._orderings)
        self._A = A.copy()
        self._Z = np.zeros((MAX_UPDATE_RANK, A.shape[0]))
        self.factorizations += 1

    def _update(self, A):
        """The columns S in which A differs from A0 and the rows of their
        Z_j in ``_Z``, computing the Z_j not yet kept; None when A must be
        factored instead.  Raises SolverError on a non-finite Z_j."""
        A0 = self._A
        if A0 is None or A.shape != A0.shape \
                or not np.array_equal(A.indptr, A0.indptr) \
                or not np.array_equal(A.indices, A0.indices):
            return None
        # one pattern: compare the values, form D only where they differ
        at = np.flatnonzero(A.data != A0.data)
        S = np.unique(A.indices[at])
        if len(S) > MAX_UPDATE_RANK or len(self._cols) + sum(
                j not in self._cols for j in S) > MAX_UPDATE_RANK:
            return None
        at = at[np.argsort(A.indices[at], kind="stable")]
        values = A.data[at] - A0.data[at]
        # the rows and values of each D_j, in ascending row order
        split = np.searchsorted(A.indices[at], S[1:])
        parts = zip(np.split(np.searchsorted(A.indptr, at, side="right") - 1,
                             split), np.split(values, split))
        rows = np.empty(len(S), dtype=int)
        for k, (j, (idx, val)) in enumerate(zip(S, parts)):
            key = (idx.tobytes(), val.tobytes())
            row, kept = self._cols.get(j, (len(self._cols), None))
            if kept != key:
                d = np.zeros(A.shape[0])
                d[idx] = val
                self._Z[row] = self._lu.solve(d)
                if not np.isfinite(self._Z[row]).all():
                    raise SolverError("non-finite low-rank update")
                self._cols[j] = (row, key)
            rows[k] = row
        return S, rows

    def _solve_update(self, b, S, rows):
        y = self._lu.solve(b)
        v = np.zeros(len(self._cols))
        v[rows] = np.linalg.solve(
            np.eye(len(S)) + self._Z[np.ix_(rows, S)].T, y[S])
        return y - self._Z[:len(v)].T @ v

    def solve(self, A, b):
        A = _as_csr(A)
        b, bnorm = _finite_rhs(b)
        try:
            update = self._update(A)
            if update is not None and len(update[0]):
                return _checked(A, self._solve_update(b, *update), b, bnorm)
        except (SolverError, np.linalg.LinAlgError):
            update = None  # redone by factoring A
        if update is None:
            self._factor(A)
        return _checked(A, self._lu.solve(b), b, bnorm)
