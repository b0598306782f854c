"""Sparse solvers for the per-step systems.

Systems are solved with sparse LUs (minimum-degree ordering of A^T + A),
and every solution is checked against an independently recomputed
residual.  ``spd_solver`` factors once and returns a solve for any number
of right-hand sides.  Given m, it solves the zero-mean elliptic system
(A + m m^T) x = b, where A annihilates constants: the last dof is pinned,
A x0 = b - s m is solved with s = sum(b) / sum(m), and a constant shift
gives m^T x = s, which holds for every exact solution.  For an A whose
rows do not sum to zero that x is wrong, and the residual check rejects
it.  ``solve_pcg``
solves an SPD system by CG preconditioned with the LU of a spectrally
equivalent one: ``quality`` solves (M + G) w = r with the LU of
E = G + m m^T, and spectrum(E^-1 (M + G)) lies in [1, 1 + C_D^2] on the
unit square.  ``FactorizationCache`` solves a sequence of transport
systems with few factorisations, by low-rank updates of one LU.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ||A x - b|| relative to ||b|| above which a solve fails
RESIDUAL_TOL = 1e-10
# changed columns a FactorizationCache solves as an update of its last LU
MAX_UPDATE_RANK = 32
# iterations of a preconditioned CG solve before it fails
CG_MAX_ITER = 50


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


def spd_solver(A, rank_one=None):
    """Factor the nonzeros of A once; return ``solve(b)`` for
    (A + m m^T) x = b.

    ``rank_one`` is the optional vector m; A must then annihilate
    constants, or no solve passes.  Each solve rejects a non-finite b and
    raises SolverError unless ||(A + m m^T) x - b|| <= RESIDUAL_TOL * ||b||.
    """
    A = _as_csr(A)
    if not np.all(A.data):  # stored zeros would only add LU fill
        A = A.copy()
        A.eliminate_zeros()
    n = A.shape[0]
    if rank_one is None:
        direct = _lu(A).solve
    else:
        m = np.asarray(rank_one, dtype=float)
        msum = float(m.sum())
        pinned = _lu(A[:-1, :-1])

        def direct(b):
            s = b.sum() / msum
            x = np.zeros(n)
            x[:-1] = pinned.solve((b - s * m)[:-1])
            return x + (s - m @ x) / msum

    def solve(b):
        b, bnorm = _finite_rhs(b)
        return _checked(A, direct(b), b, bnorm, rank_one)
    return solve


def solve_spd(A, b, rank_one=None):
    """Solve (A + m m^T) x = b once; see ``spd_solver``."""
    return spd_solver(A, rank_one)(b)


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

    Keeps a reference matrix A0, as its own copy so that a caller may change
    a matrix in place, and its LU.  A new A on the pattern of A0 (the same
    shape, ``indptr`` and ``indices``), whose D = A - A0 changes the columns
    S (read from the values), is solved
    - with the LU of A0 when S is empty;
    - as x = y - Z_S (I + Z_S[S, :])^-1 y[S], y = A0^-1 b, Z_j = A0^-1 D_j
      (Sherman-Morrison-Woodbury) when |S| <= MAX_UPDATE_RANK.  Each Z_j
      is kept while D_j stays exactly equal, until A0 is replaced, in at
      most MAX_UPDATE_RANK * n doubles;
    - otherwise, when the kept Z_j would exceed MAX_UPDATE_RANK, or when A
      has another pattern, by factoring A, which becomes A0.
    Every solve rejects a non-finite b and checks the residual against A.
    An update that misses RESIDUAL_TOL (a non-finite one does), or whose
    capacitance matrix is singular, is redone by factoring A; SolverError
    follows if that misses too.
    """

    def __init__(self):
        self._drop()
        self.factorizations = 0

    def _drop(self):
        self._A = self._lu = self._Z = None
        self._cols = {}  # column j -> (row of Z_j in _Z, bytes of D_j)

    def _factor(self, A):
        self._drop()  # free the old LU before SuperLU allocates the new one
        self._lu = _lu(A)
        self._A = A.copy()
        self._Z = np.zeros((MAX_UPDATE_RANK, A.shape[0]))
        self.factorizations += 1

    def _update(self, A):
        """The columns S in which A differs from A0 and the rows of their
        Z_j in ``_Z``, computing the Z_j not yet kept; None when A must be
        factored instead."""
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
        update = self._update(A)
        if update is None:
            self._factor(A)
        if update is not None and len(update[0]):
            try:
                return _checked(A, self._solve_update(b, *update), b, bnorm)
            except (SolverError, np.linalg.LinAlgError):
                self._factor(A)
        return _checked(A, self._lu.solve(b), b, bnorm)
