"""Problem data: viscosity/mobility, the Peaceman diffusion-dispersion tensor
and its mesh-dependent stabilised variant, and the analytical radial
solution used by the convergence tables.
"""

from dataclasses import dataclass

import numpy as np

# e^{-z} underflows to zero in double precision beyond this point
_UNDERFLOW_Z = 745.0


def truncate(s):
    """Clamp onto [0, 1]; accepts scalars or arrays."""
    return np.clip(s, 0.0, 1.0)


def viscosity(M, c):
    """Quarter-power mixing rule between the resident fluid (c=0) and the
    injected solvent (c=1) with mobility ratio M = mu(0)/mu(1):
    mu(c) = (1 + (M^(1/4) - 1) c)^(-4), with c clamped to [0, 1]."""
    c = truncate(c)
    return (1.0 + (M ** 0.25 - 1.0) * c) ** (-4)


@dataclass(frozen=True)
class MobilityTensor:
    """Isotropic mobility A(c) = (k / mu(c)) * I, with the resident
    viscosity mu(0) = 1 (its scale is the permeability k) and M the
    mobility ratio of ``viscosity``."""

    k: float = 1.0
    M: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.M) and self.M >= 1):
            raise ValueError(f"mobility ratio must be finite, >= 1, got {self.M}")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError(f"permeability must be finite, > 0, got {self.k}")

    def scalar(self, c):
        """The scalar k / mu(c) multiplying the identity."""
        return self.k / viscosity(self.M, c)


@dataclass(frozen=True)
class DispersionParams:
    """Porosity and diffusion/dispersion lengths; the assembled coefficients
    are D_m = Phi*dm (area/time), D_l = Phi*dl, D_t = Phi*dt (lengths)."""

    phi: float = 1.0
    dm: float = 0.0
    dl: float = 0.0
    dt_: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"porosity must lie in (0, 1], got {self.phi}")
        coeffs = np.array([self.dm, self.dl, self.dt_], dtype=float)
        if not np.all(np.isfinite(coeffs) & (coeffs >= 0)):
            raise ValueError(
                "diffusion/dispersion coefficients must be finite and >= 0")

    @property
    def D_m(self):
        return self.phi * self.dm

    @property
    def D_l(self):
        return self.phi * self.dl

    @property
    def D_t(self):
        return self.phi * self.dt_


def tensor_D_field(params, U, h=None):
    """Vectorised tensor evaluation for velocities U of shape (n, 2).

    Returns (D11, D22, D12) arrays; ``h`` switches on the stabilised
    diagonal.
    """
    U = np.asarray(U, dtype=float)
    Dm, Dl, Dt = params.D_m, params.D_l, params.D_t
    norm = np.hypot(U[:, 0], U[:, 1])
    safe = np.where(norm > 0.0, norm, 1.0)
    e11 = U[:, 0] ** 2 / safe ** 2
    e22 = U[:, 1] ** 2 / safe ** 2
    e12 = U[:, 0] * U[:, 1] / safe ** 2
    D11 = Dm + norm * ((Dl - Dt) * e11 + Dt)
    D22 = Dm + norm * ((Dl - Dt) * e22 + Dt)
    D12 = norm * (Dl - Dt) * e12  # at U = 0: D11 = D22 = Dm, D12 = 0
    if h is not None:
        if h <= 0:
            raise ValueError(f"mesh size must be positive, got {h}")
        D11 = np.maximum(D11, norm * h)
        D22 = np.maximum(D22, norm * h)
    return D11, D22, D12


def psi(z, N):
    """Truncated-exponential profile e^(-z) * sum_{k<=N} z^k / k!.

    Evaluated by the stable recurrence v_0 = 0,
    v_{k+1} = (z / (N - k)) (v_k + e^(-z)), with psi = v_N + e^(-z).
    Vectorised over z.
    """
    if N < 0:
        raise ValueError(f"series order must be >= 0, got {N}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("psi argument must be nonnegative")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros_like(z)
    ok = z <= _UNDERFLOW_Z
    zz = z[ok]
    ez = np.exp(-zz)
    v = np.zeros_like(zz)
    for k in range(N):
        v = (zz / (N - k)) * (v + ez)
    out[ok] = np.minimum(v + ez, 1.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class AnalyticalRadialSolution:
    """Radial concentration profile about the injection corner (1, 1) on the
    unit square; only defined for molecular diffusions making the series
    order an integer."""

    dm: float

    def __post_init__(self):
        if not self.dm > 0:
            raise ValueError(f"dm must be positive, got {self.dm}")
        n = 2.0 / (4.0 * self.dm) - 1.0
        if not np.isfinite(n) or abs(n - round(n)) > 1e-9 or round(n) < 0:
            raise ValueError(
                f"dm={self.dm} gives non-integer series order {n}")

    @property
    def N(self):
        return int(round(2.0 / (4.0 * self.dm) - 1.0))

    def concentration(self, x, t):
        """Exact concentration at points x (n, 2) and time t > 0."""
        if t <= 0:
            raise ValueError("exact concentration is defined for t > 0")
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x = np.atleast_2d(x)
        rho2 = (x[:, 0] - 1.0) ** 2 + (x[:, 1] - 1.0) ** 2
        vals = psi(rho2 / (4.0 * self.dm * t), self.N)
        vals = np.atleast_1d(vals)
        return float(vals[0]) if squeeze else vals

