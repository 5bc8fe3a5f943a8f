"""Galerkin-truncated incompressible flow on a periodic square, in spectral form.

States are complex scalar coefficients over a representative half of the
wavevector lattice ``0 < |n|_inf <= k_max``: writing the velocity Fourier
coefficient as ``v_k = v'_k k_perp / |k|`` makes the field divergence-free
by construction, and storing one scalar per +/-k pair makes it real-valued
by construction. The advection term is evaluated pseudo-spectrally, on a
grid padded by the 3/2 rule so that no aliased mode reaches the lattice
(Orszag 1971), and time stepping uses RK4 on integrating-factor-transformed
coefficients so the stiff viscous part is handled exactly.
"""

import numpy as np

from . import _kernels
from .dynamics import check_finite

TWO_PI = 2.0 * np.pi
#: grid points per block of rows that step_batch integrates at once, which
#: bounds the advection term's FFT temporaries to about 13 MB
BLOCK_POINTS = 2**17


class SpectralGrid:
    """Wavevector bookkeeping and the advection FFT plan for one truncation."""

    def __init__(self, k_max, period=TWO_PI):
        self.k_max = int(k_max)
        self.period = float(period)
        self.scale = TWO_PI / self.period  # physical k = scale * n

        reps = []
        for n1 in range(0, self.k_max + 1):
            for n2 in range(-self.k_max, self.k_max + 1):
                if n1 == 0 and n2 <= 0:
                    continue
                reps.append((n1, n2))
        self.reps = np.array(reps, dtype=np.int64)
        self.n_reps = len(reps)
        self.full = np.vstack([self.reps, -self.reps])
        self.n_full = 2 * self.n_reps
        self._lookup = {tuple(n): i for i, n in enumerate(self.full)}

        kv = self.scale * self.full.astype(float)
        self.kvecs = kv
        self.k2_full = np.einsum("ij,ij->i", kv, kv)
        self.k2_reps = self.k2_full[: self.n_reps]

        # FFT plan of _kernels.bilinear_conv on the smallest 5-smooth
        # M >= 3 k_max + 1 (M is 5-smooth iff it divides a power of 30)
        m = 3 * self.k_max + 1
        while pow(30, m, m):
            m += 1
        half = m // 2 + 1
        self.fft_shape = (m, half)
        n1, n2 = self.reps.T
        self.fft_mirror = np.flatnonzero(n1 == 0)
        self.fft_put = np.concatenate([n2 % m * half + n1, -n2[self.fft_mirror] % m * half])
        kx, ky = self.kvecs[: self.n_reps].T
        k = np.sqrt(self.k2_reps)
        self.conv_w = np.stack([kx / k, ky / k, kx * k, ky * k])
        self.fft_fold = 1j / k

    # -- representation helpers ------------------------------------------------

    def expand(self, reps_coeffs):
        """Representative scalars -> full-lattice scalars (real field implied)."""
        return np.concatenate([reps_coeffs, -np.conj(reps_coeffs)])

    def index_of(self, n):
        return self._lookup[tuple(int(v) for v in n)]

    def h1_norm2(self, reps_coeffs):
        """Squared Sobolev norm sum_k |k|^2 |v_k|^2 over the full lattice,
        of a state or of each row of a (n, n_reps) batch."""
        return 2.0 * np.sum(self.k2_reps * np.abs(reps_coeffs) ** 2, axis=-1)

    def velocity_coeffs(self, reps_coeffs):
        """Full-lattice vector coefficients v_k = v'_k k_perp/|k|, shape (n_full, 2)."""
        full = self.expand(reps_coeffs)
        kperp = np.stack([-self.kvecs[:, 1], self.kvecs[:, 0]], axis=1)
        unit = kperp / np.sqrt(self.k2_full)[:, None]
        return full[:, None] * unit

    def evaluate_velocity(self, reps_coeffs, points):
        """Velocity field at physical points, shape (npts, 2) complex."""
        coeffs = self.velocity_coeffs(reps_coeffs)
        phases = np.exp(1j * points @ self.kvecs.T)  # (npts, n_full)
        return phases @ coeffs


class SpectralNSModel:
    """Viscous incompressible flow truncated to ``0 < |n|_inf <= k_max``."""

    def __init__(self, nu, forcing_reps, grid: SpectralGrid, substeps=5):
        self.name = f"navier-stokes-k{grid.k_max}"
        self.grid = grid
        self.nu = float(nu)
        self.forcing = np.asarray(forcing_reps, dtype=np.complex128)
        if self.forcing.shape != (grid.n_reps,):
            raise ValueError("forcing must be a representative coefficient array")
        self.dim = grid.n_reps
        self.substeps = int(substeps)
        # slowest dissipation rate in the truncated space
        self.theta = self.nu * grid.scale**2
        fnorm = np.sqrt(grid.h1_norm2(self.forcing))
        self.r0 = (fnorm / self.theta) ** 2
        self.r1 = self.theta

    # -- algebra ----------------------------------------------------------------

    def _conv(self, u, w):
        g = self.grid
        return _kernels.bilinear_conv(
            u, w, g.fft_shape, g.fft_put, g.fft_mirror, g.conv_w, g.fft_fold
        )

    def bilinear(self, u_reps, w_reps):
        """Symmetric advection form B(u, w), representative coefficients."""
        u = np.asarray(u_reps, dtype=np.complex128)[None]
        w = np.asarray(w_reps, dtype=np.complex128)[None]
        return self._conv(u, w)[0]

    def vector_field(self, u_reps):
        """Right-hand side f - A u - B(u, u) in representative coefficients."""
        u_reps = np.asarray(u_reps, dtype=np.complex128)
        if u_reps.shape != (self.dim,):
            raise ValueError(
                f"state has shape {u_reps.shape}, model {self.name!r} expects ({self.dim},)"
            )
        u = u_reps[None]
        buu = self._conv(u, u)[0]
        return self.forcing - self.nu * self.grid.k2_reps * u_reps - buu

    # -- time stepping ------------------------------------------------------------

    def _nonlinear(self, u):
        return self.forcing - self._conv(u, u)

    def _advance(self, u, h, substeps):
        if h <= 0:
            raise ValueError("assimilation interval h must be positive")
        u = np.array(u, dtype=np.complex128)
        nsub = self.substeps if substeps is None else int(substeps)
        dt = h / nsub
        decay = np.exp(-self.nu * self.grid.k2_reps * (dt / 2.0))
        decay2 = decay * decay
        for _ in range(nsub):
            g0 = self._nonlinear(u)
            ua = decay * (u + 0.5 * dt * g0)
            ga = self._nonlinear(ua)
            ub = decay * u + 0.5 * dt * ga
            gb = self._nonlinear(ub)
            uc = decay2 * u + dt * decay * gb
            gc = self._nonlinear(uc)
            u = decay2 * u + (dt / 6.0) * (decay2 * g0 + 2.0 * decay * (ga + gb) + gc)
        return u

    def step(self, u, h, substeps=None):
        """One assimilation interval via integrating-factor RK4."""
        return self.step_batch(np.asarray(u)[None], h, substeps)[0]

    def step_batch(self, states, h, substeps=None):
        """Advance a batch of states (n, dim). Rows are independent and are
        integrated in blocks of rows; BlowUpError names every non-finite row."""
        states = np.asarray(states, dtype=np.complex128)
        rows = max(1, BLOCK_POINTS // self.grid.fft_shape[0] ** 2)
        blocks = [self._advance(states[i : i + rows], h, substeps)
                  for i in range(0, len(states), rows)]
        return check_finite(self.name, h, np.concatenate(blocks))

    def __repr__(self):
        return f"SpectralNSModel(k_max={self.grid.k_max}, nu={self.nu})"


def _forcing_from_dict(grid, spec):
    """Scalar forcing dict {(n1, n2): coeff} -> representative array.

    Keys may address either lattice half; the conjugate partner is implied.
    """
    out = np.zeros(grid.n_reps, dtype=np.complex128)
    for n, val in spec.items():
        if tuple(n) == (0, 0):
            raise ValueError("forcing must have zero mean: mode (0, 0) not allowed")
        idx = grid.index_of(n)
        if idx < grid.n_reps:
            out[idx] = complex(val)
        else:
            out[idx - grid.n_reps] = -np.conj(complex(val))
    return out


def forcing_from_velocity(grid, spec):
    """Vector forcing dict {(n1, n2): (f1, f2)} -> representative scalars.

    Each coefficient must be orthogonal to its wavevector (divergence-free)
    and the zero mode is rejected.
    """
    scalars = {}
    for n, vec in spec.items():
        if tuple(n) == (0, 0):
            raise ValueError("forcing must have zero mean: mode (0, 0) not allowed")
        idx = grid.index_of(n)
        k = grid.kvecs[idx]
        vec = np.asarray(vec, dtype=np.complex128)
        div = k[0] * vec[0] + k[1] * vec[1]
        if abs(div) > 1e-12 * (1.0 + np.linalg.norm(vec)):
            raise ValueError(f"forcing mode {tuple(n)} is not divergence-free")
        kperp = np.array([-k[1], k[0]]) / np.sqrt(k @ k)
        scalars[tuple(n)] = complex(kperp[0] * vec[0] + kperp[1] * vec[1])
    return _forcing_from_dict(grid, scalars)


def navier_stokes_spectral(nu, forcing, k_max, period=TWO_PI, substeps=5) -> SpectralNSModel:
    """Build the truncated spectral model.

    ``forcing`` may be a representative-coefficient array, a scalar dict
    ``{(n1, n2): coeff}``, or a vector dict ``{(n1, n2): (f1, f2)}`` (the
    latter is validated to be divergence-free).
    """
    grid = SpectralGrid(k_max, period)
    if isinstance(forcing, dict):
        first = next(iter(forcing.values()), 0.0)
        if np.ndim(first) > 0:
            reps = forcing_from_velocity(grid, forcing)
        else:
            reps = _forcing_from_dict(grid, forcing)
    else:
        reps = np.asarray(forcing, dtype=np.complex128)
    return SpectralNSModel(nu, reps, grid, substeps=substeps)
