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
from .filters import VNorm
from .observation import spectral_smooth_init

add, multiply = np.add, np.multiply

TWO_PI = 2.0 * np.pi
#: grid points per block of rows that step_batch integrates at once; the
#: advection workspace of a block takes about 150 bytes a point, 20 MB
BLOCK_POINTS = 2**17
#: bytes the grid tables and the stepping workspace of a truncation may
#: take; a k_max whose ``model_bytes`` exceed it is refused before anything
#: is built
MEMORY_BUDGET = 2**30


def fft_size(k_max):
    """The advection grid's side M: the smallest 5-smooth M >= 3 k_max + 1
    (M is 5-smooth iff it divides a power of 30)."""
    m = 3 * k_max + 1
    while pow(30, m, m):
        m += 1
    return m


def model_bytes(k_max):
    """Memory of a k_max truncation, as measured with tracemalloc: 300
    bytes for each of the 2 k_max (k_max + 1) representative modes (the
    tables' build peaks at 255-275 from k_max 8 on), and 170 for each point
    of the stepping workspace (151-157 at one row of M^2 points, M =
    ``fft_size(k_max)``). step_batch keeps the workspace of one block, of
    at most BLOCK_POINTS points or one row; below 2 BLOCK_POINTS the
    estimate also covers the batch itself, whose rows outnumber a block's
    at small k_max (traced peaks of 20-27 MiB from k_max 1 to 64)."""
    return 600 * k_max * (k_max + 1) + 170 * max(2 * BLOCK_POINTS, fft_size(k_max) ** 2)


def _stage_buffers(rows, dim):
    """The state and two stage buffers of ``SpectralNSModel._advance``."""
    return _kernels._empties(np.dtype(np.complex128), *[(rows, dim)] * 3)


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

        kv = self.scale * self.full.astype(float)
        self.kvecs = kv
        self.k2_full = np.einsum("ij,ij->i", kv, kv)
        self.k2_reps = self.k2_full[: self.n_reps]

        # FFT plan of _kernels.bilinear_conv on the M x M grid
        m = fft_size(self.k_max)
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
        """Position of wavevector n in ``full``: n1 (2 k_max + 1) + n2 - 1 for
        a representative, that of -n plus ``n_reps`` for its mirror;
        KeyError outside the lattice."""
        key = tuple(int(v) for v in n)
        n1, n2 = key
        offset = 0
        if n1 < 0 or (n1 == 0 and n2 < 0):
            n1, n2, offset = -n1, -n2, self.n_reps
        k = self.k_max
        if n1 > k or abs(n2) > k or n1 == n2 == 0:
            raise KeyError(key)
        return offset + n1 * (2 * k + 1) + n2 - 1

    def velocity_coeffs(self, reps_coeffs):
        """Full-lattice vector coefficients v_k = v'_k k_perp/|k|, shape (n_full, 2)."""
        full = self.expand(reps_coeffs)
        kperp = np.stack([-self.kvecs[:, 1], self.kvecs[:, 0]], axis=1)
        unit = kperp / np.sqrt(self.k2_full)[:, None]
        return full[:, None] * unit


class SpectralNSModel:
    """Viscous incompressible flow truncated to ``0 < |n|_inf <= k_max``;
    its complex states are measured and truncated in the Sobolev norm."""

    dtype = np.dtype(complex)

    def __init__(self, nu, forcing_reps, grid: SpectralGrid, substeps=5,
                 init_amplitude=1.0, init_decay=2.0):
        self.name = f"navier-stokes-k{grid.k_max}"
        self.grid = grid
        self.nu = float(nu)
        self.forcing = np.asarray(forcing_reps, dtype=np.complex128)
        if self.forcing.shape != (grid.n_reps,):
            raise ValueError("forcing must be a representative coefficient array")
        self.dim = grid.n_reps
        self.substeps = int(substeps)
        self.init_amplitude, self.init_decay = float(init_amplitude), float(init_decay)
        self.error_norm = VNorm.h1(grid)
        # slowest dissipation rate in the truncated space
        self.theta = self.nu * grid.scale**2
        fnorm = np.sqrt(self.error_norm.row_values(self.forcing))
        # 0, inf or nan past float range: config.build_model refuses those
        with np.errstate(all="ignore"):
            self.r0 = (fnorm / self.theta) ** 2

    def init_sampler(self):
        return spectral_smooth_init(self.grid, self.init_amplitude, self.init_decay)

    def truncation_vnorm(self, projection) -> VNorm:
        """The error norm: its ball is bounded in every mode, observed or not."""
        return self.error_norm

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
        g = self._conv(u, u)
        return np.subtract(self.forcing, g, out=g)

    def _advance(self, u, nsub, dt):
        """Integrating-factor RK4 of the block ``u`` through nsub substeps
        of dt, in the workspace state ``v`` and stage buffers ``s`` and
        ``t`` of the block's shape; returns ``v``. It keeps the operations
        and order of
        ua = decay (u + dt/2 g0), ub = decay u + dt/2 ga,
        uc = decay^2 u + dt decay gb and
        u = decay^2 u + dt/6 (decay^2 g0 + 2 decay (ga + gb) + gc)."""
        n, dim = u.shape
        v, s, t = (buf[:n] for buf in _kernels._row_workspace(
            ("ns", dim), n, _stage_buffers, dim))
        v[...] = u
        decay = np.exp(-self.nu * self.grid.k2_reps * (dt / 2.0))
        decay2 = decay * decay
        dt_decay, two_decay, half_dt = dt * decay, 2.0 * decay, 0.5 * dt
        for _ in range(nsub):
            g0 = self._nonlinear(v)
            multiply(half_dt, g0, s)
            add(v, s, s)
            multiply(decay, s, s)
            ga = self._nonlinear(s)
            multiply(decay, v, s)
            multiply(half_dt, ga, t)
            add(s, t, s)
            gb = self._nonlinear(s)
            multiply(decay2, v, s)
            multiply(dt_decay, gb, t)
            add(s, t, s)
            gc = self._nonlinear(s)
            add(ga, gb, ga)
            multiply(two_decay, ga, ga)
            multiply(decay2, g0, g0)
            add(g0, ga, g0)
            add(g0, gc, g0)
            multiply(dt / 6.0, g0, g0)
            multiply(decay2, v, s)
            add(s, g0, v)
        return v

    def step(self, u, h, substeps=None):
        """One assimilation interval via integrating-factor RK4."""
        return self.step_batch(np.asarray(u)[None], h, substeps)[0]

    def step_batch(self, states, h, substeps=None):
        """Advance a batch of states (n, dim). Rows are independent and are
        integrated in blocks of rows; BlowUpError names every non-finite row."""
        if h <= 0:
            raise ValueError("assimilation interval h must be positive")
        states = np.asarray(states, dtype=np.complex128)
        nsub = self.substeps if substeps is None else int(substeps)
        rows = max(1, BLOCK_POINTS // self.grid.fft_shape[0] ** 2)
        out = np.empty_like(states)
        # a row that leaves float range is reported by check_finite alone
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(states), rows):
                out[i : i + rows] = self._advance(states[i : i + rows], nsub, h / nsub)
        return check_finite(self.name, h, out)

    def __repr__(self):
        return f"SpectralNSModel(k_max={self.grid.k_max}, nu={self.nu})"


def navier_stokes_spectral(nu, forcing, k_max, period=TWO_PI, substeps=5,
                           init_amplitude=1.0, init_decay=2.0) -> SpectralNSModel:
    """Build the truncated spectral model forced by the scalar dict
    ``forcing`` = ``{(n1, n2): coeff}``.

    Keys may address either lattice half; the conjugate partner is implied.
    """
    grid = SpectralGrid(k_max, period)
    reps = np.zeros(grid.n_reps, dtype=np.complex128)
    for n, val in forcing.items():
        if tuple(n) == (0, 0):
            raise ValueError("forcing must have zero mean: mode (0, 0) not allowed")
        idx = grid.index_of(n)
        if idx < grid.n_reps:
            reps[idx] = complex(val)
        else:
            reps[idx - grid.n_reps] = -np.conj(complex(val))
    return SpectralNSModel(nu, reps, grid, substeps, init_amplitude, init_decay)
