"""Dissipative quadratic ODE models and their discrete solution maps.

The model family is ``dv/dt + A v + B(v,v) = f`` with a symmetric,
energy-conserving bilinear term ``B``. The concrete instances are the two
classic chaotic benchmarks (:func:`lorenz63`, :func:`lorenz96`). The
discrete map advancing a state over one assimilation interval ``h`` is a
fixed-substep classical RK4, run by each model's batched kernel in
``_kernels``, so every trajectory is reproducible bit for bit.
"""

import numpy as np

from . import _kernels
from .filters import VNorm
from .observation import standard_normal_init


class BlowUpError(RuntimeError):
    """A trajectory left the range of float64: the run is aborted, never clipped.

    ``states`` holds the whole stepped batch and ``bad`` the boolean mask of
    its rows with a non-finite entry, so a caller stepping independent rows
    can drop those and carry on with the rest.
    """

    def __init__(self, message, states=None, bad=None):
        super().__init__(message)
        self.states = states
        self.bad = bad


def check_finite(name, h, out):
    """Return the stepped batch ``out``, or raise BlowUpError naming its
    non-finite rows."""
    if np.isfinite(out).all():
        return out
    bad = ~np.isfinite(out).all(axis=1)
    raise BlowUpError(f"model {name!r}: non-finite state after step of h={h}", out, bad)


def _as_batch(u):
    u = np.asarray(u, dtype=float)
    return u[None, :] if u.ndim == 1 else u


class RealStateModel:
    """What a model on real states of ``dim`` entries says about them: its
    errors are Euclidean, its default initial state is N(0, I), and its
    truncation ball is one of |u|^2 + |P u|^2 for the observation P."""

    dtype = np.dtype(float)

    @property
    def error_norm(self) -> VNorm:
        return VNorm(np.ones(self.dim))

    def init_sampler(self):
        return standard_normal_init(self.dim)

    def truncation_vnorm(self, projection) -> VNorm:
        return VNorm.euclidean_plus_observed(projection)


class DissipativeModel(RealStateModel):
    """Quadratic ODE ``dv/dt + A v + B(v,v) = f`` whose RK4 solution map is
    a batched kernel; ``A``, ``f`` and ``B`` describe the field it integrates.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    linear_op : (d, d) array
        The operator ``A``.
    forcing : (d,) array
        The constant forcing ``f``.
    bilinear : callable
        ``bilinear(u, w) -> (d,)`` evaluating the symmetric form ``B(u, w)``.
    substeps : int
        RK4 substeps per assimilation interval.
    stepper : callable
        Batched RK4 stepper ``(U, nsub, dt) -> U`` advancing each row of
        ``U`` by ``nsub`` substeps of length ``dt``.
    """

    def __init__(self, name, linear_op, forcing, bilinear, substeps, stepper):
        self.name = name
        self.linear_op = np.asarray(linear_op, dtype=float)
        self.forcing = np.asarray(forcing, dtype=float)
        self.dim = self.forcing.shape[0]
        self.bilinear = bilinear
        self.substeps = int(substeps)
        self._stepper = stepper
        # dissipation budget d/dt|v|^2 + |v|^2 <= r0
        self.r0 = float(self.forcing @ self.forcing)

    def vector_field(self, u):
        """Right-hand side ``f - A u - B(u, u)``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(
                f"state has shape {u.shape}, model {self.name!r} expects ({self.dim},)"
            )
        return self.forcing - self.linear_op @ u - self.bilinear(u, u)

    def step_batch(self, states, h, substeps=None):
        """Advance a batch of states (n, d) by one assimilation interval.

        Rows are independent: a row that leaves float range raises
        BlowUpError carrying the whole stepped batch and the bad-row mask."""
        batch = _as_batch(states)
        nsub = self.substeps if substeps is None else int(substeps)
        if h <= 0:
            raise ValueError("assimilation interval h must be positive")
        return check_finite(self.name, h, self._stepper(batch, nsub, h / nsub))

    def step(self, u, h, substeps=None):
        """Advance a single state by one assimilation interval of length h."""
        return self.step_batch(_as_batch(u), h, substeps=substeps)[0]

    def __repr__(self):
        return f"DissipativeModel({self.name!r}, dim={self.dim})"


def lorenz63(substeps=10) -> DissipativeModel:
    """Three-dimensional convection model, shifted so the forcing is constant.

    Parameters are the standard (a, b, r) = (10, 8/3, 28); the forcing sits
    entirely in the third component, f = (0, 0, -b (r + a)).
    """
    a, b, r = 10.0, 8.0 / 3.0, 28.0
    A = np.array([[a, -a, 0.0], [a, 1.0, 0.0], [0.0, 0.0, b]])
    f3 = -b * (r + a)
    f = np.array([0.0, 0.0, f3])

    def bilinear(u, w):
        return np.array(
            [
                0.0,
                (u[0] * w[2] + u[2] * w[0]) / 2.0,
                -(u[0] * w[1] + u[1] * w[0]) / 2.0,
            ]
        )

    def stepper(batch, nsub, dt):
        return _kernels.lorenz63_rk4(batch, nsub, dt, a, b, f3)

    return DissipativeModel("lorenz63", A, f, bilinear, substeps, stepper)


def lorenz96(d, substeps=10) -> DissipativeModel:
    """Cyclic advection model on d sites, A = I and constant forcing 8.

    The dimension must be a multiple of 3 (so the every-third observation
    pattern tiles) and at least 6 (so the cyclic index offsets are distinct).
    """
    d = int(d)
    if d < 6 or d % 3 != 0:
        raise ValueError(f"lorenz96 dimension must be in 3N and >= 6, got {d}")
    forcing = 8.0
    f = np.full(d, forcing)

    def bilinear(u, w):
        up1, um1, um2 = np.roll(u, -1), np.roll(u, 1), np.roll(u, 2)
        wp1, wm1, wm2 = np.roll(w, -1), np.roll(w, 1), np.roll(w, 2)
        return -0.5 * (wm1 * up1 + um1 * wp1 - wm2 * um1 - um2 * wm1)

    def stepper(batch, nsub, dt):
        return _kernels.lorenz96_rk4(batch, nsub, dt, forcing)

    return DissipativeModel(f"lorenz96-{d}", np.eye(d), f, bilinear, substeps, stepper)


def absorbing_radius(model) -> float:
    """Radius of the ball every trajectory enters and never leaves.

    Equals sqrt(2) |f| for the finite-dimensional models; spectral models
    scale it by their slowest dissipation rate (see ``spectral``).
    """
    return float(np.sqrt(2.0 * model.r0))
