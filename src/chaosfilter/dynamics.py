"""Dissipative quadratic ODE models and their discrete solution maps.

The model family is ``dv/dt + A v + B(v,v) = f`` with a symmetric,
energy-conserving bilinear term ``B``. Concrete instances are the two
classic chaotic benchmarks (:func:`lorenz63`, :func:`lorenz96`) plus
arbitrary linear systems for testing (:func:`linear_dissipative`). The
discrete map advancing a state over one assimilation interval ``h`` is a
fixed-substep classical RK4, so every trajectory is reproducible bit for
bit.
"""

from typing import Callable, Optional

import numpy as np

from . import _kernels


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
    if u.ndim == 1:
        return u[None, :], True
    return u, False


class DissipativeModel:
    """Quadratic ODE ``dv/dt + A v + B(v,v) = f`` with an RK4 solution map.

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
    stepper : callable, optional
        Fast batched stepper ``(U, nsub, dt) -> U`` replacing the generic
        RK4 loop; must agree with it to rounding accuracy.
    """

    def __init__(self, name, linear_op, forcing, bilinear, substeps=10,
                 stepper: Optional[Callable] = None):
        self.name = name
        self.linear_op = np.asarray(linear_op, dtype=float)
        self.forcing = np.asarray(forcing, dtype=float)
        self.dim = self.forcing.shape[0]
        self.bilinear = bilinear
        self.substeps = int(substeps)
        self._stepper = stepper
        # dissipation budget d/dt|v|^2 + r1 |v|^2 <= r1 * r0
        self.r0 = float(self.forcing @ self.forcing)
        self.r1 = 1.0

    def vector_field(self, u):
        """Right-hand side ``f - A u - B(u, u)``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(
                f"state has shape {u.shape}, model {self.name!r} expects ({self.dim},)"
            )
        return self.forcing - self.linear_op @ u - self.bilinear(u, u)

    def _generic_step(self, batch, nsub, dt):
        out = batch.copy()
        for i in range(out.shape[0]):
            x = out[i]
            for _ in range(nsub):
                k1 = self.forcing - self.linear_op @ x - self.bilinear(x, x)
                x1 = x + 0.5 * dt * k1
                k2 = self.forcing - self.linear_op @ x1 - self.bilinear(x1, x1)
                x2 = x + 0.5 * dt * k2
                k3 = self.forcing - self.linear_op @ x2 - self.bilinear(x2, x2)
                x3 = x + dt * k3
                k4 = self.forcing - self.linear_op @ x3 - self.bilinear(x3, x3)
                x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i] = x
        return out

    def step_batch(self, states, h, substeps=None):
        """Advance a batch of states (n, d) by one assimilation interval.

        Rows are independent: a row that leaves float range raises
        BlowUpError carrying the whole stepped batch and the bad-row mask."""
        batch, _ = _as_batch(states)
        nsub = self.substeps if substeps is None else int(substeps)
        if h <= 0:
            raise ValueError("assimilation interval h must be positive")
        dt = h / nsub
        if self._stepper is not None:
            out = self._stepper(batch, nsub, dt)
        else:
            out = self._generic_step(batch, nsub, dt)
        return check_finite(self.name, h, out)

    def step(self, u, h, substeps=None):
        """Advance a single state by one assimilation interval of length h."""
        batch, _ = _as_batch(u)
        return self.step_batch(batch, h, substeps=substeps)[0]

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


def linear_dissipative(linear_op, forcing=None, substeps=10, name="linear") -> DissipativeModel:
    """Model with B = 0; useful as an exactly solvable integrator check."""
    A = np.asarray(linear_op, dtype=float)
    d = A.shape[0]
    f = np.zeros(d) if forcing is None else np.asarray(forcing, dtype=float)

    def bilinear(u, w):
        return np.zeros(d)

    return DissipativeModel(name, A, f, bilinear, substeps)


def absorbing_radius(model) -> float:
    """Radius of the ball every trajectory enters and never leaves.

    Equals sqrt(2) |f| for the finite-dimensional models; spectral models
    scale it by their slowest dissipation rate (see ``spectral``).
    """
    return float(np.sqrt(2.0 * model.r0))
