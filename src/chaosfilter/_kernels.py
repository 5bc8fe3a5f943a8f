"""Hot numeric kernels: batched RK4 steppers and the spectral convolution.

One vectorized numpy build per kernel. States are batched row-wise: shape
``(n_batch, dim)`` float64 (complex128 for spectral coefficients), and the
per-row arithmetic does not depend on the batch size.
"""

import numpy as np

__all__ = ["lorenz63_rk4", "lorenz96_rk4", "bilinear_conv"]


def lorenz63_rk4(u, nsub, dt, a, b, f3):
    """Advance (n,3) states through nsub RK4 substeps of size dt."""

    def field(s):
        x, y, z = s[:, 0], s[:, 1], s[:, 2]
        return np.stack(
            (a * (y - x), -a * x - y - x * z, f3 - b * z + x * y), axis=1
        )

    u = u.copy()
    for _ in range(nsub):
        k1 = field(u)
        k2 = field(u + 0.5 * dt * k1)
        k3 = field(u + 0.5 * dt * k2)
        k4 = field(u + dt * k3)
        u += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def lorenz96_rk4(u, nsub, dt, forcing):
    """Advance (n,d) cyclic-advection states through nsub RK4 substeps."""

    def field(s):
        return (np.roll(s, -1, 1) - np.roll(s, 2, 1)) * np.roll(s, 1, 1) - s + forcing

    u = u.copy()
    for _ in range(nsub):
        k1 = field(u)
        k2 = field(u + 0.5 * dt * k1)
        k3 = field(u + 0.5 * dt * k2)
        k4 = field(u + dt * k3)
        u += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def bilinear_conv(u, v, row_idx, pcols, qcols, weights, n_out):
    """Sparse convolution out[k] = sum over entries t with row_idx[t] = k of
    weights[t] * u[pcols[t]] * v[qcols[t]].

    Entry tables enumerate the admissible wavevector pairs (p, q = k - p)
    inside the truncated lattice; see ``spectral.SpectralGrid``.
    """
    prod = weights * u[pcols] * v[qcols]
    out = np.bincount(row_idx, weights=prod.real, minlength=n_out).astype(complex)
    out += 1j * np.bincount(row_idx, weights=prod.imag, minlength=n_out)
    return out
