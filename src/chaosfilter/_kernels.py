"""Hot numeric kernels: batched RK4 steppers and the spectral convolution.

One vectorized numpy build per kernel. States are batched row-wise: shape
``(n_batch, dim)`` float64 (complex128 for spectral coefficients), and the
per-row arithmetic does not depend on the batch size. Behind that contract
the Lorenz-63 kernel works in a ``(3, n_batch)`` layout with preallocated
stage buffers, so its substeps allocate nothing.
"""

import numpy as np

__all__ = ["lorenz63_rk4", "lorenz96_rk4", "bilinear_conv"]


def lorenz63_rk4(u, nsub, dt, a, b, f3):
    """Advance (n,3) states through nsub RK4 substeps of size dt.

    Works on a (3, n) copy of ``u`` with the stages k1..k4 in one (4, 3, n)
    buffer, so every operation writes into preallocated memory; the
    floating-point operations and their order are those of the (n, 3) field
    a (y - x), -a x - y - x z, f3 - b z + x y.
    """
    v = np.array(u.T, order="C")
    k = np.empty((4,) + v.shape)
    s = np.empty_like(v)
    t = np.empty_like(v[0])
    k1, k2, k3, k4 = k
    half, sixth, neg_a = 0.5 * dt, dt / 6.0, -a
    # row views of each buffer, taken once per call
    rows_v, rows_s, rows_k = tuple(v), tuple(s), [tuple(ki) for ki in k]

    def field(state, out):
        (x, y, z), (fx, fy, fz) = state, out
        np.subtract(y, x, out=fx)
        fx *= a
        np.multiply(x, neg_a, out=fy)
        fy -= y
        np.multiply(x, z, out=t)
        fy -= t
        np.multiply(z, b, out=fz)
        np.subtract(f3, fz, out=fz)
        np.multiply(x, y, out=t)
        fz += t

    def stage(prev, c, out):
        np.multiply(prev, c, out=s)
        np.add(s, v, out=s)
        field(rows_s, out)

    for _ in range(nsub):
        field(rows_v, rows_k[0])
        stage(k1, half, rows_k[1])
        stage(k2, half, rows_k[2])
        stage(k3, dt, rows_k[3])
        # (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), added to the state
        np.multiply(k2, 2.0, out=s)
        s += k1
        k3 *= 2.0
        s += k3
        s += k4
        s *= sixth
        v += s
    return np.ascontiguousarray(v.T)


def lorenz96_rk4(u, nsub, dt, forcing):
    """Advance (n,d) cyclic-advection states through nsub RK4 substeps.

    The field (s[i+1] - s[i-2]) s[i-1] - s[i] + forcing reads the cyclic
    neighbours as slices of one ghost-padded (n, d+3) buffer: columns
    2..d+1 hold the stage state, columns 0 and 1 copies of sites d-2 and
    d-1, and column d+2 a copy of site 0.
    """
    pad = np.empty((u.shape[0], u.shape[1] + 3), dtype=u.dtype)
    s, p1, m2, m1 = pad[:, 2:-1], pad[:, 3:], pad[:, :-3], pad[:, 1:-2]

    def field(state):
        s[...] = state
        pad[:, :2] = state[:, -2:]
        pad[:, -1] = state[:, 0]
        return (p1 - m2) * m1 - s + forcing

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
