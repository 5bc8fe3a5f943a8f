"""Hot numeric kernels: batched RK4 steppers and the spectral advection term.

One vectorized numpy build per kernel. States are batched row-wise: shape
``(n_batch, dim)`` float64 (complex128 for spectral coefficients), and the
per-row arithmetic does not depend on the batch size. Behind that contract
the Lorenz-63 kernel works in a ``(3, n_batch)`` layout, and both RK4
kernels keep their stages in buffers allocated once per call, so their
substeps allocate nothing.
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
    d-1, and column d+2 a copy of site 0. The stages and the sum live in
    buffers allocated once per call, and every constant is a 0-d array:
    at one row a Python-float operand costs a ufunc call more than its
    arithmetic.
    """
    n, d = u.shape
    pad = np.empty((n, d + 3), dtype=u.dtype)
    s, p1, m2, m1 = pad[:, 2:-1], pad[:, 3:], pad[:, :-3], pad[:, 1:-2]
    ghosts = ((pad[:, :2], pad[:, d:d + 2]), (pad[:, d + 2], pad[:, 2]))
    k = np.empty((4, n, d), dtype=u.dtype)
    k1, k2, k3, k4 = k
    k23, twice = k[1:3], np.empty((2, n, d), dtype=u.dtype)
    t = np.empty_like(k1)
    forcing, half, full, sixth, two = (
        np.array(c, dtype=u.dtype) for c in (forcing, 0.5 * dt, dt, dt / 6.0, 2.0)
    )
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def field(out):
        # (p1 - m2) * m1 - s + forcing of the stage state in s; a slice
        # assignment copies a short row faster than np.copyto
        for ghost, site in ghosts:
            ghost[...] = site
        subtract(p1, m2, out)
        multiply(out, m1, out)
        subtract(out, s, out)
        add(out, forcing, out)

    def stage(prev, c, out):
        # the field at u + c * prev
        multiply(prev, c, t)
        add(u, t, s)
        field(out)

    u = u.copy()
    for _ in range(nsub):
        s[...] = u
        field(k1)
        stage(k1, half, k2)
        stage(k2, half, k3)
        stage(k3, full, k4)
        # (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), added to the state
        multiply(k23, two, twice)
        add(k1, twice[0], t)
        add(t, twice[1], t)
        add(t, k4, t)
        multiply(t, sixth, t)
        add(u, t, u)
    return u


def bilinear_conv(u, w, shape, put, mirror, mult, fold):
    """Dealiased advection term i/|k| F[psi_x omega_y - psi_y omega_x] of
    (n, n_reps) batches of representative coefficients, symmetrized over
    ``u`` and ``w`` (one Jacobian when ``w is u``).

    ``mult`` holds the real multipliers k_x/|k|, k_y/|k|, k_x|k|, k_y|k|
    that turn v' into psi_x, psi_y, omega_x, omega_y; ``fold`` is i/|k|.
    ``put`` gives the flat positions in the ``shape`` = (M, M//2+1) half
    spectrum of each representative, then of the conjugate partners of the
    representatives ``mirror``. Each row is transformed on its own, so its
    result does not depend on the batch.
    """
    n, r = u.shape
    fields = (u,) if w is u else (u, w)
    spec = np.zeros((len(fields), 4, n) + shape, dtype=np.complex128)
    for s, x in zip(spec, fields):
        c = mult[:, None, :] * x
        s.reshape(4, n, -1)[..., put] = np.concatenate([c, np.conj(c[..., mirror])], -1)
    grids = np.fft.irfft2(spec, s=(shape[0],) * 2, norm="forward")
    (px, py, ox, oy), (qx, qy, rx, ry) = grids[0], grids[-1]
    jac = px * ry
    jac -= py * rx
    if w is not u:
        # J(psi_u, omega_w) + J(psi_w, omega_u): the same sum in either order
        swap = qx * oy
        swap -= qy * ox
        jac += swap
        jac *= 0.5
    return np.fft.rfft2(jac, norm="forward").reshape(n, -1)[:, put[:r]] * fold
