"""Hot numeric kernels: batched RK4 steppers and the spectral advection term.

One vectorized numpy build per kernel. States are batched row-wise: shape
``(n_batch, dim)`` float64 (complex128 for spectral coefficients), and the
per-row arithmetic does not depend on the batch size.

Both Lorenz kernels run through one RK4 driver, ``_rk4``, which owns the
stages, the combination (dt/6) (((k1 + 2 k2) + 2 k3) + k4) and the update
of the state. Each kernel supplies only its layout, its buffers and its
field. Behind the ``(n_batch, dim)`` contract both step a ``(dim,
n_batch)`` copy, so each component is one contiguous row of the batch:
the Lorenz-63 field works on the rows x, y, z, and the Lorenz-96 field
reads the cyclic neighbours as row slices of a ghost-padded buffer.

The buffers of a call come from ``_workspace``: one set per kernel,
batch shape and dtype, kept for the next call of the same shape, so a
call allocates no batch-sized array but its result. Each buffer starts
on a 64-byte boundary: malloc returns any multiple of 16, and at the
other three offsets the Lorenz-63 kernel at 5000 rows took 1.2 to 1.9
times as long per call (2-CPU Xeon). At most ``WORKSPACE_LIMIT`` sets
are kept, the least recently used going first. The sets belong to the
process, so the kernels must not run in two threads at once.
"""

import math

import numpy as np

__all__ = ["lorenz63_rk4", "lorenz96_rk4", "bilinear_conv"]

add, subtract, multiply = np.add, np.subtract, np.multiply

ALIGN = 64  # bytes: a cache line, and the widest vector load
WORKSPACE_LIMIT = 4
_workspaces = {}  # (kernel, dtype, shapes) -> buffers, least recently used first


def _aligned_empty(shape, dtype):
    """An empty array whose data starts on an ALIGN-byte boundary of an
    over-allocated block."""
    size = math.prod(shape) * dtype.itemsize
    block = np.empty(size + ALIGN, np.uint8)
    start = -block.ctypes.data % ALIGN
    return block[start:start + size].view(dtype).reshape(shape)


def _workspace(kernel, dtype, *shapes):
    """Aligned empty buffers of ``shapes`` and ``dtype`` for ``kernel``.

    A call with the same arguments gets the same buffers back, so their
    contents are whatever the last call left; a kernel writes each buffer
    before it reads it."""
    key = (kernel, dtype, shapes)
    bufs = _workspaces.pop(key, None)
    if bufs is None:
        if len(_workspaces) >= WORKSPACE_LIMIT:
            del _workspaces[next(iter(_workspaces))]
        bufs = tuple(_aligned_empty(shape, dtype) for shape in shapes)
    _workspaces[key] = bufs
    return bufs


def _rk4(u, nsub, dt, s, k, field):
    """Advance the state ``u`` in place through nsub RK4 substeps; return it.

    ``field(i)`` writes the field of stage i into ``k[i]`` of the
    (4, *u.shape) stage buffer ``k``: stage 0 is the field at ``u``, and
    stage i > 0 the field at the stage state ``s`` = u + c k[i-1], with
    c = dt/2, dt/2, dt. Every constant is a 0-d array: at a few rows a
    Python-float operand costs more than its arithmetic.
    """
    half, full, sixth, two = (np.array(c, u.dtype) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    k1, k2, k3, k4 = k
    k23, stages = k[1:3], ((1, k1, half), (2, k2, half), (3, k3, full))
    for _ in range(nsub):
        field(0)
        for i, prev, c in stages:
            multiply(prev, c, s)
            add(s, u, s)
            field(i)
        # (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed in s and added to u
        multiply(k23, two, k23)
        add(k1, k2, s)
        add(s, k3, s)
        add(s, k4, s)
        multiply(s, sixth, s)
        add(u, s, u)
    return u


def lorenz63_rk4(u, nsub, dt, a, b, f3):
    """Advance (n,3) states through nsub RK4 substeps of size dt.

    Returns a new C-contiguous (n, 3) array and leaves ``u`` untouched. The
    field a (y - x), -a x - y - x z, f3 - b z + x y is evaluated on the
    rows x, y, z of (3, n) buffers, with the operations and order of the
    (n, 3) form; stage 0 reads the state itself.
    """
    n = u.shape[0]
    v, s, k, t = _workspace("l63", u.dtype, (3, n), (3, n), (4, 3, n), (n,))
    v[...] = u.T
    a, neg_a, b, f3 = (np.array(c, v.dtype) for c in (a, -a, b, f3))
    # row views of the state, the stage state and each stage, taken once
    rows, rows_k = (tuple(v), tuple(s)), [tuple(ki) for ki in k]

    def field(i):
        (x, y, z), (fx, fy, fz) = rows[i > 0], rows_k[i]
        subtract(y, x, fx)
        multiply(fx, a, fx)
        multiply(x, neg_a, fy)
        subtract(fy, y, fy)
        multiply(x, z, t)
        subtract(fy, t, fy)
        multiply(z, b, fz)
        subtract(f3, fz, fz)
        multiply(x, y, t)
        add(fz, t, fz)

    return _rk4(v, nsub, dt, s, k, field).T.copy()


def lorenz96_rk4(u, nsub, dt, forcing):
    """Advance (n,d) cyclic-advection states through nsub RK4 substeps.

    Returns a new C-contiguous (n, d) array and leaves ``u`` untouched.
    The field (s[i+1] - s[i-2]) s[i-1] - s[i] + forcing reads the cyclic
    neighbours as row slices of one ghost-padded (d+3, n) buffer: rows
    2..d+1 hold the stage state, rows 0 and 1 copies of sites d-2 and d-1,
    and row d+2 a copy of site 0.
    """
    n, d = u.shape
    v, pad, k = _workspace("l96", u.dtype, (d, n), (d + 3, n), (4, d, n))
    v[...] = u.T
    s, p1, m2, m1 = pad[2:-1], pad[3:], pad[:-3], pad[1:-2]
    ghosts = ((pad[:2], pad[d:d + 2]), (pad[d + 2], pad[2]))
    ks, forcing = tuple(k), np.array(forcing, v.dtype)

    def field(i):
        # a slice assignment copies a short row faster than np.copyto
        if not i:
            s[...] = v
        for ghost, site in ghosts:
            ghost[...] = site
        out = ks[i]
        subtract(p1, m2, out)
        multiply(out, m1, out)
        subtract(out, s, out)
        add(out, forcing, out)

    return _rk4(v, nsub, dt, s, k, field).T.copy()


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
