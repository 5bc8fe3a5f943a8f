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
call allocates no batch-sized array but its result. The advection term
keeps its spectra, grids and scatter positions in one set per state
shape, and the spectral model's RK4 its states in another; each serves
every batch up to the largest yet (``_row_workspace``), so a run that
steps a full block of rows and a remainder keeps two sets. Each buffer
starts on a 64-byte boundary: malloc returns any multiple of 16, and at the
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
_workspaces = {}  # (kernel, shape, ...) -> buffers, least recently used first


def _aligned_empty(shape, dtype):
    """An empty array whose data starts on an ALIGN-byte boundary of an
    over-allocated block."""
    size = math.prod(shape) * dtype.itemsize
    block = np.empty(size + ALIGN, np.uint8)
    start = -block.ctypes.data % ALIGN
    return block[start:start + size].view(dtype).reshape(shape)


def _workspace(key, build, *args):
    """The buffers ``build(*args)`` made for ``key``.

    A call with the same key gets the same buffers back, so their contents
    are whatever the last call left; a kernel writes each buffer before it
    reads it, but for what ``build`` set up to be kept, such as the zeros
    of the advection spectrum and its scatter positions."""
    bufs = _workspaces.pop(key, None)
    if bufs is None:
        if len(_workspaces) >= WORKSPACE_LIMIT:
            del _workspaces[next(iter(_workspaces))]
        bufs = build(*args)
    _workspaces[key] = bufs
    return bufs


def _row_workspace(key, rows, build, *args):
    """``_workspace`` of buffers whose first axis is a batch's rows, built
    by ``build(rows, *args)``: a set built for more rows serves a batch of
    fewer through the leading rows of each buffer, which the caller takes.
    A batch of more rows replaces the set."""
    bufs = _workspace(key, build, rows, *args)
    if len(bufs[0]) < rows:
        del _workspaces[key]
        bufs = _workspace(key, build, rows, *args)
    return bufs


def _empties(dtype, *shapes):
    """Aligned empty buffers of ``shapes`` and ``dtype``."""
    return tuple(_aligned_empty(shape, dtype) for shape in shapes)


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
    v, s, k, t = _workspace(("l63", u.dtype, n), _empties,
                            u.dtype, (3, n), (3, n), (4, 3, n), (n,))
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
    v, pad, k = _workspace(("l96", u.dtype, n, d), _empties,
                           u.dtype, (d, n), (d + 3, n), (4, d, n))
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


def _conv_buffers(n, shape, put, mirror):
    """Workspace of ``bilinear_conv`` on up to n rows, each buffer indexed
    rows first so that the leading rows serve a smaller batch: the
    (n, 4, M, M//2+1) spectrum, zero but at its ``put`` positions, and its
    pass along axis -2; the (n, 4, M, M) grids and the (n, M, M) Jacobian;
    the values to scatter, (n, 4, len(put)), with the flat positions in the
    spectrum they go to; and the mirrored values, with the flat positions
    in the values they are gathered from. The pass and the grids are laid
    out plane by plane, so each plane of the leading rows is contiguous."""
    m, half = shape
    c128, n_put, n_mirror = np.dtype(np.complex128), put.size, mirror.size
    spec, vals, mirrored = _empties(c128, (n, 4, m, half), (n, 4, n_put), (n, 4, n_mirror))
    spec[...] = 0
    (spec_y,) = _empties(c128, (4, n, m, half))
    grids, jac = _empties(np.dtype(np.float64), (4, n, m, m), (n, m, m))
    scatter, gather = _empties(np.dtype(np.intp), (n, 4, n_put), (n, 4, n_mirror))
    scatter[...] = (np.arange(4 * n) * (m * half)).reshape(n, 4, 1) + put
    gather[...] = (np.arange(4 * n) * n_put).reshape(n, 4, 1) + mirror
    return (spec, spec_y.transpose(1, 0, 2, 3), grids.transpose(1, 0, 2, 3), jac,
            vals, mirrored, scatter, gather)


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

    Every buffer but the result comes from one workspace per (n_reps,
    shape), for any batch up to the largest yet and for ``w is u`` and
    ``w`` apart alike: a Jacobian J(psi_a, omega_b) takes one pass through
    the four planes, so the symmetrized term takes two. The 2-D transforms
    run as the 1-D passes of ``irfft2`` and ``rfft2``, in their order, so
    the bits are theirs.
    """
    n, r = u.shape
    m = shape[0]
    spec, spec_y, grids, jac, vals, mirrored, scatter, gather = (
        buf[:n] for buf in _row_workspace(("conv", r, shape), n, _conv_buffers,
                                          shape, put, mirror))
    flat, c = spec.reshape(-1), vals[..., :r]
    psi_x, psi_y, omega_x, omega_y = grids.transpose(1, 0, 2, 3)

    def jacobian(a, b, out):
        """psi_x(a) omega_y(b) - psi_y(a) omega_x(b) on the grid, into out."""
        multiply(mult[:2], a[:, None, :], c[:, :2])
        multiply(mult[2:], b[:, None, :], c[:, 2:])
        # in the default mode "raise", take fills a buffered copy of out
        np.take(vals, gather, out=mirrored, mode="clip")
        np.conjugate(mirrored, out=vals[..., r:])
        flat[scatter] = vals
        np.fft.ifft(spec, axis=-2, norm="forward", out=spec_y)
        np.fft.irfft(spec_y, m, axis=-1, norm="forward", out=grids)
        multiply(psi_x, omega_y, out)
        multiply(psi_y, omega_x, psi_y)
        subtract(out, psi_y, out)

    jacobian(u, w, jac)
    if w is not u:
        # J(psi_u, omega_w) + J(psi_w, omega_u): the same sum in either order
        jacobian(w, u, psi_x)
        add(jac, psi_x, jac)
        multiply(jac, 0.5, jac)
    half_x, full = spec_y[:, 0], spec_y[:, 1]
    np.fft.rfft(jac, axis=-1, norm="forward", out=half_x)
    np.fft.fft(half_x, axis=-2, norm="forward", out=full)
    out = np.take(full.reshape(n, -1), put[:r], axis=1)
    return multiply(out, fold, out)
