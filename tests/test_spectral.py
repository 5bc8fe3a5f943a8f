import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosfilter import _kernels, dynamics, spectral
from chaosfilter.spectral import SpectralGrid, navier_stokes_spectral


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(4)


@pytest.fixture(scope="module")
def model(grid):
    return navier_stokes_spectral(0.1, {(1, 0): 1.0}, 4)


def random_state(grid, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return scale * (
        rng.standard_normal(grid.n_reps) + 1j * rng.standard_normal(grid.n_reps)
    )


def oracle_bilinear(grid, u_reps, w_reps):
    """Brute-force advection term via vector coefficients and explicit
    incompressible projection; independent of the convolution tables."""
    Uc = grid.velocity_coeffs(u_reps)
    Wc = grid.velocity_coeffs(w_reps)
    lookup = {tuple(n): i for i, n in enumerate(grid.full)}
    out = np.zeros((grid.n_full, 2), dtype=complex)
    for ki, nk in enumerate(grid.full):
        acc = np.zeros(2, dtype=complex)
        for pi, npv in enumerate(grid.full):
            nq = (nk[0] - npv[0], nk[1] - npv[1])
            if nq == (0, 0) or nq not in lookup:
                continue
            qi = lookup[nq]
            q = grid.kvecs[qi]
            acc += 0.5 * (Uc[pi] @ (1j * q)) * Wc[qi]
            acc += 0.5 * (Wc[pi] @ (1j * q)) * Uc[qi]
        k = grid.kvecs[ki]
        acc -= k * (k @ acc) / (k @ k)
        out[ki] = acc
    kperp = np.stack([-grid.kvecs[:, 1], grid.kvecs[:, 0]], axis=1)
    unit = kperp / np.sqrt(np.einsum("ij,ij->i", grid.kvecs, grid.kvecs))[:, None]
    return np.einsum("ij,ij->i", out, unit.astype(complex))


@functools.lru_cache(maxsize=None)
def conv_tables(k_max):
    """Entries (k, p, q, weight) of out[k] = sum_{p+q=k} weight u'_p w'_q over
    the truncated lattice, k a representative: the O(k_max^4) tables the
    model stepped with before its FFT advection, kept as an oracle."""
    grid = SpectralGrid(k_max)
    rows, pcols, qcols, weights = [], [], [], []
    for ki in range(grid.n_reps):
        nk = grid.full[ki]
        nrm_k = np.sqrt(grid.k2_full[ki])
        for pi in range(grid.n_full):
            nq = nk - grid.full[pi]
            if nq[0] == 0 and nq[1] == 0:
                continue
            if abs(nq[0]) > k_max or abs(nq[1]) > k_max:
                continue
            qi = grid.index_of(nq)
            p, q = grid.kvecs[pi], grid.kvecs[qi]
            cross = p[0] * q[1] - p[1] * q[0]
            if cross == 0.0:
                continue
            w = (
                0.5j
                * cross
                * (grid.k2_full[qi] - grid.k2_full[pi])
                / (np.sqrt(grid.k2_full[pi]) * np.sqrt(grid.k2_full[qi]) * nrm_k)
            )
            rows.append(ki)
            pcols.append(pi)
            qcols.append(qi)
            weights.append(w)
    return grid, np.array(rows), np.array(pcols), np.array(qcols), np.array(weights)


def table_conv(k_max, u_reps, w_reps):
    """The tables' convolution of one pair of states, and beside it the sum
    of the magnitudes of its terms at each k (the scale its rounding and
    the FFT's are measured against, since the terms may cancel)."""
    grid, rows, p, q, weights = conv_tables(k_max)
    terms = weights * grid.expand(u_reps)[p] * grid.expand(w_reps)[q]
    n = grid.n_reps
    out = np.bincount(rows, terms.real, n) + 1j * np.bincount(rows, terms.imag, n)
    return out, np.bincount(rows, np.abs(terms), n)


@functools.lru_cache(maxsize=None)
def ns_model(k_max):
    return navier_stokes_spectral(0.5, {(1, 0): 1.0 - 0.5j}, k_max)


@settings(max_examples=60, deadline=None)
@given(
    k_max=st.integers(1, 8),
    n=st.integers(1, 8),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_advection_matches_convolution_tables(k_max, n, log_scale, seed):
    model = ns_model(k_max)
    rng = np.random.default_rng(seed)
    U, W = 10.0**log_scale * (
        rng.standard_normal((2, n, model.dim)) + 1j * rng.standard_normal((2, n, model.dim))
    )
    stepping = model._nonlinear(U)
    for u, w, g in zip(U, W, stepping):
        buw, size_uw = table_conv(k_max, u, w)
        bwu, size_wu = table_conv(k_max, w, u)
        want = 0.5 * (buw + bwu)
        scale = 0.5 * (size_uw + size_wu).max()
        assert np.abs(model.bilinear(u, w) - want).max() <= 1e-14 * scale
        buu, size = table_conv(k_max, u, u)
        scale = size.max() + np.abs(model.forcing).max()
        assert np.abs(g - (model.forcing - buu)).max() <= 1e-14 * scale


@pytest.mark.parametrize("k_max", [1, 4, 8])
def test_step_batch_across_row_blocks(monkeypatch, k_max):
    model = ns_model(k_max)
    rows = np.stack([random_state(model.grid, 20 + i) for i in range(8)])
    separate = np.stack([model.step(r, 0.02) for r in rows])
    monkeypatch.setattr(spectral, "BLOCK_POINTS", 3 * model.grid.fft_shape[0] ** 2)
    together = model.step_batch(rows, 0.02)  # blocks of 3, 3 and 2 rows
    assert np.isfinite(together).all()
    assert together.tobytes() == separate.tobytes()


def bilinear_conv_by_rfft2(u, w, shape, put, mirror, mult, fold):
    """The advection kernel written with np.fft.irfft2 and rfft2 and a
    freshly allocated spectrum on every call, as a reference."""
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
        swap = qx * oy
        swap -= qy * ox
        jac += swap
        jac *= 0.5
    return np.fft.rfft2(jac, norm="forward").reshape(n, -1)[:, put[:r]] * fold


def workspace_buffers():
    return [buf for bufs in _kernels._workspaces.values() for buf in bufs]


# (k_max, rows, w is u, log10 of the scale) of one call
CONV_CALLS = st.tuples(
    st.sampled_from([1, 3, 8, 16]),
    st.sampled_from([1, 3, 16]),
    st.booleans(),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=30, deadline=None)
@given(calls=st.lists(CONV_CALLS, min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_fft_advection_matches_rfft2_reference_bitwise(calls, seed):
    # the kernel reuses one workspace per state shape, for any batch up to
    # the largest yet and for w is u and w apart alike; each result must
    # still be the reference's bytes, in a new array of its own that later
    # calls leave alone
    rng = np.random.default_rng(seed)
    results = []
    for k_max, n, same, log_scale in calls:
        g = ns_model(k_max).grid
        args = (g.fft_shape, g.fft_put, g.fft_mirror, g.conv_w, g.fft_fold)
        u, w = 10.0**log_scale * (
            rng.standard_normal((2, n, g.n_reps)) + 1j * rng.standard_normal((2, n, g.n_reps))
        )
        if same:
            w = u
        before = u.tobytes() + w.tobytes()
        got = _kernels.bilinear_conv(u, w, *args)
        want = bilinear_conv_by_rfft2(u, w, *args)
        assert got.shape == (n, g.n_reps) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() + w.tobytes() == before
        assert got.flags.owndata
        assert not any(np.shares_memory(got, buf) for buf in workspace_buffers())
        assert len(_kernels._workspaces) <= _kernels.WORKSPACE_LIMIT
        results.append((got, want.tobytes()))
    for got, want in results:
        assert got.tobytes() == want


@pytest.mark.parametrize("k_max", [1, 8])
def test_a_run_of_full_blocks_and_a_remainder_keeps_its_workspaces(monkeypatch, k_max):
    # blocks of 3, 3 and 2 rows, and the advection term of w apart on 3
    # rows: one advection and one RK4 workspace serve them all, and the
    # second run finds every buffer of the first
    _kernels._workspaces.clear()
    model = ns_model(k_max)
    rows = np.stack([random_state(model.grid, 40 + i) for i in range(8)])
    monkeypatch.setattr(spectral, "BLOCK_POINTS", 3 * model.grid.fft_shape[0] ** 2)

    def run():
        stepped = model.step_batch(rows, 0.02)
        model._conv(rows[:3], rows[3:6])
        return stepped

    first = run()
    kept = dict(_kernels._workspaces)
    assert len(kept) == 2
    assert run().tobytes() == first.tobytes()
    assert _kernels._workspaces.keys() == kept.keys()
    assert all(_kernels._workspaces[key] is bufs for key, bufs in kept.items())
    assert not any(np.shares_memory(first, buf) for buf in workspace_buffers())


@pytest.mark.parametrize("k_max, rows", [(1, 12_000), (16, 78), (175, 2)])
def test_model_bytes_bounds_the_measured_peak(k_max, rows):
    # the tables of the grid, then a step of a full block of rows and a
    # remainder; at k_max 175, M^2 = 540^2 exceeds 2 BLOCK_POINTS and each
    # block is one row. Traced from a fresh workspace
    _kernels._workspaces.clear()
    tracemalloc.start()
    try:
        model = navier_stokes_spectral(0.5, {(1, 0): 1.0}, k_max, substeps=1)
        model.step_batch(np.full((rows, model.dim), 1e-3 + 0j), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectral.model_bytes(k_max)


def test_memory_budget_boundary():
    # k_max 683 (M = 2160) is the largest truncation the budget admits
    assert spectral.model_bytes(683) <= spectral.MEMORY_BUDGET < spectral.model_bytes(684)
    assert spectral.fft_size(683) == spectral.fft_size(684) == 2160


# ---------------------------------------------------------------------------
# representation


def test_grid_counts():
    g = SpectralGrid(8)
    assert g.n_reps == 144
    assert g.n_full == 288


@pytest.mark.parametrize("k_max", range(1, 9))
def test_index_of_matches_enumeration(k_max):
    g = SpectralGrid(k_max)
    for i, n in enumerate(g.full):
        assert g.index_of(n) == i
        mirror = g.index_of(-n)
        assert mirror == (i + g.n_reps) % g.n_full
        np.testing.assert_array_equal(g.full[mirror], -n)
    for outside in [(0, 0), (k_max + 1, 0), (0, -k_max - 1), (-k_max - 1, k_max), (2, 9 * k_max)]:
        with pytest.raises(KeyError):
            g.index_of(outside)


def test_velocity_field_is_real(grid):
    u = random_state(grid, 0)
    pts = np.random.default_rng(1).uniform(0, 2 * np.pi, size=(7, 2))
    vel = grid.evaluate_velocity(u, pts)
    assert np.abs(vel.imag).max() < 1e-13 * max(1.0, np.abs(vel.real).max())


def test_divergence_free_to_rounding(grid):
    u = random_state(grid, 2)
    vc = grid.velocity_coeffs(u)
    div = np.einsum("ij,ij->i", grid.kvecs, vc)
    assert np.abs(div).max() <= 1e-14 * np.abs(vc).max()


def test_conjugate_symmetry_of_vector_coefficients(grid):
    u = random_state(grid, 3)
    vc = grid.velocity_coeffs(u)
    nr = grid.n_reps
    np.testing.assert_allclose(vc[nr:], np.conj(vc[:nr]), rtol=0, atol=0)


def test_h1_norm_matches_direct_sum(grid, model):
    u = random_state(grid, 4)
    direct = sum(
        grid.k2_full[i] * abs(c) ** 2
        for i, c in enumerate(grid.expand(u))
    )
    assert model.error_norm.row_values(u) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# bilinear term


def test_bilinear_matches_oracle(grid, model):
    u = random_state(grid, 5)
    w = random_state(grid, 6)
    got = grid.expand(model.bilinear(u, w))
    want = oracle_bilinear(grid, u, w)
    assert np.abs(got - want).max() < 1e-12


def test_single_mode_self_advection_vanishes(grid, model):
    u = np.zeros(grid.n_reps, complex)
    u[grid.index_of((2, 1))] = 1.3 - 0.4j
    assert np.abs(model.bilinear(u, u)).max() == 0.0


def test_bilinear_symmetry(grid, model):
    for seed in range(20):
        u, w = random_state(grid, 100 + seed), random_state(grid, 200 + seed)
        diff = model.bilinear(u, w) - model.bilinear(w, u)
        nu = np.sqrt(model.error_norm.row_values(u))
        nw = np.sqrt(model.error_norm.row_values(w))
        assert np.abs(diff).max() <= 1e-12 * nu * nw


def test_energy_conservation_l2_and_h1(grid, model):
    for seed in range(50):
        u = random_state(grid, 300 + seed, scale=1.0)
        buu = grid.expand(model.bilinear(u, u))
        uf = grid.expand(u)
        l2 = np.real(np.sum(buu * np.conj(uf)))
        h1 = np.real(np.sum(grid.k2_full * buu * np.conj(uf)))
        l2_norm = float(np.sqrt(np.sum(np.abs(uf) ** 2)))
        assert abs(l2) <= 1e-10 * max(1.0, l2_norm**3)
        assert abs(h1) <= 1e-9 * max(1.0, model.error_norm.row_values(u) ** 1.5)


# ---------------------------------------------------------------------------
# forcing construction


def test_zero_mode_rejected():
    with pytest.raises(ValueError):
        navier_stokes_spectral(0.1, {(0, 0): 1.0}, 4)


# ---------------------------------------------------------------------------
# time stepping


def test_linear_steady_state():
    m = navier_stokes_spectral(1.0, {(1, 0): 0.5 + 0.2j}, 4, substeps=5)
    v = np.zeros(m.grid.n_reps, complex)
    for _ in range(400):
        v = m.step(v, 0.05)
    idx = m.grid.index_of((1, 0))
    target = m.forcing[idx] / (m.nu * m.grid.k2_reps[idx])
    assert abs(v[idx] - target) < 1e-8
    others = np.delete(v, idx)
    assert np.abs(others).max() < 1e-12


def test_step_preserves_symmetry_invariants(model, grid):
    v = random_state(grid, 7, scale=0.5)
    for _ in range(50):
        v = model.step(v, 0.01)
    vc = grid.velocity_coeffs(v)
    nr = grid.n_reps
    np.testing.assert_allclose(vc[nr:], np.conj(vc[:nr]), rtol=0, atol=0)
    div = np.einsum("ij,ij->i", grid.kvecs, vc)
    assert np.abs(div).max() <= 1e-14 * max(1.0, np.abs(vc).max())


def test_integrating_factor_convergence(model, grid):
    v = random_state(grid, 8, scale=0.5)
    fine = model.step(v, 0.1, substeps=64)
    errs = []
    for n in (4, 8, 16):
        errs.append(np.sqrt(model.error_norm.row_values(model.step(v, 0.1, substeps=n) - fine)))
    slope = np.polyfit(np.log([4, 8, 16]), np.log(errs), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.5)


def test_absorbing_radius_uses_slowest_decay_rate():
    m = navier_stokes_spectral(0.5, {(1, 0): 1.0}, 4)
    fnorm = np.sqrt(m.error_norm.row_values(m.forcing))
    assert m.theta == pytest.approx(0.5)  # nu * (2 pi / l)^2 with l = 2 pi
    assert dynamics.absorbing_radius(m) == pytest.approx(np.sqrt(2.0) * fnorm / 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_guard(model, grid):
    v = np.full(grid.n_reps, 1e200 + 0j)
    with pytest.raises(dynamics.BlowUpError):
        model.step(v, 1.0)


def test_trajectory_stays_in_absorbing_ball():
    m = navier_stokes_spectral(0.5, {(1, 0): 1.0}, 4)
    r = dynamics.absorbing_radius(m)
    v = random_state(m.grid, 9, scale=0.2)
    for _ in range(300):
        v = m.step(v, 0.02)
    assert np.sqrt(m.error_norm.row_values(v)) <= r
