import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosfilter import _kernels, dynamics
from chaosfilter.harness import DiscreteMapModel
from chaosfilter.spectral import navier_stokes_spectral


@pytest.fixture(scope="module")
def l63():
    return dynamics.lorenz63()


@pytest.fixture(scope="module")
def l96():
    return dynamics.lorenz96(6)


def random_states(model, n, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, model.dim))


# ---------------------------------------------------------------------------
# construction values


def test_lorenz63_forcing_at_origin(l63):
    # f = (0, 0, -b (r + a)) = (0, 0, -304/3)
    np.testing.assert_allclose(l63.vector_field(np.zeros(3)), [0.0, 0.0, -304.0 / 3.0])


def test_lorenz63_bilinear_cross_term(l63):
    got = l63.bilinear(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(got, [0.0, 0.5, 0.0])


def test_lorenz63_symmetric_part_eigenvalues(l63):
    sym = 0.5 * (l63.linear_op + l63.linear_op.T)
    eig = np.sort(np.linalg.eigvalsh(sym))
    np.testing.assert_allclose(eig, [1.0, 8.0 / 3.0, 10.0])
    # hence <A u, u> >= |u|^2 for every u
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = rng.standard_normal(3)
        assert u @ l63.linear_op @ u >= u @ u - 1e-12


def test_lorenz96_forcing_at_origin():
    model = dynamics.lorenz96(6)
    np.testing.assert_allclose(model.vector_field(np.zeros(6)), np.full(6, 8.0))


def test_lorenz96_dimension_validation():
    with pytest.raises(ValueError):
        dynamics.lorenz96(7)
    with pytest.raises(ValueError):
        dynamics.lorenz96(3)
    dynamics.lorenz96(60)


def test_lorenz96_reduces_to_classical_advection(l96):
    # B(u,u)_i = -u_{i-1} (u_{i+1} - u_{i-2}), cyclically
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6)
    expected = np.array(
        [-u[i - 1] * (u[(i + 1) % 6] - u[i - 2]) for i in range(6)]
    )
    np.testing.assert_allclose(l96.bilinear(u, u), expected, atol=1e-14)


def test_lorenz96_identity_dissipation(l96):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6)
    assert u @ l96.linear_op @ u == pytest.approx(u @ u)


def test_field_reduces_to_forcing_minus_state_along_forcing(l96):
    # along u parallel to f the advection term vanishes for small u
    f = l96.forcing
    u = 0.25 * f / np.linalg.norm(f)
    np.testing.assert_allclose(l96.vector_field(u), f - u, atol=1e-12)


def test_dimension_mismatch_rejected(l63):
    with pytest.raises(ValueError):
        l63.vector_field(np.zeros(4))


# ---------------------------------------------------------------------------
# structural invariants of the bilinear form


QUADRATIC_MAKERS = [dynamics.lorenz63, lambda: dynamics.lorenz96(6), lambda: dynamics.lorenz96(60)]
SCALES = st.sampled_from([1e-3, 1.0, 10.0, 1e3])


@pytest.mark.parametrize("maker", QUADRATIC_MAKERS)
@settings(max_examples=100, deadline=None)
@given(scale_u=SCALES, scale_w=SCALES, seed=st.integers(0, 2**32 - 1))
def test_bilinear_symmetry(maker, scale_u, scale_w, seed):
    model = maker()
    rng = np.random.default_rng(seed)
    u = scale_u * rng.standard_normal(model.dim)
    w = scale_w * rng.standard_normal(model.dim)
    diff = model.bilinear(u, w) - model.bilinear(w, u)
    bound = 1e-12 * np.linalg.norm(u) * np.linalg.norm(w)
    assert np.linalg.norm(diff) <= bound


@pytest.mark.parametrize("maker", QUADRATIC_MAKERS)
@settings(max_examples=100, deadline=None)
@given(scale=SCALES, seed=st.integers(0, 2**32 - 1))
def test_energy_conserving_nonlinearity(maker, scale, seed):
    model = maker()
    u = scale * np.random.default_rng(seed).standard_normal(model.dim)
    val = abs(model.bilinear(u, u) @ u)
    assert val <= 1e-10 * np.linalg.norm(u) ** 3


# ---------------------------------------------------------------------------
# integrator


def rk4_by_rows(field, u, nsub, dt):
    """Classical RK4 of ``field``, one row and one substep at a time, as the
    reference of the batched kernels."""
    out = np.array(u, dtype=float)
    for i, x in enumerate(out):
        for _ in range(nsub):
            k1 = field(x)
            k2 = field(x + 0.5 * dt * k1)
            k3 = field(x + 0.5 * dt * k2)
            k4 = field(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = x
    return out


def linear_model(A):
    """The B = 0, unforced model dv/dt + A v = 0, stepped by ``rk4_by_rows``."""
    d = len(A)

    def stepper(batch, nsub, dt):
        return rk4_by_rows(model.vector_field, batch, nsub, dt)

    model = dynamics.DissipativeModel(
        "linear", A, np.zeros(d), lambda u, w: np.zeros(d), 10, stepper
    )
    return model


def test_linear_model_decays_exponentially():
    model = linear_model(np.eye(2))
    u = np.array([1.0, -2.0])
    out = model.step(u, 0.5, substeps=50)
    np.testing.assert_allclose(out, np.exp(-0.5) * u, rtol=1e-10)


def test_rk4_substep_refinement_order(l63):
    # quartic order: halving the substep size cuts the error ~16x
    u = np.array([1.0, 2.0, 3.0])
    h = 0.5
    fine = l63.step(u, h, substeps=1600)
    subs = np.array([25, 50, 100, 200])
    err = np.array([np.linalg.norm(l63.step(u, h, substeps=n) - fine) for n in subs])
    assert 8.0 < err[0] / err[1] < 32.0
    slope = np.polyfit(np.log(subs), np.log(err), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.4)


def test_step_composition_matches_single_step(l63):
    u = np.array([0.3, -1.0, 2.0])
    one = l63.step(u, 0.01, substeps=10)
    half = l63.step(l63.step(u, 0.005, substeps=5), 0.005, substeps=5)
    np.testing.assert_allclose(one, half, rtol=1e-12, atol=1e-12)


def test_generic_stepper_matches_fast_kernel(l63, l96):
    for model in (l63, l96):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(model.dim)
        fast = model.step(u, 0.05)
        slow = rk4_by_rows(model.vector_field, u[None], model.substeps, 0.05 / model.substeps)[0]
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_raises(l63):
    huge = np.array([1e200, 1e200, 1e200])
    with pytest.raises(dynamics.BlowUpError):
        l63.step(huge, 1.0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad_rows", [(), (0,), (3,), (1, 4), (0, 1, 2, 3, 4)])
def test_check_finite_names_the_non_finite_rows(dtype, bad_rows):
    out = np.random.default_rng(len(bad_rows)).standard_normal((5, 4)).astype(dtype)
    specials = [np.inf, np.nan, -np.inf]
    if dtype is complex:
        specials += [complex(0.0, np.inf), complex(1.0, np.nan)]
    for j, row in enumerate(bad_rows):
        out[row, (row + j) % 4] = specials[j % len(specials)]
    if not bad_rows:
        assert dynamics.check_finite("m", 0.1, out) is out
        return
    with pytest.raises(dynamics.BlowUpError) as info:
        dynamics.check_finite("m", 0.1, out)
    assert info.value.states is out
    np.testing.assert_array_equal(info.value.bad, ~np.isfinite(out).all(axis=1))
    assert sorted(np.flatnonzero(info.value.bad)) == list(bad_rows)


BATCH_MODELS = {
    "lorenz63": dynamics.lorenz63(),
    "lorenz96-60": dynamics.lorenz96(60),
    **{
        f"spectral-k{k}": navier_stokes_spectral(0.1, {(1, 0): 1.0}, k)
        for k in (1, 3, 8)
    },
    **{
        f"linear-map-{d}": DiscreteMapModel(np.random.default_rng(d).standard_normal((d, d)))
        for d in (8, 60)
    },
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCH_MODELS)),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="spectral-k8", n=1, seed=54)
def test_step_batch_matches_individual_steps(name, n, seed):
    model = BATCH_MODELS[name]
    rng = np.random.default_rng(seed)
    batch = 5.0 * rng.standard_normal((n, model.dim))
    if model.dtype == complex:
        batch = batch + 5.0j * rng.standard_normal((n, model.dim))

    def stepped(step, states):
        # rows that blow up (the spectral flow at k_max 8 often does from
        # these states) are compared through the states BlowUpError carries
        try:
            return step(states, 0.02)
        except dynamics.BlowUpError as err:
            return err.states.reshape(states.shape)

    with np.errstate(all="ignore"):
        together = stepped(model.step_batch, batch)
        separate = np.stack([stepped(model.step, row) for row in batch])
    np.testing.assert_allclose(together, separate, rtol=0, atol=0)


@pytest.mark.parametrize("name", ["lorenz63", "lorenz96-60", "spectral-k3"])
def test_step_batch_of_no_rows(name):
    # a batch whose rows have all been excluded steps to an empty batch
    model = BATCH_MODELS[name]
    got = model.step_batch(np.empty((0, model.dim), model.dtype), 0.02)
    assert got.shape == (0, model.dim) and got.dtype == model.dtype


def lorenz96_rk4_by_roll(u, nsub, dt, forcing):
    """The cyclic-advection RK4 stepper written with np.roll, as a reference."""

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


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 40).map(lambda k: 3 * k),
    n=st.integers(1, 8),
    nsub=st.integers(1, 10),
    scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lorenz96_kernel_matches_roll_reference_bitwise(d, n, nsub, scale, seed):
    u = scale * np.random.default_rng(seed).standard_normal((n, d))
    before = u.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = _kernels.lorenz96_rk4(u, nsub, 0.01 / nsub, 8.0)
        want = lorenz96_rk4_by_roll(u, nsub, 0.01 / nsub, 8.0)
    assert got.shape == (n, d) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert u.tobytes() == before.tobytes()


def lorenz63_rk4_by_stack(u, nsub, dt, a, b, f3):
    """The convection RK4 stepper on (n, 3) rows with np.stack, as a reference."""

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


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 64),
    nsub=st.integers(1, 10),
    scale=SCALES,
    seed=st.integers(0, 2**32 - 1),
    huge_row=st.booleans(),
)
@example(n=5000, nsub=10, scale=10.0, seed=0, huge_row=False)
@example(n=5000, nsub=3, scale=1.0, seed=1, huge_row=True)
def test_lorenz63_kernel_matches_stack_reference_bitwise(n, nsub, scale, seed, huge_row):
    a, b = 10.0, 8.0 / 3.0
    f3 = -b * (28.0 + a)
    u = scale * np.random.default_rng(seed).standard_normal((n, 3))
    if huge_row:
        u[n // 2] = 1e200 * np.sign(u[n // 2])
    before = u.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = _kernels.lorenz63_rk4(u, nsub, 0.01 / nsub, a, b, f3)
        want = lorenz63_rk4_by_stack(u, nsub, 0.01 / nsub, a, b, f3)
    assert got.shape == (n, 3) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert u.tobytes() == before.tobytes()
    # a 1e200 row overflows, so the inf/nan arithmetic is compared too
    assert not (huge_row and np.isfinite(got[n // 2]).all())


def kernel_and_reference(kernel, u, nsub):
    """``(result, reference result)`` of one Lorenz kernel call on ``u``."""
    dt = 0.01 / nsub
    if kernel == "l63":
        a, b = 10.0, 8.0 / 3.0
        f3 = -b * (28.0 + a)
        return (_kernels.lorenz63_rk4(u, nsub, dt, a, b, f3),
                lorenz63_rk4_by_stack(u, nsub, dt, a, b, f3))
    return _kernels.lorenz96_rk4(u, nsub, dt, 8.0), lorenz96_rk4_by_roll(u, nsub, dt, 8.0)


def workspace_buffers():
    return [buf for bufs in _kernels._workspaces.values() for buf in bufs]


# ((kernel, sites), rows, dtype) of one call
KERNEL_CALLS = st.tuples(
    st.sampled_from([("l63", 3), ("l96", 6), ("l96", 60)]),
    st.sampled_from([1, 2, 8, 28, 4999, 5000]),
    st.sampled_from([np.float64, np.complex128]),
)


@settings(max_examples=25, deadline=None)
@given(calls=st.lists(KERNEL_CALLS, min_size=2, max_size=6), nsub=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(calls=[(("l63", 3), 1, np.float64)] * 2, nsub=1, seed=0)
@example(calls=[(("l96", 60), 1, np.float64)] * 2, nsub=1, seed=0)
def test_kernel_workspaces_never_reach_a_result(calls, nsub, seed):
    # the kernels reuse one aligned workspace per (kernel, rows, sites,
    # dtype); each result must still be a new array of its own that later
    # calls leave alone, at one row too, where the transposed (d, 1)
    # workspace is itself C-contiguous
    rng = np.random.default_rng(seed)
    results = []
    for (kernel, d), n, dtype in calls:
        u = 10.0 * rng.standard_normal((n, d)).astype(dtype)
        if dtype is np.complex128:
            u += 1j * rng.standard_normal((n, d))
        before = u.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = kernel_and_reference(kernel, u, nsub)
        assert got.shape == (n, d) and got.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() == before
        assert got.flags.owndata
        assert not any(np.shares_memory(got, buf) for buf in workspace_buffers())
        if results:
            assert not np.shares_memory(results[-1][0], got)
        results.append((got, want.tobytes()))
    # many distinct row counts, as a run whose live rows keep dropping out
    for n in range(1, 3 * _kernels.WORKSPACE_LIMIT):
        kernel_and_reference("l63", np.ones((n, 3)), 1)
        kernel_and_reference("l96", np.ones((n, 6)), 1)
        assert len(_kernels._workspaces) <= _kernels.WORKSPACE_LIMIT
    for got, want in results:
        assert got.tobytes() == want
    for buf in workspace_buffers():
        assert buf.ctypes.data % _kernels.ALIGN == 0


# ---------------------------------------------------------------------------
# dissipation


@pytest.mark.parametrize("maker", [dynamics.lorenz63, lambda: dynamics.lorenz96(6)])
def test_absorbing_radius_values(maker):
    model = maker()
    expected = np.sqrt(2.0) * np.linalg.norm(model.forcing)
    assert dynamics.absorbing_radius(model) == pytest.approx(expected)


def test_absorbing_radius_lorenz96_d6():
    assert dynamics.absorbing_radius(dynamics.lorenz96(6)) == pytest.approx(
        np.sqrt(768.0)
    )


def test_absorbing_radius_lorenz63():
    assert dynamics.absorbing_radius(dynamics.lorenz63()) == pytest.approx(
        np.sqrt(2.0) * 304.0 / 3.0
    )


def test_absorbing_radius_zero_forcing_linear():
    model = linear_model(np.eye(3))
    assert dynamics.absorbing_radius(model) == 0.0


@pytest.mark.parametrize("maker", [dynamics.lorenz63, lambda: dynamics.lorenz96(6)])
def test_energy_dissipation_inequality(maker):
    # d/dt |v|^2 + |v|^2 <= |f|^2 along trajectories, via finite differences
    model = maker()
    rng = np.random.default_rng(8)
    f2 = model.forcing @ model.forcing
    h = 1e-3
    for _ in range(20):
        v = 5.0 * rng.standard_normal(model.dim)
        for _ in range(50):
            w = model.step(v, h, substeps=1)
            dE = (w @ w - v @ v) / h
            assert dE + v @ v <= f2 + 2e-2 * max(1.0, abs(f2))
            v = w


@pytest.mark.parametrize("maker", [dynamics.lorenz63, lambda: dynamics.lorenz96(6)])
def test_absorbing_ball_entry_and_invariance(maker):
    model = maker()
    r = dynamics.absorbing_radius(model)
    rng = np.random.default_rng(9)
    h = 0.01
    # exp(-t)|v0|^2 + r0 (1 - exp(-t)) <= r^2 with |v0| = 10 r gives the bound
    t_bound = np.log((100.0 * r**2 - model.r0) / (r**2 - model.r0))
    steps = int(np.ceil(2.0 * t_bound / h))
    # the 10 starts, drawn as one block, stepped as one batch
    v = rng.standard_normal((10, model.dim))
    v *= np.array([10.0 * r / np.linalg.norm(row) for row in v])[:, None]
    entered = np.full(10, np.nan)
    for j in range(1, steps + 1):
        v = model.step_batch(v, h)
        inside = np.linalg.norm(v, axis=1) <= r
        entered[np.isnan(entered) & inside] = j * h
        assert inside[~np.isnan(entered)].all(), "trajectory left the ball after entering"
    assert not np.isnan(entered).any()
    assert (entered <= t_bound + h).all()
