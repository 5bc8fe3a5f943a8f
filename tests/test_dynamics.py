import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosfilter import dynamics
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


@pytest.mark.parametrize("maker", [dynamics.lorenz63, lambda: dynamics.lorenz96(6), lambda: dynamics.lorenz96(60)])
def test_bilinear_symmetry(maker):
    model = maker()
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = 10.0 * rng.standard_normal(model.dim)
        w = 10.0 * rng.standard_normal(model.dim)
        diff = model.bilinear(u, w) - model.bilinear(w, u)
        bound = 1e-12 * np.linalg.norm(u) * np.linalg.norm(w)
        assert np.linalg.norm(diff) <= bound


@pytest.mark.parametrize("maker", [dynamics.lorenz63, lambda: dynamics.lorenz96(6), lambda: dynamics.lorenz96(60)])
def test_energy_conserving_nonlinearity(maker):
    model = maker()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        u = 10.0 * rng.standard_normal(model.dim)
        val = abs(model.bilinear(u, u) @ u)
        assert val <= 1e-10 * np.linalg.norm(u) ** 3


# ---------------------------------------------------------------------------
# integrator


def test_linear_model_decays_exponentially():
    model = dynamics.linear_dissipative(np.eye(2))
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
        slow = model._generic_step(u[None, :], model.substeps, 0.05 / model.substeps)[0]
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_blowup_raises(l63):
    huge = np.array([1e200, 1e200, 1e200])
    with pytest.raises(dynamics.BlowUpError):
        l63.step(huge, 1.0)


BATCH_MODELS = {
    "lorenz63": dynamics.lorenz63(),
    "lorenz96-60": dynamics.lorenz96(60),
    "spectral-k3": navier_stokes_spectral(0.1, {(1, 0): 1.0}, 3),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCH_MODELS)),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_batch_matches_individual_steps(name, n, seed):
    model = BATCH_MODELS[name]
    rng = np.random.default_rng(seed)
    batch = 5.0 * rng.standard_normal((n, model.dim))
    if hasattr(model, "grid"):
        batch = batch + 5.0j * rng.standard_normal((n, model.dim))
    together = model.step_batch(batch, 0.02)
    separate = np.stack([model.step(row, 0.02) for row in batch])
    np.testing.assert_allclose(together, separate, rtol=0, atol=0)


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
    model = dynamics.linear_dissipative(np.eye(3))
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
