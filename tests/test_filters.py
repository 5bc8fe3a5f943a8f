import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosfilter import dynamics, filters, observation
from chaosfilter.config import noise_gamma
from chaosfilter.harness import DiscreteMapModel
from chaosfilter.observation import ObservationSequence
from chaosfilter.spectral import SpectralGrid, navier_stokes_spectral


def l63_setup():
    model = dynamics.lorenz63()
    P = observation.coordinate_projection(3, [0])
    noise = observation.GaussianObservedNoise(P)
    return model, P, noise


def rotation(angle, scale=1.0):
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# V norms


def test_euclidean_plus_observed_values():
    P = observation.coordinate_projection(3, [0])
    V = filters.VNorm.euclidean_plus_observed(P)
    x = np.array([1.0, 2.0, 3.0])
    assert V.row_values(x) == pytest.approx(1.0 + 14.0)


def test_vnorm_parallelogram_law():
    P = observation.coordinate_projection(4, [1, 3])
    V = filters.VNorm.euclidean_plus_observed(P)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lhs = V.row_values(x + y) + V.row_values(x - y)
        assert lhs == pytest.approx(2.0 * (V.row_values(x) + V.row_values(y)), rel=1e-12)


def test_vnorm_h1_matches_grid():
    # the Sobolev norm summed over the full lattice, each -k beside its k
    grid = SpectralGrid(3)
    V = filters.VNorm.h1(grid)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(grid.n_reps) + 1j * rng.standard_normal(grid.n_reps)
    direct = np.sum(grid.k2_full * np.abs(grid.expand(x)) ** 2)
    assert V.row_values(x) == pytest.approx(direct, rel=1e-12)


def test_vnorm_definiteness_and_inner():
    # both diagonal forms vanish only at 0 and dominate their smallest
    # weight times the Euclidean inner product x . conj(x)
    grid = SpectralGrid(2)
    rng = np.random.default_rng(2)
    for V in (filters.VNorm.euclidean_plus_observed(observation.coordinate_projection(3, [1])),
              filters.VNorm.h1(grid)):
        dim = V.weights.size
        assert V.row_values(np.zeros(dim, dtype=V.dtype)) == 0.0
        for _ in range(50):
            x = rng.standard_normal(dim)
            if V.dtype == complex:
                x = x + 1j * rng.standard_normal(dim)
            assert V.row_values(x) > 0.0
            inner = np.real(np.vdot(x, x))
            assert V.row_values(x) >= V.weights.min() * inner * (1 - 1e-12)


# ---------------------------------------------------------------------------
# ball projection


def test_project_ball_identity_inside():
    P = observation.coordinate_projection(3, [0])
    V = filters.VNorm.euclidean_plus_observed(P)
    x = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(filters.project_ball_V(V, 10.0, x), x)


def test_project_ball_lands_on_surface():
    P = observation.coordinate_projection(3, [0])
    V = filters.VNorm.euclidean_plus_observed(P)
    x = np.array([5.0, -3.0, 7.0])
    R = 1.7
    out = filters.project_ball_V(V, R, x)
    assert np.sqrt(V.row_values(out)) == pytest.approx(R, abs=1e-12)
    np.testing.assert_allclose(out / np.linalg.norm(out), x / np.linalg.norm(x))


def test_project_ball_sizes_a_row_whose_V_overflows():
    # V of the first row is past float range; the second row keeps its bits
    V = filters.VNorm(np.ones(3))
    x = np.array([[1e200, 0.0, 0.0], [5.0, -3.0, 7.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = filters.project_ball_V(V, 10.0, x)
    np.testing.assert_array_equal(out[0], [10.0, 0.0, 0.0])
    np.testing.assert_array_equal(out[1], filters.project_ball_V(V, 10.0, x[1]))


def test_projection_moves_closer_to_every_ball_point():
    # V(P_B x - b) <= V(x - b) for all b in the ball
    P = observation.coordinate_projection(5, [0, 2])
    V = filters.VNorm.euclidean_plus_observed(P)
    R = 2.0
    rng = np.random.default_rng(3)
    for _ in range(2000):
        x = 5.0 * rng.standard_normal(5)
        b = rng.standard_normal(5)
        nb = np.sqrt(V.row_values(b))
        if nb > R:
            b *= 0.99 * R / nb
        px = filters.project_ball_V(V, R, x)
        assert V.row_values(px - b) <= V.row_values(x - b) + 1e-12


def test_projection_contraction_quadratic_norm():
    # the same contraction for a diagonal quadratic form with random
    # positive weights, not tied to any observation mask
    rng = np.random.default_rng(4)
    V = filters.VNorm(rng.uniform(0.1, 5.0, size=3))
    R = 1.3
    for _ in range(2000):
        x = 4.0 * rng.standard_normal(3)
        b = rng.standard_normal(3)
        nb = np.sqrt(V.row_values(b))
        if nb > R:
            b *= 0.99 * R / nb
        px = filters.project_ball_V(V, R, x)
        assert V.row_values(px - b) <= V.row_values(x - b) + 1e-12


# ---------------------------------------------------------------------------
# observer updates


def test_zero_gain_is_pure_forecast():
    model, P, _ = l63_setup()
    z = np.array([0.4, -0.2, 1.0])
    y = P.apply(np.array([9.0, 0.0, 0.0]))
    out = filters.observer_step(model, P, filters.Gain.zero(), z, y, 0.01)
    np.testing.assert_array_equal(out, model.step(z, 0.01))


def test_full_observation_synchronizes_in_one_step():
    model, _, _ = l63_setup()
    P = observation.coordinate_projection(3, range(3))
    D = filters.Gain.identity_on_observed(P)
    v = np.array([1.0, 2.0, 3.0])
    v_next = model.step(v, 0.01)
    z = np.array([-5.0, 4.0, 0.0])
    out = filters.observer_step(model, P, D, z, v_next, 0.01)
    np.testing.assert_array_equal(out, v_next)


def test_observer_rejects_contaminated_observation():
    model, P, _ = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    y_bad = np.array([1.0, 0.5, 0.0])  # energy on an unobserved coordinate
    with pytest.raises(ValueError):
        filters.observer_step(model, P, D, np.zeros(3), y_bad, 0.01)


def test_noise_free_synchronization_decay():
    # observing one coordinate with unit gain pulls the full state onto the signal
    model, P, _ = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3)
    z = rng.standard_normal(3) + 5.0
    h = 0.01
    err0 = np.linalg.norm(v - z)
    for _ in range(2000):
        v_next = model.step(v, h)
        y = P.apply(v_next)
        z = filters.observer_step(model, P, D, z, y, h)
        v = v_next
    assert np.linalg.norm(v - z) < 1e-6 * err0


def test_error_recursion_identity():
    # v' - z' = (I - D P)(Psi(v) - Psi(z)) - eps D w, with w recorded
    model, P, noise = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(3)
    z = rng.standard_normal(3)
    eps = 0.3
    h = 0.01
    for _ in range(50):
        w = noise.sample(rng)
        v_next = model.step(v, h)
        y = P.apply(v_next) + eps * w
        z_next = filters.observer_step(model, P, D, z, y, h)
        lhs = v_next - z_next
        delta_psi = model.step(v, h) - model.step(z, h)
        rhs = delta_psi - D.apply(P.apply(delta_psi)) - eps * D.apply(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        v, z = v_next, z_next


def test_truncated_matches_plain_inside_ball():
    model, P, noise = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    V = filters.VNorm.euclidean_plus_observed(P)
    R = filters.default_ball_radius(model, V)
    rng = np.random.default_rng(7)
    m = rng.standard_normal(3)
    v = rng.standard_normal(3)
    h = 0.01
    for _ in range(100):
        v = model.step(v, h)
        y = P.apply(v) + 0.05 * noise.sample(rng)
        plain = filters.observer_step(model, P, D, m, y, h)
        trunc = filters.truncated_observer_step(model, P, D, V, R, m, y, h)
        np.testing.assert_array_equal(plain, trunc)
        m = trunc


def test_outlier_observation_is_pinned_to_ball_surface():
    model, P, noise = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    V = filters.VNorm.euclidean_plus_observed(P)
    R = filters.default_ball_radius(model, V)
    m = np.zeros(3)
    w_spike = np.array([1e3, 0.0, 0.0])
    y = P.apply(model.step(np.ones(3), 0.01)) + w_spike
    out = filters.truncated_observer_step(model, P, D, V, R, m, y, 0.01)
    assert np.sqrt(V.row_values(out)) == pytest.approx(R, rel=1e-12)


def test_default_ball_radius_values():
    model, P, _ = l63_setup()
    r = dynamics.absorbing_radius(model)
    V = filters.VNorm.euclidean_plus_observed(P)
    assert filters.default_ball_radius(model, V) == np.sqrt(2.0) * r
    flow = navier_stokes_spectral(0.5, {(1, 0): 1.0}, 3)
    V = flow.truncation_vnorm(observation.fourier_cutoff(flow.grid, 2.0))
    assert filters.default_ball_radius(flow, V) == dynamics.absorbing_radius(flow)


# ---------------------------------------------------------------------------
# fixed 3DVAR gain


def test_kalman_gain_scalar_blend():
    P = observation.coordinate_projection(2, [0])
    gamma = np.diag([1.0, 0.0])
    sigma2 = 0.7
    eps = 0.4
    K = filters.kalman_gain_3dvar(sigma2, P, gamma, eps)
    expected = sigma2 / (sigma2 + eps**2)
    np.testing.assert_allclose(
        K.apply(np.array([1.0, 0.0])), [expected, 0.0], rtol=1e-12
    )


def test_kalman_gain_noise_limits():
    P = observation.coordinate_projection(2, [0])
    gamma = np.diag([1.0, 0.0])
    K0 = filters.kalman_gain_3dvar(1.0, P, gamma, 1e-9)
    np.testing.assert_allclose(K0.apply(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-12)
    Kinf = filters.kalman_gain_3dvar(1.0, P, gamma, 1e9)
    np.testing.assert_allclose(Kinf.apply(np.array([1.0, 0.0])), [0.0, 0.0], atol=1e-12)


def test_kalman_gain_singular_innovation():
    P = observation.coordinate_projection(2, [0])
    with pytest.raises(filters.FilterNumericsError):
        filters.kalman_gain_3dvar(0.0, P, np.zeros((2, 2)), 0.0)


def test_induced_filter_matches_displayed_update():
    model, P, noise = l63_setup()
    gamma = np.diag([1.0, 0.0, 0.0])
    eps = 0.2
    K = filters.kalman_gain_3dvar(0.5, P, gamma, eps)
    z = np.array([0.1, 0.2, 0.3])
    y = P.apply(np.array([2.0, 0.0, 0.0]))
    out = filters.observer_step(model, P, K, z, y, 0.01)
    fz = model.step(z, 0.01)
    Kmat = np.diag(K.weights)
    Pmat = np.diag(P.mask.astype(float))
    expected = (np.eye(3) - Kmat @ Pmat) @ fz + Kmat @ y
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)


def per_row_gain(K, X):
    """A dense gain matrix applied one matrix-vector product per row: the
    reference the diagonal gains must reproduce."""
    return np.array([K @ row for row in X]).reshape(np.shape(X))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gain_setup(d, sigma2, eps):
    """Projection, diagonal 3DVAR gain and its dense matrix at dimension d."""
    if d == 3:
        P = observation.coordinate_projection(3, [0])
    else:
        P = observation.every_third_unobserved(d)
    gamma = noise_gamma(observation.GaussianObservedNoise(P), P)
    K = filters._kalman_gain(sigma2 * np.eye(d), P, gamma, eps)
    return P, filters.kalman_gain_3dvar(sigma2, P, gamma, eps), K


GAIN_CASES = dict(
    d=st.sampled_from([3, 60]),
    sigma2=st.sampled_from([0.25, 1.0, 4.0]),
    eps=st.sampled_from([1e-3, 0.01, 0.1, 0.5, 2.0]),
    n_rows=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**GAIN_CASES)
def test_diagonal_3dvar_gain_matches_per_row_matrix_product(d, sigma2, eps, n_rows, seed):
    P, gain, K = gain_setup(d, sigma2, eps)
    np.testing.assert_array_equal(K, np.diag(gain.weights))
    X = 20.0 * np.random.default_rng(seed).standard_normal((n_rows, d))
    expected = per_row_gain(K, P.apply(X))
    assert same_bits(gain.apply(X), expected)
    assert same_bits(gain.apply(P.apply(X)), expected)
    assert same_bits(gain.apply(X[0]), K @ P.apply(X[0]))


@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_identity_and_zero_gains_on_real_and_complex_rows(n_rows, seed):
    rng = np.random.default_rng(seed)
    grid = SpectralGrid(3)
    real = rng.standard_normal((n_rows, 2 * grid.n_reps))
    cases = [
        (observation.every_third_unobserved(6), real[:, :6]),
        (observation.fourier_cutoff(grid, 2.0), real[:, ::2] + 1j * real[:, 1::2]),
    ]
    for P, X in cases:
        for x in (X, X[0]):
            assert same_bits(filters.Gain.identity_on_observed(P).apply(x), P.apply(x))
            assert same_bits(filters.Gain.zero().apply(x), np.zeros_like(x))


@settings(max_examples=40, deadline=None)
@given(**GAIN_CASES)
def test_assimilate_matches_two_projection_form(d, sigma2, eps, n_rows, seed):
    P, gain_3dvar, K = gain_setup(d, sigma2, eps)
    rng = np.random.default_rng(seed)
    FZ = 20.0 * rng.standard_normal((n_rows, d))
    Y = P.apply(20.0 * rng.standard_normal((n_rows, d)))
    references = [
        (gain_3dvar, lambda x: per_row_gain(K, x)),
        (filters.Gain.identity_on_observed(P), P.apply),
        (filters.Gain.zero(), np.zeros_like),
    ]
    for gain, reference in references:
        observer = filters.FixedGainObserver(P, gain, np.zeros(d))
        expected = FZ - reference(P.apply(FZ)) + reference(Y)
        assert same_bits(observer.assimilate(FZ, Y), expected)


# ---------------------------------------------------------------------------
# stacked observers: one analysis over the rows of many


def assert_rows_as_alone(observers, FZ, Y):
    """Each row of the stacked observer's analysis, and its start, has the
    bits of its own observer's."""
    stacked = filters.FixedGainObserver.stacked(observers)
    Z = stacked.assimilate(FZ, Y)
    for i, observer in enumerate(observers):
        assert same_bits(Z[i : i + 1], observer.assimilate(FZ[i : i + 1], Y[i : i + 1])), i
        assert same_bits(stacked.z0[i], observer.z0), i


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 60]),
    epsilons=st.lists(st.sampled_from([1e-3, 0.01, 0.1, 0.5, 2.0]), min_size=1, max_size=3),
    radius_scales=st.lists(st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1.0]), min_size=1, max_size=3),
    copies=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_observer_rows_equal_each_observer_alone(d, epsilons, radius_scales, copies, seed):
    # identity, zero, 3DVAR and truncated observers in a shuffled batch;
    # the radii are small enough that rows leave the ball, row 0 has a
    # finite unobserved entry whose V overflows and the last row a nan,
    # which no observer without a ball spreads to the rest of its row
    if d == 3:
        P, model = observation.coordinate_projection(3, [0]), dynamics.lorenz63()
    else:
        P, model = observation.every_third_unobserved(d), dynamics.lorenz96(d)
    gamma = noise_gamma(observation.GaussianObservedNoise(P), P)
    vnorm = filters.VNorm.euclidean_plus_observed(P)
    radius = filters.default_ball_radius(model, vnorm)
    identity, zero = filters.Gain.identity_on_observed(P), filters.Gain.zero()
    rng = np.random.default_rng(seed)
    observers = [filters.FixedGainObserver(P, identity, rng.standard_normal(d)),
                 filters.FixedGainObserver(P, zero, np.zeros(d))]
    observers += [filters.ThreeDVar(0.5, P, gamma, np.zeros(d)).at_eps(eps) for eps in epsilons]
    observers += [
        filters.FixedGainObserver(P, gain, np.zeros(d), vnorm=vnorm, radius=scale * radius)
        for scale in radius_scales for gain in (identity, zero)
    ]
    observers = [observers[k] for k in rng.permutation(copies * len(observers)) % len(observers)]
    FZ = 20.0 * rng.standard_normal((len(observers), d))
    FZ[0, np.flatnonzero(~P.mask)[0]] = 1e200
    FZ[-1, -1] = np.nan
    Y = P.apply(20.0 * rng.standard_normal((len(observers), d)))
    assert_rows_as_alone(observers, FZ, Y)


@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 40), radius_scale=st.sampled_from([0.01, 0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_spectral_observers_keep_every_complex_bit(n_rows, radius_scale, seed):
    # unweighted complex rows stay unweighted: a complex product by a
    # weight of one would turn complex(-0.0, -1.0) into 0-1j
    grid = SpectralGrid(3)
    P = observation.fourier_cutoff(grid, 2.0)
    vnorm = filters.VNorm.h1(grid)
    identity = filters.Gain.identity_on_observed(P)
    z0 = np.zeros(grid.n_reps, dtype=complex)
    kinds = [filters.FixedGainObserver(P, identity, z0),
             filters.FixedGainObserver(P, identity, z0, vnorm=vnorm, radius=radius_scale)]
    rng = np.random.default_rng(seed)
    observers = [kinds[k] for k in rng.integers(0, 2, size=n_rows)]
    shape = (n_rows, grid.n_reps)
    FZ = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    FZ[:, ::3] = complex(-0.0, -1.0)
    Y = P.apply(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert filters.FixedGainObserver.stacked(observers).gain.weights is None
    assert_rows_as_alone(observers, FZ, Y)


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_project_ball_with_a_radius_per_row_equals_row_by_row_calls(n_rows, seed):
    rng = np.random.default_rng(seed)
    V = filters.VNorm(rng.uniform(0.1, 5.0, size=4))
    x = 10.0 * rng.standard_normal((n_rows, 4))
    x[rng.integers(0, 2, size=n_rows) == 0] = 0.0
    x[0, 0] = 1e200
    radii = rng.choice([0.5, 3.0, 20.0, np.inf], size=n_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = filters.project_ball_V(V, radii, x)
        for i in range(n_rows):
            assert same_bits(out[i], filters.project_ball_V(V, radii[i], x[i])), i


# ---------------------------------------------------------------------------
# Kalman filter for linear signals


def test_scalar_steady_state_covariance():
    # c' = l^2 c eps^2 / (l^2 c + eps^2); for l > 1 the fixed point is
    # eps^2 (1 - 1/l^2), reached from any positive start
    P = observation.coordinate_projection(1, [0])
    gamma = np.eye(1)
    L = np.array([[2.0]])
    eps = 0.3
    mean, cov = np.zeros(1), np.eye(1)
    for _ in range(200):
        mean, cov = filters.kalman_filter_step(
            L, P, gamma, eps, mean, cov, np.zeros(1)
        )
    assert cov[0, 0] == pytest.approx(eps**2 * (1.0 - 0.25), rel=1e-10)


def test_neutral_scalar_covariance_decays():
    P = observation.coordinate_projection(1, [0])
    L = np.eye(1)
    eps = 1.0
    mean, cov = np.zeros(1), np.eye(1)
    traces = []
    for _ in range(500):
        mean, cov = filters.kalman_filter_step(L, P, np.eye(1), eps, mean, cov, np.zeros(1))
        traces.append(cov[0, 0])
    assert traces[-1] < 3e-3  # ~ eps^2/j decay to zero
    assert traces[-1] < traces[100] < traces[10]


def test_unobserved_unstable_direction_diverges():
    P = observation.coordinate_projection(2, [1])
    L = np.diag([2.0, 0.5])
    gamma = np.diag([0.0, 1.0])
    mean, cov = np.zeros(2), np.eye(2)
    for _ in range(40):
        mean, cov = filters.kalman_filter_step(L, P, gamma, 0.1, mean, cov, np.zeros(2))
    assert cov[0, 0] > 1e6


def test_covariance_trace_scales_quadratically_in_eps():
    P = observation.coordinate_projection(2, [0])
    L = rotation(np.pi / 4, scale=1.01)
    gamma = np.diag([1.0, 0.0])
    ratios = []
    for eps in (1.0, 0.1, 0.01):
        mean, cov = np.zeros(2), np.eye(2)
        for _ in range(400):
            mean, cov = filters.kalman_filter_step(
                L, P, gamma, eps, mean, cov, np.zeros(2)
            )
        ratios.append(np.trace(cov) / eps**2)
    assert max(ratios) / min(ratios) < 1.05


def test_covariance_ignores_observations():
    P = observation.coordinate_projection(2, [0])
    L = rotation(0.3, scale=0.95)
    gamma = np.diag([1.0, 0.0])
    traces = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        ys = np.zeros((30, 2))
        ys[:, 0] = rng.standard_normal(30)
        obs = ObservationSequence(eps=0.5, h=1.0, ys=ys)
        run = filters.run_kalman(L, P, gamma, 0.5, np.zeros(2), np.eye(2), obs)
        traces.append(run.post_trace)
        # the run's spread is tr C_j of the recursion, bit for bit
        mean, cov = np.zeros(2), np.eye(2)
        by_hand = [np.trace(cov)]
        for y in ys:
            mean, cov = filters.kalman_filter_step(L, P, gamma, 0.5, mean, cov, y)
            by_hand.append(np.trace(cov))
        assert run.post_trace.tobytes() == np.array(by_hand).tobytes()
        assert run.ess is None and run.degenerate_at is None
    np.testing.assert_array_equal(traces[0], traces[1])


def test_joseph_form_tolerates_deterministic_start():
    P = observation.coordinate_projection(2, [0])
    L = rotation(0.2)
    gamma = np.diag([1.0, 0.0])
    mean, cov = np.ones(2), np.zeros((2, 2))
    mean, cov = filters.kalman_filter_step(L, P, gamma, 0.5, mean, cov, np.zeros(2))
    assert np.all(np.isfinite(cov))
    evals = np.linalg.eigvalsh(cov)
    assert evals.min() >= -1e-14


# ---------------------------------------------------------------------------
# particle filter


def make_linear_gaussian(seed, n_steps=30, eps=0.5):
    L = rotation(0.4, scale=0.97)
    model = DiscreteMapModel(L)
    P = observation.coordinate_projection(2, [0])
    noise = observation.GaussianObservedNoise(P)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2)
    truth = [v]
    ys = []
    for _ in range(n_steps):
        v = L @ v
        truth.append(v)
        ys.append(P.apply(v) + eps * noise.sample(rng))
    return L, model, P, noise, np.array(truth), ObservationSequence(eps=eps, h=1.0, ys=np.array(ys))


def test_particle_filter_matches_kalman_oracle():
    L, model, P, noise, truth, obs = make_linear_gaussian(8)
    gamma = np.diag([1.0, 0.0])
    kf = filters.run_kalman(L, P, gamma, obs.eps, np.zeros(2), np.eye(2), obs)
    init = observation.standard_normal_init(2)
    pf = filters.particle_filter(
        model, filters.ParticleFilter(P, noise, 100_000, init), obs, np.random.default_rng(9)
    )
    assert pf.degenerate_at is None
    # posterior spread / sqrt(ESS) bounds the Monte Carlo error of the mean
    for j in (10, 20, 30):
        se = np.sqrt(pf.post_trace[j] / pf.ess[j])
        gap = np.linalg.norm(pf.estimates[j] - kf.estimates[j])
        assert gap < 4.0 * se + 1e-3
    # posterior variance matches the exact filter covariance trace
    for j in (10, 20, 30):
        assert pf.post_trace[j] == pytest.approx(kf.post_trace[j], rel=0.15)


def test_flat_likelihood_reduces_to_pushforward():
    L, model, P, noise, truth, obs = make_linear_gaussian(10, n_steps=10)
    flat = ObservationSequence(eps=1e8, h=1.0, ys=obs.ys)
    init = observation.standard_normal_init(2)
    pf = filters.particle_filter(
        model, filters.ParticleFilter(P, noise, 5000, init), flat, np.random.default_rng(11)
    )
    ensemble = init(np.random.default_rng(11).spawn(0) or np.random.default_rng(11), 5000)
    # replicate the internal draw: same rng consumed the same way
    rng = np.random.default_rng(11)
    ensemble = init(rng, 5000)
    for j in range(1, 11):
        ensemble = model.step_batch(ensemble, 1.0)
        np.testing.assert_allclose(pf.estimates[j], ensemble.mean(axis=0), rtol=1e-6)


def test_particle_filter_requires_noise_and_particles():
    L, model, P, noise, truth, obs = make_linear_gaussian(12, n_steps=3)
    init = observation.standard_normal_init(2)
    pf = filters.ParticleFilter(P, noise, 100, init)
    for eps in (0.0, -0.5, float("nan")):
        noiseless = ObservationSequence(eps=eps, h=obs.h, ys=obs.ys)
        with pytest.raises(ValueError):
            filters.particle_filter(model, pf, noiseless, np.random.default_rng(0))
        with pytest.raises(ValueError):
            pf.at_eps(eps)
    with pytest.raises(ValueError):
        filters.ParticleFilter(P, noise, 1, init)


def test_degenerate_weights_flagged():
    L, model, P, noise, truth, obs = make_linear_gaussian(13, n_steps=5)
    ys = obs.ys.copy()
    ys[2, 0] = 1e300  # unreachable observation at machine scale
    bad = ObservationSequence(eps=1e-3, h=1.0, ys=ys)
    init = observation.standard_normal_init(2)
    pf = filters.particle_filter(
        model, filters.ParticleFilter(P, noise, 200, init), bad, np.random.default_rng(14)
    )
    assert pf.degenerate_at == 3


def test_coincident_particles_have_zero_spread():
    L, model, P, noise, truth, obs = make_linear_gaussian(15, n_steps=4)

    def degenerate_init(rng, size=None):
        n = 1 if size is None else size
        return np.zeros((n, 2))

    pf = filters.particle_filter(
        model, filters.ParticleFilter(P, noise, 2, degenerate_init), obs,
        np.random.default_rng(16),
    )
    np.testing.assert_allclose(pf.post_trace, np.zeros(5), atol=1e-30)


def test_estimates_are_observation_measurable():
    # identical observations, different truth stream -> identical estimates
    model, P, noise = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    V = filters.VNorm.euclidean_plus_observed(P)
    init = observation.standard_normal_init(3)
    rng = np.random.default_rng(17)
    truth, obs = observation.generate_truth_and_observations(
        dynamics.lorenz63(), P, noise, init, 0.2, 40, 0.01, rng
    )
    other_truth = truth + 123.0  # replay against an unrelated truth
    runs = []
    for t in (truth, other_truth):
        observer = filters.FixedGainObserver(
            P, D, np.zeros(3),
            vnorm=V, radius=filters.default_ball_radius(dynamics.lorenz63(), V),
        )
        run = filters.run_observer(dynamics.lorenz63(), observer, obs, truth=t)
        runs.append(run.estimates)
    np.testing.assert_array_equal(runs[0], runs[1])

    pf_runs = []
    for _ in range(2):
        pf = filters.particle_filter(
            dynamics.lorenz63(), filters.ParticleFilter(P, noise, 500, init), obs,
            np.random.default_rng(99),
        )
        pf_runs.append(pf.estimates)
    np.testing.assert_array_equal(pf_runs[0], pf_runs[1])


def test_systematic_resample_preserves_distribution():
    rng = np.random.default_rng(18)
    w = rng.uniform(size=1000)
    w /= w.sum()
    idx = filters.systematic_resample(rng, w)
    counts = np.bincount(idx, minlength=1000) / 1000.0
    # systematic resampling keeps counts within 1/N of expectation
    assert np.abs(counts - w).max() <= 1.0 / 1000.0 + 1e-12


def particle_setups():
    """(projection, noise, complex states) of the particle filter's three
    state kinds: convection with x observed, the 60-site model with every
    third site unobserved, and the spectral flow at k_max 3."""
    l63 = observation.coordinate_projection(3, [0])
    l96 = observation.every_third_unobserved(60)
    ns = observation.fourier_cutoff(SpectralGrid(3), 2.0)
    return {
        "l63": (l63, observation.GaussianObservedNoise(l63), False),
        "l96-60": (l96, observation.GaussianObservedNoise(l96), False),
        "spectral-k3": (ns, observation.SpectralModeNoise(ns), True),
    }


PARTICLE_SETUPS = particle_setups()


def log_density_of_full_residuals(noise, resid, eps):
    """A noise class's log density of full-state residuals, masked inside:
    the reference of ``log_density`` on the observed entries."""
    r = resid[:, noise.projection.observed]
    if np.iscomplexobj(resid):
        var = (eps**2) * noise.mode_var
        return -np.sum(np.abs(r) ** 2 / var, axis=1) - np.sum(np.log(np.pi * var))
    s = eps * noise.std
    return -0.5 * np.sum((r / s) ** 2, axis=1) - r.shape[1] * np.log(s * np.sqrt(2.0 * np.pi))


@settings(max_examples=60, deadline=None)
@given(
    setup=st.sampled_from(sorted(PARTICLE_SETUPS)),
    n=st.integers(1, 64),
    scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3, 1e160]),
    log_spread=st.sampled_from([0.0, 1.0, 50.0, 700.0]),
    huge_row=st.booleans(),
    eps=st.sampled_from([1e-3, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(setup="l63", n=5000, scale=10.0, log_spread=50.0, huge_row=True, eps=0.1, seed=0)
def test_particle_step_pieces_match_their_full_state_forms(
    setup, n, scale, log_spread, huge_row, eps, seed
):
    # ParticleFilter.steps forms its likelihood residual on the observed
    # entries only, squares real deviations in place and draws its jitter
    # into a reused buffer; each must keep the bits of the full-state form
    projection, noise, spectral = PARTICLE_SETUPS[setup]
    rng = np.random.default_rng(seed)
    shape = (n, projection.dim)
    particles = scale * rng.standard_normal(shape)
    y = projection.apply(rng.standard_normal(projection.dim))
    if spectral:
        particles = particles + 1j * scale * rng.standard_normal(shape)
        y = projection.apply(y + 1j * rng.standard_normal(projection.dim))
    if huge_row:
        particles[n // 2] *= 1e200 / scale  # its squares overflow to inf
    logw = log_spread * rng.standard_normal(n)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ particles

    with np.errstate(over="ignore", invalid="ignore"):
        want = np.sum(np.abs(particles - mean) ** 2, axis=1)
        got = filters.squared_deviations(particles, mean)
        assert got.tobytes() == want.tobytes()
        obs = projection.observed
        got = noise.log_density(y[obs] - particles[:, obs], eps)
        want = log_density_of_full_residuals(noise, y - projection.apply(particles), eps)
        assert got.tobytes() == want.tobytes()

    draws = np.empty(shape)
    np.random.default_rng(seed).standard_normal(out=draws)
    assert draws.tobytes() == np.random.default_rng(seed).standard_normal(shape).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 300),
    spectral=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_squared_norm_of_a_state_is_its_batch_row(n, d, spectral, scale, seed):
    rng = np.random.default_rng(seed)
    if spectral:
        model = navier_stokes_spectral(0.5, {(1, 0): 1.0}, 8)
        r = model.grid.n_reps
        x = scale * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    else:
        model = DiscreteMapModel(np.eye(d))
        x = scale * rng.standard_normal((n, d))
    norm = model.error_norm
    batch = norm.row_values(x)
    rows = np.array([norm.row_values(row) for row in x])
    assert rows.tobytes() == batch.tobytes()


def test_export_filter_run_round_trip_columns(tmp_path):
    model, P, noise = l63_setup()
    D = filters.Gain.identity_on_observed(P)
    init = observation.standard_normal_init(3)
    rng = np.random.default_rng(19)
    truth, obs = observation.generate_truth_and_observations(
        model, P, noise, init, 0.2, 10, 0.01, rng
    )
    run = filters.run_observer(
        model, filters.FixedGainObserver(P, D, np.zeros(3)), obs, truth=truth
    )
    path = tmp_path / "run.csv"
    filters.export_filter_run(run, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,m0,m1,m2,sq_error"
    assert len(lines) == 12
