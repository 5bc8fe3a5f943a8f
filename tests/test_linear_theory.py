import numpy as np
import pytest

from chaosfilter import linear_theory as lt


def rotation(angle, scale=1.0):
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def observe(d, idx):
    P = np.zeros((d, d))
    for i in idx:
        P[i, i] = 1.0
    return P


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_identity():
    assert lt.spectral_radius(np.eye(4)) == pytest.approx(1.0)


def test_spectral_radius_scaled_rotation():
    assert lt.spectral_radius(rotation(0.77, scale=0.9)) == pytest.approx(0.9)


def test_spectral_radius_matches_power_iteration():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    # power iteration on M^T M gives the squared radius for symmetrized...
    # use repeated squaring of |M^k x|^(1/k) instead, valid for any M
    x = rng.standard_normal(5)
    k = 400
    y = x.copy()
    growth = 0.0
    for _ in range(k):
        y = M @ y
        n = np.linalg.norm(y)
        growth += np.log(n)
        y /= n
    est = np.exp(growth / k)
    assert lt.spectral_radius(M) == pytest.approx(est, rel=1e-3)


def test_spectral_radius_requires_square():
    with pytest.raises(ValueError):
        lt.spectral_radius(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# rank test


def test_observed_unstable_direction_is_detectable():
    L = np.diag([2.0, 0.5])
    assert lt.hautus_detectable(L, observe(2, [0])).detectable


def test_unobserved_unstable_direction_is_not_detectable():
    L = np.diag([2.0, 0.5])
    verdict = lt.hautus_detectable(L, observe(2, [1]))
    assert not verdict.detectable
    assert verdict.witness == pytest.approx(2.0)


def test_rotation_mixes_information_into_observed_coordinate():
    L = rotation(np.pi / 4, scale=1.1)
    assert lt.hautus_detectable(L, observe(2, [0])).detectable


def test_badly_scaled_blocks_are_judged_on_their_own_scales():
    # one rank tolerance for the stacked [lambda I - L; P] came from its
    # largest block, so a unit row of P beside a 1e20 eigenvalue, or a
    # 1e-20 row of P beside a unit one, counted as zero
    L = np.diag([1e20, 0.5])
    assert lt.hautus_detectable(L, observe(2, [0])).detectable
    assert lt.detectability_shift_equivalence(L, observe(2, [0]))
    hidden = lt.hautus_detectable(L, observe(2, [1]))
    assert not hidden.detectable and hidden.witness == 1e20
    assert lt.hautus_detectable(np.diag([2.0, 0.5]), 1e-20 * observe(2, [0])).detectable
    assert not lt.hautus_detectable(np.diag([2.0, 0.5]), 1e-20 * observe(2, [1])).detectable


def test_stable_system_always_detectable():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((3, 3))
    M *= 0.9 / lt.spectral_radius(M)
    assert lt.hautus_detectable(M, np.zeros((1, 3))).detectable


def test_shift_equivalence_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        L = rng.standard_normal((d, d))
        if rng.uniform() < 0.5:
            L *= 1.5 / lt.spectral_radius(L)  # force instability sometimes
        idx = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        P = observe(d, idx)
        assert lt.detectability_shift_equivalence(L, P)


def test_shift_equivalence_with_singular_map():
    L = np.array([[2.0, 1.0], [0.0, 0.0]])  # eigenvalues {2, 0}
    assert lt.detectability_shift_equivalence(L, observe(2, [0]))


# ---------------------------------------------------------------------------
# gain search


def test_deadbeat_scalar_gain():
    res = lt.find_gain(np.array([[2.0]]), np.array([[1.0]]))
    assert res.success
    assert res.radius == pytest.approx(0.0, abs=1e-6)
    assert res.gain[0, 0] == pytest.approx(2.0, abs=1e-6)


def test_diagonal_fixture_direct_gain_value():
    L = np.diag([2.0, 0.5])
    P = observe(2, [0])
    D = np.array([[1.5], [0.0]])
    assert lt.spectral_radius(L - D @ P[[0], :]) == pytest.approx(0.5)


def test_gain_search_succeeds_on_detectable_fixtures():
    fixtures = [
        (np.diag([2.0, 0.5]), observe(2, [0])),
        (rotation(np.pi / 4, scale=1.1), observe(2, [0])),
        (np.diag([1.2, 0.8, 1.5]), observe(3, [0, 2])),
    ]
    for L, P in fixtures:
        assert lt.hautus_detectable(L, P).detectable
        res = lt.find_gain(L, P)
        assert res.success
        assert lt.spectral_radius(L - res.gain @ P) < 1.0


def test_gain_search_fails_on_non_detectable_fixture():
    L = np.diag([2.0, 0.5])
    P = observe(2, [1])
    res = lt.find_gain(L, P, budget=3)
    assert not res.success
    assert res.radius >= 1.0


# ---------------------------------------------------------------------------
# contractive norm


def test_contractive_norm_scalar_geometric_series():
    S, alpha = lt.contractive_norm(0.9 * np.eye(2))
    np.testing.assert_allclose(S, np.eye(2) / (1.0 - 0.81), rtol=1e-12)
    assert alpha == pytest.approx(0.81, rel=1e-10)
    x = np.array([1.0, -2.0])
    M = 0.9 * np.eye(2)
    V = lambda v: v @ S @ v
    assert V(M @ x) == pytest.approx(0.81 * V(x), rel=1e-10)


def test_contractive_norm_near_unit_radius():
    # rho^2 near one: a power series for S would need about 1.6e5 terms
    S, alpha = lt.contractive_norm(0.9999 * np.eye(2))
    np.testing.assert_allclose(S, np.eye(2) / (1.0 - 0.9999**2), rtol=1e-10)
    assert alpha == pytest.approx(0.9999**2, rel=1e-12)


def test_jordan_block_needs_non_euclidean_norm():
    M = np.array([[0.9, 1.0], [0.0, 0.9]])
    assert np.linalg.norm(M, 2) > 1.0  # Euclidean norm is NOT contracted
    S, alpha = lt.contractive_norm(M)
    assert alpha < 1.0
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.standard_normal(2)
        assert (M @ x) @ S @ (M @ x) <= alpha * (x @ S @ x) + 1e-12


def test_contractive_norm_rejects_unstable_map():
    with pytest.raises(ValueError):
        lt.contractive_norm(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        lt.contractive_norm(np.diag([1.2, 0.5]))


def test_observer_map_contraction_from_found_gain():
    # find D for (L, P L), certifying contraction of (I - D P) L
    L = rotation(np.pi / 4, scale=1.1)
    P = observe(2, [0])
    res = lt.find_gain(L, P @ L)
    assert res.success
    M = (np.eye(2) - res.gain @ P) @ L
    np.testing.assert_allclose(
        lt.spectral_radius(M), lt.spectral_radius(L - res.gain @ (P @ L)), rtol=1e-12
    )
    S, alpha = lt.contractive_norm(M)
    assert alpha < 1.0
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        x = rng.standard_normal(2)
        assert (M @ x) @ S @ (M @ x) <= alpha * (x @ S @ x) + 1e-10


# ---------------------------------------------------------------------------
# brute-force oracle agreement


def eigenvector_in_kernel_verdict(L, P, tol=1e-9):
    """Independent check: not detectable iff some eigenspace of a
    non-decaying eigenvalue meets Ker P nontrivially (via SVD null spaces)."""
    d = L.shape[0]
    lams = np.linalg.eigvals(L)
    for lam in lams:
        if abs(lam) < 1.0 - tol:
            continue
        A = lam * np.eye(d) - L
        _, s, vh = np.linalg.svd(A)
        null_mask = np.abs(s) < 1e-9 * max(1.0, np.abs(s).max())
        basis = vh[len(s) - null_mask.sum():].conj().T
        if basis.shape[1] == 0:
            basis = vh[-1:].conj().T  # numerically smallest singular direction
        PB = P @ basis
        if np.linalg.matrix_rank(PB, tol=1e-9) < basis.shape[1]:
            return False
    return True


def test_hautus_matches_bruteforce_on_integer_matrices():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 250:
        L = rng.integers(-2, 3, size=(4, 4)).astype(float)
        idx = rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
        P = observe(4, idx)
        got = lt.hautus_detectable(L, P).detectable
        want = eigenvector_in_kernel_verdict(L, P)
        assert got == want, f"L={L}, observed={idx}"
        assert lt.detectability_shift_equivalence(L, P)
        checked += 1
