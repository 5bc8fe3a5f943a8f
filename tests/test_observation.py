import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaosfilter import dynamics, filters, observation
from chaosfilter.spectral import SpectralGrid, navier_stokes_spectral


# ---------------------------------------------------------------------------
# projections


def test_first_coordinate_projection():
    P = observation.coordinate_projection(3, [0])
    np.testing.assert_allclose(P.apply(np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 0.0])


def test_projection_idempotent_and_orthogonal():
    P = observation.coordinate_projection(5, [0, 2])
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    np.testing.assert_array_equal(P.apply(P.apply(x)), P.apply(x))
    assert P.apply(x) @ P.complement(x) == 0.0
    np.testing.assert_allclose(P.apply(x) + P.complement(x), x)


def test_full_observation_and_empty_rejection():
    P = observation.coordinate_projection(4, range(4))
    x = np.arange(4.0)
    np.testing.assert_array_equal(P.apply(x), x)
    np.testing.assert_array_equal(P.complement(x), np.zeros(4))
    with pytest.raises(ValueError):
        observation.coordinate_projection(4, [])
    with pytest.raises(ValueError):
        observation.coordinate_projection(4, [4])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=20))
def test_observed_indices_are_sorted_and_distinct(indices):
    P = observation.coordinate_projection(10, indices)
    expected = np.unique(np.asarray(indices, dtype=int))
    assert P.observed.dtype == expected.dtype
    np.testing.assert_array_equal(P.observed, expected)
    assert P.n_observed == expected.size


def test_every_third_unobserved_pattern():
    P = observation.every_third_unobserved(6)
    assert P.observed.tolist() == [0, 1, 3, 4]
    assert np.count_nonzero(P.mask) == 4
    with pytest.raises(ValueError):
        observation.every_third_unobserved(7)


def test_every_third_commutes_with_triple_shift():
    d = 12
    P = np.diag(observation.every_third_unobserved(d).mask.astype(float))
    shift = np.roll(np.eye(d), 3, axis=1)
    np.testing.assert_allclose(P @ shift, shift @ P)


def test_fourier_cutoff_unit_shell():
    grid = SpectralGrid(4)
    P = observation.fourier_cutoff(grid, 1.0)
    # the 4 unit wavevectors form 2 conjugate pairs -> 2 representatives
    assert P.n_observed == 2
    assert P.n_retained == 4
    kept = {tuple(grid.full[i]) for i in P.observed}
    assert kept == {(1, 0), (0, 1)}


def test_fourier_cutoff_everything_and_nothing():
    grid = SpectralGrid(4)
    full = observation.fourier_cutoff(grid, 2 * (4**2) + 1)
    x = np.arange(grid.n_reps, dtype=complex)
    np.testing.assert_array_equal(full.apply(x), x)
    assert np.all(full.complement(x) == 0)
    with pytest.raises(ValueError):
        observation.fourier_cutoff(grid, 0.5)


def test_cutoff_complement_annihilates_retained():
    grid = SpectralGrid(4)
    P = observation.fourier_cutoff(grid, 4.0)
    x = np.random.default_rng(1).standard_normal(grid.n_reps) + 0j
    assert np.all(P.complement(P.apply(x)) == 0)
    assert np.all(P.apply(P.complement(x)) == 0)


# ---------------------------------------------------------------------------
# noise


def test_single_observed_coordinate_noise_is_unit():
    P = observation.coordinate_projection(3, [0])
    noise = observation.GaussianObservedNoise(P)
    rng = np.random.default_rng(2)
    draws = np.stack([noise.sample(rng) for _ in range(4000)])
    assert np.all(draws[:, 1:] == 0.0)
    assert np.var(draws[:, 0]) == pytest.approx(1.0, rel=0.1)


def test_noise_power_normalization_l96():
    P = observation.every_third_unobserved(6)
    noise = observation.GaussianObservedNoise(P)
    rng = np.random.default_rng(3)
    power = np.mean(
        [np.sum(noise.sample(rng) ** 2) for _ in range(100_000)]
    )
    assert 0.99 <= power <= 1.01


def test_noise_supported_on_observed():
    P = observation.every_third_unobserved(6)
    noise = observation.GaussianObservedNoise(P)
    rng = np.random.default_rng(4)
    w = noise.sample(rng)
    np.testing.assert_array_equal(P.complement(w), np.zeros(6))
    np.testing.assert_array_equal(P.apply(w), w)


def test_per_coordinate_normalization_flag():
    P = observation.every_third_unobserved(6)
    noise = observation.GaussianObservedNoise(P, per_coordinate=True)
    rng = np.random.default_rng(5)
    power = np.mean([np.sum(noise.sample(rng) ** 2) for _ in range(20000)])
    assert power == pytest.approx(4.0, rel=0.05)


def test_spectral_noise_h1_power():
    grid = SpectralGrid(8)
    P = observation.fourier_cutoff(grid, 9.0)
    noise = observation.SpectralModeNoise(P)
    rng = np.random.default_rng(6)
    h1 = filters.VNorm.h1(grid)
    power = np.mean(
        [h1.row_values(noise.sample(rng)) for _ in range(20000)]
    )
    assert power == pytest.approx(1.0, abs=0.02)


def test_spectral_noise_supported_on_cutoff():
    grid = SpectralGrid(4)
    P = observation.fourier_cutoff(grid, 2.0)
    noise = observation.SpectralModeNoise(P)
    w = noise.sample(np.random.default_rng(7))
    assert np.all(P.complement(w) == 0)


def test_noise_covariance_matches_declared_variances():
    P = observation.every_third_unobserved(6)
    noise = observation.GaussianObservedNoise(P)
    rng = np.random.default_rng(8)
    n = 100_000
    draws = np.stack([noise.sample(rng) for _ in range(n)])
    var = draws.var(axis=0)
    se = noise.std**2 * np.sqrt(2.0 / n)  # std error of a normal variance estimate
    for idx in P.observed:
        assert abs(var[idx] - noise.std**2) < 3.0 * se


NOISE_KINDS = [
    observation.GaussianObservedNoise(observation.coordinate_projection(3, [0])),
    observation.GaussianObservedNoise(observation.every_third_unobserved(60)),
] + [
    observation.SpectralModeNoise(observation.fourier_cutoff(SpectralGrid(k_max), k_max**2))
    for k_max in range(1, 5)
]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(range(len(NOISE_KINDS))),
    a=st.integers(1, 70),
    b=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_chunks_draw_the_block_bit_for_bit(kind, a, b, seed):
    # the Monte Carlo engine draws each trial's noise in chunks, and a
    # particle run draws the whole block again from the same substream
    noise = NOISE_KINDS[kind]
    rng = np.random.default_rng(seed)
    chunks = np.concatenate([noise.sample(rng, a), noise.sample(rng, b)])
    rng = np.random.default_rng(seed)
    singles = np.stack([noise.sample(rng) for _ in range(a + b)])
    block = noise.sample(np.random.default_rng(seed), a + b)
    assert chunks.tobytes() == block.tobytes()
    assert singles.tobytes() == block.tobytes()


# ---------------------------------------------------------------------------
# synthesis


def _setup_l63():
    model = dynamics.lorenz63()
    P = observation.coordinate_projection(3, [0])
    noise = observation.GaussianObservedNoise(P)
    init = observation.standard_normal_init(3)
    return model, P, noise, init


def test_noise_free_observations_equal_projected_truth():
    model, P, noise, init = _setup_l63()
    rng = np.random.default_rng(9)
    truth, obs = observation.generate_truth_and_observations(
        model, P, noise, init, 0.0, 50, 0.01, rng
    )
    for j in range(50):
        np.testing.assert_array_equal(obs.ys[j], P.apply(truth[j + 1]))


def test_fixed_seed_reproducibility():
    model, P, noise, init = _setup_l63()
    out = []
    for _ in range(2):
        rng = np.random.default_rng(10)
        truth, obs = observation.generate_truth_and_observations(
            model, P, noise, init, 0.5, 30, 0.01, rng
        )
        out.append((truth, obs.ys))
    np.testing.assert_array_equal(out[0][0], out[1][0])
    np.testing.assert_array_equal(out[0][1], out[1][1])


def test_truth_independent_of_eps():
    model, P, noise, init = _setup_l63()
    truths = []
    for eps in (0.0, 0.3, 2.0):
        rng = np.random.default_rng(11)
        truth, _ = observation.generate_truth_and_observations(
            model, P, noise, init, eps, 25, 0.01, rng
        )
        truths.append(truth)
    np.testing.assert_array_equal(truths[0], truths[1])
    np.testing.assert_array_equal(truths[0], truths[2])


def test_observations_have_no_unobserved_energy():
    model, P, noise, init = _setup_l63()
    rng = np.random.default_rng(12)
    _, obs = observation.generate_truth_and_observations(
        model, P, noise, init, 1.0, 40, 0.01, rng
    )
    for j in range(obs.n_steps):
        np.testing.assert_array_equal(P.complement(obs.ys[j]), np.zeros(3))


def test_table_protocol_step_count():
    # h = 0.01 up to final time 5 means 500 assimilation steps
    assert int(round(5.0 / 0.01)) == 500


# ---------------------------------------------------------------------------
# substreams


def test_substream_independent_of_order():
    a1 = observation.substream(42, "noise", 3, 1).standard_normal(4)
    _ = observation.substream(42, "noise", 0, 0).standard_normal(4)
    a2 = observation.substream(42, "noise", 3, 1).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)


def test_substream_distinct_tags_differ():
    x = observation.substream(42, "init", 0).standard_normal(4)
    y = observation.substream(42, "noise", 0).standard_normal(4)
    assert not np.allclose(x, y)


# ---------------------------------------------------------------------------
# CSV round trips


def test_observation_csv_round_trip(tmp_path):
    model, P, noise, init = _setup_l63()
    rng = np.random.default_rng(13)
    _, obs = observation.generate_truth_and_observations(
        model, P, noise, init, 0.7, 20, 0.01, rng
    )
    path = tmp_path / "obs.csv"
    observation.export_observations(obs, P, path)
    back = observation.import_observations(path, P)
    assert back.eps == obs.eps
    assert back.h == obs.h
    np.testing.assert_array_equal(back.ys, obs.ys)


def test_observation_csv_round_trip_spectral(tmp_path):
    model = navier_stokes_spectral(0.5, {(1, 0): 1.0}, 3)
    P = observation.fourier_cutoff(model.grid, 2.0)
    noise = observation.SpectralModeNoise(P)
    init = observation.spectral_smooth_init(model.grid)
    rng = np.random.default_rng(14)
    _, obs = observation.generate_truth_and_observations(
        model, P, noise, init, 0.2, 5, 0.01, rng
    )
    path = tmp_path / "obs_ns.csv"
    observation.export_observations(obs, P, path)
    back = observation.import_observations(path, P)
    np.testing.assert_array_equal(back.ys, obs.ys)


def test_truth_csv_round_trip(tmp_path):
    model, P, noise, init = _setup_l63()
    rng = np.random.default_rng(15)
    truth, _ = observation.generate_truth_and_observations(
        model, P, noise, init, 0.7, 10, 0.01, rng
    )
    path = tmp_path / "truth.csv"
    observation.export_truth(truth, path)
    np.testing.assert_array_equal(observation.import_truth(path), truth)


@pytest.mark.parametrize(
    "bad_line,message",
    [
        (b"2,1.0\r\n", r"line 4: 2 fields, the header has 4"),
        (b"2,1.0,2.0,3.0,4.0\r\n", r"line 4: 5 fields, the header has 4"),
        (b"2,1.0,x,3.0\r\n", r"line 4: could not convert string to float: 'x'"),
        (b"\r\n", r"line 4: 1 fields, the header has 4"),
    ],
    ids=["short", "long", "bad-number", "blank"],
)
def test_malformed_truth_rows_are_rejected_by_line(tmp_path, bad_line, message):
    path = tmp_path / "truth.csv"
    observation.export_truth(np.arange(6.0).reshape(2, 3), path)
    path.write_bytes(path.read_bytes() + bad_line)
    with pytest.raises(ValueError, match=message):
        observation.import_truth(path)


def test_export_is_byte_stable(tmp_path):
    model, P, noise, init = _setup_l63()
    blobs = []
    for _ in range(2):
        rng = np.random.default_rng(16)
        _, obs = observation.generate_truth_and_observations(
            model, P, noise, init, 0.5, 15, 0.01, rng
        )
        path = tmp_path / "stable.csv"
        observation.export_observations(obs, P, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_repeated_observation_rows_are_rejected(tmp_path):
    ys = np.array([[1.5258 + 0.5j, 0.0], [2.0 - 1.0j, 0.0]])
    seq = observation.ObservationSequence(eps=0.1, h=0.01, ys=ys)
    path = tmp_path / "obs.csv"
    P = observation.CoordinateProjection(2, [0])
    observation.export_observations(seq, P, path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[1] == b"1,0r,1.5258\r\n"
    path.write_bytes(b"".join(lines + [lines[1]]))
    with pytest.raises(ValueError, match=r"line 6: step 1, index '0r' given twice"):
        observation.import_observations(path, P)


def test_missing_observation_rows_are_rejected(tmp_path):
    ys = np.array([[1.5, 0.0, 2.5], [2.0, 0.0, -1.0], [0.5, 0.0, 3.0]])
    seq = observation.ObservationSequence(eps=0.1, h=0.01, ys=ys)
    path = tmp_path / "obs.csv"
    P = observation.CoordinateProjection(3, [0, 2])
    observation.export_observations(seq, P, path)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    assert rows[3] == b"2,2,-1\r\n"
    # rows may come in any order
    path.write_bytes(b"".join([header] + rows[::-1]))
    assert observation.import_observations(path, P).ys.tobytes() == ys.tobytes()
    # an observed index is required at every step, even when no step has it
    path.write_bytes(b"".join([header] + rows[0::2]))
    with pytest.raises(ValueError, match=r"step 1 has no row for index '2'"):
        observation.import_observations(path, P)
    path.write_bytes(b"".join([header] + rows[:3] + rows[4:]))
    with pytest.raises(ValueError, match=r"step 2 has no row for index '2'"):
        observation.import_observations(path, P)


def test_unobserved_rows_must_hold_zero(tmp_path):
    ys = np.array([[1.5, 0.0, 2.5], [2.0, 0.0, -1.0]])
    seq = observation.ObservationSequence(eps=0.1, h=0.01, ys=ys)
    path = tmp_path / "obs.csv"
    P = observation.CoordinateProjection(3, [0, 2])
    observation.export_observations(seq, P, path)
    written = path.read_bytes()
    # zeros at the unobserved index, at one step only and repeated, are ignored
    path.write_bytes(written + b"2,1,0\r\n2,1,-0\r\n")
    assert observation.import_observations(path, P).ys.tobytes() == ys.tobytes()
    bad = {
        b"1,1,0.5\r\n": r"line 6: 0.5 at index '1', but values at indices the model "
                       r"does not observe must be 0",
        b"1,1,nan\r\n": r"line 6: nan at index '1'",
        b"1,3,0\r\n": r"line 6: index 3 outside \[0, 3\)",
        b"1,1r,0\r\n": r"line 6: bad index token '1r'",
        b"3,1,0\r\n": r"line 6: step 3 outside 1..2",
        # an observed index spelt another way is no unobserved one
        b"1,02,0\r\n": r"line 6: bad index token '02'",
    }
    for line, message in bad.items():
        path.write_bytes(written + line)
        with pytest.raises(ValueError, match=message):
            observation.import_observations(path, P)


@pytest.mark.parametrize("key,value", [
    ("h", "0"), ("h", "-0.01"), ("h", "nan"), ("h", "inf"),
    ("eps", "-1"), ("eps", "nan"), ("eps", "inf"),
])
def test_bad_meta_values_are_rejected(tmp_path, key, value):
    seq = observation.ObservationSequence(eps=0.1, h=0.01, ys=np.ones((2, 1)))
    path = tmp_path / "obs.csv"
    P = observation.CoordinateProjection(1, [0])
    observation.export_observations(seq, P, path)
    meta = path.with_name("obs.csv.meta")
    lines = meta.read_text().splitlines()
    meta.write_text("".join(
        f"{key} = {value}\n" if ln.startswith(key + " ") else ln + "\n" for ln in lines
    ))
    with pytest.raises(ValueError, match=rf"\.meta: {key} must be .*, got '{value}'"):
        observation.import_observations(path, P)


# awkward values every writer must carry through: signed zeros, subnormals,
# magnitudes near the float limits and infinities
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf,
]


def float_tables(allow_nan=False, shape=st.tuples(st.integers(1, 6), st.integers(1, 5))):
    elements = st.one_of(
        st.floats(allow_nan=allow_nan, width=64), st.sampled_from(SPECIAL_FLOATS)
    )
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def tables(draw, allow_nan=False):
    """A real table, or a complex one whose parts are set without arithmetic."""
    real = draw(float_tables(allow_nan))
    if not draw(st.booleans()):
        return real
    imag = draw(float_tables(allow_nan, shape=real.shape))
    out = np.empty(real.shape, dtype=np.complex128)
    out.real, out.imag = real, imag
    return out


@settings(max_examples=60, deadline=None)
@given(truth=tables())
def test_truth_csv_round_trip_is_bit_exact(truth):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "truth.csv")
        observation.export_truth(truth, path)
        back = observation.import_truth(path)
    assert back.dtype == truth.dtype and back.tobytes() == truth.tobytes()


@settings(max_examples=60, deadline=None)
@given(ys=tables(), data=st.data())
def test_observation_csv_round_trip_is_bit_exact(ys, data):
    dim = ys.shape[1]
    observed = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
    projection = observation.CoordinateProjection(dim, observed)
    ys = projection.apply(ys)
    eps = data.draw(st.floats(0.0, 1e300))
    h = data.draw(st.floats(1e-300, 1e300))
    seq = observation.ObservationSequence(eps=eps, h=h, ys=ys)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.csv")
        observation.export_observations(seq, projection, path)
        back = observation.import_observations(path, projection)
    assert (back.eps, back.h) == (eps, h)
    assert back.ys.dtype == ys.dtype and back.ys.tobytes() == ys.tobytes()


@settings(max_examples=60, deadline=None)
@given(est=tables(allow_nan=True), data=st.data())
def test_filter_run_csv_parses_back_to_equal_values(est, data):
    n = est.shape[0]
    column = hnp.arrays(np.float64, n, elements=st.floats(width=64))
    sq_errors = data.draw(st.none() | column)
    ess = data.draw(st.none() | column)
    run = filters.FilterRun(estimates=est, sq_errors=sq_errors, ess=ess)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        filters.export_filter_run(run, path)
        with open(path, newline="") as fh:
            text = fh.read()
        rows = list(csv.reader(text.splitlines()))
    assert text.endswith("\r\n") and text.count("\r\n") == n + 1
    parts = ("r", "i") if np.iscomplexobj(est) else ("",)
    header = ["j"] + [f"m{i}{p}" for i in range(est.shape[1]) for p in parts]
    header += [name for name, col in (("sq_error", sq_errors), ("ess", ess)) if col is not None]
    assert rows[0] == header
    assert [int(row[0]) for row in rows[1:]] == list(range(n))
    got = np.array([row[1:] for row in rows[1:]], dtype=float)
    want = est
    if np.iscomplexobj(est):
        want = np.empty((n, 2 * est.shape[1]))
        want[:, 0::2], want[:, 1::2] = est.real, est.imag
    extra = [col[:, None] for col in (sq_errors, ess) if col is not None]
    want = np.hstack([want] + extra)
    np.testing.assert_array_equal(got, want)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))
