import csv
import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from chaosfilter import config as cfgmod
from chaosfilter import dynamics, filters, harness, linear_theory, observation
from chaosfilter.config import ExperimentConfig

# truths, filter rows, squared errors and particle clouds leave float range
BLOWUP_CFG = os.path.join(os.path.dirname(__file__), "goldens", "l63_blowup.cfg")
TRUNC_CFG = os.path.join(os.path.dirname(__file__), "goldens", "l63_trunc_3dvar.cfg")


# ---------------------------------------------------------------------------
# scaling fit


def test_exact_quadratic_slope():
    pts = [(e, 3.7 * e**2) for e in (1.0, 0.1, 0.01)]
    slope, half = harness.fit_scaling_exponent(pts)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-9)


def test_reference_table_slope_arithmetic():
    pts = [(1.0, 1.59), (0.1, 1.3e-2), (0.01, 4.93e-4)]
    slope, _ = harness.fit_scaling_exponent(pts)
    assert slope == pytest.approx(
        np.log(1.59 / 4.93e-4) / np.log(100.0), abs=0.02
    )
    assert slope == pytest.approx(1.75, abs=0.01)


def test_kalman_steady_state_slope_is_two():
    # steady-state covariance of the scalar unstable filter scales as eps^2
    P = observation.coordinate_projection(1, [0])
    L = np.array([[2.0]])
    pts = []
    for eps in (1.0, 0.1, 0.01):
        mean, cov = np.zeros(1), np.eye(1)
        for _ in range(300):
            mean, cov = filters.kalman_filter_step(
                L, P, np.eye(1), eps, mean, cov, np.zeros(1)
            )
        pts.append((eps, cov[0, 0]))
    slope, half = harness.fit_scaling_exponent(pts)
    assert slope == pytest.approx(2.0, abs=0.01)
    assert half < 0.01


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.fit_scaling_exponent([(1.0, 1.0), (0.1, 0.1)])
    with pytest.raises(ValueError):
        harness.fit_scaling_exponent([(1.0, 1.0), (0.1, -0.1), (0.01, 0.1)])
    with pytest.raises(ValueError):
        harness.fit_scaling_exponent([(1.0, 1.0), (1.0, 0.1), (0.01, 0.1)])


# ---------------------------------------------------------------------------
# MSE experiment


def tiny_config(**overrides):
    base = dict(
        model={"kind": "lorenz63"},
        observation={"kind": "coordinate-mask", "observed": "0"},
        noise={},
        filters=[{"name": "trunc", "kind": "truncated-observer"}],
        epsilons=[1.0, 0.1, 0.01],
        h=0.01,
        T=0.5,
        n_inits=2,
        n_noise=2,
        seed=1234,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_mse_experiment_shape_and_accounting():
    report = harness.run_mse_experiment(tiny_config())
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.n_used + row.n_excluded == 4
        assert row.mse >= 0.0
    assert "trunc" in report.slopes


def test_mse_experiment_deterministic():
    r1 = harness.run_mse_experiment(tiny_config())
    r2 = harness.run_mse_experiment(tiny_config())
    for a, b in zip(r1.rows, r2.rows):
        assert a.mse == b.mse and a.stderr == b.stderr


def test_mse_experiment_seed_sensitivity_is_statistical():
    ra = harness.run_mse_experiment(tiny_config(seed=1, n_inits=6, n_noise=2))
    rb = harness.run_mse_experiment(tiny_config(seed=2, n_inits=6, n_noise=2))
    # different seed, different numbers, agreement within Monte Carlo error
    assert any(a.mse != b.mse for a, b in zip(ra.rows, rb.rows))
    for a, b in zip(ra.rows, rb.rows):
        assert abs(a.mse - b.mse) <= 3.0 * float(np.hypot(a.stderr, b.stderr))


def test_degenerate_particle_trials_are_excluded():
    cfg = tiny_config(
        filters=[
            {"name": "trunc", "kind": "truncated-observer"},
            {"name": "pf", "kind": "particle", "n_particles": "50"},
        ],
        epsilons=[1e-300],
        n_inits=1,
        n_noise=1,
    )
    report = harness.run_mse_experiment(cfg)
    pf_row = report.row("pf", 1e-300)
    assert pf_row.n_excluded == 1 and pf_row.n_used == 0
    t_row = report.row("trunc", 1e-300)
    assert t_row.n_used == 1


def test_particle_only_experiment():
    # no fixed-gain rows: only the truth steps in the batched loop
    cfg = tiny_config(
        filters=[{"name": "pf", "kind": "particle", "n_particles": "50"}],
        epsilons=[0.5],
        n_inits=1,
        n_noise=2,
    )
    row = harness.run_mse_experiment(cfg).row("pf", 0.5)
    assert row.n_used == 2 and row.n_excluded == 0
    assert np.isfinite(row.mse)


def test_time_averaged_mode():
    report = harness.run_mse_experiment(tiny_config(mse_mode="time-averaged"))
    assert all(np.isfinite(r.mse) for r in report.rows)


def test_noise_free_full_observation_is_exact():
    # with every coordinate observed and unit gain, the estimate IS the
    # (noise-free) observation from the first step on
    cfg = tiny_config(
        observation={"kind": "coordinate-mask", "observed": "0 1 2"},
        epsilons=[0.0],
        n_inits=2,
        n_noise=1,
    )
    report = harness.run_mse_experiment(cfg)
    row = report.row("trunc", 0.0)
    assert row.mse == 0.0


def test_multiple_filters_reported():
    cfg = tiny_config(
        filters=[
            {"name": "trunc", "kind": "truncated-observer"},
            {"name": "plain", "kind": "observer"},
            {"name": "blend", "kind": "3dvar", "sigma2": "0.5"},
        ]
    )
    report = harness.run_mse_experiment(cfg)
    names = {r.filter_name for r in report.rows}
    assert names == {"trunc", "plain", "blend"}


@pytest.mark.parametrize("seed", range(1, 9))
def test_overflowing_errors_are_excluded_without_warnings(seed):
    # at seeds 1, 3 and 6 a finite 3DVAR row has a squared error past
    # float range, which must exclude it and not make the row's mse inf
    cfg = cfgmod.load_experiment_config(BLOWUP_CFG, seed_override=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = harness.run_mse_experiment(cfg)
    for row in report.rows:
        assert np.isfinite(row.mse) or (np.isnan(row.mse) and row.n_used == 0), row
    assert report.slopes
    for slope, half in report.slopes.values():
        assert np.isfinite(slope) and np.isfinite(half)


@pytest.mark.parametrize("seed", [11, 3])
def test_every_used_engine_row_equals_its_filter_run_alone(seed):
    # the fixed-gain filters of the blow-up golden, each (filter, eps) row
    # against run_observer on every trial alone: a truth or a filter that
    # leaves float range, or a final squared error past it (3DVAR at seed
    # 3), excludes the trial
    cfg = cfgmod.load_experiment_config(BLOWUP_CFG, seed_override=seed)
    cfg = dataclasses.replace(
        cfg, filters=[spec for spec in cfg.filters if spec["kind"] != "particle"]
    )
    assert cfg.n_noise == 2 and len(cfg.filters) == 4 and len(cfg.epsilons) > 1
    report = harness.run_mse_experiment(cfg)

    model = cfgmod.build_model(cfg.model)
    projection = cfgmod.build_projection(cfg.observation, model)
    noise = cfgmod.build_noise(cfg.noise, projection)
    init_sampler = cfgmod.build_init_sampler(cfg.model, model)
    trials = []
    for t in range(cfg.n_inits * cfg.n_noise):
        i, k = divmod(t, cfg.n_noise)
        truth = [init_sampler(observation.substream(seed, "init", i))]
        try:
            for _ in range(cfg.n_steps):
                truth.append(model.step(truth[-1], cfg.h))
        except dynamics.BlowUpError:
            truth = None
        w = noise.sample(observation.substream(seed, "noise", i, k), cfg.n_steps)
        trials.append((truth, w))
    assert any(truth is None for truth, _ in trials)

    for spec in cfg.filters:
        runner = cfgmod.build_filter_runner(spec, model, projection, noise, init_sampler)
        for eps in cfg.epsilons:
            observer = runner.at_eps(eps)
            used = []
            for truth, w in trials:
                if truth is None:
                    continue
                truth = np.array(truth)
                ys = projection.apply(truth[1:]) + eps * w
                obs = observation.ObservationSequence(eps=eps, h=cfg.h, ys=ys)
                try:
                    run = filters.run_observer(model, observer, obs, truth=truth)
                except dynamics.BlowUpError:
                    continue
                if np.isfinite(run.sq_errors[-1]):
                    used.append(run.sq_errors[-1])
            row = report.row(spec["name"], eps)
            assert (row.n_used, row.n_excluded) == (len(used), len(trials) - len(used))
            if used:
                assert row.mse == np.mean(used), (spec["name"], eps)
            else:
                assert np.isnan(row.mse)


def test_every_fixed_gain_row_is_analysed_in_one_call_per_step(monkeypatch):
    # two truncated observers at different radii and 3DVAR at three eps
    cfg = cfgmod.load_experiment_config(TRUNC_CFG)
    calls = []
    assimilate = filters.FixedGainObserver.assimilate

    def counted(self, FZ, Y):
        calls.append(FZ.shape[0])
        return assimilate(self, FZ, Y)

    monkeypatch.setattr(filters.FixedGainObserver, "assimilate", counted)
    harness.run_mse_experiment(cfg)
    n_rows = len(cfg.filters) * len(cfg.epsilons) * cfg.n_inits * cfg.n_noise
    assert calls == [n_rows] * cfg.n_steps


def _traced_peak_of_experiment(cfg):
    """Peak traced allocation, in bytes, of one Monte Carlo run."""
    tracemalloc.start()
    try:
        harness.run_mse_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_gain_experiment_memory_does_not_grow_with_horizon():
    # noise comes in chunks of NOISE_CHUNK steps, and without a particle
    # filter no truth is stored, so at 200 and 800 steps the run holds the
    # same arrays
    assert 2 * harness.NOISE_CHUNK <= 200
    peaks = {}
    for T in (2, 2, 8):  # the first run loads what a run loads once
        peaks[T] = _traced_peak_of_experiment(tiny_config(
            model={"kind": "lorenz96", "dimension": "60"},
            observation={"kind": "every-third-unobserved"},
            filters=[
                {"name": "trunc", "kind": "truncated-observer"},
                {"name": "blend", "kind": "3dvar", "sigma2": "0.5"},
            ],
            epsilons=[0.1, 0.01],
            T=T,
        ))
    assert peaks[8] < 1.05 * peaks[2], peaks


# ---------------------------------------------------------------------------
# report I/O


def test_report_round_trip(tmp_path):
    report = harness.run_mse_experiment(tiny_config())
    path = tmp_path / "report.csv"
    harness.write_report(report, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["filter", "epsilon", "mse", "stderr", "n_trials", "excluded"]
    assert len(rows) == len(report.rows)
    for got, want in zip(rows, report.rows):
        assert got[0] == want.filter_name
        assert float(got[1]) == want.eps
        assert float(got[2]) == want.mse
        assert float(got[3]) == want.stderr
        assert float(got[4]) == want.n_used
        assert float(got[5]) == want.n_excluded


def test_report_bytes_stable(tmp_path):
    blobs = []
    for run in range(2):
        report = harness.run_mse_experiment(tiny_config())
        path = tmp_path / f"r{run}.csv"
        harness.write_report(report, path)
        blobs.append(path.read_bytes() + (tmp_path / f"r{run}.csv.meta").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# squeezing probe


def l63_probe_pieces():
    model = dynamics.lorenz63()
    P = observation.coordinate_projection(3, [0])
    gain = filters.Gain.identity_on_observed(P)
    vnorm = filters.VNorm.euclidean_plus_observed(P)
    r = dynamics.absorbing_radius(model)
    R = filters.default_ball_radius(model, vnorm)
    return model, P, gain, vnorm, r, R


def test_probe_contracts_at_small_radii():
    model, P, gain, vnorm, r, R = l63_probe_pieces()
    rng = observation.substream(7, "probe-small")
    res = harness.empirical_squeezing(
        model, gain, vnorm, 0.01, [(0.05 * r, 0.05 * R)], 3000, rng
    )
    assert res[0].alpha_hat < 1.0


def test_probe_detects_loss_of_contraction_at_large_h():
    model, P, gain, vnorm, r, R = l63_probe_pieces()
    rng = observation.substream(8, "probe-largeh")
    res = harness.empirical_squeezing(
        model, gain, vnorm, 2.0, [(0.05 * r, 0.05 * R)], 500, rng, substeps=2000
    )
    assert res[0].alpha_hat >= 1.0


def test_probe_linear_map_respects_analytic_factor():
    # x^T S x = |C x|^2 with S = C^T C, so in the coordinates y = C x the
    # map is C M C^-1 and the certified norm is Euclidean: unit weights
    M = np.array([[0.8, 0.3], [0.0, 0.7]])
    S, alpha = linear_theory.contractive_norm(M)
    C = np.linalg.cholesky(S).T
    vnorm = filters.VNorm(np.ones(2))
    model = harness.DiscreteMapModel(C @ M @ np.linalg.inv(C))
    P = observation.coordinate_projection(2, [0])
    rng = observation.substream(9, "probe-linear")
    res = harness.empirical_squeezing(
        model, filters.Gain.zero(), vnorm, 1.0, [(1.0, 1.0)], 5000, rng
    )
    assert res[0].alpha_hat <= alpha + 1e-9


def test_probe_histogram_accounts_everything():
    model, P, gain, vnorm, r, R = l63_probe_pieces()
    rng = observation.substream(10, "probe-hist")
    res = harness.empirical_squeezing(
        model, gain, vnorm, 0.01, [(0.1 * r, 0.1 * R)], 2000, rng
    )
    e = res[0]
    assert e.hist_counts.sum() == 2000
    assert e.hist_edges[0] == 0.0


def test_squeeze_histogram_csv(tmp_path):
    model, P, gain, vnorm, r, R = l63_probe_pieces()
    rng = observation.substream(11, "probe-csv")
    res = harness.empirical_squeezing(
        model, gain, vnorm, 0.01, [(0.05 * r, 0.05 * R)], 500, rng
    )
    path = tmp_path / "hist.csv"
    harness.write_squeeze_histogram(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "radius_signal,radius_estimator,bin_low,bin_high,count"
    assert len(lines) == 51


def test_sample_v_ball_respects_radius():
    P = observation.coordinate_projection(3, [0])
    vnorm = filters.VNorm.euclidean_plus_observed(P)
    rng = np.random.default_rng(12)
    draws = harness.sample_v_ball(rng, vnorm, 2.5, size=500)
    for x in draws:
        assert np.sqrt(vnorm.row_values(x)) <= 2.5 + 1e-12


def test_sample_euclidean_ball_uniformity():
    rng = np.random.default_rng(13)
    # the ball of unit weights is the Euclidean ball
    draws = harness.sample_v_ball(rng, filters.VNorm(np.ones(3)), 1.0, size=40_000)
    radii = np.linalg.norm(draws, axis=1)
    # P(|x| <= t) = t^3 in a uniform 3-ball
    assert np.mean(radii <= 0.5) == pytest.approx(0.125, abs=0.01)
    assert radii.max() <= 1.0


# ---------------------------------------------------------------------------
# posterior spread


def test_posterior_spread_scales_quadratically_in_eps():
    # with roughening proportional to eps the whole effective system is
    # eps-homogeneous, so the long-run posterior spread follows eps^2
    model = dynamics.lorenz63()
    P = observation.coordinate_projection(3, [0])
    noise = observation.GaussianObservedNoise(P)
    init = observation.standard_normal_init(3)
    points = []
    for eps in (1.0, 0.3, 0.1):
        vals = []
        for trial in range(3):
            rng = observation.substream(31, "sweep", trial)
            truth, obs = observation.generate_truth_and_observations(
                model, P, noise, init, eps, 300, 0.01, rng
            )
            pf = filters.particle_filter(
                model, filters.ParticleFilter(P, noise, 2000, init, jitter=0.2 * eps), obs,
                observation.substream(32, "pf", trial, str(eps)),
            )
            assert pf.degenerate_at is None
            vals.append(np.mean(pf.post_trace[200:]))
        points.append((eps, float(np.mean(vals))))
    slope, _ = harness.fit_scaling_exponent(points)
    assert slope == pytest.approx(2.0, abs=0.25)


def test_particle_run_carries_posterior_spread():
    model = harness.DiscreteMapModel(0.9 * np.eye(2))
    P = observation.coordinate_projection(2, [0])
    noise = observation.GaussianObservedNoise(P)
    init = observation.standard_normal_init(2)
    ys = np.zeros((5, 2))
    obs = observation.ObservationSequence(eps=0.5, h=1.0, ys=ys)
    pf = filters.particle_filter(
        model, filters.ParticleFilter(P, noise, 200, init), obs, np.random.default_rng(14)
    )
    assert pf.degenerate_at is None
    assert pf.post_trace.shape == (6,)
    assert np.all(pf.post_trace >= 0.0)

    observer = filters.FixedGainObserver(P, filters.Gain.identity_on_observed(P), np.zeros(2))
    plain = filters.run_observer(model, observer, obs)
    assert plain.post_trace is None and plain.ess is None
