"""Monte Carlo experiment engine and empirical probes.

The central protocol: draw ``n_inits`` signal starts, pair each with
``n_noise`` observation noise realizations, filter every combination at
every noise strength, and aggregate the squared estimation error at final
time. Every (filter, eps, trial) row of a fixed-gain filter advances in
one batch with the truth, in a single thread, on noise drawn from each
trial's substream a fixed chunk of steps at a time, so without a particle
filter, and in final-error mode, nothing the run holds grows with T. Rows
keep their place in the batch: a row that leaves float range is stepped on
from zero and ignored, and a row whose squared error is not finite is
excluded. All randomness flows through named substreams of one master
seed, so reports are byte-stable under any trial order, batch and chunk.
"""

import csv
from dataclasses import dataclass, field
import numpy as np

from . import filters
from .dynamics import BlowUpError, RealStateModel
from .observation import ObservationSequence, format_float, outputs_on_success, substream


# ---------------------------------------------------------------------------
# scaling fit


def fit_scaling_exponent(points):
    """Least-squares slope of log MSE against log eps.

    Returns ``(slope, half_width)`` where the half-width is the 95%
    confidence radius from the regression residuals.
    """
    points = [(float(e), float(m)) for e, m in points]
    if len(points) < 3:
        raise ValueError("need at least three (eps, mse) points")
    eps = np.array([p[0] for p in points])
    mse = np.array([p[1] for p in points])
    # a set, not np.unique, which would import numpy.ma (about 15 ms)
    if len(set(eps.tolist())) != eps.size:
        raise ValueError("eps values must be distinct")
    if np.any(eps <= 0) or np.any(mse <= 0):
        raise ValueError("eps and mse must be positive for a log-log fit")
    coeffs, cov = np.polyfit(np.log(eps), np.log(mse), 1, cov=True)
    half = 1.96 * float(np.sqrt(max(cov[0, 0], 0.0)))
    return float(coeffs[0]), half


# ---------------------------------------------------------------------------
# MSE experiment

@dataclass
class MseRow:
    filter_name: str
    eps: float
    mse: float
    stderr: float
    n_used: int
    n_excluded: int


@dataclass
class MseReport:
    rows: list
    slopes: dict
    seed: int
    config_echo: dict = field(default_factory=dict)

    def row(self, filter_name, eps) -> MseRow:
        for r in self.rows:
            if r.filter_name == filter_name and r.eps == eps:
                return r
        raise KeyError((filter_name, eps))


#: steps of noise drawn at once from each trial's substream; a block takes
#: the same draws as its chunks, so no report depends on this number
NOISE_CHUNK = 64


def _row_steps(config, model, projection, noise, groups, starts, row_group, row_trial):
    """Advance the truth of every signal start and every fixed-gain row.

    The state holds the starts, then one row per (``row_group``,
    ``row_trial``) pair, each of a group whose estimator is a
    FixedGainObserver; every row keeps its place for the whole run. Truth
    and rows step together, in one ``step_batch`` call per step, and every
    row is analysed in one ``assimilate`` call per step, of the observer
    that stacks the rows' estimators, on noise drawn ``NOISE_CHUNK`` steps
    at a time from each trial's substream. Yields ``(live, state)`` for
    j = 0..J, or until nothing is live: ``live`` marks the states that
    never left float range and the rows whose truth did not either. A dead
    state is set to zero, a finite stand-in that is stepped and analysed
    like any other and read by no one.
    """
    n_noise, n_starts = config.n_noise, starts.shape[0]
    n_trials = n_starts * n_noise
    row_truth = row_trial // n_noise
    row_eps = np.array([eps for _, eps, _ in groups], dtype=float)[row_group, None]
    rngs = [substream(config.seed, "noise", *divmod(t, n_noise)) for t in range(n_trials)]
    state = starts
    if row_group.size:
        observer = filters.FixedGainObserver.stacked([groups[g][2] for g in row_group])
        state = np.concatenate([starts, observer.z0])
    live = np.ones(state.shape[0], dtype=bool)
    yield live, state
    for j in range(config.n_steps):
        if not live.any():
            return
        try:
            state = model.step_batch(state, config.h)
        except BlowUpError as exc:
            state, live = exc.states, live & ~exc.bad
            live[n_starts:] &= live[row_truth]
            state[~live] = 0
        if row_group.size:
            if j % NOISE_CHUNK == 0:
                chunk = np.stack([noise.sample(rng, NOISE_CHUNK) for rng in rngs])
            ys = (
                projection.apply(state[:n_starts])[row_truth]
                + row_eps * chunk[row_trial, j % NOISE_CHUNK]
            )
            state[n_starts:] = observer.assimilate(state[n_starts:], ys)
        yield live, state


def run_mse_experiment(config) -> MseReport:
    """Execute the full protocol described by an ExperimentConfig.

    Trials are (signal start, noise realization) pairs. The fixed-gain
    filters (observer, truncated observer, 3DVAR) run as (filter, eps,
    trial) rows that advance together with the truth, one batch per step
    (see ``_row_steps``); the per-row arithmetic is that of a single
    state, so the numbers do not depend on the batch. Every row keeps its
    place for the whole run: a row that leaves float range is marked dead,
    stepped from zero and ignored. Noise is drawn per chunk of steps, so in
    final-error mode without a particle filter nothing held grows with T.
    Particle filters then run one trial at a time on the stored truth,
    drawing their trial's noise block again. A trial's error is the mean
    of its squared errors over the scored steps: the last, or the second
    half in time-averaged mode. A truth that leaves float range excludes
    every filter of its trials; a filter row that does, a particle run that
    degenerates, or an error that is not finite, excludes only its own
    (filter, eps, trial).
    """
    from . import config as cfgmod

    model = cfgmod.build_model(config.model)
    projection = cfgmod.build_projection(config.observation, model)
    noise = cfgmod.build_noise(config.noise, projection)
    init_sampler = cfgmod.build_init_sampler(config.model, model)
    runners = [
        cfgmod.build_filter_runner(spec, model, projection, noise, init_sampler)
        for spec in config.filters
    ]
    config.check_memory(model)
    seed, h, n_steps, n_noise = config.seed, config.h, config.n_steps, config.n_noise
    n_starts = config.n_inits
    n_trials = n_starts * n_noise  # trial t pairs start t // n_noise with noise t % n_noise
    # one group per (filter, eps), in report order
    groups = [
        (spec["name"], eps, runner.at_eps(eps))
        for spec, runner in zip(config.filters, runners)
        for eps in config.epsilons
    ]
    fixed = [
        g for g, (_, _, est) in enumerate(groups) if isinstance(est, filters.FixedGainObserver)
    ]
    per_trial = [g for g in range(len(groups)) if g not in fixed]
    # the fixed-gain rows after the starts, by group, then by trial
    row_group = np.repeat(fixed, n_trials).astype(int)
    row_trial = np.tile(np.arange(n_trials), len(fixed))

    starts = np.stack(
        [init_sampler(substream(seed, "init", i)) for i in range(n_starts)]
    )
    truths = None
    if per_trial:
        truths = np.empty((n_starts, n_steps + 1) + starts.shape[1:], dtype=starts.dtype)
    first = n_steps // 2 if config.mse_mode == "time-averaged" else n_steps
    # row-major, so that each (group, trial)'s mean sums in the order np.mean
    # of its scored steps alone does
    scored = np.zeros((len(groups), n_trials, n_steps + 1 - first))
    excluded = np.ones((len(groups), n_trials), dtype=bool)
    norm = model.error_norm
    steps = _row_steps(config, model, projection, noise, groups, starts, row_group, row_trial)
    for j, (live, state) in enumerate(steps):
        truth = state[:n_starts]
        if truths is not None:
            truths[:, j] = truth
        if j >= first:
            scored[row_group, row_trial, j - first] = norm.row_values(
                truth[row_trial // n_noise] - state[n_starts:]
            )
    excluded[row_group, row_trial] = ~live[n_starts:]

    for t in range(n_trials):
        i, k = divmod(t, n_noise)
        if not per_trial or not live[i]:
            continue
        observed = projection.apply(truths[i, 1:])
        w = noise.sample(substream(seed, "noise", i, k), n_steps)
        for g in per_trial:
            name, eps, est = groups[g]
            obs = ObservationSequence(eps=eps, h=h, ys=observed + eps * w)
            rng = substream(seed, "filter", name, i, k, format_float(eps))
            try:
                run = filters.particle_filter(model, est, obs, rng, truth=truths[i])
            except BlowUpError:
                continue
            if run.degenerate_at is None:
                scored[g, t] = run.sq_errors[first:]
                excluded[g, t] = False
    with np.errstate(over="ignore"):
        errors = scored.mean(axis=2)
    excluded |= ~np.isfinite(errors)

    rows = []
    slopes = {}
    n_eps = len(config.epsilons)
    for f, spec in enumerate(config.filters):
        fit_points = []
        for e, eps in enumerate(config.epsilons):
            g = f * n_eps + e
            arr = errors[g][~excluded[g]]
            # finite errors may sum or spread past float range
            with np.errstate(over="ignore", invalid="ignore"):
                mse = float(arr.mean()) if arr.size else float("nan")
                stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            rows.append(
                MseRow(spec["name"], eps, mse, stderr, arr.size, int(excluded[g].sum()))
            )
            if eps > 0 and 0 < mse < np.inf:
                fit_points.append((eps, mse))
        if len(fit_points) >= 3:
            slopes[spec["name"]] = fit_scaling_exponent(fit_points)
    return MseReport(
        rows=rows, slopes=slopes, seed=config.seed, config_echo=config.echo()
    )


# ---------------------------------------------------------------------------
# report I/O


def write_report(report: MseReport, path):
    """CSV table of the Monte Carlo errors plus a plain-text sidecar with
    the generating configuration; byte-stable for a fixed seed. Neither
    file is replaced unless both are written."""
    with outputs_on_success(path, str(path) + ".meta") as (csv_tmp, meta_tmp):
        with open(csv_tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["filter", "epsilon", "mse", "stderr", "n_trials", "excluded"])
            for r in report.rows:
                writer.writerow([r.filter_name, *map(format_float, (r.eps, r.mse, r.stderr)),
                                 r.n_used, r.n_excluded])
        with open(meta_tmp, "w") as fh:
            fh.write(f"seed = {report.seed}\n")
            for key in sorted(report.config_echo):
                fh.write(f"{key} = {report.config_echo[key]}\n")
            for name in sorted(report.slopes):
                slope, half = report.slopes[name]
                fh.write(f"slope[{name}] = {format_float(slope)} +- {format_float(half)}\n")


# ---------------------------------------------------------------------------
# squeezing probe


class DiscreteMapModel(RealStateModel):
    """Wraps a matrix as a one-step signal map, for probing linear maps."""

    def __init__(self, M, name="linear-map"):
        self.M = np.asarray(M, dtype=float)
        self.dim = self.M.shape[0]
        self.name = name

    def step(self, u, h, substeps=None):
        return self.M @ u

    def step_batch(self, states, h, substeps=None):
        # one matrix-vector product per row, so each row gets the bits of step
        return np.array([self.M @ row for row in states]).reshape(np.shape(states))


def sample_v_ball(rng, vnorm, radius, size):
    """``size`` uniform draws from {V(x)^(1/2) <= radius} for a diagonal V:
    uniform draws from a Euclidean ball, in a real and an imaginary
    coordinate per entry for complex states, divided by sqrt(w) entry by
    entry."""
    dim = vnorm.weights.size
    k = 2 * dim if vnorm.dtype == complex else dim
    x = rng.standard_normal((size, k))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= radius * rng.uniform(size=(size, 1)) ** (1.0 / k)
    if k > dim:
        x = x[:, :dim] + 1j * x[:, dim:]
    return x / np.sqrt(vnorm.weights)


@dataclass
class SqueezeEntry:
    radius_signal: float
    radius_estimator: float
    alpha_hat: float
    frac_above_one: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def empirical_squeezing(
    model,
    gain,
    vnorm,
    h,
    r_pairs,
    n_samples,
    rng,
    substeps=None,
    batch=2048,
) -> list:
    """Sample the one-step contraction ratio of the observation-corrected
    difference map over ball pairs.

    For each radius pair ``(r_signal, r_estimator)`` the probe draws the
    first point uniformly from the signal ball (the ball of the model's
    error norm), the second from the estimator V-ball, and records
    ``V((I - D)(Psi(v) - Psi(u))) / V(v - u)`` (D is zero off the observed
    coordinates, so D P = D). A maximum below one
    supports (but cannot prove) one-step contraction at this radius pair.
    Returns one ``SqueezeEntry`` per pair, in order.
    """
    entries = []
    for r_sig, r_est in r_pairs:
        ratios = np.empty(n_samples)
        done = 0
        while done < n_samples:
            m = min(batch, n_samples - done)
            v = sample_v_ball(rng, model.error_norm, r_sig, size=m)
            u = sample_v_ball(rng, vnorm, r_est, size=m)
            fv = model.step_batch(v, h, substeps=substeps)
            fu = model.step_batch(u, h, substeps=substeps)
            delta = fv - fu
            corr = delta - gain.apply(delta)
            ratios[done : done + m] = vnorm.row_values(corr) / vnorm.row_values(v - u)
            done += m
        top = max(1.0, float(ratios.max()))
        counts, edges = np.histogram(ratios, bins=50, range=(0.0, top * 1.0001))
        entries.append(
            SqueezeEntry(
                radius_signal=float(r_sig),
                radius_estimator=float(r_est),
                alpha_hat=float(ratios.max()),
                frac_above_one=float(np.mean(ratios > 1.0)),
                hist_counts=counts,
                hist_edges=edges,
            )
        )
    return entries


def write_squeeze_histogram(entries, path):
    """CSV of (radius pair, ratio-bin, count) for every probed pair."""
    with outputs_on_success(path) as (tmp,), open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius_signal", "radius_estimator", "bin_low", "bin_high", "count"])
        for e in entries:
            for b in range(e.hist_counts.size):
                writer.writerow(
                    [
                        format_float(e.radius_signal),
                        format_float(e.radius_estimator),
                        format_float(e.hist_edges[b]),
                        format_float(e.hist_edges[b + 1]),
                        int(e.hist_counts[b]),
                    ]
                )
