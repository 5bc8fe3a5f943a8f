"""Monte Carlo experiment engine and empirical probes.

The central protocol: draw ``n_inits`` signal starts, pair each with
``n_noise`` observation noise realizations, filter every combination at
every noise strength, and aggregate the squared estimation error at final
time. Trials run one after another in a single thread. All randomness
flows through named substreams of one master seed, so reports are
byte-stable under any trial order.
"""

import csv
from dataclasses import dataclass, field
import numpy as np

from .dynamics import BlowUpError
from .observation import ObservationSequence, substream


def _fmt(x) -> str:
    return format(float(x), ".17g")


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
    if np.unique(eps).size != eps.size:
        raise ValueError("eps values must be distinct")
    if np.any(eps <= 0) or np.any(mse <= 0):
        raise ValueError("eps and mse must be positive for a log-log fit")
    coeffs, cov = np.polyfit(np.log(eps), np.log(mse), 1, cov=True)
    half = 1.96 * float(np.sqrt(max(cov[0, 0], 0.0)))
    return float(coeffs[0]), half


# ---------------------------------------------------------------------------
# MSE experiment

TRIAL_EXCLUDED = "excluded"


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


def _final_error(run, mode, n_steps):
    if mode == "time-averaged":
        tail = run.sq_errors[n_steps // 2 :]
        return float(np.mean(tail))
    return float(run.sq_errors[-1])


def run_mse_experiment(config) -> MseReport:
    """Execute the full protocol described by an ExperimentConfig."""
    from . import config as cfgmod

    model = cfgmod.build_model(config.model)
    projection = cfgmod.build_projection(config.observation, model)
    noise = cfgmod.build_noise(config.noise, projection)
    init_sampler = cfgmod.build_init_sampler(config.model, model)
    runners = [
        cfgmod.build_filter_runner(spec, model, projection, noise, init_sampler)
        for spec in config.filters
    ]
    n_steps = config.n_steps
    trial_ids = [(i, k) for i in range(config.n_inits) for k in range(config.n_noise)]

    def one_trial(task):
        i, k = task
        v0 = init_sampler(substream(config.seed, "init", i))
        truth = np.empty((n_steps + 1,) + v0.shape, dtype=v0.dtype)
        truth[0] = v0
        v = v0
        try:
            for j in range(n_steps):
                v = model.step(v, config.h)
                truth[j + 1] = v
        except BlowUpError:
            return {
                (spec["name"], eps): TRIAL_EXCLUDED
                for spec in config.filters
                for eps in config.epsilons
            }
        g_noise = substream(config.seed, "noise", i, k)
        w_seq = np.stack([noise.sample(g_noise) for _ in range(n_steps)])
        observed_truth = np.stack([projection.apply(truth[j + 1]) for j in range(n_steps)])
        out = {}
        for eps in config.epsilons:
            obs = ObservationSequence(
                eps=eps, h=config.h, ys=observed_truth + eps * w_seq
            )
            for spec, runner in zip(config.filters, runners):
                rng = substream(
                    config.seed, "filter", spec["name"], i, k, _fmt(eps)
                )
                try:
                    run = runner(truth, obs, eps, rng)
                    if run.degenerate_at is not None:
                        out[(spec["name"], eps)] = TRIAL_EXCLUDED
                    else:
                        out[(spec["name"], eps)] = _final_error(
                            run, config.mse_mode, n_steps
                        )
                except (BlowUpError, FloatingPointError):
                    out[(spec["name"], eps)] = TRIAL_EXCLUDED
        return out

    results = [one_trial(t) for t in trial_ids]

    rows = []
    slopes = {}
    for spec in config.filters:
        fit_points = []
        for eps in config.epsilons:
            errs = [res[(spec["name"], eps)] for res in results]
            used = [e for e in errs if e is not TRIAL_EXCLUDED]
            excluded = len(errs) - len(used)
            arr = np.array(used, dtype=float)
            mse = float(arr.mean()) if arr.size else float("nan")
            stderr = (
                float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            )
            rows.append(MseRow(spec["name"], eps, mse, stderr, arr.size, excluded))
            if eps > 0 and arr.size and mse > 0:
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
    the generating configuration; byte-stable for a fixed seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filter", "epsilon", "mse", "stderr", "n_trials", "excluded"])
        for r in report.rows:
            writer.writerow(
                [r.filter_name, _fmt(r.eps), _fmt(r.mse), _fmt(r.stderr), r.n_used, r.n_excluded]
            )
    with open(str(path) + ".meta", "w") as fh:
        fh.write(f"seed = {report.seed}\n")
        for key in sorted(report.config_echo):
            fh.write(f"{key} = {report.config_echo[key]}\n")
        for name in sorted(report.slopes):
            slope, half = report.slopes[name]
            fh.write(f"slope[{name}] = {_fmt(slope)} +- {_fmt(half)}\n")


def read_report(path):
    """Read back the CSV part of a report as a list of MseRow."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["filter", "epsilon", "mse", "stderr", "n_trials", "excluded"]
        if header != expected:
            raise ValueError(f"unexpected report header: {header}")
        for rec in reader:
            rows.append(
                MseRow(rec[0], float(rec[1]), float(rec[2]), float(rec[3]), int(rec[4]), int(rec[5]))
            )
    return rows


# ---------------------------------------------------------------------------
# squeezing probe


class DiscreteMapModel:
    """Wraps a matrix as a one-step signal map, for probing linear maps."""

    def __init__(self, M, name="linear-map"):
        self.M = np.asarray(M, dtype=float)
        self.dim = self.M.shape[0]
        self.name = name

    def step(self, u, h, substeps=None):
        return self.M @ u

    def step_batch(self, states, h, substeps=None):
        return states @ self.M.T


def sample_euclidean_ball(rng, dim, radius, size=None):
    """Uniform draws from the Euclidean ball of the given radius."""
    n = 1 if size is None else size
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return x[0] if size is None else x


def sample_v_ball(rng, vnorm, radius, dim, size=None):
    """Uniform draws from {V(x)^(1/2) <= radius} for a diagonal or quadratic V."""
    n = 1 if size is None else size
    if vnorm.kind == "h1":
        xi = sample_euclidean_ball(rng, 2 * dim, radius, size=n)
        scale = np.sqrt(vnorm.weights)
        out = (xi[:, :dim] + 1j * xi[:, dim:]) / scale
    elif vnorm.matrix is not None:
        lam, Q = np.linalg.eigh(vnorm.matrix)
        xi = sample_euclidean_ball(rng, dim, radius, size=n)
        out = (xi / np.sqrt(lam)) @ Q.T
    else:
        xi = sample_euclidean_ball(rng, dim, radius, size=n)
        out = xi / np.sqrt(vnorm.weights)
    return out[0] if size is None else out


@dataclass
class SqueezeEntry:
    radius_signal: float
    radius_estimator: float
    alpha_hat: float
    frac_above_one: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


@dataclass
class SqueezeProbeResult:
    entries: list

    @property
    def alpha_hat(self):
        return self.entries[0].alpha_hat


def empirical_squeezing(
    model,
    projection,
    gain,
    vnorm,
    h,
    r_pairs,
    n_samples,
    rng,
    substeps=None,
    batch=2048,
) -> SqueezeProbeResult:
    """Sample the one-step contraction ratio of the observation-corrected
    difference map over ball pairs.

    For each radius pair ``(r_signal, r_estimator)`` the probe draws the
    first point uniformly from the signal ball (Euclidean for
    finite-dimensional models, the V-ball for spectral ones), the second
    from the estimator V-ball, and records
    ``V((I - D P)(Psi(v) - Psi(u))) / V(v - u)``. A maximum below one
    supports (but cannot prove) one-step contraction at this radius pair.
    """
    spectral = hasattr(model, "grid")
    dim = model.dim
    entries = []
    for r_sig, r_est in r_pairs:
        ratios = np.empty(n_samples)
        done = 0
        while done < n_samples:
            m = min(batch, n_samples - done)
            if spectral:
                v = sample_v_ball(rng, vnorm, r_sig, dim, size=m)
            else:
                v = sample_euclidean_ball(rng, dim, r_sig, size=m)
            u = sample_v_ball(rng, vnorm, r_est, dim, size=m)
            fv = model.step_batch(v, h, substeps=substeps)
            fu = model.step_batch(u, h, substeps=substeps)
            delta = fv - fu
            corr = delta - gain.apply(projection.apply(delta))
            if vnorm.matrix is not None:
                num = np.einsum("ij,jk,ik->i", corr, vnorm.matrix, corr)
                den = np.einsum("ij,jk,ik->i", v - u, vnorm.matrix, v - u)
            else:
                num = np.sum(vnorm.weights * np.abs(corr) ** 2, axis=1)
                den = np.sum(vnorm.weights * np.abs(v - u) ** 2, axis=1)
            ratios[done : done + m] = num / den
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
    return SqueezeProbeResult(entries=entries)


def write_squeeze_histogram(result: SqueezeProbeResult, path):
    """CSV of (radius pair, ratio-bin, count) for every probed pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius_signal", "radius_estimator", "bin_low", "bin_high", "count"])
        for e in result.entries:
            for b in range(e.hist_counts.size):
                writer.writerow(
                    [
                        _fmt(e.radius_signal),
                        _fmt(e.radius_estimator),
                        _fmt(e.hist_edges[b]),
                        _fmt(e.hist_edges[b + 1]),
                        int(e.hist_counts[b]),
                    ]
                )


# ---------------------------------------------------------------------------
# posterior spread


def posterior_variance_trace(run):
    """Per-step trace of the weighted ensemble covariance of a particle run."""
    if run.post_trace is None:
        raise ValueError("run carries no posterior variance (not a particle run?)")
    if run.degenerate_at is not None:
        raise ValueError(
            f"particle run degenerated at step {run.degenerate_at}; trace unusable"
        )
    return np.array(run.post_trace, copy=True)
