"""State estimators: fixed-gain observers, their ball-truncated variant,
the exact Kalman filter for linear signals, and a bootstrap particle filter.

Each estimator yields one :class:`FilterStep` per step
(``FixedGainObserver.steps``, ``ParticleFilter.steps`` and the Kalman
recursion of :func:`run_kalman`); :func:`collect_run` gathers a stream into
a :class:`FilterRun` and :func:`write_filter_steps` writes it as it comes.

The fixed-gain observer follows ``z' = (I - D P) Psi(z) + D y``. Every gain
D is diagonal and zero off the observed coordinates, so D P = D. Truncation
composes that update with the metric projection onto a ball in a chosen
diagonal norm, which bounds the estimator against noise outliers without
touching its behaviour in the ordinary regime.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .observation import TableWriter, write_table


class FilterNumericsError(RuntimeError):
    """Raised when a filter update is numerically impossible (singular innovation)."""


# ---------------------------------------------------------------------------
# diagonal norms


class VNorm:
    """Diagonal quadratic form V(x) = sum_i w_i |x_i|^2, a squared Hilbert
    norm on real or complex states of ``dtype``: unit weights, |u|^2 + |P u|^2
    (``euclidean_plus_observed``) or the Sobolev norm (``h1``)."""

    def __init__(self, weights, dtype=float):
        self.weights = np.asarray(weights, dtype=float)
        self.dtype = np.dtype(dtype)

    @classmethod
    def euclidean_plus_observed(cls, projection):
        w = np.ones(projection.dim)
        w[projection.observed] = 2.0
        return cls(w)

    @classmethod
    def h1(cls, grid):
        # sum_k |k|^2 |v_k|^2 over the full lattice: a complex
        # representative coefficient counts twice (the +/-k pair)
        return cls(2.0 * grid.k2_reps, complex)

    def row_values(self, x):
        """V of a state, or of each row of a (n, dim) batch: inf for a row
        whose V is past float range. A row reduces on its own, so a state's
        value is bit for bit its row's."""
        with np.errstate(over="ignore"):
            return np.sum(self.weights * np.abs(x) ** 2, axis=-1)


def project_ball_V(vnorm: VNorm, radius, x):
    """Closest point of the ball {V(u)^(1/2) <= radius} in the V norm.

    A (n, dim) batch is projected row by row, each row onto the ball of
    ``radius`` or, given one radius per row, of its own (an infinite radius
    leaves its row as it is): only the rows whose V norm exceeds their
    radius are rescaled. A finite row whose V is past float range is sized
    from the row divided by its largest |entry|."""
    if np.any(np.asarray(radius) <= 0):
        raise ValueError("ball radius must be positive")
    x = np.asarray(x)
    if x.ndim == 1:
        return project_ball_V(vnorm, radius, x[None])[0]
    sizes = np.sqrt(vnorm.row_values(x))
    out = x.copy()
    outside = ~(sizes <= radius) & (radius < np.inf)
    if outside.any():
        huge = np.isinf(sizes) & np.isfinite(x).all(axis=1)
        top = np.abs(x[huge]).max(axis=1, keepdims=True)
        sizes[huge] = top[:, 0] * np.sqrt(vnorm.row_values(x[huge] / top))
        # only the rows outside are divided: a zero row has size 0
        radius = np.broadcast_to(radius, sizes.shape)[outside]
        out[outside] = x[outside] * (radius / sizes[outside])[:, None]
    return out


# ---------------------------------------------------------------------------
# gains


class Gain:
    """Diagonal gain: each coordinate of ``mask`` scaled by its weight (by
    one without ``weights``), every other coordinate zeroed."""

    def __init__(self, mask, weights=None):
        self.mask = mask
        self.weights = weights

    @classmethod
    def identity_on_observed(cls, projection):
        return cls(projection.mask)

    @classmethod
    def zero(cls):
        return cls(False)

    def apply(self, x):
        """D x for a state, or for each row of a (n, dim) batch."""
        return np.where(self.mask, x if self.weights is None else x * self.weights, 0.0)


# ---------------------------------------------------------------------------
# observer updates


def _check_observation(projection, y):
    rem = projection.complement(y)
    if np.any(rem != 0):
        raise ValueError("observation has energy outside the observed subspace")


class FixedGainObserver:
    """Fixed-gain observer ``z' = (I - D P) Psi(z) + D y`` over a batch of
    rows, optionally followed by the metric projection onto a V-ball.

    The forecast ``Psi(z)`` is the caller's: ``assimilate`` takes forecast
    rows and their observations, so that one model step can advance the
    rows of many estimators, and the truth, together. Every row is updated
    with the same arithmetic as a single state.
    """

    def __init__(self, projection, gain, z0, vnorm: Optional[VNorm] = None, radius=None):
        if vnorm is not None and radius is None:
            raise ValueError("a truncated observer needs a ball radius")
        self.projection = projection
        self.gain = gain
        self.z0 = np.asarray(z0)
        self.vnorm = vnorm
        self.radius = radius
        self.kind = "observer" if vnorm is None else "truncated-observer"

    def at_eps(self, eps):
        """The estimator used at noise strength eps: this one, its gain is fixed."""
        return self

    @classmethod
    def stacked(cls, observers):
        """One observer over a batch whose row i starts from
        ``observers[i].z0`` and is updated exactly as ``observers[i]`` alone
        would update it.

        The observers share their projection and, where truncated, their
        V norm. Gain masks, weights and starts are stacked row by row; a
        row without weights takes weights of one, which multiply real rows
        exactly, and the rows of an observer without a ball get an
        infinite radius."""
        first, dim = observers[0], observers[0].z0.size
        mask = np.stack([np.broadcast_to(o.gain.mask, dim) for o in observers])
        weights = [o.gain.weights for o in observers]
        weights = None if all(w is None for w in weights) else np.stack(
            [np.ones(dim) if w is None else w for w in weights])
        radius = np.array([np.inf if o.vnorm is None else o.radius for o in observers])
        vnorm = next((o.vnorm for o in observers if o.vnorm is not None), None)
        z0 = np.stack([o.z0 for o in observers])
        return cls(first.projection, Gain(mask, weights), z0, vnorm=vnorm, radius=radius)

    def assimilate(self, FZ, Y):
        """Analysis rows from forecast rows ``FZ`` and observation rows ``Y``."""
        _check_observation(self.projection, Y)
        Z = FZ - self.gain.apply(FZ) + self.gain.apply(Y)
        if self.vnorm is not None:
            Z = project_ball_V(self.vnorm, self.radius, Z)
        return Z

    def steps(self, model, observations, rng=None):
        """Yield the :class:`FilterStep` of j = 0..J on one observation
        sequence: this estimator at one row, forecast one model step at a
        time (``rng`` is unused)."""
        z = self.z0[None]
        yield FilterStep(z[0])
        for j in range(observations.n_steps):
            z = self.assimilate(
                model.step_batch(z, observations.h), observations.ys[j : j + 1]
            )
            yield FilterStep(z[0])


def _step_one(observer, model, z, y_next, h):
    return observer.assimilate(model.step(z, h)[None], np.asarray(y_next)[None])[0]


def observer_step(model, projection, gain, z, y_next, h):
    """One fixed-gain update z' = (I - D P) Psi(z) + D y of a single state."""
    return _step_one(FixedGainObserver(projection, gain, z), model, z, y_next, h)


def truncated_observer_step(model, projection, gain, vnorm, radius, m, y_next, h):
    """Observer update followed by metric projection onto the V-ball."""
    observer = FixedGainObserver(projection, gain, m, vnorm=vnorm, radius=radius)
    return _step_one(observer, model, m, y_next, h)


def default_ball_radius(model, vnorm) -> float:
    """Default truncation radius: that of the smallest ``vnorm`` ball
    holding the absorbing ball (radius r in the model's error norm),
    r sqrt(max w_V / w_err). That is sqrt(2) r for |u|^2 + |P u|^2 over the
    Euclidean norm, and r for the spectral flow, whose two norms agree."""
    from .dynamics import absorbing_radius

    ratio = np.max(vnorm.weights / model.error_norm.weights)
    return float(absorbing_radius(model) * np.sqrt(ratio))


# ---------------------------------------------------------------------------
# filter runs


class FilterStep(NamedTuple):
    """One step of an estimator: its estimate, the effective sample size of
    the particle filter, and the posterior spread of the particle and
    Kalman filters (the trace of the posterior covariance)."""

    estimate: np.ndarray
    ess: Optional[float] = None
    post_trace: Optional[float] = None


@dataclass
class FilterRun:
    """Per-step output of one estimator on one observation sequence."""

    kind: str
    estimates: np.ndarray
    sq_errors: Optional[np.ndarray] = None
    ess: Optional[np.ndarray] = None
    post_trace: Optional[np.ndarray] = None
    degenerate_at: Optional[int] = None


def scored_steps(norm: VNorm, steps, truth=None):
    """``(step, squared error)`` for each of an estimator's ``steps``, the
    error in ``norm`` against the matching state of ``truth`` (any iterable
    of states), or None without a truth."""
    if truth is None:
        for step in steps:
            yield step, None
        return
    for step, state in zip(steps, truth):
        yield step, norm.row_values(state - step.estimate)


def collect_run(norm: VNorm, kind, steps, n_steps, truth=None) -> FilterRun:
    """The :class:`FilterRun` of an estimator's ``steps`` j = 0..n_steps,
    each stored into its row of preallocated arrays as it comes, with its
    squared error in ``norm`` when ``truth`` is given."""
    run = None
    for j, (step, sq_error) in enumerate(scored_steps(norm, steps, truth)):
        if run is None:
            shape, dtype = (n_steps + 1,) + step.estimate.shape, step.estimate.dtype
            run = FilterRun(kind=kind, estimates=np.empty(shape, dtype=dtype))
            if truth is not None:
                run.sq_errors = np.empty(n_steps + 1)
            if step.ess is not None:
                run.ess = np.empty(n_steps + 1)
            if step.post_trace is not None:
                run.post_trace = np.empty(n_steps + 1)
        run.estimates[j] = step.estimate
        if run.sq_errors is not None:
            run.sq_errors[j] = sq_error
        if run.ess is not None:
            run.ess[j] = step.ess
        if run.post_trace is not None:
            run.post_trace[j] = step.post_trace
    if run.ess is not None:
        # the effective sample size is at least 1 while the weights are
        # finite, and reads 0 from the step at which they degenerated
        degenerate = np.flatnonzero(run.ess == 0.0)
        if degenerate.size:
            run.degenerate_at = int(degenerate[0])
    return run


def run_observer(model, observer: FixedGainObserver, observations, truth=None) -> FilterRun:
    """Drive a fixed-gain observer through an observation sequence."""
    steps = observer.steps(model, observations)
    return collect_run(model.error_norm, observer.kind, steps, observations.n_steps, truth)


# ---------------------------------------------------------------------------
# Kalman filtering for linear signals


def _kalman_gain(cov, projection, gamma, eps):
    """K = C P^T (P C P^T + eps^2 Gamma)^-1, solved on the observed block;
    the columns of unobserved indices are zero."""
    obs = projection.observed
    block = np.ix_(obs, obs)
    S = cov[block] + eps**2 * np.asarray(gamma, dtype=float)[block]
    try:
        sol = np.linalg.solve(S, cov[:, obs].T).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError("singular innovation covariance") from exc
    if not np.isfinite(sol).all():
        raise FilterNumericsError("singular innovation covariance")
    K = np.zeros(cov.shape)
    K[:, obs] = sol
    return K


def kalman_gain_3dvar(sigma2, projection, gamma, eps) -> Gain:
    """Fixed gain K = C P^T (P C P^T + eps^2 Gamma)^-1 with C = sigma2 I,
    which is diagonal and zero off the observed coordinates."""
    K = _kalman_gain(sigma2 * np.eye(projection.dim), projection, gamma, eps)
    return Gain(projection.mask, np.diag(K))


class ThreeDVar:
    """3DVAR: the fixed-gain observer whose gain
    K = C P^T (P C P^T + eps^2 Gamma)^-1, C = sigma2 I, depends on the noise
    strength."""

    def __init__(self, sigma2, projection, gamma, z0):
        self.sigma2 = sigma2
        self.projection = projection
        self.gamma = gamma
        self.z0 = np.asarray(z0)

    def at_eps(self, eps) -> FixedGainObserver:
        """The observer with the gain of noise strength eps (one gain build)."""
        gain = kalman_gain_3dvar(self.sigma2, self.projection, self.gamma, eps)
        return FixedGainObserver(self.projection, gain, self.z0)


def kalman_filter_step(L, projection, gamma, eps, mean, cov, y_next):
    """One predict/update cycle for the linear signal v' = L v.

    The covariance update uses the Joseph form, which matches the textbook
    information-form recursion whenever the latter is defined but also
    tolerates singular covariances (e.g. a deterministic start).
    """
    _check_observation(projection, y_next)
    L = np.asarray(L, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    pred_cov = L @ cov @ L.T
    K = _kalman_gain(pred_cov, projection, gamma, eps)
    # K is zero off the observed columns, so K P = K
    IKP = np.eye(L.shape[0]) - K
    new_mean = IKP @ (L @ mean) + K @ y_next
    new_cov = IKP @ pred_cov @ IKP.T + eps**2 * (K @ gamma @ K.T)
    new_cov = 0.5 * (new_cov + new_cov.T)
    return new_mean, new_cov


def run_kalman(L, projection, gamma, eps, mean0, cov0, observations, truth=None) -> FilterRun:
    """Exact Gaussian filtering for the linear signal, with tr C_j as the
    posterior spread of each step and the Euclidean squared error."""

    def steps():
        mean = np.asarray(mean0, dtype=float)
        cov = np.asarray(cov0, dtype=float)
        yield FilterStep(mean, post_trace=np.trace(cov))
        for y in observations.ys:
            mean, cov = kalman_filter_step(L, projection, gamma, eps, mean, cov, y)
            yield FilterStep(mean, post_trace=np.trace(cov))

    return collect_run(VNorm(np.ones(len(L))), "kalman", steps(), observations.n_steps, truth)


# ---------------------------------------------------------------------------
# bootstrap particle filter


def squared_deviations(particles, mean):
    """|x - mean|^2 of each particle x, bit for bit
    ``np.sum(np.abs(particles - mean) ** 2, axis=1)``.

    Real deviations are squared in place. numpy adds fewer than 8 terms of
    a row left to right, so up to 7 columns are summed that way, one pass
    over the batch per column, instead of one short reduction per row."""
    dev = particles - mean
    if np.iscomplexobj(dev):
        return np.sum(np.abs(dev) ** 2, axis=1)
    np.multiply(dev, dev, out=dev)
    if dev.shape[1] >= 8:
        return np.sum(dev, axis=1)
    first, *rest = dev.T
    out = first.copy()
    for column in rest:
        out += column
    return out


def systematic_resample(rng, weights):
    """Systematic resampling: one uniform draw, N evenly spaced pointers."""
    n = weights.shape[0]
    positions = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(0, n - 1)


class ParticleFilter:
    """Bootstrap particle filter: propagate through the signal map, reweight
    by the observation likelihood, resample when the effective sample size
    falls below ``resample_threshold`` times the number of particles. It
    runs one observation sequence at a time, at the sequence's own eps, on
    the random stream it is given.

    The dynamics are deterministic, so no process jitter is added by
    default; ``jitter`` > 0 enables an optional Gaussian perturbation for
    degeneracy studies (not part of the modelled system).
    """

    kind = "particle"

    def __init__(self, projection, noise, n_particles, init_sampler,
                 resample_threshold=0.5, jitter=0.0):
        if n_particles < 2:
            raise ValueError("need at least two particles")
        self.projection = projection
        self.noise = noise
        self.n_particles = n_particles
        self.init_sampler = init_sampler
        self.resample_threshold = resample_threshold
        self.jitter = jitter

    def at_eps(self, eps):
        """The estimator used at noise strength eps: this one, which reads
        eps from the observations it runs on. Raises ValueError unless
        eps > 0."""
        if not eps > 0:
            raise ValueError(f"particle filter requires eps > 0, got {eps}")
        return self

    def steps(self, model, observations, rng):
        """Yield the :class:`FilterStep` of j = 0..J on one observation
        sequence as each is computed.

        Once the weights degenerate (every log weight -inf or nan), the last
        mean and spread are repeated with an effective sample size of 0, and
        neither the model nor ``rng`` is called again.
        """
        eps = observations.eps
        self.at_eps(eps)
        projection, noise, jitter = self.projection, self.noise, self.jitter
        n_particles, threshold = self.n_particles, self.resample_threshold
        J = observations.n_steps
        h = observations.h
        obs = projection.observed
        particles = self.init_sampler(rng, n_particles)
        logw = np.zeros(n_particles)
        mean = particles.mean(axis=0)
        post_trace = float(np.mean(squared_deviations(particles, mean)))
        yield FilterStep(mean, n_particles, post_trace)
        # the jitter draws of each step, made in place: the same draws, in
        # the same order, as rng.standard_normal(particles.shape)
        jitter_draws = np.empty(particles.shape) if jitter > 0 else None
        for j in range(J):
            particles = model.step_batch(particles, h)
            if jitter > 0:
                rng.standard_normal(out=jitter_draws)
                jitter_draws *= jitter
                particles += jitter_draws
            logw = logw + noise.log_density(observations.ys[j][obs] - particles[:, obs], eps)
            shift = logw.max()
            if not np.isfinite(shift):
                for _ in range(j, J):
                    yield FilterStep(mean, 0.0, post_trace)
                return
            w = np.exp(logw - shift)
            w /= w.sum()
            # a cloud spread past float range gives an inf mean or spread
            with np.errstate(over="ignore", invalid="ignore"):
                mean = w @ particles
                post_trace = float(np.real(w @ squared_deviations(particles, mean)))
            ess = 1.0 / float(w @ w)
            yield FilterStep(mean, ess, post_trace)
            if ess < threshold * n_particles:
                idx = systematic_resample(rng, w)
                particles = particles[idx]
                logw = np.zeros(n_particles)


def particle_filter(model, pf: ParticleFilter, observations, rng, truth=None) -> FilterRun:
    """Drive a particle filter through an observation sequence."""
    steps = pf.steps(model, observations, rng)
    return collect_run(model.error_norm, pf.kind, steps, observations.n_steps, truth)


# ---------------------------------------------------------------------------
# CSV export


def export_filter_run(run: FilterRun, path):
    """Write per-step estimates (and squared errors / ESS when available)."""
    write_table(path, "m", run.estimates, [("sq_error", run.sq_errors), ("ess", run.ess)])


def write_filter_steps(norm: VNorm, steps, fh, truth=None):
    """Write each of an estimator's ``steps`` to the open file ``fh`` as it
    is computed, in the rows :func:`export_filter_run` writes, with its
    squared error in ``norm`` against ``truth`` (any iterable of states)
    when given. Returns the last squared error, or None without a truth."""
    table = sq_error = None
    for j, (step, sq_error) in enumerate(scored_steps(norm, steps, truth)):
        extra = {"sq_error": sq_error, "ess": step.ess}
        extra = {name: value for name, value in extra.items() if value is not None}
        if table is None:
            table = TableWriter(fh, "m", step.estimate, list(extra))
        table.write(j, step.estimate, *extra.values())
    return sq_error
