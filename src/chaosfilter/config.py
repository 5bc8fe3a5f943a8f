"""Experiment configuration: flat key-value files with one section per concern.

A config file has ``[model]``, ``[observation]``, ``[noise]``,
``[experiment]`` and one or more ``[filter:<name>]`` sections (plus
``[linear]`` / ``[squeeze]`` blocks for the corresponding subcommands).
Values are plain scalars or whitespace-separated lists; matrices use
semicolon-separated rows.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from . import dynamics, filters, observation, spectral


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _numbers(text, kind, what):
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(kind(tok))
        except ValueError:
            raise ConfigError(f"bad {what} {tok!r} in {text!r}") from None
    return out


def _floats(text):
    return _numbers(text, float, "number")


def _ints(text):
    return _numbers(text, int, "integer")


def scalar(spec, key, kind, default, section):
    """``spec[key]`` read as one ``kind`` (int or float), ``default`` when
    the key is absent; a bad token is a ConfigError naming section and key."""
    if key not in spec:
        return default
    token = spec[key]
    try:
        return kind(token)
    except (TypeError, ValueError):
        what = "integer" if kind is int else "number"
        raise ConfigError(f"[{section}] {key}: bad {what} {token!r}") from None


def parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip()]
    mat = [_floats(r) for r in rows]
    width = {len(r) for r in mat}
    if len(width) != 1:
        raise ConfigError(f"ragged matrix literal: {text!r}")
    return np.array(mat)


@dataclass
class ExperimentConfig:
    model: dict
    observation: dict
    noise: dict
    filters: list
    epsilons: list
    h: float
    T: float
    n_inits: int
    n_noise: int
    seed: int
    mse_mode: str = "final"
    out_path: str = "report.csv"

    def __post_init__(self):
        if self.h <= 0 or self.T <= 0:
            raise ConfigError("h and T must be positive")
        steps = self.T / self.h
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"T={self.T} is not an integer multiple of h={self.h}")
        if self.n_inits < 1 or self.n_noise < 1:
            raise ConfigError("n_inits and n_noise must be at least 1")
        if len(self.epsilons) == 0:
            raise ConfigError("need at least one noise strength")
        if any(e < 0 for e in self.epsilons):
            raise ConfigError("noise strengths must be nonnegative")
        if self.mse_mode not in ("final", "time-averaged"):
            raise ConfigError(f"unknown mse_mode {self.mse_mode!r}")
        if not self.filters:
            raise ConfigError("no [filter:...] section configured")
        if any(e == 0 for e in self.epsilons) and any(
            spec.get("kind") == "particle" for spec in self.filters
        ):
            raise ConfigError("the particle filter needs a positive noise strength")

    @property
    def n_steps(self):
        return int(round(self.T / self.h))

    def echo(self):
        out = {
            "h": format(self.h, ".17g"),
            "T": format(self.T, ".17g"),
            "epsilons": " ".join(format(e, ".17g") for e in self.epsilons),
            "n_inits": str(self.n_inits),
            "n_noise": str(self.n_noise),
            "mse_mode": self.mse_mode,
        }
        for prefix, section in (
            ("model", self.model),
            ("observation", self.observation),
            ("noise", self.noise),
        ):
            for key, val in sorted(section.items()):
                out[f"{prefix}.{key}"] = str(val)
        for spec in self.filters:
            for key, val in sorted(spec.items()):
                if key != "name":
                    out[f"filter.{spec['name']}.{key}"] = str(val)
        return out


# ---------------------------------------------------------------------------
# builders


def build_model(spec):
    kind = spec.get("kind")
    substeps = scalar(spec, "substeps", int, 0, "model") if spec.get("substeps") else 0
    if kind == "lorenz63":
        return dynamics.lorenz63(substeps=substeps or 10)
    if kind == "lorenz96":
        dim = scalar(spec, "dimension", int, 0, "model")
        if dim <= 0:
            raise ConfigError("lorenz96 requires a positive 'dimension'")
        return dynamics.lorenz96(dim, substeps=substeps or 10)
    if kind == "navier-stokes":
        for key in ("viscosity", "k_max"):
            if key not in spec:
                raise ConfigError(f"navier-stokes model needs {key!r}")
        nu = scalar(spec, "viscosity", float, None, "model")
        k_max = scalar(spec, "k_max", int, None, "model")
        period = scalar(spec, "period", float, 2.0 * np.pi, "model")
        mode = _ints(str(spec.get("forcing_mode", "1 0")))
        amp = complex(scalar(spec, "forcing_amplitude", float, 1.0, "model"))
        return spectral.navier_stokes_spectral(
            nu, {tuple(mode): amp}, k_max, period=period, substeps=substeps or 5
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def build_projection(spec, model):
    kind = spec.get("kind")
    if kind == "coordinate-mask":
        observed = _ints(str(spec.get("observed", "")))
        if not observed:
            raise ConfigError("coordinate-mask needs an 'observed' index list")
        try:
            return observation.coordinate_projection(model.dim, observed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "every-third-unobserved":
        try:
            return observation.every_third_unobserved(model.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "fourier-cutoff":
        if not hasattr(model, "grid"):
            raise ConfigError("fourier-cutoff applies to spectral models only")
        lam = scalar(spec, "lam", float, 0.0, "observation")
        try:
            return observation.fourier_cutoff(model.grid, lam)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown observation kind {kind!r}")


def build_noise(spec, projection):
    kind = spec.get("kind", "gaussian-observed")
    if kind == "gaussian-observed":
        norm = spec.get("normalization", "unit-total")
        if norm not in ("unit-total", "per-coordinate"):
            raise ConfigError(f"unknown noise normalization {norm!r}")
        if not isinstance(projection, observation.CoordinateProjection):
            raise ConfigError("gaussian-observed noise applies to coordinate masks")
        return observation.GaussianObservedNoise(
            projection, per_coordinate=(norm == "per-coordinate")
        )
    if kind == "spectral-mode":
        if not isinstance(projection, observation.FourierCutoff):
            raise ConfigError("spectral-mode noise applies to fourier cutoffs")
        return observation.SpectralModeNoise(projection)
    raise ConfigError(f"unknown noise kind {kind!r}")


def build_init_sampler(model_spec, model):
    if hasattr(model, "grid"):
        amp = scalar(model_spec, "init_amplitude", float, 1.0, "model")
        decay = scalar(model_spec, "init_decay", float, 2.0, "model")
        return observation.spectral_smooth_init(model.grid, amplitude=amp, decay=decay)
    return observation.standard_normal_init(model.dim)


def default_vnorm(model, projection):
    if hasattr(model, "grid"):
        return filters.VNorm.h1(model.grid)
    return filters.VNorm.euclidean_plus_observed(projection)


def noise_gamma(noise, projection):
    """Covariance of the noise on the observed subspace, as a dense matrix."""
    if isinstance(noise, observation.GaussianObservedNoise):
        g = np.zeros(projection.dim)
        g[projection.observed] = noise.std**2
        return np.diag(g)
    raise ConfigError("observation-noise covariance only available for coordinate masks")


def build_filter_runner(spec, model, projection, noise, init_sampler):
    """Compile a filter spec into its estimator.

    Every estimator has ``at_eps(eps)``, the estimator used at noise
    strength eps. For the fixed-gain kinds (observer, truncated observer,
    3DVAR) that is a :class:`filters.FixedGainObserver`, whose
    ``init(n_rows)`` and ``assimilate(FZ, Y)`` advance a batch of rows; a
    3DVAR spec builds its gain there, once per eps. The particle filter
    runs one observation sequence at a time (``run``).
    """
    kind = spec.get("kind")
    name = spec.get("name", kind)
    section = f"filter:{name}"

    if kind in ("observer", "truncated-observer"):
        gain_kind = spec.get("gain", "identity")
        if gain_kind == "identity":
            gain = filters.Gain.identity_on_observed(projection)
        elif gain_kind == "zero":
            gain = filters.Gain.zero()
        else:
            raise ConfigError(f"unknown gain {gain_kind!r} for filter {name!r}")
        vnorm = radius = None
        if kind == "truncated-observer":
            vnorm = default_vnorm(model, projection)
            radius = filters.default_ball_radius(model, vnorm) * scalar(
                spec, "radius_scale", float, 1.0, section
            )
        z0 = np.zeros(model.dim, dtype=complex if hasattr(model, "grid") else float)
        return filters.FixedGainObserver(projection, gain, z0, vnorm=vnorm, radius=radius)

    if kind == "3dvar":
        sigma2 = scalar(spec, "sigma2", float, 1.0, section)
        gamma = noise_gamma(noise, projection)
        return filters.ThreeDVar(
            sigma2 * np.eye(model.dim), projection, gamma, np.zeros(model.dim)
        )

    if kind == "particle":
        n_particles = scalar(spec, "n_particles", int, 1000, section)
        threshold = scalar(spec, "resample_threshold", float, 0.5, section)
        jitter = scalar(spec, "jitter", float, 0.0, section)
        if n_particles < 2:
            raise ConfigError(f"[{section}] n_particles: need at least 2, got {n_particles}")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(
                f"[{section}] resample_threshold: must lie in [0, 1], got {threshold}"
            )
        if not jitter >= 0.0:  # nan fails too
            raise ConfigError(f"[{section}] jitter: must be nonnegative, got {jitter}")
        return filters.ParticleFilter(
            projection, noise, n_particles, init_sampler,
            resample_threshold=threshold, jitter=jitter,
        )

    raise ConfigError(f"unknown filter kind {kind!r}")


# ---------------------------------------------------------------------------
# file loading


def read_config_file(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return parser


def _section(parser, name):
    if not parser.has_section(name):
        raise ConfigError(f"config is missing the [{name}] section")
    return dict(parser.items(name))


def load_experiment_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    parser = read_config_file(path)
    model = _section(parser, "model")
    obs = _section(parser, "observation")
    noise = dict(parser.items("noise")) if parser.has_section("noise") else {}
    exp = _section(parser, "experiment")
    filter_specs = []
    for section in parser.sections():
        if section.startswith("filter:"):
            spec = dict(parser.items(section))
            spec["name"] = section.split(":", 1)[1]
            filter_specs.append(spec)
    out_path = "report.csv"
    if parser.has_section("output"):
        out_path = parser.get("output", "path", fallback=out_path)
    if out_override:
        out_path = out_override
    try:
        cfg = ExperimentConfig(
            model=model,
            observation=obs,
            noise=noise,
            filters=filter_specs,
            epsilons=_floats(exp.get("epsilons", "")),
            h=float(exp.get("h", "0")),
            T=float(exp.get("t", exp.get("T", "0"))),
            n_inits=int(exp.get("n_inits", "1")),
            n_noise=int(exp.get("n_noise", "1")),
            seed=int(exp.get("seed", "0")) if seed_override is None else int(seed_override),
            mse_mode=exp.get("mse_mode", "final"),
            out_path=out_path,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value in [experiment]: {exc}") from exc
    return cfg
