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
    substeps = int(spec.get("substeps", 0) or 0)
    if kind == "lorenz63":
        return dynamics.lorenz63(substeps=substeps or 10)
    if kind == "lorenz96":
        dim = int(spec.get("dimension", 0))
        if dim <= 0:
            raise ConfigError("lorenz96 requires a positive 'dimension'")
        return dynamics.lorenz96(dim, substeps=substeps or 10)
    if kind == "navier-stokes":
        try:
            nu = float(spec["viscosity"])
            k_max = int(spec["k_max"])
        except KeyError as exc:
            raise ConfigError(f"navier-stokes model needs {exc.args[0]!r}") from exc
        period = float(spec.get("period", 2.0 * np.pi))
        mode = _ints(str(spec.get("forcing_mode", "1 0")))
        amp = complex(float(spec.get("forcing_amplitude", 1.0)))
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
        lam = float(spec.get("lam", 0.0))
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
        amp = float(model_spec.get("init_amplitude", 1.0))
        decay = float(model_spec.get("init_decay", 2.0))
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
    """Compile a filter spec into a trial runner (truth, obs, eps, rng) -> FilterRun."""
    kind = spec.get("kind")
    name = spec.get("name", kind)

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
            radius = filters.default_ball_radius(model, vnorm) * float(
                spec.get("radius_scale", 1.0)
            )
        z0 = np.zeros(model.dim, dtype=complex if hasattr(model, "grid") else float)

        def runner(truth, obs, eps, rng):
            return filters.run_observer(
                model, projection, gain, z0, obs, vnorm=vnorm, radius=radius, truth=truth
            )

        return runner

    if kind == "3dvar":
        sigma2 = float(spec.get("sigma2", 1.0))
        gamma = noise_gamma(noise, projection)
        model_cov = sigma2 * np.eye(model.dim)
        z0 = np.zeros(model.dim)

        def runner(truth, obs, eps, rng):
            gain = filters.kalman_gain_3dvar(model_cov, projection, gamma, eps)
            return filters.run_observer(
                model, projection, gain, z0, obs, truth=truth
            )

        return runner

    if kind == "particle":
        n_particles = int(spec.get("n_particles", 1000))
        threshold = float(spec.get("resample_threshold", 0.5))
        jitter = float(spec.get("jitter", 0.0))

        def runner(truth, obs, eps, rng):
            return filters.particle_filter(
                model,
                projection,
                noise,
                eps,
                n_particles,
                init_sampler,
                obs,
                rng,
                resample_threshold=threshold,
                jitter=jitter,
                truth=truth,
            )

        return runner

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
