"""Experiment configuration: flat key-value files with one section per concern.

A config file has ``[model]``, ``[observation]``, ``[noise]``,
``[experiment]``, ``[output]`` and one or more ``[filter:<name>]`` sections
(plus ``[linear]`` / ``[squeeze]`` for those subcommands). Values are plain
scalars or whitespace-separated lists; matrices use semicolon-separated
rows. :data:`SCHEMA` is the reference for every key, its default and its
range; :func:`typed` rejects unknown sections, kinds and keys.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from . import dynamics, filters, observation, spectral


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _each(kind):
    """Parser of a whitespace- or comma-separated list of ``kind``."""
    return lambda text: [kind(tok) for tok in text.replace(",", " ").split()]


_ints, _floats = _each(int), _each(float)


def parse_matrix(text):
    rows = [_floats(r) for r in text.split(";") if r.strip()]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"ragged matrix literal: {text!r}")
    return np.array(rows)


def _at_least(n):
    return (lambda v: v >= n, f"need at least {n}")


def _one_of(*choices):
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


REQUIRED = object()  # the default of a key that must be given
# (range test, requirement text); nan fails every test
_POSITIVE = (lambda v: 0 < v < np.inf, "must be positive and finite")
_FINITE = (lambda v: -np.inf < v < np.inf, "must be finite")
_FINITE_MATRIX = (lambda m: np.isfinite(m).all(), "must be finite")
_GAIN = (str, "identity", *_one_of("identity", "zero"))

#: section -> kind (None: keys every kind takes) -> key ->
#: (parse, default or REQUIRED, range test or None, requirement text).
#: Checks that involve more than one key stay with the builders and detect.
SCHEMA = {
    "model": {
        # substeps 0: the model's own default
        None: {"kind": (str, REQUIRED, None, None), "substeps": (int, 0, *_at_least(0))},
        "lorenz63": {},
        "lorenz96": {"dimension": (int, REQUIRED, lambda d: d >= 6 and d % 3 == 0,
                                   "must be a multiple of 3 and at least 6")},
        "navier-stokes": {
            "viscosity": (float, REQUIRED, *_POSITIVE),
            "k_max": (int, REQUIRED, *_at_least(1)),
            "period": (float, 2.0 * np.pi, *_POSITIVE),
            "forcing_mode": (_ints, (1, 0), lambda m: len(m) == 2 and any(m),
                             "need two integers n1 n2, not both 0"),
            # 0 leaves the flow unforced: its absorbing ball has radius 0
            "forcing_amplitude": (float, 1.0, lambda v: v != 0 and -np.inf < v < np.inf,
                                  "must be nonzero and finite"),
            "init_amplitude": (float, 1.0, *_FINITE),
            "init_decay": (float, 2.0, *_FINITE),
        },
    },
    "observation": {
        None: {"kind": (str, REQUIRED, None, None)},
        "coordinate-mask": {"observed": (_ints, REQUIRED, lambda v: len(v) > 0 and min(v) >= 0,
                                         "need at least one index, each nonnegative")},
        "every-third-unobserved": {},
        "fourier-cutoff": {"lam": (float, 0.0, lambda v: v >= 0, "must be nonnegative")},
    },
    "noise": {
        None: {"kind": (str, "gaussian-observed", None, None)},
        "gaussian-observed": {
            "normalization": (str, "unit-total", *_one_of("unit-total", "per-coordinate")),
        },
        "spectral-mode": {},
    },
    "filter:<name>": {
        None: {"kind": (str, REQUIRED, None, None)},
        "observer": {"gain": _GAIN},
        "truncated-observer": {"gain": _GAIN, "radius_scale": (float, 1.0, *_POSITIVE)},
        "3dvar": {"sigma2": (float, 1.0, *_POSITIVE)},
        "particle": {
            "n_particles": (int, 1000, *_at_least(2)),
            "resample_threshold": (float, 0.5, lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
            "jitter": (float, 0.0, lambda v: 0 <= v < np.inf, "must be nonnegative and finite"),
        },
    },
    "experiment": {None: {
        "epsilons": (_floats, REQUIRED,
                     lambda v: len(set(v)) == len(v) > 0 and all(0 <= e < np.inf for e in v),
                     "need at least one noise strength, each nonnegative, finite and distinct"),
        "h": (float, REQUIRED, *_POSITIVE),
        "t": (float, REQUIRED, *_POSITIVE),  # T: configparser lowercases keys
        "n_inits": (int, 1, *_at_least(1)),
        "n_noise": (int, 1, *_at_least(1)),
        "seed": (int, 0, *_at_least(0)),
        "mse_mode": (str, "final", *_one_of("final", "time-averaged")),
    }},
    "output": {None: {"path": (str, "report.csv", None, None)}},
    "linear": {None: {
        "l": (parse_matrix, REQUIRED, *_FINITE_MATRIX),
        "p": (parse_matrix, None, *_FINITE_MATRIX),
        "observed": (_ints, None, lambda v: min(v, default=0) >= 0, "must be nonnegative"),
        "budget": (int, 20, *_at_least(0)),
    }},
    "squeeze": {None: {
        "h": (float, 0.01, *_POSITIVE),
        "n_samples": (int, 10000, *_at_least(1)),
        "scales": (_floats, (1.0,), lambda v: len(v) > 0 and all(0 < s < np.inf for s in v),
                   "need at least one scale, each positive and finite"),
        "substeps": (int, 0, *_at_least(0)),
        "seed": (int, 0, *_at_least(0)),
    }},
}


def _read(section, spec, rows):
    values = {}
    for key, (parse, default, test, need) in rows.items():
        if key not in spec:
            if default is REQUIRED:
                raise ConfigError(f"[{section}] {key}: required")
            values[key] = default
            continue
        raw = value = spec[key]
        if isinstance(raw, str):
            try:
                value = parse(raw)
            except ValueError:
                what = {int: "integer", _ints: "integer", parse_matrix: "matrix"}.get(parse)
                raise ConfigError(f"[{section}] {key}: bad {what or 'number'} {raw!r}") from None
        if test is not None and not test(value):
            raise ConfigError(f"[{section}] {key}: {need}, got {raw!r}")
        values[key] = value
    return values


def typed(section, spec):
    """The keys of config section ``section`` (``"model"``, ``"filter:pf"``,
    ...) parsed and range-checked against :data:`SCHEMA`, defaults filled in.
    ``spec`` maps keys to their text, or to values already parsed, which are
    range-checked only."""
    table = SCHEMA.get("filter:<name>" if section.startswith("filter:") else section)
    if table is None:
        raise ConfigError(f"[{section}]: unknown section; known: {', '.join(SCHEMA)}")
    rows = table[None]
    if "kind" in rows:
        kind = _read(section, spec, {"kind": rows["kind"]})["kind"]
        kinds = [k for k in table if k is not None]
        if kind not in kinds:
            raise ConfigError(f"[{section}] kind: must be one of {', '.join(kinds)}, got {kind!r}")
        rows = {**rows, **table[kind]}
    for key in spec:
        if key not in rows:
            raise ConfigError(f"[{section}] {key}: unknown key; known: {', '.join(sorted(rows))}")
    return _read(section, spec, rows)


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
        exp = {k: getattr(self, "T" if k == "t" else k) for k in SCHEMA["experiment"][None]}
        typed("experiment", exp)
        steps = self.T / self.h
        if not np.isfinite(steps):
            raise ConfigError(f"[experiment] t: T / h must be finite, got {self.T} / {self.h}")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"T={self.T} is not an integer multiple of h={self.h}")
        if self.n_steps < 1:
            raise ConfigError(
                f"[experiment] t: T / h must give at least one step, got {self.T} / {self.h}"
            )
        if not self.filters:
            raise ConfigError("no [filter:...] section configured")

    @property
    def n_steps(self):
        return int(round(self.T / self.h))

    def check_run(self, model):
        """Refuse, before anything is allocated, a Monte Carlo run of
        ``model`` that runs a particle filter at eps = 0, or whose arrays
        would pass the memory budget (see :func:`within_budget`). Other
        subcommands run no filter at the config's epsilons, so the eps rule
        is the run's, not the config's. Each trial holds a noise chunk,
        drawn and stacked (2 ``NOISE_CHUNK`` states), its substream (under 4
        KiB) and, per fixed-gain row, the state, its start, gain and
        observation rows and the analysis temporaries (16 states; 11-14
        measured with tracemalloc). The scored window holds a float per
        (filter, eps, trial) and scored step, and with a particle filter
        every start's truth is stored at every step."""
        from .harness import NOISE_CHUNK

        particle = [spec.get("kind") == "particle" for spec in self.filters]
        if 0 in self.epsilons and any(particle):
            raise ConfigError("the particle filter needs a positive noise strength")
        state = model.dim * model.dtype.itemsize
        n_trials, n_eps = self.n_inits * self.n_noise, len(self.epsilons)
        rows = (len(particle) - sum(particle)) * n_eps
        within_budget("[experiment] n_inits and n_noise", f"the rows of {n_trials} trials",
                      n_trials * ((2 * NOISE_CHUNK + 16 * rows) * state + 4096))
        first = self.n_steps // 2 if self.mse_mode == "time-averaged" else self.n_steps
        scored = n_trials * len(particle) * n_eps * 8 * (self.n_steps + 1 - first)
        stored = any(particle) * self.n_inits * (self.n_steps + 1) * state
        within_budget("[experiment] t", f"the scored steps and stored truths of "
                      f"{self.n_steps} steps", scored + stored)

    def echo(self):
        out = {
            "h": observation.format_float(self.h),
            "T": observation.format_float(self.T),
            "epsilons": " ".join(map(observation.format_float, self.epsilons)),
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


def within_budget(key, what, need):
    """Refuse, naming ``key``, a run whose ``what`` would take ``need``
    bytes, more than ``spectral.MEMORY_BUDGET``: checked before anything is
    allocated, so an oversized value exits 1 instead of failing in numpy."""
    if need > spectral.MEMORY_BUDGET:
        raise ConfigError(f"{key}: {what} need {need >> 20} MiB, over the "
                          f"{spectral.MEMORY_BUDGET >> 20} MiB budget")


def build_model(spec):
    m = typed("model", spec)
    kind, substeps = m["kind"], m["substeps"]
    if kind == "lorenz63":
        return dynamics.lorenz63(substeps=substeps or 10)
    if kind == "lorenz96":
        return dynamics.lorenz96(m["dimension"], substeps=substeps or 10)
    k_max, mode = m["k_max"], m["forcing_mode"]
    within_budget("[model] k_max", f"the grid and stepping workspace of k_max = {k_max}",
                  spectral.model_bytes(k_max))
    if max(map(abs, mode)) > k_max:
        raise ConfigError(f"[model] forcing_mode: need |n1|, |n2| <= k_max = {k_max}, got {mode}")
    model = spectral.navier_stokes_spectral(
        m["viscosity"], {tuple(mode): complex(m["forcing_amplitude"])}, k_max,
        period=m["period"], substeps=substeps or 5,
        init_amplitude=m["init_amplitude"], init_decay=m["init_decay"],
    )
    # the truncation ball and the squeeze probe are sized by this radius
    radius = dynamics.absorbing_radius(model)
    if not 0 < radius < np.inf:
        raise ConfigError(f"[model] viscosity and forcing_amplitude: the absorbing ball radius "
                          f"is {radius:g}, need it positive and finite")
    return model


def build_projection(spec, model):
    o = typed("observation", spec)
    kind = o["kind"]
    if kind == "fourier-cutoff" and model.dtype != complex:  # real states have no modes
        raise ConfigError("fourier-cutoff applies to spectral models only")
    try:
        if kind == "coordinate-mask":
            return observation.coordinate_projection(model.dim, o["observed"])
        if kind == "every-third-unobserved":
            return observation.every_third_unobserved(model.dim)
        return observation.fourier_cutoff(model.grid, o["lam"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_noise(spec, projection):
    n = typed("noise", spec)
    if n["kind"] == "gaussian-observed":
        if not isinstance(projection, observation.CoordinateProjection):
            raise ConfigError("gaussian-observed noise applies to coordinate masks")
        return observation.GaussianObservedNoise(
            projection, per_coordinate=(n["normalization"] == "per-coordinate")
        )
    if not isinstance(projection, observation.FourierCutoff):
        raise ConfigError("spectral-mode noise applies to fourier cutoffs")
    return observation.SpectralModeNoise(projection)


def build_init_sampler(model_spec, model):
    # build_model read the sampler's keys from model_spec into the model
    return model.init_sampler()


def build_parts(cfg):
    """The signal map, observation operator, noise and initial law of the
    ExperimentConfig ``cfg``: ``(model, projection, noise, init_sampler)``."""
    model = build_model(cfg.model)
    projection = build_projection(cfg.observation, model)
    noise = build_noise(cfg.noise, projection)
    return model, projection, noise, build_init_sampler(cfg.model, model)


def default_vnorm(model, projection):
    return model.truncation_vnorm(projection)


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
    3DVAR) that is a :class:`filters.FixedGainObserver`, which starts from
    ``z0`` and whose ``assimilate(FZ, Y)`` analyses a batch of rows; the
    engine stacks the observers of every (filter, eps) into one
    (``FixedGainObserver.stacked``). A 3DVAR spec builds its gain in
    ``at_eps``, once per eps. The particle filter runs one observation
    sequence at a time (``steps``), and its cloud is checked against the
    memory budget here.
    """
    # the loader adds the section's name to the keys of the file
    name = spec.get("name", spec.get("kind"))
    f = typed(f"filter:{name}", {k: v for k, v in spec.items() if k != "name"})
    kind = f["kind"]

    if kind in ("observer", "truncated-observer"):
        identity = f["gain"] == "identity"
        gain = filters.Gain.identity_on_observed(projection) if identity else filters.Gain.zero()
        vnorm = radius = None
        if kind == "truncated-observer":
            vnorm = default_vnorm(model, projection)
            radius = filters.default_ball_radius(model, vnorm) * f["radius_scale"]
        z0 = np.zeros(model.dim, dtype=model.dtype)
        return filters.FixedGainObserver(projection, gain, z0, vnorm=vnorm, radius=radius)

    if kind == "3dvar":
        gamma = noise_gamma(noise, projection)
        return filters.ThreeDVar(f["sigma2"], projection, gamma, np.zeros(model.dim))

    # twelve states per particle: the cloud, its forecast, jitter, resampled
    # copy and RK4 stages (9.4-10.3 measured with tracemalloc)
    n_particles = f["n_particles"]
    within_budget(f"[filter:{name}] n_particles", f"{n_particles} particles",
                  12 * n_particles * model.dim * model.dtype.itemsize)
    return filters.ParticleFilter(
        projection, noise, n_particles, init_sampler,
        resample_threshold=f["resample_threshold"], jitter=f["jitter"],
    )


# ---------------------------------------------------------------------------
# file loading


def read_config_file(path) -> dict:
    """The sections of the INI file at ``path``, ``{section: {key: text}}``,
    each read through :func:`typed`, so that even a section the subcommand
    skips is checked."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for name, spec in sections.items():
        typed(name, spec)
    return sections


def load_experiment_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    sections = read_config_file(path)
    # an absent section reads as an empty one: its required keys are named
    exp = typed("experiment", sections.get("experiment", {}))
    if seed_override is not None:
        exp["seed"] = int(seed_override)
    return ExperimentConfig(
        model=sections.get("model", {}),
        observation=sections.get("observation", {}),
        noise=sections.get("noise", {}),
        filters=[dict(spec, name=name.split(":", 1)[1])
                 for name, spec in sections.items() if name.startswith("filter:")],
        T=exp.pop("t"),
        out_path=out_override or typed("output", sections.get("output", {}))["path"],
        **exp,
    )
