"""Command-line interface.

Subcommands: ``simulate`` (truth + observations to CSV), ``filter`` (one
estimator over a stored observation file), ``mse-table`` (the Monte Carlo
error experiment), ``detect`` (linear detectability verdict),
``squeeze-probe`` (empirical contraction certificate), ``ns-demo``
(spectral-flow observer demonstration). Exit status: 0 success, 1
configuration error, 2 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import filters, harness, linear_theory, observation
from .config import ConfigError
from .dynamics import BlowUpError
from .filters import FilterNumericsError


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems on exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="chaosfilter",
        description="Filtering experiments for partially observed dissipative dynamics.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output path override")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        p.add_argument(
            "--format", choices=["csv"], default="csv", help="output format"
        )
        return p

    add("simulate", "generate one truth trajectory and its observations")
    pf = add("filter", "run one configured filter over stored observations")
    pf.add_argument("--obs", required=True, help="observation CSV (from simulate)")
    pf.add_argument("--truth", default=None, help="truth CSV for error reporting")
    add("mse-table", "run the Monte Carlo error experiment")
    add("detect", "detectability verdict for a linear signal map")
    add("squeeze-probe", "sample the contraction ratio over ball pairs")
    add("ns-demo", "spectral-flow truncated observer demonstration")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_simulate(args):
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    model = cfgmod.build_model(cfg.model)
    projection = cfgmod.build_projection(cfg.observation, model)
    noise = cfgmod.build_noise(cfg.noise, projection)
    init_sampler = cfgmod.build_init_sampler(cfg.model, model)
    eps = cfg.epsilons[0]
    rng = observation.substream(cfg.seed, "simulate")
    truth, obs = observation.generate_truth_and_observations(
        model, projection, noise, init_sampler, eps, cfg.n_steps, cfg.h, rng
    )
    obs.seed_label = f"seed={cfg.seed}"
    prefix = args.out or os.path.splitext(cfg.out_path)[0]
    truth_path = f"{prefix}_truth.csv"
    obs_path = f"{prefix}_observations.csv"
    observation.export_truth(truth, truth_path)
    observation.export_observations(obs, projection, obs_path)
    print(f"wrote {truth_path} and {obs_path} (eps={eps:g}, steps={cfg.n_steps})")
    return 0


def _read_data(reader, path, what):
    try:
        return reader(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {exc.filename}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} file: {exc}") from exc


def _cmd_filter(args):
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    if len(cfg.filters) != 1:
        raise ConfigError("the filter subcommand needs exactly one [filter:...] section")
    model = cfgmod.build_model(cfg.model)
    projection = cfgmod.build_projection(cfg.observation, model)
    noise = cfgmod.build_noise(cfg.noise, projection)
    init_sampler = cfgmod.build_init_sampler(cfg.model, model)
    obs = _read_data(observation.import_observations, args.obs, "observation")
    if obs.ys.shape[1] != model.dim:
        raise ConfigError(
            f"observation file has dimension {obs.ys.shape[1]}, model has {model.dim}"
        )
    if np.any(projection.complement(obs.ys) != 0):
        raise ConfigError("observation file has values at indices the model does not observe")
    truth = None
    if args.truth:
        truth = _read_data(observation.import_truth, args.truth, "truth")
        if truth.shape[1] != model.dim:
            raise ConfigError(
                f"truth file has dimension {truth.shape[1]}, model has {model.dim}"
            )
        if truth.shape[0] <= obs.n_steps:
            raise ConfigError(
                f"truth file has {truth.shape[0]} states, {obs.n_steps} steps need "
                f"{obs.n_steps + 1}"
            )
    estimator = cfgmod.build_filter_runner(
        cfg.filters[0], model, projection, noise, init_sampler
    ).at_eps(obs.eps)
    rng = observation.substream(cfg.seed, "filter-cli")
    run = estimator.run(model, obs, rng, truth=truth)
    out = args.out or cfg.out_path
    filters.export_filter_run(run, out)
    msg = f"wrote {out} ({run.kind}, {obs.n_steps} steps)"
    if run.sq_errors is not None:
        msg += f"; final squared error {run.sq_errors[-1]:.6g}"
    print(msg)
    return 0


def _cmd_mse_table(args):
    cfg = cfgmod.load_experiment_config(
        args.config, seed_override=args.seed, out_override=args.out
    )
    report = harness.run_mse_experiment(cfg)
    harness.write_report(report, cfg.out_path)
    print(f"{'filter':<24}{'eps':>10}{'mse':>14}{'stderr':>12}{'used':>6}{'excl':>6}")
    for row in report.rows:
        print(
            f"{row.filter_name:<24}{row.eps:>10g}{row.mse:>14.6g}"
            f"{row.stderr:>12.3g}{row.n_used:>6}{row.n_excluded:>6}"
        )
    for name, (slope, half) in sorted(report.slopes.items()):
        print(f"scaling slope[{name}] = {slope:.3f} +- {half:.3f}")
    print(f"wrote {cfg.out_path}")
    return 0


def _cmd_detect(args):
    parser = cfgmod.read_config_file(args.config)
    if not parser.has_section("linear"):
        raise ConfigError("detect needs a [linear] section")
    sec = dict(parser.items("linear"))
    if "l" not in sec:
        raise ConfigError("[linear] must define the signal map L")
    L = cfgmod.parse_matrix(sec["l"])
    d = L.shape[0]
    if L.shape != (d, d):
        raise ConfigError(f"the signal map L must be square, got {d}x{L.shape[1]}")
    if "p" in sec:
        P = cfgmod.parse_matrix(sec["p"])
        if P.shape[1] != d:
            raise ConfigError(f"P has {P.shape[1]} columns, L needs {d}")
    elif "observed" in sec:
        mask = np.zeros(d)
        for idx in cfgmod._ints(sec["observed"]):
            if not 0 <= idx < d:
                raise ConfigError(f"observed index {idx} out of range")
            mask[idx] = 1.0
        P = np.diag(mask)
    else:
        raise ConfigError("[linear] must define 'p' or 'observed'")
    try:
        budget = int(sec.get("budget", 20))
    except ValueError:
        raise ConfigError(f"budget must be an integer, got {sec['budget']!r}") from None

    verdict = linear_theory.hautus_detectable(L, P)
    print(f"signal map: {d}x{d}, spectral radius {linear_theory.spectral_radius(L):.6g}")
    if verdict.detectable:
        print("detectable: yes")
    else:
        w = verdict.witness
        print("detectable: no")
        print(f"witness eigenvalue: {w.real:.6g}{w.imag:+.6g}j (|lambda| = {abs(w):.6g})")
    equiv = linear_theory.detectability_shift_equivalence(L, P)
    print(f"shift equivalence (P vs PL): {'consistent' if equiv else 'INCONSISTENT'}")
    result = linear_theory.find_gain(L, P, budget=budget)
    print(f"best gain search: rho(L - D P) = {result.radius:.6g} "
          f"({'success' if result.success else 'no stabilizing gain found'})")
    if result.success:
        rows = "; ".join(
            " ".join(format(v, ".6g") for v in row) for row in result.gain
        )
        print(f"gain D = [{rows}]")
        S, alpha = linear_theory.contractive_norm(L - result.gain @ P)
        print(f"contraction factor alpha = {alpha:.6g} in the constructed norm")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"detectable = {verdict.detectable}\n")
            fh.write(f"rho_closed_loop = {format(result.radius, '.17g')}\n")
    return 0


def _cmd_squeeze_probe(args):
    parser = cfgmod.read_config_file(args.config)
    model_spec = dict(parser.items("model")) if parser.has_section("model") else {}
    obs_spec = dict(parser.items("observation")) if parser.has_section("observation") else {}
    if not parser.has_section("squeeze"):
        raise ConfigError("squeeze-probe needs a [squeeze] section")
    sec = dict(parser.items("squeeze"))
    model = cfgmod.build_model(model_spec)
    projection = cfgmod.build_projection(obs_spec, model)
    vnorm = cfgmod.default_vnorm(model, projection)
    gain = filters.Gain.identity_on_observed(projection)
    h = cfgmod.scalar(sec, "h", float, 0.01, "squeeze")
    if not h > 0:
        raise ConfigError(f"[squeeze] h: must be positive, got {h}")
    n_samples = cfgmod.scalar(sec, "n_samples", int, 10000, "squeeze")
    if n_samples < 1:
        raise ConfigError(f"[squeeze] n_samples: must be at least 1, got {n_samples}")
    scales = cfgmod._floats(sec.get("scales", "1"))
    if not scales:
        raise ConfigError("[squeeze] scales: need at least one scale")
    for s in scales:
        if not (np.isfinite(s) and s > 0):
            raise ConfigError(f"[squeeze] scales: must be positive and finite, got {s}")
    substeps = cfgmod.substeps_value(sec, "squeeze") or None
    seed = args.seed if args.seed is not None else cfgmod.scalar(sec, "seed", int, 0, "squeeze")
    from .dynamics import absorbing_radius

    r = absorbing_radius(model)
    R = filters.default_ball_radius(model, vnorm)
    r_pairs = [(s * r, s * R) for s in scales]
    rng = observation.substream(seed, "squeeze")
    result = harness.empirical_squeezing(
        model, projection, gain, vnorm, h, r_pairs, n_samples, rng, substeps=substeps
    )
    print(f"{'r_signal':>12}{'r_estimator':>13}{'alpha_hat':>12}{'frac>1':>10}")
    for e in result.entries:
        print(
            f"{e.radius_signal:>12.5g}{e.radius_estimator:>13.5g}"
            f"{e.alpha_hat:>12.5g}{e.frac_above_one:>10.4f}"
        )
    out = args.out
    if out:
        harness.write_squeeze_histogram(result, out)
        print(f"wrote {out}")
    return 0


def _cmd_ns_demo(args):
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    model = cfgmod.build_model(cfg.model)
    if not hasattr(model, "grid"):
        raise ConfigError("ns-demo expects a navier-stokes model")
    projection = cfgmod.build_projection(cfg.observation, model)
    noise = cfgmod.build_noise(cfg.noise, projection)
    init_sampler = cfgmod.build_init_sampler(cfg.model, model)
    eps = cfg.epsilons[0]
    rng = observation.substream(cfg.seed, "ns-demo")
    truth, obs = observation.generate_truth_and_observations(
        model, projection, noise, init_sampler, eps, cfg.n_steps, cfg.h, rng
    )
    vnorm = cfgmod.default_vnorm(model, projection)
    radius = filters.default_ball_radius(model, vnorm)
    gain = filters.Gain.identity_on_observed(projection)
    z0 = np.zeros(model.dim, dtype=complex)
    observer = filters.FixedGainObserver(projection, gain, z0, vnorm=vnorm, radius=radius)
    run = filters.run_observer(model, observer, obs, truth=truth)
    errs = run.sq_errors
    quarters = [errs[int(q * cfg.n_steps)] for q in (0.25, 0.5, 0.75, 1.0)]
    print(
        f"spectral demo: {model.name}, cutoff keeps {projection.n_retained} modes, "
        f"eps={eps:g}, {cfg.n_steps} steps"
    )
    print(f"initial squared error: {errs[0]:.6g}")
    for q, e in zip((0.25, 0.5, 0.75, 1.0), quarters):
        print(f"squared error at {q:.2f} T: {e:.6g}")
    out = args.out or cfg.out_path
    filters.export_filter_run(run, out)
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "mse-table": _cmd_mse_table,
    "detect": _cmd_detect,
    "squeeze-probe": _cmd_squeeze_probe,
    "ns-demo": _cmd_ns_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("chaosfilter: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"chaosfilter: config error: {exc}", file=sys.stderr)
        return 1
    except (BlowUpError, FilterNumericsError) as exc:
        print(f"chaosfilter: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
