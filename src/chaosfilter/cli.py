"""Command-line interface.

Subcommands: ``simulate`` (truth + observations to CSV), ``filter`` (one
estimator over a stored observation file), ``mse-table`` (the Monte Carlo
error experiment), ``detect`` (linear detectability verdict),
``squeeze-probe`` (empirical contraction certificate), ``ns-demo``
(spectral-flow observer demonstration). Exit status: 0 success, 1
configuration error or a file the system refuses, 2 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import filters, harness, linear_theory, observation
from .config import ConfigError
from .dynamics import BlowUpError, absorbing_radius
from .filters import FilterNumericsError


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems on exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def seed(text):
    """A master seed: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="chaosfilter",
        description="Filtering experiments for partially observed dissipative dynamics.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--seed", type=seed, default=None, help="master seed override")
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
    model, projection, *_ = parts = cfgmod.build_parts(cfg)
    eps = cfg.epsilons[0]
    rng = observation.substream(cfg.seed, "simulate")
    steps = observation.truth_and_observation_steps(*parts, eps, cfg.n_steps, cfg.h, rng)
    prefix = args.out or os.path.splitext(cfg.out_path)[0]
    truth_path = f"{prefix}_truth.csv"
    obs_path = f"{prefix}_observations.csv"
    # each step's truth line and observation lines are written as soon as
    # the step is computed, so no trajectory is held in memory
    outputs = observation.outputs_on_success(truth_path, obs_path, obs_path + ".meta")
    with outputs as (truth_tmp, obs_tmp, meta_tmp):
        with (
            open(truth_tmp, "w", newline="") as truth_fh,
            open(obs_tmp, "w", newline="") as obs_fh,
        ):
            v, _ = next(steps)
            is_complex = np.iscomplexobj(v)
            truth = observation.TableWriter(truth_fh, "v", v)
            observed = observation.ObservationWriter(obs_fh, projection, is_complex)
            truth.write(0, v)
            for j, (v, y) in enumerate(steps, start=1):
                truth.write(j, v)
                observed.write(j, y)
        observation.write_observation_meta(
            meta_tmp, eps, cfg.h, cfg.n_steps, v.shape[-1], is_complex, f"seed={cfg.seed}"
        )
    print(f"wrote {truth_path} and {obs_path} (eps={eps:g}, steps={cfg.n_steps})")
    return 0


def _read_data(reader, path, what, *more):
    try:
        return reader(path, *more)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {exc.filename}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} file: {exc}") from exc


def _checked_states(path, states, model, n_steps):
    """The truth states, with a malformed line, a line that is not a finite
    state of ``model`` (its dimension and dtype), or fewer than
    ``n_steps + 1`` states, raised as a ConfigError when the reader reaches
    it."""
    count = 0
    try:
        for count, state in enumerate(states, start=1):
            finite = np.isfinite(state).all()
            if state.shape != (model.dim,) or state.dtype != model.dtype or not finite:
                raise ValueError(f"{path}, line {count + 1}: not a finite {model.dtype} "
                                 f"state of dimension {model.dim}")
            yield state
    except ValueError as exc:
        raise ConfigError(f"bad truth file: {exc}") from exc
    if count <= n_steps:
        raise ConfigError(
            f"truth file has {count} states, {n_steps} steps need {n_steps + 1}"
        )


def _cmd_filter(args):
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    if len(cfg.filters) != 1:
        raise ConfigError("the filter subcommand needs exactly one [filter:...] section")
    model, projection, *_ = parts = cfgmod.build_parts(cfg)
    obs = _read_data(observation.import_observations, args.obs, "observation", projection)
    if obs.ys.dtype != model.dtype:
        raise ConfigError(f"bad observation file: {args.obs} holds {obs.ys.dtype} values, "
                          f"the model's states are {model.dtype}")
    # the reader keeps every value it reads; the estimators take finite ones
    finite = np.isfinite(obs.ys).ravel()
    if not finite.all():
        j, i = divmod(int(finite.argmin()), model.dim)
        raise ConfigError(f"bad observation file: {args.obs}: step {j + 1}, index {i}: "
                          f"the value is not finite")
    truth = None
    if args.truth:
        states = _read_data(observation.read_truth, args.truth, "truth")
        truth = _checked_states(args.truth, states, model, obs.n_steps)
    out = args.out or cfg.out_path
    # the truth is read in step with the estimator, and each row is written
    # as it is produced
    with observation.outputs_on_success(out) as (out_tmp,):
        try:
            runner = cfgmod.build_filter_runner(cfg.filters[0], *parts)
            try:
                estimator = runner.at_eps(obs.eps)
            except ValueError as exc:  # a particle filter on a noise-free file
                raise ConfigError(f"observation file: {exc}") from exc
            rng = observation.substream(cfg.seed, "filter-cli")
            with open(out_tmp, "w", newline="") as fh:
                final = filters.write_filter_steps(
                    model.error_norm, estimator.steps(model, obs, rng), fh, truth
                )
        finally:
            # every truth line is checked, and a bad truth file is reported
            # before a failure of the run, as when it was read whole first
            for _ in truth or ():
                pass
    msg = f"wrote {out} ({estimator.kind}, {obs.n_steps} steps)"
    if final is not None:
        msg += f"; final squared error {final:.6g}"
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


def _detectability_lines(L, P, budget):
    """The lines of the rank test, the gain search and the contraction
    certificate of (L, P), computed before any is printed; the verdict and
    the search result."""
    d = L.shape[0]
    verdict = linear_theory.hautus_detectable(L, P)
    lines = [f"signal map: {d}x{d}, spectral radius {linear_theory.spectral_radius(L):.6g}"]
    if verdict.detectable:
        lines.append("detectable: yes")
    else:
        w = verdict.witness
        lines.append("detectable: no")
        lines.append(f"witness eigenvalue: {w.real:.6g}{w.imag:+.6g}j (|lambda| = {abs(w):.6g})")
    equiv = linear_theory.detectability_shift_equivalence(L, P)
    lines.append(f"shift equivalence (P vs PL): {'consistent' if equiv else 'INCONSISTENT'}")
    result = linear_theory.find_gain(L, P, budget=budget)
    lines.append(f"best gain search: rho(L - D P) = {result.radius:.6g} "
                 f"({'success' if result.success else 'no stabilizing gain found'})")
    if result.success:
        rows = "; ".join(" ".join(format(v, ".6g") for v in row) for row in result.gain)
        lines.append(f"gain D = [{rows}]")
        _, alpha = linear_theory.contractive_norm(L - result.gain @ P)
        lines.append(f"contraction factor alpha = {alpha:.6g} in the constructed norm")
    return lines, verdict, result


def _cmd_detect(args):
    # without the section, the required L is named
    sec = cfgmod.typed("linear", cfgmod.read_config_file(args.config).get("linear", {}))
    L = sec["l"]
    d = L.shape[0]
    if L.shape != (d, d):
        raise ConfigError(f"the signal map L must be square, got {d}x{L.shape[1]}")
    if sec["p"] is not None:
        P = sec["p"]
        if P.shape[1] != d:
            raise ConfigError(f"P has {P.shape[1]} columns, L needs {d}")
    elif sec["observed"] is not None:
        mask = np.zeros(d)
        for idx in sec["observed"]:
            if idx >= d:
                raise ConfigError(f"observed index {idx} out of range")
            mask[idx] = 1.0
        P = np.diag(mask)
    else:
        raise ConfigError("[linear] must define 'p' or 'observed'")

    try:
        # L is finite, but the analysis can leave float range: the gain
        # search scales its random restarts by max |L_ij|
        with np.errstate(over="raise", invalid="raise"):
            lines, verdict, result = _detectability_lines(L, P, sec["budget"])
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise FilterNumericsError(f"[linear] L: the analysis left float range: {exc}") from exc
    print("\n".join(lines))
    if args.out:
        with observation.outputs_on_success(args.out) as (out_tmp,), open(out_tmp, "w") as fh:
            fh.write(f"detectable = {verdict.detectable}\n")
            fh.write(f"rho_closed_loop = {observation.format_float(result.radius)}\n")
    return 0


def _cmd_squeeze_probe(args):
    sections = cfgmod.read_config_file(args.config)
    if "squeeze" not in sections:
        raise ConfigError("squeeze-probe needs a [squeeze] section")
    sec = cfgmod.typed("squeeze", sections["squeeze"])
    # the sampled ratios of one radius pair, a float each
    cfgmod.within_budget("[squeeze] n_samples", f"the ratios of {sec['n_samples']} samples",
                         8 * sec["n_samples"])
    model = cfgmod.build_model(sections.get("model", {}))
    projection = cfgmod.build_projection(sections.get("observation", {}), model)
    vnorm = cfgmod.default_vnorm(model, projection)
    gain = filters.Gain.identity_on_observed(projection)
    r = absorbing_radius(model)
    R = filters.default_ball_radius(model, vnorm)
    r_pairs = [(s * r, s * R) for s in sec["scales"]]
    # outside it a squared distance of two points of the balls, V(v - u),
    # leaves the normal floats, underflows to 0 or overflows, and the
    # ratio is nan
    low, high = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)
    for s, pair in zip(sec["scales"], r_pairs):
        if not low <= min(pair) <= max(pair) <= high:
            raise ConfigError(f"[squeeze] scales: {s:g} gives ball radii {pair[0]:.3g} and "
                              f"{pair[1]:.3g}, outside [{low:.3g}, {high:.3g}]")
    rng = observation.substream(sec["seed"] if args.seed is None else args.seed, "squeeze")
    entries = harness.empirical_squeezing(
        model, gain, vnorm, sec["h"], r_pairs, sec["n_samples"], rng,
        substeps=sec["substeps"] or None,
    )
    print(f"{'r_signal':>12}{'r_estimator':>13}{'alpha_hat':>12}{'frac>1':>10}")
    for e in entries:
        print(
            f"{e.radius_signal:>12.5g}{e.radius_estimator:>13.5g}"
            f"{e.alpha_hat:>12.5g}{e.frac_above_one:>10.4f}"
        )
    out = args.out
    if out:
        harness.write_squeeze_histogram(entries, out)
        print(f"wrote {out}")
    return 0


def _cmd_ns_demo(args):
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    if cfgmod.typed("model", cfg.model)["kind"] != "navier-stokes":
        raise ConfigError("ns-demo expects a navier-stokes model")
    model, projection, *_ = parts = cfgmod.build_parts(cfg)
    eps, n_steps = cfg.epsilons[0], cfg.n_steps
    rng = observation.substream(cfg.seed, "ns-demo")
    steps = observation.truth_and_observation_steps(*parts, eps, n_steps, cfg.h, rng)
    observer = cfgmod.build_filter_runner({"kind": "truncated-observer"}, *parts)
    # the squared errors at 0 and at each quarter of T are all that is kept
    quarters = (0.25, 0.5, 0.75, 1.0)
    marked = {0, *(int(q * n_steps) for q in quarters)}
    errs = {}
    out = args.out or cfg.out_path
    with observation.outputs_on_success(out) as (out_tmp,), open(out_tmp, "w", newline="") as fh:
        z = observer.z0[None]
        table = observation.TableWriter(fh, "m", z, ["sq_error"])
        for j, (v, y) in enumerate(steps):
            if j:
                z = observer.assimilate(model.step_batch(z, cfg.h), y[None])
            err = model.error_norm.row_values(v - z[0])
            table.write(j, z[0], err)
            if j in marked:
                errs[j] = err
    print(
        f"spectral demo: {model.name}, cutoff keeps {projection.n_retained} modes, "
        f"eps={eps:g}, {n_steps} steps"
    )
    print(f"initial squared error: {errs[0]:.6g}")
    for q in quarters:
        print(f"squared error at {q:.2f} T: {errs[int(q * n_steps)]:.6g}")
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
    except OSError as exc:  # a path the system refuses: missing folder, a directory
        print(f"chaosfilter: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
