import configparser
import glob
import importlib.util
import io
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import chaosfilter
from chaosfilter import cli, filters, observation
from chaosfilter import config as cfgmod
from chaosfilter.config import ConfigError, load_experiment_config, parse_matrix

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


TINY = """
[model]
kind = lorenz63

[observation]
kind = coordinate-mask
observed = 0

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.5 0.1
h = 0.01
T = 0.2
n_inits = 2
n_noise = 1
seed = 3

[output]
path = {out}
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_matrix_rows():
    M = parse_matrix("1 2; 3 4")
    np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        parse_matrix("1 2; 3")


def test_load_checked_in_configs():
    cfg = load_experiment_config(cfg_path("l63_table1.cfg"))
    assert cfg.n_steps == 500
    assert cfg.epsilons == [1.0, 0.1, 0.01]
    assert cfg.seed == 42
    cfg2 = load_experiment_config(cfg_path("l96_table2.cfg"))
    assert cfg2.model["dimension"] == "60"


def test_seed_and_out_overrides(tmp_path):
    cfg = load_experiment_config(
        cfg_path("l63_table1.cfg"), seed_override=7, out_override="x.csv"
    )
    assert cfg.seed == 7
    assert cfg.out_path == "x.csv"


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_experiment_config("/nonexistent/path.cfg")


def test_invalid_step_ratio(tmp_path):
    bad = TINY.replace("T = 0.2", "T = 0.205").format(out="o.csv")
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, bad))


def test_unknown_kinds_rejected(tmp_path):
    from chaosfilter import config as cfgmod

    bad = TINY.replace("kind = lorenz63", "kind = lorexz").format(out="o.csv")
    # the loader checks every section, so the kind is rejected there
    with pytest.raises(ConfigError, match=r"\[model\] kind: .*'lorexz'"):
        cfg = load_experiment_config(write(tmp_path, bad))
        cfgmod.build_model(cfg.model)


def test_filter_section_required(tmp_path):
    bad = TINY.replace("[filter:trunc]\nkind = truncated-observer\n", "").format(
        out="o.csv"
    )
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, bad))


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
SHIPPED_CONFIGS = sorted(
    glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))
    + glob.glob(os.path.join(GOLDEN_DIR, "**", "*.cfg"), recursive=True)
)
WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_everything(path):
    """Read every section of the config at ``path`` through the schema and
    build what each subcommand would build from it."""
    parser = cfgmod.read_config_file(path)
    if parser.has_section("experiment"):
        cfg = load_experiment_config(path)
        model = cfgmod.build_model(cfg.model)
        projection = cfgmod.build_projection(cfg.observation, model)
        noise = cfgmod.build_noise(cfg.noise, projection)
        init_sampler = cfgmod.build_init_sampler(cfg.model, model)
        for spec in cfg.filters:
            cfgmod.build_filter_runner(spec, model, projection, noise, init_sampler)
    if parser.has_section("linear"):
        cfgmod.typed("linear", dict(parser.items("linear")))
    if parser.has_section("squeeze"):
        cfgmod.typed("squeeze", dict(parser.items("squeeze")))
        model = cfgmod.build_model(dict(parser.items("model")))
        cfgmod.build_projection(dict(parser.items("observation")), model)


@pytest.mark.parametrize(
    "path", SHIPPED_CONFIGS,
    ids=[os.path.relpath(p, os.path.join(CONFIG_DIR, os.pardir)) for p in SHIPPED_CONFIGS],
)
def test_shipped_configs_build_through_the_schema(path):
    _build_everything(path)


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_benchmark_workload_configs_build_through_the_schema(tmp_path, smoke):
    workloads = _perfbench_workloads()
    for name in workloads.NAMES:
        path = tmp_path / f"{name}.cfg"
        path.write_text(workloads.config_text(name, seed=7, smoke=smoke))
        _build_everything(str(path))


# ---------------------------------------------------------------------------
# CLI plumbing


def test_no_arguments_prints_usage(capsys):
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mse-table", "--config", "x", "--bogus"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_config_exits_one(capsys):
    assert cli.main(["mse-table", "--config", "/no/such/file.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text("this is not an ini file\n[model\nkind=")
    assert cli.main(["mse-table", "--config", str(bad)]) == 1
    assert "malformed config" in capsys.readouterr().err


def test_missing_observation_file_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, TINY.format(out="o.csv"))
    assert cli.main(["filter", "--config", cfg, "--obs", "/no/such/obs.csv"]) == 1
    err = capsys.readouterr().err
    assert "not found" in err


@pytest.mark.parametrize("case", [
    "mse-table-out", "simulate-out", "filter-out", "detect-out",
    "config-is-directory", "truth-is-directory", "simulate-out-is-directory",
])
def test_paths_the_system_refuses_exit_one(tmp_path, capsys, case):
    cfg = write(tmp_path, TINY.format(out="o.csv"))
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", cfg, "--out", sim]) == 0
    missing = str(tmp_path / "no-such-dir" / "out")
    filter_argv = ["filter", "--config", cfg, "--obs", sim + "_observations.csv"]
    os.mkdir(tmp_path / "taken_truth.csv")  # an output path that is a directory
    argv, path = {
        # mse-table runs the whole experiment before it writes
        "mse-table-out": (["mse-table", "--config", cfg, "--out", missing], missing),
        "simulate-out": (["simulate", "--config", cfg, "--out", missing], missing + "_truth.csv"),
        "filter-out": (filter_argv + ["--out", missing], missing),
        "detect-out": (["detect", "--config", cfg_path("detect_rotation.cfg"), "--out", missing],
                       missing),
        "config-is-directory": (["mse-table", "--config", str(tmp_path)], str(tmp_path)),
        "truth-is-directory": (filter_argv + ["--truth", str(tmp_path),
                                              "--out", str(tmp_path / "run.csv")], str(tmp_path)),
        # the rename at the end fails, after the outputs were written
        "simulate-out-is-directory": (["simulate", "--config", cfg, "--out",
                                       str(tmp_path / "taken")], str(tmp_path / "taken_truth.csv")),
    }[case]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: ") and err.endswith(f": {path}\n"), err
    assert "Traceback" not in err
    # no output and no temporary file
    assert sorted(os.listdir(tmp_path)) == before


SQUEEZE_TINY = """
[model]
kind = lorenz63

[observation]
kind = coordinate-mask
observed = 0

[squeeze]
h = 0.01
n_samples = 50
scales = 0.05
seed = 5
"""

DETECT = """
[linear]
L = {L}
{extra}
"""


@pytest.mark.parametrize(
    "command,body",
    [
        ("detect", DETECT.format(L="1 x; 0 1", extra="observed = 0")),
        ("detect", DETECT.format(L="1 2", extra="observed = 0")),
        ("detect", DETECT.format(L="1 0; 0 1", extra="observed = 0 x")),
        ("detect", DETECT.format(L="1 0; 0 1", extra="observed = 0\nbudget = many")),
        ("detect", DETECT.format(L="1 0; 0 1", extra="P = 1 0 0")),
        ("mse-table", TINY.replace("observed = 0", "observed = 0 x").format(out="o.csv")),
        ("squeeze-probe", SQUEEZE_TINY.replace("scales = 0.05", "scales = 0.05 half")),
    ],
    ids=["L-token", "L-not-square", "observed-token", "budget-token", "P-columns",
         "mse-observed-token", "squeeze-scales-token"],
)
def test_bad_config_numbers_exit_one(tmp_path, capsys, command, body):
    cfg = write(tmp_path, body)
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:")
    assert "Traceback" not in err


NS_EXPERIMENT = """
[model]
kind = navier-stokes
viscosity = 0.5
k_max = 3
substeps = 4

[observation]
kind = fourier-cutoff
lam = 2

[noise]
kind = spectral-mode

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1
h = 0.01
T = 0.02
n_inits = 1
n_noise = 1
seed = 7
"""

PARTICLE = "[filter:pf]\nkind = particle\nn_particles = 20"

# key -> (subcommand, config template, text replaced, replacement)
BAD_SCALARS = {
    "substeps": ("mse-table", TINY, "kind = lorenz63", "kind = lorenz63\nsubsteps = ten"),
    "dimension": ("mse-table", TINY, "kind = lorenz63", "kind = lorenz96\ndimension = sixty"),
    "k_max": ("mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = three"),
    "viscosity": ("mse-table", NS_EXPERIMENT, "viscosity = 0.5", "viscosity = thick"),
    "period": ("mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nperiod = long"),
    "forcing_amplitude": (
        "mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nforcing_amplitude = big"
    ),
    "init_amplitude": ("mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\ninit_amplitude = x"),
    "init_decay": ("mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\ninit_decay = 2x"),
    "lam": ("mse-table", NS_EXPERIMENT, "lam = 2", "lam = two"),
    "radius_scale": (
        "mse-table", TINY, "kind = truncated-observer",
        "kind = truncated-observer\nradius_scale = wide",
    ),
    "sigma2": ("mse-table", TINY, "kind = truncated-observer", "kind = 3dvar\nsigma2 = one"),
    "n_particles": ("mse-table", TINY, "[filter:trunc]", PARTICLE + "0x\n\n[filter:trunc]"),
    "resample_threshold": (
        "mse-table", TINY, "[filter:trunc]",
        PARTICLE + "\nresample_threshold = half\n\n[filter:trunc]",
    ),
    "jitter": ("mse-table", TINY, "[filter:trunc]", PARTICLE + "\njitter = some\n\n[filter:trunc]"),
    "h": ("squeeze-probe", SQUEEZE_TINY, "h = 0.01", "h = fast"),
    "n_samples": ("squeeze-probe", SQUEEZE_TINY, "n_samples = 50", "n_samples = 5e1"),
    "seed": ("squeeze-probe", SQUEEZE_TINY, "seed = 5", "seed = five"),
    "squeeze-substeps": ("squeeze-probe", SQUEEZE_TINY, "seed = 5", "seed = 5\nsubsteps = 1.5"),
}


@pytest.mark.parametrize("key", sorted(BAD_SCALARS))
def test_bad_scalar_config_values_exit_one(tmp_path, capsys, key):
    command, template, old, new = BAD_SCALARS[key]
    assert old in template
    cfg = write(tmp_path, template.replace(old, new).format(out=str(tmp_path / "o.csv")))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:")
    token = new.rsplit(" = ", 1)[1].split("\n")[0]
    assert f"{key.split('-')[-1]}: bad" in err and repr(token) in err
    assert "Traceback" not in err


BAD_PARTICLE_SETTINGS = {
    "one-particle": ("n_particles = 1", "n_particles: need at least 2"),
    "negative-jitter": ("jitter = -1", "jitter: must be nonnegative"),
    "threshold-above-one": ("resample_threshold = 1.5", "resample_threshold: must lie in [0, 1]"),
    "threshold-below-zero": ("resample_threshold = -0.1", "resample_threshold: must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARTICLE_SETTINGS))
def test_bad_particle_settings_exit_one(tmp_path, capsys, case):
    setting, message = BAD_PARTICLE_SETTINGS[case]
    good = write(tmp_path, TINY.format(out=str(tmp_path / "o.csv")), "good.cfg")
    sim_out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", good, "--out", sim_out]) == 0
    capsys.readouterr()
    bad_particle = PARTICLE.replace("n_particles = 20", "") + "\n" + setting
    bodies = {
        "mse-table": TINY.replace("[filter:trunc]", bad_particle + "\n\n[filter:trunc]"),
        "filter": TINY.replace("[filter:trunc]\nkind = truncated-observer", bad_particle),
    }
    for command, body in bodies.items():
        cfg = write(tmp_path, body.format(out=str(tmp_path / "o.csv")))
        argv = [command, "--config", cfg]
        if command == "filter":
            argv += ["--obs", sim_out + "_observations.csv"]
        assert cli.main(argv) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("chaosfilter: config error:"), (command, err)
        assert message in err and "Traceback" not in err


# case -> (subcommand, config template, text replaced, replacement, key named)
OUT_OF_RANGE = {
    "model-substeps-negative": (
        "mse-table", TINY, "kind = lorenz63", "kind = lorenz63\nsubsteps = -1", "substeps"
    ),
    "ns-substeps-negative": ("mse-table", NS_EXPERIMENT, "substeps = 4", "substeps = -1",
                             "substeps"),
    "squeeze-substeps-negative": (
        "squeeze-probe", SQUEEZE_TINY, "seed = 5", "seed = 5\nsubsteps = -1", "substeps"
    ),
    "k_max-zero": ("mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 0", "k_max"),
    "viscosity-zero": ("mse-table", NS_EXPERIMENT, "viscosity = 0.5", "viscosity = 0",
                       "viscosity"),
    "viscosity-negative": (
        "mse-table", NS_EXPERIMENT, "viscosity = 0.5", "viscosity = -0.5", "viscosity"
    ),
    "viscosity-nan": ("mse-table", NS_EXPERIMENT, "viscosity = 0.5", "viscosity = nan",
                      "viscosity"),
    "viscosity-inf": ("mse-table", NS_EXPERIMENT, "viscosity = 0.5", "viscosity = inf",
                      "viscosity"),
    "forcing-mode-outside-lattice": (
        "mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nforcing_mode = 9 0", "forcing_mode"
    ),
    "forcing-mode-one-integer": (
        "mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nforcing_mode = 1", "forcing_mode"
    ),
    "forcing-mode-zero": (
        "mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nforcing_mode = 0 0", "forcing_mode"
    ),
    # an unforced flow's absorbing ball has radius 0: no truncation ball,
    # no squeeze certificate
    "forcing-amplitude-zero": (
        "mse-table", NS_EXPERIMENT, "k_max = 3", "k_max = 3\nforcing_amplitude = 0",
        "forcing_amplitude",
    ),
    "forcing-amplitude-negative-zero": (
        "squeeze-probe", NS_EXPERIMENT + "\n[squeeze]\nn_samples = 10\n", "k_max = 3",
        "k_max = 3\nforcing_amplitude = -0", "forcing_amplitude",
    ),
    "lorenz96-dimension-2": (
        "mse-table", TINY, "kind = lorenz63", "kind = lorenz96\ndimension = 2", "dimension"
    ),
    "lorenz96-dimension-not-3n": (
        "mse-table", TINY, "kind = lorenz63", "kind = lorenz96\ndimension = 10", "dimension"
    ),
    "squeeze-h-negative": ("squeeze-probe", SQUEEZE_TINY, "h = 0.01", "h = -0.01", "h"),
    "squeeze-h-zero": ("squeeze-probe", SQUEEZE_TINY, "h = 0.01", "h = 0", "h"),
    "squeeze-n_samples-zero": (
        "squeeze-probe", SQUEEZE_TINY, "n_samples = 50", "n_samples = 0", "n_samples"
    ),
    "squeeze-n_samples-negative": (
        "squeeze-probe", SQUEEZE_TINY, "n_samples = 50", "n_samples = -3", "n_samples"
    ),
    "squeeze-scales-negative": (
        "squeeze-probe", SQUEEZE_TINY, "scales = 0.05", "scales = -1", "scales"
    ),
    "squeeze-scales-zero": ("squeeze-probe", SQUEEZE_TINY, "scales = 0.05", "scales = 0",
                            "scales"),
    "squeeze-scales-nan": ("squeeze-probe", SQUEEZE_TINY, "scales = 0.05", "scales = nan",
                           "scales"),
    "squeeze-scales-inf": ("squeeze-probe", SQUEEZE_TINY, "scales = 0.05", "scales = inf",
                           "scales"),
    "squeeze-scales-empty": ("squeeze-probe", SQUEEZE_TINY, "scales = 0.05", "scales =",
                             "scales"),
    "T-inf": ("mse-table", TINY, "T = 0.2", "T = inf", "t"),
    # each finite and positive, but T / h overflows
    "T-over-h-overflow": ("mse-table", TINY, "h = 0.01\nT = 0.2", "h = 1e-300\nT = 1e300", "t"),
    # within the multiple-of-h tolerance, but T / h rounds to 0 steps
    "T-zero-steps": ("mse-table", TINY, "T = 0.2", "T = 1e-12", "t"),
    "T-zero-steps-simulate": ("simulate", TINY, "T = 0.2", "T = 1e-12", "t"),
    "h-inf": ("mse-table", TINY, "h = 0.01", "h = inf", "h"),
    "epsilons-nan": ("mse-table", TINY, "epsilons = 0.5 0.1", "epsilons = nan 0.1", "epsilons"),
    "epsilons-inf": ("mse-table", TINY, "epsilons = 0.5 0.1", "epsilons = inf 0.1", "epsilons"),
    "seed-negative": ("mse-table", TINY, "seed = 3", "seed = -1", "seed"),
    "radius_scale-negative": (
        "mse-table", TINY, "kind = truncated-observer",
        "kind = truncated-observer\nradius_scale = -1", "radius_scale",
    ),
    "radius_scale-nan": (
        "mse-table", TINY, "kind = truncated-observer",
        "kind = truncated-observer\nradius_scale = nan", "radius_scale",
    ),
    "sigma2-negative": (
        "mse-table", TINY, "kind = truncated-observer", "kind = 3dvar\nsigma2 = -1", "sigma2"
    ),
    "L-nan": ("detect", DETECT.format(L="1 0; 0 1", extra="observed = 0"), "L = 1 0; 0 1",
              "L = nan 0; 0 1", "l"),
    "budget-negative": (
        "detect", DETECT.format(L="1 0; 0 1", extra="observed = 0\nbudget = 20"), "budget = 20",
        "budget = -3", "budget",
    ),
    # an absent section reads as an empty one, whose required key is named
    "model-section-missing": ("mse-table", TINY, "[model]\nkind = lorenz63\n", "", "kind"),
    # schema-valid, but its spectral grid and FFT block would not fit in memory
    "k_max-huge": ("ns-demo", NS_EXPERIMENT, "k_max = 3", "k_max = 1_000", "k_max"),
    # the first k_max over the budget (spectral.model_bytes)
    "k_max-over-budget": ("ns-demo", NS_EXPERIMENT, "k_max = 3", "k_max = 684", "k_max"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_config_values_exit_one(tmp_path, capsys, case):
    command, template, old, new, key = OUT_OF_RANGE[case]
    assert old in template
    cfg = write(tmp_path, template.replace(old, new).format(out=str(tmp_path / "o.csv")))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:"), err
    assert f"{key}: " in err and "Traceback" not in err


PARTICLE_TINY = TINY.replace("kind = truncated-observer", "kind = particle")

# case -> (subcommand, config text, key named); every size is one no
# machine could allocate, and each reached numpy's allocator before it
# was estimated against spectral.MEMORY_BUDGET
OVERSIZED = {
    "n_particles": (
        "mse-table",
        PARTICLE_TINY.replace("kind = particle", "kind = particle\nn_particles = 10000000000000"),
        "[filter:trunc] n_particles",
    ),
    "T-stored-truths": (
        "mse-table", PARTICLE_TINY.replace("T = 0.2", "T = 1e13"), "[experiment] t"
    ),
    "T-time-averaged": (
        "mse-table", TINY.replace("T = 0.2", "T = 1e13\nmse_mode = time-averaged"), "[experiment] t"
    ),
    "n_inits": ("mse-table", TINY.replace("n_inits = 2", "n_inits = 1000000000000"),
                "[experiment] n_inits"),
    "n_samples": (
        "squeeze-probe", SQUEEZE_TINY.replace("n_samples = 50", "n_samples = 10000000000000"),
        "[squeeze] n_samples",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_sizes_exit_one_before_allocating(tmp_path, capsys, case):
    command, text, key = OVERSIZED[case]
    cfg = write(tmp_path, text.format(out=str(tmp_path / "o.csv")))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"chaosfilter: config error: {key}"), err
    assert "budget" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_detect_on_an_L_near_float_max_is_a_numerical_failure(tmp_path, capsys):
    # every entry is finite, but the gain search scales its random restarts
    # by max |L_ij| = 1e308, and they would overflow: the input is refused
    # before the search starts and before any verdict is printed
    out = str(tmp_path / "d.txt")
    cfg = write(tmp_path, DETECT.format(L="1e308 0; 0 1", extra="observed = 0"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["detect", "--config", cfg, "--out", out]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n"), captured.err
    assert lines[0].startswith("chaosfilter: numerical failure: [linear] L: "), lines
    assert os.listdir(tmp_path) == ["exp.cfg"]


# case -> (subcommand, config template, what the message says)
MODEL_MISMATCHES = {
    "fourier-cutoff-on-lorenz63": (
        "mse-table", TINY.replace("kind = coordinate-mask\nobserved = 0", "kind = fourier-cutoff"),
        "fourier-cutoff applies to spectral models only",
    ),
    "ns-demo-on-lorenz63": ("ns-demo", TINY, "ns-demo expects a navier-stokes model"),
}


@pytest.mark.parametrize("case", sorted(MODEL_MISMATCHES))
def test_commands_on_the_wrong_model_kind_exit_one(tmp_path, capsys, case):
    command, template, message = MODEL_MISMATCHES[case]
    cfg = write(tmp_path, template.format(out=str(tmp_path / "o.csv")))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:"), err
    assert message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["exp.cfg"]


# case -> (subcommand, config template, what the message names)
UNKNOWN_NAMES = {
    "experiment-n_init": (
        "mse-table", TINY.replace("n_inits = 2", "n_inits = 2\nn_init = 40"),
        "[experiment] n_init: unknown key",
    ),
    "model-substep": (
        "mse-table", TINY.replace("kind = lorenz63", "kind = lorenz63\nsubstep = 3"),
        "[model] substep: unknown key",
    ),
    "linear-observerd": (
        "detect", DETECT.format(L="1 0; 0 1", extra="observerd = 0"),
        "[linear] observerd: unknown key",
    ),
    "noize-section": (
        "mse-table", TINY + "\n[noize]\nkind = gaussian-observed\n", "[noize]: unknown section"
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_unknown_keys_and_sections_exit_one(tmp_path, capsys, case):
    command, template, named = UNKNOWN_NAMES[case]
    out = str(tmp_path / "o.csv")
    cfg = write(tmp_path, template.format(out=out))
    assert cli.main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:"), err
    assert named in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def _set(text, section, key, token):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    parser.set(section, key, token)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _schema_config(section, kind):
    """(subcommand, config text) of a run that reads ``section`` with ``kind``."""
    if section == "linear":
        return "detect", DETECT.format(L="1 0; 0 1", extra="observed = 0")
    if section == "squeeze":
        return "squeeze-probe", SQUEEZE_TINY
    if kind in ("navier-stokes", "fourier-cutoff"):
        return "mse-table", NS_EXPERIMENT
    text = TINY.format(out="o.csv")
    return "mse-table", text if kind is None else _set(text, section, "kind", kind)


def _out_of_range_token(parse, test):
    for token in ("-1", "0", "nan", "inf"):
        try:
            value = parse(token)
        except ValueError:
            continue
        if test is not None and not test(value):
            return token
    return None


# (section, kind, key) of every numeric key in the schema
SCHEMA_NUMBERS = [
    (section.replace("<name>", "trunc"), kind, key)
    for section, table in cfgmod.SCHEMA.items()
    for kind, rows in table.items()
    for key, (parse, _, _, _) in rows.items()
    if parse is not str
]


@pytest.mark.parametrize("bad", ["token", "range"])
@pytest.mark.parametrize(
    "section,kind,key", SCHEMA_NUMBERS, ids=[f"{s}-{k}-{key}" for s, k, key in SCHEMA_NUMBERS]
)
def test_every_numeric_schema_key_rejects_bad_values(tmp_path, capsys, section, kind, key, bad):
    table = cfgmod.SCHEMA["filter:<name>" if section.startswith("filter:") else section]
    parse, _, test, need = table[kind][key]
    if bad == "token":
        token, message = "x", f"[{section}] {key}: bad"
    else:
        # every numeric key has a range that some token falls outside
        token, message = _out_of_range_token(parse, test), f"[{section}] {key}: {need}"
        assert token is not None, (section, key)
    command, text = _schema_config(section, kind)
    cfg = write(tmp_path, _set(text, section, key, token))
    out = str(tmp_path / "o.csv")
    assert cli.main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:"), err
    assert message in err and repr(token) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,template", [("mse-table", TINY), ("squeeze-probe", SQUEEZE_TINY)],
    ids=["mse-table", "squeeze-probe"],
)
def test_negative_seed_option_exits_one(tmp_path, capsys, command, template):
    cfg = write(tmp_path, template.format(out=str(tmp_path / "o.csv")))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--seed", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "--seed: must be nonnegative" in err
    assert "Traceback" not in err


def _append(path, text):
    with open(path, "a") as fh:
        fh.write(text)


def _drop_last_line(path):
    lines = open(path).readlines()
    open(path, "w").writelines(lines[:-1])


def _repeat_first_row(obs, truth):
    _append(obs, open(obs).readlines()[1])


def _drop_rows(keep):
    def corrupt(obs, truth):
        lines = open(obs).readlines()
        open(obs, "w").writelines(lines[:1] + [ln for ln in lines[1:] if keep(ln.split(","))])
    return corrupt


def _drop_meta_key(key):
    def corrupt(obs, truth):
        lines = open(obs + ".meta").read().splitlines(keepends=True)
        open(obs + ".meta", "w").writelines(
            ln for ln in lines if not ln.startswith(key + " ")
        )
    return corrupt


def _set_meta(key, value):
    def corrupt(obs, truth):
        lines = open(obs + ".meta").read().splitlines(keepends=True)
        open(obs + ".meta", "w").writelines(
            f"{key} = {value}\n" if ln.startswith(key + " ") else ln for ln in lines
        )
    return corrupt


CORRUPTIONS = {
    "index-out-of-range": lambda obs, truth: _append(obs, "1,99,0.5\n"),
    "negative-index": lambda obs, truth: _append(obs, "1,-1,0.5\n"),
    "bad-token": lambda obs, truth: _append(obs, "1,0x,0.5\n"),
    "step-zero": lambda obs, truth: _append(obs, "0,0,0.5\n"),
    "step-past-end": lambda obs, truth: _append(obs, "21,0,0.5\n"),
    "repeated-row": _repeat_first_row,
    "short-row": lambda obs, truth: _append(obs, "1,0\n"),
    "unobserved-index": lambda obs, truth: _append(obs, "1,2,0.5\n"),
    "imaginary-part-in-real-file": lambda obs, truth: _append(obs, "1,0i,0.5\n"),
    "meta-no-eps": _drop_meta_key("eps"),
    "meta-no-h": _drop_meta_key("h"),
    "meta-no-n_steps": _drop_meta_key("n_steps"),
    "meta-no-dim": _drop_meta_key("dim"),
    "meta-h-zero": _set_meta("h", "0"),
    "meta-h-nan": _set_meta("h", "nan"),
    "meta-eps-negative": _set_meta("eps", "-1"),
    "meta-eps-nan": _set_meta("eps", "nan"),
    "meta-n_steps-huge": _set_meta("n_steps", str(10**12)),
    "meta-n_steps-negative": _set_meta("n_steps", "-3"),
    "meta-dim-huge": _set_meta("dim", str(10**12)),
    "truth-bad-number": lambda obs, truth: _append(truth, "21," + "x," * 59 + "0\n"),
    "truth-short": lambda obs, truth: _drop_last_line(truth),
    "truth-empty": lambda obs, truth: open(truth, "w").write("j,v0\n"),
    "missing-row": _drop_rows(lambda row: row[:2] != ["1", "0"]),
    "missing-index": _drop_rows(lambda row: row[1] != "0"),
}

# the .meta key each bad value is reported under
META_KEYS = {
    "meta-h-zero": "h",
    "meta-h-nan": "h",
    "meta-eps-negative": "eps",
    "meta-eps-nan": "eps",
    "meta-n_steps-huge": "n_steps",
    "meta-n_steps-negative": "n_steps",
    "meta-dim-huge": "dim",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS) + ["wrong-model"])
def test_corrupted_observation_files_exit_one(tmp_path, capsys, corruption):
    # 60-site data, filtered by the 60-site model or, for "wrong-model",
    # by the 3-dim convection model
    l96 = TINY.replace("kind = lorenz63", "kind = lorenz96\ndimension = 60")
    sim_cfg = write(tmp_path, l96.format(out="o.csv"), name="l96.cfg")
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", sim_cfg, "--out", out]) == 0
    obs, truth = out + "_observations.csv", out + "_truth.csv"
    if corruption == "wrong-model":
        filter_cfg = write(tmp_path, TINY.format(out="o.csv"))
    else:
        filter_cfg = sim_cfg
        CORRUPTIONS[corruption](obs, truth)
    capsys.readouterr()
    argv = ["filter", "--config", filter_cfg, "--obs", obs, "--truth", truth]
    assert cli.main(argv + ["--out", str(tmp_path / "run.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:")
    assert "Traceback" not in err
    if corruption in META_KEYS:
        assert f".meta: {META_KEYS[corruption]} " in err, err


# a single RK4 substep across h = 2 on the cyclic model overflows
BLOWUP = """
[model]
kind = lorenz96
dimension = 6
substeps = 1

[observation]
kind = every-third-unobserved

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1
h = 2
T = 20
n_inits = 1
n_noise = 1
seed = 3

[output]
path = x.csv
"""


def test_particle_filter_on_noise_free_file_exits_one(tmp_path, capsys):
    noise_free = TINY.replace("epsilons = 0.5 0.1", "epsilons = 0")
    sim_cfg = write(tmp_path, noise_free.format(out="o.csv"), "sim.cfg")
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", sim_cfg, "--out", sim]) == 0
    capsys.readouterr()
    particle = TINY.replace("[filter:trunc]\nkind = truncated-observer", PARTICLE)
    pf_cfg = write(tmp_path, particle.format(out="o.csv"), "pf.cfg")
    before = sorted(os.listdir(tmp_path))
    argv = ["filter", "--config", pf_cfg, "--obs", sim + "_observations.csv",
            "--truth", sim + "_truth.csv", "--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:") and "eps > 0" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, BLOWUP, "blowup.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "numerical failure" in err, err
    # no truth, observation or .meta file, and no temporary file
    assert os.listdir(tmp_path) == ["blowup.cfg"]


@pytest.mark.parametrize("failure,code", [
    ("truth-short", 1), ("blow-up", 2), ("blow-up-and-bad-truth", 1),
])
def test_failed_filter_leaves_no_output(tmp_path, capsys, failure, code):
    # the untruncated observer, which the ball does not hold back
    cfg = write(tmp_path, BLOWUP.replace("= truncated-observer", "= observer"), "blowup.cfg")
    sim_cfg = write(tmp_path, BLOWUP.replace("h = 2", "h = 0.01"), "sim.cfg")
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", sim_cfg, "--out", sim]) == 0
    obs, truth = sim + "_observations.csv", sim + "_truth.csv"
    if failure == "truth-short":
        _drop_last_line(truth)
    else:
        # the filter steps over the observation file's h
        meta = open(obs + ".meta").read()
        open(obs + ".meta", "w").write(meta.replace("h = 0.01", "h = 2"))
    if failure == "blow-up-and-bad-truth":
        # a bad truth line past the blow-up is still reported, as a config error
        _append(truth, "2001,x,0,0,0,0,0\n")
    before = sorted(os.listdir(tmp_path))
    argv = ["filter", "--config", cfg, "--obs", obs, "--truth", truth,
            "--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == code
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == before


L96_60 = """
[model]
kind = lorenz96
dimension = 60

[observation]
kind = every-third-unobserved

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1
h = 0.01
T = {T}
n_inits = 1
n_noise = 1
seed = 11
"""


def _traced_peak(argv):
    """Peak traced allocation, in bytes, of one in-process CLI run."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_filter_memory_does_not_grow_with_trajectory_length(tmp_path, capsys):
    peaks = {}
    for T in (1, 1, 4):  # the first run loads what a run loads once
        cfg = write(tmp_path, L96_60.format(T=T))
        sim = str(tmp_path / "sim")
        peaks[T] = (
            _traced_peak(["simulate", "--config", cfg, "--out", sim]),
            _traced_peak(["filter", "--config", cfg, "--obs", sim + "_observations.csv",
                          "--truth", sim + "_truth.csv", "--out", str(tmp_path / "run.csv")]),
        )
    capsys.readouterr()
    (sim_1, filter_1), (sim_4, filter_4) = peaks[1], peaks[4]
    assert abs(sim_4 - sim_1) < 64 * 1024, (sim_1, sim_4)
    # the observation input is the one thing that grows: 8-byte values and
    # a 1-byte map of the rows seen, for 300 more steps of 60 sites
    assert filter_4 - filter_1 <= 300 * 60 * (8 + 1) + 64 * 1024, (filter_1, filter_4)


def test_values_at_unobserved_indices_are_rejected(tmp_path, capsys):
    cfg = write(tmp_path, BLOWUP.replace("h = 2", "h = 0.01"), "sim.cfg")
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", cfg, "--out", sim]) == 0
    obs = sim + "_observations.csv"
    # index 2 is unobserved; it is given at every step, so the file is complete
    _append(obs, "".join(f"{j},2,0.5\n" for j in range(1, 2001)))
    argv = ["filter", "--config", cfg, "--obs", obs, "--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "values at indices the model does not observe" in err


def test_zero_noise_with_particle_filter_rejected(tmp_path, capsys):
    text = TINY.replace("epsilons = 0.5 0.1", "epsilons = 0") + (
        "\n[filter:pf]\nkind = particle\nn_particles = 10\n"
    )
    cfg = write(tmp_path, text.format(out="o.csv"))
    assert cli.main(["mse-table", "--config", cfg]) == 1
    assert "positive noise strength" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands


def test_mse_table_runs_and_is_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cfg = write(tmp_path, TINY.format(out=out1))
    assert cli.main(["mse-table", "--config", cfg]) == 0
    assert cli.main(["mse-table", "--config", cfg, "--out", out2, "--threads", "3"]) == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    assert a == b
    assert "scaling slope" not in capsys.readouterr().out  # only 2 eps values


def test_refused_meta_path_leaves_the_old_report(tmp_path, capsys):
    cfg = write(tmp_path, TINY.format(out="o.csv"))
    out = tmp_path / "r.csv"
    out.write_bytes(b"an earlier report\r\n")
    os.mkdir(tmp_path / "r.csv.meta")
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["mse-table", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"chaosfilter: Is a directory: {out}.meta\n"
    assert out.read_bytes() == b"an earlier report\r\n"
    # no temporary file either
    assert sorted(os.listdir(tmp_path)) == before


def test_mse_table_seed_override_changes_output(tmp_path):
    out = str(tmp_path / "a.csv")
    cfg = write(tmp_path, TINY.format(out=out))
    cli.main(["mse-table", "--config", cfg])
    first = (tmp_path / "a.csv").read_text()
    cli.main(["mse-table", "--config", cfg, "--seed", "99"])
    second = (tmp_path / "a.csv").read_text()
    assert first != second


def test_simulate_then_filter_round_trip(tmp_path, capsys):
    out = str(tmp_path / "sim")
    cfg = write(tmp_path, TINY.format(out=str(tmp_path / "run.csv")))
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    obs = out + "_observations.csv"
    truth = out + "_truth.csv"
    assert os.path.exists(obs) and os.path.exists(truth)
    run_out = str(tmp_path / "est.csv")
    code = cli.main(
        ["filter", "--config", cfg, "--obs", obs, "--truth", truth, "--out", run_out]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "final squared error" in text
    lines = open(run_out).read().strip().splitlines()
    assert len(lines) == 22  # header + 21 states (T/h = 20 steps)

    # without a truth file the run is still written, just without errors
    code = cli.main(["filter", "--config", cfg, "--obs", obs, "--out", run_out])
    assert code == 0
    assert "final squared error" not in capsys.readouterr().out


FILTER_SECTIONS = {
    "truncated-observer": "kind = truncated-observer",
    "3dvar": "kind = 3dvar\nsigma2 = 1.0",
    "particle": "kind = particle\nn_particles = 50\njitter = 0.02",
}


@pytest.mark.parametrize("kind", sorted(FILTER_SECTIONS))
def test_filter_streams_the_rows_of_the_collected_run(tmp_path, capsys, kind):
    text = TINY.replace("kind = truncated-observer", FILTER_SECTIONS[kind])
    cfg = write(tmp_path, text.format(out="o.csv"))
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", cfg, "--out", sim]) == 0
    obs, truth = sim + "_observations.csv", sim + "_truth.csv"
    streamed = tmp_path / "streamed.csv"
    argv = ["filter", "--config", cfg, "--obs", obs, "--truth", truth, "--out", str(streamed)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the same filter run whole, in memory, on the same random stream
    exp = load_experiment_config(cfg)
    model = cfgmod.build_model(exp.model)
    projection = cfgmod.build_projection(exp.observation, model)
    noise = cfgmod.build_noise(exp.noise, projection)
    init_sampler = cfgmod.build_init_sampler(exp.model, model)
    seq = observation.import_observations(obs)
    estimator = cfgmod.build_filter_runner(
        exp.filters[0], model, projection, noise, init_sampler
    ).at_eps(seq.eps)
    rng = observation.substream(exp.seed, "filter-cli")
    steps = estimator.steps(model, seq, rng)
    run = filters.collect_run(
        model.error_norm, estimator.kind, steps, seq.n_steps, truth=observation.import_truth(truth)
    )
    filters.export_filter_run(run, tmp_path / "whole.csv")
    assert streamed.read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_filter_requires_single_filter_section(tmp_path):
    doubled = TINY + "\n[filter:other]\nkind = observer\n"
    cfg = write(tmp_path, doubled.format(out="o.csv"))
    sim_out = str(tmp_path / "sim")
    cli.main(["simulate", "--config", cfg, "--out", sim_out])
    code = cli.main(
        ["filter", "--config", cfg, "--obs", sim_out + "_observations.csv"]
    )
    assert code == 1


def test_detect_verdicts(capsys):
    assert cli.main(["detect", "--config", cfg_path("detect_rotation.cfg")]) == 0
    out = capsys.readouterr().out
    assert "detectable: yes" in out
    assert "alpha" in out

    assert cli.main(["detect", "--config", cfg_path("detect_diag.cfg")]) == 0
    out = capsys.readouterr().out
    assert "detectable: yes" in out
    assert "rho(L - D P) = 0.5" in out

    assert cli.main(["detect", "--config", cfg_path("detect_hidden_unstable.cfg")]) == 0
    out = capsys.readouterr().out
    assert "detectable: no" in out
    assert "witness eigenvalue: 2" in out
    assert "no stabilizing gain found" in out


def test_detect_on_a_badly_scaled_map(tmp_path, capsys):
    # a 1e20 eigenvalue beside P's unit row: the observed direction is the
    # expanding one, and observing through the map must agree
    cfg = write(tmp_path, DETECT.format(L="1e20 0; 0 0.5", extra="observed = 0"))
    assert cli.main(["detect", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "detectable: yes" in out
    assert "shift equivalence (P vs PL): consistent" in out


def test_squeeze_probe_smoke(tmp_path, capsys):
    text = """
[model]
kind = lorenz63

[observation]
kind = coordinate-mask
observed = 0

[squeeze]
h = 0.01
n_samples = 400
scales = 0.05
seed = 5
"""
    cfg = write(tmp_path, text)
    hist = str(tmp_path / "hist.csv")
    assert cli.main(["squeeze-probe", "--config", cfg, "--out", hist]) == 0
    out = capsys.readouterr().out
    assert "alpha_hat" in out
    assert os.path.exists(hist)


NS_TINY = """
[model]
kind = navier-stokes
viscosity = 0.5
k_max = 3
forcing_mode = 1 0
forcing_amplitude = 1.0
substeps = 4

[observation]
kind = fourier-cutoff
lam = 2

[noise]
kind = spectral-mode

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1
h = 0.01
T = 0.1
n_inits = 1
n_noise = 1
seed = 7

[output]
path = {out}
"""


def test_simulate_and_filter_on_spectral_model(tmp_path, capsys):
    cfg = write(tmp_path, NS_TINY.format(out=str(tmp_path / "ns_run.csv")), "ns.cfg")
    sim = str(tmp_path / "nssim")
    assert cli.main(["simulate", "--config", cfg, "--out", sim]) == 0
    run_out = str(tmp_path / "ns_est.csv")
    code = cli.main(
        [
            "filter", "--config", cfg,
            "--obs", sim + "_observations.csv",
            "--truth", sim + "_truth.csv",
            "--out", run_out,
        ]
    )
    assert code == 0
    assert "final squared error" in capsys.readouterr().out
    header = open(run_out).readline()
    assert header.startswith("j,m0r,m0i")


def test_ns_demo_smoke(tmp_path, capsys):
    text = """
[model]
kind = navier-stokes
viscosity = 0.5
k_max = 3
forcing_mode = 1 0
forcing_amplitude = 1.0
substeps = 4

[observation]
kind = fourier-cutoff
lam = 2

[noise]
kind = spectral-mode

[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1
h = 0.01
T = 0.2
n_inits = 1
n_noise = 1
seed = 7

[output]
path = {out}
"""
    out_csv = str(tmp_path / "ns.csv")
    cfg = write(tmp_path, text.format(out=out_csv))
    assert cli.main(["ns-demo", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "spectral demo" in printed
    assert os.path.exists(out_csv)


def test_subcommand_outputs_reproducible_across_runs(tmp_path):
    out = str(tmp_path / "sim")
    cfg = write(tmp_path, TINY.format(out="unused.csv"))
    cli.main(["simulate", "--config", cfg, "--out", out, "--seed", "5"])
    first = open(out + "_observations.csv", "rb").read()
    cli.main(["simulate", "--config", cfg, "--out", out, "--seed", "5"])
    second = open(out + "_observations.csv", "rb").read()
    assert first == second


# ---------------------------------------------------------------------------
# fresh interpreters: nothing the test process imported leaks into them


def _fresh_python(args, cwd):
    """Run ``python args`` with the package under test importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaosfilter.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


COLD_PATH = """
import sys

from chaosfilter import cli

for argv in {runs!r}:
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded[:5]
assert cli.main(["detect", "--config", {detect!r}]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_only_detect_loads_scipy(tmp_path):
    tiny = write(tmp_path, TINY.format(out=str(tmp_path / "table.csv")), "tiny.cfg")
    ns = write(tmp_path, NS_TINY.format(out=str(tmp_path / "ns.csv")), "ns.cfg")
    squeeze = write(tmp_path, SQUEEZE_TINY, "squeeze.cfg")
    sim = str(tmp_path / "sim")
    runs = [
        ["mse-table", "--config", tiny],
        ["simulate", "--config", tiny, "--out", sim],
        ["filter", "--config", tiny, "--obs", sim + "_observations.csv",
         "--truth", sim + "_truth.csv", "--out", str(tmp_path / "run.csv")],
        ["squeeze-probe", "--config", squeeze],
        ["ns-demo", "--config", ns],
    ]
    code = COLD_PATH.format(runs=runs, detect=os.path.abspath(cfg_path("detect_rotation.cfg")))
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_blow_ups_are_reported_without_numpy_warnings(tmp_path):
    # mse-table counts its blown-up rows in the report; simulate names its
    # blow-up in one line; neither lets numpy warn about the overflow
    golden = os.path.join(os.path.dirname(__file__), "goldens", "l63_blowup.cfg")
    table = _fresh_python(
        ["-m", "chaosfilter", "mse-table", "--config", golden, "--out", str(tmp_path / "r.csv")],
        tmp_path,
    )
    assert table.returncode == 0 and table.stderr == "", table.stderr
    cfg = write(tmp_path, BLOWUP, "blowup.cfg")
    sim = _fresh_python(["-m", "chaosfilter", "simulate", "--config", cfg, "--out", "s"], tmp_path)
    assert sim.returncode == 2, sim.stderr
    assert len(sim.stderr.splitlines()) == 1 and "numerical failure" in sim.stderr, sim.stderr


def test_slope_fit_does_not_load_numpy_ma(tmp_path):
    text = TINY.replace("epsilons = 0.5 0.1", "epsilons = 0.5 0.1 0.05")
    cfg = write(tmp_path, text.format(out=str(tmp_path / "table.csv")))
    code = (
        "import sys\nfrom chaosfilter import cli\n"
        f"assert cli.main(['mse-table', '--config', {cfg!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "scaling slope[trunc]" in proc.stdout


def test_python_dash_m_runs_the_command_line(tmp_path):
    detect = os.path.abspath(cfg_path("detect_rotation.cfg"))
    proc = _fresh_python(["-m", "chaosfilter", "detect", "--config", detect], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "detectable: yes" in proc.stdout
    missing = str(tmp_path / "missing.cfg")
    proc = _fresh_python(["-m", "chaosfilter", "detect", "--config", missing], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("chaosfilter: config error:"), proc.stderr
