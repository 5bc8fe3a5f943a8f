import os
import subprocess
import sys

import numpy as np
import pytest

import chaosfilter
from chaosfilter import cli
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
    cfg = load_experiment_config(write(tmp_path, bad))
    with pytest.raises(ConfigError):
        cfgmod.build_model(cfg.model)


def test_filter_section_required(tmp_path):
    bad = TINY.replace("[filter:trunc]\nkind = truncated-observer\n", "").format(
        out="o.csv"
    )
    with pytest.raises(ConfigError):
        load_experiment_config(write(tmp_path, bad))


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
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_config_values_exit_one(tmp_path, capsys, case):
    command, template, old, new, key = OUT_OF_RANGE[case]
    assert old in template
    cfg = write(tmp_path, template.replace(old, new).format(out=str(tmp_path / "o.csv")))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chaosfilter: config error:"), err
    assert f"{key}: " in err and "Traceback" not in err


def _append(path, text):
    with open(path, "a") as fh:
        fh.write(text)


def _drop_last_line(path):
    lines = open(path).readlines()
    open(path, "w").writelines(lines[:-1])


def _repeat_first_row(obs, truth):
    _append(obs, open(obs).readlines()[1])


def _drop_meta_key(key):
    def corrupt(obs, truth):
        lines = open(obs + ".meta").read().splitlines(keepends=True)
        open(obs + ".meta", "w").writelines(
            ln for ln in lines if not ln.startswith(key + " ")
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
    "truth-bad-number": lambda obs, truth: _append(truth, "21," + "x," * 59 + "0\n"),
    "truth-short": lambda obs, truth: _drop_last_line(truth),
    "truth-empty": lambda obs, truth: open(truth, "w").write("j,v0\n"),
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


def test_numerical_failure_exits_two(tmp_path, capsys):
    # a single RK4 substep across h = 2 on the cyclic model overflows
    text = """
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
    cfg = write(tmp_path, text, "blowup.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "numerical failure" in capsys.readouterr().err


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


def test_python_dash_m_runs_the_command_line(tmp_path):
    detect = os.path.abspath(cfg_path("detect_rotation.cfg"))
    proc = _fresh_python(["-m", "chaosfilter", "detect", "--config", detect], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "detectable: yes" in proc.stdout
    missing = str(tmp_path / "missing.cfg")
    proc = _fresh_python(["-m", "chaosfilter", "detect", "--config", missing], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("chaosfilter: config error:"), proc.stderr
