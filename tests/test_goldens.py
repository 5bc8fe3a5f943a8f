"""Byte goldens of the Monte Carlo engine and of the CSV writers.

Each ``goldens/<name>.cfg`` is a small ``mse-table`` experiment. Its report
(``<name>.csv``) and ``.meta`` sidecar were captured from the engine that
ran one trial, one noise strength and one filter at a time; the
row-batched engine must reproduce both byte for byte, however many steps
of noise it draws at once. Together the configs cover the convection model
(final and time-averaged error, a truncation radius small enough that the
projection fires, 3DVAR), the 60-site model with a 3DVAR gain over 40
observed coordinates, the spectral flow at k_max 3, an observer beside a
particle filter, and a config in which some truths, some filter rows and
some particle clouds blow up. The spectral goldens (``ns_k3`` here and in
``roundtrip/``) were captured again when the advection term moved from
convolution tables to dealiased FFTs, after every changed number was
checked to agree with the table-era file to 1e-12 relative (state
coefficients against their state's largest coefficient).

Each ``goldens/roundtrip/<name>.cfg`` is run through ``simulate`` and then
``filter``; the truth, observation and filter-run files were captured from
the writers that formatted one value at a time through ``csv.writer``.
``goldens/writers/`` holds what those writers made of hand-picked values
(signed zeros, subnormals, magnitudes near the float limits, inf and nan),
real and complex.

``goldens/commands/`` holds the printed lines and the ``--out`` file of
``squeeze-probe`` on the convection model and on the spectral flow at
k_max 3, and of ``ns-demo`` on that flow, whose truncated observer
projects onto its ball at every step. They were captured before the norms
moved onto the models.
"""

import glob
import os

import numpy as np
import pytest

from chaosfilter import cli, filters, harness, observation

# a numpy warning in a golden run is a fault even when the bytes match
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
CONFIGS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.cfg")))
ROUNDTRIP_DIR = os.path.join(GOLDEN_DIR, "roundtrip")
ROUNDTRIP_CONFIGS = sorted(glob.glob(os.path.join(ROUNDTRIP_DIR, "*.cfg")))
WRITERS_DIR = os.path.join(GOLDEN_DIR, "writers")
COMMANDS_DIR = os.path.join(GOLDEN_DIR, "commands")
# golden name -> (subcommand, config)
COMMAND_GOLDENS = {
    "squeeze_l63": ("squeeze-probe", "squeeze_l63.cfg"),
    "ns_k3_squeeze": ("squeeze-probe", "ns_k3.cfg"),
    "ns_k3_demo": ("ns-demo", "ns_k3.cfg"),
}


def _name(config):
    return os.path.basename(config)[: -len(".cfg")]


def test_every_golden_config_is_collected():
    assert {_name(c) for c in CONFIGS} == {
        "l63_trunc_3dvar", "l63_time_averaged", "l96_3dvar", "ns_k3",
        "l63_particle_mix", "l63_blowup",
    }
    assert {_name(c) for c in ROUNDTRIP_CONFIGS} == {"l96_60", "ns_k3"}


def _assert_mse_table_matches_golden(tmp_path, config):
    golden = config[: -len(".cfg")] + ".csv"
    out = tmp_path / "report.csv"
    assert cli.main(["mse-table", "--config", config, "--out", str(out)]) == 0
    for suffix in ("", ".meta"):
        with open(golden + suffix, "rb") as fh:
            want = fh.read()
        assert (tmp_path / ("report.csv" + suffix)).read_bytes() == want, suffix or ".csv"


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_mse_table_matches_golden_bytes(tmp_path, capsys, config):
    _assert_mse_table_matches_golden(tmp_path, config)
    capsys.readouterr()


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_mse_table_does_not_depend_on_noise_chunk(tmp_path, capsys, monkeypatch, config, chunk):
    # l63_blowup runs 20 steps, so at these sizes its blow-ups fall
    # inside chunks, on their edges and in the short last chunk
    monkeypatch.setattr(harness, "NOISE_CHUNK", chunk)
    _assert_mse_table_matches_golden(tmp_path, config)
    capsys.readouterr()


@pytest.mark.parametrize("config", ROUNDTRIP_CONFIGS, ids=_name)
def test_simulate_filter_round_trip_matches_golden_bytes(tmp_path, capsys, config):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", config, "--out", str(sim)]) == 0
    assert cli.main([
        "filter", "--config", config, "--obs", f"{sim}_observations.csv",
        "--truth", f"{sim}_truth.csv", "--out", str(tmp_path / "sim_filter.csv"),
    ]) == 0
    capsys.readouterr()
    names = ["_truth.csv", "_observations.csv", "_observations.csv.meta", "_filter.csv"]
    for name in names:
        with open(config[: -len(".cfg")] + name, "rb") as fh:
            want = fh.read()
        assert (tmp_path / ("sim" + name)).read_bytes() == want, name


@pytest.mark.parametrize("name", sorted(COMMAND_GOLDENS))
def test_command_output_matches_golden_bytes(tmp_path, capsys, monkeypatch, name):
    command, config = COMMAND_GOLDENS[name]
    # a relative --out, so the printed "wrote" line names no temporary folder
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", os.path.join(COMMANDS_DIR, config), "--out", name + ".csv"]
    assert cli.main(argv) == 0
    for suffix, got in ((".stdout", capsys.readouterr().out.encode()),
                        (".csv", (tmp_path / (name + ".csv")).read_bytes())):
        with open(os.path.join(COMMANDS_DIR, name + suffix), "rb") as fh:
            assert got == fh.read(), suffix


def special_values():
    """A (3, 4) real block of awkward floats and a complex block built from
    it without arithmetic, so every signed zero survives."""
    real = np.array([
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-308],
        [1e300, -1e-300, 0.1, 1.0 / 3.0],
        [1e16, 123456789.0, -7.5, 1.7976931348623157e308],
    ])
    cplx = np.empty(real.shape, dtype=np.complex128)
    cplx.real = real
    cplx.imag = -real[::-1]
    return real, cplx


def write_special_values(out_dir):
    """Write ``special_values`` through all three writers into ``out_dir``."""
    real, cplx = special_values()
    projection = observation.CoordinateProjection(4, [0, 1, 3])
    extra = np.array([np.inf, -0.0, np.nan])
    for tag, block in (("real", real), ("complex", cplx)):
        observation.export_truth(block, os.path.join(out_dir, f"{tag}_truth.csv"))
        seq = observation.ObservationSequence(eps=1e-300, h=0.1, ys=block, seed_label="x")
        observation.export_observations(
            seq, projection, os.path.join(out_dir, f"{tag}_observations.csv")
        )
        run = filters.FilterRun(kind="observer", estimates=block, sq_errors=extra,
                                ess=extra[::-1] if tag == "real" else None)
        filters.export_filter_run(run, os.path.join(out_dir, f"{tag}_filter.csv"))


def test_writers_match_golden_bytes_on_special_values(tmp_path):
    write_special_values(str(tmp_path))
    names = sorted(os.listdir(WRITERS_DIR))
    assert len(names) == 8
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(WRITERS_DIR, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name
