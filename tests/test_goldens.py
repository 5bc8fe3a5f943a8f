"""Byte goldens of the Monte Carlo engine.

Each ``goldens/<name>.cfg`` is a small ``mse-table`` experiment. Its report
(``<name>.csv``) and ``.meta`` sidecar were captured from the engine that
ran one trial, one noise strength and one filter at a time; the
row-batched engine must reproduce both byte for byte. Together the configs
cover the convection model (final and time-averaged error, a truncation
radius small enough that the projection fires, 3DVAR), the 60-site model
with a 3DVAR gain over 40 observed coordinates, the spectral flow at
k_max 3, an observer beside a particle filter, and a config in which some
truths, some filter rows and some particle clouds blow up.
"""

import glob
import os

import pytest

from chaosfilter import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
CONFIGS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.cfg")))


def test_every_golden_config_is_collected():
    names = {os.path.basename(c)[: -len(".cfg")] for c in CONFIGS}
    assert names == {
        "l63_trunc_3dvar", "l63_time_averaged", "l96_3dvar", "ns_k3",
        "l63_particle_mix", "l63_blowup",
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: os.path.basename(c)[: -len(".cfg")])
def test_mse_table_matches_golden_bytes(tmp_path, capsys, config):
    golden = config[: -len(".cfg")] + ".csv"
    out = tmp_path / "report.csv"
    assert cli.main(["mse-table", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    for suffix in ("", ".meta"):
        with open(golden + suffix, "rb") as fh:
            want = fh.read()
        assert (tmp_path / ("report.csv" + suffix)).read_bytes() == want, suffix or ".csv"
