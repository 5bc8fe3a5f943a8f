"""The four benchmark workloads: generated configs and the CLI calls of one operation.

This module imports nothing outside the standard library, so the parent
process can write configs without paying for numpy. Every input is derived
from the workload seed and the operation's index within the run.
"""

import os

#: one operation's experiment seed is derived from (run seed, op index)
_OP_STRIDE = 1000

_L63_MODEL = """\
[model]
kind = lorenz63
substeps = 10

[observation]
kind = coordinate-mask
observed = 0

[noise]
kind = gaussian-observed
normalization = unit-total
"""

_NS_MODEL = """\
[model]
kind = navier-stokes
viscosity = 0.5
k_max = {k_max}
forcing_mode = 1 0
forcing_amplitude = 1.0
substeps = 5
init_amplitude = 1.0
init_decay = 2.0

[observation]
kind = fourier-cutoff
lam = 4

[noise]
kind = spectral-mode
"""

_L96_MODEL = """\
[model]
kind = lorenz96
dimension = 60
substeps = 10

[observation]
kind = every-third-unobserved

[noise]
kind = gaussian-observed
normalization = unit-total
"""

_EXPERIMENT = """
[experiment]
epsilons = {eps}
h = {h}
T = {T}
n_inits = {n_inits}
n_noise = 1
seed = {seed}
mse_mode = final
"""

# Full sizes (what the benchmark times) and smoke sizes (what its own
# tests run in seconds). The full sizes keep the protocol of the paper's
# tables: T = 5 at h = 0.01 on the convection model.
SIZES = {
    "l63-table": {
        "full": {"T": 5, "n_inits": 4},
        "smoke": {"T": 0.3, "n_inits": 2},
    },
    "l63-particle": {
        "full": {"T": 5, "n_inits": 4, "n_particles": 5000},
        "smoke": {"T": 0.3, "n_inits": 2, "n_particles": 200},
    },
    "ns-table": {
        "full": {"T": 3, "h": 0.05, "k_max": 8},
        "smoke": {"T": 0.2, "h": 0.05, "k_max": 4},
    },
    "l96-roundtrip": {
        "full": {"T": 20},
        "smoke": {"T": 0.3},
    },
}

NAMES = tuple(SIZES)


def op_seed(run_seed, index):
    """Experiment seed of operation ``index`` in the run seeded ``run_seed``."""
    return (int(run_seed) * _OP_STRIDE + int(index)) % 2**32


def config_text(workload, seed, smoke=False):
    """Config file contents of one operation of ``workload``."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "l63-table":
        return (
            _L63_MODEL
            + "\n[filter:truncated-observer]\nkind = truncated-observer\n"
            + "\n[filter:3dvar]\nkind = 3dvar\nsigma2 = 1.0\n"
            + _EXPERIMENT.format(eps="1 0.1 0.01", h=0.01, seed=seed, **size)
        )
    if workload == "l63-particle":
        return (
            _L63_MODEL
            + "\n[filter:truncated-observer]\nkind = truncated-observer\n"
            + "\n[filter:particle]\nkind = particle\n"
            + f"n_particles = {size['n_particles']}\n"
            + "resample_threshold = 0.5\njitter = 0.02\n"
            + _EXPERIMENT.format(
                eps="0.1", h=0.01, seed=seed, T=size["T"], n_inits=size["n_inits"]
            )
        )
    if workload == "ns-table":
        return (
            _NS_MODEL.format(k_max=size["k_max"])
            + "\n[filter:truncated-observer]\nkind = truncated-observer\n"
            + _EXPERIMENT.format(
                eps="0.1 0.01 0.001", h=size["h"], T=size["T"], n_inits=1, seed=seed
            )
        )
    if workload == "l96-roundtrip":
        return (
            _L96_MODEL
            + "\n[filter:truncated-observer]\nkind = truncated-observer\n"
            + _EXPERIMENT.format(eps="0.1", h=0.01, T=size["T"], n_inits=1, seed=seed)
        )
    raise ValueError(f"unknown workload {workload!r}")


class OpFiles:
    """Paths one operation reads and writes, all inside ``run_dir``."""

    def __init__(self, run_dir):
        self.config = os.path.join(run_dir, "op.cfg")
        self.report = os.path.join(run_dir, "report.csv")
        self.sim_prefix = os.path.join(run_dir, "sim")
        self.truth = self.sim_prefix + "_truth.csv"
        self.observations = self.sim_prefix + "_observations.csv"
        self.filter_run = os.path.join(run_dir, "filter_run.csv")

    def outputs(self):
        return [
            self.report,
            self.report + ".meta",
            self.truth,
            self.observations,
            self.observations + ".meta",
            self.filter_run,
        ]


def write_config(workload, run_seed, index, files, smoke=False):
    """Write the config of operation ``index`` and remove the previous outputs."""
    for path in files.outputs():
        if os.path.exists(path):
            os.remove(path)
    with open(files.config, "w") as fh:
        fh.write(config_text(workload, op_seed(run_seed, index), smoke=smoke))


def cli_calls(workload, files):
    """Argument lists of the ``chaosfilter`` calls making up one operation."""
    common = ["--config", files.config, "--threads", "1"]
    if workload == "l96-roundtrip":
        return [
            ["simulate"] + common + ["--out", files.sim_prefix],
            ["filter"] + common
            + ["--obs", files.observations, "--truth", files.truth,
               "--out", files.filter_run],
        ]
    return [["mse-table"] + common + ["--out", files.report]]
