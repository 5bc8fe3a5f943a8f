"""The benchmark's tracer (``perfbench/tracer.py``) wraps program functions
by module and attribute name. This test loads it from its file, unmodified,
runs a traced spectral-flow and convection-model ``mse-table`` through it,
and checks that every attribute it patches exists, that the kernels and
particle steps it counts are reached, and that removing it restores every
original.
"""

import importlib.util
import os

import pytest

from chaosfilter import cli

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

MODELS = {
    "spectral": """
[model]
kind = navier-stokes
viscosity = 0.5
k_max = 3
substeps = 2

[observation]
kind = fourier-cutoff
lam = 2

[noise]
kind = spectral-mode
""",
    "l63": """
[model]
kind = lorenz63

[observation]
kind = coordinate-mask
observed = 0

[filter:pf]
kind = particle
n_particles = 20
""",
}

EXPERIMENT = """
[filter:trunc]
kind = truncated-observer

[experiment]
epsilons = 0.1 0.01
h = 0.01
T = 0.05
n_inits = 1
n_noise = 1
seed = 5
"""


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("model", sorted(MODELS))
def test_tracer_patches_existing_attributes_and_restores_them(tmp_path, capsys, model):
    tracer_mod = load_tracer_module()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MODELS[model] + EXPERIMENT)
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises KeyError if a patched attribute is gone
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, raw in patches:
            assert vars(owner)[attr] is not raw, (owner, attr)
        code = cli.main(["mse-table", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert code == 0
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, (owner, attr)

    metrics = tracer.summary()
    assert set(metrics) == {name for name, _, _ in tracer_mod.PER_LAYER} - {
        "setup.import_s", "setup.build_s", "process.cpu_s", "trace.overhead_s"
    }
    assert metrics["harness.trials"] == 1
    if model == "spectral":
        from chaosfilter.spectral import SpectralGrid

        assert metrics["kernels.conv.calls"] > 0
        assert metrics["spectral.table_entries"] == SpectralGrid(3).conv_w.size
    else:
        assert metrics["kernels.l63.calls"] > 0 and metrics["kernels.conv.calls"] == 0
        # the particle filter runs through filters.particle_filter, which the
        # tracer wraps to count its steps
        assert metrics["filters.pf_steps"] > 0
