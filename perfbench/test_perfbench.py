"""Smoke tests of the benchmark itself: every workload at a tiny size, and
the independent checks shown to catch broken outputs.

    python3 -m pytest -q perfbench/test_perfbench.py

They take well under a minute. The repository's own suite does not collect
them (its ``testpaths`` is ``tests``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload_and_metric():
    import tracer

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in tracer.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run("--workload", "l63-table", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def l96_files(tmp_path_factory):
    from chaosfilter import cli

    files = workloads.OpFiles(str(tmp_path_factory.mktemp("l96")))
    workloads.write_config("l96-roundtrip", 9, 0, files, smoke=True)
    for argv in workloads.cli_calls("l96-roundtrip", files):
        assert cli.main(argv) == 0
    return files


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_l96_checks_pass_on_program_output(l96_files):
    assert _failed(reference.check_l96_roundtrip(l96_files)) == set()


def _rewrite_cell(path, row, col, fn, tmp_path):
    header, rows = reference.read_table(path)
    rows[row][col] = repr(fn(float(rows[row][col])))
    out = tmp_path / os.path.basename(path)
    out.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    return str(out)


@pytest.mark.parametrize("target, row, col, want", [
    ("filter_run", 5, 3, {"estimate_is_truncated_observer", "sq_error_column"}),
    ("filter_run", 5, -1, {"sq_error_column"}),
    ("truth", 4, 7, {"truth_is_rk4", "sq_error_column"}),
])
def test_l96_checks_catch_tampering(l96_files, tmp_path, target, row, col, want):
    files = workloads.OpFiles(str(tmp_path))
    for name in ("truth", "observations", "filter_run"):
        src = getattr(l96_files, name)
        shutil.copy(src, getattr(files, name))
        if os.path.exists(src + ".meta"):
            shutil.copy(src + ".meta", getattr(files, name) + ".meta")
    setattr(files, target, _rewrite_cell(getattr(files, target), row, col,
                                         lambda v: v * (1 + 1e-9) + 1e-9, tmp_path))
    assert want <= _failed(reference.check_l96_roundtrip(files))


def test_unobserved_observation_is_caught(l96_files, tmp_path):
    files = workloads.OpFiles(str(tmp_path))
    for name in ("truth", "filter_run"):
        shutil.copy(getattr(l96_files, name), getattr(files, name))
    with open(l96_files.observations) as fh:
        text = fh.read()
    with open(files.observations, "w") as fh:
        fh.write(text + "1,2,0.5\n")
    assert "observations_unobserved_zero" in _failed(reference.check_l96_roundtrip(files))


def _write_report(path, rows, slopes):
    with open(path, "w") as fh:
        fh.write("filter,epsilon,mse,stderr,n_trials,excluded\n")
        for name, eps, mse, se, used, excl in rows:
            fh.write(f"{name},{eps!r},{mse!r},{se!r},{used},{excl}\n")
    with open(path + ".meta", "w") as fh:
        for name, slope in slopes.items():
            fh.write(f"slope[{name}] = {slope!r} +- 0.1\n")


@pytest.mark.parametrize("power, excluded, ok", [
    (2.0, 0, True), (1.0, 0, False), (2.0, 1, False)])
def test_ns_table_checks(tmp_path, power, excluded, ok):
    files = workloads.OpFiles(str(tmp_path))
    eps = [0.1, 0.01, 0.001]
    mse = [1.3 * e**power for e in eps]
    rows = [("truncated-observer", e, m, 0.0, 1 - excluded, excluded) for e, m in zip(eps, mse)]
    _write_report(files.report, rows, {"truncated-observer": reference.fit_slope(eps, mse)})
    checks = reference.check_ns_table(files, n_trials=1)
    assert all(c.ok for c in checks if c.gated) == ok


def test_slope_fit_disagreement_is_caught(tmp_path):
    files = workloads.OpFiles(str(tmp_path))
    eps = [0.1, 0.01, 0.001]
    rows = [("truncated-observer", e, e * e, 0.0, 1, 0) for e in eps]
    _write_report(files.report, rows, {"truncated-observer": 2.1})
    assert "slope_fit[truncated-observer]" in _failed(reference.check_ns_table(files, 1))


@pytest.mark.parametrize("p_mse, ok", [(0.005, True), (0.05, False)])
def test_particle_sandwich(tmp_path, p_mse, ok):
    files = workloads.OpFiles(str(tmp_path))
    rows = [("truncated-observer", 0.1, 0.014, 0.002, 2, 0),
            ("particle", 0.1, p_mse, 0.001, 2, 0)]
    _write_report(files.report, rows, {})
    checks = reference.check_l63_particle(files, n_trials=2)
    assert all(c.ok for c in checks if c.gated) == ok


def test_model_checks_pass_and_catch_a_wrong_stepper():
    from chaosfilter import dynamics, spectral

    for model in (dynamics.lorenz63(), dynamics.lorenz96(60),
                  spectral.navier_stokes_spectral(0.5, {(1, 0): 1.0}, 4)):
        assert _failed(reference.check_model(model, 3)) == set()
    wrong = dynamics.lorenz63()
    right = wrong._stepper
    wrong._stepper = lambda batch, nsub, dt: right(batch, nsub, dt) * (1 + 1e-9)
    assert _failed(reference.check_model(wrong, 3)) == {"step_batch_vs_rk4[lorenz63]"}
