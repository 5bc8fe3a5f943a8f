"""Seeded fuzz of the data files that ``filter`` reads.

Two tiny configs are simulated once: the convection model with one
observed coordinate, and the spectral flow at k_max 3. Each case copies
the observation CSV, its ``.meta`` and the truth CSV, changes one thing
and runs ``filter --truth`` in process with one filter kind. A change sets
one field (a ``.meta`` value) to a token of a fixed pool, flips the
``complex`` flag, or drops or repeats one line; the repros below are one
case each. Every run must exit 0, 1 or 2, raise nothing and let numpy warn
about nothing; a run that fails prints one line on stderr and leaves no
output or temporary file.

The filter configs set ``epsilons = 0``: ``filter`` runs at the file's
eps, so the particle filter is refused only on a noise-free file.
"""

import os
import random
import shutil
import time
import warnings

from chaosfilter import cli

MODELS = {
    "l63": """
[model]
kind = lorenz63

[observation]
kind = coordinate-mask
observed = 0
""",
    "ns": """
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
""",
}
EXPERIMENT = """
[experiment]
epsilons = {eps}
h = 0.01
T = {T}
seed = 5
"""
FILTERS = {
    "observer": "kind = observer",
    "truncated-observer": "kind = truncated-observer",
    "3dvar": "kind = 3dvar",
    "particle": "kind = particle\nn_particles = 20",
}
KINDS = {"l63": sorted(FILTERS), "ns": ["observer", "particle", "truncated-observer"]}
STEPS = {"l63": 5, "ns": 3}
FILES = ("d_observations.csv", "d_observations.csv.meta", "d_truth.csv")
TOKENS = ("nan", "inf", "-inf", "1e308", "1e999", "-0", "", "x", "0r", "0i", "99", "-1")
SEED, FIELDS_PER_FILE = 28, 100


def _set_field(line, field, token):
    """``line`` with its field number ``field`` set to ``token``: a
    comma-separated field, or the value of a ``key = value`` line."""
    body = line.rstrip("\r\n")
    end = line[len(body):]
    if " = " in body:
        return f"{body.split(' = ', 1)[0]} = {token}{end}"
    fields = body.split(",")
    fields[field] = token
    return ",".join(fields) + end


def _fields(lines, name):
    if name.endswith(".meta"):
        return [(i, 0) for i in range(len(lines))]
    return [(i, k) for i, line in enumerate(lines) for k in range(line.count(",") + 1)]


def _real_observations(lines):
    # the r rows of a complex file, renamed as a real file's rows
    return lines[:1] + [ln.replace("r,", ",") for ln in lines[1:] if ln.split(",")[1][-1] == "r"]


def _complex_truth(lines):
    # three complex columns, each state's three values and three zeros
    body = [ln.rstrip("\r\n") + ",0,0,0\r\n" for ln in lines[1:]]
    return ["j,v0r,v0i,v1r,v1i,v2r,v2i\r\n"] + body


def _flipped(line):
    """``line`` with the ``complex`` flag it sets, if any, flipped."""
    return {"complex = 0\n": "complex = 1\n", "complex = 1\n": "complex = 0\n"}.get(line, line)


# (model, filter kind, file, description, change of the file's lines) of
# inputs that once exited 0 with a wrong run, 2 or with a numpy warning
REPROS = [
    *[("l63", kind, 0, f"value {token}", lambda ls, t=token: [ls[0], _set_field(ls[1], 2, t)]
       + ls[2:]) for kind in sorted(FILTERS) for token in ("nan", "inf", "-inf")],
    ("l63", "observer", 2, "truth nan", lambda ls: ls[:3] + [_set_field(ls[3], 2, "nan")] + ls[4:]),
    ("l63", "observer", 2, "complex truth of the right width", _complex_truth),
    ("ns", "observer", 0, "real file of a spectral run", _real_observations),
]


def _cases(sims):
    """(model, filter kind, file number, description, change) of each case,
    on the simulated files in the folder ``sims[model]``."""
    rng = random.Random(SEED)
    cases = list(REPROS)
    for model in MODELS:
        for number, name in enumerate(FILES):
            with open(os.path.join(sims[model], name), newline="") as fh:
                lines = fh.readlines()
            for i in range(len(lines)):
                cases.append((model, rng.choice(KINDS[model]), number, f"drop line {i}",
                              lambda ls, i=i: ls[:i] + ls[i + 1:]))
                cases.append((model, rng.choice(KINDS[model]), number, f"repeat line {i}",
                              lambda ls, i=i: ls[:i + 1] + ls[i:]))
            fields = _fields(lines, name)
            for i, k in rng.sample(fields, min(len(fields), FIELDS_PER_FILE)):
                token = rng.choice(TOKENS)
                cases.append((model, rng.choice(KINDS[model]), number,
                              f"line {i} field {k} = {token!r}",
                              lambda ls, i=i, k=k, t=token: ls[:i] + [_set_field(ls[i], k, t)]
                              + ls[i + 1:]))
        cases.append((model, rng.choice(KINDS[model]), 1, "flip complex",
                      lambda ls: [_flipped(ln) for ln in ls]))
    return cases


def test_mutated_data_files_keep_the_exit_contract(tmp_path, capsys):
    start = time.perf_counter()
    sims = {}
    for model, text in MODELS.items():
        sim_cfg = tmp_path / f"{model}.cfg"
        sim_cfg.write_text(text + EXPERIMENT.format(eps=0.5, T=STEPS[model] / 100)
                           + "\n[filter:f]\nkind = observer\n")
        sims[model] = str(tmp_path / f"{model}-sim")
        os.mkdir(sims[model])
        argv = ["simulate", "--config", str(sim_cfg), "--out", os.path.join(sims[model], "d")]
        assert cli.main(argv) == 0
        for kind in KINDS[model]:
            (tmp_path / f"{model}-{kind}.cfg").write_text(
                text + EXPERIMENT.format(eps=0, T=STEPS[model] / 100)
                + f"\n[filter:f]\n{FILTERS[kind]}\n")
    capsys.readouterr()
    failures = []
    cases = _cases(sims)
    for n, (model, kind, number, what, change) in enumerate(cases):
        case = tmp_path / f"case{n}"
        shutil.copytree(sims[model], case)
        path = case / FILES[number]
        with open(path, newline="") as fh:
            lines = fh.readlines()
        with open(path, "w", newline="") as fh:
            fh.writelines(change(lines))
        inputs = sorted(os.listdir(case))
        argv = ["filter", "--config", str(tmp_path / f"{model}-{kind}.cfg"),
                "--obs", str(case / FILES[0]), "--truth", str(case / FILES[2]),
                "--out", str(case / "run.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except Exception as exc:  # reported with its case, and the next case runs
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        problems = [f"{w.category.__name__}: {w.message}" for w in caught]
        if code not in (0, 1, 2):
            problems.append(f"exit {code!r}")
        elif len(err.splitlines()) != (0 if code == 0 else 1):
            problems.append(f"stderr {err!r}")
        elif code and sorted(os.listdir(case)) != inputs:
            problems.append(f"left {sorted(set(os.listdir(case)) - set(inputs))}")
        if problems:
            failures.append(f"{model} {kind} {FILES[number]} {what}: {'; '.join(problems)}")
        shutil.rmtree(case)
    assert not failures, "\n".join(failures)
    assert len(cases) > 300 and time.perf_counter() - start < 10
