"""Seeded fuzz of the command-line contract on the bundled configs.

Each case sets one value of a bundled config to a token of a fixed pool
(every value of every config takes two seeded draws, and the repros
below one case each) and runs the config's subcommand in process. Every
run must exit 0, 1 or 2, raise nothing and let numpy warn about nothing; a
run that fails prints one line on stderr.

The rest of each config is shrunk to a few steps, one signal start, 20
particles and 50 squeeze samples, unless that key is the mutated one. A
key that sizes a run (T, h, a count, substeps, budget, k_max, dimension)
never draws a token of magnitude 1e13 or more, or 1e-300 or less: such a
token may size a legitimately minutes-long run (T = 1e300, h = 1e-300,
1e13 substeps or gain-search restarts).
"""

import glob
import itertools
import os
import random
import re
import time
import warnings

from chaosfilter import cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

def _read(path):
    with open(path) as fh:
        return fh.read()


TEXTS = {os.path.basename(path): _read(path)
         for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))}

TOKENS = (
    "0", "-0", "-1", "1", "3", "0.5", "", "x", "nan", "inf", "-inf", "1 2", "0 0",
    "0.1 0.1 0.01", "2 0; 0 0.5", "1e308 0; 0 1",
    "1e-300", "5e-324", "1e300", "1e308", "-1e308", "10000000000000",
)
LONG = {"1e-300", "5e-324", "1e300", "1e308", "-1e308", "10000000000000"}
SIZE_KEYS = {"t", "h", "n_inits", "n_noise", "n_particles", "n_samples", "substeps",
             "budget", "k_max", "dimension"}
SHRUNK = {"n_inits": "1", "n_particles": "20", "n_samples": "50"}

# (config, key, token) of inputs that once ended in a traceback, a numpy
# warning or a nan report
REPROS = [
    ("l63_table1.cfg", "epsilons", "0.1 0.1 0.01"),
    ("detect_diag.cfg", "L", "1e308"),
    ("squeeze_l63.cfg", "scales", "1e-300"),
    ("squeeze_ns.cfg", "scales", "1e-300"),
]
SEED, DRAWS = 12, 2
VALUE = re.compile(r"^(\w+) = (.*)$", re.M)


def _command(name):
    for prefix, command in (("detect", "detect"), ("squeeze", "squeeze-probe"),
                            ("ns_demo", "ns-demo")):
        if name.startswith(prefix):
            return command
    return "mse-table"


def _mutant(text, index, token):
    """``text`` with its value number ``index`` set to ``token`` and the
    other sizes shrunk."""
    h = dict(VALUE.findall(text)).get("h")
    count = itertools.count()

    def value(match):
        name = match.group(1)
        if next(count) == index:
            return f"{name} = {token}"
        if name == "T":
            return f"T = {2 * float(h)!r}"  # two steps
        return f"{name} = {SHRUNK.get(name, match.group(2))}"

    return VALUE.sub(value, text)


def _cases():
    """(config, value number, key, token) of each case."""
    rng = random.Random(SEED)
    keys = {name: [key for key, _ in VALUE.findall(text)] for name, text in TEXTS.items()}
    cases = [(name, keys[name].index(key), key, token) for name, key, token in REPROS]
    for name, names in keys.items():
        for index, key in enumerate(names):
            pool = [t for t in TOKENS if key.lower() not in SIZE_KEYS or t not in LONG]
            cases += [(name, index, key, token) for token in rng.sample(pool, DRAWS)]
    return cases


def test_mutated_bundled_configs_keep_the_exit_contract(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    for name, index, key, token in _cases():
        cfg = tmp_path / "mutant.cfg"
        cfg.write_text(_mutant(TEXTS[name], index, token))
        argv = [_command(name), "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
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
        if problems:
            failures.append(f"{name} {key} = {token!r}: {'; '.join(problems)}")
    assert not failures, "\n".join(failures)
    assert time.perf_counter() - start < 10
