"""chaosfilter benchmark: one workload, timed end to end, its outputs checked.

    python3 perfbench/run.py --workload l63-table --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's ``src`` directory; nothing is installed. Each workload runs in
fresh child processes (``child.py``): several that only set up, then one
that runs whole operations in a closed loop for about ``--seconds``
seconds and checks every output. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: set-up samples per run: the workload process plus this many minus one set-up-only ones
SETUP_SAMPLES = 5
#: one child may not outlive this; the whole run must end within 180 s
CHILD_TIMEOUT_S = 150


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for the benchmark's own tests; statistical checks not gated")
    return p.parse_args(argv)


def _child(args, run_dir, tag, setup_only):
    """Start child.py, wait for it, and return its result dict."""
    result = os.path.join(run_dir, f"{tag}.json")
    log = os.path.join(run_dir, f"{tag}.log")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    with open(log, "w") as out:
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
    if rc != 0:
        with open(log) as fh:
            tail = fh.read()[-4000:]
        raise RuntimeError(f"{tag} process failed ({rc}):\n{tail}")
    with open(result) as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(ops, setups, peak_rss_mb):
    good = [o["wall_s"] for o in ops if o["ok"]] or [o["wall_s"] for o in ops]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_s": _metric(statistics.median(good), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _per_layer(child, ops):
    import tracer

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    values = {
        "setup.import_s": child["import_s"],
        "setup.build_s": child["build_s"],
        "process.cpu_s": statistics.median(o["cpu_s"] for o in plain),
        "trace.overhead_s": statistics.median(o["wall_s"] for o in traced)
        - statistics.median(o["wall_s"] for o in plain),
    }
    for name in traced[0]["layers"]:
        values[name] = statistics.median(o["layers"][name] for o in traced)
    return {name: _metric(values[name], unit) for name, unit, _ in tracer.PER_LAYER}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chaosfilter", "__init__.py")):
        print(f"run.py: no chaosfilter sources under {ROOT}/src", file=sys.stderr)
        return 2
    runs = os.path.join(HERE, "runs")
    run_dir = os.path.join(runs, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        files = workloads.OpFiles(run_dir)
        workloads.write_config(args.workload, args.seed, 0, files, smoke=args.smoke)
        setups = [
            _child(args, run_dir, f"setup{i}", setup_only=True)["setup_s"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        child = _child(args, run_dir, "workload", setup_only=False)
        setups.append(child["setup_s"])
        if args.trace:
            shutil.copy(os.path.join(run_dir, "spans.jsonl"),
                        os.path.join(runs, f"{args.workload}.spans.jsonl"))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = child["ops"]
    checks = child["model_checks"] + [c for o in ops for c in o.get("checks", [])]
    for o in ops:
        mark = "ok" if o["ok"] else "FAILED"
        print(f"op {o['index']}{' traced' if o['traced'] else ''}: "
              f"{o['wall_s']:.3f} s wall, {o['cpu_s']:.3f} s cpu, {mark}")
        if o["error"]:
            print(o["error"])
    for c in checks:
        if not c["ok"] or not c["gated"]:
            print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'}"
                  f"{'' if c['gated'] else ' (reported)'} {c['detail']}")
    print("machine: " + json.dumps(child["machine"], sort_keys=True))
    metrics = (_per_layer(child, ops) if args.trace
               else _end_to_end(ops, setups, child["peak_rss_mb"]))
    correct = all(c["ok"] for c in checks if c["gated"])
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o["ok"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
