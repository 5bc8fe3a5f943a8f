"""One workload process: set up, run whole operations in a closed loop, check them.

Run by ``run.py`` in a fresh interpreter, with the checkout's ``src`` on
``PYTHONPATH``. Nothing heavy is imported before ``chaosfilter`` so that
the import time is the program's own. Results go to a JSON file; standard
output carries only what the CLI prints.
"""

import argparse
import json
import os
import sys
import time
import traceback


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args()


def _setup(config_path, src_dir):
    """Import the package and build everything the workload's config names."""
    t0 = time.monotonic()
    import chaosfilter
    from chaosfilter import config as cfgmod

    t1 = time.monotonic()
    if not os.path.abspath(chaosfilter.__file__).startswith(src_dir + os.sep):
        raise RuntimeError(f"imported chaosfilter from {chaosfilter.__file__}, not {src_dir}")
    cfg = cfgmod.load_experiment_config(config_path)
    model = cfgmod.build_model(cfg.model)
    projection = cfgmod.build_projection(cfg.observation, model)
    noise = cfgmod.build_noise(cfg.noise, projection)
    init_sampler = cfgmod.build_init_sampler(cfg.model, model)
    for spec in cfg.filters:
        cfgmod.build_filter_runner(spec, model, projection, noise, init_sampler)
    t2 = time.monotonic()
    return model, {"import_s": t1 - t0, "build_s": t2 - t1, "done": t2}


def _run_op(cli, calls):
    """Time the CLI calls of one operation; returns (ok, wall_s, cpu_s, error)."""
    c0, t0 = time.process_time(), time.perf_counter()
    error = None
    try:
        for argv in calls:
            rc = cli.main(argv)
            if rc != 0:
                error = f"chaosfilter {argv[0]} exited {rc}"
                break
    except Exception:
        error = traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    return error is None, t1 - t0, c1 - c0, error


def main():
    args = _parse()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, here)
    import workloads

    files = workloads.OpFiles(args.run_dir)
    model, setup = _setup(files.config, os.path.join(root, "src"))
    result = {"setup_s": setup["done"] - args.spawned,
              "import_s": setup["import_s"], "build_s": setup["build_s"]}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    import platform
    import resource

    import numpy
    import scipy

    import reference
    from chaosfilter import cli

    result["machine"] = {
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numba": _has_numba(),
    }
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    n_trials = size.get("n_inits", 1)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    # A round is one untraced operation, plus one traced operation on the
    # same inputs when tracing, so their difference is the tracing overhead.
    modes = [False, True] if tracer else [False]
    ops = []
    start = time.perf_counter()
    while True:
        for traced in modes:
            index = len(ops)
            workloads.write_config(args.workload, args.seed, index // len(modes), files,
                                   smoke=args.smoke)
            calls = workloads.cli_calls(args.workload, files)
            if traced:
                tracer.reset_counts()
                first = len(tracer.spans)
                tracer.install()
            try:
                ok, wall, cpu, error = _run_op(cli, calls)
            finally:
                if traced:
                    tracer.remove()
            op = {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "ok": ok, "error": error}
            if traced:
                op["layers"] = tracer.summary(first)
            if not ops:
                # the program's own peak: no output has been checked yet
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if ok:
                try:
                    op_checks = reference.check_operation(
                        args.workload, files, n_trials, gate_statistics=not args.smoke)
                except (OSError, ValueError, KeyError, IndexError):
                    op_checks = [reference.Check("outputs_readable", False,
                                                 traceback.format_exc())]
                op["checks"] = [c.as_dict() for c in op_checks]
                op["ok"] = all(c.ok for c in op_checks if c.gated)
            ops.append(op)
        elapsed = time.perf_counter() - start
        round_s = sum(o["wall_s"] for o in ops) / len(ops) * len(modes)
        if elapsed + round_s > args.seconds:
            break

    if tracer is not None:
        tracer.write_spans(os.path.join(args.run_dir, "spans.jsonl"))
    result["model_checks"] = [c.as_dict() for c in reference.check_model(model, args.seed)]
    result["ops"] = ops
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _has_numba():
    import importlib.util

    return importlib.util.find_spec("numba") is not None


if __name__ == "__main__":
    sys.exit(main())
