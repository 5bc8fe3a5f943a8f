"""Spans and counts recorded around the public calls of each chaosfilter module.

The tracer replaces module and class attributes with timing wrappers while
it is installed and puts the originals back when it is removed, so an
untraced operation runs the program exactly as shipped. Spans are kept in
memory (name, start, end, parent) and written out once at the end.
"""

import collections
import functools
import json
import math
import os
import time

import numpy as np

# Which layer each span belongs to, for self time.
LAYER_SPANS = {
    "cli": ("cli.main",),
    "config": (
        "config.load_experiment_config", "config.read_config_file", "config.build_model",
        "config.build_projection", "config.build_noise", "config.build_init_sampler",
        "config.build_filter_runner", "config.default_vnorm", "config.noise_gamma",
    ),
    "harness": ("harness.run_mse_experiment",),
    "filters.observer": (
        "filters.run_observer", "filters.observer_step",
        "filters.truncated_observer_step", "filters.project_ball_V",
    ),
    "filters.pf": ("filters.particle_filter", "filters.systematic_resample"),
    "dynamics": ("dynamics.step", "dynamics.step_batch"),
    "spectral": (
        "spectral.grid_build", "spectral.step", "spectral.step_batch",
        "spectral.bilinear", "spectral.vector_field",
    ),
}

#: every per-layer metric, in the order it is printed, with unit and direction
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.calls", "count", "lower"),
    ("config.self_s", "s", "lower"),
    ("harness.trials", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("harness.fit_s", "s", "lower"),
    ("harness.report_s", "s", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
    ("observation.substreams", "count", "lower"),
    ("observation.substream_s", "s", "lower"),
    ("observation.noise_draws", "count", "lower"),
    ("observation.noise_s", "s", "lower"),
    ("observation.project_calls", "count", "lower"),
    ("observation.project_s", "s", "lower"),
    ("observation.loglik_calls", "count", "lower"),
    ("observation.loglik_s", "s", "lower"),
    ("observation.csv_write_bytes", "bytes", "lower"),
    ("observation.csv_write_mb_per_s", "MB/s", "higher"),
    ("observation.csv_read_bytes", "bytes", "lower"),
    ("observation.csv_read_mb_per_s", "MB/s", "higher"),
    ("filters.observer_steps", "count", "lower"),
    ("filters.observer_self_s", "s", "lower"),
    ("filters.trunc_checked", "count", "lower"),
    ("filters.trunc_fired", "count", "lower"),
    ("filters.gain_builds", "count", "lower"),
    ("filters.gain_s", "s", "lower"),
    ("filters.pf_steps", "count", "lower"),
    ("filters.pf_self_s", "s", "lower"),
    ("filters.pf_resamples", "count", "lower"),
    ("filters.pf_ess_min", "count", "higher"),
    ("filters.export_bytes", "bytes", "lower"),
    ("filters.export_mb_per_s", "MB/s", "higher"),
    ("dynamics.calls", "count", "lower"),
    ("dynamics.row_steps", "count", "lower"),
    ("dynamics.rows_per_call", "count", "higher"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.ns_per_row_step", "ns", "lower"),
    ("kernels.l63.calls", "count", "lower"),
    ("kernels.l63.busy_s", "s", "lower"),
    ("kernels.l63.ns_per_row_substep", "ns", "lower"),
    ("kernels.l96.calls", "count", "lower"),
    ("kernels.l96.busy_s", "s", "lower"),
    ("kernels.l96.ns_per_row_substep", "ns", "lower"),
    ("kernels.conv.calls", "count", "lower"),
    ("kernels.conv.busy_s", "s", "lower"),
    ("kernels.conv.us_per_call", "us", "lower"),
    ("spectral.grid_build_s", "s", "lower"),
    ("spectral.table_entries", "count", "lower"),
    ("spectral.row_steps", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.ns_per_row_step", "ns", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    """Installs timing wrappers into a loaded ``chaosfilter`` package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = collections.Counter()
        self.ess_min = math.inf
        self.table_entries = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, after))
        else:
            new = self._wrap(name, raw, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def remove(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def reset_counts(self):
        """Start the counts of a new operation; spans are kept until the end."""
        self.counts.clear()
        self.ess_min = math.inf
        self.table_entries = 0

    # -- what is wrapped -----------------------------------------------------

    def install(self):
        """Wrap the public calls of every module of the loaded package."""
        from chaosfilter import (_kernels, cli, config, dynamics, filters, harness,
                                 observation, spectral)

        c = self.counts

        def file_bytes(idx, key, meta=False):
            def after(args, out):
                path = str(args[idx])
                c[key] += _file_bytes(path, path + ".meta" if meta else "")
            return after

        self._patch(cli, "main", "cli.main")
        for fn in LAYER_SPANS["config"]:
            self._patch(config, fn.split(".")[1], fn)

        def trials(args, report):
            c["harness.trials"] += report.rows[0].n_used + report.rows[0].n_excluded

        self._patch(harness, "run_mse_experiment", "harness.run_mse_experiment", trials)
        self._patch(harness, "fit_scaling_exponent", "harness.fit")
        self._patch(harness, "write_report", "harness.write_report",
                    file_bytes(1, "harness.report_bytes", meta=True))

        # harness imported substream by name, so both bindings are wrapped
        self._patch(observation, "substream", "observation.substream")
        self._patch(harness, "substream", "observation.substream")
        for cls in (observation.GaussianObservedNoise, observation.SpectralModeNoise):
            self._patch(cls, "sample", "observation.noise")
            self._patch(cls, "log_density", "observation.loglik")
        for cls in (observation.CoordinateProjection, observation.FourierCutoff):
            self._patch(cls, "apply", "observation.project")
        self._patch(observation, "generate_truth_and_observations", "observation.generate")

        self._patch(observation, "export_observations", "observation.csv_write",
                    file_bytes(2, "observation.csv_write_bytes", meta=True))
        self._patch(observation, "export_truth", "observation.csv_write",
                    file_bytes(1, "observation.csv_write_bytes"))
        self._patch(observation, "import_observations", "observation.csv_read",
                    file_bytes(0, "observation.csv_read_bytes", meta=True))
        self._patch(observation, "import_truth", "observation.csv_read",
                    file_bytes(0, "observation.csv_read_bytes"))

        def ball(args, out):
            c["filters.trunc_checked"] += 1
            if not np.array_equal(out, args[2]):
                c["filters.trunc_fired"] += 1

        def particle(args, run):
            steps = run.ess.shape[0] - 1
            if run.degenerate_at is not None:
                steps = run.degenerate_at
            c["filters.pf_steps"] += steps
            if steps:
                self.ess_min = min(self.ess_min, float(run.ess[1:steps + 1].min()))

        for fn in LAYER_SPANS["filters.observer"] + LAYER_SPANS["filters.pf"]:
            after = ball if fn == "filters.project_ball_V" else None
            after = particle if fn == "filters.particle_filter" else after
            self._patch(filters, fn.split(".")[1], fn, after)
        self._patch(filters, "kalman_gain_3dvar", "filters.gain")
        self._patch(filters.Gain, "identity_on_observed", "filters.gain")
        self._patch(filters, "export_filter_run", "filters.export",
                    file_bytes(1, "filters.export_bytes"))

        def rows(args, out):
            c["dynamics.row_steps"] += out.shape[0]

        self._patch(dynamics.DissipativeModel, "step", "dynamics.step")
        self._patch(dynamics.DissipativeModel, "step_batch", "dynamics.step_batch", rows)

        def kernel(key):
            def after(args, out):
                c[key] += args[0].shape[0] * int(args[1])
            return after

        self._patch(_kernels, "lorenz63_rk4", "kernels.l63", kernel("kernels.l63.row_substeps"))
        self._patch(_kernels, "lorenz96_rk4", "kernels.l96", kernel("kernels.l96.row_substeps"))
        self._patch(_kernels, "bilinear_conv", "kernels.conv")

        def grid(args, out):
            self.table_entries = max(self.table_entries, int(args[0].conv_w.size))

        self._patch(spectral.SpectralGrid, "__init__", "spectral.grid_build", grid)
        for meth in ("step", "step_batch", "bilinear", "vector_field"):
            self._patch(spectral.SpectralNSModel, meth, f"spectral.{meth}")

    # -- reduction -----------------------------------------------------------

    def summary(self, first=0):
        """Per-layer metrics of the spans from index ``first`` on and of the
        counts since the last ``reset_counts``."""
        spans = self.spans[first:]
        n = len(spans)
        names = [s[0] for s in spans]
        dur = np.array([s[2] - s[1] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=np.int64) - first
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered

        by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        for name, d, s in zip(names, dur, self_time):
            entry = by_name[name]
            entry[0] += 1
            entry[1] += d
            entry[2] += s

        def calls(name):
            return by_name[name][0] if name in by_name else 0

        def total(name):
            return by_name[name][1] if name in by_name else 0.0

        def self_of(layer):
            return sum(by_name[s][2] for s in LAYER_SPANS[layer] if s in by_name)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counts
        m = {
            "cli.self_s": self_of("cli"),
            "config.calls": sum(calls(s) for s in LAYER_SPANS["config"]),
            "config.self_s": self_of("config"),
            "harness.trials": c["harness.trials"],
            "harness.self_s": self_of("harness"),
            "harness.fit_s": total("harness.fit"),
            "harness.report_s": total("harness.write_report"),
            "harness.report_bytes": c["harness.report_bytes"],
            "observation.substreams": calls("observation.substream"),
            "observation.substream_s": total("observation.substream"),
            "observation.noise_draws": calls("observation.noise"),
            "observation.noise_s": total("observation.noise"),
            "observation.project_calls": calls("observation.project"),
            "observation.project_s": total("observation.project"),
            "observation.loglik_calls": calls("observation.loglik"),
            "observation.loglik_s": total("observation.loglik"),
            "observation.csv_write_bytes": c["observation.csv_write_bytes"],
            "observation.csv_write_mb_per_s": ratio(
                c["observation.csv_write_bytes"], total("observation.csv_write"), 1e-6),
            "observation.csv_read_bytes": c["observation.csv_read_bytes"],
            "observation.csv_read_mb_per_s": ratio(
                c["observation.csv_read_bytes"], total("observation.csv_read"), 1e-6),
            "filters.observer_steps": calls("filters.observer_step"),
            "filters.observer_self_s": self_of("filters.observer"),
            "filters.trunc_checked": c["filters.trunc_checked"],
            "filters.trunc_fired": c["filters.trunc_fired"],
            "filters.gain_builds": calls("filters.gain"),
            "filters.gain_s": total("filters.gain"),
            "filters.pf_steps": c["filters.pf_steps"],
            "filters.pf_self_s": self_of("filters.pf"),
            "filters.pf_resamples": calls("filters.systematic_resample"),
            "filters.pf_ess_min": self.ess_min if math.isfinite(self.ess_min) else 0.0,
            "filters.export_bytes": c["filters.export_bytes"],
            "filters.export_mb_per_s": ratio(
                c["filters.export_bytes"], total("filters.export"), 1e-6),
            "dynamics.calls": calls("dynamics.step_batch"),
            "dynamics.row_steps": c["dynamics.row_steps"],
            "dynamics.rows_per_call": ratio(
                c["dynamics.row_steps"], calls("dynamics.step_batch")),
            "dynamics.self_s": self_of("dynamics"),
            "dynamics.ns_per_row_step": ratio(
                total("dynamics.step_batch"), c["dynamics.row_steps"], 1e9),
            "kernels.conv.calls": calls("kernels.conv"),
            "kernels.conv.busy_s": total("kernels.conv"),
            "kernels.conv.us_per_call": ratio(
                total("kernels.conv"), calls("kernels.conv"), 1e6),
            "spectral.grid_build_s": total("spectral.grid_build"),
            "spectral.table_entries": self.table_entries,
            "spectral.row_steps": calls("spectral.step"),
            "spectral.self_s": self_of("spectral"),
            "spectral.ns_per_row_step": ratio(
                total("spectral.step"), calls("spectral.step"), 1e9),
        }
        for model in ("l63", "l96"):
            key = f"kernels.{model}"
            m[f"{key}.calls"] = calls(key)
            m[f"{key}.busy_s"] = total(key)
            m[f"{key}.ns_per_row_substep"] = ratio(
                total(key), c[f"{key}.row_substeps"], 1e9)
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
