"""Correctness checks computed apart from the program.

Nothing here calls into ``chaosfilter`` except to obtain the model object
whose ``step_batch`` is being checked: the vector fields, the RK4 stepper,
the CSV readers, the observer update and the log-log fit are written out
again so that a fault in the program cannot also hide in its check.
"""

import csv
import math

import numpy as np

#: relative tolerance of the step-for-step recomputations
REL_TOL = 1e-12

# Published mean squared errors of the truncated observer on the
# convection model (final time T = 5, h = 0.01). They are reported, not
# gated; see README.md for why.
PUBLISHED_L63 = {1.0: 1.59, 0.1: 1.3e-2, 0.01: 4.93e-4}

SLOPE_RANGE = (1.7, 2.3)


class Check:
    """One named verdict. ``gated`` checks decide whether an operation failed."""

    def __init__(self, name, ok, detail="", gated=True):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail
        self.gated = gated

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail,
                "gated": self.gated}


# ---------------------------------------------------------------------------
# models written out again


def l63_field(s, a=10.0, b=8.0 / 3.0, r=28.0):
    x, y, z = s[:, 0], s[:, 1], s[:, 2]
    out = np.empty_like(s)
    out[:, 0] = a * (y - x)
    out[:, 1] = -a * x - y - x * z
    out[:, 2] = -b * (r + a) - b * z + x * y
    return out


def l96_field(s, forcing=8.0):
    d = s.shape[1]
    idx = np.arange(d)
    return (s[:, (idx + 1) % d] - s[:, (idx - 2) % d]) * s[:, (idx - 1) % d] - s + forcing


def rk4(field, states, h, nsub):
    """Classical RK4 with ``nsub`` equal substeps over an interval of length h."""
    u = np.array(states, dtype=float)
    dt = h / nsub
    for _ in range(nsub):
        k1 = field(u)
        k2 = field(u + 0.5 * dt * k1)
        k3 = field(u + 0.5 * dt * k2)
        k4 = field(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _rel_err(got, want):
    scale = np.maximum(1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale))


def check_model(model, seed):
    """Property checks of the program's model on sampled states."""
    rng = np.random.default_rng([int(seed), 17])
    if hasattr(model, "grid"):
        return _check_spectral(model, rng)
    h, nsub = 0.01, model.substeps
    if model.dim == 3:
        field = l63_field
        states = 10.0 * rng.standard_normal((32, 3))
    else:
        field = l96_field
        states = 3.0 * rng.standard_normal((32, model.dim))
    got = model.step_batch(states, h)
    err = _rel_err(got, rk4(field, states, h, nsub))
    return [Check(f"step_batch_vs_rk4[{model.name}]", err <= REL_TOL,
                  f"max rel err {err:.3g}")]


def _check_spectral(model, rng):
    grid = model.grid
    n = grid.n_reps
    k2_full = np.concatenate([grid.k2_reps, grid.k2_reps])
    sym_err = energy_l2 = energy_h1 = 0.0
    for _ in range(8):
        u = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(grid.k2_reps)
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(grid.k2_reps)
        size = np.sqrt(np.sum(grid.k2_reps * np.abs(u) ** 2)) * np.sqrt(
            np.sum(grid.k2_reps * np.abs(w) ** 2))
        diff = model.bilinear(u, w) - model.bilinear(w, u)
        sym_err = max(sym_err, float(np.abs(diff).max() / size))
        uf = np.concatenate([u, -np.conj(u)])
        bf = model.bilinear(u, u)
        bf = np.concatenate([bf, -np.conj(bf)])
        l2 = abs(np.real(np.sum(bf * np.conj(uf))))
        h1 = abs(np.real(np.sum(k2_full * bf * np.conj(uf))))
        unorm = np.sqrt(np.sum(np.abs(uf) ** 2))
        energy_l2 = max(energy_l2, float(l2 / max(1.0, unorm**3)))
        energy_h1 = max(energy_h1, float(h1 / max(1.0, np.sum(k2_full * np.abs(uf) ** 2) ** 1.5)))
    return [
        Check(f"B_symmetric[{model.name}]", sym_err <= 1e-12, f"max rel {sym_err:.3g}"),
        Check(f"B_conserves_energy[{model.name}]",
              energy_l2 <= 1e-10 and energy_h1 <= 1e-9,
              f"l2 {energy_l2:.3g}, h1 {energy_h1:.3g}"),
    ]


# ---------------------------------------------------------------------------
# readers written out again


def read_table(path):
    """Header and string rows of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_meta(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep:
                out[key.strip()] = val.strip()
    return out


def read_report(path):
    """``{(filter, eps): (mse, stderr, n_trials, excluded)}`` from an mse-table CSV."""
    header, rows = read_table(path)
    want = ["filter", "epsilon", "mse", "stderr", "n_trials", "excluded"]
    if header != want:
        raise ValueError(f"report header {header}")
    return {
        (r[0], float(r[1])): (float(r[2]), float(r[3]), int(r[4]), int(r[5]))
        for r in rows
    }


def fit_slope(eps, mse):
    """Least-squares slope of log mse on log eps."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(mse, dtype=float))
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


# ---------------------------------------------------------------------------
# per-workload checks


def _table_checks(report, meta, n_trials):
    checks = []
    for (name, eps), (mse, _se, used, excl) in sorted(report.items()):
        checks.append(Check(
            f"trials[{name},{eps:g}]",
            excl == 0 and used == n_trials and math.isfinite(mse) and mse > 0,
            f"used {used}, excluded {excl}, mse {mse:.6g}"))
    for name in sorted({k[0] for k in report}):
        pts = sorted((e, v[0]) for (f, e), v in report.items() if f == name)
        if len(pts) < 3:
            continue
        ours = fit_slope(*zip(*pts))
        theirs = float(meta[f"slope[{name}]"].split("+-")[0])
        checks.append(Check(f"slope_fit[{name}]",
                            abs(ours - theirs) <= 1e-9 * abs(ours),
                            f"program {theirs:.12g}, recomputed {ours:.12g}"))
    return checks


def _slope_check(label, pts):
    slope = fit_slope(*zip(*pts))
    lo, hi = SLOPE_RANGE
    return Check(label, lo <= slope <= hi, f"slope {slope:.4f}")


def check_l63_table(files, n_trials, gate_statistics=True):
    report = read_report(files.report)
    meta = read_meta(files.report + ".meta")
    checks = _table_checks(report, meta, n_trials)
    obs = sorted((e, v[0]) for (f, e), v in report.items() if f == "truncated-observer")
    var = sorted((e, v[0]) for (f, e), v in report.items() if f == "3dvar")
    checks.append(_slope_check("eps2_slope[truncated-observer]", obs))
    # The 3DVAR gain is eps-dependent (K = 1/(1 + eps^2) on the observed
    # coordinate), so eps = 1 lies outside the small-noise regime the
    # eps^2 law speaks of; its slope is fitted over eps = 0.1 and 0.01.
    checks.append(_slope_check("eps2_slope[3dvar,small-eps]",
                               [p for p in var if p[0] < 1.0]))
    for c in checks[-2:]:
        c.gated = gate_statistics
    for eps, mse in obs:
        ref = PUBLISHED_L63[eps]
        checks.append(Check(f"published_ratio[truncated-observer,{eps:g}]",
                            ref / 3 <= mse <= 3 * ref,
                            f"mse/published = {mse / ref:.3f}", gated=False))
    return checks


def check_l63_particle(files, n_trials, gate_statistics=True):
    report = read_report(files.report)
    checks = _table_checks(report, read_meta(files.report + ".meta"), n_trials)
    o_mse, o_se, _, _ = report[("truncated-observer", 0.1)]
    p_mse, p_se, _, _ = report[("particle", 0.1)]
    bound = o_mse + 3.0 * math.hypot(o_se, p_se)
    checks.append(Check("particle_within_observer", p_mse <= bound,
                        f"particle {p_mse:.4g} <= observer {o_mse:.4g} + 3 se = {bound:.4g}",
                        gated=gate_statistics))
    return checks


def check_ns_table(files, n_trials, gate_statistics=True):
    report = read_report(files.report)
    checks = _table_checks(report, read_meta(files.report + ".meta"), n_trials)
    pts = sorted((e, v[0]) for (f, e), v in report.items() if f == "truncated-observer")
    c = _slope_check("eps2_slope[truncated-observer]", pts)
    c.gated = gate_statistics
    checks.append(c)
    return checks


def read_truth(path):
    header, rows = read_table(path)
    data = np.array([[float(v) for v in r] for r in rows])
    if header[0] != "j" or not np.array_equal(data[:, 0], np.arange(len(rows))):
        raise ValueError("truth CSV steps are not 0..J")
    return data[:, 1:]


def read_observations(path, n_steps, dim):
    """Observation rows ``(j, index, value)`` into an (n_steps, dim) array
    plus the set of indices each step carried."""
    header, rows = read_table(path)
    if header != ["j", "index", "value"]:
        raise ValueError(f"observation header {header}")
    ys = np.zeros((n_steps, dim))
    seen = [set() for _ in range(n_steps)]
    for j, idx, val in rows:
        j, idx = int(j), int(idx)
        ys[j - 1, idx] = float(val)
        seen[j - 1].add(idx)
    return ys, seen


def check_l96_roundtrip(files, eps=0.1, h=0.01, nsub=10, forcing=8.0):
    truth = read_truth(files.truth)
    n_steps, dim = truth.shape[0] - 1, truth.shape[1]
    observed = np.array([i for i in range(dim) if (i + 1) % 3 != 0])
    mask = np.zeros(dim, dtype=bool)
    mask[observed] = True
    ys, seen = read_observations(files.observations, n_steps, dim)
    header, rows = read_table(files.filter_run)
    run = np.array([[float(v) for v in r] for r in rows])
    want_header = ["j"] + [f"m{i}" for i in range(dim)] + ["sq_error"]
    est, sq = run[:, 1:-1], run[:, -1]
    checks = [Check("filter_csv_shape",
                    header == want_header and run.shape[0] == n_steps + 1,
                    f"{run.shape[0]} rows")]
    if not checks[0].ok:
        return checks

    err = _rel_err(truth[1:], rk4(lambda s: l96_field(s, forcing), truth[:-1], h, nsub))
    checks.append(Check("truth_is_rk4", err <= REL_TOL, f"max rel err {err:.3g}"))

    exact_support = all(s == set(observed.tolist()) for s in seen)
    checks.append(Check("observations_unobserved_zero",
                        exact_support and not np.any(ys[:, ~mask]),
                        f"{len(observed)} observed of {dim}"))

    # y = P v + eps w with E|w|^2 = 1 spread over the observed coordinates
    w = (ys[:, mask] - truth[1:, mask]) / eps
    var_ratio = float(np.mean(w**2) * len(observed))
    tol = 10.0 * math.sqrt(2.0 / w.size)
    checks.append(Check("noise_variance", abs(var_ratio - 1.0) <= tol,
                        f"E|w|^2 = {var_ratio:.4f} (tolerance {tol:.3g})"))

    # estimate j+1 = ball projection of (I - P) Psi(m_j) + P y_{j+1}
    r_dissipation = math.sqrt(2.0 * forcing**2 * dim)
    radius = math.sqrt(2.0) * r_dissipation
    weights = np.where(mask, 2.0, 1.0)
    pred = rk4(lambda s: l96_field(s, forcing), est[:-1], h, nsub)
    upd = np.where(mask, ys, pred)
    size = np.sqrt(np.sum(weights * upd**2, axis=1))
    fired = size > radius
    upd[fired] *= (radius / size[fired])[:, None]
    first_ok = not np.any(est[0])
    err = _rel_err(est[1:], upd)
    checks.append(Check("estimate_is_truncated_observer", first_ok and err <= REL_TOL,
                        f"max rel err {err:.3g}, ball fired {int(fired.sum())} times"))

    want_sq = np.sum((truth - est) ** 2, axis=1)
    err = float(np.max(np.abs(sq - want_sq) / np.maximum(1e-300, want_sq)))
    checks.append(Check("sq_error_column", err <= REL_TOL, f"max rel err {err:.3g}"))
    return checks


CHECKS = {
    "l63-table": check_l63_table,
    "l63-particle": check_l63_particle,
    "ns-table": check_ns_table,
}


def check_operation(workload, files, n_trials, gate_statistics=True):
    if workload == "l96-roundtrip":
        return check_l96_roundtrip(files)
    return CHECKS[workload](files, n_trials, gate_statistics)
