"""Projection operators, observation noise, and synthetic data generation.

Observations are ``y_j = P v_j + eps * w_j`` where ``P`` masks the state
down to the observed components (observations live in the same space as
the state, with ``Q y = 0`` exactly) and the noise ``w`` is Gaussian,
supported on the observed components, normalized so its expected squared
norm is one.

Randomness is organized around one master seed: every consumer derives an
independent substream via :func:`substream`, so trials can run in any
order, or in parallel, without changing a single draw.
"""

import csv
import hashlib
from dataclasses import dataclass

import numpy as np


def _part_to_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed, *parts) -> np.random.Generator:
    """Deterministic, order-independent child generator for (seed, *tags)."""
    entropy = [_part_to_int(master_seed)] + [_part_to_int(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# projections


class CoordinateProjection:
    """Masks a real state vector down to a fixed set of observed coordinates."""

    def __init__(self, dim, observed, kind="coordinate-mask"):
        self.kind = kind
        self.dim = int(dim)
        observed = np.unique(np.asarray(observed, dtype=int))
        if observed.size == 0:
            raise ValueError("at least one coordinate must be observed")
        if observed.min() < 0 or observed.max() >= self.dim:
            raise ValueError(
                f"observed indices {observed.tolist()} out of range for dim {self.dim}"
            )
        self.observed = observed
        self.mask = np.zeros(self.dim, dtype=bool)
        self.mask[self.observed] = True
        self.n_observed = int(self.observed.size)

    def apply(self, x):
        x = np.asarray(x)
        return np.where(self.mask, x, 0.0)

    def complement(self, x):
        x = np.asarray(x)
        return np.where(self.mask, 0.0, x)

    def matrix(self):
        return np.diag(self.mask.astype(float))

    def __repr__(self):
        return f"CoordinateProjection(dim={self.dim}, observed={self.observed.tolist()})"


def coordinate_projection(dim, observed) -> CoordinateProjection:
    """Observe exactly the given (zero-based) coordinates."""
    return CoordinateProjection(dim, observed)


def every_third_unobserved(d) -> CoordinateProjection:
    """Blank out coordinates 2, 5, 8, ... (zero-based); requires d in 3N."""
    d = int(d)
    if d % 3 != 0 or d < 3:
        raise ValueError(f"dimension must be a positive multiple of 3, got {d}")
    observed = [i for i in range(d) if (i + 1) % 3 != 0]
    return CoordinateProjection(d, observed, kind="every-third-unobserved")


class FourierCutoff:
    """Retains spectral modes with |k|^2 <= lam; drops the rest."""

    kind = "fourier-cutoff"

    def __init__(self, grid, lam):
        self.grid = grid
        self.lam = float(lam)
        self.mask = grid.k2_reps <= self.lam + 1e-12
        if not self.mask.any():
            raise ValueError(f"cutoff lam={lam} retains no modes")
        self.dim = grid.n_reps
        self.observed = np.nonzero(self.mask)[0]
        self.n_observed = int(self.observed.size)
        # number of retained modes over the full +/-k lattice
        self.n_retained = 2 * self.n_observed

    def apply(self, x):
        return np.where(self.mask, x, 0.0 + 0.0j)

    def complement(self, x):
        return np.where(self.mask, 0.0 + 0.0j, x)

    def __repr__(self):
        return f"FourierCutoff(lam={self.lam}, n_retained={self.n_retained})"


def fourier_cutoff(grid, lam) -> FourierCutoff:
    return FourierCutoff(grid, lam)


# ---------------------------------------------------------------------------
# noise


class GaussianObservedNoise:
    """i.i.d. Gaussian on the observed coordinates.

    The default per-coordinate variance 1/m (m observed coordinates) makes
    E|w|^2 = 1. Setting ``per_coordinate=True`` switches to unit variance
    per coordinate (E|w|^2 = m), kept for sensitivity studies.
    """

    def __init__(self, projection: CoordinateProjection, per_coordinate=False):
        self.projection = projection
        self.per_coordinate = bool(per_coordinate)
        var = 1.0 if per_coordinate else 1.0 / projection.n_observed
        self.std = float(np.sqrt(var))

    def sample(self, rng, size=None):
        """One noise vector, or with a size a (size, dim) block of them.

        The block takes the same draws, in the same order, as ``size``
        single calls."""
        n = 1 if size is None else size
        m = self.projection.n_observed
        w = np.zeros((n, self.projection.dim))
        w[:, self.projection.observed] = self.std * rng.standard_normal(n * m).reshape(n, m)
        return w[0] if size is None else w

    def log_density(self, resid, eps):
        """Log density of observed residuals at noise level eps; batch-aware.

        Residuals beyond float range saturate to -inf (a zero weight)."""
        resid = np.atleast_2d(np.asarray(resid, dtype=float))
        r = resid[:, self.projection.observed]
        s = eps * self.std
        with np.errstate(over="ignore"):
            out = -0.5 * np.sum((r / s) ** 2, axis=1) - r.shape[1] * np.log(
                s * np.sqrt(2.0 * np.pi)
            )
        return out


class SpectralModeNoise:
    """Complex Gaussian per retained mode with variance (|k|^2 n(lam))^-1.

    The variance schedule makes the expected squared Sobolev norm of the
    noise field equal to one.
    """

    def __init__(self, projection: FourierCutoff):
        self.projection = projection
        grid = projection.grid
        k2 = grid.k2_reps[projection.observed]
        self.mode_var = 1.0 / (k2 * projection.n_retained)

    def sample(self, rng, size=None):
        """One noise field, or with a size a (size, dim) block of them.

        Each field draws its real parts, then its imaginary parts, so the
        block draws shape (size, 2, m) to keep the order of single calls."""
        p = self.projection
        n = 1 if size is None else size
        w = np.zeros((n, p.dim), dtype=np.complex128)
        half = np.sqrt(self.mode_var / 2.0)
        draws = rng.standard_normal((n, 2, p.n_observed))
        w[:, p.observed] = half * (draws[:, 0] + 1j * draws[:, 1])
        return w[0] if size is None else w

    def log_density(self, resid, eps):
        resid = np.atleast_2d(np.asarray(resid, dtype=np.complex128))
        r = resid[:, self.projection.observed]
        var = (eps**2) * self.mode_var
        out = -np.sum(np.abs(r) ** 2 / var, axis=1) - np.sum(
            np.log(np.pi * var)
        )
        return out


# ---------------------------------------------------------------------------
# init samplers


def standard_normal_init(dim):
    """v0 ~ N(0, I); with a size argument returns a batch of draws."""

    def sampler(rng, size=None):
        if size is None:
            return rng.standard_normal(dim)
        return rng.standard_normal((size, dim))

    return sampler


def spectral_smooth_init(grid, amplitude=1.0, decay=2.0):
    """Random smooth field: mode k gets complex N(0, (amplitude/|k|^decay)^2)."""

    weights = amplitude / np.sqrt(grid.k2_reps) ** decay

    def sampler(rng, size=None):
        n = 1 if size is None else size
        re = rng.standard_normal((n, grid.n_reps))
        im = rng.standard_normal((n, grid.n_reps))
        out = weights * (re + 1j * im) / np.sqrt(2.0)
        return out[0] if size is None else out

    return sampler


# ---------------------------------------------------------------------------
# synthesis


@dataclass
class ObservationSequence:
    """Observations y_1..y_J (row i holds y_{i+1}); Q y_j = 0 throughout."""

    eps: float
    h: float
    ys: np.ndarray
    seed_label: str = ""

    @property
    def n_steps(self):
        return self.ys.shape[0]


def generate_truth_and_observations(
    model, projection, noise, init_sampler, eps, n_steps, h, rng
):
    """Run the signal map from a random start and observe it through noise.

    The generator is split into an initialization stream and a noise stream,
    so the truth trajectory is identical for every eps under the same rng.
    Returns ``(truth, observations)`` with truth of shape (n_steps+1, dim).
    """
    if n_steps < 1:
        raise ValueError("need at least one assimilation step")
    if eps < 0:
        raise ValueError("noise strength must be nonnegative")
    g_init, g_noise = rng.spawn(2)
    v = np.asarray(init_sampler(g_init))
    truth = np.empty((n_steps + 1,) + v.shape, dtype=v.dtype)
    ys = np.empty((n_steps,) + v.shape, dtype=v.dtype)
    truth[0] = v
    for j in range(n_steps):
        v = model.step(v, h)
        truth[j + 1] = v
        w = noise.sample(g_noise)
        ys[j] = projection.apply(v) + eps * w
    return truth, ObservationSequence(eps=float(eps), h=float(h), ys=ys)


# ---------------------------------------------------------------------------
# CSV interchange


def _format(x):
    return format(float(x), ".17g")


def export_observations(seq: ObservationSequence, projection, path):
    """Write (j, observed-index, value) rows; complex modes split into r/i."""
    is_complex = np.iscomplexobj(seq.ys)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "index", "value"])
        for i in range(seq.n_steps):
            y = seq.ys[i]
            for idx in projection.observed:
                if is_complex:
                    writer.writerow([i + 1, f"{idx}r", _format(y[idx].real)])
                    writer.writerow([i + 1, f"{idx}i", _format(y[idx].imag)])
                else:
                    writer.writerow([i + 1, str(idx), _format(y[idx])])
    meta = {
        "eps": _format(seq.eps),
        "h": _format(seq.h),
        "n_steps": str(seq.n_steps),
        "dim": str(seq.ys.shape[1]),
        "complex": "1" if is_complex else "0",
        "seed_label": seq.seed_label,
    }
    with open(str(path) + ".meta", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")


def import_observations(path) -> ObservationSequence:
    """Read back a sequence written by :func:`export_observations`.

    Raises ValueError on a ``.meta`` file missing a required key, on a
    malformed index token, and on a step or index outside the ranges the
    ``.meta`` file declares.
    """
    meta = {}
    with open(str(path) + ".meta") as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()
    missing = [key for key in ("eps", "h", "n_steps", "dim") if key not in meta]
    if missing:
        raise ValueError(f"{path}.meta lacks {', '.join(missing)}")
    n_steps = int(meta["n_steps"])
    dim = int(meta["dim"])
    is_complex = meta.get("complex", "0") == "1"
    dtype = np.complex128 if is_complex else float
    ys = np.zeros((n_steps, dim), dtype=dtype)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["j", "index", "value"]:
            raise ValueError(f"unexpected observation CSV header: {header}")
        for line, row in enumerate(reader, start=2):
            j, token, value = int(row[0]), row[1], float(row[2])
            part = token[-1:] if token[-1:] in ("r", "i") else ""
            idx = token[: len(token) - len(part)]
            if not idx.isdigit():
                raise ValueError(f"{path}, line {line}: bad index token {token!r}")
            idx = int(idx)
            if not 0 <= idx < dim:
                raise ValueError(f"{path}, line {line}: index {idx} outside [0, {dim})")
            if not 1 <= j <= n_steps:
                raise ValueError(f"{path}, line {line}: step {j} outside 1..{n_steps}")
            if part == "r":
                ys[j - 1, idx] += value
            elif part == "i":
                ys[j - 1, idx] += 1j * value
            else:
                ys[j - 1, idx] = value
    return ObservationSequence(
        eps=float(meta["eps"]),
        h=float(meta["h"]),
        ys=ys,
        seed_label=meta.get("seed_label", ""),
    )


def export_truth(truth, path):
    """Write a truth trajectory (j, coordinate columns)."""
    is_complex = np.iscomplexobj(truth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = truth.shape[1]
        if is_complex:
            cols = [f"v{i}{p}" for i in range(dim) for p in ("r", "i")]
        else:
            cols = [f"v{i}" for i in range(dim)]
        writer.writerow(["j"] + cols)
        for j in range(truth.shape[0]):
            if is_complex:
                vals = []
                for i in range(dim):
                    vals += [_format(truth[j, i].real), _format(truth[j, i].imag)]
            else:
                vals = [_format(v) for v in truth[j]]
            writer.writerow([j] + vals)


def import_truth(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        is_complex = header[-1].endswith("i")
        rows = [row[1:] for row in reader]
    if not rows:
        raise ValueError(f"{path} holds no states")
    data = np.array(rows, dtype=float)
    if is_complex:
        return data[:, 0::2] + 1j * data[:, 1::2]
    return data
