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
        observed = np.asarray(observed, dtype=int).ravel()
        # sorted distinct indices; np.unique would import numpy.ma (about 15 ms)
        observed = np.array(sorted(set(observed.tolist())), dtype=int)
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


def _write_rows(path, header, fmt, rows):
    """Write a header line, then ``fmt % row`` for every tuple of ``rows``.

    Lines end in ``\r\n``, as ``csv.writer`` ends them, and no field needs
    quoting. ``%.17g`` writes the same digits as ``format(x, ".17g")``.
    The rows are streamed, never joined into one string.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(fmt % row for row in rows)


def _split_complex(values):
    """A float64 table of ``values`` in which each complex entry becomes its
    real and then its imaginary column. It is a view, so no bit changes."""
    values = np.ascontiguousarray(values)
    return values.view(np.float64) if np.iscomplexobj(values) else values


def _parts(values):
    return ("r", "i") if np.iscomplexobj(values) else ("",)


def write_table(path, prefix, values, extra=()):
    """Write row j of the (n, d) ``values`` as ``j,<prefix>0,...``, a complex
    entry as its ``r`` and ``i`` columns, followed by one column for each
    ``(name, array)`` of ``extra`` whose array is not None."""
    header = ["j"] + [f"{prefix}{i}{p}" for i in range(values.shape[1]) for p in _parts(values)]
    header += [name for name, column in extra if column is not None]
    columns = [column for _, column in extra if column is not None]
    fmt = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"
    rows = enumerate(zip(_split_complex(values), *columns))
    _write_rows(path, header, fmt, ((j, *row.tolist(), *more) for j, (row, *more) in rows))


def export_observations(seq: ObservationSequence, projection, path):
    """Write (j, observed-index, value) rows; complex modes split into r/i."""
    tokens = [f"{idx}{p}" for idx in projection.observed for p in _parts(seq.ys)]
    # one line per (step, token); a step's lines share one format, fed
    # from a table of alternating step numbers and values
    values = _split_complex(seq.ys[:, projection.observed])
    table = np.empty((values.shape[0], 2 * values.shape[1]))
    table[:, 0::2] = np.arange(1, values.shape[0] + 1)[:, None]
    table[:, 1::2] = values
    fmt = "".join(f"%d,{token},%.17g\r\n" for token in tokens)
    _write_rows(path, ["j", "index", "value"], fmt, (tuple(row.tolist()) for row in table))
    meta = {
        "eps": _format(seq.eps),
        "h": _format(seq.h),
        "n_steps": str(seq.n_steps),
        "dim": str(seq.ys.shape[1]),
        "complex": "1" if np.iscomplexobj(seq.ys) else "0",
        "seed_label": seq.seed_label,
    }
    with open(str(path) + ".meta", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")


def import_observations(path) -> ObservationSequence:
    """Read back a sequence written by :func:`export_observations`.

    Raises ValueError on a ``.meta`` file missing a required key, on a
    row that is not three fields of step, index token and number, on a
    malformed index token (an ``r``/``i`` suffix in a real file, or none in
    a complex one), on a step or index outside the ranges the ``.meta`` file
    declares, and on a row that repeats an earlier one's step and index.
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
    n_parts = 2 if is_complex else 1
    width = n_parts * dim
    ys = np.zeros((n_steps, dim), dtype=np.complex128 if is_complex else np.float64)
    # Row (j, index, part) lands at (j - 1) * width + index * n_parts + part
    # of a flat float view of ys: values are stored, never added, so signed
    # zeros survive. A token's column is checked once, on the first line
    # that uses it.
    flat = memoryview(ys.view(np.float64).reshape(-1))
    seen = bytearray(n_steps * width)
    columns = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["j", "index", "value"]:
            raise ValueError(f"unexpected observation CSV header: {header}")
        for line, row in enumerate(reader, start=2):
            try:
                j, token, value = row
                j, value = int(j), float(value)
            except ValueError as exc:
                raise ValueError(f"{path}, line {line}: {exc}") from None
            col = columns.get(token)
            if col is None:
                part = token[-1:] if token[-1:] in ("r", "i") else ""
                idx = token[: len(token) - len(part)]
                if not idx.isdigit() or bool(part) != is_complex:
                    raise ValueError(f"{path}, line {line}: bad index token {token!r}")
                idx = int(idx)
                if not 0 <= idx < dim:
                    raise ValueError(f"{path}, line {line}: index {idx} outside [0, {dim})")
                col = columns[token] = idx * n_parts + (part == "i")
            if not 1 <= j <= n_steps:
                raise ValueError(f"{path}, line {line}: step {j} outside 1..{n_steps}")
            k = (j - 1) * width + col
            if seen[k]:
                raise ValueError(f"{path}, line {line}: step {j}, index {token!r} given twice")
            seen[k] = 1
            flat[k] = value
    return ObservationSequence(
        eps=float(meta["eps"]),
        h=float(meta["h"]),
        ys=ys,
        seed_label=meta.get("seed_label", ""),
    )


def export_truth(truth, path):
    """Write a truth trajectory (j, coordinate columns)."""
    write_table(path, "v", truth)


def import_truth(path):
    """Read back a trajectory written by :func:`export_truth`, bit for bit.

    Each line is parsed with ``float`` straight into its row of a float64
    array; no table of strings is built. Raises ValueError naming the line
    on a row whose field count differs from the header's or that holds a
    bad number, and on a file that holds no states.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        width = len(header) - 1
        if width < 1:
            raise ValueError(f"{path} holds no states")

        def rows():
            for line, text in enumerate(fh, start=2):
                fields = text.rstrip("\n").split(",")
                if len(fields) != width + 1:
                    raise ValueError(
                        f"{path}, line {line}: {len(fields)} fields, the header has {width + 1}"
                    )
                try:
                    values = [float(tok) for tok in fields[1:]]
                except ValueError as exc:
                    raise ValueError(f"{path}, line {line}: {exc}") from None
                yield values

        data = np.fromiter(rows(), dtype=(np.float64, width))
    if not len(data):
        raise ValueError(f"{path} holds no states")
    if header[-1].endswith("i"):
        # the r/i column pairs are the memory layout of complex128
        return data.view(np.complex128)
    return data
