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

import contextlib
import csv
import errno
import hashlib
import itertools
import os
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

    def __init__(self, dim, observed):
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
    return CoordinateProjection(d, observed)


class FourierCutoff:
    """Retains spectral modes with |k|^2 <= lam; drops the rest."""

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

    def log_density(self, r, eps):
        """Log density at noise level eps of residuals on the observed
        coordinates: one row of the projection's ``observed`` entries, or a
        batch of them.

        Residuals beyond float range saturate to -inf (a zero weight)."""
        r = np.atleast_2d(np.asarray(r, dtype=float))
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

    def log_density(self, r, eps):
        """Log density at noise level eps of residuals on the retained
        modes: one row of the projection's ``observed`` entries, or a batch
        of them.

        Residuals, or variances eps^2 / (|k|^2 n(lam)), beyond float range
        give -inf or nan (a zero weight)."""
        r = np.atleast_2d(np.asarray(r, dtype=np.complex128))
        # numpy's square of eps is Python's, bit for bit, but saturates to inf
        with np.errstate(all="ignore"):
            var = (np.float64(eps) ** 2) * self.mode_var
            return -np.sum(np.abs(r) ** 2 / var, axis=1) - np.sum(np.log(np.pi * var))


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
    """Random smooth field: mode k gets complex N(0, (amplitude/|k|^decay)^2).

    A draw past float range holds inf or nan, a state no model steps."""

    with np.errstate(all="ignore"):
        weights = amplitude / np.sqrt(grid.k2_reps) ** decay

    def sampler(rng, size=None):
        n = 1 if size is None else size
        re = rng.standard_normal((n, grid.n_reps))
        im = rng.standard_normal((n, grid.n_reps))
        with np.errstate(over="ignore", invalid="ignore"):
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


def truth_and_observation_steps(
    model, projection, noise, init_sampler, eps, n_steps, h, rng
):
    """Run the signal map from a random start and observe it through noise,
    one step at a time: yields ``(v_0, None)``, then ``(v_j, y_j)`` for
    j = 1..n_steps as each step is computed.

    The generator is split into an initialization stream and a noise stream,
    so the truth trajectory is identical for every eps under the same rng:
    the start is drawn first, then one noise draw per step.
    """
    if n_steps < 1:
        raise ValueError("need at least one assimilation step")
    if eps < 0:
        raise ValueError("noise strength must be nonnegative")
    g_init, g_noise = rng.spawn(2)
    v = np.asarray(init_sampler(g_init))
    yield v, None
    for _ in range(n_steps):
        v = model.step(v, h)
        w = noise.sample(g_noise)
        yield v, projection.apply(v) + eps * w


def generate_truth_and_observations(
    model, projection, noise, init_sampler, eps, n_steps, h, rng
):
    """The steps of :func:`truth_and_observation_steps`, collected.

    Returns ``(truth, observations)`` with truth of shape (n_steps+1, dim).
    """
    steps = list(truth_and_observation_steps(
        model, projection, noise, init_sampler, eps, n_steps, h, rng
    ))
    truth = np.array([v for v, _ in steps])
    ys = np.array([y for _, y in steps[1:]])
    return truth, ObservationSequence(eps=float(eps), h=float(h), ys=ys)


# ---------------------------------------------------------------------------
# CSV interchange
#
# Lines end in ``\r\n``, as ``csv.writer`` ends them, and no field needs
# quoting. ``%.17g`` writes the same digits as ``format_float``.


def format_float(x):
    """``x`` with 17 significant digits, which read back to the same float.

    Reports, sidecars and the particle filter's substream names write their
    floats with it, so it fixes their bytes.
    """
    return format(float(x), ".17g")


def _split_complex(values):
    """A float64 view of ``values`` in which each complex entry becomes its
    real and then its imaginary part, so no bit changes."""
    values = np.ascontiguousarray(values)
    return values.view(np.float64) if np.iscomplexobj(values) else values


def _parts(is_complex):
    return ("r", "i") if is_complex else ("",)


@contextlib.contextmanager
def outputs_on_success(*paths):
    """Yield a temporary path beside each of ``paths``. When the block
    succeeds each temporary file is renamed over its path; when it or a
    rename raises, the temporary files are removed, so a failed run leaves
    no output, and an OSError names the path rather than its temporary.
    A path that is a directory fails before the first rename, so no path
    is replaced unless all are."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        if isinstance(exc, OSError) and exc.filename in temps:
            exc.filename = paths[temps.index(exc.filename)]
        raise


class TableWriter:
    """Writes a table to an open file one row at a time: a header, then
    ``j,<prefix>0,...`` for each state, a complex entry as its ``r`` and
    ``i`` columns, followed by one column for each name of ``extra``."""

    def __init__(self, fh, prefix, state, extra=()):
        parts = _parts(np.iscomplexobj(state))
        header = ["j"] + [f"{prefix}{i}{p}" for i in range(state.shape[-1]) for p in parts]
        header += extra
        fh.write(",".join(header) + "\r\n")
        self._write = fh.write
        self._fmt = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"

    def write(self, j, state, *extra):
        self._write(self._fmt % (j, *_split_complex(state).tolist(), *extra))


def write_table(path, prefix, values, extra=()):
    """Write row j of the (n, d) ``values`` through a :class:`TableWriter`,
    with one extra column for each ``(name, array)`` of ``extra`` whose
    array is not None."""
    extra = [(name, column) for name, column in extra if column is not None]
    with outputs_on_success(path) as (tmp,), open(tmp, "w", newline="") as fh:
        table = TableWriter(fh, prefix, values, [name for name, _ in extra])
        for j, (row, *more) in enumerate(zip(values, *(column for _, column in extra))):
            table.write(j, row, *more)


def index_tokens(projection, is_complex):
    """The index tokens of the observed coordinates, ``3``, or ``3r`` and
    ``3i`` for complex modes, in order, each mapped to its column in a
    row's float view (a Python int, which indexes faster than numpy's)."""
    parts = _parts(is_complex)
    return {f"{idx}{part}": idx * len(parts) + k
            for idx in projection.observed.tolist() for k, part in enumerate(parts)}


class ObservationWriter:
    """Writes observation rows to an open file one step at a time: a
    header, then ``j,<index token>,value`` for each observed coordinate."""

    def __init__(self, fh, projection, is_complex):
        fh.write("j,index,value\r\n")
        self._write = fh.write
        self._observed = projection.observed
        # one format per step: the step number goes in by str.format
        tokens = index_tokens(projection, is_complex)
        self._fmt = "".join(f"{{0}},{token},%.17g\r\n" for token in tokens)

    def write(self, j, y):
        self._write(self._fmt.format(j) % tuple(_split_complex(y[self._observed]).tolist()))


def write_observation_meta(path, eps, h, n_steps, dim, is_complex, seed_label):
    """Write the ``.meta`` sidecar of an observation file."""
    meta = {
        "eps": format_float(eps),
        "h": format_float(h),
        "n_steps": str(n_steps),
        "dim": str(dim),
        "complex": "1" if is_complex else "0",
        "seed_label": seed_label,
    }
    with open(path, "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")


def export_observations(seq: ObservationSequence, projection, path):
    """Write (j, observed-index, value) rows; complex modes split into r/i."""
    is_complex = np.iscomplexobj(seq.ys)
    with open(path, "w", newline="") as fh:
        writer = ObservationWriter(fh, projection, is_complex)
        for j, y in enumerate(seq.ys, start=1):
            writer.write(j, y)
    write_observation_meta(
        str(path) + ".meta", seq.eps, seq.h, seq.n_steps, seq.ys.shape[1], is_complex,
        seq.seed_label,
    )


def _positive_int(path, meta, key):
    try:
        value = int(meta[key])
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{path}.meta: {key} must be a positive integer, got {meta[key]!r}")
    return value


def import_observations(path, projection) -> ObservationSequence:
    """Read back a sequence that :func:`export_observations` wrote with
    ``projection``.

    Raises ValueError, before any array is allocated, on a ``.meta`` file
    missing a required key, whose n_steps or dim is not a positive integer,
    whose n_steps exceeds the steps the file's size can hold, whose dim is
    not the projection's, or whose eps is negative or not finite or whose h
    is not positive and finite. Then raises ValueError on a row that is not
    three fields of step, index token and number, on a malformed index
    token (an ``r``/``i`` suffix in a real file, or none in a complex one),
    on a step or index outside the ranges the ``.meta`` file declares, on a
    row that repeats an earlier one's step and observed index, on a nonzero
    value at an index the projection does not observe, and on a step that
    lacks a row for an observed index. A row of an unobserved index that
    holds 0 is ignored. The rows may come in any order.
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
    n_steps = _positive_int(path, meta, "n_steps")
    # a step needs a row, and the shortest, "1,0,0" and a line end, is 6 bytes
    most = os.path.getsize(path) // 6
    if n_steps > most:
        raise ValueError(f"{path}.meta: n_steps is {n_steps}, the file can hold {most} at most")
    dim = _positive_int(path, meta, "dim")
    if dim != projection.dim:
        raise ValueError(f"{path}.meta: dim is {dim}, the model has {projection.dim}")
    eps, h = float(meta["eps"]), float(meta["h"])
    if not 0 <= eps < np.inf:
        raise ValueError(f"{path}.meta: eps must be nonnegative and finite, got {meta['eps']!r}")
    if not 0 < h < np.inf:
        raise ValueError(f"{path}.meta: h must be positive and finite, got {meta['h']!r}")
    is_complex = meta.get("complex", "0") == "1"
    n_parts = 2 if is_complex else 1
    width = n_parts * dim
    columns = index_tokens(projection, is_complex)
    ys = np.zeros((n_steps, dim), dtype=np.complex128 if is_complex else np.float64)
    # Row (j, index, part) lands at (j - 1) * width + index * n_parts + part
    # of a flat float view of ys: values are stored, never added, so signed
    # zeros survive. Only the observed columns start out not yet seen.
    flat = memoryview(ys.view(np.float64).reshape(-1))
    seen = bytearray(b"\1") * (n_steps * width)
    for col in columns.values():
        seen[col::width] = bytes(n_steps)
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
            if not 1 <= j <= n_steps:
                raise ValueError(f"{path}, line {line}: step {j} outside 1..{n_steps}")
            col = columns.get(token)
            if col is None:  # an unobserved index, whose rows must hold 0
                part = token[-1:] if token[-1:] in ("r", "i") else ""
                idx = token[: len(token) - len(part)]
                if not (idx.isascii() and idx.isdigit()) or bool(part) != is_complex:
                    raise ValueError(f"{path}, line {line}: bad index token {token!r}")
                idx = int(idx)
                if idx >= dim:
                    raise ValueError(f"{path}, line {line}: index {idx} outside [0, {dim})")
                if projection.mask[idx]:  # an observed index spelt another way, "03"
                    raise ValueError(f"{path}, line {line}: bad index token {token!r}")
                if value != 0:
                    raise ValueError(f"{path}, line {line}: {row[2]} at index {token!r}, but "
                                     f"values at indices the model does not observe must be 0")
                continue
            k = (j - 1) * width + col
            if seen[k]:
                raise ValueError(f"{path}, line {line}: step {j}, index {token!r} given twice")
            seen[k] = 1
            flat[k] = value
    gap = seen.find(0)
    if gap >= 0:
        token = next(token for token, col in columns.items() if col == gap % width)
        raise ValueError(f"{path}: step {gap // width + 1} has no row for index {token!r}")
    return ObservationSequence(eps=eps, h=h, ys=ys, seed_label=meta.get("seed_label", ""))


def export_truth(truth, path):
    """Write a truth trajectory (j, coordinate columns)."""
    write_table(path, "v", truth)


def read_truth(path):
    """Open a trajectory written by :func:`export_truth`.

    Returns an iterator over its states, each line parsed with ``float``
    into a float64 row when the iterator reaches it, bit for bit; the r/i
    column pairs of a complex file are viewed as complex128. The header is
    read here; the iterator opens the file again when it starts and closes
    it at its end. Raises ValueError on a header without state columns; the
    iterator raises ValueError naming the line on a row whose field count
    differs from the header's or that holds a bad number, and at the end of
    a file that holds no states.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    width = len(header) - 1
    if width < 1:
        raise ValueError(f"{path} holds no states")
    is_complex = header[-1].endswith("i")

    def states():
        line = 1
        # opened again once iterated, so an iterator never started holds no file
        with open(path) as fh:
            next(fh, None)
            for line, text in enumerate(fh, start=2):
                fields = text.rstrip("\n").split(",")
                if len(fields) != width + 1:
                    raise ValueError(
                        f"{path}, line {line}: {len(fields)} fields, the header has {width + 1}"
                    )
                try:
                    row = np.array([float(tok) for tok in fields[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {line}: {exc}") from None
                # the r/i column pairs are the memory layout of complex128
                yield row.view(np.complex128) if is_complex else row
        if line == 1:
            raise ValueError(f"{path} holds no states")

    return states()


def import_truth(path):
    """Read back a whole trajectory written by :func:`export_truth`, bit
    for bit, as one array; raises ValueError as :func:`read_truth` does."""
    states = read_truth(path)
    first = next(states)
    return np.fromiter(itertools.chain([first], states), dtype=(first.dtype, first.size))
