"""Uniform linear array signal simulator and dataset handling.

A plane wave from direction theta reaches element k of a uniform linear
array (k - 1) * spacing * sin(theta) / c seconds after element 0, so the
noiseless baseband snapshot is u_k(t) = exp(-2 pi j f (t - delay_k)).
Training pairs map the real-split noisy snapshot to the real-split scaled
delay-Vandermonde transform of that same snapshot, with the transform's
generator alpha = exp(-2 pi j f tau) tied to the sampling interval
tau = 1 / (sample_rate * n).  The regression target is therefore an exact
linear function of the input, noise included.

Noise draws use a per-sample stream keyed by (seed, sample index), so any
single sample can be regenerated without replaying the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import struct

import numpy as np

from .dvm import DvmSpec, build_bluestein_chain, check_seed, cis, fast_dvm_apply

SPEED_OF_LIGHT = 299792458.0
DEFAULT_SAMPLE_RATE = 32e9
# rows formatted per write in save_dataset_csv
_CSV_BLOCK_ROWS = 256

# numpy.random.SeedSequence's hash constants (pool of four 32-bit words) and
# the 128-bit LCG multiplier of PCG64, as numpy defines them
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class ArrayGeometry:
    """Element count and uniform spacing (meters) of the receive array."""

    n_elements: int
    spacing: float

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("array needs at least 2 elements")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be a positive finite length")


def half_wavelength_spacing(design_freq: float = DEFAULT_SAMPLE_RATE) -> float:
    """Spacing c / (2 f) that avoids grating lobes at the design frequency."""
    return SPEED_OF_LIGHT / (2.0 * design_freq)


def steering_delay(geom: ArrayGeometry, theta: float) -> np.ndarray:
    """Arrival delay of each element relative to element 0, in seconds."""
    k = np.arange(geom.n_elements, dtype=np.float64)
    return k * geom.spacing * math.sin(theta) / SPEED_OF_LIGHT


def synth_received(geom: ArrayGeometry, freq: float, theta: float, t) -> np.ndarray:
    """Noiseless baseband snapshots, shape (n_elements, len(t)); make_dataset
    adds the noise."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    delays = steering_delay(geom, theta)
    phase_arg = freq * (t[None, :] - delays[:, None])
    return np.exp(-2j * np.pi * phase_arg)


def transform_alpha(freq: float, n: int, sample_rate: float = DEFAULT_SAMPLE_RATE) -> complex:
    """Generator exp(-2 pi j f tau) with tau = 1 / (sample_rate * n)."""
    return complex(cis(-2.0 * np.pi * freq / (sample_rate * n), 1.0))


@dataclass
class Dataset:
    """Row-major sample arrays plus the metadata that generated them."""

    x: np.ndarray        # (samples, 2n) real-split snapshots
    y: np.ndarray        # (samples, 2n) real-split transform outputs
    angle: np.ndarray    # (samples,) radians
    time: np.ndarray     # (samples,) seconds
    n: int
    freq: float
    sample_rate: float
    spacing: float
    noise_std: float
    seed: int

    @property
    def alpha(self) -> complex:
        return transform_alpha(self.freq, self.n, self.sample_rate)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]


def _hashmix(word, const: int, mult: int):
    """One SeedSequence hash round on a uint32 array; returns the hashed
    words and the next hash constant, which never depends on the data."""
    word = word ^ const
    const = (const * mult) & _MASK32
    word = word * const
    return word ^ (word >> 16), const


def _row_normals(seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) matrix whose row r is, bit for bit,
    np.random.default_rng([seed, r]).standard_normal(width).

    default_rng hashes the 32-bit entropy words of [seed, r] with
    SeedSequence into four 64-bit words, which seed PCG64.  Here that hash
    runs once for all rows on uint32 arrays, and each row's 128-bit PCG64
    state is then set on one reused generator.  seed must pass check_seed,
    so it has at most two words; r must fit in one.
    """
    if rows >= 1 << 32:
        raise ValueError(f"{rows} rows: per-sample noise streams stop at 2**32 rows")
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(rows, w, dtype=np.uint32) for w in seed_words]
    entropy.append(np.arange(rows, dtype=np.uint32))
    entropy += [np.zeros(rows, dtype=np.uint32)] * (_SS_POOL - len(entropy))
    # SeedSequence.mix_entropy: hash each word into the pool, then mix every
    # pool word into every other one
    const, pool = _SS_INIT_A, []
    for w in entropy:
        w, const = _hashmix(w, const, _SS_MULT_A)
        pool.append(w)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const, _SS_MULT_A)
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * h
                pool[dst] = mixed ^ (mixed >> 16)
    # SeedSequence.generate_state(4, uint64): eight words cycling the pool,
    # paired little-endian into (initstate hi, lo, initseq hi, lo)
    const, out = _SS_INIT_B, []
    for i in range(8):
        w, const = _hashmix(pool[i % _SS_POOL], const, _SS_MULT_B)
        out.append(w.astype(np.uint64))
    seeds = [(out[k] | (out[k + 1] << 32)).tolist() for k in range(0, 8, 2)]

    bitgen = np.random.PCG64(0)  # its state is replaced before every draw
    gen = np.random.Generator(bitgen)
    z = np.empty((rows, width))
    for row, (s_hi, s_lo, q_hi, q_lo) in enumerate(zip(*seeds)):
        # PCG64's seeding: inc = 2 initseq + 1, step, add initstate, step
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=z[row])
    return z


def make_dataset(
    n: int,
    freq: float,
    angles_deg,
    samples_per_angle: int,
    noise_std: float,
    seed: int,
    spacing: float | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> Dataset:
    """Simulate snapshots over an angle grid and attach transform targets.

    Each angle contributes samples_per_angle snapshots on the time grid
    [0, 1) with step 1/samples_per_angle.  Sample s (counted across the
    whole set) draws its noise from default_rng([seed, s]): 2n standard
    normals, the real parts first.  The streams are bit for bit those
    generators' but are not built one default_rng at a time: the seed
    hashing for all samples runs as one vectorized pass, and a single
    PCG64 generator is reseeded per sample (_row_normals).  All targets
    come from one batched transform of the (n, samples) snapshot matrix.
    seed must be an integer in 0..2**63-1 (check_seed), and sample_rate
    must pass load_dataset's header check, so that the set loads back.
    """
    check_seed(seed)
    if not math.isfinite(freq):
        raise ValueError(f"freq must be finite, got {freq!r}")
    if samples_per_angle < 1:
        raise ValueError("samples_per_angle must be >= 1")
    if not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise ValueError(f"sample rate must be positive and finite, got {sample_rate!r}")
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    angles_deg = np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))
    if not np.all(np.isfinite(angles_deg)):
        raise ValueError(f"angles must be finite, got {angles_deg.tolist()}")
    geom = ArrayGeometry(n, half_wavelength_spacing() if spacing is None else spacing)
    spec = DvmSpec(n, transform_alpha(freq, n, sample_rate))
    t_grid = np.arange(samples_per_angle, dtype=np.float64) / samples_per_angle
    total = angles_deg.size * samples_per_angle
    u = np.empty((n, total), dtype=np.complex128)
    angle_col = np.empty(total)
    time_col = np.empty(total)
    for k, a_deg in enumerate(angles_deg):
        rows = slice(k * samples_per_angle, (k + 1) * samples_per_angle)
        theta = math.radians(a_deg)
        u[:, rows] = synth_received(geom, freq, theta, t_grid)
        angle_col[rows] = theta
        time_col[rows] = t_grid
    if noise_std:
        z = _row_normals(seed, total, 2 * n)
        s = noise_std / math.sqrt(2.0)
        u += s * (z[:, :n] + 1j * z[:, n:]).T
    v = fast_dvm_apply(build_bluestein_chain(spec), u)
    x = np.empty((total, 2 * n))
    y = np.empty((total, 2 * n))
    x[:, :n] = u.real.T
    x[:, n:] = u.imag.T
    y[:, :n] = v.real.T
    y[:, n:] = v.imag.T
    return Dataset(
        x=x, y=y, angle=angle_col, time=time_col, n=n, freq=freq,
        sample_rate=sample_rate, spacing=geom.spacing,
        noise_std=noise_std, seed=seed,
    )


def split_dataset(ds: Dataset, train_fraction: float = 0.8, seed: int = 0):
    """Stratified split: every distinct angle keeps train_fraction of its
    samples in the training part.  Returns (train, val) datasets."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for theta in np.unique(ds.angle):
        rows = np.flatnonzero(ds.angle == theta)
        perm = rows[rng.permutation(rows.size)]
        k = int(round(train_fraction * rows.size))
        k = min(max(k, 1), rows.size - 1) if rows.size > 1 else rows.size
        train_idx.append(perm[:k])
        val_idx.append(perm[k:])
    train_idx = np.concatenate(train_idx)
    val_idx = np.concatenate(val_idx) if val_idx else np.zeros(0, dtype=int)

    def take(idx):
        return Dataset(
            x=ds.x[idx].copy(), y=ds.y[idx].copy(),
            angle=ds.angle[idx].copy(), time=ds.time[idx].copy(),
            n=ds.n, freq=ds.freq, sample_rate=ds.sample_rate,
            spacing=ds.spacing, noise_std=ds.noise_std, seed=ds.seed,
        )

    return take(train_idx), take(val_idx)


# ---------------------------------------------------------------------------
# persistence

_MAGIC = b"DVMB"
_VERSION = 1
_HEAD_FMT = "<4sIIQdddddq"


def save_dataset(ds: Dataset, path: str) -> None:
    """Binary layout: magic, version, n, sample count, freq, sample_rate,
    spacing, noise_std, reserved, seed, then angle/time/x/y arrays as
    little-endian float64.  save_dataset_csv writes the tabular twin.
    The frequency must be finite: load_dataset rejects any other."""
    if not math.isfinite(ds.freq):
        raise ValueError(f"freq must be finite to save a dataset, got {ds.freq!r}; "
                         "pass freq= to load_dataset_csv when reading a table")
    head = struct.pack(
        _HEAD_FMT, _MAGIC, _VERSION, ds.n, ds.n_samples, ds.freq,
        ds.sample_rate, ds.spacing, ds.noise_std, 0.0, ds.seed,
    )
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in (ds.angle, ds.time, ds.x, ds.y):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_dataset(path: str, verify: bool = True) -> Dataset:
    """Read a saved binary dataset; unless disabled, recompute every target
    from its input and fail loudly on drift beyond 1e-9 (see
    _check_targets).  load_dataset_csv reads the tabular twin."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = struct.calcsize(_HEAD_FMT)
    if len(data) < head_size:
        raise ValueError(f"{path}: truncated dataset file")
    magic, version, n, count, freq, rate, spacing, noise_std, _res, seed = (
        struct.unpack(_HEAD_FMT, data[:head_size])
    )
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not a dataset file")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    if n < 2 or not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"{path}: header gives n={n} and sample rate {rate!r}; "
                         "want n >= 2 and a positive finite rate")
    if not math.isfinite(freq):
        raise ValueError(f"{path}: frequency {freq!r} (byte 20) must be finite")
    if seed < 0:
        raise ValueError(f"{path}: seed {seed} (byte 60) must be in 0..2**63-1")
    need = head_size + 8 * (count * 2 + count * 4 * n)
    if len(data) != need:
        raise ValueError(f"{path}: expected {need} bytes, found {len(data)}")
    body = np.frombuffer(data, dtype="<f8", offset=head_size)
    pos = 0

    def take(k, shape):
        nonlocal pos
        out = np.array(body[pos : pos + k], dtype=np.float64).reshape(shape)
        pos += k
        return out

    angle = take(count, (count,))
    time = take(count, (count,))
    x = take(count * 2 * n, (count, 2 * n))
    y = take(count * 2 * n, (count, 2 * n))
    ds = Dataset(
        x=x, y=y, angle=angle, time=time, n=n, freq=freq, sample_rate=rate,
        spacing=spacing, noise_std=noise_std, seed=seed,
    )
    if verify:
        _check_targets(path, ds)
    return ds


def _check_targets(path: str, ds: Dataset) -> None:
    """Raise ValueError unless every stored target is within 1e-9 of the
    transform of its stored input; a NaN in x or y fails, as it must."""
    err = verify_targets(ds)
    if not err <= 1e-9:
        raise ValueError(
            f"{path}: stored targets deviate from recomputed transform "
            f"by {err:.3e} (limit 1e-9); file is stale or corrupt"
        )


def verify_targets(ds: Dataset) -> float:
    """Max absolute difference between stored targets and the transform of
    the stored inputs."""
    spec = DvmSpec(ds.n, ds.alpha)
    chain = build_bluestein_chain(spec)
    u = (ds.x[:, : ds.n] + 1j * ds.x[:, ds.n :]).T
    v = fast_dvm_apply(chain, u)
    expect = np.concatenate([v.real, v.imag]).T
    return float(np.max(np.abs(expect - ds.y))) if ds.n_samples else 0.0


def save_dataset_csv(ds: Dataset, path: str) -> None:
    """Tabular twin of the binary format: one header row, one row per sample,
    17 significant digits per value (lossless for float64), CRLF line ends.
    Rows are formatted in blocks of _CSV_BLOCK_ROWS to bound the memory used."""
    n = ds.n
    header = (
        ["sample_id", "t", "angle_deg"]
        + [f"x_re_{i}" for i in range(n)]
        + [f"x_im_{i}" for i in range(n)]
        + [f"y_re_{i}" for i in range(n)]
        + [f"y_im_{i}" for i in range(n)]
    )
    row_fmt = "%d," + ",".join(["%.17g"] * (2 + 4 * n)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, ds.n_samples, _CSV_BLOCK_ROWS):
            b = min(a + _CSV_BLOCK_ROWS, ds.n_samples)
            vals = np.empty((b - a, 2 + 4 * n))
            vals[:, 0] = ds.time[a:b]
            vals[:, 1] = np.degrees(ds.angle[a:b])
            vals[:, 2 : 2 + 2 * n] = ds.x[a:b]
            vals[:, 2 + 2 * n :] = ds.y[a:b]
            fh.write("".join(
                row_fmt % (i, *row) for i, row in enumerate(vals.tolist(), a)
            ))


def load_dataset_csv(path: str, freq: float | None = None,
                     sample_rate: float = DEFAULT_SAMPLE_RATE,
                     spacing: float | None = None, noise_std: float = 0.0,
                     seed: int = 0, verify: bool = True) -> Dataset:
    """Read the tabular format back (CRLF or LF line ends).  The table
    carries no generator metadata, so freq (and friends) must be supplied to
    re-verify targets; without freq the data loads unverified, with a NaN
    freq that save_dataset rejects.  The
    sample_id column is not parsed.  seed must pass check_seed, so that
    save_dataset can write the result."""
    check_seed(seed)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0].split(",", 1)[0] != "sample_id":
        raise ValueError(f"{path}: not a dataset table (missing header)")
    width = lines[0].count(",") + 1
    if width < 11 or (width - 3) % 4:
        raise ValueError(f"{path}: header has {width} columns, want 3 + 4n with n >= 2")
    n = (width - 3) // 4
    body = lines[1:]
    for i, line in enumerate(body):
        fields = line.count(",") + 1 if line else 0
        if fields != width:
            raise ValueError(f"{path}: row {i} has {fields} fields, want {width}")
    vals = _parse_value_fields(path, body, width)
    time = vals[:, 0].copy()
    angle = np.radians(vals[:, 1])
    x = vals[:, 2 : 2 + 2 * n].copy()
    y = vals[:, 2 + 2 * n :].copy()
    ds = Dataset(
        x=x, y=y, angle=angle, time=time, n=n,
        freq=(math.nan if freq is None else freq), sample_rate=sample_rate,
        spacing=(half_wavelength_spacing() if spacing is None else spacing),
        noise_std=noise_std, seed=seed,
    )
    if verify and freq is not None:
        _check_targets(path, ds)
    return ds


def _parse_value_fields(path: str, body: list, width: int) -> np.ndarray:
    """float64 (rows, width - 1) array of every field but the first, parsed
    in one call; a field that is not a number raises ValueError naming its
    row."""
    def parse(lines):
        return np.loadtxt(lines, delimiter=",", usecols=range(1, width),
                          comments=None, ndmin=2)

    if not body:
        return np.empty((0, width - 1))
    try:
        return parse(body)
    except ValueError as err:
        for i, line in enumerate(body):
            try:
                parse([line])
            except ValueError:
                raise ValueError(f"{path}: row {i} has a non-numeric value") from None
        raise ValueError(f"{path}: {err}") from None
