"""Uniform linear array signal simulator and dataset handling.

A plane wave from direction theta reaches element k = 0..n-1 of a uniform
linear array k * ELEMENT_SPACING * sin(theta) / c seconds after element 0,
so the noiseless baseband snapshot is u_k(t) = exp(-2 pi j f (t - delay_k)).
Training pairs map the real-split noisy snapshot to the real-split scaled
delay-Vandermonde transform of that same snapshot, with the transform's
generator alpha = exp(-2 pi j f tau) tied to the sampling interval
tau = 1 / (sample_rate * n).  The regression target is therefore an exact
linear function of the input, noise included.

Noise draws use a per-sample stream keyed by (seed, sample index), so any
single sample can be regenerated without replaying the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
import math
import struct

import numpy as np

from .dvm import (DvmSpec, _on_threads, build_bluestein_chain, check_int, check_seed, cis,
                  fast_dvm_apply, power_of_two)

SPEED_OF_LIGHT = 299792458.0
DEFAULT_SAMPLE_RATE = 32e9
# half a wavelength at 32 GHz, the top of the band: no grating lobes over it
ELEMENT_SPACING = SPEED_OF_LIGHT / (2.0 * 32e9)
# values formatted per write in save_dataset_csv.  A block's slots and
# temporaries take about 200 bytes a value; blocks of 2,048-16,384 values
# wrote the 900-sample n=16 table fastest, 4x larger ones 1.3x slower
_CSV_BLOCK_VALUES = 8192

# numpy.random.SeedSequence's hash constants (pool of four 32-bit words) and
# the 128-bit LCG multiplier of PCG64, as numpy defines them
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def synth_received(n: int, freq: float, thetas, t) -> np.ndarray:
    """Noiseless baseband snapshots of n elements, shape (n, A * S): column
    a * S + s is the plane wave from thetas[a] (radians) at time t[s], so
    each angle's S snapshots are adjacent.  make_dataset adds the noise."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    k = np.arange(n, dtype=np.float64)
    delays = k[:, None] * ELEMENT_SPACING * np.sin(thetas) / SPEED_OF_LIGHT
    phase = -2j * np.pi * (freq * (t - delays[:, :, None]))
    return np.exp(phase, out=phase).reshape(n, thetas.size * t.size)


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


def _mul_hi(a, b):
    """High 64 bits of the 128-bit products a * b, for a uint64 array a and
    a uint64 scalar b, from the four products of their 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_seed(s_hi, s_lo, q_hi, q_lo):
    """PCG64's seeding of (initstate, initseq), each given as uint64 (hi, lo)
    limb arrays: inc = 2 initseq + 1 and state = (inc + initstate) mult + inc,
    mod 2**128.  Returns (state hi, state lo, inc hi, inc lo), uint64 arrays;
    sums carry from the low limb by an unsigned compare."""
    inc_hi = (q_hi << 1) | (q_lo >> 63)
    inc_lo = (q_lo << 1) | 1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    mul_lo = lo * _PCG_MULT_LO
    mul_hi = _mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    state_lo = mul_lo + inc_lo
    return mul_hi + inc_hi + (state_lo < inc_lo), state_lo, inc_hi, inc_lo


def _row_normals(seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) matrix whose row r is, bit for bit,
    np.random.default_rng([seed, r]).standard_normal(width).

    default_rng hashes the 32-bit entropy words of [seed, r] with
    SeedSequence into four 64-bit words, which seed PCG64.  Here that hash
    and PCG64's own seeding step run once for all rows, on uint32 and uint64
    arrays, and the loop over rows only sets each row's 128-bit state on one
    reused generator and draws into the row.  A row depends on (seed, r)
    alone, so make_dataset may draw the rows on a second thread while it
    does other work: no byte depends on which thread draws them.  seed must
    pass check_seed, so it has at most two words; r must fit in one.
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
    seeds = [out[k] | (out[k + 1] << 32) for k in range(0, 8, 2)]
    limbs = [a.tolist() for a in _pcg64_seed(*seeds)]

    bitgen = np.random.PCG64(0)  # its state is replaced before every draw
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    z = np.empty((rows, width))
    for row, s_hi, s_lo, i_hi, i_lo in zip(z, *limbs):
        pcg["state"] = s_hi << 64 | s_lo
        pcg["inc"] = i_hi << 64 | i_lo
        bitgen.state = state
        gen.standard_normal(out=row)
    return z


def make_dataset(
    n: int,
    freq: float,
    angles_deg,
    samples_per_angle: int,
    noise_std: float,
    seed: int,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> Dataset:
    """Simulate snapshots over an angle grid and attach transform targets.

    Each angle contributes samples_per_angle snapshots on the time grid
    [0, 1) with step 1/samples_per_angle.  Sample s (counted across the
    whole set) draws its noise from default_rng([seed, s]): 2n standard
    normals, the real parts first.  The streams are bit for bit those
    generators' but are not built one default_rng at a time: the seeding
    of all samples runs as one vectorized pass, and a single PCG64
    generator is reseeded per sample (_row_normals).  With two usable CPUs
    and noise, a second thread draws the noise rows while this one
    synthesizes the snapshots and builds the transform (dvm._on_threads);
    with one CPU or noise_std 0 all runs on the calling thread.  No byte
    depends on which.  All targets come from one batched transform of the
    (n, samples) snapshot matrix.
    seed must be an integer in 0..2**63-1 (check_seed), samples_per_angle
    an integer >= 1 (check_int), and sample_rate must pass load_dataset's
    header check, so that the set loads back.  A noise_std so large that a
    noisy snapshot or its target is not finite raises ValueError.
    """
    check_seed(seed)
    if not math.isfinite(freq):
        raise ValueError(f"freq must be finite, got {freq!r}")
    samples_per_angle = check_int(samples_per_angle, "samples_per_angle", 1)
    if not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise ValueError(f"sample rate must be positive and finite, got {sample_rate!r}")
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    angles_deg = np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))
    if not np.all(np.isfinite(angles_deg)):
        raise ValueError(f"angles must be finite, got {angles_deg.tolist()}")
    if power_of_two(n, least=2) is None:
        raise ValueError(f"n must be a power of two >= 2, got {n!r}")
    spec = DvmSpec(n, transform_alpha(freq, n, sample_rate))
    t_grid = np.arange(samples_per_angle, dtype=np.float64) / samples_per_angle
    thetas = np.radians(angles_deg)
    total = thetas.size * samples_per_angle

    def synthesize():
        return synth_received(n, freq, thetas, t_grid), build_bluestein_chain(spec)

    if noise_std:
        (u, chain), z = _on_threads([synthesize, partial(_row_normals, seed, total, 2 * n)])
    else:
        u, chain = synthesize()
    # a noise_std near the float range overflows the snapshots or their
    # transform; the check below refuses such a set, so numpy's overflow
    # warnings on the way are not shown
    with np.errstate(over="ignore", invalid="ignore"):
        if noise_std:
            s = noise_std / math.sqrt(2.0)
            u += s * (z[:, :n] + 1j * z[:, n:]).T
        v = fast_dvm_apply(chain, u)
    x = np.empty((total, 2 * n))
    y = np.empty((total, 2 * n))
    x[:, :n] = u.real.T
    x[:, n:] = u.imag.T
    y[:, :n] = v.real.T
    y[:, n:] = v.imag.T
    if noise_std and not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"noise_std {noise_std!r} is too large: a noisy snapshot "
                         f"or its target is not finite")
    return Dataset(
        x=x, y=y, angle=np.repeat(thetas, samples_per_angle),
        time=np.tile(t_grid, thetas.size), n=n, freq=freq,
        sample_rate=sample_rate, spacing=ELEMENT_SPACING,
        noise_std=noise_std, seed=seed,
    )


# share of each angle's samples that split_dataset puts in the training part
_TRAIN_FRACTION = 0.8


def split_dataset(ds: Dataset, seed: int = 0):
    """Stratified split: every distinct angle keeps _TRAIN_FRACTION of its
    samples in the training part.  Returns (train, val) datasets."""
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for theta in np.unique(ds.angle):
        rows = np.flatnonzero(ds.angle == theta)
        perm = rows[rng.permutation(rows.size)]
        k = int(round(_TRAIN_FRACTION * rows.size))
        k = min(max(k, 1), rows.size - 1) if rows.size > 1 else rows.size
        train_idx.append(perm[:k])
        val_idx.append(perm[k:])
    # a set without samples has no angle, and splits into two empty parts
    train_idx, val_idx = (np.concatenate(idx) if idx else np.zeros(0, dtype=int)
                          for idx in (train_idx, val_idx))

    # fancy indexing copies, so no part shares memory with ds
    return tuple(replace(ds, x=ds.x[idx], y=ds.y[idx], angle=ds.angle[idx], time=ds.time[idx])
                 for idx in (train_idx, val_idx))


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
    from its input and fail loudly on drift beyond TARGET_TOL (see
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
    if power_of_two(n, least=2) is None or not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"{path}: header gives n={n} and sample rate {rate!r}; "
                         "want a power-of-two n >= 2 and a positive finite rate")
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
    _check_finite_rows(path, angle, time)
    ds = Dataset(
        x=x, y=y, angle=angle, time=time, n=n, freq=freq, sample_rate=rate,
        spacing=spacing, noise_std=noise_std, seed=seed,
    )
    if verify:
        _check_targets(path, ds)
    return ds


def _check_finite_rows(path: str, angle, time) -> None:
    """Raise ValueError naming the first row whose angle or time is NaN or
    infinite: split_dataset would drop that sample, and eval's per-angle
    scores would meet an empty batch."""
    bad = ~(np.isfinite(angle) & np.isfinite(time))
    if bad.any():
        i = int(bad.argmax())
        name, value = ("angle", angle[i]) if not np.isfinite(angle[i]) else ("time", time[i])
        raise ValueError(f"{path}: row {i} has a non-finite {name} ({float(value)!r}); "
                         "angles and times must be finite")


# Largest deviation of a stored target from the transform of its stored
# input (verify_targets) that a set passes with: gen-data reports PASS and
# load_dataset accepts the set exactly when targets_pass holds.
TARGET_TOL = 1e-9


def targets_pass(err: float) -> bool:
    """Whether a verify_targets deviation is within TARGET_TOL; NaN fails."""
    return err <= TARGET_TOL


def _check_targets(path: str, ds: Dataset) -> None:
    """Raise ValueError unless every stored target is within TARGET_TOL of
    the transform of its stored input.  A NaN or infinity in x or y fails, and
    the message then names the first row that holds one; so does a finite
    input whose transform overflows."""
    err = verify_targets(ds)
    if not targets_pass(err):
        bad = ~(np.isfinite(ds.x).all(axis=1) & np.isfinite(ds.y).all(axis=1))
        if bad.any():
            i = int(bad.argmax())
            name = "input (x)" if not np.isfinite(ds.x[i]).all() else "target (y)"
            raise ValueError(f"{path}: row {i} has a non-finite {name}; "
                             "inputs and targets must be finite")
        over = ~np.isfinite(_recomputed_targets(ds)).all(axis=1)
        if over.any():
            raise ValueError(f"{path}: row {int(over.argmax())} has an input (x) whose "
                             "transform overflows float64; inputs must be small enough "
                             "for a finite target")
        raise ValueError(
            f"{path}: stored targets deviate from recomputed transform "
            f"by {err:.3e} (limit {TARGET_TOL:.0e}); file is stale or corrupt"
        )


def _recomputed_targets(ds: Dataset) -> np.ndarray:
    """(samples, 2n) real-split transform of every stored input; NaN or
    infinite in a row whose input is, or so large that the transform
    overflows.  numpy's overflow and invalid-value warnings are not shown:
    _check_targets refuses such a set."""
    chain = build_bluestein_chain(DvmSpec(ds.n, ds.alpha))
    with np.errstate(over="ignore", invalid="ignore"):
        u = (ds.x[:, : ds.n] + 1j * ds.x[:, ds.n :]).T
        v = fast_dvm_apply(chain, u)
        return np.concatenate([v.real, v.imag]).T


def verify_targets(ds: Dataset) -> float:
    """Max absolute difference between stored targets and the transform of
    the stored inputs; NaN or infinite when an input or target is.  A set
    without samples gives 0.0 before any chain is built, so a header's n
    drives no allocation."""
    if not ds.n_samples:
        return 0.0
    expect = _recomputed_targets(ds)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(expect - ds.y)))


# ---------------------------------------------------------------------------
# tables
#
# save_dataset_csv writes every value as Python's '%.17g' would, a block of
# values at a time.  Each value gets a 40-byte slot whose non-NUL bytes, in
# order, are the separator and the value's text:
#
#   byte 0        ',' (the separator before the value)
#   byte 1        '-' for a negative value
#   bytes 2-6     '0.' and up to three '0's for a value below 1
#   byte 7 + 2j   significant digit j of 17 (j = 0..16)
#   byte 8 + 2j   '.' after digit j = E when a nonzero digit follows
#
# and one bytes.translate drops the NULs of a whole block.  A finite v with
# 1e-4 <= |v| < 1e16 prints in '%g's fixed style (its decimal exponent after
# rounding is in -4..16), so its text is the 17 digits of D = round(|v| *
# 10**(16 - E)), E = floor(log10 |v|), with the point after digit E, '0.'
# and -E - 1 zeros ahead of them when E < 0, and trailing zeros after the
# point dropped.  Every other value (zeros, non-finite, subnormal, tiny or
# huge) takes Python's own '%.17g'; a set of snapshots and targets has a
# handful of them.

_SLOT = 40
# 10**k for k <= 22 is an exact double
_POW10 = np.array([float(10**k) for k in range(23)])


def _dekker_split(a):
    """(hi, lo) with hi + lo == a and each half 26 bits or less (Dekker 1971)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _dekker_split(_POW10)


def _digit_group_tables():
    """Two tables over the 4-digit groups 0000-9999: each group as 8 bytes,
    every digit after a NUL, read as one uint64; and its trailing zeros, 4
    for 0000."""
    g = np.arange(10000)
    groups = np.zeros((g.size, 8), np.uint8)
    groups[:, 1::2] = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return groups.view(np.uint64).ravel(), sum(g % 10**k == 0 for k in range(1, 5))


_GROUPS, _GROUP_TZ = _digit_group_tables()


def _slot_xor_table() -> np.ndarray:
    """(21 * 17 * 2, 5) uint64: for exponent E = -4..16, last kept digit
    0..16 and sign, the bytes to XOR into the digit groups' 40 bytes to make
    the value's slot.  A kept digit's byte XORs with 0; a dropped trailing
    zero with '0'; the NUL ahead of each digit and the three '0's that pad
    the first group (one digit) turn into the separator, sign, prefix or
    point."""
    e = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    neg = np.arange(2)[:, None]
    pos = np.arange(_SLOT)
    zero, point = ord("0"), ord(".")
    want = ((pos == 0) * ord(",") + (pos == 1) * neg * ord("-")
            + (e < 0) * ((pos == 2) * zero + (pos == 3) * point
                         + ((pos >= 4) & (pos <= 2 - e)) * zero)
            + ((0 <= e) & (e < last) & (pos == 8 + 2 * e)) * point)
    have = ((pos < 7) | (pos > 7 + 2 * last)) * (pos % 2) * zero
    table = np.broadcast_to(want ^ have, (21, 17, 2, _SLOT)).astype(np.uint8)
    return table.view(np.uint64).reshape(-1, _SLOT // 8)


_SLOT_XOR = _slot_xor_table()


def _round17(a, e):
    """round(a * 10**(16 - e)) as int64, ties to even.  a * 10**k is exactly
    p + err, Dekker's product.  For e = floor(log10 a), p >= 1e16 > 2**53 is
    an even integer, so adding rint(err) rounds a tie to even; for another e
    the result falls outside [1e16, 1e17), and _g17_slots redoes it."""
    k = 16 - e
    b, bh, bl = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    ah, al = _dekker_split(a)
    p = a * b
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _g17_slots(v: np.ndarray) -> np.ndarray:
    """(v.size, _SLOT) uint8: slot i holds ',' then '%.17g' % v[i] in the
    layout above, NUL-padded.  v is a 1-D float64 array."""
    a = np.abs(v)
    exact = (a >= 1e-4) & (a < 1e16)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    d = _round17(a, e)
    # log10 is within an ulp, so E is off by at most one near a power of ten,
    # where D falls outside [1e16, 1e17); one step fixes it
    off = (d < 10**16).astype(np.intp) - (d >= 10**17)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] -= off[redo]
        d[redo] = _round17(a[redo], e[redo])
    # D as five groups of 4 digits (the first holds one), in 32-bit arithmetic
    hi = d // 10**8
    lo = (d - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    groups = np.empty((v.size, 5), np.uint32)
    q = hi // 10000
    groups[:, 2] = hi - q * 10000
    groups[:, 0] = q // 10000
    groups[:, 1] = q - groups[:, 0] * 10000
    groups[:, 3] = lo // 10000
    groups[:, 4] = lo - groups[:, 3] * 10000
    slots = np.empty((v.size, _SLOT), np.uint8)
    words = slots.view(np.uint64)
    # every group is below 10000; take buffers out= unless mode is not "raise"
    np.take(_GROUPS, groups, out=words, mode="clip")
    # trailing zeros of D: those of its last nonzero group
    tz = _GROUP_TZ[groups[:, 4]]
    deep = np.flatnonzero(tz == 4)
    if deep.size:
        t = tz[deep]
        for j in (3, 2, 1):
            t += (t == 4 * (4 - j)) * _GROUP_TZ[groups[deep, j]]
        tz[deep] = t
    last = np.maximum(e, 16 - tz)
    words ^= np.take(_SLOT_XOR, ((e + 4) * 17 + last) * 2 + np.signbit(v), axis=0)
    for i in np.flatnonzero(~exact):
        text = np.frombuffer(b"%.17g" % v[i], np.uint8)
        slots[i, 1:] = 0
        slots[i, 2 : 2 + text.size] = text
    return slots


def save_dataset_csv(ds: Dataset, path: str) -> None:
    """Tabular twin of the binary format: one header row, one row per sample,
    each value as '%.17g' writes it (17 significant digits, lossless for
    float64), CRLF line ends.  Rows are formatted in blocks of about
    _CSV_BLOCK_VALUES values (_g17_slots) to bound the memory used."""
    n = ds.n
    header = (
        ["sample_id", "t", "angle_deg"]
        + [f"x_re_{i}" for i in range(n)]
        + [f"x_im_{i}" for i in range(n)]
        + [f"y_re_{i}" for i in range(n)]
        + [f"y_im_{i}" for i in range(n)]
    )
    width = len(header)
    rows = max(1, _CSV_BLOCK_VALUES // width)
    with open(path, "wb") as fh:
        # each row starts by ending the line before it, and the table ends
        # with one more line end
        fh.write(",".join(header).encode())
        for a in range(0, ds.n_samples, rows):
            b = min(a + rows, ds.n_samples)
            vals = np.empty((b - a, width))
            # a sample id is an exact double (below 2**53), and '%.17g'
            # writes an integer below 1e17 as '%d' does
            vals[:, 0] = np.arange(a, b)
            vals[:, 1] = ds.time[a:b]
            vals[:, 2] = np.degrees(ds.angle[a:b])
            vals[:, 3 : 3 + 2 * n] = ds.x[a:b]
            vals[:, 3 + 2 * n :] = ds.y[a:b]
            slots = _g17_slots(vals.ravel()).reshape(b - a, width, _SLOT)
            slots[:, 0, :2] = (ord("\r"), ord("\n"))
            fh.write(slots.tobytes().translate(None, b"\0"))
        fh.write(b"\r\n")


def load_dataset_csv(path: str, freq: float | None = None) -> Dataset:
    """Read the tabular format back.  A line ends at LF, CRLF or a lone CR, as
    in a file read in text mode, and the file must be UTF-8.  The table
    carries no generator metadata, so freq must be supplied to re-verify
    targets, which are checked at DEFAULT_SAMPLE_RATE; without freq the data
    loads unverified, with a NaN freq that save_dataset rejects.  The set is
    labelled with DEFAULT_SAMPLE_RATE, ELEMENT_SPACING, noise_std 0 and seed
    0.  The sample_id column is not parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raw = _lf_line_ends(raw)
    body_commas = np.count_nonzero(np.frombuffer(raw, np.uint8) == ord(","))
    # strict: a file that is not UTF-8 raises here.  Each copy of the file
    # is freed once the next one is made, so the lines are the only copy left
    text = raw.decode("utf-8")
    del raw
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0].split(",", 1)[0] != "sample_id":
        raise ValueError(f"{path}: not a dataset table (missing header)")
    width = lines[0].count(",") + 1
    if width < 11 or (width - 3) % 4:
        raise ValueError(f"{path}: header has {width} columns, want 3 + 4n with n >= 2")
    n = (width - 3) // 4
    vals = _parse_value_fields(path, lines[1:], width, body_commas - (width - 1))
    time = vals[:, 0].copy()
    angle = np.radians(vals[:, 1])
    x = vals[:, 2 : 2 + 2 * n].copy()
    y = vals[:, 2 + 2 * n :].copy()
    _check_finite_rows(path, angle, time)
    ds = Dataset(
        x=x, y=y, angle=angle, time=time, n=n,
        freq=(math.nan if freq is None else freq), sample_rate=DEFAULT_SAMPLE_RATE,
        spacing=ELEMENT_SPACING, noise_std=0.0, seed=0,
    )
    if freq is not None:
        _check_targets(path, ds)
    return ds


def _lf_line_ends(raw: bytes) -> bytes:
    """raw with every line end an LF, as text mode reads it: a CR that no LF
    follows ends a line as an LF does, and the CR of a CRLF is dropped.  Each
    byte it changes or drops is ASCII and keeps an LF after it, so the
    result is UTF-8 exactly when raw is."""
    data = np.frombuffer(raw, np.uint8)
    lone = data == ord("\r")
    lone[:-1] &= data[1:] != ord("\n")
    if lone.any():
        data = data.copy()
        data[lone] = ord("\n")
        raw = data.tobytes()
    return raw.replace(b"\r", b"")


def _parse_value_fields(path: str, body: list, width: int, commas: int) -> np.ndarray:
    """float64 (rows, width - 1) array of every field but the first, parsed
    in one call; body holds `commas` commas in all.  A row without width
    fields, or with a field that is not a number, raises ValueError naming
    the first such row, field counts first."""
    def parse(lines):
        return np.loadtxt(lines, delimiter=",", usecols=range(1, width),
                          comments=None, ndmin=2)

    if not body:
        return np.empty((0, width - 1))
    try:
        vals, error = parse(body), None
    except ValueError as err:
        vals, error = None, err
    # a parse that passed found width fields or more on every line it did
    # not skip as blank; it skipped none, and no line had more, exactly when
    # the row count and the comma total match
    if error is None and len(vals) == len(body) and commas == (width - 1) * len(body):
        return vals
    for i, line in enumerate(body):
        fields = line.count(",") + 1 if line else 0
        if fields != width:
            raise ValueError(f"{path}: row {i} has {fields} fields, want {width}")
    if error is None:
        return vals
    for i, line in enumerate(body):
        try:
            parse([line])
        except ValueError:
            raise ValueError(f"{path}: row {i} has a non-numeric value") from None
    raise ValueError(f"{path}: {error}") from None
