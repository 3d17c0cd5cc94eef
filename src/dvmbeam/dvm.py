"""Scaled delay-Vandermonde transforms and their sparse factorizations.

The scaled delay-Vandermonde matrix (DVM) of size N for a unit-modulus
generator alpha has entries alpha**(k*l), k, l = 0..N-1.  A chirp
(Bluestein-style) identity k*l = (k^2 + l^2 - (k-l)^2) / 2 turns it into

    diag(alpha**(k^2/2)) . Toeplitz(alpha**(-(k-l)^2/2)) . diag(alpha**(l^2/2))

and the Toeplitz block embeds in a circulant of size M = 2N, which the DFT
diagonalizes.  The resulting seven-factor chain applies the full transform in
O(N log N) arithmetic.  This module builds that chain from its DvmSpec
alone, and the recursive DFT factorization whose twiddle diagonals and leaf
blocks later become trainable network parameters.  Every fixed DFT here (the
chain's apply kernel, its Dft factors and the build of its middle diagonal)
calls the pocketfft gufuncs that numpy.fft wraps directly: the same bytes,
without the wrappers' per-call cost.

All dense constructions here exist for verification; the apply paths never
materialize an N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math
import operator
import os
import threading

import numpy as np
# The private module of pocketfft's one-axis gufuncs, which numpy.fft.fft
# and numpy.fft.ifft end in (numpy >= 2.0).  The Bluestein kernel
# (FactorChain.apply for a vector, _bluestein for a batch) and _dft call
# them, and only here is the module imported.  Each public call wraps a 2 us
# N=16 transform in 3.5-6 us of array-function dispatch, result_type, the
# reciprocal(sqrt(m)) of a scalar and normalize_axis_index (best of 7 timeit
# runs, 2-CPU x86 VM, numpy 2.4), and an apply makes two.
from numpy.fft import _pocketfft_umath as _pocketfft

# Three-part split of 2*pi for Cody-Waite argument reduction.  The first part
# carries 33 significant bits so n*_PI2_A stays exact for n < 2**20.
_PI2_A = float.fromhex("0x1.921fb54400000p+2")
_PI2_B = float.fromhex("0x1.0b4611a600000p-32")
_PI2_C = float.fromhex("0x1.3198a2e037073p-67")
_TWO_PI = 6.283185307179586

# Largest |x| for which the compensated path below is exact: the Veltkamp
# product needs x on at most 27 mantissa bits and the reduction needs the
# quotient n below 2**20.
_CIS_EXACT_LIMIT = float(1 << 21)

# How far |alpha| may stray from 1 for a delay generator to count as unit
# modulus (DvmSpec and the network's delay and exact initialization).
UNIT_TOL = 1e-12


def check_seed(seed) -> None:
    """Raise ValueError unless seed is an integer in 0..2**63-1, the range
    of the signed 64-bit seed field in both file headers (datasets and
    models); make_dataset, NetworkConfig and OptimizerConfig all check here."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 1 << 63):
        raise ValueError(f"seed must be an integer in 0..2**63-1, got {seed!r}")


def check_int(value, name: str, least: int) -> int:
    """value as an int when operator.index accepts it (numpy integers too;
    not a bool, a float or a string) and it is >= least, else ValueError."""
    try:
        v = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        v = None
    if v is None or v < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return v


def power_of_two(n, least: int = 1) -> int | None:
    """n as an int when operator.index accepts it (numpy integers too, not a
    float or a string) and it is a power of two >= least, else None; each
    caller raises its own error."""
    try:
        n = operator.index(n)
    except TypeError:
        return None
    return n if n >= least and not n & (n - 1) else None


def cis(phi: float, x) -> np.ndarray:
    """exp(1j * phi * x) with compensated argument reduction.

    Chirp exponents reach x ~ N^2, so the phase phi*x grows to ~1e6 radians
    at N = 1024 and a plain double product loses ~6e-11 of phase before the
    complex exponential is ever taken.  Splitting phi (Veltkamp) and reducing
    against a three-part 2*pi (Cody-Waite) keeps every entry accurate to a
    few ulp instead, which the factorization identities rely on.

    Parameters
    ----------
    phi : float
        Phase of the unit-modulus generator, principal branch.
    x : array_like
        Real exponents.  Exact reduction is guaranteed for half-integers with
        |x| < 2**21 (covers N <= 1024 with margin); beyond that the plain
        product is used.
    """
    x = np.asarray(x, dtype=np.float64)
    top = float(np.max(np.abs(x), initial=0.0))
    if abs(phi) * top > _TWO_PI * (1 << 20) or top > _CIS_EXACT_LIMIT:
        theta = phi * x
        return np.cos(theta) + 1j * np.sin(theta)
    t = phi * 134217729.0  # 2**27 + 1
    hi = t - (t - phi)
    lo = phi - hi
    p1 = hi * x  # exact: 26-bit hi times <=27-bit x
    p2 = lo * x
    n = np.rint(p1 / _TWO_PI)
    r = ((p1 - n * _PI2_A) - n * _PI2_B) - n * _PI2_C + p2
    return np.cos(r) + 1j * np.sin(r)


@dataclass(frozen=True)
class DvmSpec:
    """Problem description for one scaled DVM: size and generator.

    n must be a power of two >= 2 (any integer operator.index accepts,
    numpy integers included, stored as int) and alpha unit modulus; the
    stored phase phi = arg(alpha) is the single source of truth for every
    fractional power, so all factors use one consistent branch.
    """

    n: int
    alpha: complex

    def __post_init__(self):
        n = power_of_two(self.n, least=2)
        if n is None:
            raise ValueError(f"n must be a power of two >= 2, got {self.n!r}")
        object.__setattr__(self, "n", n)
        if not abs(abs(self.alpha) - 1.0) <= UNIT_TOL:  # also rejects NaN
            raise ValueError(
                f"alpha must be unit modulus within {UNIT_TOL}, "
                f"got |alpha| = {abs(self.alpha)!r}"
            )

    @property
    def m(self) -> int:
        return 2 * self.n

    @property
    def phi(self) -> float:
        return math.atan2(self.alpha.imag, self.alpha.real)


@dataclass
class OpCounter:
    """Per-call arithmetic tally in complex-equivalent operations.

    muls counts complex multiplications (unit twiddles included; real-scalar
    normalization of a complex vector counts one mul per element), adds
    counts complex additions.  Instances are created by the caller and passed
    down, never shared globally.  They are not thread-safe: a counted
    FactorChain.apply tallies the factors' closed-form totals once, on the
    calling thread, before any column block runs, so it may split like an
    uncounted one.
    """

    muls: int = 0
    adds: int = 0

    def tally(self, muls: int = 0, adds: int = 0) -> None:
        self.muls += int(muls)
        self.adds += int(adds)


def scaled_dvm_dense(spec: DvmSpec) -> np.ndarray:
    """Dense oracle: entries alpha**(k*l) by direct exponentiation."""
    k = np.arange(spec.n, dtype=np.float64)
    return cis(spec.phi, np.outer(k, k))


def circulant_first_column(spec: DvmSpec) -> np.ndarray:
    """First column of the size-2N circulant embedding the chirp Toeplitz.

    Index m in 0..N-1 holds alpha**(-m^2/2); index N is a don't-care slot
    (set to 1); index 2N-j for j in 1..N-1 holds alpha**(-j^2/2), so the
    leading N x N block of the circulant equals alpha**(-(k-l)^2/2).
    """
    n = spec.n
    m = np.arange(n, dtype=np.float64)
    head = cis(spec.phi, -0.5 * m * m)
    j = np.arange(n - 1, 0, -1, dtype=np.float64)
    tail = cis(spec.phi, -0.5 * j * j)
    return np.concatenate([head, [1.0 + 0.0j], tail])


# ---------------------------------------------------------------------------
# fixed DFTs on pocketfft's gufuncs, batched over columns


def _fft_ops(size: int) -> tuple[int, int]:
    """Closed-form (muls, adds) of one power-of-two FFT of length size."""
    stages = size.bit_length() - 1
    return (size >> 1) * stages, size * stages


def _ortho_scale(m: int) -> float:
    """The factor of an orthonormal m-point DFT as numpy computes it,
    reciprocal(sqrt(m)): square root and division are both correctly
    rounded, so 1 / math.sqrt(m) is the same double."""
    return 1 / math.sqrt(m)


# the gufuncs' axes argument for a transform along axis 0 (numpy wants a list)
_AXIS_0 = [(0,), (), (0,)]


def _dft(x: np.ndarray, scale: float, conj: bool = False) -> np.ndarray:
    """scale times the DFT of the complex128 array x along axis 0 (the
    conjugate DFT when conj) in a new array laid out like x: the gufunc call
    numpy.fft.fft and numpy.fft.ifft make, so the same bytes."""
    gufunc = _pocketfft.ifft if conj else _pocketfft.fft
    return gufunc(x, scale, axes=_AXIS_0, out=np.empty_like(x))


def _check_rows(x: np.ndarray, rows: int) -> None:
    """Raise ValueError unless the array x has leading dimension rows."""
    got = x.shape[0] if x.ndim else "a 0-d array"
    if got != rows:
        raise ValueError(f"expected leading dimension {rows}, got {got}")


# ---------------------------------------------------------------------------
# factor chain for the seven-factor scaled-DVM identity


class Diagonal:
    """Elementwise multiply by a fixed complex vector."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.complex128)

    def __repr__(self):
        return f"Diagonal({len(self.values)})"

    def tally(self, counter: OpCounter) -> None:
        counter.tally(muls=len(self.values))

    def apply(self, x):
        x, v = np.asarray(x), self.values  # x.ndim costs a third of np.ndim(x)
        _check_rows(x, len(v))  # one row would broadcast
        return np.multiply(x, v[:, None] if x.ndim == 2 else v)


class Dft:
    """Normalized (unitary) DFT factor along axis 0, conjugated when conj is
    set; size must be a power of two."""

    def __init__(self, size: int, conj: bool = False):
        self.size = power_of_two(size)
        if self.size is None:
            raise ValueError(f"FFT length must be a power of two, got {size}")
        self.conj = conj
        self.scale = _ortho_scale(self.size)

    def __repr__(self):
        return f"Dft({self.size}{', conj' if self.conj else ''})"

    def tally(self, counter: OpCounter) -> None:
        muls, adds = _fft_ops(self.size)
        counter.tally(muls=muls + self.size, adds=adds)  # + the 1/sqrt(size) scaling

    def apply(self, x):
        x = np.asarray(x, dtype=np.complex128)
        _check_rows(x, self.size)
        return _dft(x, self.scale, self.conj)


class ZeroPad:
    """Append zero rows: J x = [x; 0].  The result is a new array in Fortran
    order, so each column (the axis the DFTs run along) is contiguous."""

    def __init__(self, out_dim: int, in_dim: int):
        if out_dim < in_dim:
            raise ValueError("zero-pad must grow the vector")
        self.out_dim = out_dim
        self.in_dim = in_dim

    def __repr__(self):
        return f"ZeroPad({self.in_dim} -> {self.out_dim})"

    def tally(self, counter: OpCounter) -> None:
        """No arithmetic: the pad only moves data."""

    def apply(self, x):
        x = np.asarray(x)
        _check_rows(x, self.in_dim)  # one row would broadcast
        out = np.zeros((self.out_dim,) + x.shape[1:], x.dtype, order="F")
        out[: self.in_dim] = x
        return out


class Truncate:
    """Keep the leading rows: J^T x = x[:out_dim], a view of x."""

    def __init__(self, out_dim: int, in_dim: int):
        if out_dim > in_dim:
            raise ValueError("truncation must shrink the vector")
        self.out_dim = out_dim
        self.in_dim = in_dim

    def __repr__(self):
        return f"Truncate({self.in_dim} -> {self.out_dim})"

    def tally(self, counter: OpCounter) -> None:
        """No arithmetic: the truncation only drops rows."""

    def apply(self, x):
        x = np.asarray(x)
        _check_rows(x, self.in_dim)
        return x[: self.out_dim]


@dataclass(frozen=True)
class FactorChain:
    """The seven-factor chirp factorization of the scaled DVM of spec, built
    from spec alone.  factors, in application order (factors[0] touches the
    input first), is

        D, ZeroPad(n -> 2n), Dft(2n), Diagonal(d_breve), Dft(2n, conj),
        Truncate(2n -> n), D

    where D = Diagonal(d_hat), d_hat = alpha**(k^2/2), is one object stored
    once and used twice, as the first and the last factor, and d_breve is
    the raw DFT of the chirp circulant's first column.  The composition
    equals alpha**(k*l) to a few ulp per entry.

    The factors tuple is the chain's inspectable description: each factor
    applies on its own.  The chain is frozen and fixes, when it is built,
    what every apply of its size needs: n, m = 2n and the orthonormal DFT
    factor 1/sqrt(m), as the float scale and as scale_0d, a read-only 0-d
    float64 array, which the kernel's gufunc calls take without converting
    it on every call.  The factors' values are read on every apply, so an
    in-place edit of one shows in the next, at both ends for D.  dense()
    applies the chain to the identity, for verification at small sizes; it
    is the only place the product is ever materialized.
    """

    spec: DvmSpec
    factors: tuple = field(init=False)
    n: int = field(init=False, repr=False)
    m: int = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)
    scale_0d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        n, m = spec.n, spec.m
        k = np.arange(n, dtype=np.float64)
        d = Diagonal(cis(spec.phi, 0.5 * k * k))
        d_breve = Diagonal(_dft(circulant_first_column(spec), 1.0))
        factors = (d, ZeroPad(m, n), Dft(m), d_breve, Dft(m, conj=True), Truncate(n, m), d)
        scale = _ortho_scale(m)
        # the gufuncs convert a float factor to an array on every call
        scale_0d = np.array(scale)
        scale_0d.flags.writeable = False
        for name, value in (("factors", factors), ("n", n), ("m", m), ("scale", scale),
                            ("scale_0d", scale_0d)):
            object.__setattr__(self, name, value)

    def apply(self, x, counter: OpCounter | None = None) -> np.ndarray:
        """The chain applied to x, a vector (N,) or a column batch (N, B).

        x is never written.  Each input kind runs one fixed kernel: the
        first diagonal's product goes into the leading rows of a zeroed
        2N-row pad buffer, both DFTs and the middle diagonal run in place
        there, and the last diagonal's product of its leading rows is the
        result, a new array.  A vector runs that kernel inline here, each
        gufunc called on the 1-D pad (its only axis is the core axis) with a
        positional out.  A batch runs it in _bluestein, with a column-ordered
        pad buffer and a Fortran-order result, both allocated here; a
        row-ordered batch fills the pad buffer through row tiles whose
        scratch is the result's leading entries.  The DFTs call numpy's
        pocketfft gufuncs directly with the chain's fixed factor; their bytes
        are those of the Dft factors, which run on public numpy.fft.  A
        counted call tallies the factors' closed-form totals per column,
        once, on the calling thread.

        Every column is its own transform, so a batch whose pad buffer has
        at least _SPLIT_MIN_ENTRIES entries runs as k column blocks, counted
        or not: k is at most one per usable CPU and per column, and at most
        _SPLIT_MAX_BLOCKS.  The calling thread runs one block; k - 1
        short-lived threads run the others (_on_threads; the pocketfft
        gufuncs and np.multiply release the interpreter lock).  The output
        is bit-identical, and a split apply allocates what a serial one
        does: the pad buffer and the result, 3 N.B.16 bytes.
        """
        x = np.asarray(x, dtype=np.complex128)
        n, fs = self.n, self.factors
        if x.ndim not in (1, 2):
            raise ValueError(f"expected a vector (N,) or a column batch (N, B), got shape {x.shape}")
        if x.shape[0] != n:
            raise ValueError(f"expected leading dimension {n}, got {x.shape[0]}")
        if counter is not None:
            for f in fs:
                f.tally(counter)
        if x.ndim == 1:
            pad = np.zeros(self.m, np.complex128)
            head = pad[:n]
            np.multiply(x, fs[0].values, head)
            _pocketfft.fft(pad, self.scale_0d, pad)
            np.multiply(pad, fs[3].values, pad)
            _pocketfft.ifft(pad, self.scale_0d, pad)
            return np.multiply(head, fs[6].values)
        m, b = self.m, x.shape[1]
        pad = np.empty((m, b), np.complex128, order="F")
        out = np.empty((n, b), np.complex128, order="F")
        args = fs[0].values, fs[3].values, fs[6].values, self.scale_0d
        k = min(_usable_cpus(), _SPLIT_MAX_BLOCKS, b) if m * b >= _SPLIT_MIN_ENTRIES else 1
        if k == 1:
            _bluestein(*args, x, pad, out)
        else:
            blocks = zip(*(np.array_split(a, k, axis=1) for a in (x, pad, out)))
            _on_threads([functools.partial(_bluestein, *args, *block) for block in blocks])
        return out

    def dense(self) -> np.ndarray:
        return self.apply(np.eye(self.n, dtype=np.complex128))


def _bluestein(d_in, d_mid, d_out, scale, x, pad, out):
    """The chain on x, a batch or one column block of a batch, in
    _bluestein_steps, under the ufunc buffers of its pad buffer's size (each
    thread sets its own: numpy keeps the setting per thread)."""
    with_ufunc_buffers(pad.size, _bluestein_steps, d_in, d_mid, d_out, scale, x, pad, out)


def _bluestein_steps(d_in, d_mid, d_out, scale, x, pad, out):
    """d_in . x into the leading rows of pad (its tail rows zeroed here), the
    normalized DFT, the d_mid product and the conjugate normalized DFT in
    place in pad, and d_out times its leading rows into out.

    The two DFTs call pocketfft's gufuncs directly along axis 0 with scale,
    numpy's orthonormal factor (the chain's scale_0d), so their bytes are
    those of numpy.fft.fft and numpy.fft.ifft with norm="ortho" and of the
    Dft factors' own applies, without the wrappers' cost."""
    n = x.shape[0]
    head = pad[:n]
    pad[n:] = 0
    if x.strides[0] > x.strides[1]:  # row-ordered
        _multiply_by_row_tiles(x, d_in, head, out)
    else:
        np.multiply(x, d_in[:, None], out=head)
    _pocketfft.fft(pad, scale, axes=_AXIS_0, out=pad)
    np.multiply(pad, d_mid[:, None], out=pad)
    _pocketfft.ifft(pad, scale, axes=_AXIS_0, out=pad)
    np.multiply(head, d_out[:, None], out=out)


# numpy's buffered iterator (2.4.6 here) grows a ufunc's inner loop past one
# column by copying every operand that does not stride evenly across columns
# (a broadcast diagonal, a column block, the pad buffer's leading rows, a
# chain level's halves) into buffers of np.getbufsize() entries: 8,192 by
# default, two or three 128 KB buffers per product (0.25 N.B.16 bytes per
# column block above the pad buffer and the result at N=1024, B=64).  Work
# on more than _BUFSIZE_FROM entries runs under _BUFSIZE-entry buffers
# instead: the kernel's products (0.46-0.95 per product at N >= 64, B=64 to
# 3000) and every network.forward pass, keyed on its hidden carrier (p.2n.B
# complex entries).  At or below _BUFSIZE_FROM (numpy's default buffer) the switch,
# 2.5-4 us of errstate and setbufsize, gains nothing: whole applies read
# 1.04-1.08 at N=16, B=64 to 128, and a B=32 training step never pays it.
# An untraced structured forward (default depth, F-ordered input) with the
# switch alone, and with it and network._BLOCK_ENTRIES = 2**15 column
# blocks, over the pass with numpy's default buffers and no blocks (the
# mean of two runs of medians of 11 alternating bursts in one process,
# 2-CPU x86 VM, OpenBLAS 0.3.31):
#
#    n    p     B=300       B=900       B=3000      B=9000
#    16   1     0.63/0.62   0.71/0.71   0.91/0.57   1.00/0.55
#    16   2     0.66/0.65   0.70/0.67   0.93/0.47   1.01/0.51
#    16   4     0.62/0.61   0.79/0.69   0.93/0.59   0.99/0.50
#    32   1     0.70/0.70   0.72/0.70   0.91/0.63   1.01/0.57
#    32   2     0.69/0.66   0.80/0.66   0.91/0.67   1.01/0.45
#    32   4     0.73/0.73   0.81/0.62   0.93/0.49
#    64   1     0.71/0.72   0.82/0.76   0.91/0.61   1.00/0.44
#    64   2     0.73/0.71   0.85/0.67   0.93/0.52
#    64   4     0.83/0.76   0.86/0.70   0.96/0.59
#
# (B=9000 is left out where a carrier is above 128 rows.)  In one run each,
# a limit of 3 * 2**14 read within 0.09 of 2**15 at B >= 3000 (0.41-0.62,
# higher only at n=16, p <= 2, B=9000), and 2**14 read up to 0.93 where its
# blocks are narrow (n=64, p=1, B=300: two of 150 columns) and 0.84-0.88 at
# n=32..64, p=2..4, B=3000.  16-entry buffers (no growth past one column)
# read up to 2.1 on the kernel's middle and last products at N=16, where a
# column is 16 or 32 entries.
_BUFSIZE = 512
_BUFSIZE_FROM = 8192


def with_ufunc_buffers(entries, fn, *args):
    """fn(*args), under _BUFSIZE-entry ufunc buffers when its work spans more
    than _BUFSIZE_FROM array entries, else as it is.  Buffers move data, not
    arithmetic: the Bluestein kernel and the network's forward pass give the
    same bytes either way (their tests check it).  np.errstate restores the
    caller's buffer size and error state on exit, a raise included (numpy
    >= 2.0); the setting holds for the calling thread only."""
    if entries <= _BUFSIZE_FROM:
        return fn(*args)
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        return fn(*args)


# Row tiles of the first product from a row-ordered batch into the
# column-ordered pad buffer: each tile is a contiguous np.multiply into a
# scratch of about _TILE_ENTRIES entries and at least _TILE_MIN_ROWS rows,
# then one cache-resident transposing copy.  A wide batch cuts each row tile
# into round(entries / _TILE_MAX_ENTRIES) equal column tiles.  The scratch
# is the leading entries of the result's columns, which the last product
# overwrites, so the tiles allocate nothing.  Against a product into a fresh array and a
# copy, the first diagonal and pad alone, one thread, medians of 9 best-of
# runs, 2-CPU x86 VM (affinity {0, 1}) with other load:
#
#    shape            two passes   2**14 entries, 64 rows   other tilings
#    N=4096, B=64       4.3-4.6 ms   0.47-0.61   2**13 0.50-0.65, 2**15 0.49-0.58, 2**16 0.62
#    N=4096, B=32       1.5 ms       0.48        2**13 0.52, 2**15 0.46, 2**16 0.59
#    N=2048, B=64       1.2 ms       0.58        2**13 0.61, 2**15 0.62, 2**16 0.71
#    N=1024, B=64       0.52-0.63 ms 0.55-0.73   2**13 0.60-0.80, 2**16 0.87
#    N=1024, B=128      1.5 ms       0.65        2**13 0.78, 2**15 0.67
#    N=1024, B=1001    14.8 ms       0.73        8-row minimum 0.92
#    N=256,  B=3000    14.0 ms       0.85        8-row minimum 1.02
#
# One transposing np.multiply straight from x into the pad buffer read
# 1.14-1.94 against the two passes there.  A batch that fits in one tile
# goes through the scratch too: whole applies read 0.88-0.94 of those with
# a direct product at N=64..256 (B=64..3000) and 0.98-1.03 at N=16 (B=64 or
# 900), medians of 60 alternating bursts, same machine.  Column tiles, the
# first product alone against whole-width row tiles (medians of 15
# alternating best-of-8 runs, same machine): 0.61 at N=64, B=3000, 0.50 at
# N=64, B=9000, 0.64-0.67 at N=256, B=3000 and 0.84-0.88 at N=16, B=4096,
# and 0.99-1.04 at N=256..2048, B=300..1001.  Capped at 2**14 entries (a
# 256-column cap at 64 rows), they read 1.10-1.36 at N=1024, B=300 or 1001,
# N=256, B=600 and N=2048, B=500.  Whole serial applies read 0.93 at N=256,
# B=3000 and 0.98-1.00 at N=16..1024.
_TILE_ENTRIES = 1 << 14
_TILE_MIN_ROWS = 64
_TILE_MAX_ENTRIES = 1 << 15


def _multiply_by_row_tiles(x, v, out, spare):
    """v . x into out through tiles of rows as above, cut into equal column
    tiles of about _TILE_MAX_ENTRIES entries, with spare (an F-contiguous
    array of x's shape) as the scratch."""
    n, b = x.shape
    rows = min(n, max(_TILE_MIN_ROWS, _TILE_ENTRIES // max(b, 1)))
    cols = max(1, -(-b // max(1, round(rows * b / _TILE_MAX_ENTRIES))))  # 1 when b is 0
    scratch = spare.T.reshape(-1)
    for c in range(0, b, cols):
        width = min(cols, b - c)
        for r in range(0, n, rows):
            height = min(rows, n - r)
            tile = scratch[: height * width].reshape(height, width)
            np.multiply(x[r : r + rows, c : c + cols], v[r : r + rows, None], out=tile)
            out[r : r + rows, c : c + cols] = tile


# When a batch is split across threads: its (2N, B) pad buffer must have at
# least _SPLIT_MIN_ENTRIES entries, whatever N, and it splits into
# min(usable CPUs, _SPLIT_MAX_BLOCKS, B) column blocks.  A thread start plus
# join costs 45-115 us (best of 300, six runs).  Whole chain split (k=2) over
# serial time, both with this kernel, row-ordered input, in one process:
# the median over six runs of the ratio of medians of 8-12 alternating 20 ms
# burst medians, 2-CPU x86 VM (affinity {0, 1}) with other load:
#
#    pad entries   32,768   65,536   98,304   131,072   196,608   262,144
#    N=16           1.48     0.84     0.74 *    0.67      0.62      0.71
#    N=64           1.59     0.97     0.74      0.73      0.68      0.61
#    N=256          1.30     0.85     0.77      0.69      0.66      0.68
#    N=512          1.16     0.81     0.71      0.65      0.61      0.61
#    N=1024         1.18     0.78     0.76      0.68      0.66      0.63
#    N=2048         1.20     0.83     0.75      0.70      0.67      0.61
#    N=4096         1.22     0.80     0.70      0.69      0.64      0.62
#
# (* 96,000 entries: N=16, B=3000.)  N=4096, B=64 (524,288) reads 0.56.
# From 2**17 entries every shape reads at most 0.73, so no row floor is
# needed: N=16 at B=4096 to 8192 gains like N=4096.  Single runs under load
# read up to 0.98 there (N=64, B=1024 or 1536) and, in one run, 1.42 and
# 1.31 at N=256, B=384 and 512 (0.55-0.95 in the other five).  Below 2**17
# the split still gains in process at 98,304 entries, but it stays serial:
# the 3000-sample n=16 dataset build (96,000 entries) read make_dataset 0.98
# and verify_targets 0.91 of serial end to end, where n=32 and 64 read
# 0.98 / 0.77 and 0.93 / 0.75 (15 alternating rounds each), and every n=16
# set of the benchmark's workloads stays on one thread.  At 65,536 entries
# the gain is small and unsteady (single runs 0.72-1.25), and at 32,768 the
# split loses.  k above 2 has not been measured (the machine
# above has two CPUs), so no apply uses more blocks.  Two blocks forced onto
# one CPU read 1.14 at N=4096, B=64 and 1.16-1.24 at 262,144 entries, so
# _usable_cpus also reads the process's CPU quota.
_SPLIT_MIN_ENTRIES = 1 << 17
_SPLIT_MAX_BLOCKS = 2

# The process's cgroup v2 path is the "0::" line of _PROC_CGROUP; its
# cpu.max under _CGROUP_ROOT reads "quota period" (us) or "max period".
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


@functools.cache
def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set (where the OS has one)
    cut to the whole CPUs of its cgroup v2 quota, at least one.  No quota
    ("max"), no cgroup v2 or a cpu.max that cannot be read or parsed leaves
    the affinity count.  Read once per process: a later change to the
    affinity set or the quota is not seen until the process restarts."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        with open(_PROC_CGROUP) as f:
            path = next(line[3:].strip() for line in f if line.startswith("0::"))
        with open(os.path.join(_CGROUP_ROOT, path.lstrip("/"), "cpu.max")) as f:
            quota, period = f.read().split()
        quota = int(quota) / int(period)  # "max" raises ValueError
    except (OSError, StopIteration, ValueError, ZeroDivisionError):
        return cpus
    return max(1, min(cpus, int(quota))) if quota > 0 else cpus


def _on_threads(calls) -> list:
    """Run the callables of calls at once; return their results in order.

    calls[0] runs on the calling thread and each other one on a short-lived
    thread of its own, under the caller's floating-point error state (numpy
    keeps it per thread, and a new thread starts from the defaults).  Every
    thread has joined before this returns or raises.  An exception on the
    calling thread propagates; else the first worker exception, in the
    order of calls, is re-raised here.  With one usable CPU the calls run
    one after another on the calling thread, in order.  The Bluestein
    kernel's column blocks, make_dataset's noise draw and gen-data's file
    write run through it.
    """
    if _usable_cpus() < 2:
        return [call() for call in calls]
    results = [None] * len(calls)
    errors = {}  # index in calls -> exception
    err, errcall = np.geterr(), np.geterrcall()

    def work(i):
        try:
            with np.errstate(call=errcall, **err):
                results[i] = calls[i]()
        except Exception as e:  # re-raised by the caller after the join
            errors[i] = e

    threads = []
    try:
        for i in range(1, len(calls)):
            t = threading.Thread(target=work, args=(i,))
            t.start()
            threads.append(t)
        results[0] = calls[0]()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def build_bluestein_chain(spec: DvmSpec) -> FactorChain:
    """The chirp factorization of the scaled DVM of spec: FactorChain(spec)."""
    return FactorChain(spec)


def fast_dvm_apply(chain: FactorChain, x, counter: OpCounter | None = None) -> np.ndarray:
    """Apply the factored scaled DVM to a vector (N,) or column batch (N, B).

    x is never written.  The result is a new array; a 2-D one is in Fortran
    order (axis 0 contiguous).  FactorChain.apply says how the fixed kernel
    runs: inline for a vector, with no per-call work beyond the transform's
    own numpy calls and shape checks, and in _bluestein for a batch, which
    from 2**17 pad entries (counted or not) may run as column blocks on two
    threads, bit-identical to the serial apply in the same memory, with no
    thread outliving the call.  The two DFTs call numpy's pocketfft gufuncs
    directly: numpy.fft's bytes without its per-call wrappers, which took
    about half of a single N=16 snapshot's apply.  A counted call tallies
    the chain's operations for one column, whatever the batch.
    """
    return chain.apply(x, counter)


# ---------------------------------------------------------------------------
# recursive DFT factorization (the trainable block structure)


@functools.cache
def _interleave_index(size: int, depth: int):
    """Row order that undoes depth levels of even/odd splitting, as the
    read-only pair (perm, inverse perm), built once per (size, depth).

    Going bottom-up, level l interleaves the two halves of each block of
    size >> l ([a, b | c, d] -> [a, c, b, d]); the composition is one
    gather, out = y[perm], and its adjoint is g[inv_perm].
    """
    perm = np.arange(size)
    for lvl in range(depth - 1, -1, -1):
        perm = perm.reshape(1 << lvl, 2, -1).swapaxes(1, 2).reshape(size)
    inv = np.argsort(perm)
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


def chain_entries(size: int, depth: int) -> int:
    """Values of one chain of size and depth: one twiddle diagonal per level
    (size/2 + size/4 + ... + s entries), then the s x s leaf, s = size >> depth.
    Raises ValueError unless size is a power of two and 0 <= depth <= log2(size)."""
    if (n := power_of_two(size)) is None:
        raise ValueError(f"chain size must be a power of two, got {size}")
    if not 0 <= depth <= n.bit_length() - 1:
        raise ValueError(f"depth {depth} leaves no leaf: need 0 <= depth <= log2({n})")
    s = n >> depth
    return n - s + s * s


class RecursiveDftChain:
    """DFT of a power-of-two size as depth butterfly levels plus leaf blocks.

    Level l splits each block [u; v] into [u + v; D(u - v)] where D is one
    twiddle diagonal of half the block length; after depth levels the
    remaining segments of length size/2**depth are hit with a dense leaf
    matrix, and the even/odd interleavings are undone bottom-up.  With exact
    twiddles and an exact DFT leaf the chain reproduces the DFT; with free
    values the same wiring is what the network trains.

    One object holds a stack of K chains of one wiring, whose values are the
    rows of values, a complex (K, chain_entries(size, depth)) array kept as
    self.values (a complex128 array as it is, so a view into a parameter
    buffer stays one).  Each row holds twiddle levels 0..depth-1 (size/2,
    size/4, ... columns), then the s x s leaf row by row; twiddles[l], of
    shape (K, half_l), and leaf, (K, s, s), are views of those columns, so
    writing one writes the other.  Chain k runs slice k of a (K, rows, B)
    input; a 1-D or 2-D input is a K = 1 stack and keeps its shape.  Sibling
    blocks share their level's diagonal, as the FFT's do, and every segment
    meets the same leaf matrix.  normalized=True folds the frozen real scale
    2**(-depth/2) into every output.

    An input of half height, size/2 rows, stands for [u; 0]: the chain
    returns the transform of the zero-padded vector without building the
    pad.  Level 0 of [u; 0] is top = u, bottom = tw0 * u (FFT input pruning,
    Sorensen & Burrus 1993), and backward() returns the gradient of u alone,
    g_top + conj(tw0) * g_bot.  Both equal a run on the padded input bit for
    bit.
    """

    def __init__(self, size, depth, values, normalized=False):
        e = chain_entries(size, depth)
        size = operator.index(size)
        s = size >> depth
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[1] != e:
            raise ValueError(f"a chain of size {size} and depth {depth} has {e} values "
                             f"per row of a (K, {e}) array, got shape {values.shape}")
        self.size = size
        self.depth = depth
        self.values = values
        self.twiddles = [values[:, size - (size >> lvl):size - (size >> (lvl + 1))]
                         for lvl in range(depth)]
        self.leaf = values[:, size - s:].reshape(-1, s, s)
        self.scale = 2.0 ** (-depth / 2.0) if normalized else 1.0
        self._perm, self._inv_perm = _interleave_index(size, depth)

    @property
    def leaf_size(self) -> int:
        return self.size >> self.depth

    def param_arrays(self):
        """Trainable arrays in declaration order: twiddle levels, then leaf."""
        return self.twiddles + [self.leaf]

    def apply(self, x) -> np.ndarray:
        y, _ = self._run(x, want_trace=False)
        return y

    def apply_trace(self, x):
        """Forward pass keeping the intermediates backward() needs."""
        return self._run(x, want_trace=True)

    def _stacked(self, x):
        """x as a (K, rows, B) stack, and the function that gives a result
        the shape of x back."""
        x = np.asarray(x, dtype=np.complex128)
        shape = x.shape
        if x.ndim < 3:
            x = x.reshape(1, shape[0], -1)
        if x.ndim != 3 or len(x) != len(self.values):
            raise ValueError(f"expected a stack of {len(self.values)} inputs, got shape {shape}")
        return x, (lambda y: y.reshape(y.shape[1:2] + shape[1:]) if len(shape) < 3 else y)

    def _run(self, x, want_trace):
        x, unstack = self._stacked(x)
        size = self.size
        k, rows, cols = x.shape
        pruned = 2 * rows == size  # x stands for [x; 0]
        if rows != size and not pruned:
            raise ValueError(
                f"expected leading dimension {size} (or {size >> 1} for a "
                f"zero-padded input), got {rows}"
            )
        diffs = [] if want_trace else None
        # Every level reads one buffer and writes the other, so level 0 reads
        # the input where it lies (no copy) and u - v needs no scratch array.
        bufs = [np.empty((k, size, cols), dtype=np.complex128) for _ in range(2)]
        y, first = x, 0
        if pruned:
            y = bufs[0]
            if self.depth == 0:
                y[:, :rows] = x
                y[:, rows:] = 0.0
            else:
                # level 0 of [x; 0]: top x + 0, bottom (x - 0) * tw0; adding
                # the zero rather than copying turns -0.0 into +0.0 as the
                # pad does
                np.add(x, 0.0, out=y[:, :rows])
                np.multiply(x, self.twiddles[0][:, :, None], out=y[:, rows:])
                if want_trace:
                    diffs.append(x.copy()[:, None])
                first = 1
        for lvl in range(first, self.depth):
            half = size >> (lvl + 1)
            dst = bufs[1] if y is bufs[0] else bufs[0]
            # each block's halves as (K, blocks, half, B) views: indexing a
            # split axis costs less than slicing
            v = y.reshape(k, 1 << lvl, 2, half, cols)
            w = dst.reshape(k, 1 << lvl, 2, half, cols)
            top, bot = v[:, :, 0], v[:, :, 1]
            w_top, w_bot = w[:, :, 0], w[:, :, 1]
            d = np.subtract(top, bot, out=None if want_trace else w_bot)
            if want_trace:
                diffs.append(d)
            np.add(top, bot, out=w_top)
            np.multiply(d, self.twiddles[lvl][:, None, :, None], out=w_bot)
            y = dst
        if y is x:  # no level ran: the leaf reads, and a trace keeps, a copy
            y = bufs[0]
            y[...] = x
        s = self.leaf_size
        segs = y.reshape(k, size // s, s, cols)  # kept by the trace: y is not written again
        leaf = self.leaf[:, None]
        if want_trace:
            y = np.matmul(leaf, segs).reshape(k, size, cols).take(self._perm, axis=1)
        else:
            # the leaf product goes to the other buffer, its permutation back
            # to y (mode "clip": take would copy through a temporary under
            # the default "raise", and perm holds valid indices only)
            other = bufs[1] if y is bufs[0] else bufs[0]
            prod = np.matmul(leaf, segs, out=other.reshape(k, size // s, s, cols))
            prod.reshape(k, size, cols).take(self._perm, axis=1, out=y, mode="clip")
        if self.scale != 1.0:
            y *= self.scale
        trace = None
        if want_trace:
            trace = {"diffs": diffs, "leaf_in": segs, "pruned": pruned}
        return unstack(y), trace

    def backward(self, trace, grad_out):
        """Adjoint pass.

        grad_out carries dL/dRe + j dL/dIm of the output, shaped as the
        output was.  Returns the same carrier for the input (its size/2 rows
        when the traced input had half height) plus gradients for each
        twiddle level (K, half_l) and the leaf (K, s, s), each chain's
        summed over batch and over sibling blocks.
        """
        size = self.size
        g, unstack = self._stacked(grad_out)
        k, _, cols = g.shape
        g = g.take(self._inv_perm, axis=1)
        if self.scale != 1.0:
            g *= self.scale
        s = self.leaf_size
        g_segs = g.reshape(k, size // s, s, cols)
        leaf_grad = np.matmul(g_segs, np.conj(trace["leaf_in"]).transpose(0, 1, 3, 2)).sum(1)
        g = np.matmul(np.conj(self.leaf[:, None]).transpose(0, 1, 3, 2), g_segs)
        g = g.reshape(k, size, cols)
        tw_grads = [None] * self.depth
        pruned = trace["pruned"]
        for lvl in range(self.depth - 1, -1, -1):
            v = g.reshape(k, 1 << lvl, 2, size >> (lvl + 1), cols)
            g_top, g_bot = v[:, :, 0], v[:, :, 1]
            tg = (g_bot * np.conj(trace["diffs"][lvl])).sum(axis=-1)
            tw_grads[lvl] = tg.sum(axis=1)
            rot = np.conj(self.twiddles[lvl][:, None, :, None]) * g_bot
            if not (pruned and lvl == 0):  # the zero half's gradient is dropped
                np.subtract(g_top, rot, out=g_bot)
            np.add(g_top, rot, out=g_top)
        if pruned:
            g = g[:, : size >> 1]
        return unstack(g), tw_grads, leaf_grad

    def dense(self) -> np.ndarray:
        return self.apply(np.eye(self.size, dtype=np.complex128))


def build_recursive_dft_chain(
    size: int,
    depth: int,
    exact: bool = True,
    inverse: bool = False,
    normalized: bool = False,
    rng: np.random.Generator | None = None,
) -> RecursiveDftChain:
    """Construct the recursive factorization of the size-point DFT, one
    chain on a (1, chain_entries(size, depth)) row of values.

    exact=True fills in the true twiddles omega_b**m and a dense DFT leaf so
    the chain reproduces the transform; exact=False draws the random
    training start from rng (_random_start).  normalized=True makes the
    chain equal the unitary DFT: leaves are normalized and the frozen scale
    folds in the remaining 1/sqrt(2**depth).  inverse=True conjugates the
    exact values, giving the factorization of the conjugate DFT.
    """
    values = np.empty((1, chain_entries(size, depth)), np.complex128)
    chain = RecursiveDftChain(size, depth, values, normalized)
    if not exact:
        if rng is None:
            raise ValueError("exact=False draws the chain's values: it needs rng")
        _random_start(values, chain, rng)
        return chain
    size, s = chain.size, chain.leaf_size
    sign = 1.0 if inverse else -1.0
    for lvl, tw in enumerate(chain.twiddles):
        tw[0] = np.exp(sign * 2j * np.pi * np.arange(size >> lvl >> 1) / (size >> lvl))
    kk = np.arange(s)
    chain.leaf[0] = np.exp(sign * 2j * np.pi * np.outer(kk, kk) / s) if s > 1 else 1.0
    if normalized:
        chain.leaf /= math.sqrt(s)
    return chain


def _random_start(rows, chain, rng) -> None:
    """The random training start, written in place: rows, a complex array
    whose columns chain's arrays view, becomes exp(2j*pi*u) for uniform
    draws u in [0, 1) of its shape, then chain's leaf is divided by sqrt(s).
    build_recursive_dft_chain and network.build_network both draw here."""
    np.exp(2j * np.pi * rng.random(rows.shape), out=rows)
    chain.leaf /= math.sqrt(chain.leaf_size)
