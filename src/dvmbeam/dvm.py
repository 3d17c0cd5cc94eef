"""Scaled delay-Vandermonde transforms and their sparse factorizations.

The scaled delay-Vandermonde matrix (DVM) of size N for a unit-modulus
generator alpha has entries alpha**(k*l), k, l = 0..N-1.  A chirp
(Bluestein-style) identity k*l = (k^2 + l^2 - (k-l)^2) / 2 turns it into

    diag(alpha**(k^2/2)) . Toeplitz(alpha**(-(k-l)^2/2)) . diag(alpha**(l^2/2))

and the Toeplitz block embeds in a circulant of size M = 2N, which the DFT
diagonalizes.  The resulting seven-factor chain applies the full transform in
O(N log N) arithmetic.  This module builds that chain, whose fixed DFT
factors run on numpy.fft, and the recursive DFT factorization whose twiddle
diagonals and leaf blocks later become trainable network parameters.

All dense constructions here exist for verification; the apply paths never
materialize an N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import os
import threading

import numpy as np

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
    if abs(phi) * float(np.max(np.abs(x), initial=0.0)) > _TWO_PI * (1 << 20) or \
            float(np.max(np.abs(x), initial=0.0)) > _CIS_EXACT_LIMIT:
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

    n must be a power of two >= 2 and alpha unit modulus; the stored phase
    phi = arg(alpha) is the single source of truth for every fractional
    power, so all factors use one consistent branch.
    """

    n: int
    alpha: complex

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
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
    down, never shared globally.  They are not thread-safe, so a counted
    FactorChain.apply runs on the calling thread alone.
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


def unscaled_dvm_dense(spec: DvmSpec) -> np.ndarray:
    """Dense oracle for the unscaled variant, entries alpha**((k+1)*l)."""
    k = np.arange(spec.n, dtype=np.float64)
    return cis(spec.phi, np.outer(k + 1.0, k))


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
# fixed DFTs on numpy.fft, batched over columns


def _pow2_dft(x, inverse: bool, norm: str, counter: OpCounter | None,
              out: np.ndarray | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    size = x.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"FFT length must be a power of two, got {size}")
    if counter is not None:
        stages = size.bit_length() - 1
        counter.tally(muls=(size >> 1) * stages, adds=size * stages)
    return (np.fft.ifft if inverse else np.fft.fft)(x, axis=0, norm=norm, out=out)


def fft(x, inverse: bool = False, counter: OpCounter | None = None) -> np.ndarray:
    """Unnormalized DFT along axis 0, entries omega**(k*l) with omega = e^{-2pi j/K}.

    Parameters
    ----------
    x : array_like, shape (K,) or (K, B)
        K must be a power of two.  Batches ride along axis 1.
    inverse : bool
        Conjugate transform, entries omega**(-k*l) (still unnormalized;
        divide by K to invert).
    counter : OpCounter, optional
        Incremented by K/2 log2 K muls and K log2 K adds, the closed-form
        count of a power-of-two FFT, so op totals do not depend on the
        library that does the work.
    """
    return _pow2_dft(x, inverse, "forward" if inverse else "backward", counter)


def even_odd_permute(x) -> np.ndarray:
    """Interleave the two halves: [a, b | c, d] -> [a, c, b, d] (axis 0)."""
    x = np.asarray(x)
    size = x.shape[0]
    if size % 2:
        raise ValueError(f"even/odd interleave needs even length, got {size}")
    out = np.empty_like(x)
    out[0::2] = x[: size // 2]
    out[1::2] = x[size // 2 :]
    return out


# ---------------------------------------------------------------------------
# factor chain for the seven-factor scaled-DVM identity


class Diagonal:
    """Elementwise multiply by a fixed complex vector; out=x runs in place."""

    in_place = True

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.complex128)

    def __repr__(self):
        return f"Diagonal({len(self.values)})"

    @property
    def shape(self):
        k = len(self.values)
        return (k, k)

    def apply(self, x, counter=None, out=None):
        if counter is not None:
            counter.tally(muls=len(self.values))
        v = self.values
        return np.multiply(x, v[:, None] if np.ndim(x) == 2 else v, out=out)

    def dense(self):
        return np.diag(self.values)


class Dft:
    """Normalized (unitary) DFT factor, conjugated when conj is set; fft()
    is the raw transform.  out=x runs in place."""

    in_place = True

    def __init__(self, size: int, conj: bool = False):
        self.size = size
        self.conj = conj

    def __repr__(self):
        return f"Dft({self.size}{', conj' if self.conj else ''})"

    @property
    def shape(self):
        return (self.size, self.size)

    def apply(self, x, counter=None, out=None):
        y = _pow2_dft(x, self.conj, "ortho", counter, out)
        if counter is not None:
            counter.tally(muls=self.size)  # the 1/sqrt(size) scaling
        return y

    def dense(self):
        eye = np.eye(self.size, dtype=np.complex128)
        return self.apply(eye)


class ZeroPad:
    """Append zero rows: J x = [x; 0].  The result is a new array in Fortran
    order, so each column (the axis the DFTs run along) is contiguous."""

    in_place = False

    def __init__(self, out_dim: int, in_dim: int):
        if out_dim < in_dim:
            raise ValueError("zero-pad must grow the vector")
        self.out_dim = out_dim
        self.in_dim = in_dim

    def __repr__(self):
        return f"ZeroPad({self.in_dim} -> {self.out_dim})"

    @property
    def shape(self):
        return (self.out_dim, self.in_dim)

    def apply(self, x, counter=None):
        x = np.asarray(x)
        out = np.zeros((self.out_dim,) + x.shape[1:], x.dtype, order="F")
        out[: self.in_dim] = x
        return out

    def dense(self):
        out = np.zeros((self.out_dim, self.in_dim), dtype=np.complex128)
        out[: self.in_dim] = np.eye(self.in_dim)
        return out


class Truncate:
    """Keep the leading rows: J^T x = x[:out_dim], a view of x."""

    in_place = False

    def __init__(self, out_dim: int, in_dim: int):
        if out_dim > in_dim:
            raise ValueError("truncation must shrink the vector")
        self.out_dim = out_dim
        self.in_dim = in_dim

    def __repr__(self):
        return f"Truncate({self.in_dim} -> {self.out_dim})"

    @property
    def shape(self):
        return (self.out_dim, self.in_dim)

    def apply(self, x, counter=None):
        return np.asarray(x)[: self.out_dim]

    def dense(self):
        out = np.zeros((self.out_dim, self.in_dim), dtype=np.complex128)
        out[:, : self.out_dim] = np.eye(self.out_dim)
        return out


@dataclass
class FactorChain:
    """Ordered sparse factors, listed in application order.

    spec is the DVM description the chain realizes; factors[0] touches the
    input first.  dense() exists for verification at small sizes and is the
    only place the product is ever materialized.
    """

    spec: DvmSpec
    factors: list = field(default_factory=list)

    def apply(self, x, counter: OpCounter | None = None) -> np.ndarray:
        """Run the factors on x, a vector or a column batch.

        x is never written.  A factor whose in_place flag is set overwrites
        its input when that input is an array this call allocated and owns
        (ZeroPad's buffer or an earlier factor's result); otherwise it
        returns a new array.  For the Bluestein chain
        that means ZeroPad's (2N, B) buffer is the only 2N-row allocation:
        both DFTs and the middle diagonal run in it, and the last diagonal
        reads the Truncate view and returns a new, compact (N, B) array in
        Fortran order (axis 0 contiguous).

        Uncounted, a run of in-place factors on an owned column batch goes
        through _split_in_place: every column is its own transform, so a large
        batch is cut into column blocks that run on short-lived threads
        (numpy.fft and np.multiply release the interpreter lock), with
        bit-identical output and no extra buffer.  The split needs a buffer
        of at least _SPLIT_MIN_ROWS rows and _SPLIT_MIN_ENTRIES entries; it
        uses at most one block per usable CPU and per column, and at most
        _SPLIT_MAX_BLOCKS blocks.
        """
        y = np.asarray(x, dtype=np.complex128)
        owned = False
        run = []  # in-place factors waiting for the owned buffer y
        for f in self.factors:
            if owned and f.in_place:
                # OpCounter is not thread-safe, and a vector never splits:
                # both run here, without the queue's per-call cost
                if counter is not None or y.ndim == 1:
                    f.apply(y, counter, out=y)
                else:
                    run.append(f)
                continue
            if run:
                _split_in_place(run, y)
                run = []
            y = f.apply(y, counter)
            owned = y.flags.owndata
        if run:
            _split_in_place(run, y)
        return y

    def dense(self) -> np.ndarray:
        in_dim = self.factors[0].shape[1]
        return self.apply(np.eye(in_dim, dtype=np.complex128))


# When a run of in-place factors is split across threads: a (2N, B) buffer
# splits when it has at least _SPLIT_MIN_ROWS rows (N >= 1024) and
# _SPLIT_MIN_ENTRIES entries, into min(usable CPUs, _SPLIT_MAX_BLOCKS, B)
# column blocks.  A thread start plus join costs 170-250 us.  Split (k=2)
# over serial time, medians of 6-10 alternating best-of runs in one process,
# 2-CPU x86 VM (affinity {0, 1}) with other load:
#
#    shape             entries    split / serial
#    N=16,   B=900      28,800    1.6-2.0 (make_dataset 1.05, verify_targets 1.32)
#    N=256,  B=64       32,768    1.55-1.7
#    N=16,   B=3000     96,000    0.90-1.08 (make_dataset 1.02-1.18, verify_targets 1.05-1.10)
#    N=32,   B=3000    192,000    0.80 (make_dataset 0.95, verify_targets 0.87)
#    N=64,   B=3000    384,000    0.93 (make_dataset 0.91, verify_targets 0.96)
#    N=256,  B=3000  1,536,000    make_dataset 0.94, verify_targets 0.75
#    N=1024, B=64      131,072    0.79-0.91; benchmarks/run.py mid_op_ms level
#    N=1024, B=128     262,144    0.67
#    N=2048, B=32/64   131,072 / 262,144    0.74 / 0.70
#    N=4096, B=4/8/16  32,768 / 65,536 / 131,072    1.01 / 0.86 / 0.75
#    N=4096, B=32      262,144    0.70
#    N=4096, B=63/64   516,096 / 524,288    0.65 / 0.67
#    N=8192, B=64    1,048,576    0.79
#
# Buffer size alone does not decide it (131,072 entries read 0.79-1.38 over
# N=16..4096), and below 2048 rows a gain was small, unsteady or lost in the
# rest of a dataset build, so those stay serial.  k above 2 has not been
# measured (the machine above has two CPUs), so no apply uses more blocks.
# The affinity set does not show a CPU quota: two blocks forced onto one CPU
# read 1.02 at N=4096, B=64 and 1.08-1.14 at 262,144 entries.
_SPLIT_MIN_ROWS = 2048
_SPLIT_MIN_ENTRIES = 1 << 18
_SPLIT_MAX_BLOCKS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply_in_place(factors, y) -> None:
    for f in factors:
        f.apply(y, out=y)


def _split_in_place(factors, y) -> None:
    """Run in-place factors over the column batch y, as k column blocks on
    k threads.

    The calling thread takes the first block and k - 1 threads the others;
    every thread has joined before this returns or raises, and an exception
    from a worker is re-raised here.
    """
    k = 1
    if y.shape[0] >= _SPLIT_MIN_ROWS and y.size >= _SPLIT_MIN_ENTRIES:
        k = min(_usable_cpus(), _SPLIT_MAX_BLOCKS, y.shape[1])
    if k == 1:
        _apply_in_place(factors, y)
        return
    blocks = np.array_split(y, k, axis=1)  # views into y
    errors = []

    def work(block):
        try:
            _apply_in_place(factors, block)
        except Exception as e:  # re-raised by the caller after the join
            errors.append(e)

    threads = []
    try:
        for block in blocks[1:]:
            t = threading.Thread(target=work, args=(block,))
            t.start()
            threads.append(t)
        _apply_in_place(factors, blocks[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def build_bluestein_chain(spec: DvmSpec) -> FactorChain:
    """Seven-factor chirp factorization of the scaled DVM.

    Application order: diag(alpha^(k^2/2)), zero-pad N -> 2N, normalized DFT,
    diag of the raw DFT of the chirp circulant column, conjugate normalized
    DFT, truncate 2N -> N, diag(alpha^(k^2/2)) again.  The composition equals
    alpha**(k*l) to a few ulp per entry.
    """
    n, m = spec.n, spec.m
    k = np.arange(n, dtype=np.float64)
    d_hat = cis(spec.phi, 0.5 * k * k)
    d_breve = fft(circulant_first_column(spec))
    return FactorChain(
        spec=spec,
        factors=[
            Diagonal(d_hat),
            ZeroPad(m, n),
            Dft(m),
            Diagonal(d_breve),
            Dft(m, conj=True),
            Truncate(n, m),
            Diagonal(d_hat),
        ],
    )


def fast_dvm_apply(chain: FactorChain, x, counter: OpCounter | None = None) -> np.ndarray:
    """Apply the factored scaled DVM to a vector (N,) or column batch (N, B).

    x is never written.  The result is a new array; a 2-D one is in Fortran
    order (axis 0 contiguous).  FactorChain.apply says which factors run in
    place.  An uncounted batch of at least 2 columns with N >= 1024 whose
    (2N, B) buffer holds 2**18 entries or more (N=2048 at B=64, N=4096 at
    B=32) runs its DFTs and middle diagonal as column blocks on two threads
    when the process may use two CPUs; the output is bit-identical to the
    serial apply, and no thread outlives the call.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a vector (N,) or a column batch (N, B), got shape {x.shape}")
    if x.shape[0] != chain.spec.n:
        raise ValueError(f"expected leading dimension {chain.spec.n}, got {x.shape[0]}")
    return chain.apply(x, counter)


def scaled_dvm_apply(spec: DvmSpec, x, counter: OpCounter | None = None) -> np.ndarray:
    """Convenience wrapper: build the chain for spec and apply it."""
    return fast_dvm_apply(build_bluestein_chain(spec), x, counter)


# ---------------------------------------------------------------------------
# recursive DFT factorization (the trainable block structure)


# (size, depth) -> (perm, inverse perm); filled on first use, read-only
_INTERLEAVE_CACHE: dict = {}


def _interleave_index(size: int, depth: int):
    """Row order that undoes depth levels of even/odd splitting.

    Going bottom-up, level l interleaves the two halves of each block of
    size >> l; the composition is one gather, out = y[perm], and its adjoint
    is g[inv_perm].
    """
    key = (size, depth)
    hit = _INTERLEAVE_CACHE.get(key)
    if hit is None:
        perm = np.arange(size)
        for lvl in range(depth - 1, -1, -1):
            perm = even_odd_permute(perm.reshape(1 << lvl, size >> lvl).T).T.reshape(size)
        inv = np.argsort(perm)
        perm.flags.writeable = inv.flags.writeable = False
        hit = _INTERLEAVE_CACHE[key] = (perm, inv)
    return hit


class RecursiveDftChain:
    """DFT of a power-of-two size as depth butterfly levels plus leaf blocks.

    Level l splits each block [u; v] into [u + v; D(u - v)] where D is one
    twiddle diagonal of half the block length; after depth levels the
    remaining segments of length size/2**depth are hit with a dense leaf
    matrix, and the even/odd interleavings are undone bottom-up.  With exact
    twiddles and an exact DFT leaf the chain reproduces the DFT; with free
    values the same wiring is what the network trains.

    Sibling blocks share their level's diagonal, as the FFT's do:
    twiddles[l] has shape (1, half_l) and leaf (1, s, s), one leaf matrix for
    every segment.  scale is a frozen real normalization.

    An input of half height, size/2 rows, stands for [u; 0]: the chain
    returns the transform of the zero-padded vector without building the
    pad.  Level 0 of [u; 0] is top = u, bottom = tw0 * u (FFT input pruning,
    Sorensen & Burrus 1993), and backward() returns the gradient of u alone,
    g_top + conj(tw0) * g_bot.  Both equal a run on the padded input bit for
    bit.
    """

    def __init__(self, size, depth, twiddles, leaf, scale=1.0):
        if size < 1 or size & (size - 1):
            raise ValueError(f"chain size must be a power of two, got {size}")
        if not 0 <= depth <= size.bit_length() - 1:
            raise ValueError(
                f"depth {depth} leaves no leaf: need 0 <= depth <= log2({size})"
            )
        self.size = size
        self.depth = depth
        # a complex128 array is kept as is, so a view into a parameter buffer
        # stays one
        self.twiddles = [np.asarray(t, dtype=np.complex128) for t in twiddles]
        self.leaf = np.asarray(leaf, dtype=np.complex128)
        self.scale = float(scale)
        for lvl, t in enumerate(self.twiddles):
            if t.shape != (1, (size >> lvl) >> 1):
                raise ValueError(f"twiddle level {lvl} has shape {t.shape}")
        s = size >> depth
        if self.leaf.shape != (1, s, s):
            raise ValueError(f"leaf has shape {self.leaf.shape}, wanted (1,{s},{s})")
        self._perm, self._inv_perm = _interleave_index(size, depth)

    @property
    def leaf_size(self) -> int:
        return self.size >> self.depth

    def param_arrays(self):
        """Trainable arrays in declaration order: twiddle levels, then leaf."""
        return self.twiddles + [self.leaf]

    def apply(self, x, counter: OpCounter | None = None) -> np.ndarray:
        y, _ = self._run(x, counter=counter, want_trace=False)
        return y

    def apply_trace(self, x):
        """Forward pass keeping the intermediates backward() needs."""
        return self._run(x, counter=None, want_trace=True)

    def _run(self, x, counter, want_trace):
        x = np.asarray(x, dtype=np.complex128)
        flat = x.ndim == 1
        if flat:
            x = x[:, None]
        size = self.size
        rows, cols = x.shape
        pruned = 2 * rows == size  # x stands for [x; 0]
        if rows != size and not pruned:
            raise ValueError(
                f"expected leading dimension {size} (or {size >> 1} for a "
                f"zero-padded input), got {rows}"
            )
        diffs = [] if want_trace else None
        # Every level reads one buffer and writes the other, so level 0 reads
        # the input where it lies (no copy) and u - v needs no scratch array.
        bufs = [np.empty((size, cols), dtype=np.complex128) for _ in range(2)]
        y, first = x, 0
        if pruned:
            y = bufs[0]
            if self.depth == 0:
                y[:rows] = x
                y[rows:] = 0.0
            else:
                # level 0 of [x; 0]: top x + 0, bottom (x - 0) * tw0; adding
                # the zero rather than copying turns -0.0 into +0.0 as the
                # pad does
                np.add(x, 0.0, out=y[:rows])
                np.multiply(x, self.twiddles[0][0][:, None], out=y[rows:])
                if want_trace:
                    diffs.append(x.copy()[None])
                if counter is not None:
                    counter.tally(muls=rows)
                first = 1
        for lvl in range(first, self.depth):
            block = size >> lvl
            half = block >> 1
            dst = bufs[1] if y is bufs[0] else bufs[0]
            v = y.reshape(1 << lvl, block, cols)
            w = dst.reshape(1 << lvl, block, cols)
            top, bot = v[:, :half], v[:, half:]
            d = np.subtract(top, bot, out=None if want_trace else w[:, half:])
            if want_trace:
                diffs.append(d)
            np.add(top, bot, out=w[:, :half])
            np.multiply(d, self.twiddles[lvl][:, :, None], out=w[:, half:])
            y = dst
            if counter is not None:
                counter.tally(muls=half << lvl, adds=size)
        if y is x:  # no level ran: the leaf reads, and a trace keeps, a copy
            y = bufs[0]
            y[...] = x
        s = self.leaf_size
        segs = y.reshape(size // s, s, cols)  # kept by the trace: y is not written again
        if counter is not None:
            counter.tally(muls=(size // s) * s * s, adds=(size // s) * s * (s - 1))
        if want_trace:
            y = np.matmul(self.leaf, segs).reshape(size, cols)[self._perm]
        else:
            # the leaf product goes to the other buffer, its permutation back
            # to y (mode "clip": take would copy through a temporary under
            # the default "raise", and perm holds valid indices only)
            other = bufs[1] if y is bufs[0] else bufs[0]
            prod = np.matmul(self.leaf, segs, out=other.reshape(size // s, s, cols))
            np.take(prod.reshape(size, cols), self._perm, axis=0, out=y, mode="clip")
        if self.scale != 1.0:
            y *= self.scale
            if counter is not None:
                counter.tally(muls=size)
        trace = None
        if want_trace:
            trace = {"diffs": diffs, "leaf_in": segs, "pruned": pruned}
        return (y[:, 0] if flat else y), trace

    def backward(self, trace, grad_out):
        """Adjoint pass.

        grad_out carries dL/dRe + j dL/dIm of the output.  Returns the same
        carrier for the input (its size/2 rows when the traced input had
        half height) plus gradients for each twiddle level and the leaf,
        summed over batch and over sibling blocks.
        """
        size = self.size
        g = np.asarray(grad_out, dtype=np.complex128)
        flat = g.ndim == 1
        if flat:
            g = g[:, None]
        cols = g.shape[1]
        g = g[self._inv_perm]
        if self.scale != 1.0:
            g *= self.scale
        s = self.leaf_size
        g_segs = g.reshape(size // s, s, cols)
        leaf_grad = np.matmul(g_segs, np.conj(trace["leaf_in"]).transpose(0, 2, 1))
        leaf_grad = leaf_grad.sum(axis=0, keepdims=True)
        g = np.matmul(np.conj(self.leaf).transpose(0, 2, 1), g_segs).reshape(size, cols)
        tw_grads = [None] * self.depth
        pruned = trace["pruned"]
        for lvl in range(self.depth - 1, -1, -1):
            block = size >> lvl
            half = block >> 1
            v = g.reshape(1 << lvl, block, cols)
            g_top, g_bot = v[:, :half], v[:, half:]
            tg = (g_bot * np.conj(trace["diffs"][lvl])).sum(axis=-1)
            tw_grads[lvl] = tg.sum(axis=0, keepdims=True)
            rot = np.conj(self.twiddles[lvl][:, :, None]) * g_bot
            if not (pruned and lvl == 0):  # the zero half's gradient is dropped
                np.subtract(g_top, rot, out=g_bot)
            np.add(g_top, rot, out=g_top)
        if pruned:
            g = g[: size >> 1]
        return (g[:, 0] if flat else g), tw_grads, leaf_grad

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
    """Construct the recursive factorization of the size-point DFT.

    exact=True fills in the true twiddles omega_b**m and a dense DFT leaf so
    the chain reproduces the transform; exact=False draws unit-modulus random
    twiddles and 1/sqrt(s)-scaled random leaf entries as a training start.
    normalized=True makes the chain equal the unitary DFT: leaves are
    normalized and the frozen scale field folds in the remaining
    1/sqrt(2**depth).  inverse=True conjugates the exact values, giving the
    factorization of the conjugate DFT.
    """
    if size < 1 or size & (size - 1):
        raise ValueError(f"chain size must be a power of two, got {size}")
    if depth > size.bit_length() - 1:
        raise ValueError(f"depth {depth} exceeds log2({size})")
    s = size >> depth
    sign = 1.0 if inverse else -1.0
    twiddles = []
    for lvl in range(depth):
        block = size >> lvl
        half = block >> 1
        if exact:
            tw = np.exp(sign * 2j * np.pi * np.arange(half)[None] / block)
        else:
            tw = np.exp(2j * np.pi * rng.random((1, half)))
        twiddles.append(tw)
    if exact:
        kk = np.arange(s)
        leaf_mat = np.exp(sign * 2j * np.pi * np.outer(kk, kk) / s) if s > 1 else np.ones((1, 1))
        if normalized:
            leaf_mat = leaf_mat / math.sqrt(s)
        leaf = leaf_mat[None]
    else:
        leaf = np.exp(2j * np.pi * rng.random((1, s, s))) / math.sqrt(s)
    scale = (2.0 ** (-depth / 2.0)) if normalized else 1.0
    return RecursiveDftChain(size, depth, twiddles, leaf, scale=scale)
