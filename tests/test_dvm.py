"""Transform-layer tests: dense oracles, the chirp factor chain, the fixed DFT
factors, and the recursive butterfly factorization.

Every fast path is checked against an independently built dense matrix, never
against itself.
"""

import dataclasses
import functools
import math
import re
import threading
import types
import tracemalloc
import warnings

import numpy as np
import pytest

from dvmbeam import dvm
from dvmbeam.dvm import (
    Dft,
    Diagonal,
    DvmSpec,
    FactorChain,
    OpCounter,
    Truncate,
    ZeroPad,
    build_bluestein_chain,
    build_recursive_dft_chain,
    circulant_first_column,
    cis,
    fast_dvm_apply,
    scaled_dvm_dense,
)


def random_unit(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def dense_dft(size, inverse=False):
    # textbook O(K^2) construction, the independent oracle for the Dft factors
    sign = 1.0 if inverse else -1.0
    k = np.arange(size)
    return np.exp(sign * 2j * np.pi * np.outer(k, k) / size)


# ---------------------------------------------------------------------------
# dense oracles


def test_scaled_dense_frozen_n2():
    a = scaled_dvm_dense(DvmSpec(2, -1j))
    want = np.array([[1, 1], [1, -1j]], dtype=complex)
    assert np.max(np.abs(a - want)) <= 1e-15


def test_scaled_dense_first_row_and_column_are_ones():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 32, 128):
        a = scaled_dvm_dense(DvmSpec(n, random_unit(rng)))
        assert np.max(np.abs(a[0] - 1.0)) <= 1e-15
        assert np.max(np.abs(a[:, 0] - 1.0)) <= 1e-15


def test_scaled_dense_alpha_one_is_all_ones():
    a = scaled_dvm_dense(DvmSpec(4, 1.0 + 0.0j))
    assert np.max(np.abs(a - 1.0)) <= 1e-15


def test_scaled_dense_symmetric_exactly():
    rng = np.random.default_rng(12)
    for n in (2, 8, 64):
        a = scaled_dvm_dense(DvmSpec(n, random_unit(rng)))
        assert np.array_equal(a, a.T)


def test_scaled_dense_entries_unit_modulus():
    rng = np.random.default_rng(13)
    for n in (4, 16, 256):
        a = scaled_dvm_dense(DvmSpec(n, random_unit(rng)))
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DvmSpec(3, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        DvmSpec(0, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        DvmSpec(4, 1.1 + 0.0j)
    # n is an integer: a float, a string or a bool is refused with the same
    # error, naming n
    for n in (16.0, "16", None, True, 2.5, np.float64(16)):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            DvmSpec(n, 1.0 + 0.0j)
    for n in (np.int64(16), np.uint8(16)):
        spec = DvmSpec(n, 1.0 + 0.0j)
        assert spec.n == 16 and type(spec.n) is int


@pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0)])
def test_spec_rejects_non_finite_alpha(alpha):
    # NaN fails every comparison, so the unit-modulus check is written as
    # "reject unless within the tolerance"
    with pytest.raises(ValueError, match="unit modulus"):
        DvmSpec(4, alpha)


# ---------------------------------------------------------------------------
# compensated phase helper


def test_cis_matches_high_precision_oracle():
    """Half-integer exponents up to ~2^20 against 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(40):
        phi = float(rng.uniform(-np.pi, np.pi))
        x = float(rng.integers(0, 1 << 21)) / 2.0
        got = complex(cis(phi, x))
        ref = mpmath.expjm = mpmath.exp(1j * mpmath.mpf(phi) * mpmath.mpf(x))
        err = abs(got - complex(ref))
        worst = max(worst, err)
    assert worst <= 2e-15


def test_cis_vectorized_matches_scalar():
    xs = np.array([0.0, 0.5, 3.0, 4.5, 100.0])
    got = cis(-1.234, xs)
    for i, x in enumerate(xs):
        assert abs(got[i] - complex(cis(-1.234, x))) == 0.0


# ---------------------------------------------------------------------------
# circulant column


def test_circulant_column_alpha_one():
    c = circulant_first_column(DvmSpec(2, 1.0 + 0.0j))
    assert np.max(np.abs(c - 1.0)) <= 1e-15


def test_circulant_column_n2_general_alpha():
    spec = DvmSpec(2, complex(np.exp(-0.37j)))
    c = circulant_first_column(spec)
    half = complex(cis(spec.phi, -0.5))
    want = np.array([1.0, half, 1.0, half])
    assert np.max(np.abs(c - want)) <= 1e-15


def test_circulant_column_index_symmetry():
    rng = np.random.default_rng(17)
    for n in (2, 8, 32):
        c = circulant_first_column(DvmSpec(n, random_unit(rng)))
        for m in range(1, n):
            assert c[m] == c[2 * n - m]


# ---------------------------------------------------------------------------
# chirp factor chain


def test_chain_frozen_n2():
    got = build_bluestein_chain(DvmSpec(2, -1j)).dense()
    want = np.array([[1, 1], [1, -1j]], dtype=complex)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_chain_alpha_one_n2():
    got = build_bluestein_chain(DvmSpec(2, 1.0 + 0.0j)).dense()
    assert np.max(np.abs(got - 1.0)) <= 1e-12


def test_chain_24ghz_n256():
    # the acquisition-grade configuration: f = 24 GHz, tau = 1/(32 GHz * 256)
    n = 256
    alpha = complex(cis(-2 * np.pi * 24e9 / (32e9 * n), 1.0))
    spec = DvmSpec(n, alpha)
    dense = scaled_dvm_dense(spec)
    got = build_bluestein_chain(spec).dense()
    rel = np.linalg.norm(got - dense) / np.linalg.norm(dense)
    assert rel <= 1e-10


def test_factorization_identity_sweep():
    """Chain composition vs direct exponentiation, several alpha per size.

    The wide version (N up to 1024, 20 alpha each) runs in the acceptance
    module; this one covers the sizes used by the trainable networks.
    """
    rng = np.random.default_rng(18)
    for n in (2, 4, 8, 16, 32, 64):
        for _ in range(5):
            spec = DvmSpec(n, random_unit(rng))
            dense = scaled_dvm_dense(spec)
            got = build_bluestein_chain(spec).dense()
            rel = np.linalg.norm(got - dense) / np.linalg.norm(dense)
            assert rel <= 1e-10, f"n={n} alpha={spec.alpha}"


@pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
def test_chain_is_built_from_its_spec(n):
    # the middle diagonal is public numpy's raw DFT of the circulant column
    # bit for bit, and the first and last factor are one Diagonal
    spec = DvmSpec(n, random_unit(np.random.default_rng(n)))
    chain = build_bluestein_chain(spec)
    assert chain.spec is spec
    assert [f.__class__ for f in chain.factors] == [
        Diagonal, ZeroPad, Dft, Diagonal, Dft, Truncate, Diagonal]
    assert chain.factors[0] is chain.factors[6]
    k = np.arange(n, dtype=np.float64)
    assert chain.factors[0].values.tobytes() == cis(spec.phi, 0.5 * k * k).tobytes()
    want = np.fft.fft(circulant_first_column(spec))
    assert chain.factors[3].values.tobytes() == want.tobytes()
    assert [f.conj for f in chain.factors[2:5:2]] == [False, True]


def test_chain_takes_its_spec_alone():
    # the factors are built from the spec, never handed in
    assert [f.name for f in dataclasses.fields(FactorChain) if f.init] == ["spec"]
    with pytest.raises(TypeError):
        FactorChain(DvmSpec(16, 1j), ())


def test_middle_block_is_chirp_toeplitz():
    """J^T F* D F J alone must equal alpha^(-(k-l)^2/2)."""
    rng = np.random.default_rng(19)
    for n in (2, 8, 16):
        spec = DvmSpec(n, random_unit(rng))
        y = np.eye(n, dtype=np.complex128)
        for f in build_bluestein_chain(spec).factors[1:6]:
            y = f.apply(y)
        k = np.arange(n, dtype=float)
        want = cis(spec.phi, -0.5 * (k[:, None] - k[None, :]) ** 2)
        assert np.max(np.abs(y - want)) <= 1e-10


def test_fast_apply_basis_vector_gives_first_column():
    rng = np.random.default_rng(20)
    for n in (2, 16, 64):
        chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
        e0 = np.zeros(n, dtype=complex)
        e0[0] = 1.0
        y = fast_dvm_apply(chain, e0)
        assert np.max(np.abs(y - 1.0)) <= 1e-10


def test_fast_apply_frozen_n2():
    chain = build_bluestein_chain(DvmSpec(2, -1j))
    y = fast_dvm_apply(chain, np.array([1.0, 1.0]))
    assert np.max(np.abs(y - np.array([2.0, 1.0 - 1.0j]))) <= 1e-12


def test_fast_apply_equals_dense_multiply():
    rng = np.random.default_rng(21)
    for n in (4, 8, 16, 32):
        spec = DvmSpec(n, random_unit(rng))
        chain = build_bluestein_chain(spec)
        dense = scaled_dvm_dense(spec)
        for _ in range(100):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = fast_dvm_apply(chain, x)
            want = dense @ x
            assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-10


def test_fast_apply_batched_matches_loop():
    rng = np.random.default_rng(22)
    spec = DvmSpec(16, random_unit(rng))
    chain = build_bluestein_chain(spec)
    xb = rng.normal(size=(16, 7)) + 1j * rng.normal(size=(16, 7))
    got = fast_dvm_apply(chain, xb)
    for j in range(7):
        assert np.allclose(got[:, j], fast_dvm_apply(chain, xb[:, j]), atol=1e-12)


def test_fast_apply_dimension_mismatch():
    # the chain and every factor: without the check a Dft would take any
    # length (a 16-point DFT, 8 rows kept of 8) and a one-row input would
    # broadcast through a Diagonal or a ZeroPad
    chain = build_bluestein_chain(DvmSpec(4, 1j))
    for apply, x, rows in [(functools.partial(fast_dvm_apply, chain), np.ones(5), 4),
                           (Dft(32).apply, np.ones(16), 32),
                           (Dft(32, conj=True).apply, np.ones((16, 3)), 32),
                           (Truncate(16, 32).apply, np.ones(8), 32),
                           (Truncate(16, 32).apply, np.ones((8, 3)), 32),
                           (Diagonal(np.ones(16)).apply, np.ones(1), 16),
                           (Diagonal(np.ones(16)).apply, np.ones((1, 3)), 16),
                           (ZeroPad(32, 16).apply, np.ones(1), 16)]:
        with pytest.raises(ValueError, match=f"expected leading dimension {rows}, got {len(x)}$"):
            apply(x)


@pytest.mark.parametrize("x", [np.array(1.0 + 0.0j), np.ones((4, 2, 4), dtype=complex)],
                         ids=["0d", "n_a_n"])
def test_fast_apply_rejects_other_ranks(x):
    # an (N, a, N) input used to pass the first diagonal by broadcasting
    chain = build_bluestein_chain(DvmSpec(4, 1j))
    with pytest.raises(ValueError, match=re.escape(f"got shape {x.shape}")):
        fast_dvm_apply(chain, x)


def composed_apply(chain, x, counter=None):
    """The chain as plain factor-by-factor composition, each result a new
    C-ordered array: the layout-independent reference for FactorChain.apply."""
    y = np.asarray(x, dtype=np.complex128)
    for f in chain.factors:
        if counter is not None:
            f.tally(counter)
        y = np.ascontiguousarray(f.apply(y))
    return y


def spy_threads(monkeypatch, cpus, force=True):
    """Make dvm see cpus usable CPUs (FactorChain.apply's split and
    _on_threads read them); with force, also let FactorChain.apply split any
    chain that can split into up to cpus blocks.  Returns the list of
    threads started from then on."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(dvm.threading, "Thread", Spy)
    monkeypatch.setattr(dvm, "_usable_cpus", lambda: cpus)
    if force:
        monkeypatch.setattr(dvm, "_SPLIT_MIN_ENTRIES", 1)
        monkeypatch.setattr(dvm, "_SPLIT_MAX_BLOCKS", cpus)
    return started


@pytest.mark.parametrize("n", [2, 4, 16, 64, 1024, 4096])
def test_chain_apply_equals_factor_composition_bitwise(n):
    rng = np.random.default_rng(n)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    inputs = []
    for shape in ((n,), (n, 1), (n, 3), (n, 64)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        inputs += [np.ascontiguousarray(x), np.asfortranarray(x)]
    inputs += [rng.normal(size=(n, 3)), rng.integers(-5, 5, size=(n, 3))]
    for x in inputs:
        counted, composed = OpCounter(), OpCounter()
        got = fast_dvm_apply(chain, x, counted)
        assert got.shape == x.shape and got.dtype == np.complex128
        assert np.array_equal(got, composed_apply(chain, x, composed))
        assert (counted.muls, counted.adds) == (composed.muls, composed.adds)


@pytest.mark.parametrize("order", ["C", "F"])
def test_chain_apply_never_writes_its_input(order):
    rng = np.random.default_rng(24)
    chain = build_bluestein_chain(DvmSpec(64, random_unit(rng)))
    for shape in ((64,), (64, 5)):
        x = np.array(rng.normal(size=shape) + 1j * rng.normal(size=shape), order=order)
        keep = x.copy()
        x.flags.writeable = False
        got = fast_dvm_apply(chain, x)
        assert np.array_equal(x, keep)
        assert np.array_equal(got, composed_apply(chain, keep))


def test_chain_apply_returns_a_compact_array(monkeypatch):
    # the last diagonal reads the Truncate view but must not return a view
    # of the 2N-row work buffer, also when that buffer was split
    rng = np.random.default_rng(25)
    chain = build_bluestein_chain(DvmSpec(32, random_unit(rng)))
    for cpus in (1, 3):
        spy_threads(monkeypatch, cpus)
        for shape in ((32,), (32, 1), (32, 6)):
            y = fast_dvm_apply(chain, rng.normal(size=shape) + 0j)
            assert y.base is None and y.shape == shape and y.flags.f_contiguous


def test_chain_apply_memory_budget(monkeypatch):
    # only the (2N, B) pad buffer has 2N rows: the first diagonal writes
    # into it through row tiles, and the DFTs and the middle diagonal run in
    # it, also when the chain's column blocks run on two threads (N=1024 and
    # N=4096 both split at batch 64)
    b = 64
    rng = np.random.default_rng(26)
    for n in (1024, 4096):
        chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
        x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
        for cpus in (1, 2):
            started = spy_threads(monkeypatch, cpus, force=False)
            fast_dvm_apply(chain, x)  # numpy.fft plans are cached on first use
            tracemalloc.start()
            try:
                fast_dvm_apply(chain, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * n * b * 16, (n, cpus, peak / (n * b * 16))
            assert len(started) == 2 * (cpus - 1)


# ---------------------------------------------------------------------------
# the kernel's bytes and tallies on the benchmark's shapes


# the ten benchmarks/run.py transform_sweep shapes (batch 1 is a vector
# there), plus a partial last row tile (B=63) and a wide batch (B=1001)
@pytest.mark.parametrize("n, b", [(n, b) for n in (16, 64, 256, 1024, 4096) for b in (1, 64)]
                         + [(4096, 63), (1024, 1001)])
def test_sweep_shapes_equal_factor_composition_bytes_and_tallies(n, b):
    rng = np.random.default_rng(n * b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    shapes = ((n,), (n, 1)) if b == 1 else ((n, b),)
    for shape in shapes:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want, composed = None, OpCounter()
        for order_x in (np.ascontiguousarray(x), np.asfortranarray(x)):
            counted = OpCounter()
            got = fast_dvm_apply(chain, order_x, counted)
            if want is None:
                want = composed_apply(chain, x, composed)
            assert got.tobytes(order="A") == np.asfortranarray(want).tobytes(order="A")
            assert (counted.muls, counted.adds) == (composed.muls, composed.adds)


@pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
def test_vector_apply_equals_factor_composition_bytes_and_tallies(n):
    # FactorChain.apply runs a vector's kernel inline: every input kind
    # np.asarray may hand it, a strided view and a read-only array included
    rng = np.random.default_rng(n + 7)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    longer = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    read_only = rng.normal(size=n) + 1j * rng.normal(size=n)
    read_only.flags.writeable = False
    inputs = {"complex": longer[:n].copy(), "float64": rng.normal(size=n),
              "int64": rng.integers(-5, 5, size=n), "strided": longer[::2],
              "read_only": read_only}
    for kind, x in inputs.items():
        keep = x.copy()
        counted, composed = OpCounter(), OpCounter()
        got = fast_dvm_apply(chain, x, counted)
        assert got.shape == (n,) and got.dtype == np.complex128, kind
        assert got.tobytes() == composed_apply(chain, x, composed).tobytes(), kind
        assert (counted.muls, counted.adds) == (composed.muls, composed.adds), kind
        assert x.tobytes() == keep.tobytes(), kind


def test_chain_is_frozen_and_reads_its_factor_values_on_every_apply():
    # n, m and the DFT factor are fixed when the chain is built; the
    # diagonals' values are not, so an in-place edit shows in the next apply
    # (doubling a diagonal doubles the result exactly; the first and last
    # factor are one Diagonal, so doubling it quadruples the result)
    rng = np.random.default_rng(29)
    chain = build_bluestein_chain(DvmSpec(16, random_unit(rng)))
    assert (chain.n, chain.m, chain.scale) == (16, 32, dvm._ortho_scale(32))
    assert type(chain.scale) is float
    # the kernel's gufunc calls take the factor as a read-only 0-d array
    factor = chain.scale_0d
    assert factor.shape == () and factor.dtype == np.float64 and factor == chain.scale
    with pytest.raises(ValueError, match="read-only"):
        factor[()] = 1.0
    for name, value in (("n", 32), ("m", 64), ("scale", 1.0), ("scale_0d", np.array(1.0)),
                        ("factors", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain, name, value)
    for shape in ((16,), (16, 3)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = fast_dvm_apply(chain, x)
        for i in (0, 3, 6):
            values = chain.factors[i].values
            gain = 2 ** sum(chain.factors[j].values is values for j in (0, 3, 6))
            values *= 2
            try:
                got = fast_dvm_apply(chain, x)
                assert np.array_equal(got, gain * before), (shape, i)
                assert np.array_equal(got, composed_apply(chain, x)), (shape, i)
            finally:
                values /= 2
        assert np.array_equal(fast_dvm_apply(chain, x), before)


# ---------------------------------------------------------------------------
# the chain split over column blocks on threads


def spy_kernel(monkeypatch):
    """Record (thread, columns of its pad block) for every kernel call."""
    calls = []
    kernel = dvm._bluestein

    def spy(d_in, d_mid, d_out, scale, x, pad, out):
        calls.append((threading.current_thread(), pad.shape[1]))
        return kernel(d_in, d_mid, d_out, scale, x, pad, out)

    monkeypatch.setattr(dvm, "_bluestein", spy)
    return calls


# every N with every width but N=4096, B=1001, whose buffers take about 400 MB;
# B=63 and B=1001 leave a partial last row tile in the first diagonal; and
# the 3000-sample n=64 dataset build and the narrowest n=16 batch that the
# rule splits
@pytest.mark.parametrize("n, b", [(n, b) for n in (16, 256, 1024, 4096)
                                  for b in (2, 3, 63, 64, 1001) if n * b <= 1 << 20]
                         + [(64, 3000), (16, 4096)])
def test_split_apply_equals_serial_bytes(monkeypatch, n, b):
    rng = np.random.default_rng(n + b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
    on_one_cpu = spy_threads(monkeypatch, 1, force=False)  # the reference runs serial
    serial = fast_dvm_apply(chain, x)
    assert on_one_cpu == []
    # and is the public numpy.fft composition's bytes, so the split is too
    assert serial.tobytes(order="A") == np.asfortranarray(composed_apply(chain, x)).tobytes(order="A")
    # the rule itself on two CPUs: two blocks from 2**17 pad entries
    by_rule = spy_threads(monkeypatch, 2, force=False)
    for order_x in (np.ascontiguousarray(x), np.asfortranarray(x)):
        assert fast_dvm_apply(chain, order_x).tobytes(order="A") == serial.tobytes(order="A")
    assert len(by_rule) == (2 if 2 * n * b >= 1 << 17 else 0)
    calls = spy_kernel(monkeypatch)
    for k in (2, 3):
        started = spy_threads(monkeypatch, k)
        for order_x in (np.ascontiguousarray(x), np.asfortranarray(x)):
            calls.clear()
            got = fast_dvm_apply(chain, order_x)
            assert got.tobytes(order="A") == serial.tobytes(order="A")
            assert got.flags.f_contiguous and got.base is None
            # one kernel call per block, each on its own thread (the calling
            # one and started workers), together covering every column
            threads = [t for t, _ in calls]
            assert len(set(threads)) == len(threads) == min(k, b)
            assert set(threads) - set(started) == {threading.current_thread()}
            assert sum(cols for _, cols in calls) == b
        assert len(started) == 2 * (min(k, b) - 1)


def test_counted_apply_splits_and_tallies_once(monkeypatch):
    # the tally is the factors' closed-form totals, taken on the calling
    # thread, so a counted batch splits like an uncounted one
    rng = np.random.default_rng(28)
    chain = build_bluestein_chain(DvmSpec(256, random_unit(rng)))
    x = rng.normal(size=(256, 64)) + 1j * rng.normal(size=(256, 64))
    started = spy_threads(monkeypatch, 3)
    counted, composed = OpCounter(), OpCounter()
    got = fast_dvm_apply(chain, x, counted)
    assert len(started) == 2
    assert np.array_equal(got, composed_apply(chain, x, composed))
    assert (counted.muls, counted.adds) == (composed.muls, composed.adds)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [16, 4096])
@pytest.mark.parametrize("b", [0, 1])
def test_zero_and_one_column_batches(monkeypatch, n, b, order):
    # b = 0 is the batch of a dataset without angles; the row tile size
    # depends on b, and neither width may start a thread
    started = spy_threads(monkeypatch, 3)
    rng = np.random.default_rng(n + b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    x = np.array(rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b)), order=order)
    got = fast_dvm_apply(chain, x)
    assert got.shape == (n, b) and got.dtype == np.complex128
    assert got.flags.f_contiguous and got.base is None
    assert np.array_equal(got, composed_apply(chain, x))
    assert started == []


# (N, B, worker threads) on a machine with 8 usable CPUs; B None is a vector
@pytest.mark.parametrize("n, b, workers", [
    (16, 3000, 0), (64, 3000, 1), (1024, 64, 1), (4096, 16, 1), (4096, 1, 0),
    (1024, 128, 1), (2048, 64, 1), (4096, 32, 1), (4096, 64, 1),
    # either side of 2**17 pad entries
    (16, 4095, 0), (16, 4096, 1), (64, 1023, 0), (64, 1024, 1),
    (1024, 63, 0), (2048, 31, 0), (2048, 32, 1), (4096, 15, 0),
    # serial shapes of the benchmark's workloads and the CLI: the n=16 sets
    # of 900 and 3000 samples, and snapshots one at a time
    (16, 900, 0), (16, 64, 0), (1 << 16, None, 0),
])
def test_split_needs_long_columns_and_a_large_buffer(monkeypatch, n, b, workers):
    # 2**17 pad entries, whatever N; never more than two blocks
    started = spy_threads(monkeypatch, 8, force=False)
    x = np.ones((n,) if b is None else (n, b), dtype=complex)
    fast_dvm_apply(build_bluestein_chain(DvmSpec(n, 1j)), x)
    assert len(started) == workers


# the narrowest split batch at N=16, N=64 and N=256, and the split benchmark
# shape N=1024, B=64: each a pad buffer of 2**17 to 2**18 entries
@pytest.mark.parametrize("n, b", [(16, 4096), (64, 3000), (256, 256), (1024, 64)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_split_apply_allocates_no_more_than_the_serial_one(monkeypatch, n, b, order):
    # the pad buffer and the result, 3 n.B.16 bytes, and nothing per block:
    # the first diagonal's row tiles use the result's own columns as their
    # scratch, and the products' ufunc buffers are _BUFSIZE entries
    rng = np.random.default_rng(n + b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    x = np.array(rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b)), order=order)
    for cpus in (1, 2):
        started = spy_threads(monkeypatch, cpus, force=False)
        fast_dvm_apply(chain, x)
        tracemalloc.start()
        try:
            fast_dvm_apply(chain, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * n * b * 16, (cpus, peak / (n * b * 16))
        assert len(started) == 2 * (cpus - 1)


def test_split_apply_leaves_no_thread_and_keeps_its_input(monkeypatch):
    started = spy_threads(monkeypatch, 3)
    rng = np.random.default_rng(27)
    chain = build_bluestein_chain(DvmSpec(64, random_unit(rng)))
    x = rng.normal(size=(64, 10)) + 1j * rng.normal(size=(64, 10))
    keep = x.copy()
    x.flags.writeable = False
    before = threading.active_count()
    y = fast_dvm_apply(chain, x)
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    assert np.array_equal(x, keep)
    assert np.array_equal(y, composed_apply(chain, keep))


def test_chain_factors_cannot_be_replaced():
    chain = build_bluestein_chain(DvmSpec(16, 1j))
    with pytest.raises(TypeError):
        chain.factors[0] = Diagonal(np.ones(16))


def test_single_column_apply_starts_no_thread(monkeypatch):
    started = spy_threads(monkeypatch, 3)
    rng = np.random.default_rng(28)
    chain = build_bluestein_chain(DvmSpec(256, random_unit(rng)))
    for shape in ((256,), (256, 1)):
        for counter in (None, OpCounter()):
            fast_dvm_apply(chain, rng.normal(size=shape) + 0j, counter)
    assert started == []


@pytest.mark.parametrize("in_worker", [True, False])
def test_split_apply_reraises_a_block_error_after_the_join(monkeypatch, in_worker):
    # the kernel fails on the column block of one thread: a worker's or the
    # caller's
    kernel = dvm._bluestein

    def failing(*args):
        if (threading.current_thread() is not threading.main_thread()) == in_worker:
            raise FloatingPointError("block failed")
        return kernel(*args)

    started = spy_threads(monkeypatch, 3)
    monkeypatch.setattr(dvm, "_bluestein", failing)
    chain = build_bluestein_chain(DvmSpec(16, 1.0 + 0j))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="block failed"):
        chain.apply(np.ones((16, 9), dtype=complex))
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_on_threads_runs_each_call_once_and_reraises_in_call_order(monkeypatch, cpus):
    # calls[0] on the calling thread, the others on workers with two CPUs and
    # after it, in order, with one; the results come back in call order
    started = spy_threads(monkeypatch, cpus, force=False)
    ran_on = {}

    def call(i):
        ran_on[i] = threading.current_thread()
        return 10 * i

    calls = [functools.partial(call, i) for i in range(3)]
    assert dvm._on_threads(calls) == [0, 10, 20]
    assert ran_on[0] is threading.current_thread()
    assert [ran_on[1], ran_on[2]] == (started if cpus == 2 else [ran_on[0]] * 2)

    def fail(what):
        raise KeyError(what)

    a, b, c = (functools.partial(fail, what) for what in "abc")
    before = threading.active_count()
    for calls, first in (([calls[0], b, c], "b"), ([a, b], "a")):
        with pytest.raises(KeyError, match=first):
            dvm._on_threads(calls)
        assert threading.active_count() == before
    assert not any(t.is_alive() for t in started)


@pytest.mark.parametrize("caller_bufsize", [8192, 1 << 16])
@pytest.mark.parametrize("fail", [False, True])
def test_split_apply_restores_the_callers_ufunc_state(monkeypatch, caller_bufsize, fail):
    # each block's thread runs the kernel's steps under 512-entry ufunc
    # buffers (a (2048, 32) pad block); the caller's buffer size and error
    # state are back after the apply, also when a block raises
    started = spy_threads(monkeypatch, 2, force=False)
    seen = []
    steps = dvm._bluestein_steps

    def spy(*args):
        seen.append(np.getbufsize())
        if fail and threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("block failed")
        return steps(*args)

    monkeypatch.setattr(dvm, "_bluestein_steps", spy)
    chain = build_bluestein_chain(DvmSpec(1024, 1j))
    x = np.ones((1024, 64), dtype=complex)
    with np.errstate(divide="raise", over="warn"):
        np.setbufsize(caller_bufsize)
        state = np.geterr()
        if fail:
            with pytest.raises(FloatingPointError, match="block failed"):
                fast_dvm_apply(chain, x)
        else:
            fast_dvm_apply(chain, x)
        assert np.getbufsize() == caller_bufsize and np.geterr() == state
    assert len(started) == 1 and seen == [512, 512]


@pytest.mark.parametrize("column", [0, 63])
def test_split_apply_runs_every_block_under_the_callers_error_state(monkeypatch, column):
    # numpy keeps the error state per thread, and a new thread starts from
    # the defaults: an infinite entry in the worker's block (column 63 of
    # two) must meet the caller's settings as one in the calling thread's
    # block (column 0) does; two usable CPUs split the batch by the rule
    started = spy_threads(monkeypatch, 2, force=False)
    chain = build_bluestein_chain(DvmSpec(1024, 1j))
    x = np.ones((1024, 64), dtype=complex)
    x[5, column] = np.inf
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid value"):
            fast_dvm_apply(chain, x)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning in either thread would raise
        fast_dvm_apply(chain, x)
    seen = []
    with np.errstate(all="call", call=lambda kind, flag: seen.append(kind)):
        fast_dvm_apply(chain, x)
    assert seen and set(seen) == {"invalid value"}
    assert len(started) == 3


# ---------------------------------------------------------------------------
# usable CPUs: the affinity set cut to the cgroup v2 CPU quota


def fake_cgroup(monkeypatch, tmp_path, cpu_max, cgroup="0::/job/step\n", cpus=8):
    """Point the quota reader at fake files: a /proc/self/cgroup holding
    cgroup and, when cpu_max is not None, that cgroup's cpu.max."""
    proc = tmp_path / "cgroup"
    proc.write_text(cgroup)
    root = tmp_path / "fs"
    (root / "job" / "step").mkdir(parents=True)
    if cpu_max is not None:
        (root / "job" / "step" / "cpu.max").write_text(cpu_max)
    monkeypatch.setattr(dvm, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(dvm, "_CGROUP_ROOT", str(root))
    monkeypatch.setattr(dvm.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    # the count is cached per process: a cache of the test's own reads the
    # fake files and leaves the process's cached count alone
    monkeypatch.setattr(dvm, "_usable_cpus", functools.cache(dvm._usable_cpus.__wrapped__))


@pytest.mark.parametrize("cpu_max, cpus", [
    ("50000 100000\n", 1), ("150000 100000\n", 1), ("199999 100000\n", 1),
    ("200000 100000\n", 2), ("350000 100000\n", 3), ("max 100000\n", 8),
    ("2000000 100000\n", 8),
    (None, 8), ("", 8), ("garbage\n", 8), ("1 0\n", 8), ("-1 100000\n", 8),
])
def test_usable_cpus_reads_the_cgroup_quota(monkeypatch, tmp_path, cpu_max, cpus):
    # a quota below 2 CPUs counts as one; no quota, a missing file or one
    # that does not parse leaves the affinity count
    fake_cgroup(monkeypatch, tmp_path, cpu_max)
    assert dvm._usable_cpus() == cpus


def test_usable_cpus_without_a_cgroup_v2_line(monkeypatch, tmp_path):
    # a cgroup v1 process: no "0::" line, so no quota is read
    fake_cgroup(monkeypatch, tmp_path, "50000 100000\n", cgroup="4:cpu:/job/step\n")
    assert dvm._usable_cpus() == 8


def test_usable_cpus_is_read_once(monkeypatch, tmp_path):
    # a later quota change is not seen until the cache is cleared
    fake_cgroup(monkeypatch, tmp_path, "50000 100000\n")
    assert dvm._usable_cpus() == 1
    (tmp_path / "fs" / "job" / "step" / "cpu.max").write_text("max 100000\n")
    assert dvm._usable_cpus() == 1
    dvm._usable_cpus.cache_clear()
    assert dvm._usable_cpus() == 8


@pytest.mark.parametrize("cpu_max, workers", [("150000 100000\n", 0), ("max 100000\n", 1)])
def test_quota_below_two_cpus_keeps_the_apply_on_one_thread(monkeypatch, tmp_path, cpu_max,
                                                             workers):
    usable_cpus = dvm._usable_cpus
    started = spy_threads(monkeypatch, 8, force=False)
    monkeypatch.setattr(dvm, "_usable_cpus", usable_cpus)  # 8 affinity CPUs, the quota read
    fake_cgroup(monkeypatch, tmp_path, cpu_max)
    fast_dvm_apply(build_bluestein_chain(DvmSpec(4096, 1j)), np.ones((4096, 64), dtype=complex))
    assert len(started) == workers


def test_multiply_count_doubling_ratio():
    """Instrumented multiply growth per size doubling stays below 2.3."""
    counts = {}
    for n in (64, 128, 256, 512, 1024):
        counter = OpCounter()
        chain = build_bluestein_chain(DvmSpec(n, complex(np.exp(-0.31j))))
        fast_dvm_apply(chain, np.ones(n, dtype=complex), counter)
        counts[n] = counter.muls
    for n in (128, 256, 512):
        ratio = counts[2 * n] / counts[n]
        assert ratio <= 2.3, f"N={n}: {ratio}"
    # sanity: growth is superlinear but far below the dense 4x
    assert counts[1024] > 2 * counts[512]


# ---------------------------------------------------------------------------
# fixed DFTs


def test_fft_delta_and_constant():
    assert np.allclose(Dft(4).apply([1, 0, 0, 0]), np.full(4, 0.5), atol=1e-15)
    assert np.allclose(Dft(4).apply([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-15)


def test_fft_matches_dense_oracle():
    rng = np.random.default_rng(24)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    want = dense_dft(64) @ x / 8
    assert np.linalg.norm(Dft(64).apply(x) - want) / np.linalg.norm(want) <= 1e-12


def test_fft_inverse_roundtrip():
    rng = np.random.default_rng(25)
    for size in (2, 8, 128, 1024):
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        back = Dft(size, conj=True).apply(Dft(size).apply(x))
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-12


def test_fft_rejects_bad_length():
    # when the factor is built, before any input
    for size in (12, 0, -4, 16.0, "16"):
        with pytest.raises(ValueError, match="FFT length must be a power of two"):
            Dft(size)


def test_fft_batched_matches_numpy():
    # Dft.apply gives public numpy's orthonormal bytes on a vector and on
    # C-order, F-order and strided batches
    rng = np.random.default_rng(26)
    for size in (2, 32, 4096):
        wide = rng.normal(size=(size, 10)) + 1j * rng.normal(size=(size, 10))
        for x in (wide[:, 0].copy(), wide[:, ::3][:, 0], wide[:, :3].copy(),
                  np.asfortranarray(wide[:, :3]), wide[:, ::2], wide):
            for factor, ref in ((Dft(size), np.fft.fft), (Dft(size, conj=True), np.fft.ifft)):
                got = factor.apply(x)
                assert got.shape == x.shape and got.dtype == np.complex128
                assert got.tobytes() == ref(x, axis=0, norm="ortho").tobytes(), (factor, x.strides)


def test_fft_counter_formula():
    # K/2 muls and K adds per stage, log2 K stages
    for size in (8, 64, 256):
        lg = size.bit_length() - 1
        assert dvm._fft_ops(size) == ((size // 2) * lg, size * lg)


def test_dft_counter_formula():
    # the fft count, plus one mul per element for the 1/sqrt(K) scaling
    for size in (8, 64, 256):
        lg = size.bit_length() - 1
        for factor in (Dft(size), Dft(size, conj=True)):
            counter = OpCounter()
            factor.tally(counter)
            assert counter.muls == (size // 2) * lg + size
            assert counter.adds == size * lg


def test_kernel_dft_factor_is_numpys_ortho_factor(monkeypatch):
    # the kernel hands the pocketfft gufuncs its own 1/sqrt(2N); numpy's
    # norm="ortho" factor is reciprocal(sqrt(m)) in the input's real dtype
    for k in range(1, 23):
        m = 2**k
        assert dvm._ortho_scale(m) == np.reciprocal(np.sqrt(m, dtype=np.float64)), m
    calls, outs = [], []

    def spy(gufunc):
        def call(a, scale, *out, **kwargs):
            calls.append((gufunc.__name__, a.shape[0], scale))
            # how the output buffer was passed, whether it is the input, and
            # the keywords given
            outs.append(("positional", out[0] is a, sorted(kwargs)) if out
                        else ("keyword", kwargs["out"] is a, sorted(kwargs)))
            return gufunc(a, scale, *out, **kwargs)
        return call

    # the chain is built before the spy: its build runs one raw DFT of its own
    chain = build_bluestein_chain(DvmSpec(16, 1j))
    monkeypatch.setattr(dvm, "_pocketfft", types.SimpleNamespace(
        fft=spy(dvm._pocketfft.fft), ifft=spy(dvm._pocketfft.ifft)))
    # a vector passes its out positionally and no axes; a batch keeps both
    # keywords
    for x, passed in (
            (np.ones(16), ("positional", True, [])),
            (np.ones((16, 3)), ("keyword", True, ["axes", "out"]))):
        calls.clear()
        outs.clear()
        fast_dvm_apply(chain, x)
        assert calls == [("fft", 32, dvm._ortho_scale(32)), ("ifft", 32, dvm._ortho_scale(32))]
        assert outs == [passed, passed]


def test_fast_apply_op_count_n1024():
    # per column, whatever the batch: 3 diagonals, 2 normalized DFTs of 2048
    chain = build_bluestein_chain(DvmSpec(1024, complex(np.exp(-0.31j))))
    for x in (np.ones(1024, dtype=complex), np.ones((1024, 4), dtype=complex)):
        counter = OpCounter()
        fast_dvm_apply(chain, x, counter)
        assert counter.muls + counter.adds == 75_776


@pytest.mark.parametrize("batch", [(), (5,)])
def test_fixed_dfts_match_dense_oracle(batch):
    rng = np.random.default_rng(29)
    size = 64
    shape = (size,) + batch
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fwd, inv = dense_dft(size) @ x, dense_dft(size, inverse=True) @ x
    root = math.sqrt(size)
    for got, want in (
        (Dft(size).apply(x), fwd / root),
        (Dft(size, conj=True).apply(x), inv / root),
    ):
        assert got.shape == shape
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_zero_pad_returns_fresh_zero_filled_array(dtype, batch):
    x = np.arange(1, 1 + 8 * math.prod(batch), dtype=dtype).reshape((8,) + batch)
    out = ZeroPad(16, 8).apply(x)
    assert out.dtype == dtype and out.shape == (16,) + batch
    assert not np.shares_memory(out, x)
    assert np.array_equal(out[:8], x)
    assert not out[8:].any()


# (rows, columns): one tile, whole tiles, a partial last tile, the 64-row
# minimum at wide batches with six column tiles of 500, two column tiles of
# 2,048 at N=16, and no columns
@pytest.mark.parametrize("n, b", [(16, 64), (1024, 64), (1024, 63), (100, 3000), (16, 4096),
                                  (4096, 0)])
def test_diagonal_into_a_fortran_buffer_equals_the_plain_product(n, b):
    # the kernel writes the first diagonal's product of a C-ordered batch
    # into the Fortran-order pad buffer through row tiles; the bytes are
    # those of the factor's own product, and the tail rows are not touched
    rng = np.random.default_rng(n + b)
    d = Diagonal(np.exp(2j * np.pi * rng.random(n)))
    x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
    buf = np.full((2 * n, b), np.nan, dtype=complex, order="F")
    out = buf[:n]
    dvm._multiply_by_row_tiles(x, d.values, out, np.empty((n, b), complex, order="F"))
    assert out.tobytes(order="F") == d.apply(x).tobytes(order="F")
    assert np.isnan(buf[n:]).all()


@pytest.mark.parametrize("n, b", [(16, 4096), (64, 3000)])
def test_wide_row_ordered_batch_equals_column_ordered_bytes(n, b):
    # a row-ordered batch whose row tiles would hold 1.5 * _TILE_MAX_ENTRIES
    # or more goes through column tiles too, with the bytes of a
    # column-ordered batch, which takes no tiles
    rng = np.random.default_rng(n + b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
    got = fast_dvm_apply(chain, x)
    want = fast_dvm_apply(chain, np.asfortranarray(x))
    assert got.tobytes(order="F") == want.tobytes(order="F")


def test_normalized_dft_unitarity():
    for size in (2, 16, 256, 2048):
        f = Dft(size).apply(np.eye(size))
        err = np.max(np.abs(f @ f.conj().T - np.eye(size)))
        assert err <= 1e-12, f"size={size}: {err}"


# ---------------------------------------------------------------------------
# even/odd interleave (the chain's output row order, dvm._interleave_index)


def bottom_up_interleave(size, depth):
    """The row order written out one level at a time: from level depth-1 up
    to level 0, each block of size >> level becomes its two halves'
    entries taken in turn ([a, b | c, d] -> [a, c, b, d])."""
    order = list(range(size))
    for level in reversed(range(depth)):
        block = size >> level
        half = block // 2
        order = [v for start in range(0, size, block)
                 for pair in zip(order[start:start + half], order[start + half:start + block])
                 for v in pair]
    return order


def test_interleave_index_is_the_bottom_up_even_odd_interleave():
    for size in (2, 4, 8, 16, 32, 64):
        for depth in range(size.bit_length()):
            perm, inv = dvm._interleave_index(size, depth)
            assert perm.tolist() == bottom_up_interleave(size, depth), (size, depth)
            assert np.array_equal(perm[inv], np.arange(size)), (size, depth)
            assert not (perm.flags.writeable or inv.flags.writeable)


def test_even_odd_frozen():
    perm, _ = dvm._interleave_index(4, 1)
    out = np.array([1.0, 2.0, 3.0, 4.0])[perm]
    assert np.array_equal(out, [1.0, 3.0, 2.0, 4.0])


def test_even_odd_inverse_is_identity():
    rng = np.random.default_rng(27)
    x = rng.normal(size=16)
    perm, inv = dvm._interleave_index(16, 1)
    assert np.array_equal(x[perm][inv], x)


def test_single_level_butterfly_identity():
    """permute(blockdiag(F2,F2) . H4 . x) = DFT4 . x, the one-level split."""
    rng = np.random.default_rng(28)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = np.diag([1.0, np.exp(-2j * np.pi / 4)])
    h4 = np.block([[np.eye(2), np.eye(2)], [d, -d]])
    f2 = np.array([[1, 1], [1, -1]], dtype=complex)
    perm, _ = dvm._interleave_index(4, 1)
    got = (np.kron(np.eye(2), f2) @ (h4 @ x))[perm]
    assert np.max(np.abs(got - dense_dft(4) @ x)) <= 1e-12


# ---------------------------------------------------------------------------
# recursive butterfly factorization


def test_recursive_chain_size4_depth1():
    chain = build_recursive_dft_chain(4, 1, exact=True)
    assert np.max(np.abs(chain.dense() - dense_dft(4))) <= 1e-12


def test_recursive_chain_size2_depth1_is_butterfly():
    chain = build_recursive_dft_chain(2, 1, exact=True)
    assert chain.leaf_size == 1
    want = np.array([[1, 1], [1, -1]], dtype=complex)
    assert np.max(np.abs(chain.dense() - want)) <= 1e-12


def test_recursive_chain_size32_depth4():
    chain = build_recursive_dft_chain(32, 4, exact=True)
    assert np.max(np.abs(chain.dense() - dense_dft(32))) <= 1e-12


def test_recursive_chain_all_small_configs():
    for size in (2, 4, 8, 16, 32, 64):
        for depth in range(0, size.bit_length()):
            chain = build_recursive_dft_chain(size, depth, exact=True)
            err = np.max(np.abs(chain.dense() - dense_dft(size)))
            assert err <= 1e-12, f"size={size} depth={depth}: {err}"


def test_recursive_chain_inverse_and_normalized():
    size = 16
    inv = build_recursive_dft_chain(size, 3, exact=True, inverse=True)
    assert np.max(np.abs(inv.dense() - dense_dft(size, inverse=True))) <= 1e-12
    norm = build_recursive_dft_chain(size, 3, exact=True, normalized=True)
    f = norm.dense()
    assert np.max(np.abs(f @ f.conj().T - np.eye(size))) <= 1e-12


def test_recursive_chain_depth_out_of_range():
    with pytest.raises(ValueError):
        build_recursive_dft_chain(8, 4, exact=True)


def test_recursive_chain_shape_validation():
    from dvmbeam.dvm import RecursiveDftChain

    # size 8, depth 1: twiddles of 4, a 4 x 4 leaf, 20 values per chain
    assert dvm.chain_entries(8, 1) == 20
    for values in (np.ones((1, 19)), np.ones((1, 21)), np.ones((2, 36))):
        with pytest.raises(ValueError, match=r"has 20 values per row of a \(K, 20\) array"):
            RecursiveDftChain(8, 1, values)
    # the values are rows: a 1-D or 3-D array is no stack
    for values in (np.ones(20), np.ones((1, 1, 20)), np.ones(())):
        with pytest.raises(ValueError, match="got shape"):
            RecursiveDftChain(8, 1, values)
    with pytest.raises(ValueError, match="power of two"):
        RecursiveDftChain(6, 1, np.ones((1, 12)))
    for depth in (-1, 4):
        with pytest.raises(ValueError, match="leaves no leaf"):
            RecursiveDftChain(8, depth, np.ones((1, 8)))
    # an input stack must match the chain stack; 1-D and 2-D inputs are K=1
    two = RecursiveDftChain(8, 1, np.ones((2, 20)))
    assert len(two.leaf) == 2 and all(len(t) == 2 for t in two.twiddles)
    for bad in (np.ones((3, 8, 2)), np.ones((8, 2)), np.ones(8)):
        with pytest.raises(ValueError, match="stack of 2 inputs"):
            two.apply(bad)
        with pytest.raises(ValueError, match="stack of 2 inputs"):
            two.apply_trace(bad)
    assert two.apply(np.ones((2, 8, 2))).shape == (2, 8, 2)


def test_build_recursive_dft_chain_random_needs_rng():
    with pytest.raises(ValueError, match="exact=False .* needs rng"):
        build_recursive_dft_chain(8, 2, exact=False)


def test_recursive_chain_arrays_are_views_of_its_value_rows():
    for size, depth in ((2, 0), (2, 1), (8, 0), (8, 2), (16, 3), (32, 5)):
        _check_chain_views(size, depth)


def _check_chain_views(size, depth):
    from dvmbeam.dvm import RecursiveDftChain

    # three rows inside wider ones, as a network's submatrix rows hold them
    e, s = dvm.chain_entries(size, depth), size >> depth
    rows = np.zeros((3, 2 + e + 5), dtype=np.complex128)
    values = rows[:, 2:2 + e]
    chain = RecursiveDftChain(size, depth, values)
    assert chain.values is values
    arrays = chain.param_arrays()
    halves = [size >> lvl >> 1 for lvl in range(depth)]
    assert [a.shape for a in arrays] == [(3, h) for h in halves] + [(3, s, s)]
    assert sum(a[0].size for a in arrays) == e
    # rows to arrays: the arrays, laid end to end, read the rows as written
    rng = np.random.default_rng(size + depth)
    values[...] = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    assert np.array_equal(np.concatenate([a.reshape(3, -1) for a in arrays], axis=1), values)
    # arrays to row: writing the chain's arrays writes the rows
    for lvl, tw in enumerate(chain.twiddles):
        tw[...] = lvl + 1
    chain.leaf[...] = -1j
    want = np.concatenate([np.full((3, h), lvl + 1.0) for lvl, h in enumerate(halves)]
                          + [np.full((3, s * s), -1j)], axis=1)
    assert np.array_equal(values, want)
    assert not rows[:, :2].any() and not rows[:, 2 + e:].any()
    # a complex128 array is kept as is; any other becomes a complex copy
    real = RecursiveDftChain(size, depth, values.real)
    assert real.values.dtype == np.complex128 and not np.shares_memory(real.values, rows)


def _old_chain_values(size, depth, exact, inverse=False, normalized=False, rng=None):
    """One chain's value row as the level-by-level construction built it:
    a list of twiddle levels and a leaf, concatenated in declaration order."""
    s = size >> depth
    if not exact:
        values = np.exp(2j * np.pi * rng.random((1, size - s + s * s)))
        values[:, size - s:] /= math.sqrt(s)
        return values
    sign = 1.0 if inverse else -1.0
    twiddles = [np.exp(sign * 2j * np.pi * np.arange(size >> lvl >> 1)[None] / (size >> lvl))
                for lvl in range(depth)]
    kk = np.arange(s)
    leaf = np.exp(sign * 2j * np.pi * np.outer(kk, kk) / s) if s > 1 else np.ones((1, 1))
    if normalized:
        leaf = leaf / math.sqrt(s)
    return np.concatenate([t.ravel() for t in twiddles] + [leaf.ravel()])[None]


def test_recursive_chain_values_equal_the_level_by_level_build_bytes():
    for size in (2, 4, 8, 16, 32, 64):
        for depth in range(size.bit_length()):
            for inverse in (False, True):
                for normalized in (False, True):
                    got = build_recursive_dft_chain(size, depth, inverse=inverse,
                                                    normalized=normalized)
                    want = _old_chain_values(size, depth, True, inverse, normalized)
                    assert got.values.tobytes() == want.tobytes(), (size, depth, inverse)
                    assert got.scale == (2.0 ** (-depth / 2.0) if normalized else 1.0)
            seed = 1000 * size + depth
            got = build_recursive_dft_chain(size, depth, exact=False,
                                            rng=np.random.default_rng(seed))
            want = _old_chain_values(size, depth, False, rng=np.random.default_rng(seed))
            assert got.values.tobytes() == want.tobytes(), (size, depth, "random")


def test_recursive_chain_apply_does_not_mutate_input():
    chain = build_recursive_dft_chain(8, 2, exact=True)
    x = np.ones((8, 3), dtype=complex)
    keep = x.copy()
    chain.apply(x)
    assert np.array_equal(x, keep)


def test_recursive_chain_backward_against_finite_differences():
    """Carrier-convention adjoint: dL/dRe + j dL/dIm for every twiddle level
    and the leaf, checked by central differences through a real loss."""
    rng = np.random.default_rng(29)
    chain = build_recursive_dft_chain(8, 2, exact=False, rng=rng)
    x = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    w = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))

    def loss():
        y = chain.apply(x)
        return float(np.sum(w.real * y.real + w.imag * y.imag))

    _, trace = chain.apply_trace(x)
    g_in, tw_grads, leaf_grad = chain.backward(trace, w)
    h = 1e-7
    worst = 0.0
    for arr, grad in zip(chain.param_arrays(), tw_grads + [leaf_grad]):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            for part, val in (("re", 1.0), ("im", 1.0j)):
                keep = flat[idx]
                flat[idx] = keep + h * val
                up = loss()
                flat[idx] = keep - h * val
                down = loss()
                flat[idx] = keep
                fd = (up - down) / (2 * h)
                an = gflat[idx].real if part == "re" else gflat[idx].imag
                worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst <= 1e-5


def test_recursive_chain_backward_is_adjoint_at_every_depth():
    # the input gradient of a linear map is its adjoint: <A x, g> = <x, A^H g>;
    # this pins the inverse of the output un-interleave at every depth
    rng = np.random.default_rng(30)
    for size in (2, 4, 8, 16, 32, 64):
        for depth in range(0, size.bit_length()):
            chain = build_recursive_dft_chain(size, depth, exact=False, normalized=True,
                                              rng=rng)
            x = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
            g = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
            y, trace = chain.apply_trace(x)
            gx, _, _ = chain.backward(trace, g)
            lhs, rhs = np.vdot(g, y), np.vdot(gx, x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (size, depth)


def test_recursive_chain_interleave_index_is_shared():
    # the output row order depends only on (size, depth): chains share it
    a = build_recursive_dft_chain(32, 5, exact=True)
    b = build_recursive_dft_chain(32, 5, exact=False, rng=np.random.default_rng(0))
    assert a._perm is b._perm and a._inv_perm is b._inv_perm
    assert not a._perm.flags.writeable

