"""Transform-layer tests: dense oracles, the chirp factor chain, the fixed DFT
factors, and the recursive butterfly factorization.

Every fast path is checked against an independently built dense matrix, never
against itself.
"""

import math
import re
import threading
import tracemalloc

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
    even_odd_permute,
    fast_dvm_apply,
    fft,
    scaled_dvm_apply,
    scaled_dvm_dense,
    unscaled_dvm_dense,
)


def random_unit(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def dense_dft(size, inverse=False):
    # textbook O(K^2) construction, the independent oracle for fft()
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


def test_unscaled_dense_frozen_n2():
    a = unscaled_dvm_dense(DvmSpec(2, -1j))
    want = np.array([[1, -1j], [1, -1]], dtype=complex)
    assert np.max(np.abs(a - want)) <= 1e-15


def test_unscaled_dense_column0_ones():
    rng = np.random.default_rng(14)
    for n in (2, 8, 32):
        a = unscaled_dvm_dense(DvmSpec(n, random_unit(rng)))
        assert np.max(np.abs(a[:, 0] - 1.0)) <= 1e-15


def test_row_shift_relation():
    """unscaled[k,l] = alpha^l * scaled[k,l]."""
    rng = np.random.default_rng(15)
    for n in (2, 4, 16, 64):
        spec = DvmSpec(n, random_unit(rng))
        scaled = scaled_dvm_dense(spec)
        unscaled = unscaled_dvm_dense(spec)
        shift = cis(spec.phi, np.arange(n, dtype=float))
        assert np.max(np.abs(unscaled - shift[None, :] * scaled)) <= 1e-12


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DvmSpec(3, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        DvmSpec(0, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        DvmSpec(4, 1.1 + 0.0j)


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
    chain = build_bluestein_chain(DvmSpec(4, 1j))
    with pytest.raises(ValueError):
        fast_dvm_apply(chain, np.ones(5, dtype=complex))


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
        y = np.ascontiguousarray(f.apply(y, counter))
    return y


def spy_threads(monkeypatch, cpus, force=True):
    """Make FactorChain.apply see cpus usable CPUs; with force, also let it
    split any chain that can split into up to cpus blocks.  Returns the list of
    threads it starts."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(dvm.threading, "Thread", Spy)
    monkeypatch.setattr(dvm, "_usable_cpus", lambda: cpus)
    if force:
        monkeypatch.setattr(dvm, "_SPLIT_MIN_ROWS", 1)
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
    # it, also when the chain's column blocks run on two threads (N=4096
    # splits at batch 64, N=1024 does not)
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
            assert len(started) == (2 * (cpus - 1) if n == 4096 else 0)


# ---------------------------------------------------------------------------
# the whole chain split over column blocks on threads


def spy_diagonals(monkeypatch):
    """Record (factor, thread, out given) for every Diagonal.apply call."""
    calls = []
    apply = Diagonal.apply

    def spy(self, x, counter=None, out=None):
        calls.append((self, threading.current_thread(), out is not None))
        return apply(self, x, counter, out)

    monkeypatch.setattr(Diagonal, "apply", spy)
    return calls


# every N with every width but N=4096, B=1001, whose buffers take about 400 MB;
# B=63 and B=1001 leave a partial last row tile in the first diagonal
@pytest.mark.parametrize("n, b", [(n, b) for n in (16, 256, 1024, 4096)
                                  for b in (2, 3, 63, 64, 1001) if n * b <= 1 << 20])
def test_split_apply_equals_serial_bytes(monkeypatch, n, b):
    rng = np.random.default_rng(n + b)
    chain = build_bluestein_chain(DvmSpec(n, random_unit(rng)))
    first, last = chain.factors[0], chain.factors[-1]
    x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
    on_one_cpu = spy_threads(monkeypatch, 1)  # the reference runs serial
    serial = fast_dvm_apply(chain, x)
    assert on_one_cpu == []
    calls = spy_diagonals(monkeypatch)
    for k in (2, 3):
        started = spy_threads(monkeypatch, k)
        for order_x in (np.ascontiguousarray(x), np.asfortranarray(x)):
            got = fast_dvm_apply(chain, order_x)
            assert got.tobytes(order="A") == serial.tobytes(order="A")
            assert got.flags.f_contiguous and got.base is None
        assert len(started) == 2 * (min(k, b) - 1)
        # every block runs the whole chain: each worker also ran the first
        # diagonal and the last one, which writes into the output
        for t in started:
            assert {(first, t), (last, t)} <= {(f, ct) for f, ct, _ in calls}
            assert (last, t, True) in calls
    # the first product always goes straight into the pad buffer
    assert {out for f, _, out in calls if f is first} == {True}


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


# (N, B, worker threads) on a machine with 8 usable CPUs
@pytest.mark.parametrize("n, b, workers", [
    (16, 3000, 0), (64, 3000, 0), (1024, 64, 0), (4096, 16, 0), (4096, 1, 0),
    (1024, 128, 1), (2048, 64, 1), (4096, 32, 1), (4096, 64, 1),
])
def test_split_needs_long_columns_and_a_large_buffer(monkeypatch, n, b, workers):
    # 2N >= 2048 rows and 2**18 entries; never more than two blocks
    started = spy_threads(monkeypatch, 8, force=False)
    x = np.ones((n, b), dtype=complex)
    fast_dvm_apply(build_bluestein_chain(DvmSpec(n, 1j)), x)
    assert len(started) == workers


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


def test_chain_without_a_pad_lead_or_an_in_place_end_runs_as_one_block(monkeypatch):
    # a block can only write its columns of the caller's pad buffer and
    # output when an in-place factor fills the pad and the last factor runs
    # in place; other chains run whole on the calling thread
    rng = np.random.default_rng(29)
    d = np.exp(2j * np.pi * rng.random(32))
    x = rng.normal(size=(16, 9)) + 1j * rng.normal(size=(16, 9))
    started = spy_threads(monkeypatch, 3)
    for factors in ([ZeroPad(32, 16), Dft(32), Diagonal(d), Dft(32, conj=True)],
                    [Diagonal(d[:16]), ZeroPad(32, 16), Dft(32), Truncate(16, 32)]):
        chain = FactorChain(DvmSpec(16, 1j), factors)
        assert np.array_equal(chain.apply(x), composed_apply(chain, x))
    assert started == []


def test_counted_or_single_column_apply_starts_no_thread(monkeypatch):
    # OpCounter is not thread-safe, and a counted apply must tally what
    # the composed apply does
    started = spy_threads(monkeypatch, 3)
    rng = np.random.default_rng(28)
    chain = build_bluestein_chain(DvmSpec(256, random_unit(rng)))
    for shape in ((256, 64), (256,), (256, 1)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        counted, composed = OpCounter(), OpCounter()
        got = fast_dvm_apply(chain, x, counted)
        assert np.array_equal(got, composed_apply(chain, x, composed))
        assert (counted.muls, counted.adds) == (composed.muls, composed.adds)
    for shape in ((256,), (256, 1)):
        fast_dvm_apply(chain, rng.normal(size=shape) + 0j)
    assert started == []


class _FailingDiagonal(Diagonal):
    """Diagonal that raises on the column block of one thread."""

    def __init__(self, values, in_worker):
        super().__init__(values)
        self.in_worker = in_worker

    def apply(self, x, counter=None, out=None):
        if (threading.current_thread() is not threading.main_thread()) == self.in_worker:
            raise FloatingPointError("block failed")
        return super().apply(x, counter, out)


@pytest.mark.parametrize("in_worker", [True, False])
def test_split_apply_reraises_a_block_error_after_the_join(monkeypatch, in_worker):
    # the first diagonal (written into the pad buffer) and the last one run
    # on every block, so either can fail on a worker or on the caller
    for position in (0, -1):
        started = spy_threads(monkeypatch, 3)
        chain = build_bluestein_chain(DvmSpec(16, 1.0 + 0j))
        chain.factors[position] = _FailingDiagonal(chain.factors[position].values, in_worker)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="block failed"):
            chain.apply(np.ones((16, 9), dtype=complex))
        assert len(started) == 2 and not any(t.is_alive() for t in started)
        assert threading.active_count() == before


def test_scaled_dvm_apply_wrapper():
    rng = np.random.default_rng(23)
    spec = DvmSpec(8, random_unit(rng))
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(scaled_dvm_apply(spec, x), scaled_dvm_dense(spec) @ x,
                       atol=1e-10)


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
    assert np.allclose(fft([1, 0, 0, 0]), np.ones(4), atol=1e-15)
    assert np.allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)


def test_fft_matches_dense_oracle():
    rng = np.random.default_rng(24)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    want = dense_dft(64) @ x
    assert np.linalg.norm(fft(x) - want) / np.linalg.norm(want) <= 1e-12


def test_fft_inverse_roundtrip():
    rng = np.random.default_rng(25)
    for size in (2, 8, 128, 1024):
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        back = fft(fft(x), inverse=True) / size
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-12


def test_fft_rejects_bad_length():
    with pytest.raises(ValueError):
        fft(np.ones(12))
    with pytest.raises(ValueError):
        fft(np.ones(0))


def test_fft_batched_matches_numpy():
    rng = np.random.default_rng(26)
    xb = rng.normal(size=(32, 5)) + 1j * rng.normal(size=(32, 5))
    assert np.allclose(fft(xb), np.fft.fft(xb, axis=0), atol=1e-12)


def test_fft_counter_formula():
    # K/2 muls and K adds per stage, log2 K stages
    for size in (8, 64, 256):
        counter = OpCounter()
        fft(np.ones(size, dtype=complex), counter=counter)
        lg = size.bit_length() - 1
        assert counter.muls == (size // 2) * lg
        assert counter.adds == size * lg


def test_dft_counter_formula():
    # the fft count, plus one mul per element for the 1/sqrt(K) scaling
    for size in (8, 64, 256):
        lg = size.bit_length() - 1
        for factor in (Dft(size), Dft(size, conj=True)):
            counter = OpCounter()
            factor.apply(np.ones(size, dtype=complex), counter)
            assert counter.muls == (size // 2) * lg + size
            assert counter.adds == size * lg


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
        (fft(x), fwd),
        (fft(x, inverse=True), inv),
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
# minimum at wide batches, and no columns
@pytest.mark.parametrize("n, b", [(16, 64), (1024, 64), (1024, 63), (100, 3000), (4096, 0)])
def test_diagonal_into_a_fortran_buffer_equals_the_plain_product(n, b):
    # a C-ordered batch written into a Fortran-order out goes through row
    # tiles; the bytes are those of the plain product
    rng = np.random.default_rng(n + b)
    d = Diagonal(np.exp(2j * np.pi * rng.random(n)))
    x = rng.normal(size=(n, b)) + 1j * rng.normal(size=(n, b))
    buf = np.full((2 * n, b), np.nan, dtype=complex, order="F")
    out = buf[:n]
    got = d.apply(x, out=out)
    assert got is out
    assert got.tobytes(order="F") == d.apply(x).tobytes(order="F")
    assert np.isnan(buf[n:]).all()


def test_normalized_dft_unitarity():
    for size in (2, 16, 256, 2048):
        f = Dft(size).dense()
        err = np.max(np.abs(f @ f.conj().T - np.eye(size)))
        assert err <= 1e-12, f"size={size}: {err}"


# ---------------------------------------------------------------------------
# even/odd interleave


def test_even_odd_frozen():
    out = even_odd_permute(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, [1.0, 3.0, 2.0, 4.0])


def test_even_odd_inverse_is_identity():
    rng = np.random.default_rng(27)
    x = rng.normal(size=16)
    out = even_odd_permute(x)
    idx = even_odd_permute(np.arange(16))
    undo = np.empty(16)
    undo[idx] = out
    assert np.array_equal(undo, x)


def test_even_odd_rejects_odd_length():
    with pytest.raises(ValueError):
        even_odd_permute(np.ones(5))


def test_single_level_butterfly_identity():
    """permute(blockdiag(F2,F2) . H4 . x) = DFT4 . x, the one-level split."""
    rng = np.random.default_rng(28)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = np.diag([1.0, np.exp(-2j * np.pi / 4)])
    h4 = np.block([[np.eye(2), np.eye(2)], [d, -d]])
    f2 = np.array([[1, 1], [1, -1]], dtype=complex)
    got = even_odd_permute(np.kron(np.eye(2), f2) @ (h4 @ x))
    assert np.max(np.abs(got - fft(x))) <= 1e-12


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

    with pytest.raises(ValueError):
        RecursiveDftChain(8, 1, [np.ones((1, 3))], np.ones((1, 4, 4)))
    with pytest.raises(ValueError):
        RecursiveDftChain(8, 1, [np.ones((1, 4))], np.ones((1, 3, 3)))
    with pytest.raises(ValueError):
        RecursiveDftChain(6, 1, [np.ones((1, 3))], np.ones((1, 3, 3)))


def test_recursive_chain_parameters_are_complex_and_keep_their_views():
    from dvmbeam.dvm import RecursiveDftChain

    buf = np.zeros(2 * (4 + 2 + 4), dtype=np.float64)
    tw = [np.ndarray((1, 4), np.complex128, buffer=buf), np.ndarray((1, 2), np.complex128,
                                                                     buffer=buf, offset=64)]
    leaf = np.ndarray((1, 2, 2), np.complex128, buffer=buf, offset=96)
    chain = RecursiveDftChain(8, 2, tw, leaf)
    # a complex view is kept, so a write to the buffer reaches the chain
    assert chain.twiddles[0] is tw[0] and chain.twiddles[1] is tw[1] and chain.leaf is leaf
    # a real array becomes a complex copy
    real = RecursiveDftChain(8, 2, [t.real for t in tw], leaf.real)
    assert all(a.dtype == np.complex128 for a in real.param_arrays())


def test_recursive_chain_counter():
    # depth butterfly levels at size/2 muls + size adds, then leaf matmuls
    size, depth = 16, 2
    chain = build_recursive_dft_chain(size, depth, exact=True)
    counter = OpCounter()
    chain.apply(np.ones(size, dtype=complex), counter=counter)
    s = size >> depth
    assert counter.muls == depth * (size // 2) + (size // s) * s * s
    assert counter.adds == depth * size + (size // s) * s * (s - 1)


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

