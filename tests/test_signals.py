"""Signal simulator and dataset tests."""

import csv
import functools
import inspect
import math
import re
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvmbeam import dvm, signals
from dvmbeam.dvm import DvmSpec, build_bluestein_chain, fast_dvm_apply, scaled_dvm_dense
from dvmbeam.signals import (
    ELEMENT_SPACING,
    SPEED_OF_LIGHT,
    Dataset,
    load_dataset,
    load_dataset_csv,
    make_dataset,
    save_dataset,
    save_dataset_csv,
    split_dataset,
    synth_received,
    transform_alpha,
    verify_targets,
)
from test_dvm import spy_threads

N = 8


def delays(theta: float, n: int = N) -> np.ndarray:
    """Each element's arrival delay after element 0, read back from the
    phases of a 1 Hz snapshot at t = 0: exp(2 pi j delay_k)."""
    return np.angle(synth_received(n, 1.0, theta, 0.0)[:, 0]) / (2 * np.pi)


# ---------------------------------------------------------------------------
# geometry and steering


def test_geometry_validation():
    # the array needs a power-of-two element count of at least 2, refused
    # before any work (n = 0 used to reach transform_alpha's division)
    for n in (0, 1, 3, 12, 2.0, "16"):
        with pytest.raises(ValueError, match="n must be a power of two >= 2"):
            make_dataset(n, 24e9, [30.0], 2, 0.1, seed=1)


def test_half_wavelength_spacing_value():
    # c / (2 * 32 GHz): half a wavelength at the top of the band
    assert ELEMENT_SPACING == SPEED_OF_LIGHT / 64e9


def test_steering_delay_first_element_zero():
    u = synth_received(N, 24e9, [-1.0, 0.0, 0.7, 1.4], 0.0)
    assert np.all(u[0] == 1.0)


def test_steering_delay_broadside_zero():
    assert np.max(np.abs(delays(0.0))) == 0.0


def test_steering_delay_second_element_30deg():
    """Half-wavelength spacing at 32 GHz, 30 degrees: sin(30)/(2*32e9)."""
    assert delays(math.radians(30.0))[1] == pytest.approx(7.8125e-12, rel=1e-12)


def test_steering_delay_increasing_off_broadside():
    for angle_deg in (10.0, 45.0, 80.0):
        assert np.all(np.diff(delays(math.radians(angle_deg))) > 0)


# ---------------------------------------------------------------------------
# snapshot synthesis


def test_noiseless_snapshots_unit_modulus():
    u = synth_received(N, 24e9, math.radians(40.0), np.linspace(0, 1, 17))
    assert np.max(np.abs(np.abs(u) - 1.0)) <= 1e-12


def test_broadside_snapshots_identical_across_elements():
    u = synth_received(N, 24e9, 0.0, [0.0, 0.25, 0.5])
    assert np.max(np.abs(u - u[0:1, :])) == 0.0


def test_snapshot_closed_form():
    # modest phase magnitude so association order cannot blur the oracle
    t = np.array([3e-11])
    theta = math.radians(35.0)
    u = synth_received(N, 27e9, theta, t)
    for k in range(N):
        delay = k * ELEMENT_SPACING * math.sin(theta) / SPEED_OF_LIGHT
        want = np.exp(-2j * np.pi * 27e9 * (t[0] - delay))
        assert abs(u[k, 0] - want) <= 5e-14


def test_snapshot_element_phase_progression_at_carrier():
    """At t=0 the inter-element phase ramp e^(2 pi j f delay_k) is the whole
    signal; this is the geometry the beamformer learns."""
    theta = math.radians(35.0)
    u = synth_received(N, 27e9, theta, np.array([0.0]))
    want = np.exp(2j * np.pi * 27e9 * np.arange(N) * ELEMENT_SPACING * math.sin(theta)
                  / SPEED_OF_LIGHT)
    assert np.max(np.abs(u[:, 0] - want)) <= 1e-12


def test_snapshots_of_many_angles_are_each_angles_own_bitwise():
    # column a * S + s is angle a at time s, the bytes of a one-angle call
    thetas = np.radians([-60.0, -12.5, 0.0, 33.0, 71.0])
    t = np.arange(7) / 7
    u = synth_received(16, 27.5e9, thetas, t)
    assert u.shape == (16, 35) and u.flags.c_contiguous
    for a, theta in enumerate(thetas):
        assert u[:, 7 * a : 7 * (a + 1)].tobytes() == synth_received(16, 27.5e9, theta, t).tobytes()
    assert synth_received(16, 27.5e9, [], t).shape == (16, 0)


def test_noise_component_std():
    # the noise make_dataset adds: the same set at noise 0.1 and at noise 0
    n = N
    args = (n, 24e9, [11.5], 100_000 // n)
    noise = make_dataset(*args, 0.1, seed=50).x - make_dataset(*args, 0.0, seed=50).x
    assert noise.size >= 2 * (100_000 - n)
    assert 0.068 <= np.std(noise[:, :n]) <= 0.073
    assert 0.068 <= np.std(noise[:, n:]) <= 0.073


def test_transform_alpha_unit_modulus_and_value():
    a = transform_alpha(32e9, 16)
    assert abs(abs(a) - 1.0) <= 1e-15
    # f = sample rate: alpha is the primitive 16th root e^(-2 pi j / 16)
    assert abs(a - np.exp(-2j * np.pi / 16)) <= 1e-15
    # 24/32*16 is dyadic, so the phase argument is computed exactly
    assert transform_alpha(24e9, 16) == complex(
        np.cos(-2 * np.pi * 0.046875), np.sin(-2 * np.pi * 0.046875)
    )


# ---------------------------------------------------------------------------
# dataset generation


def small_ds(seed=100, noise=0.1):
    return make_dataset(4, 24e9, [30.0, 40.0, 50.0], 20, noise, seed=seed)


def test_dataset_counts_and_grid():
    ds = make_dataset(16, 24e9, [30.0, 40.0, 50.0], 1000, 0.1, seed=100)
    assert ds.n_samples == 3000
    assert ds.x.shape == (3000, 32) and ds.y.shape == (3000, 32)
    # uniform [0, 1) grid per angle
    t0 = ds.time[:1000]
    assert t0[0] == 0.0 and t0[-1] == pytest.approx(0.999)
    assert np.max(np.abs(np.diff(t0) - 1e-3)) <= 1e-15
    assert set(np.round(np.degrees(np.unique(ds.angle)), 9)) == {30.0, 40.0, 50.0}


def test_dataset_targets_match_dense_oracle():
    ds = small_ds()
    dense = scaled_dvm_dense(DvmSpec(ds.n, ds.alpha))
    u = ds.x[:, : ds.n] + 1j * ds.x[:, ds.n :]
    v = (dense @ u.T).T
    want = np.concatenate([v.real, v.imag], axis=1)
    assert np.max(np.abs(want - ds.y)) <= 1e-10


def test_dataset_regeneration_is_identical():
    a, b = small_ds(), small_ds()
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = small_ds(seed=101)
    assert not np.array_equal(a.x, c.x)


def test_noiseless_dataset_inputs_unit_modulus():
    ds = small_ds(noise=0.0)
    u = ds.x[:, : ds.n] + 1j * ds.x[:, ds.n :]
    assert np.max(np.abs(np.abs(u) - 1.0)) <= 1e-12


def test_verify_targets_reports_drift():
    ds = small_ds()
    assert verify_targets(ds) <= 1e-10
    ds.y[3, 2] += 1e-6
    assert verify_targets(ds) >= 0.9e-6


def _reference_make_dataset(n, freq, angles_deg, samples_per_angle, noise_std, seed):
    """The per-sample build make_dataset replaced: one transform per sample
    and two standard_normal(n) draws from each sample's own generator."""
    angles_deg = np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))
    chain = build_bluestein_chain(DvmSpec(n, transform_alpha(freq, n)))
    t_grid = np.arange(samples_per_angle, dtype=np.float64) / samples_per_angle
    total = angles_deg.size * samples_per_angle
    x = np.empty((total, 2 * n))
    y = np.empty((total, 2 * n))
    angle_col = np.empty(total)
    time_col = np.empty(total)
    row = 0
    for a_deg in angles_deg:
        theta = math.radians(a_deg)
        delay = np.arange(n) * ELEMENT_SPACING * math.sin(theta) / SPEED_OF_LIGHT
        for j in range(samples_per_angle):
            u = np.exp(-2j * np.pi * (freq * (t_grid[j] - delay)))
            if noise_std:
                child = np.random.default_rng([seed, row])
                s = noise_std / math.sqrt(2.0)
                u = u + s * (child.standard_normal(n) + 1j * child.standard_normal(n))
            v = fast_dvm_apply(chain, u)
            x[row, :n] = u.real
            x[row, n:] = u.imag
            y[row, :n] = v.real
            y[row, n:] = v.imag
            angle_col[row] = theta
            time_col[row] = t_grid[j]
            row += 1
    return x, y, angle_col, time_col


DATASET_CONFIGS = [
    (4, 24e9, [30.0, 40.0, 50.0], 20, 0.1, 100),
    (4, 24e9, [30.0, 40.0, 50.0], 20, 0.0, 100),
    (16, 27e9, [-45.0, -10.5, 0.0], 1, 0.2, 7),
    (16, 32e9, [12.0], 50, 0.1, 3),
    (64, 24e9, [-60.0, 60.0], 5, 0.3, 11),
    (8, 24e9, [], 5, 0.1, 1),
]
DATASET_IDS = ["noisy", "noiseless", "one-per-angle", "one-angle", "n64", "no-angles"]


@pytest.mark.parametrize("cfg", DATASET_CONFIGS, ids=DATASET_IDS)
def test_make_dataset_matches_per_sample_reference(cfg):
    ds = make_dataset(*cfg)
    n = cfg[0]
    total = len(cfg[2]) * cfg[3]
    for got, want in zip((ds.x, ds.y, ds.angle, ds.time), _reference_make_dataset(*cfg)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert ds.x.shape == ds.y.shape == (total, 2 * n)


def test_make_dataset_transforms_once(monkeypatch):
    import dvmbeam.signals as signals

    calls = []
    real = signals.fast_dvm_apply

    def counting(chain, x, counter=None):
        calls.append(np.shape(x))
        return real(chain, x, counter)

    monkeypatch.setattr(signals, "fast_dvm_apply", counting)
    make_dataset(4, 24e9, [30.0, 40.0, 50.0], 20, 0.1, seed=1)
    assert calls == [(4, 60)]


def test_make_dataset_synthesizes_once(monkeypatch):
    calls = []
    real = signals.synth_received

    def counting(n, freq, thetas, t):
        calls.append((n, len(thetas), len(t)))
        return real(n, freq, thetas, t)

    monkeypatch.setattr(signals, "synth_received", counting)
    ds = make_dataset(4, 24e9, [30.0, 40.0, 50.0], 20, 0.1, seed=1)
    assert calls == [(4, 3, 20)]
    assert np.array_equal(ds.angle, np.repeat(np.radians([30.0, 40.0, 50.0]), 20))
    assert np.array_equal(ds.time, np.tile(np.arange(20) / 20, 3))


def test_settings_with_one_value_are_gone():
    # the spacing is the constant ELEMENT_SPACING, a table verifies at
    # DEFAULT_SAMPLE_RATE, and FactorChain.apply counts through each factor's
    # tally, so none of these is a setting any more
    for name in ("ArrayGeometry", "steering_delay", "half_wavelength_spacing"):
        assert not hasattr(signals, name)
    assert list(inspect.signature(load_dataset_csv).parameters) == ["path", "freq"]
    for factor in (dvm.Diagonal, dvm.Dft, dvm.ZeroPad, dvm.Truncate):
        assert list(inspect.signature(factor.apply).parameters) == ["self", "x"]


def test_make_dataset_validation():
    with pytest.raises(ValueError):
        make_dataset(4, 24e9, [30.0], 0, 0.1, seed=1)


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
@pytest.mark.parametrize("seed", [-1, 2**63, 2**100, 1.0, True, None])
def test_make_dataset_rejects_seeds_outside_header_range(monkeypatch, seed, noise_std):
    import dvmbeam.signals as signals

    def refuse(*args, **kwargs):
        raise AssertionError("worked on a set whose seed is out of range")

    # rejected before any work, whether or not the set draws noise
    monkeypatch.setattr(signals, "synth_received", refuse)
    with pytest.raises(ValueError, match="seed must be an integer in 0..2\\*\\*63-1"):
        make_dataset(4, 24e9, [30.0], 2, noise_std, seed=seed)


@pytest.mark.parametrize("kwargs,match", [
    (dict(sample_rate=0.0), "sample rate"), (dict(sample_rate=-2.5e11), "sample rate"),
    (dict(sample_rate=math.inf), "sample rate"), (dict(sample_rate=math.nan), "sample rate"),
    (dict(noise_std=math.nan), "noise_std"), (dict(noise_std=math.inf), "noise_std"),
    (dict(noise_std=-0.1), "noise_std"), (dict(angles_deg=[30.0, math.nan]), "angles"),
    (dict(angles_deg=[-math.inf]), "angles"),
], ids=["rate_0", "rate_neg", "rate_inf", "rate_nan", "noise_nan", "noise_inf", "noise_neg",
        "angle_nan", "angle_inf"])
def test_make_dataset_rejects_what_load_dataset_would(monkeypatch, kwargs, match):
    import dvmbeam.signals as signals

    def refuse(*args, **kw):
        raise AssertionError("worked on a set that is rejected")

    # rejected before any work; each of these used to give a NaN set, or one
    # whose header load_dataset refuses
    monkeypatch.setattr(signals, "synth_received", refuse)
    args = dict(n=4, freq=24e9, angles_deg=[30.0], samples_per_angle=2, noise_std=0.1, seed=1)
    with pytest.raises(ValueError, match=match):
        make_dataset(**{**args, **kwargs})


@pytest.mark.parametrize("noise_std", [1e307, 1.7e308])
@pytest.mark.parametrize("n,angles,spa", [(16, [30.0], 50), (64, [30.0, 40.0, 50.0], 1000)],
                         ids=["serial", "split"])
def test_make_dataset_refuses_noise_that_overflows_without_a_warning(noise_std, n, angles, spa):
    # the transform of such noise used to give a set with infinite inputs
    # and NaN targets, after seven numpy RuntimeWarnings; a 3000-sample n=64
    # set runs the transform in two column blocks, one on a worker thread
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="noise_std .* is too large"):
            make_dataset(n, 24e9, angles, spa, noise_std, seed=0)


def test_make_dataset_keeps_a_huge_noise_whose_set_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = make_dataset(16, 24e9, [30.0], 50, 1e306, seed=0)
        assert verify_targets(ds) < 1e-9
    assert np.isfinite(ds.x).all() and np.isfinite(ds.y).all()
    assert np.abs(ds.x).max() > 1e305


@pytest.mark.parametrize("spa", [3.0, True, "3", None, 0, -1])
def test_make_dataset_samples_per_angle_must_be_an_integer(spa):
    # a float used to end in a TypeError from np.arange, and True built a
    # one-sample set
    with pytest.raises(ValueError, match="samples_per_angle must be an integer >= 1"):
        make_dataset(4, 24e9, [30.0], spa, 0.0, seed=1)
    assert make_dataset(4, 24e9, [30.0], np.int64(2), 0.0, seed=1).n_samples == 2


ROW_SEEDS = [0, 1, 100, 2**32 - 1, 2**32, 2**63 - 1]


@pytest.mark.parametrize("width", [4, 32, 128])
@pytest.mark.parametrize("seed", ROW_SEEDS)
def test_row_normals_equal_per_sample_generators(seed, width):
    from dvmbeam.signals import _row_normals

    rows = 3000
    want = np.stack([np.random.default_rng([seed, r]).standard_normal(width)
                     for r in range(rows)])
    got = _row_normals(seed, rows, width)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_row_normals_row_limits():
    from dvmbeam.signals import _row_normals

    assert _row_normals(3, 0, 8).shape == (0, 8)
    # a row index past one 32-bit word would change the stream's entropy
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _row_normals(3, 1 << 32, 8)


_M64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed_ints(initstate, initseq):
    """PCG64's seeding in Python integers: (state, inc) mod 2**128."""
    inc = (initseq << 1 | 1) & (1 << 128) - 1
    return ((inc + initstate) * _PCG_MULT + inc) & (1 << 128) - 1, inc


def test_pcg64_seeding_on_limbs_equals_the_128_bit_integers():
    # limbs at 0 and 2**64 - 1 force every carry out of the low limb, and
    # random ones cover the cross products of the multiply
    edge = [0, 1, 1 << 63, _M64 - 1, _M64]
    cases = [(a, b, c, d) for a in edge for b in edge for c in (0, _M64) for d in edge]
    rng = np.random.default_rng(5)
    cases += rng.integers(0, 1 << 64, size=(2000, 4), dtype=np.uint64).tolist()
    limbs = np.array(cases, dtype=np.uint64).T
    got = [a.tolist() for a in signals._pcg64_seed(*limbs)]
    for (s_hi, s_lo, q_hi, q_lo), st_hi, st_lo, inc_hi, inc_lo in zip(cases, *got):
        state, inc = _pcg64_seed_ints(s_hi << 64 | s_lo, q_hi << 64 | q_lo)
        assert (st_hi << 64 | st_lo, inc_hi << 64 | inc_lo) == (state, inc)


@pytest.mark.parametrize("seed", ROW_SEEDS)
def test_row_normal_rows_carry_out_of_the_low_limb(seed):
    # the rows test_row_normals_equal_per_sample_generators compares, at
    # two-word seeds on the word boundaries and at one-word seeds, include
    # rows whose 128-bit seeding sums carry out of the low limb and rows
    # whose sums do not, for both sums
    carries = {"inc + initstate": set(), "product + inc": set()}
    for r in range(3000):
        words = np.random.SeedSequence([seed, r]).generate_state(4, np.uint64).tolist()
        initstate, initseq = words[0] << 64 | words[1], words[2] << 64 | words[3]
        inc = _pcg64_seed_ints(initstate, initseq)[1]
        carries["inc + initstate"].add((inc & _M64) + words[1] > _M64)
        product = ((inc + initstate) * _PCG_MULT) & (1 << 128) - 1
        carries["product + inc"].add((product & _M64) + (inc & _M64) > _M64)
    assert all(seen == {False, True} for seen in carries.values()), carries


@pytest.mark.parametrize("noise", [0.1, 0.0])
def test_make_dataset_bytes_do_not_depend_on_the_cpu_count(monkeypatch, noise):
    # the recipe's n=16 shape, whose noise rows a second CPU draws while the
    # snapshots are synthesized, and the n=64 set, whose transform splits too
    sets = {}
    for cpus in (1, 2):
        started = spy_threads(monkeypatch, cpus, force=False)
        before = threading.active_count()
        sets[cpus] = [make_dataset(n, 24e9, [30.0, 40.0, 50.0], 1000, noise, seed=100)
                      for n in (16, 64)]
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)
        # one noise worker per noisy set, and the n=64 transform's block
        assert len(started) == (cpus - 1) * (3 if noise else 1)
    for one, two in zip(*sets.values()):
        for field in ("x", "y", "angle", "time"):
            assert getattr(one, field).tobytes() == getattr(two, field).tobytes()


def test_a_noise_worker_error_reaches_the_caller(monkeypatch):
    started = spy_threads(monkeypatch, 2, force=False)
    drew_on = []

    def failing(*args):
        drew_on.append(threading.current_thread())
        raise MemoryError("noise rows")

    monkeypatch.setattr(signals, "_row_normals", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="noise rows"):
        make_dataset(16, 24e9, [30.0], 50, 0.1, seed=1)
    assert drew_on == started and len(started) == 1
    assert not started[0].is_alive() and threading.active_count() == before


def test_make_dataset_seeds_a_constant_number_of_generators(monkeypatch):
    # the per-sample streams come from one reseeded generator, not from one
    # default_rng (each with its own SeedSequence) per sample
    made = []
    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        def counting(*args, _real=getattr(np.random, name), _name=name, **kwargs):
            made.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    counts = []
    for spa in (2, 300):
        made.clear()
        make_dataset(4, 24e9, [30.0, 40.0], spa, 0.1, seed=3)
        counts.append(sorted(made))
    assert counts[0] == counts[1] == ["Generator", "PCG64"]


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_and_stratification():
    ds = make_dataset(4, 24e9, [30.0, 40.0, 50.0], 1000, 0.0, seed=7)
    tr, va = split_dataset(ds, seed=0)
    assert tr.n_samples == 2400 and va.n_samples == 600
    for theta in np.unique(ds.angle):
        assert np.sum(tr.angle == theta) == 800
        assert np.sum(va.angle == theta) == 200


def test_split_disjoint_and_exhaustive():
    ds = small_ds()
    tr, va = split_dataset(ds, seed=3)
    key = lambda d: {tuple(row) for row in d.x}
    all_rows = key(ds)
    assert key(tr) | key(va) == all_rows
    assert not (key(tr) & key(va))
    assert tr.n_samples + va.n_samples == ds.n_samples


def test_split_seed_determinism():
    ds = small_ds()
    a1, _ = split_dataset(ds, seed=5)
    a2, _ = split_dataset(ds, seed=5)
    b, _ = split_dataset(ds, seed=6)
    assert np.array_equal(a1.x, a2.x)
    assert not np.array_equal(a1.x, b.x)


def test_split_of_an_empty_set_is_two_empty_sets():
    ds = make_dataset(4, 24e9, [], 10, 0.1, seed=0)
    assert ds.n_samples == 0
    for part in split_dataset(ds, seed=0):
        assert part.n_samples == 0
        assert part.x.shape == ds.x.shape and part.y.shape == ds.y.shape
        assert (part.n, part.freq) == (ds.n, ds.freq)


def test_split_share_and_element_spacing_are_fixed():
    # each angle's training share (4/5) and the half-wavelength element
    # spacing are constants, not settings
    ds = small_ds()
    with pytest.raises(TypeError):
        split_dataset(ds, train_fraction=0.5)
    with pytest.raises(TypeError):
        make_dataset(4, 24e9, [30.0], 4, 0.0, seed=0, spacing=0.01)


# ---------------------------------------------------------------------------
# persistence


def test_binary_roundtrip_bit_identical(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    for field in ("x", "y", "angle", "time"):
        assert np.array_equal(getattr(back, field), getattr(ds, field))
    assert (back.n, back.freq, back.seed) == (ds.n, ds.freq, ds.seed)
    save_dataset(back, str(tmp_path / "d2.dvmb"))
    assert (tmp_path / "d2.dvmb").read_bytes() == p.read_bytes()


def test_binary_same_seed_same_bytes(tmp_path):
    pa, pb = tmp_path / "a.dvmb", tmp_path / "b.dvmb"
    save_dataset(small_ds(), str(pa))
    save_dataset(small_ds(), str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_load_rejects_corruption(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    raw = bytearray(p.read_bytes())

    bad = tmp_path / "magic.dvmb"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        load_dataset(str(bad))

    short = tmp_path / "short.dvmb"
    short.write_bytes(bytes(raw[:-16]))
    with pytest.raises(ValueError):
        load_dataset(str(short))

    # flip one stored target: the load-time consistency check must fire
    tampered = tmp_path / "tampered.dvmb"
    raw[-8:] = bytes(8)  # zero the last target value
    tampered.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="deviate"):
        load_dataset(str(tampered))
    back = load_dataset(str(tampered), verify=False)
    assert back.n_samples == ds.n_samples


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("array, edit, message", [
    ("y", lambda v: math.nan, r"row 1 has a non-finite target \(y\)"),
    ("x", lambda v: math.nan, r"row 1 has a non-finite input \(x\)"),
    ("y", lambda v: v + 1e-6, "stored targets deviate"),
    ("y", lambda v: math.inf, r"row 1 has a non-finite target \(y\)"),
    ("x", lambda v: -math.inf, r"row 1 has a non-finite input \(x\)"),
    ("x", lambda v: 1e308, r"row 1 has an input \(x\) whose transform overflows float64"),
], ids=["nan_target", "nan_input", "finite_drift", "inf_target", "inf_input",
        "overflowing_input"])
def test_load_rejects_nan_and_drifted_entries(tmp_path, fmt, array, edit, message):
    # verify_targets returns NaN or inf for a NaN or inf anywhere in x or y,
    # or for a finite input whose transform overflows, and NaN fails every
    # comparison: the check must reject unless the error is <= 1e-9, name
    # the row of a non-finite entry or target, and warn of nothing
    ds = small_ds()
    arr = getattr(ds, array)
    arr[1, 2] = edit(arr[1, 2])
    p = tmp_path / f"d.{fmt}"
    if fmt == "binary":
        save_dataset(ds, str(p))
        load = load_dataset
    else:
        save_dataset_csv(ds, str(p))
        load = functools.partial(load_dataset_csv, freq=ds.freq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: {message}"):
            load(str(p))


@pytest.mark.parametrize("field, value", [
    ("n", 0), ("n", 1), ("n", 3), ("n", 2**31 + 2**30), ("sample_rate", 0.0),
    ("sample_rate", -32e9),
    ("sample_rate", float("nan")),
])
def test_load_rejects_bad_header_values(tmp_path, field, value):
    # n = 0 or a zero rate used to reach transform_alpha and divide by zero,
    # and an n that is not a power of two has no transform; n is bytes 8-11
    # and the sample rate bytes 28-35 of the header
    ds = small_ds()
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    raw = bytearray(p.read_bytes())
    if field == "n":
        raw[8:12] = struct.pack("<I", value)
        named = f"n={value} "
    else:
        raw[28:36] = struct.pack("<d", value)
        named = f"sample rate {value!r};"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="header gives") as err:
        load_dataset(str(p), verify=False)
    assert named in str(err.value)


def test_load_rejects_negative_seed_naming_file_and_byte(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    raw = bytearray(p.read_bytes())
    raw[60:68] = struct.pack("<q", -3)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        load_dataset(str(p), verify=False)
    assert str(p) in str(err.value) and "seed -3 (byte 60)" in str(err.value)


def test_csv_roundtrip(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, str(p))
    lines = p.read_text().strip().split("\n")
    assert len(lines) == ds.n_samples + 1
    assert lines[0].startswith("sample_id,t,angle_deg,x_re_0")
    back = load_dataset_csv(str(p), freq=ds.freq)
    assert np.max(np.abs(back.x - ds.x)) <= 1e-12
    assert np.max(np.abs(back.y - ds.y)) <= 1e-12
    assert np.max(np.abs(back.time - ds.time)) <= 1e-12
    assert np.max(np.abs(back.angle - ds.angle)) <= 1e-12


def test_csv_load_without_metadata_skips_verification(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, str(p))
    back = load_dataset_csv(str(p))
    assert back.n == ds.n
    assert math.isnan(back.freq)


def test_table_loaded_without_freq_does_not_save_as_binary(tmp_path):
    # its NaN frequency used to be written to byte 20, and load_dataset then
    # failed on the NaN generator, naming neither the file nor the field
    p = tmp_path / "d.csv"
    save_dataset_csv(small_ds(), str(p))
    back = load_dataset_csv(str(p))
    with pytest.raises(ValueError, match=r"freq must be finite.*freq= to load_dataset_csv"):
        save_dataset(back, str(tmp_path / "d.dvmb"))
    assert not (tmp_path / "d.dvmb").exists()


@pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf])
def test_make_dataset_rejects_non_finite_freq(freq):
    with pytest.raises(ValueError, match="freq must be finite"):
        make_dataset(4, freq, [30.0], 2, 0.0, seed=0)


@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("freq", [math.nan, math.inf])
def test_load_rejects_non_finite_freq_naming_file_and_byte(tmp_path, freq, verify):
    p = tmp_path / "d.dvmb"
    save_dataset(small_ds(), str(p))
    raw = bytearray(p.read_bytes())
    raw[20:28] = struct.pack("<d", freq)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        load_dataset(str(p), verify=verify)
    assert str(p) in str(err.value) and f"frequency {freq!r} (byte 20)" in str(err.value)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("field", ["angle", "time"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("verify", [True, False])
def test_load_rejects_non_finite_angle_or_time_naming_the_first_row(tmp_path, fmt, field,
                                                                    value, verify):
    # a NaN angle used to load: split_dataset then dropped its sample from
    # both parts, and eval's per-angle scores met an empty batch
    ds = small_ds()
    getattr(ds, field)[[7, 12]] = value
    p = tmp_path / f"d.{fmt}"
    if fmt == "binary":
        save_dataset(ds, str(p))
        load = load_dataset
    else:
        save_dataset_csv(ds, str(p))
        # a table loads unverified when no freq is given
        load = lambda path, verify: load_dataset_csv(path, freq=ds.freq if verify else None)  # noqa: E731
    with pytest.raises(ValueError) as err:
        load(str(p), verify=verify)
    assert f"{p}: row 7 has a non-finite {field} ({value!r})" in str(err.value)


def test_csv_load_without_freq_rejects_a_non_finite_angle(tmp_path):
    # the row check does not wait for the target check, which needs freq
    ds = small_ds()
    ds.angle[0] = math.nan
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, str(p))
    with pytest.raises(ValueError, match="row 0 has a non-finite angle"):
        load_dataset_csv(str(p))


@pytest.mark.parametrize("freq", [0.0, -24e9])
def test_zero_and_negative_freq_save_and_load(tmp_path, freq):
    ds = make_dataset(4, freq, [30.0, 40.0], 5, 0.1, seed=3)
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    assert back.freq == freq and np.array_equal(back.y, ds.y)


def test_csv_load_rejects_malformed(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset_csv(str(p))


def _reference_save_csv(ds, path):
    """The csv.writer table save_dataset_csv replaced."""
    n = ds.n
    header = (
        ["sample_id", "t", "angle_deg"]
        + [f"x_re_{i}" for i in range(n)]
        + [f"x_im_{i}" for i in range(n)]
        + [f"y_re_{i}" for i in range(n)]
        + [f"y_im_{i}" for i in range(n)]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(ds.n_samples):
            row = [str(i), f"{ds.time[i]:.17g}", f"{math.degrees(ds.angle[i]):.17g}"]
            row += [f"{v:.17g}" for v in ds.x[i]]
            row += [f"{v:.17g}" for v in ds.y[i]]
            w.writerow(row)


def _reference_load_csv(path):
    """The csv.reader parse load_dataset_csv replaced: (x, y, angle, time)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    width = len(rows[0])
    n = (width - 3) // 4
    count = len(rows) - 1
    x = np.empty((count, 2 * n))
    y = np.empty((count, 2 * n))
    angle = np.empty(count)
    time = np.empty(count)
    for i, row in enumerate(rows[1:]):
        vals = np.asarray(row[1:], dtype=np.float64)
        time[i] = vals[0]
        angle[i] = math.radians(vals[1])
        x[i] = vals[2 : 2 + 2 * n]
        y[i] = vals[2 + 2 * n :]
    return x, y, angle, time


def _edge_value_dataset():
    """600 rows (more than one write block) of values whose 17-digit text is
    easy to get wrong: signed zeros, subnormals, huge and non-finite values."""
    rng = np.random.default_rng(21)
    special = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                        np.inf, -np.inf, np.nan, 1 / 3, 0.1, 1e16, 1.5e-7,
                        123456789012345678.0, -7.0])
    x = rng.choice(special, size=(600, 8))
    y = rng.standard_normal((600, 8)) * 10.0 ** rng.integers(-300, 300, (600, 8))
    angle = np.radians(rng.uniform(-90, 90, 600))
    angle[:4] = [0.0, -0.0, np.pi / 2, -np.pi / 6]
    return Dataset(x=x, y=y, angle=angle, time=rng.random(600), n=4, freq=24e9,
                   sample_rate=32e9, spacing=ELEMENT_SPACING,
                   noise_std=0.0, seed=0)


CSV_CASES = [make_dataset(*cfg) for cfg in DATASET_CONFIGS] + [_edge_value_dataset()]
CSV_IDS = DATASET_IDS + ["edge-values"]


@pytest.mark.parametrize("ds", CSV_CASES, ids=CSV_IDS)
def test_csv_bytes_and_parse_match_csv_module(ds, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_dataset_csv(ds, str(got))
    _reference_save_csv(ds, str(want))
    assert got.read_bytes() == want.read_bytes()
    back = load_dataset_csv(str(got))
    for field, ref in zip(("x", "y", "angle", "time"), _reference_load_csv(str(want))):
        arr = getattr(back, field)
        assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), field


def test_csv_load_accepts_lf_line_ends(tmp_path):
    ds = small_ds()
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    save_dataset_csv(ds, str(crlf))
    raw = crlf.read_bytes()
    assert raw.count(b"\r\n") == ds.n_samples + 1
    lf.write_bytes(raw.replace(b"\r\n", b"\n"))
    a = load_dataset_csv(str(crlf), freq=ds.freq)
    b = load_dataset_csv(str(lf), freq=ds.freq)
    for field in ("x", "y", "angle", "time"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    # the last line end is optional
    lf.write_bytes(raw.rstrip(b"\r\n"))
    assert load_dataset_csv(str(lf)).n_samples == ds.n_samples


def test_csv_sample_id_is_not_parsed(tmp_path):
    ds = small_ds()
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, str(p))
    lines = p.read_bytes().split(b"\r\n")
    lines[1] = b"first" + lines[1][1:]
    p.write_bytes(b"\r\n".join(lines))
    assert np.array_equal(load_dataset_csv(str(p), freq=ds.freq).x, ds.x)


def _corrupt_table(tmp_path, edit):
    ds = small_ds()
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, str(p))
    lines = p.read_text(encoding="utf-8").split("\n")
    edit(lines)
    p.write_text("\n".join(lines), encoding="utf-8")
    return str(p)


def _short_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _long_row(lines):
    lines[3] = lines[3] + ",0"


def _blank_row(lines):
    lines.insert(3, "")


def _trailing_blank_row(lines):
    lines.append("")


def _word_in_row(lines):
    fields = lines[3].split(",")
    fields[5] = "abc"
    lines[3] = ",".join(fields)


def _empty_field(lines):
    fields = lines[3].split(",")
    fields[2] = ""
    lines[3] = ",".join(fields)


@pytest.mark.parametrize("edit, message", [
    (_short_row, "row 2 has 18 fields, want 19"),
    (_long_row, "row 2 has 20 fields, want 19"),
    (_blank_row, "row 2 has 0 fields, want 19"),
    (_trailing_blank_row, "row 60 has 0 fields, want 19"),
    (_word_in_row, "row 2 has a non-numeric value"),
    (_empty_field, "row 2 has a non-numeric value"),
], ids=["short-row", "long-row", "blank-line", "trailing-blank-line",
        "word", "empty-field"])
def test_csv_load_rejects_bad_rows(tmp_path, edit, message):
    with pytest.raises(ValueError, match=message):
        load_dataset_csv(_corrupt_table(tmp_path, edit))


def test_csv_load_rejects_bad_header(tmp_path):
    def drop_column(lines):
        lines[0] = lines[0].rsplit(",", 1)[0]

    with pytest.raises(ValueError, match="header has 18 columns, want 3 \\+ 4n with n >= 2"):
        load_dataset_csv(_corrupt_table(tmp_path, drop_column))

    def rename_first(lines):
        lines[0] = "id" + lines[0][len("sample_id"):]

    with pytest.raises(ValueError, match="missing header"):
        load_dataset_csv(_corrupt_table(tmp_path, rename_first))
    # a table with no value columns (n = 0) used to reach the transform and
    # divide by zero
    p = tmp_path / "no_values.csv"
    p.write_bytes(b"sample_id,t,angle_deg\r\n0,0,30\r\n")
    with pytest.raises(ValueError, match="header has 3 columns"):
        load_dataset_csv(str(p), freq=24e9)
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="missing header"):
        load_dataset_csv(str(empty))


def test_csv_load_reads_lone_cr_line_ends_and_names_blank_and_short_rows(tmp_path):
    # text mode ends a line at a CR that no LF follows, so such a table
    # loads as its CRLF twin does; a blank line and a short last row without
    # a line end are named by row
    ds = small_ds()
    crlf = tmp_path / "crlf.csv"
    save_dataset_csv(ds, str(crlf))
    raw = crlf.read_bytes()
    lines = raw.split(b"\r\n")[:-1]
    cr = tmp_path / "cr.csv"
    cr.write_bytes(raw.replace(b"\r\n", b"\r"))
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes(b"".join(line + (b"\r", b"\n", b"\r\n")[i % 3]
                               for i, line in enumerate(lines)))
    want = load_dataset_csv(str(crlf), freq=ds.freq)
    for path in (cr, mixed):
        got = load_dataset_csv(str(path), freq=ds.freq)
        for field in ("x", "y", "angle", "time"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    blank = tmp_path / "blank.csv"
    blank.write_bytes(b"\r".join(lines[:4] + [b""] + lines[4:]) + b"\r")
    with pytest.raises(ValueError, match="row 3 has 0 fields, want 19"):
        load_dataset_csv(str(blank))
    # a row with 18 extra fields and a blank line hold as many commas as two
    # good rows; the parse skips the blank line and keeps 19 of the long row
    extra = tmp_path / "extra.csv"
    extra.write_bytes(b"\r\n".join(lines[:3] + [lines[3] + b",0" * 18] + lines[4:6] + [b""]
                                   + lines[6:]) + b"\r\n")
    with pytest.raises(ValueError, match="row 2 has 37 fields, want 19"):
        load_dataset_csv(str(extra))
    short = tmp_path / "short.csv"
    short.write_bytes(b"\r".join(lines[:-1] + [lines[-1].rsplit(b",", 1)[0]]))
    with pytest.raises(ValueError, match="row 59 has 18 fields, want 19"):
        load_dataset_csv(str(short))


# ---------------------------------------------------------------------------
# the '%.17g' kernel of save_dataset_csv


def _g17(values):
    """Each value's text as save_dataset_csv writes it, ',' before each."""
    v = np.asarray(values, dtype=np.float64).ravel()
    return signals._g17_slots(v).tobytes().translate(None, b"\0")


def _ref17(values):
    return b"".join(b",%.17g" % v for v in np.asarray(values, dtype=np.float64).ravel())


def _boundaries():
    """10**k for k = -5..17 and 1e-4 and 1e16, each with both neighbours."""
    centres = [float(f"1e{k}") for k in range(-5, 18)] + [1e-4, 1e16]
    out = []
    for c in centres:
        out += [np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)]
    return np.array(out)


# values whose 18th significant digit is an exact 5: '%.17g' rounds them to
# an even 17th digit (1000000000000000.25 -> ...0.2, ....75 -> ...0.8)
_TIES = [1e15 + 0.25, 1e15 + 0.75, 2e15 + 0.25, 1e14 + 0.125, 1e14 + 0.375,
         123456789012345.625, 1e13 + 0.0625]


def test_g17_fixed_table_matches_percent_format():
    table = np.concatenate([_boundaries(), _TIES, [0.0, -0.0, 0.1, 1 / 3, 2 / 3]])
    table = np.concatenate([table, -table])
    for t in _TIES:  # each is an exact tie, not a rounded one
        assert len(("%.18g" % t).replace(".", "")) == 18 and ("%.18g" % t).endswith("5")
    got, want = _g17(table).split(b",")[1:], _ref17(table).split(b",")[1:]
    assert [(float(v), g) for v, g, w in zip(table, got, want) if g != w] == []


def test_g17_every_decade_from_1e_minus_6_to_1e17():
    # 10**5 doubles drawn uniformly over the bit patterns of each decade,
    # with random signs; one kernel call per decade
    rng = np.random.default_rng(17)
    for k in range(-6, 17):
        lo, hi = np.array([float(f"1e{k}"), float(f"1e{k + 1}")]).view(np.int64)
        v = rng.integers(lo, hi, 10**5, endpoint=True).view(np.float64)
        v *= rng.choice([-1.0, 1.0], v.size)
        assert _g17(v) == _ref17(v), f"decade 1e{k}"


_G17_FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@_G17_FUZZ
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_g17_matches_percent_format_on_any_bit_pattern(bits):
    v = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _g17(v) == _ref17(v)


@_G17_FUZZ
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_g17_matches_percent_format_on_any_float(values):
    assert _g17(values) == _ref17(values)
