"""Signal simulator and dataset tests."""

import csv
import functools
import math
import struct

import numpy as np
import pytest

from dvmbeam.dvm import DvmSpec, build_bluestein_chain, fast_dvm_apply, scaled_dvm_dense
from dvmbeam.signals import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Dataset,
    half_wavelength_spacing,
    load_dataset,
    load_dataset_csv,
    make_dataset,
    save_dataset,
    save_dataset_csv,
    split_dataset,
    steering_delay,
    synth_received,
    transform_alpha,
    verify_targets,
)

GEOM = ArrayGeometry(8, half_wavelength_spacing())


# ---------------------------------------------------------------------------
# geometry and steering


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(1, 1e-3)
    with pytest.raises(ValueError):
        ArrayGeometry(8, 0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(8, float("inf"))


def test_half_wavelength_spacing_value():
    # c / (2 * 32 GHz), the design default
    assert half_wavelength_spacing() == pytest.approx(
        SPEED_OF_LIGHT / 64e9, rel=0, abs=0
    )


def test_steering_delay_first_element_zero():
    for angle in (-1.0, 0.0, 0.7, 1.4):
        assert steering_delay(GEOM, angle)[0] == 0.0


def test_steering_delay_broadside_zero():
    assert np.max(np.abs(steering_delay(GEOM, 0.0))) == 0.0


def test_steering_delay_second_element_30deg():
    """Half-wavelength spacing at 32 GHz, 30 degrees: sin(30)/(2*32e9)."""
    d = steering_delay(GEOM, math.radians(30.0))
    assert d[1] == pytest.approx(7.8125e-12, rel=1e-12)


def test_steering_delay_increasing_off_broadside():
    for angle_deg in (10.0, 45.0, 80.0):
        d = steering_delay(GEOM, math.radians(angle_deg))
        assert np.all(np.diff(d) > 0)


# ---------------------------------------------------------------------------
# snapshot synthesis


def test_noiseless_snapshots_unit_modulus():
    u = synth_received(GEOM, 24e9, math.radians(40.0), np.linspace(0, 1, 17))
    assert np.max(np.abs(np.abs(u) - 1.0)) <= 1e-12


def test_broadside_snapshots_identical_across_elements():
    u = synth_received(GEOM, 24e9, 0.0, [0.0, 0.25, 0.5])
    assert np.max(np.abs(u - u[0:1, :])) == 0.0


def test_snapshot_closed_form():
    # modest phase magnitude so association order cannot blur the oracle
    t = np.array([0.3])
    theta = math.radians(35.0)
    geom = ArrayGeometry(8, 0.25)
    u = synth_received(geom, 27.0, theta, t)
    delays = steering_delay(geom, theta)
    for k in range(geom.n_elements):
        want = np.exp(-2j * np.pi * 27.0 * (t[0] - delays[k]))
        assert abs(u[k, 0] - want) <= 5e-14


def test_snapshot_element_phase_progression_at_carrier():
    """At t=0 the inter-element phase ramp e^(2 pi j f delay_k) is the whole
    signal; this is the geometry the beamformer learns."""
    theta = math.radians(35.0)
    u = synth_received(GEOM, 27e9, theta, np.array([0.0]))
    delays = steering_delay(GEOM, theta)
    want = np.exp(2j * np.pi * 27e9 * delays)
    assert np.max(np.abs(u[:, 0] - want)) <= 1e-12


def test_noise_component_std():
    # the noise make_dataset adds: the same set at noise 0.1 and at noise 0
    n = GEOM.n_elements
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
    geom = ArrayGeometry(n, half_wavelength_spacing())
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
        clean = synth_received(geom, freq, theta, t_grid)
        for j in range(samples_per_angle):
            u = clean[:, j]
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
    tr, va = split_dataset(ds, 0.8, seed=0)
    assert tr.n_samples == 2400 and va.n_samples == 600
    for theta in np.unique(ds.angle):
        assert np.sum(tr.angle == theta) == 800
        assert np.sum(va.angle == theta) == 200


def test_split_disjoint_and_exhaustive():
    ds = small_ds()
    tr, va = split_dataset(ds, 0.8, seed=3)
    key = lambda d: {tuple(row) for row in d.x}
    all_rows = key(ds)
    assert key(tr) | key(va) == all_rows
    assert not (key(tr) & key(va))
    assert tr.n_samples + va.n_samples == ds.n_samples


def test_split_seed_determinism():
    ds = small_ds()
    a1, _ = split_dataset(ds, 0.8, seed=5)
    a2, _ = split_dataset(ds, 0.8, seed=5)
    b, _ = split_dataset(ds, 0.8, seed=6)
    assert np.array_equal(a1.x, a2.x)
    assert not np.array_equal(a1.x, b.x)


def test_split_fraction_validation():
    ds = small_ds()
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            split_dataset(ds, bad, seed=0)


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
@pytest.mark.parametrize("array, edit", [
    ("y", lambda v: math.nan), ("x", lambda v: math.nan), ("y", lambda v: v + 1e-6),
], ids=["nan_target", "nan_input", "finite_drift"])
def test_load_rejects_nan_and_drifted_entries(tmp_path, fmt, array, edit):
    # verify_targets returns NaN for a NaN anywhere in x or y, and NaN fails
    # every comparison: the check must reject unless the error is <= 1e-9
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
    with pytest.raises(ValueError, match="deviate"):
        load(str(p))


@pytest.mark.parametrize("field, value", [
    ("n", 0), ("n", 1), ("sample_rate", 0.0), ("sample_rate", -32e9),
    ("sample_rate", float("nan")),
])
def test_load_rejects_bad_header_values(tmp_path, field, value):
    # n = 0 or a zero rate used to reach transform_alpha and divide by zero;
    # n is bytes 8-11 and the sample rate bytes 28-35 of the header
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


@pytest.mark.parametrize("freq", [0.0, -24e9])
def test_zero_and_negative_freq_save_and_load(tmp_path, freq):
    ds = make_dataset(4, freq, [30.0, 40.0], 5, 0.1, seed=3)
    p = tmp_path / "d.dvmb"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    assert back.freq == freq and np.array_equal(back.y, ds.y)


@pytest.mark.parametrize("seed", [-1, 2**63, 1.5])
def test_csv_load_rejects_seed_a_dataset_file_cannot_hold(tmp_path, seed):
    p = tmp_path / "d.csv"
    save_dataset_csv(small_ds(), str(p))
    with pytest.raises(ValueError, match="seed"):
        load_dataset_csv(str(p), seed=seed)


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
                   sample_rate=32e9, spacing=half_wavelength_spacing(),
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
