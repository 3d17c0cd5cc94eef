"""Network-layer tests: real/complex splitting, forward semantics, exact
transform initialization, parameter counting, and serialization."""

import math

import numpy as np
import pytest

from dvmbeam import network
from dvmbeam.dvm import DvmSpec, scaled_dvm_dense
from dvmbeam.network import (
    KIND_DENSE,
    KIND_STRUCTURED,
    Network,
    NetworkConfig,
    build_network,
    count_parameters,
    expected_param_count,
    forward,
    init_from_dvm,
    leaky_relu,
    load_network,
    real_join,
    real_split,
    save_network,
)
from dvmbeam.training import backward


def exact_net(n, p=1, l_layers=5, alpha=None):
    """Structured net in the exact-transform configuration: identity
    activation, unit delay, chirp-exact parameters."""
    if alpha is None:
        alpha = complex(np.exp(-2j * np.pi * 24e9 / (32e9 * n)))
    cfg = NetworkConfig(n=n, p=p, l_layers=l_layers, kind=KIND_STRUCTURED,
                        activation_slope=1.0, delay_alpha=1.0 + 0.0j, seed=0)
    return init_from_dvm(build_network(cfg), alpha), alpha


# ---------------------------------------------------------------------------
# splitting and activation


def test_real_split_examples():
    assert np.array_equal(real_split(np.array([1 + 2j])), [1.0, 2.0])
    assert np.array_equal(real_split(np.array([1j, -1j])), [0.0, 0.0, 1.0, -1.0])


def test_real_split_join_roundtrip():
    rng = np.random.default_rng(40)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.array_equal(real_join(real_split(x)), x)


def test_leaky_relu_examples():
    assert leaky_relu(3.0, 0.2) == 3.0
    assert leaky_relu(-1.0, 0.2) == pytest.approx(-0.2)
    assert leaky_relu(0.0, 0.7) == 0.0
    out = leaky_relu(np.array([-2.0, 0.0, 5.0]), 0.5)
    assert np.array_equal(out, [-1.0, 0.0, 5.0])


def test_real_join_keeps_signed_zeros():
    x = np.array([-0.0, 0.0, 1.5, -0.0, -0.0, np.inf])
    z = real_join(x)
    assert real_split(z).tobytes() == x.tobytes()


@pytest.mark.parametrize("slope", [0.0, 0.2, 0.999, 1.0, 2.5])
def test_leaky_relu_equals_where_bitwise(slope):
    # the max/min form must not differ from np.where anywhere, signed zeros,
    # infinities and subnormals included
    edge = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, 5e-324, -5e-324,
                     2.2e-308, -2.2e-308, 1e308, -1e308, np.nan])
    x = np.concatenate([edge, np.random.default_rng(44).standard_normal(1000)])
    with np.errstate(over="ignore", invalid="ignore"):  # 2.5 * 1e308, 0 * inf
        want = np.where(x >= 0, x, slope * x)
        assert leaky_relu(x, slope).tobytes() == want.tobytes()
        out = np.full_like(x, 7.0)
        leaky_relu(x, slope, out=out)
        assert out.tobytes() == want.tobytes()
        x2 = x.copy()
        leaky_relu(x2, slope, out=x2)
        assert x2.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n=3)
    with pytest.raises(ValueError):
        NetworkConfig(n=8, p=0)
    with pytest.raises(ValueError):
        NetworkConfig(n=8, depth=5)  # complex chain size is 16, log2 = 4
    with pytest.raises(ValueError):
        NetworkConfig(n=8, l_layers=6)
    with pytest.raises(ValueError):
        NetworkConfig(n=8, delay_alpha=2.0 + 0.0j)
    with pytest.raises(ValueError):
        NetworkConfig(n=8, kind="perceptron")
    # n and p are integers: a float, a string or a bool is refused by the
    # config, not later in build_network; a numpy integer is stored as int
    for n in (16.0, 16.5, "16", None, True, np.float64(16)):
        with pytest.raises(ValueError, match="n must be a power of two >= 2"):
            NetworkConfig(n=n)
    for p in (2.0, 1.5, "2", None, True):
        with pytest.raises(ValueError, match="p must be an integer >= 1"):
            NetworkConfig(n=16, p=p)
    cfg = NetworkConfig(n=np.int64(16), p=np.int32(2))
    assert (type(cfg.n), type(cfg.p), cfg.depth) == (int, int, 5)
    assert cfg == NetworkConfig(n=16, p=2)


@pytest.mark.parametrize("field,value", [
    ("depth", 3.0), ("depth", 3.7), ("depth", True), ("depth", "3"), ("depth", -1),
    ("l_layers", 9.0), ("l_layers", 9.9), ("l_layers", True), ("l_layers", "9"),
    ("l_layers", 1),
])
def test_config_counts_must_be_integers(field, value):
    # a float depth or l_layers used to pass the config and fail later in
    # build_network with a TypeError; a bool passed as 1
    with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
        NetworkConfig(n=16, **{field: value})
    cfg = NetworkConfig(n=16, depth=np.int64(3), l_layers=np.int32(9))
    assert (type(cfg.depth), type(cfg.l_layers)) == (int, int)
    assert cfg == NetworkConfig(n=16, depth=3, l_layers=9)


@pytest.mark.parametrize("seed", [-1, 2**63, 2.0, 2.5, "2", None])
def test_config_seed_must_fit_the_header_field(seed):
    with pytest.raises(ValueError, match="seed must be an integer in 0..2\\*\\*63-1"):
        NetworkConfig(n=4, seed=seed)
    assert NetworkConfig(n=4, seed=2**63 - 1).seed == 2**63 - 1


def test_config_roundtrip():
    # the dict holds the fields: the resolved depth, and delay_alpha as
    # [re, im]; with alpha rebuilt it makes the same config again
    cfg = NetworkConfig(n=16, p=2, depth=3, kind=KIND_DENSE,
                        delay_alpha=complex(np.exp(0.3j)), seed=9)
    d = cfg.to_dict()
    assert NetworkConfig(**{**d, "delay_alpha": complex(*d["delay_alpha"])}) == cfg
    assert NetworkConfig(n=16).to_dict()["depth"] == 5


def test_default_depth_schedule():
    # the default depth is resolved when the config is built, for both kinds
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        for n, depth in ((2, 1), (4, 2), (8, 4), (16, 5), (32, 6), (64, 6), (1024, 10)):
            cfg = NetworkConfig(n=n, kind=kind)
            assert cfg.depth == cfg.resolved_depth == depth
            assert cfg == NetworkConfig(n=n, depth=depth, kind=kind)


# ---------------------------------------------------------------------------
# forward semantics


def test_forward_shape_contract():
    rng = np.random.default_rng(41)
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        for n, p in ((4, 1), (8, 2)):
            cfg = NetworkConfig(n=n, p=p, kind=kind, seed=1)
            net = build_network(cfg)
            y, trace = forward(net, rng.normal(size=2 * n), want_trace=True)
            assert y.shape == (2 * n,)
            blk = trace.block_traces[0]
            # hidden carriers: 2pn complex rows, the 4pn real-split values
            assert blk.y1.shape == (2 * p * n, 1) and blk.y1.dtype == np.complex128
            assert blk.y3.shape == (2 * p * n, 1) and blk.y3.dtype == np.complex128


def test_forward_zero_input_zero_output():
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        net = build_network(NetworkConfig(n=8, kind=kind, seed=2))
        y, _ = forward(net, np.zeros(16))
        assert np.max(np.abs(y)) == 0.0


def test_forward_batch_matches_columns():
    rng = np.random.default_rng(42)
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        net = build_network(NetworkConfig(n=4, kind=kind, seed=3))
        xb = rng.normal(size=(8, 5))
        yb, _ = forward(net, xb)
        for j in range(5):
            y, _ = forward(net, xb[:, j])
            assert np.max(np.abs(yb[:, j] - y)) <= 1e-14


def test_forward_shape_mismatch():
    net = build_network(NetworkConfig(n=4, seed=0))
    with pytest.raises(ValueError):
        forward(net, np.zeros(7))


def test_delay_layer_is_isometry():
    rng = np.random.default_rng(43)
    alpha = complex(np.exp(0.813j))
    net = build_network(NetworkConfig(n=8, delay_alpha=alpha, seed=4))
    _, trace = forward(net, rng.normal(size=16), want_trace=True)
    blk = trace.block_traces[0]
    # the skip diagonal starts at zero, so y3 is the delayed activation
    assert abs(np.linalg.norm(blk.y3) - np.linalg.norm(blk.y1)) <= 1e-12


@pytest.mark.parametrize("cfg", [
    NetworkConfig(n=8, p=2, delay_alpha=complex(np.exp(0.4j)), seed=6),
    NetworkConfig(n=4, kind=KIND_DENSE, l_layers=9, seed=8),
], ids=["complex-p2", "dense-L9"])
def test_traces_own_their_arrays(cfg):
    # two traced forwards, then both backwards, give the packs of two
    # interleaved forward/backward pairs: no trace shares an array that a
    # later pass or a backward writes
    net = build_network(cfg)
    rng = np.random.default_rng(45)
    net.set_flat(net.get_flat() + 0.1 * rng.standard_normal(net.param_count()))
    xa, xb, ta, tb = (rng.standard_normal((2 * cfg.n, 5)) for _ in range(4))
    packs = []
    for x, t in ((xa, ta), (xb, tb)):
        _, trace = forward(net, x, want_trace=True)
        packs.append(backward(net, trace, t).to_flat(net))
    _, trace_a = forward(net, xa, want_trace=True)
    _, trace_b = forward(net, xb, want_trace=True)
    assert backward(net, trace_a, ta).to_flat(net).tobytes() == packs[0].tobytes()
    assert backward(net, trace_b, tb).to_flat(net).tobytes() == packs[1].tobytes()
    # a trace survives its own backward
    assert backward(net, trace_a, ta).to_flat(net).tobytes() == packs[0].tobytes()


@pytest.mark.parametrize("caller_bufsize", [8192, 1 << 16])
@pytest.mark.parametrize("kind", [KIND_STRUCTURED, KIND_DENSE])
def test_forward_restores_the_callers_ufunc_state(monkeypatch, caller_bufsize, kind):
    # a wide pass runs every block under 512-entry ufunc buffers, traced or
    # not; a 32-column training chunk (1,024 carrier entries) keeps the
    # caller's; either way the caller's buffer size and error state come back,
    # also when the pass raises
    net = build_network(NetworkConfig(n=16, kind=kind))
    seen = []
    block_forward = network._block_forward

    def spy(*args):
        seen.append(np.getbufsize())
        return block_forward(*args)

    monkeypatch.setattr(network, "_block_forward", spy)
    x = np.random.default_rng(5).standard_normal((32, 3100))
    wide = 3 if kind == KIND_STRUCTURED else 1  # column blocks of the untraced pass
    with np.errstate(over="raise", under="warn"):
        np.setbufsize(caller_bufsize)
        state = np.geterr()
        for xin, trace, want in ((x[:, :32], True, [caller_bufsize]), (x, False, [512] * wide),
                                 (x, True, [512])):
            seen.clear()
            forward(net, xin, want_trace=trace)
            assert seen == want
            assert np.getbufsize() == caller_bufsize and np.geterr() == state

        def failing(*args):
            raise FloatingPointError("block failed")

        monkeypatch.setattr(network, "_block_forward", failing)
        with pytest.raises(FloatingPointError, match="block failed"):
            forward(net, x)
        assert np.getbufsize() == caller_bufsize and np.geterr() == state
    assert np.getbufsize() == 8192


def test_delay_exponents_run_zero_to_2pn_minus_1():
    alpha = complex(np.exp(-0.25j))
    net = build_network(NetworkConfig(n=4, p=2, delay_alpha=alpha, seed=5))
    k = np.arange(16)
    assert np.max(np.abs(net.delay - alpha ** k)) <= 1e-12


def densified_forward(net, x):
    """Independent oracle: rebuild each structured layer as a dense complex
    matrix and run the block arithmetic with plain numpy."""
    cfg = net.config
    n, p, m = cfg.n, cfg.p, cfg.m
    pad = np.zeros((m, n), dtype=complex)
    pad[:n] = np.eye(n)
    y = np.asarray(x, dtype=float)
    eyes = np.tile(np.eye(m, dtype=complex), (p, 1, 1))
    for blk in net.blocks:
        x_c = y[:n] + 1j * y[n:]
        # each chain of the stack of p, densified on its own identity
        f_dense, fstar_dense = blk.f_chain.apply(eyes), blk.fstar_chain.apply(eyes)
        parts = []
        for i in range(p):
            w1_sub = (np.diag(blk.d_breve[i]) @ f_dense[i]
                      @ pad @ np.diag(blk.d_hat[i]))
            parts.append(w1_sub @ x_c)
        z = np.concatenate(parts)
        pre1 = np.concatenate([z.real, z.imag]) + blk.bias1
        y1 = np.where(pre1 >= 0, pre1, cfg.activation_slope * pre1)
        half = cfg.hidden // 2
        y1_c = y1[:half] + 1j * y1[half:]
        y2_c = net.delay * y1_c
        y2 = np.concatenate([y2_c.real, y2_c.imag])
        y3 = y2 + blk.skip * y1
        y3_c = y3[:half] + 1j * y3[half:]
        v = np.zeros(n, dtype=complex)
        for i in range(p):
            w4_sub = (np.diag(blk.d_hat[i])
                      @ fstar_dense[i][:n])
            v = v + w4_sub @ y3_c[i * m:(i + 1) * m]
        y = np.concatenate([v.real, v.imag]) + blk.bias_out
    return y


def test_structured_forward_equals_densified():
    rng = np.random.default_rng(44)
    for n, p, trials in ((4, 1, 50), (16, 1, 10), (4, 2, 10)):
        net = build_network(NetworkConfig(n=n, p=p, seed=6,
                                          delay_alpha=complex(np.exp(0.4j))))
        for _ in range(trials):
            x = rng.normal(size=2 * n)
            got, _ = forward(net, x)
            want = densified_forward(net, x)
            assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# exact transform initialization


def test_exact_init_matches_dense_transform():
    """The keystone identity: chirp-exact parameters, identity activation,
    unit delay, zero biases -> the network IS the scaled transform."""
    rng = np.random.default_rng(45)
    for n in (4, 8, 16):
        net, alpha = exact_net(n)
        dense = scaled_dvm_dense(DvmSpec(n, alpha))
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=2 * n)
            y, _ = forward(net, x)
            want = real_split(dense @ (x[:n] + 1j * x[n:]))
            worst = max(worst, float(np.max(np.abs(y - want))))
        assert worst <= 1e-9, f"n={n}: {worst}"


def test_exact_init_multi_block_composes():
    n = 8
    net, alpha = exact_net(n, l_layers=9)
    assert len(net.blocks) == 2
    dense = scaled_dvm_dense(DvmSpec(n, alpha))
    rng = np.random.default_rng(46)
    x = rng.normal(size=2 * n)
    y, _ = forward(net, x)
    want = real_split(dense @ (dense @ (x[:n] + 1j * x[n:])))
    assert np.max(np.abs(y - want)) <= 1e-8


def test_exact_init_is_deterministic():
    a, _ = exact_net(8)
    b, _ = exact_net(8)
    assert np.array_equal(a.get_flat(), b.get_flat())


def test_exact_init_rejects_dense_and_real_mode():
    with pytest.raises(ValueError):
        init_from_dvm(build_network(NetworkConfig(n=8, kind=KIND_DENSE)), 1j)
    # nor can a real-mode network be configured: parameters are complex
    with pytest.raises(TypeError, match="param_mode"):
        NetworkConfig(n=8, param_mode="real")
    # an alpha off the unit circle is refused by its transform spec
    with pytest.raises(ValueError, match="unit modulus"):
        init_from_dvm(build_network(NetworkConfig(n=8)), 2.0)


def test_exact_init_leaves_frozen_structure_alone():
    net = build_network(NetworkConfig(n=8, delay_alpha=complex(np.exp(0.3j)),
                                      seed=8))
    before = net.delay.copy()
    init_from_dvm(net, complex(np.exp(-0.5j)))
    assert np.array_equal(net.delay, before)
    assert not any("delay" in slot.path for slot in net.layout)


# ---------------------------------------------------------------------------
# parameter counting


def test_ffnn_counts_match_table():
    # 2*(2pM*M) + 2pM + 2pM + M with M = 2N
    for n, want in ((8, 1104), (16, 4256), (32, 16704)):
        net = build_network(NetworkConfig(n=n, kind=KIND_DENSE))
        assert net.param_count() == want
        m = 2 * n
        assert want == 2 * (2 * m * m) + 2 * m + 2 * m + m


def test_structured_counts_frozen_and_banded():
    # the tied-scaling counting convention, pinned exactly, then checked
    # against the published targets at +-15%
    for n, frozen, target in ((8, 192, 220), (16, 384, 428), (32, 768, 716)):
        net = build_network(NetworkConfig(n=n, kind=KIND_STRUCTURED))
        got = net.param_count()
        assert got == frozen
        assert abs(got - target) / target <= 0.15


def test_complex_diagonal_counts_two_reals_each():
    net = build_network(NetworkConfig(n=16))
    slot = next(s for s in net.layout if s.path == "block0.w1.sub0.d_hat")
    arr, kind = slot.view(net.flat), slot.kind
    assert kind == "complex" and arr.size == 16
    assert arr.size * 2 == 32


def test_weight_reduction_at_n16():
    stnn = build_network(NetworkConfig(n=16)).param_count()
    ffnn = build_network(NetworkConfig(n=16, kind=KIND_DENSE)).param_count()
    assert (ffnn - stnn) / ffnn >= 0.85


def test_count_parameters_breakdown_sums_to_total():
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        net = build_network(NetworkConfig(n=8, kind=kind))
        counts = count_parameters(net)
        assert counts["total"] == net.param_count()
        assert sum(counts["by_layer"].values()) == counts["total"]


def test_p_scales_submatrices():
    one = build_network(NetworkConfig(n=8, p=1))
    two = build_network(NetworkConfig(n=8, p=2))
    assert two.param_count() > one.param_count()
    assert two.config.hidden == 2 * one.config.hidden


# ---------------------------------------------------------------------------
# flat vector plumbing


def test_flat_roundtrip():
    rng = np.random.default_rng(48)
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        net = build_network(NetworkConfig(n=8, kind=kind, seed=9))
        flat = net.get_flat()
        noise = rng.normal(size=flat.size)
        net.set_flat(flat + noise)
        assert np.allclose(net.get_flat(), flat + noise, atol=0)
        with pytest.raises(ValueError):
            net.set_flat(flat[:-1])


# configurations covering both kinds, p > 1, depth 0 and repeated blocks
BUFFER_CONFIGS = [
    NetworkConfig(n=8, seed=1),
    NetworkConfig(n=4, p=2, l_layers=9, seed=3),
    NetworkConfig(n=4, depth=0, seed=5),
    NetworkConfig(n=8, kind=KIND_DENSE, l_layers=9, seed=6),
    # a stack of p submatrices is one strided view over its p slots
    NetworkConfig(n=4, p=3, depth=0, seed=12),
    NetworkConfig(n=8, p=3, depth=4, l_layers=9, seed=13),
]


def _cfg_id(cfg):
    """Test id of a config: kind, parameter type (always complex) and p."""
    return f"{cfg.kind}-complex-p{cfg.p}"


def _block_arrays(net):
    """Every trainable array as the forward pass reaches it, by path."""
    out = {}
    dense = net.config.kind == KIND_DENSE
    for b, blk in enumerate(net.blocks):
        # a structured block's w1 and w4 are its submatrix rows, not slots
        for name in ("bias1", "skip", "bias_out") + (("w1", "w4") if dense else ()):
            out[f"block{b}.{name}"] = getattr(blk, name)
        if dense:
            continue
        for i in range(net.config.p):
            out[f"block{b}.w1.sub{i}.d_hat"] = blk.d_hat[i]
            out[f"block{b}.w1.sub{i}.d_breve"] = blk.d_breve[i]
            for side, chain in (("w1", blk.f_chain), ("w4", blk.fstar_chain)):
                tag = "f" if side == "w1" else "fstar"
                for lvl, tw in enumerate(chain.twiddles):
                    out[f"block{b}.{side}.sub{i}.{tag}.twiddle{lvl}"] = tw[i:i + 1]
                out[f"block{b}.{side}.sub{i}.{tag}.leaf"] = chain.leaf[i:i + 1]
    return out


def _unpack(flat, net):
    """Decode a flat vector into arrays by path, re/im pairs interleaved."""
    out, pos = {}, 0
    for slot in net.layout:
        size = math.prod(slot.shape)
        if slot.kind == "complex":
            chunk = flat[pos : pos + 2 * size]
            out[slot.path] = (chunk[0::2] + 1j * chunk[1::2]).reshape(slot.shape)
        else:
            out[slot.path] = flat[pos : pos + size].reshape(slot.shape)
        pos += size * (2 if slot.kind == "complex" else 1)
    assert pos == flat.size
    return out


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_set_flat_shows_in_every_parameter_array(cfg):
    net = build_network(cfg)
    theta = np.random.default_rng(50).normal(size=net.param_count())
    net.set_flat(theta)
    want = _unpack(theta, net)
    entries = {slot.path: slot.view(net.flat) for slot in net.layout}
    reached = _block_arrays(net)
    assert set(entries) == set(reached) == set(want)
    for path, ref in want.items():
        assert np.array_equal(entries[path], ref), path
        assert np.array_equal(reached[path], ref), path
        assert np.shares_memory(reached[path], net.flat), path


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_parameter_array_write_shows_in_get_flat(cfg):
    net = build_network(cfg)
    for path, arr in _block_arrays(net).items():
        before = net.get_flat()
        arr[...] = arr * 2 + (1 + 1j if np.iscomplexobj(arr) else 1)
        after = net.get_flat()
        assert np.array_equal(_unpack(after, net)[path], arr), path
        others = {p: v for p, v in _unpack(after, net).items() if p != path}
        ref = {p: v for p, v in _unpack(before, net).items() if p != path}
        assert all(np.array_equal(v, ref[p]) for p, v in others.items()), path


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_complex_parameter_views_are_aligned(cfg):
    net = build_network(cfg)
    for slot in net.layout:
        arr = slot.view(net.flat)
        if slot.kind == "complex":
            assert arr.dtype == np.complex128
            assert arr.ctypes.data % 16 == 0 and arr.flags.aligned, slot.path


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_gradient_twin_arrays_match_their_parameters(cfg):
    # the reverse pass reaches the twin's arrays by the attributes the
    # forward pass reads, so each must be its parameter's shape and dtype
    net = build_network(cfg)
    x = np.random.default_rng(51).normal(size=(2 * cfg.n, 3))
    _, trace = forward(net, x, want_trace=True)
    backward(net, trace, np.zeros_like(x))
    twin = net._grads
    assert twin.layout == net.layout
    params, grads = _block_arrays(net), _block_arrays(twin)
    assert set(grads) == set(params)
    for path, arr in params.items():
        assert (grads[path].shape, grads[path].dtype) == (arr.shape, arr.dtype), path
        assert np.shares_memory(grads[path], twin.flat), path


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_submatrix_rows_are_their_slots_in_layout_order(cfg):
    # row i of a structured block's w1 (w4) is the concatenation of the
    # block{b}.w1.sub{i}.* (w4) slots, in layout order; a dense block's w1
    # and w4 are one slot each
    net = build_network(cfg)
    entries = {slot.path: slot.view(net.flat) for slot in net.layout}
    for b, blk in enumerate(net.blocks):
        for side in ("w1", "w4"):
            rows = getattr(blk, side)
            assert np.shares_memory(rows, net.flat)
            if cfg.kind == KIND_DENSE:
                assert np.array_equal(rows, entries[f"block{b}.{side}"])
                continue
            assert rows.shape[0] == cfg.p
            for i in range(cfg.p):
                prefix = f"block{b}.{side}.sub{i}."
                parts = [arr.ravel() for path, arr in entries.items() if path.startswith(prefix)]
                assert np.array_equal(rows[i], np.concatenate(parts)), prefix


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=_cfg_id)
def test_network_of_a_config_is_the_zero_network(cfg):
    net = Network(cfg)
    assert net.layout == build_network(cfg).layout
    assert net.flat.shape == (expected_param_count(cfg),) and not net.flat.any()


@pytest.mark.parametrize("extra", [-2, 2])
def test_network_refuses_a_count_its_layout_does_not_fill(monkeypatch, extra):
    import dvmbeam.network as network

    cfg = NetworkConfig(n=4, p=2)
    count = expected_param_count(cfg)
    monkeypatch.setattr(network, "expected_param_count", lambda c: count + extra)
    # too short a vector cannot hold the last slot; too long a one ends past it
    with pytest.raises(TypeError if extra < 0 else RuntimeError):
        Network(cfg)


def test_get_flat_is_a_copy():
    net = build_network(NetworkConfig(n=4, seed=15))
    flat = net.get_flat()
    flat += 1.0
    assert not np.array_equal(net.get_flat(), flat)
    assert not np.shares_memory(flat, net.flat)


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS + [
    NetworkConfig(n=16, depth=3, seed=7),
    NetworkConfig(n=2, depth=2, seed=8),
    NetworkConfig(n=4, p=3, kind=KIND_DENSE, seed=10),
], ids=lambda c: f"{_cfg_id(c)}-d{c.depth}")
def test_expected_param_count_matches_built_network(cfg):
    assert expected_param_count(cfg) == build_network(cfg).param_count()


def test_chain_entries_is_each_chains_share_of_the_layout():
    from dvmbeam.dvm import RecursiveDftChain, chain_entries

    for size in (2, 4, 8, 16, 32, 64):
        for depth in range(size.bit_length()):
            e = chain_entries(size, depth)
            # the chain's own arrays: one diagonal per level, then the leaf
            chain = RecursiveDftChain(size, depth, np.zeros((1, e), complex))
            assert sum(a.size for a in chain.param_arrays()) == e, (size, depth)
            if size < 4:
                continue  # a network's chains have size 2n >= 4
            n = size // 2
            for p in (1, 3):
                cfg = NetworkConfig(n=n, p=p, depth=depth)
                blk = Network(cfg).blocks[0]
                # _carve's rows: d_hat, input chain, d_breve; the output chain
                assert blk.w1.shape == (p, n + e + size) and blk.w4.shape == (p, e)
                # expected_param_count: per block, p pairs of complex rows
                # plus bias1, skip (hidden each) and bias_out (2n)
                per_block = expected_param_count(cfg) // cfg.blocks_count
                share = (per_block - 2 * cfg.hidden - 2 * n) // (2 * p) - n - size
                assert share == 2 * e, (size, depth, p)


# ---------------------------------------------------------------------------
# serialization


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(49)
    for kind in (KIND_STRUCTURED, KIND_DENSE):
        cfg = NetworkConfig(n=8, kind=kind, seed=11,
                            delay_alpha=complex(np.exp(0.21j)))
        net = build_network(cfg)
        net.set_flat(net.get_flat() + rng.normal(size=net.param_count()))
        path = tmp_path / f"{kind}.stnn"
        save_network(net, str(path))
        back = load_network(str(path))
        # the config holds its resolved depth, which is what the file stores
        assert back.config == cfg
        assert np.array_equal(back.get_flat(), net.get_flat())


@pytest.mark.parametrize("cfg", BUFFER_CONFIGS + [NetworkConfig(n=8, seed=2**63 - 1)],
                         ids=lambda c: f"{_cfg_id(c)}-s{c.seed}")
def test_load_builds_the_layout_without_drawing(tmp_path, monkeypatch, cfg):
    net = build_network(cfg)
    net.set_flat(net.get_flat() + np.random.default_rng(48).normal(size=net.param_count()))
    path, again = tmp_path / "net.stnn", tmp_path / "again.stnn"
    save_network(net, str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("load_network drew a random initialization")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    back = load_network(str(path))
    assert back.layout == net.layout
    assert back.get_flat().tobytes() == net.get_flat().tobytes()
    save_network(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_negative_seed_naming_file_and_byte(tmp_path):
    net = build_network(NetworkConfig(n=4, seed=18))
    good = tmp_path / "good.stnn"
    save_network(net, str(good))
    bad = tmp_path / "bad.stnn"
    bad.write_bytes(_rewrite_header(good.read_bytes(), 60, "<q", -3))
    with pytest.raises(ValueError) as err:
        load_network(str(bad))
    assert str(bad) in str(err.value) and "seed -3 (byte 60)" in str(err.value)


def test_binary_save_is_deterministic(tmp_path):
    net = build_network(NetworkConfig(n=4, seed=12))
    a, b = tmp_path / "a.stnn", tmp_path / "b.stnn"
    save_network(net, str(a))
    save_network(net, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    net = build_network(NetworkConfig(n=4, seed=13))
    good = tmp_path / "good.stnn"
    save_network(net, str(good))
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.stnn"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        load_network(str(bad_magic))

    truncated = tmp_path / "short.stnn"
    truncated.write_bytes(bytes(raw[:20]))
    with pytest.raises(ValueError):
        load_network(str(truncated))

    clipped = tmp_path / "clipped.stnn"
    clipped.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError):
        load_network(str(clipped))


def _rewrite_header(raw, offset, fmt, value):
    import struct

    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


@pytest.mark.parametrize("offset,value", [(8, 1024), (20, 4 * 10**9 + 1)],
                         ids=["n1024", "huge_l_layers"])
def test_load_checks_header_before_building(tmp_path, monkeypatch, offset, value):
    import dvmbeam.network as network

    net = build_network(NetworkConfig(n=4, seed=16))
    good = tmp_path / "good.stnn"
    save_network(net, str(good))
    bad = tmp_path / "bad.stnn"
    bad.write_bytes(_rewrite_header(good.read_bytes(), offset, "<I", value))

    def refuse(cfg):
        raise AssertionError(f"built a network from an unchecked header: {cfg}")

    monkeypatch.setattr(network, "Network", refuse)
    with pytest.raises(ValueError, match="does not match"):
        load_network(str(bad))


@pytest.mark.parametrize("offset,name", [(26, "tie-scaling"), (27, "share-siblings")])
def test_load_rejects_flag_byte_zero(tmp_path, offset, name):
    # bytes 26 and 27 are always 1; a 0 there asked for a structure that is
    # no longer built
    net = build_network(NetworkConfig(n=4, seed=17))
    path = tmp_path / "net.stnn"
    save_network(net, str(path))
    raw = bytearray(path.read_bytes())
    assert raw[offset] == 1
    raw[offset] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{name} flag 0 \\(byte {offset}\\) must be 1"):
        load_network(str(path))


@pytest.mark.parametrize("offset,name", [(26, "tie-scaling"), (27, "share-siblings")])
def test_load_rejects_flag_bytes_other_than_0_or_1(tmp_path, offset, name):
    net = build_network(NetworkConfig(n=4, seed=17))
    path = tmp_path / "net.stnn"
    save_network(net, str(path))
    raw = bytearray(path.read_bytes())
    raw[offset] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{name} flag 7 \\(byte {offset}\\)"):
        load_network(str(path))


def test_load_rejects_a_real_parameter_mode_file(tmp_path):
    # byte 25 is always 0, complex; a file with real parameters carries 1
    net = build_network(NetworkConfig(n=4, seed=20))
    path = tmp_path / "net.stnn"
    save_network(net, str(path))
    raw = bytearray(path.read_bytes())
    assert raw[25] == 0
    raw[25] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="parameter mode code 1 \\(byte 25\\)"):
        load_network(str(path))


@pytest.mark.parametrize("offset,value,field", [
    (36, math.nan, "delay_alpha"), (44, math.nan, "delay_alpha"), (36, math.inf, "delay_alpha"),
    (28, math.nan, "activation_slope"), (28, math.inf, "activation_slope"),
    (28, -math.inf, "activation_slope"),
], ids=["alpha_re_nan", "alpha_im_nan", "alpha_re_inf", "slope_nan", "slope_inf",
        "slope_neg_inf"])
def test_load_rejects_non_finite_header_floats(tmp_path, offset, value, field):
    # NaN fails every comparison, so a check written as "reject if x > limit"
    # let these through and eval printed an MSE of nan
    net = build_network(NetworkConfig(n=4, seed=19))
    good = tmp_path / "good.stnn"
    save_network(net, str(good))
    bad = tmp_path / "bad.stnn"
    bad.write_bytes(_rewrite_header(good.read_bytes(), offset, "<d", value))
    with pytest.raises(ValueError, match=field):
        load_network(str(bad))


@pytest.mark.parametrize("kwargs", [
    dict(delay_alpha=complex(math.nan, 0.0)), dict(delay_alpha=complex(0.0, math.nan)),
    dict(delay_alpha=complex(math.inf, 0.0)), dict(activation_slope=math.nan),
    dict(activation_slope=math.inf), dict(activation_slope=-0.1),
], ids=["alpha_re_nan", "alpha_im_nan", "alpha_re_inf", "slope_nan", "slope_inf", "slope_neg"])
def test_config_rejects_non_finite_or_bad_floats(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        NetworkConfig(n=4, **kwargs)

