"""The block pass against the one it replaced, byte for byte.

The reference below is the block pass as it stood before the hidden vector
moved onto one complex carrier: hidden rows laid out as real-split
[real section | imaginary section], complex values rebuilt with re + 1j*im
at every layer, the input chain run on a zero-padded buffer, and the
activation and its derivative taken with np.where.  The carrier pass does
the same arithmetic on every value, so outputs, gradients and batch
gradients must match it exactly, not to a tolerance.
"""

import numpy as np
import pytest

from dvmbeam import network
from dvmbeam.dvm import RecursiveDftChain, _random_start, build_recursive_dft_chain, chain_entries
from dvmbeam.network import (
    KIND_DENSE,
    Network,
    NetworkConfig,
    build_network,
    forward,
    init_from_dvm,
)
from dvmbeam.training import _CHUNK_COLS, _batch_grads, backward


# ---------------------------------------------------------------------------
# the reference: chain levels, then the block pass, as before the carrier


def _sub(chain, i):
    """Chain i of a stack, as a one-chain stack viewing its values."""
    return RecursiveDftChain(chain.size, chain.depth, chain.values[i:i + 1],
                             normalized=chain.scale != 1.0)


def _ref_chain_run(chain, x, want_trace):
    y = np.asarray(x, dtype=np.complex128).copy()
    size = chain.size
    diffs = [] if want_trace else None
    for lvl in range(chain.depth):
        block = size >> lvl
        half = block >> 1
        v = y.reshape(1 << lvl, block, -1)
        d = v[:, :half] - v[:, half:]
        if want_trace:
            diffs.append(d)
        v[:, :half] = v[:, :half] + v[:, half:]
        v[:, half:] = d * chain.twiddles[lvl][:, :, None]
    s = chain.leaf_size
    segs = y.reshape(-1, s, y.shape[-1])
    y = np.matmul(chain.leaf, segs).reshape(size, -1)[chain._perm]
    if chain.scale != 1.0:
        y *= chain.scale
    return y, ({"diffs": diffs, "leaf_in": segs} if want_trace else None)


def _ref_chain_backward(chain, trace, grad_out):
    size = chain.size
    g = np.asarray(grad_out, dtype=np.complex128)[chain._inv_perm]
    if chain.scale != 1.0:
        g *= chain.scale
    s = chain.leaf_size
    g_segs = g.reshape(-1, s, g.shape[-1])
    leaf_grad = np.matmul(g_segs, np.conj(trace["leaf_in"]).transpose(0, 2, 1))
    leaf_grad = leaf_grad.sum(axis=0, keepdims=True)
    g = np.matmul(np.conj(chain.leaf).transpose(0, 2, 1), g_segs).reshape(size, -1)
    tw_grads = [None] * chain.depth
    for lvl in range(chain.depth - 1, -1, -1):
        block = size >> lvl
        half = block >> 1
        v = g.reshape(1 << lvl, block, -1)
        g_top = v[:, :half]
        g_bot = v[:, half:]
        tw = chain.twiddles[lvl][:, :, None]
        tg = (g_bot * np.conj(trace["diffs"][lvl])).sum(axis=-1)
        tw_grads[lvl] = tg.sum(axis=0, keepdims=True)
        rot = np.conj(tw) * g_bot
        new_top = g_top + rot
        new_bot = g_top - rot
        v[:, :half] = new_top
        v[:, half:] = new_bot
        g = v.reshape(size, -1)
    return g, tw_grads, leaf_grad


def _ref_pack(re, im):
    return re + 1j * im


def _ref_unpack(c):
    return c.real, c.imag


def _ref_chain(chain, x, traces):
    y, tr = _ref_chain_run(chain, x, traces is not None)
    if traces is not None:
        traces.append(tr)
    return y


def _ref_block_forward(cfg, blk, delay, x, want_trace):
    n, m, half = cfg.n, cfg.m, cfg.hidden // 2
    dense = cfg.kind == KIND_DENSE
    chain_traces, fstar_traces = ([], []) if want_trace else (None, None)
    x_c, chain_out, t_trunc = None, [], []
    if dense:
        pre1 = blk.w1 @ x
    else:
        x_c = _ref_pack(x[:n], x[n:])
        re_parts, im_parts = [], []
        for i in range(cfg.p):
            pad = np.zeros((m, x.shape[1]), dtype=np.complex128)
            pad[: x_c.shape[0]] = blk.d_hat[i][:, None] * x_c
            c = _ref_chain(_sub(blk.f_chain, i), pad, chain_traces)
            chain_out.append(c)
            re, im = _ref_unpack(blk.d_breve[i][:, None] * c)
            re_parts.append(re)
            im_parts.append(im)
        pre1 = np.concatenate(re_parts + im_parts)
    pre1 += blk.bias1[:, None]
    y1 = np.where(pre1 >= 0, pre1, cfg.activation_slope * pre1)
    y1_c = y1[:half] + 1j * y1[half:]
    y2_c = delay[:, None] * y1_c
    y2 = np.concatenate([y2_c.real, y2_c.imag])
    y3 = y2 + blk.skip[:, None] * y1
    if dense:
        y_out = blk.w4 @ y3
    else:
        v = None
        for i in range(cfg.p):
            slot = slice(i * m, (i + 1) * m)
            chain_in = _ref_pack(y3[:half][slot], y3[half:][slot])
            t = _ref_chain(_sub(blk.fstar_chain, i), chain_in, fstar_traces)[: x_c.shape[0]]
            t_trunc.append(t)
            vi = blk.d_hat[i][:, None] * t
            v = vi if v is None else v + vi
        y_out = np.concatenate(_ref_unpack(v))
    y_out += blk.bias_out[:, None]
    trace = dict(x=x, x_c=x_c, chain_traces=chain_traces, chain_out=chain_out, pre1=pre1,
                 y1=y1, y3=y3, fstar_traces=fstar_traces, t_trunc=t_trunc)
    return y_out, trace


def ref_forward(net, x, want_trace=False):
    y = np.asarray(x, dtype=np.float64)
    flat = y.ndim == 1
    if flat:
        y = y[:, None]
    traces = []
    for blk in net.blocks:
        y, tr = _ref_block_forward(net.config, blk, net.delay, y, want_trace)
        traces.append(tr)
    return (y[:, 0] if flat else y), traces


def _ref_accumulate_chain(gchain, tw_grads, leaf_grad):
    for dst, g in zip(gchain.param_arrays(), tw_grads + [leaf_grad]):
        dst += g


def _ref_block_backward(cfg, blk, gblk, delay, tr, g_out):
    n, m, half = cfg.n, cfg.m, cfg.hidden // 2
    dense = cfg.kind == KIND_DENSE
    gblk.bias_out += g_out.sum(axis=1)
    if dense:
        gblk.w4 += g_out @ tr["y3"].T
        g_y3 = blk.w4.T @ g_out
        g_y3c = g_y3[:half] + 1j * g_y3[half:]
    else:
        g_v = _ref_pack(g_out[:n], g_out[n:])
        g_y3c = np.empty((half, g_out.shape[1]), dtype=np.complex128)
        for i in range(cfg.p):
            gblk.d_hat[i] += (g_v * np.conj(tr["t_trunc"][i])).sum(axis=1)
            g_fs = np.zeros((m, g_v.shape[1]), dtype=np.complex128)
            g_fs[: g_v.shape[0]] = np.conj(blk.d_hat[i])[:, None] * g_v
            g_ci, tw_g, leaf_g = _ref_chain_backward(_sub(blk.fstar_chain, i),
                                                     tr["fstar_traces"][i], g_fs)
            _ref_accumulate_chain(_sub(gblk.fstar_chain, i), tw_g, leaf_g)
            slot = slice(i * m, (i + 1) * m)
            g_y3c.real[slot], g_y3c.imag[slot] = _ref_unpack(g_ci)
    g_y3 = np.concatenate([g_y3c.real, g_y3c.imag])
    gblk.skip += (g_y3 * tr["y1"]).sum(axis=1)
    g_y1c = np.conj(delay)[:, None] * g_y3c
    g_y1 = np.concatenate([g_y1c.real, g_y1c.imag]) + g_y3 * blk.skip[:, None]
    g_pre1 = g_y1 * np.where(tr["pre1"] >= 0, 1.0, cfg.activation_slope)
    gblk.bias1 += g_pre1.sum(axis=1)
    if dense:
        gblk.w1 += g_pre1 @ tr["x"].T
        return blk.w1.T @ g_pre1
    g_x_c = np.zeros_like(tr["x_c"])
    for i in range(cfg.p):
        slot = slice(i * m, (i + 1) * m)
        g_z = _ref_pack(g_pre1[:half][slot], g_pre1[half:][slot])
        gblk.d_breve[i] += (g_z * np.conj(tr["chain_out"][i])).sum(axis=1)
        g_c = np.conj(blk.d_breve[i])[:, None] * g_z
        g_pad, tw_g, leaf_g = _ref_chain_backward(_sub(blk.f_chain, i), tr["chain_traces"][i], g_c)
        _ref_accumulate_chain(_sub(gblk.f_chain, i), tw_g, leaf_g)
        g_u = g_pad[: g_x_c.shape[0]]
        gblk.d_hat[i] += (g_u * np.conj(tr["x_c"])).sum(axis=1)
        g_x_c += np.conj(blk.d_hat[i])[:, None] * g_u
    return np.concatenate(_ref_unpack(g_x_c))


def ref_grads(net, x, target, norm=None):
    """Flat MSE gradient of the reference pass, laid out like net.flat."""
    y, traces = ref_forward(net, x, want_trace=True)
    if norm is None:
        norm = net.config.n * y.shape[1]
    g_out = (2.0 / norm) * (y - target)
    twin = Network(net.config)
    for b in range(len(net.blocks) - 1, -1, -1):
        g_out = _ref_block_backward(net.config, net.blocks[b], twin.blocks[b], net.delay,
                                    traces[b], g_out)
    return twin.flat.copy()


def ref_batch_grads(net, xb, tb):
    cols = xb.shape[1]
    norm = net.config.n * cols
    flat, sq_total = None, 0.0
    for a in range(0, cols, _CHUNK_COLS):
        b = min(a + _CHUNK_COLS, cols)
        y, _ = ref_forward(net, xb[:, a:b])
        sq_total += float(np.sum((y - tb[:, a:b]) ** 2))
        g = ref_grads(net, xb[:, a:b], tb[:, a:b], norm=norm)
        flat = g if flat is None else flat + g
    return flat, sq_total


# ---------------------------------------------------------------------------
# the comparisons

DELAY = complex(np.exp(-0.7j))

CONFIGS = [
    NetworkConfig(n=16, seed=1),
    NetworkConfig(n=16, p=2, depth=3, activation_slope=0.0, delay_alpha=DELAY, seed=2),
    NetworkConfig(n=8, p=2, activation_slope=0.999, l_layers=9, delay_alpha=DELAY, seed=3),
    NetworkConfig(n=8, depth=0, activation_slope=1.0, seed=4),
    NetworkConfig(n=8, depth=4, activation_slope=2.5, delay_alpha=DELAY, seed=5),
    NetworkConfig(n=4, p=2, depth=1, l_layers=9, seed=6),
    NetworkConfig(n=16, activation_slope=0.0, seed=7),
    NetworkConfig(n=8, p=2, kind=KIND_DENSE, l_layers=9, delay_alpha=DELAY, seed=10),
    NetworkConfig(n=8, kind=KIND_DENSE, activation_slope=0.0, seed=11),
    NetworkConfig(n=8, p=3, depth=2, activation_slope=0.3, l_layers=9, delay_alpha=DELAY, seed=12),
    NetworkConfig(n=4, p=3, depth=3, seed=13),
    NetworkConfig(n=4, p=4, depth=0, activation_slope=0.0, delay_alpha=DELAY, seed=14),
    NetworkConfig(n=16, p=4, l_layers=9, seed=15),
]
IDS = ["default", "p2-relu", "p2-L9", "depth0", "fulldepth-slope2.5",
       "p2-depth1-L9", "relu", "dense-p2-L9", "dense-relu",
       "p3-depth2-L9", "p3-fulldepth", "p4-depth0-relu", "p4-L9"]


def _perturbed(cfg):
    """cfg's network with every parameter moved off its initial value, so
    biases and the skip diagonal are nonzero."""
    net = build_network(cfg)
    rng = np.random.default_rng(cfg.seed + 100)
    net.set_flat(net.get_flat() + 0.1 * rng.standard_normal(net.param_count()))
    return net, rng


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_forward_equals_reference_bytes(cfg):
    net, rng = _perturbed(cfg)
    x = rng.standard_normal((2 * cfg.n, 70))
    for xin in (x[:, 5], np.ascontiguousarray(x), np.asfortranarray(x)):
        want, _ = ref_forward(net, xin)
        got, _ = forward(net, xin)
        assert _same(got, want)
        got_tr, _ = forward(net, xin, want_trace=True)
        assert _same(got_tr, want)


def _unblocked_forward(monkeypatch, net, x):
    """forward() untraced with no column blocks and no ufunc buffer switch."""
    with monkeypatch.context() as m:
        m.setattr(network, "_BLOCK_ENTRIES", 1 << 62)
        m.setattr(network, "with_ufunc_buffers", lambda entries, fn, *args: fn(*args))
        return forward(net, x)[0]


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
@pytest.mark.parametrize("half", [False, True], ids=["short-tail", "long-tail"])
def test_blocked_forward_equals_the_unblocked_pass_bytes(monkeypatch, cfg, half):
    # three column blocks of the structured kind, the last one ragged: the
    # pass is 5 columns, or nearly half a block, wider than three blocks of
    # the limit; the dense kind runs as one block, under the switch alone
    net, rng = _perturbed(cfg)
    width = network._BLOCK_ENTRIES // (cfg.p * cfg.m) // 16 * 16
    cols = 3 * width + (width // 2 - 3 if half else 5)
    runs = []
    blocks_forward = network._blocks_forward

    def spy(net, x, want_trace):
        runs.append(x.shape[1])
        return blocks_forward(net, x, want_trace)

    monkeypatch.setattr(network, "_blocks_forward", spy)
    x = rng.standard_normal((2 * cfg.n, cols))
    for xin in (x, np.asfortranarray(x)):
        runs.clear()
        got = forward(net, xin)[0]
        want = _unblocked_forward(monkeypatch, net, xin)
        assert _same(got, want) and got.flags.c_contiguous
        *blocks, whole = runs
        assert whole == cols
        if cfg.kind == KIND_DENSE:
            assert blocks == [cols]
        else:
            *full, last = blocks
            assert len(full) == 2 and full[0] == full[1] and full[0] % 16 == 0
            assert last >= full[0] and last % 16 and sum(blocks) == cols


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_gradients_equal_reference_bytes(cfg):
    net, rng = _perturbed(cfg)
    x = rng.standard_normal((2 * cfg.n, 70))
    t = rng.standard_normal((2 * cfg.n, 70))
    _, trace = forward(net, x, want_trace=True)
    assert _same(backward(net, trace, t).to_flat(net), ref_grads(net, x, t))
    got, got_sq = _batch_grads(net, x, t)
    want, want_sq = ref_batch_grads(net, x, t)
    assert _same(got, want) and got_sq == want_sq


def test_exact_net_equals_reference_bytes():
    # the eval workload's net: exact chirp parameters, identity activation
    cfg = NetworkConfig(n=16, activation_slope=1.0)
    net = init_from_dvm(build_network(cfg), complex(np.exp(-0.3j)))
    x = np.asfortranarray(np.random.default_rng(3).standard_normal((32, 300)))
    assert _same(forward(net, x)[0], ref_forward(net, x)[0])


@pytest.mark.parametrize("cfg", [CONFIGS[0], CONFIGS[7]], ids=["default", "dense-p2-L9"])
def test_signed_zeros_and_extremes_equal_reference_bytes(cfg):
    net, _ = _perturbed(cfg)
    col = np.array([0.0, -0.0, 1e300, -1e-310, 3.0, -2.5, 5e-324, -1e200] * 4)[: 2 * cfg.n]
    x = np.stack([col, -col, np.zeros_like(col), -np.zeros_like(col)], axis=1)
    assert _same(forward(net, x)[0], ref_forward(net, x)[0])


@pytest.mark.parametrize("size,depth", [(2, 1), (8, 0), (8, 2), (16, 4), (32, 5), (64, 3)])
def test_chain_equals_reference_bytes(size, depth):
    rng = np.random.default_rng(size + depth)
    chain = build_recursive_dft_chain(size, depth, exact=False, normalized=True, rng=rng)
    x = rng.standard_normal((size, 5)) + 1j * rng.standard_normal((size, 5))
    x[: size // 2, 0] = -0.0  # signed zeros pass through the pruned level as through the pad
    g = rng.standard_normal((size, 5)) + 1j * rng.standard_normal((size, 5))
    pad = x.copy()
    pad[size // 2:] = 0.0
    for full, arg in ((x, x), (pad, x[: size // 2])):
        want_y, want_tr = _ref_chain_run(chain, full, True)
        want_g = _ref_chain_backward(chain, want_tr, g)
        assert _same(chain.apply(arg), want_y)
        got_y, got_tr = chain.apply_trace(arg)
        assert _same(got_y, want_y)
        got_g = chain.backward(got_tr, g)
        # a half-height input gets the gradient of its own rows only
        assert _same(got_g[0], want_g[0][: arg.shape[0]])
        for a, b in zip(got_g[1] + [got_g[2]], want_g[1] + [want_g[2]]):
            assert _same(a, b)
    # a stack of K=3 chains runs slice i as chain i alone, bit for bit
    k = 3
    stack = RecursiveDftChain(size, depth, np.empty((k, chain_entries(size, depth)), complex),
                              normalized=True)
    _random_start(stack.values, stack, rng)
    xs = rng.standard_normal((k, size, 5)) + 1j * rng.standard_normal((k, size, 5))
    xs[:, : size // 2, 0] = -0.0
    gs = rng.standard_normal((k, size, 5)) + 1j * rng.standard_normal((k, size, 5))
    pads = xs.copy()
    pads[:, size // 2:] = 0.0
    for full, arg in ((xs, xs), (pads, xs[:, : size // 2])):
        got_y, got_tr = stack.apply_trace(arg)
        assert _same(stack.apply(arg), got_y)
        got_g = stack.backward(got_tr, gs)
        for i in range(k):
            want_y, want_tr = _ref_chain_run(_sub(stack, i), full[i], True)
            want_g = _ref_chain_backward(_sub(stack, i), want_tr, gs[i])
            assert _same(got_y[i], want_y)
            assert _same(got_g[0][i], want_g[0][: arg.shape[1]])
            for a, b in zip(got_g[1] + [got_g[2]], want_g[1] + [want_g[2]]):
                assert _same(a[i:i + 1], b)


@pytest.mark.parametrize("cfg", [CONFIGS[0], CONFIGS[2], CONFIGS[7]],
                         ids=["default", "p2-L9", "dense-p2-L9"])
def test_zero_column_batch(cfg):
    net = build_network(cfg)
    y, trace = forward(net, np.zeros((2 * cfg.n, 0)), want_trace=True)
    assert y.shape == (2 * cfg.n, 0)
    # an empty batch has no mean: the caller names the normalization
    flat = backward(net, trace, np.zeros((2 * cfg.n, 0)), norm=1.0).to_flat(net)
    assert flat.shape == (net.param_count(),) and not flat.any()
