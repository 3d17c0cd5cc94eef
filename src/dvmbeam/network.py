"""Structured and dense beamforming networks with a frozen delay layer.

Both network kinds map a real-split antenna snapshot (length 2N, real parts
of all N channels first, imaginary parts second) to the real-split transform
output.  The structured kind keeps its input and output layers in factored
form: each of the p submatrices is a chirp-scaled recursive DFT chain whose
twiddle diagonals, leaf blocks, and scaling diagonals are the only trainable
values, so a layer is applied factor by factor and is never densified.  The
fully connected baseline carries ordinary dense weight matrices of the same
layer widths.  Between them sit the same three fixed-width layers: a frozen
elementwise delay rotation diag(alpha**k), a trainable real diagonal skip
connection added around it, and biases.

Blocks take and return real-split (2N, B) batches.  Inside a block the
hidden vector of width 4pN is one complex carrier, a (2pN, B) array split
into p slots of 2N rows, one per submatrix, which the chains and the delay
read directly.  The real-split hidden parameters (bias, skip diagonal) keep
their [real section | imaginary section] layout and act on the carrier's
real and imaginary parts through its float64 view, so no hidden layer
splits or rebuilds complex values.  The forward pass and its hand-written
reverse live here side by side, so that layout and the parameter path names
are known to this module only.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import struct
from typing import NamedTuple

import numpy as np

from .dvm import (
    UNIT_TOL,
    DvmSpec,
    build_bluestein_chain,
    build_recursive_dft_chain,
    check_seed,
    cis,
)

KIND_STRUCTURED = "structured"
KIND_DENSE = "fully_connected"

# Recursion depths used by the reference configurations; other sizes default
# to log2(N), one level short of full depth.
DEPTH_DEFAULTS = {8: 4, 16: 5, 32: 6}


def default_depth(n: int) -> int:
    return DEPTH_DEFAULTS.get(n, max(1, n.bit_length() - 1))


def real_split(z) -> np.ndarray:
    """Complex vector to stacked real vector: [Re z; Im z] along axis 0."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=0)


def real_join(x) -> np.ndarray:
    """Inverse of real_split: the complex vector whose real and imaginary
    parts are copies of the two halves of x (so signed zeros survive)."""
    x = np.asarray(x)
    k = x.shape[0] // 2
    z = np.empty((k,) + x.shape[1:], dtype=np.complex128)
    z.real, z.imag = x[:k], x[k:]
    return z


def leaky_relu(x, slope: float, out=None) -> np.ndarray:
    """np.where(x >= 0, x, slope * x), bit for bit, written to out if given.

    For slope <= 1 that is max(x, slope*x), for slope > 1 min(x, slope*x),
    signed zeros and infinities included, except that 0 * inf is NaN: at
    slope 0 the activation is x * (x >= 0) instead."""
    x = np.asarray(x)
    if slope == 0:
        return np.multiply(x, x >= 0, out=out)
    return (np.maximum if slope <= 1 else np.minimum)(x, slope * x, out=out)


# to_dict keys with one possible value: complex parameters, the built structure
_FIXED_KEYS = {"param_mode": "complex", "tie_scaling": True, "share_siblings": True}


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and behavior of one network.

    n: channel count (power of two >= 2); hidden width is 4*p*n.
    depth: butterfly levels in each trainable DFT chain (the lambda knob);
        the chains have complex size 2n, so depth <= log2(2n).
    l_layers: total layer count; 5, or 4k+1 to repeat the block structure.
    delay_alpha: unit-modulus generator of the frozen delay diagonal
        (1 makes the delay the identity).
    As in the factorization, one chirp diagonal scales a submatrix's input and
    output layers, and each chain level has one twiddle diagonal.
    """

    n: int
    p: int = 1
    depth: int | None = None
    l_layers: int = 5
    kind: str = KIND_STRUCTURED
    activation_slope: float = 0.2
    delay_alpha: complex = 1.0 + 0.0j
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.l_layers < 5 or (self.l_layers - 1) % 4:
            raise ValueError(
                f"l_layers must be 5 or 4k+1 (block repeats), got {self.l_layers}"
            )
        if self.kind not in (KIND_STRUCTURED, KIND_DENSE):
            raise ValueError(f"unknown kind {self.kind!r}")
        check_seed(self.seed)
        # written so that NaN fails too: a corrupt model header must not load
        if not abs(abs(self.delay_alpha) - 1.0) <= UNIT_TOL:
            raise ValueError(f"delay_alpha must be unit modulus, got {self.delay_alpha!r}")
        if not 0 <= self.activation_slope < math.inf:
            raise ValueError(
                f"activation_slope must be finite and >= 0, got {self.activation_slope!r}"
            )
        if self.kind == KIND_STRUCTURED:
            lim = self.m.bit_length() - 1
            if not 0 <= self.resolved_depth <= lim:
                raise ValueError(
                    f"depth {self.resolved_depth} out of range 0..{lim} "
                    f"for chain size {self.m}"
                )

    @property
    def m(self) -> int:
        return 2 * self.n

    @property
    def resolved_depth(self) -> int:
        return default_depth(self.n) if self.depth is None else self.depth

    @property
    def hidden(self) -> int:
        return 4 * self.p * self.n

    @property
    def blocks_count(self) -> int:
        return (self.l_layers - 1) // 4

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "depth": self.resolved_depth,
            "l_layers": self.l_layers,
            "kind": self.kind,
            "activation_slope": self.activation_slope,
            "delay_alpha": [self.delay_alpha.real, self.delay_alpha.imag],
            "seed": self.seed,
            # fixed values, kept because report digests hash these keys
            **_FIXED_KEYS,
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkConfig":
        for key, fixed in _FIXED_KEYS.items():
            value = d.get(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"unsupported {key} {value!r}: only {fixed!r} is built")
        da = d.get("delay_alpha", [1.0, 0.0])
        return NetworkConfig(
            n=int(d["n"]),
            p=int(d.get("p", 1)),
            depth=int(d["depth"]) if d.get("depth") is not None else None,
            l_layers=int(d.get("l_layers", 5)),
            kind=d.get("kind", KIND_STRUCTURED),
            activation_slope=float(d.get("activation_slope", 0.2)),
            delay_alpha=complex(da[0], da[1]),
            seed=int(d.get("seed", 0)),
        )


@dataclass
class StructuredBlock:
    d_hat: list          # p arrays: complex (n,)
    f_chains: list       # p RecursiveDftChain
    d_breve: list        # p arrays: complex (m,)
    fstar_chains: list   # p RecursiveDftChain
    bias1: np.ndarray
    skip: np.ndarray
    bias_out: np.ndarray


@dataclass
class DenseBlockParams:
    w1: np.ndarray       # (4pn, 2n)
    w4: np.ndarray       # (2n, 4pn)
    bias1: np.ndarray
    skip: np.ndarray
    bias_out: np.ndarray


class ParamSlot(NamedTuple):
    """Where one trainable array lives in the flat parameter vector.

    offset and width count float64 entries; a "complex" slot holds
    interleaved re/im pairs, a "real" slot plain values.
    """

    path: str
    offset: int
    kind: str
    shape: tuple

    @property
    def width(self) -> int:
        return math.prod(self.shape) * (2 if self.kind == "complex" else 1)

    def view(self, buf: np.ndarray) -> np.ndarray:
        """This slot's array as a view into buf (a vector laid out like the
        network's flat parameters)."""
        dtype = np.complex128 if self.kind == "complex" else np.float64
        return np.ndarray(self.shape, dtype, buffer=buf, offset=8 * self.offset)


class Network:
    """A configured network plus its trainable and frozen state.

    Every trainable array is a view into one float64 vector, self.flat, in
    the fixed declaration order of the .stnn format; complex arrays view
    interleaved re/im pairs.  Writing an array writes the vector and vice
    versa, so flattening costs one copy and an optimizer can update
    self.flat in place.  Rebinding a parameter attribute to a new array
    would detach it; write into it instead.
    """

    def __init__(self, config: NetworkConfig, blocks: list):
        self.config = config
        self.blocks = blocks
        k = np.arange(2 * config.p * config.n, dtype=np.float64)
        phi = math.atan2(config.delay_alpha.imag, config.delay_alpha.real)
        self.delay = cis(phi, k)  # frozen diag(alpha**k), k = 0..2pn-1
        self._grads = None  # gradient twin, built by the first _backward

        layout, places, pos = [], [], 0
        for path, owner, key in self._walk():
            arr = owner[key]
            is_complex = arr.dtype.kind == "c"
            layout.append(ParamSlot(path, pos, "complex" if is_complex else "real", arr.shape))
            places.append((owner, key, arr))
            pos += 2 * arr.size if is_complex else arr.size
        self.layout = tuple(layout)
        self.flat = np.zeros(pos)
        views = []
        for slot, (owner, key, arr) in zip(self.layout, places):
            view = owner[key] = slot.view(self.flat)
            view[...] = arr
            views.append(view)
        self._arrays = tuple(views)

    def _walk(self):
        """Yield (path, owner, key) with owner[key] the trainable array, in
        declaration order; owner is a list or an object's __dict__."""
        cfg = self.config
        for b, blk in enumerate(self.blocks):
            attrs = vars(blk)
            if cfg.kind == KIND_DENSE:
                for name in ("w1", "bias1", "skip", "w4", "bias_out"):
                    yield f"block{b}.{name}", attrs, name
                continue
            for i in range(cfg.p):
                yield f"block{b}.w1.sub{i}.d_hat", blk.d_hat, i
                yield from _chain_walk(f"block{b}.w1.sub{i}.f", blk.f_chains[i])
                yield f"block{b}.w1.sub{i}.d_breve", blk.d_breve, i
            yield f"block{b}.bias1", attrs, "bias1"
            yield f"block{b}.skip", attrs, "skip"
            for i in range(cfg.p):
                yield from _chain_walk(f"block{b}.w4.sub{i}.fstar", blk.fstar_chains[i])
            yield f"block{b}.bias_out", attrs, "bias_out"

    # -- parameter plumbing ------------------------------------------------

    def param_entries(self):
        """Yield (path, array, kind) for every trainable array, in the fixed
        declaration order used by flattening and serialization.  kind
        "complex" packs re/im pairs, "real" packs values."""
        for slot, arr in zip(self.layout, self._arrays):
            yield slot.path, arr, slot.kind

    def param_count(self) -> int:
        return self.flat.size

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has {flat.shape}, expected {self.flat.shape}")
        self.flat[...] = flat


def _chain_walk(prefix, chain):
    for lvl in range(len(chain.twiddles)):
        yield f"{prefix}.twiddle{lvl}", chain.twiddles, lvl
    yield f"{prefix}.leaf", vars(chain), "leaf"


@dataclass
class BlockTrace:
    """One block's intermediates.  The block input x and output y_out are
    real-split (2n, B); the hidden-width fields are complex carriers
    (2pn, B)."""

    x: np.ndarray
    x_c: np.ndarray | None     # input chains' carrier (structured kind)
    chain_traces: list         # per submatrix, w1 chain trace
    chain_out: list            # per submatrix, chain output before d_breve
    pre1: np.ndarray           # pre-activation
    y1: np.ndarray             # activation
    y2: np.ndarray             # delayed activation
    y3: np.ndarray             # y2 plus the skip term
    fstar_traces: list
    t_trunc: list              # per submatrix, truncated conj-chain output
    y_out: np.ndarray


@dataclass
class ForwardTrace:
    """Per-layer intermediates kept for inspection and the backward pass."""

    x: np.ndarray
    block_traces: list
    y: np.ndarray


def _as_columns(x, width):
    x = np.asarray(x, dtype=np.float64)
    flat = x.ndim == 1
    if flat:
        x = x[:, None]
    if x.shape[0] != width:
        raise ValueError(f"expected leading dimension {width}, got {x.shape[0]}")
    return x, flat


def _planes(c) -> np.ndarray:
    """The (2, rows, B) float64 view of a carrier whose last axis is
    contiguous: plane 0 holds the real parts, plane 1 the imaginary parts,
    so a real-split (2k,) vector reshaped to (2, k, 1) acts on it row by
    row."""
    return c.view(np.float64).reshape(c.shape + (2,)).transpose(2, 0, 1)


def _add_column_sums(dst, f) -> None:
    """dst, a real-split (2k,) gradient, += the column sums of f, the
    float64 view (k, 2B) of a carrier.  The real and imaginary parts are
    reduced apart, each row along B with numpy's pairwise sum, as the
    contiguous real-split rows they stand for are."""
    d = dst.reshape(2, -1)
    d[0] += f[:, 0::2].sum(axis=1)
    d[1] += f[:, 1::2].sum(axis=1)


def _run_chain(chain, x, traces):
    """chain applied to x; a traces list (None when not tracing) keeps the
    chain's trace for the reverse pass."""
    if traces is None:
        return chain.apply(x)
    y, tr = chain.apply_trace(x)
    traces.append(tr)
    return y


def _stack(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _middle_forward(cfg: NetworkConfig, blk, delay, h, want_trace):
    """The layers both kinds share, on the hidden carrier h: bias, leaky
    activation, frozen delay and skip.  Returns (pre1, y1, y2, y3).
    Untraced, all four are h, overwritten in place; traced, each stage gets
    its own array."""
    stage = np.empty_like if want_trace else (lambda a: a)
    # the real-split bias is added as the complex vector b_re + j b_im:
    # complex addition is the two real additions, and numpy runs it on h
    # directly, not on the strided plane views
    np.add(h, real_join(blk.bias1)[:, None], out=h)
    y1 = stage(h)
    leaky_relu(h.view(np.float64), cfg.activation_slope, out=y1.view(np.float64))
    skip_term = blk.skip.reshape(2, -1, 1) * _planes(y1)
    y2 = np.multiply(delay[:, None], y1, out=stage(y1))
    y3 = stage(y2)
    np.add(_planes(y2), skip_term, out=_planes(y3))
    return h, y1, y2, y3


def _block_forward(cfg: NetworkConfig, blk, delay, x, want_trace):
    """One block on the real-split batch x (2n, B): the input layer (W1, or
    p chirp-scaled DFT chains into the hidden slots), the middle both kinds
    share (bias, leaky activation, frozen delay, skip), then the output layer
    (W4, or p conjugate chains summed back to the input width)."""
    m = cfg.m
    dense = cfg.kind == KIND_DENSE
    chain_traces, fstar_traces = ([], []) if want_trace else (None, None)
    x_c, chain_out, t_trunc = None, [], []
    if dense:
        h = real_join(blk.w1 @ x)
    else:
        x_c = real_join(x)
        parts = []
        for i in range(cfg.p):
            c = _run_chain(blk.f_chains[i], blk.d_hat[i][:, None] * x_c, chain_traces)
            chain_out.append(c if want_trace else None)  # only a trace keeps c alive
            z = np.multiply(blk.d_breve[i][:, None], c, out=None if want_trace else c)
            parts.append(z)
        h = _stack(parts)

    pre1, y1, y2, y3 = _middle_forward(cfg, blk, delay, h, want_trace)

    if dense:
        y_out = blk.w4 @ real_split(y3)
    else:
        v = None
        for i in range(cfg.p):
            t = _run_chain(blk.fstar_chains[i], y3[i * m:(i + 1) * m],
                           fstar_traces)[: x_c.shape[0]]
            t_trunc.append(t if want_trace else None)
            vi = np.multiply(blk.d_hat[i][:, None], t, out=None if want_trace else t)
            v = vi if v is None else v + vi
        y_out = real_split(v)
    y_out += blk.bias_out[:, None]

    trace = None
    if want_trace:
        trace = BlockTrace(
            x=x, x_c=x_c, chain_traces=chain_traces, chain_out=chain_out, pre1=pre1,
            y1=y1, y2=y2, y3=y3, fstar_traces=fstar_traces, t_trunc=t_trunc, y_out=y_out,
        )
    return y_out, trace


def forward(net: Network, x, want_trace: bool = False):
    """Run the network on one real-split vector or a (2n, B) column batch.

    Returns (y, trace); trace is None unless requested.
    """
    cfg = net.config
    x2, flat = _as_columns(x, 2 * cfg.n)
    block_traces = []
    y = x2
    for blk in net.blocks:
        y, tr = _block_forward(cfg, blk, net.delay, y, want_trace)
        if want_trace:
            block_traces.append(tr)
    trace = ForwardTrace(x=x2, block_traces=block_traces, y=y) if want_trace else None
    return (y[:, 0] if flat else y), trace


# ---------------------------------------------------------------------------
# reverse pass
#
# Complex intermediates use the real-pair convention: the carrier for a
# complex z is g = dL/dRe(z) + j dL/dIm(z), which gives the familiar rules
#     y = d * x      ->  g_d += g_y * conj(x),  g_x = g_y * conj(d)
#     y = A  x       ->  g_A += g_y x^H,        g_x = A^H g_y
# The real-split hidden parameters (bias1, skip) see the carrier's real and
# imaginary parts as their two sections.


def _accumulate_chain(gchain, tw_grads, leaf_grad):
    for dst, g in zip(gchain.param_arrays(), tw_grads + [leaf_grad]):
        dst += g


def _middle_backward(cfg: NetworkConfig, blk, gblk, delay, tr, g_h):
    """Reverse of _middle_forward: add the bias1 and skip gradients into
    gblk and return the carrier of the pre-activation gradient, given g_h,
    the carrier of y3's."""
    # y3 = delay*y1 + skip*y1 hands g_h to y2 unchanged
    _add_column_sums(gblk.skip, g_h.view(np.float64) * tr.y1.view(np.float64))
    g = np.conj(delay)[:, None] * g_h
    np.add(_planes(g), _planes(g_h) * blk.skip.reshape(2, -1, 1), out=_planes(g))
    # the activation's derivative: g where pre >= 0, slope * g elsewhere
    # (g * 1.0 is g exactly)
    gf = g.view(np.float64)
    np.multiply(gf, np.where(tr.pre1.view(np.float64) >= 0, 1.0, cfg.activation_slope), out=gf)
    _add_column_sums(gblk.bias1, gf)
    return g


def _block_backward(cfg: NetworkConfig, blk, gblk, delay, tr, g_out):
    """Reverse one block: add its parameter gradients into gblk, the same
    block of the gradient twin, and return the gradient wrt the block input."""
    m = cfg.m
    dense = cfg.kind == KIND_DENSE
    gblk.bias_out += g_out.sum(axis=1)
    # output layer, back to the hidden carrier g_h of y3
    if dense:
        gblk.w4 += g_out @ real_split(tr.y3).T
        g_h = real_join(blk.w4.T @ g_out)
    else:
        g_v = real_join(g_out)
        parts = []
        for i in range(cfg.p):
            # d_hat scales the output side too: its share joins the input side's
            gblk.d_hat[i] += (g_v * np.conj(tr.t_trunc[i])).sum(axis=1)
            g_fs = np.zeros((m, g_v.shape[1]), dtype=np.complex128)
            g_fs[: g_v.shape[0]] = np.conj(blk.d_hat[i])[:, None] * g_v
            g_ci, tw_g, leaf_g = blk.fstar_chains[i].backward(tr.fstar_traces[i], g_fs)
            _accumulate_chain(gblk.fstar_chains[i], tw_g, leaf_g)
            parts.append(g_ci)
        g_h = _stack(parts)

    g_pre1 = _middle_backward(cfg, blk, gblk, delay, tr, g_h)

    if dense:
        g_r = real_split(g_pre1)
        gblk.w1 += g_r @ tr.x.T
        return blk.w1.T @ g_r
    g_x_c = np.zeros_like(tr.x_c)
    for i in range(cfg.p):
        g_z = g_pre1[i * m:(i + 1) * m]
        gblk.d_breve[i] += (g_z * np.conj(tr.chain_out[i])).sum(axis=1)
        g_c = np.conj(blk.d_breve[i])[:, None] * g_z
        g_u, tw_g, leaf_g = blk.f_chains[i].backward(tr.chain_traces[i], g_c)
        _accumulate_chain(gblk.f_chains[i], tw_g, leaf_g)
        gblk.d_hat[i] += (g_u * np.conj(tr.x_c)).sum(axis=1)
        g_x_c += np.conj(blk.d_hat[i])[:, None] * g_u
    return real_split(g_x_c)


def _backward(net: Network, trace: ForwardTrace, g_out) -> np.ndarray:
    """Reverse of forward(): every parameter gradient, laid out like net.flat.

    The gradients accumulate in net's gradient twin, a zero-drawn network of
    the same config built on the first call, whose arrays sit where net's
    do; the result is a copy of its flat vector, so results never alias.
    """
    twin = net._grads
    if twin is None:
        twin = net._grads = _build(net.config, _ZeroDraws())
    twin.flat[...] = 0.0
    for b in range(len(net.blocks) - 1, -1, -1):
        g_out = _block_backward(
            net.config, net.blocks[b], twin.blocks[b], net.delay, trace.block_traces[b], g_out
        )
    return twin.flat.copy()


# ---------------------------------------------------------------------------
# construction


def _random_unit(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape))


def build_network(config: NetworkConfig) -> Network:
    """Construct a network with the documented random initialization.

    Complex parameters start unit modulus with uniform random phase scaled
    by 1/sqrt(fan_in) (fan_in is 1 for diagonals, the leaf size for leaf
    blocks); dense baseline weights are uniform +-1/sqrt(fan_in); biases and
    the skip diagonal start at zero.
    """
    return _build(config, np.random.default_rng(config.seed))


class _ZeroDraws:
    """Generator stand-in that draws nothing: every call returns zeros of
    the requested shape.  load_network and the gradient twin of _backward
    build their layouts with it, since every value is overwritten."""

    def random(self, shape):
        return np.zeros(shape)

    def uniform(self, low, high, shape):
        return np.zeros(shape)


def _build(cfg: NetworkConfig, rng) -> Network:
    """The network of cfg with every random draw taken from rng."""
    n, p, m = cfg.n, cfg.p, cfg.m
    blocks = []
    for _ in range(cfg.blocks_count):
        if cfg.kind == KIND_DENSE:
            a1 = 1.0 / math.sqrt(2 * n)
            a4 = 1.0 / math.sqrt(cfg.hidden)
            blocks.append(
                DenseBlockParams(
                    w1=rng.uniform(-a1, a1, (cfg.hidden, 2 * n)),
                    bias1=np.zeros(cfg.hidden),
                    skip=np.zeros(cfg.hidden),
                    w4=rng.uniform(-a4, a4, (2 * n, cfg.hidden)),
                    bias_out=np.zeros(2 * n),
                )
            )
            continue
        d_hat, d_breve, f_chains = [], [], []
        for _ in range(p):
            d_hat.append(_random_unit(rng, n))
            f_chains.append(_chain_init(cfg, rng, exact=False))
            d_breve.append(_random_unit(rng, m))
        fstar_chains = [_chain_init(cfg, rng, exact=False) for _ in range(p)]
        blocks.append(
            StructuredBlock(
                d_hat=d_hat,
                f_chains=f_chains,
                d_breve=d_breve,
                fstar_chains=fstar_chains,
                bias1=np.zeros(cfg.hidden),
                skip=np.zeros(cfg.hidden),
                bias_out=np.zeros(2 * n),
            )
        )
    return Network(cfg, blocks)


def _chain_init(cfg, rng, exact, inverse=False):
    return build_recursive_dft_chain(
        cfg.m,
        cfg.resolved_depth,
        exact=exact,
        inverse=inverse,
        normalized=True,
        rng=None if exact else rng,
    )


def init_from_dvm(net: Network, alpha: complex) -> Network:
    """Load the exact factorization values into every block and submatrix.

    The scaling diagonals become the chirp diag(alpha**(k^2/2)), the chain
    values become exact (conjugated on the output side), the middle diagonal
    becomes the raw DFT of the chirp circulant column, and biases and skip
    go to zero.  With slope 1 and delay_alpha 1 the p=1 network then applies
    the scaled DVM exactly.
    """
    cfg = net.config
    if cfg.kind != KIND_STRUCTURED:
        raise ValueError("exact initialization applies to the structured kind")
    if not abs(abs(alpha) - 1.0) <= UNIT_TOL:
        raise ValueError("alpha must be unit modulus")
    chirp = build_bluestein_chain(DvmSpec(cfg.n, alpha)).factors
    d_hat, d_breve = chirp[0].values, chirp[3].values
    exact_f = _chain_init(cfg, None, exact=True)
    exact_fs = _chain_init(cfg, None, exact=True, inverse=True)
    for blk in net.blocks:
        for i in range(cfg.p):
            blk.d_hat[i][...] = d_hat
            blk.d_breve[i][...] = d_breve
            for chain, exact in ((blk.f_chains[i], exact_f), (blk.fstar_chains[i], exact_fs)):
                for dst, src in zip(chain.param_arrays(), exact.param_arrays()):
                    dst[...] = src
        blk.bias1[...] = 0.0
        blk.skip[...] = 0.0
        blk.bias_out[...] = 0.0
    return net


def expected_param_count(cfg: NetworkConfig) -> int:
    """Trainable scalar count of build_network(cfg), in closed form: no
    loop and no allocation scale with any field of cfg, so a file header
    can be checked before a network is built from it."""
    n, p, hidden = cfg.n, cfg.p, cfg.hidden
    if cfg.kind == KIND_DENSE:
        per_block = 2 * hidden * 2 * n + 2 * hidden + 2 * n
    else:
        size, depth = cfg.m, cfg.resolved_depth
        leaf = size >> depth
        # one diagonal per level: size/2 + size/4 + ... + leaf
        chain = (size - leaf) + leaf * leaf
        entries = n + cfg.m + 2 * chain
        per_block = p * 2 * entries + 2 * hidden + 2 * n
    return per_block * cfg.blocks_count


def count_parameters(net: Network) -> dict:
    """Trainable scalar count with a per-layer breakdown."""
    by_layer: dict = {}
    for slot in net.layout:
        parts = slot.path.split(".")
        layer = parts[1] if len(parts) > 1 else slot.path
        by_layer[layer] = by_layer.get(layer, 0) + slot.width
    return {"total": sum(by_layer.values()), "by_layer": by_layer}


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"STNN"
_FORMAT_VERSION = 1
# byte offsets: magic 0, version 4, n 8, p 12, depth 16, l_layers 20; the kind,
# parameter-mode, tie-scaling and share-siblings codes 24-27; slope 28, delay
# alpha re 36 and im 44, reserved 52, seed 60, parameter count 68; the payload
# starts at 76.  Byte 25 is always 0: parameters are complex.  Bytes 26 and
# 27 are always 1: the scaling diagonal is tied and siblings share theirs.
_HEAD_FMT = "<4sIIIIIBBBBddddqQ"
_KIND_CODE = {KIND_STRUCTURED: 0, KIND_DENSE: 1}


def save_network(net: Network, path: str) -> None:
    """Write magic, format version, config fields, then the flat trainable
    vector as little-endian 64-bit floats in declaration order."""
    cfg = net.config
    flat = net.get_flat()
    head = struct.pack(
        _HEAD_FMT,
        _MAGIC,
        _FORMAT_VERSION,
        cfg.n,
        cfg.p,
        cfg.resolved_depth,
        cfg.l_layers,
        _KIND_CODE[cfg.kind],
        0,  # parameter mode: complex
        1,  # tie-scaling
        1,  # share-siblings
        cfg.activation_slope,
        cfg.delay_alpha.real,
        cfg.delay_alpha.imag,
        0.0,  # reserved
        cfg.seed,
        flat.size,
    )
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(flat.astype("<f8").tobytes())


def load_network(path: str) -> Network:
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = struct.calcsize(_HEAD_FMT)
    if len(data) < head_size:
        raise ValueError(f"{path}: truncated network file")
    (magic, version, n, p, depth, l_layers, kind_c, mode_c, tie, share,
     slope, da_re, da_im, _reserved, seed, n_params) = struct.unpack(
        _HEAD_FMT, data[:head_size]
    )
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not a network file")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    kind = {v: k for k, v in _KIND_CODE.items()}.get(kind_c)
    if kind is None:
        raise ValueError(f"{path}: unknown network kind code {kind_c} (byte 24)")
    if mode_c != 0:
        raise ValueError(f"{path}: parameter mode code {mode_c} (byte 25) must be 0, complex")
    for name, value, offset in (("tie-scaling", tie, 26), ("share-siblings", share, 27)):
        if value != 1:
            raise ValueError(f"{path}: {name} flag {value} (byte {offset}) must be 1")
    if seed < 0:
        raise ValueError(f"{path}: seed {seed} (byte 60) must be in 0..2**63-1")
    cfg = NetworkConfig(
        n=n, p=p, depth=depth, l_layers=l_layers, kind=kind,
        activation_slope=slope, delay_alpha=complex(da_re, da_im), seed=seed,
    )
    # the header is untrusted: check its sizes before allocating a network
    want = expected_param_count(cfg)
    payload = len(data) - head_size
    if payload != 8 * n_params or n_params != want:
        raise ValueError(
            f"{path}: parameter payload of {payload} bytes does not match header "
            f"{n_params} / config {want} parameters of 8 bytes"
        )
    net = _build(cfg, _ZeroDraws())
    net.set_flat(np.frombuffer(data, dtype="<f8", offset=head_size))
    return net

