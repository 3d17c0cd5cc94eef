"""Structured and dense beamforming networks with a frozen delay layer.

Both network kinds map a real-split antenna snapshot (length 2N, real parts
of all N channels first, imaginary parts second) to the real-split transform
output.  The structured kind keeps its input and output layers in factored
form: each of the p submatrices is a chirp-scaled recursive DFT chain whose
twiddle diagonals, leaf blocks, and scaling diagonals are the only trainable
values, so a layer is applied factor by factor and is never densified.  The
p submatrices are the leading axis of every array of those layers, with one
stack of K = p chains per side, so each layer is one call over all p and
p = 1 runs the same code.  The fully connected baseline carries ordinary
dense weight matrices of the same layer widths.  Between them sit the same
three fixed-width layers: a frozen elementwise delay rotation
diag(alpha**k), a trainable real diagonal skip connection added around it,
and biases.

Blocks take and return real-split (2N, B) batches.  Inside a block the
hidden vector of width 4pN is one complex carrier, a (2pN, B) array split
into p slots of 2N rows, one per submatrix: it is the input chains'
(p, 2N, B) output, and the output chains read it as that stack.  The
real-split hidden parameters (bias, skip diagonal) keep their [real section
| imaginary section] layout and act on the carrier's real and imaginary
parts through its float64 view, so no hidden layer splits or rebuilds
complex values.  The forward pass and its hand-written reverse live here
side by side, so that layout and the parameter path names are known to
this module only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math
import struct
from typing import NamedTuple

import numpy as np

from .dvm import (
    UNIT_TOL,
    DvmSpec,
    RecursiveDftChain,
    _random_start,
    build_bluestein_chain,
    build_recursive_dft_chain,
    chain_entries,
    check_int,
    check_seed,
    cis,
    power_of_two,
    with_ufunc_buffers,
)

KIND_STRUCTURED = "structured"
KIND_DENSE = "fully_connected"

# Recursion depths used by the reference configurations; other sizes default
# to log2(N), one level short of full depth.
DEPTH_DEFAULTS = {8: 4, 16: 5, 32: 6}


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


def _split_sum(v) -> np.ndarray:
    """real_split(v.sum(axis=0)), the real and imaginary parts summed apart
    (as complex addition adds them) straight into the real-split rows."""
    k = v.shape[1]
    out = np.empty((2 * k,) + v.shape[2:])
    np.add.reduce(v.real, 0, out=out[:k])
    np.add.reduce(v.imag, 0, out=out[k:])
    return out


def leaky_relu(x, slope: float, out=None) -> np.ndarray:
    """np.where(x >= 0, x, slope * x), bit for bit, written to out if given.

    For slope <= 1 that is max(x, slope*x), for slope > 1 min(x, slope*x),
    signed zeros and infinities included, except that 0 * inf is NaN: at
    slope 0 the activation is x * (x >= 0) instead."""
    x = np.asarray(x)
    if slope == 0:
        return np.multiply(x, x >= 0, out=out)
    return (np.maximum if slope <= 1 else np.minimum)(x, slope * x, out=out)


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and behavior of one network.

    n: channel count (power of two >= 2); hidden width is 4*p*n, p >= 1.
        n, p, depth and l_layers are integers (numpy ones too), stored as
        int.
    depth: butterfly levels in each trainable DFT chain (the lambda knob);
        the chains have complex size 2n, so depth <= log2(2n).  None is
        resolved when the config is built, to DEPTH_DEFAULTS[n] or else
        log2(n), so a built config always holds an int.
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
        n = power_of_two(self.n, least=2)
        if n is None:
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", check_int(self.p, "p", 1))
        if self.depth is None:
            object.__setattr__(self, "depth", DEPTH_DEFAULTS.get(n, max(1, n.bit_length() - 1)))
        object.__setattr__(self, "depth", check_int(self.depth, "depth", 0))
        object.__setattr__(self, "l_layers", check_int(self.l_layers, "l_layers", 5))
        if (self.l_layers - 1) % 4:
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
            if not 0 <= self.depth <= lim:
                raise ValueError(
                    f"depth {self.depth} out of range 0..{lim} "
                    f"for chain size {self.m}"
                )

    @property
    def m(self) -> int:
        return 2 * self.n

    @property
    def resolved_depth(self) -> int:  # alias of depth, read by benchmarks/workloads.py
        return self.depth

    @property
    def hidden(self) -> int:
        return 4 * self.p * self.n

    @property
    def blocks_count(self) -> int:
        return (self.l_layers - 1) // 4

    def to_dict(self) -> dict:
        return {**asdict(self), "delay_alpha": [self.delay_alpha.real, self.delay_alpha.imag]}


@dataclass
class StructuredBlock:
    # submatrix i is row i of w1 and w4, and so row i of d_hat and d_breve
    # and chain i of each stack, all views into those rows
    w1: np.ndarray                   # complex (p, n + e + m): d_hat, input chain, d_breve
    w4: np.ndarray                   # complex (p, e): output chain
    d_hat: np.ndarray                # complex (p, n): input and output scaling
    f_chain: RecursiveDftChain       # K = p input chains
    d_breve: np.ndarray              # complex (p, m): input chains' output scaling
    fstar_chain: RecursiveDftChain   # K = p conjugate output chains
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
    the fixed declaration order of the .stnn format (_carve); complex arrays
    view interleaved re/im pairs.  Writing an array writes the vector and
    vice versa, so flattening costs one copy and an optimizer can update
    self.flat in place.  Rebinding a parameter attribute to a new array
    would detach it; write into it instead.  Network(config) is the zero
    network; build_network draws its random start.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.flat = np.zeros(expected_param_count(config))
        self.blocks, self.layout = _carve(config, self.flat)
        k = np.arange(2 * config.p * config.n, dtype=np.float64)
        phi = math.atan2(config.delay_alpha.imag, config.delay_alpha.real)
        self.delay = cis(phi, k)  # frozen diag(alpha**k), k = 0..2pn-1
        self._grads = None  # gradient twin, built by the first _backward

    # -- parameter plumbing ------------------------------------------------

    def param_count(self) -> int:
        return self.flat.size

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = _real_array(flat, "flat")
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has {flat.shape}, expected {self.flat.shape}")
        self.flat[...] = flat


def _carve(cfg: NetworkConfig, flat: np.ndarray):
    """Every block of cfg as views into flat, and the ParamSlot layout, both
    in .stnn order: per block W1, bias1, skip, W4, bias_out.

    A dense block's W1 and W4 are one slot each.  A structured block's are
    its submatrix rows w1, complex (p, n + e + m), and w4, complex (p, e),
    with e = dvm.chain_entries: row i holds submatrix i's d_hat, input chain
    and d_breve, or its output chain, each one slot.  d_hat, d_breve and the
    chain stacks (each a RecursiveDftChain on its rows' columns) view those
    rows.
    Raises unless the layout ends exactly at the end of flat.
    """
    n, p, m, hidden, depth = cfg.n, cfg.p, cfg.m, cfg.hidden, cfg.depth
    e = chain_entries(m, depth)
    layout, blocks = [], []

    def end():
        return layout[-1].offset + layout[-1].width if layout else 0

    def take(path, kind, shape):
        """The slot after the last one, declared, as a view into flat."""
        layout.append(ParamSlot(path, end(), kind, shape))
        return layout[-1].view(flat)

    def take_rows(path, tag, head=(), tail=()):
        """Declare the p submatrix rows of a structured layer, each row its
        head slots, one chain's slots and its tail slots (head and tail as
        (name, shape) pairs); return the complex rows and their chain stack."""
        lead, rest = (sum(math.prod(shape) for _, shape in part) for part in (head, tail))
        rows = ParamSlot(path, end(), "complex", (p, lead + e + rest)).view(flat)
        chain = RecursiveDftChain(m, depth, rows[:, lead:lead + e], normalized=True)
        names = [f"{tag}.twiddle{lvl}" for lvl in range(depth)] + [f"{tag}.leaf"]
        parts = [*head, *((nm, (1,) + a.shape[1:]) for nm, a in zip(names, chain.param_arrays())),
                 *tail]
        for i in range(p):
            for name, shape in parts:
                take(f"{path}.sub{i}.{name}", "complex", shape)
        return rows, chain

    for b in range(cfg.blocks_count):
        pre = f"block{b}."
        if cfg.kind == KIND_DENSE:
            w1 = take(pre + "w1", "real", (hidden, 2 * n))
        else:
            w1, f_chain = take_rows(pre + "w1", "f", [("d_hat", (n,))], [("d_breve", (m,))])
        bias1 = take(pre + "bias1", "real", (hidden,))
        skip = take(pre + "skip", "real", (hidden,))
        if cfg.kind == KIND_DENSE:
            w4 = take(pre + "w4", "real", (2 * n, hidden))
            blocks.append(DenseBlockParams(w1, w4, bias1, skip,
                                           take(pre + "bias_out", "real", (2 * n,))))
        else:
            w4, fstar_chain = take_rows(pre + "w4", "fstar")
            blocks.append(StructuredBlock(
                w1=w1, w4=w4, d_hat=w1[:, :n], f_chain=f_chain, d_breve=w1[:, -m:],
                fstar_chain=fstar_chain, bias1=bias1, skip=skip,
                bias_out=take(pre + "bias_out", "real", (2 * n,))))
    if end() != flat.size:
        raise RuntimeError(f"the layout of {cfg} ends at {end()}, not at {flat.size}")
    return blocks, tuple(layout)


@dataclass
class BlockTrace:
    """What the reverse pass reads of one block.  The block input x is
    real-split (2n, B); its output is the next block's x, or the trace's y
    for the last block.  The hidden-width fields are complex carriers
    (2pn, B).  The chain fields are None for the dense kind."""

    x: np.ndarray
    x_c: np.ndarray | None         # input chains' carrier (n, B)
    chain_trace: dict | None       # the input chain stack's trace
    chain_out: np.ndarray | None   # (p, m, B) chain output before d_breve
    pre1: np.ndarray               # pre-activation
    y1: np.ndarray                 # activation
    y3: np.ndarray                 # delayed activation plus the skip term
    fstar_trace: dict | None       # the output chain stack's trace
    t_trunc: np.ndarray | None     # (p, n, B) truncated conj-chain output


@dataclass
class ForwardTrace:
    """Per-layer intermediates kept for inspection and the backward pass;
    the network input is the first block's x."""

    block_traces: list
    y: np.ndarray


def _real_array(x, name: str) -> np.ndarray:
    """x as a float64 array.  A complex x raises ValueError naming it,
    where a cast would drop its imaginary part: a network takes a complex
    vector as its real split (real_split)."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{name} is complex where a real array is expected; "
                         f"a complex vector goes in as its real split [Re; Im]")
    return x.astype(np.float64, copy=False)


def _as_columns(x, width, name: str):
    x = _real_array(x, name)
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


def _run_chain(chain, x, want_trace):
    """chain applied to x, and its trace for the reverse pass or None."""
    return chain.apply_trace(x) if want_trace else (chain.apply(x), None)


def _middle_forward(cfg: NetworkConfig, blk, delay, h, want_trace):
    """The layers both kinds share, on the hidden carrier h: bias, leaky
    activation, frozen delay and skip.  Returns (pre1, y1, y3).  Untraced,
    all three are h, overwritten in place; traced, pre1 is h and y1 and y3
    get arrays of their own, the delay writing into y3 and the skip term
    added there."""
    stage = np.empty_like if want_trace else (lambda a: a)
    # the real-split bias is added as the complex vector b_re + j b_im:
    # complex addition is the two real additions, and numpy runs it on h
    # directly, not on the strided plane views
    np.add(h, real_join(blk.bias1)[:, None], out=h)
    y1 = stage(h)
    leaky_relu(h.view(np.float64), cfg.activation_slope, out=y1.view(np.float64))
    skip_term = blk.skip.reshape(2, -1, 1) * _planes(y1)
    y3 = np.multiply(delay[:, None], y1, out=stage(y1))
    np.add(_planes(y3), skip_term, out=_planes(y3))
    return h, y1, y3


def _block_forward(cfg: NetworkConfig, blk, delay, x, want_trace):
    """One block on the real-split batch x (2n, B): the input layer (W1, or
    the stack of p chirp-scaled DFT chains, whose (p, m, B) output is the
    hidden carrier's p slots), the middle both kinds share (bias, leaky
    activation, frozen delay, skip), then the output layer (W4, or the stack
    of p conjugate chains, summed over p back to the input width)."""
    p, m = cfg.p, cfg.m
    dense = cfg.kind == KIND_DENSE
    x_c = chain_trace = chain_out = fstar_trace = t_trunc = None
    if dense:
        h = real_join(blk.w1 @ x)
    else:
        x_c = real_join(x)
        c, chain_trace = _run_chain(blk.f_chain, blk.d_hat[:, :, None] * x_c, want_trace)
        chain_out = c if want_trace else None  # only a trace keeps c alive
        h = np.multiply(blk.d_breve[:, :, None], c, out=None if want_trace else c)
        h = h.reshape(p * m, -1)

    pre1, y1, y3 = _middle_forward(cfg, blk, delay, h, want_trace)

    if dense:
        y_out = blk.w4 @ real_split(y3)
    else:
        t, fstar_trace = _run_chain(blk.fstar_chain, y3.reshape(p, m, -1), want_trace)
        t = t[:, : x_c.shape[0]]
        t_trunc = t if want_trace else None
        v = np.multiply(blk.d_hat[:, :, None], t, out=None if want_trace else t)
        y_out = _split_sum(v)
    y_out += blk.bias_out[:, None]

    trace = None
    if want_trace:
        trace = BlockTrace(x=x, x_c=x_c, chain_trace=chain_trace, chain_out=chain_out,
                           pre1=pre1, y1=y1, y3=y3, fstar_trace=fstar_trace, t_trunc=t_trunc)
    return y_out, trace


# An untraced structured pass whose hidden carrier (p.2n.B complex entries)
# holds 1.5 * _BLOCK_ENTRIES or more runs in column blocks, so that each
# block's level buffers stay in cache: k = round(B / w) blocks, w the widest
# multiple of _BLOCK_ALIGN columns whose carrier fits in _BLOCK_ENTRIES.
# Each block takes B / k columns rounded down to a multiple of
# _BLOCK_ALIGN, the last one also the rest, so a pass just over one block
# does not pay a narrow second block (timings, with dvm's ufunc buffer
# switch, in the table above dvm._BUFSIZE).  Blocks start at multiples of
# _BLOCK_ALIGN columns, and none is one column (a matrix-vector product):
# the leaves' BLAS products give other bytes there.  The dense kind is not
# blocked: its real BLAS products give other bytes for a block whose width
# is not a multiple of 8 (OpenBLAS 0.3.31).
_BLOCK_ENTRIES = 1 << 15
_BLOCK_ALIGN = 16


def _block_starts(cfg: NetworkConfig, cols: int):
    """The first column of each column block of an untraced pass over cols
    columns (the last block runs to the end): [0] alone for the dense kind
    or a pass of one block."""
    fit = max(_BLOCK_ALIGN, _BLOCK_ENTRIES // (cfg.p * cfg.m) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    blocks = min(round(cols / fit), cols // _BLOCK_ALIGN)
    if cfg.kind == KIND_DENSE or blocks < 2:
        return [0]
    width = cols // blocks // _BLOCK_ALIGN * _BLOCK_ALIGN
    return range(0, blocks * width, width)


def _blocks_forward(net: Network, x, want_trace):
    """Every block of net on the (2n, B) batch x: the output and the block
    traces (an empty list untraced)."""
    traces = []
    for blk in net.blocks:
        x, tr = _block_forward(net.config, blk, net.delay, x, want_trace)
        if want_trace:
            traces.append(tr)
    return x, traces


def _forward(net: Network, x, want_trace):
    """forward() on the (2n, B) batch x; a wide untraced pass runs block by
    block into the columns of one C-ordered (2n, B) result."""
    cols = x.shape[1]
    starts = [0] if want_trace else _block_starts(net.config, cols)
    if len(starts) == 1:
        y, traces = _blocks_forward(net, x, want_trace)
        return y, (ForwardTrace(block_traces=traces, y=y) if want_trace else None)
    y = np.empty((x.shape[0], cols))
    for a, b in zip(starts, [*starts[1:], cols]):
        y[:, a:b] = _blocks_forward(net, x[:, a:b], False)[0]
    return y, None


def forward(net: Network, x, want_trace: bool = False):
    """Run the network on one real-split vector or a (2n, B) column batch.

    Returns (y, trace); trace is None unless requested.  The pass runs under
    dvm.with_ufunc_buffers, keyed on its hidden carrier's entries, and a
    wide untraced structured pass runs in column blocks (_block_starts);
    neither changes a byte of y.
    """
    cfg = net.config
    x2, flat = _as_columns(x, 2 * cfg.n, "x")
    y, trace = with_ufunc_buffers(cfg.p * cfg.m * x2.shape[1], _forward, net, x2, want_trace)
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
    # y3 = delay*y1 + skip*y1: g_h reaches y1 through both terms
    _add_column_sums(gblk.skip, g_h.view(np.float64) * tr.y1.view(np.float64))
    g = np.conj(delay)[:, None] * g_h
    np.add(_planes(g), _planes(g_h) * blk.skip.reshape(2, -1, 1), out=_planes(g))
    # the activation's derivative: g where pre >= 0, slope * g elsewhere
    # (g * 1.0 is g exactly)
    gf = g.view(np.float64)
    np.multiply(gf, np.where(tr.pre1.view(np.float64) >= 0, 1.0, cfg.activation_slope), out=gf)
    _add_column_sums(gblk.bias1, gf)
    return g


def _block_backward(cfg: NetworkConfig, blk, gblk, delay, tr, g_out, want_input=True):
    """Reverse one block: add its parameter gradients into gblk, the same
    block of the gradient twin, and return the gradient wrt the block input
    (None without want_input: the first block's has no use)."""
    p, m = cfg.p, cfg.m
    dense = cfg.kind == KIND_DENSE
    gblk.bias_out += g_out.sum(axis=1)
    # output layer, back to the hidden carrier g_h of y3
    if dense:
        gblk.w4 += g_out @ real_split(tr.y3).T
        g_h = real_join(blk.w4.T @ g_out)
    else:
        g_v = real_join(g_out)
        # d_hat scales the output side too: its share joins the input side's
        gblk.d_hat += (g_v * np.conj(tr.t_trunc)).sum(axis=-1)
        g_fs = np.zeros((p, m, g_v.shape[1]), dtype=np.complex128)
        np.multiply(np.conj(blk.d_hat)[:, :, None], g_v, out=g_fs[:, : g_v.shape[0]])
        g_h, tw_g, leaf_g = blk.fstar_chain.backward(tr.fstar_trace, g_fs)
        _accumulate_chain(gblk.fstar_chain, tw_g, leaf_g)
        g_h = g_h.reshape(p * m, -1)

    g_pre1 = _middle_backward(cfg, blk, gblk, delay, tr, g_h)

    if dense:
        g_r = real_split(g_pre1)
        gblk.w1 += g_r @ tr.x.T
        return blk.w1.T @ g_r if want_input else None
    g_z = g_pre1.reshape(p, m, -1)
    gblk.d_breve += (g_z * np.conj(tr.chain_out)).sum(axis=-1)
    g_c = np.conj(blk.d_breve)[:, :, None] * g_z
    g_u, tw_g, leaf_g = blk.f_chain.backward(tr.chain_trace, g_c)
    _accumulate_chain(gblk.f_chain, tw_g, leaf_g)
    gblk.d_hat += (g_u * np.conj(tr.x_c)).sum(axis=-1)
    return _split_sum(np.conj(blk.d_hat)[:, :, None] * g_u) if want_input else None


def _backward(net: Network, trace: ForwardTrace, g_out) -> np.ndarray:
    """Reverse of forward(): every parameter gradient, laid out like net.flat.

    The gradients accumulate in net's gradient twin, Network(net.config)
    built on the first call, whose arrays sit where net's do; the result is
    a copy of its flat vector, so results never alias.
    """
    twin = net._grads
    if twin is None:
        twin = net._grads = Network(net.config)
    twin.flat[...] = 0.0
    for b in range(len(net.blocks) - 1, -1, -1):
        g_out = _block_backward(net.config, net.blocks[b], twin.blocks[b], net.delay,
                                trace.block_traces[b], g_out, want_input=b > 0)
    return twin.flat.copy()


# ---------------------------------------------------------------------------
# construction


def build_network(config: NetworkConfig) -> Network:
    """Construct a network with the documented random initialization.

    Complex parameters start unit modulus with uniform random phase scaled
    by 1/sqrt(fan_in) (fan_in is 1 for diagonals, the leaf size for leaf
    blocks); dense baseline weights are uniform +-1/sqrt(fan_in); biases and
    the skip diagonal start at zero.  Each block draws W1, then W4, from one
    generator seeded with config.seed.
    """
    net = Network(config)
    rng = np.random.default_rng(config.seed)
    for blk in net.blocks:
        if config.kind == KIND_DENSE:
            for w in (blk.w1, blk.w4):
                a = 1.0 / math.sqrt(w.shape[1])
                w[...] = rng.uniform(-a, a, w.shape)
            continue
        for w, chain in ((blk.w1, blk.f_chain), (blk.w4, blk.fstar_chain)):
            _random_start(w, chain, rng)
    return net


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
    chirp = build_bluestein_chain(DvmSpec(cfg.n, alpha)).factors
    exact_f = build_recursive_dft_chain(cfg.m, cfg.depth, normalized=True)
    exact_fs = build_recursive_dft_chain(cfg.m, cfg.depth, inverse=True, normalized=True)
    # one exact W1 row and one W4 row, in the layout of _carve's rows
    w1_row = np.concatenate([chirp[0].values, exact_f.values[0], chirp[3].values])
    w4_row = exact_fs.values[0]
    for blk in net.blocks:
        # every submatrix gets the same values: each row of the stacks
        blk.w1[...] = w1_row
        blk.w4[...] = w4_row
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
        entries = n + cfg.m + 2 * chain_entries(cfg.m, cfg.depth)
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
        cfg.depth,
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
    net = Network(cfg)
    net.set_flat(np.frombuffer(data, dtype="<f8", offset=head_size))
    return net

