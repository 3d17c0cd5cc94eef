"""The three benchmark workloads: transform_sweep, train_recipe, gen_eval.

Each workload has
  * run(ctx): the untraced, time-boxed measurement behind the end-to-end
    metrics, returning a Result;
  * trace_pass(ctx, tracer): a fixed amount of the same work with a span
    around every call into a dvmbeam module, returning a Result whose
    metrics are the per-layer numbers read from those spans.

All three are closed loops: one process, one caller, each call starts when
the previous one has returned.  Inputs come from ctx.seed only.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
import hashlib
import io
import os
import re
import resource
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

from dvmbeam import cli, network, signals, training
from dvmbeam.complexity import flops_counted_dense, flops_counted_structured
from dvmbeam.dvm import (
    DvmSpec,
    OpCounter,
    build_bluestein_chain,
    build_recursive_dft_chain,
    fast_dvm_apply,
    scaled_dvm_dense,
)
from dvmbeam.network import (
    NetworkConfig,
    build_network,
    forward,
    init_from_dvm,
    save_network,
)
from dvmbeam.signals import (
    load_dataset,
    load_dataset_csv,
    make_dataset,
    save_dataset_csv,
    split_dataset,
    transform_alpha,
    verify_targets,
)
from dvmbeam.training import (
    OptimizerConfig,
    backward,
    evaluate_mse,
    mse_loss,
    optimizer_step,
    train,
)

from tracing import Tracer, patched

FREQ = 24e9

# Run sizes.  "tiny" exists for the smoke test only; the recipe target is
# loosened there so a smoke run finishes in seconds.
SCALES = {
    "full": dict(
        sweep_setup_reps=5, sweep_trace_reps=10,
        recipe_target=1e-2, recipe_setup_reps=4, eval_reps=30, replay_steps=150, rdft_reps=200,
        ge_spa=300, ge_setup_reps=5, ge_trace_cycles=5,
    ),
    "tiny": dict(
        sweep_setup_reps=1, sweep_trace_reps=1,
        recipe_target=0.3, recipe_setup_reps=2, eval_reps=2, replay_steps=4, rdft_reps=2,
        ge_spa=10, ge_setup_reps=1, ge_trace_cycles=1,
    ),
}


@dataclass
class Ctx:
    seed: int
    seconds: float
    scale: dict
    workdir: str


@dataclass
class Result:
    """samples: name -> (list of values, unit), reported with median and
    high percentile.  metrics: name -> value, for the JSON line."""

    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best(values):
    """Fastest of many short samples spread over the run.  The other tenants
    of a small shared machine slow Python-bound code by up to 1.7x for
    stretches of seconds to tens of seconds, so a run's median (or any
    quantile) depends on how much of the run fell in them: across runs the
    median of the N=16 apply spread 0.12 to 0.36, its 10th percentile up to
    0.40, and the best burst 0.03 to 0.07.  The best sample reads the cost outside those stretches whenever
    the run has any; a sample is the median of a burst where calls are short."""
    return min(values)


def timed(fn, *args):
    """(seconds, fn(*args)).  Set-up is timed this way several times per
    run, spread over the whole run, and reported as the median."""
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


# ---------------------------------------------------------------------------
# transform_sweep: fast_dvm_apply over N and batch.  Large N is FFT-bound,
# N=16 batch 1 is per-call-overhead-bound, so an FFT change shows at one end
# and an overhead change at the other.

SWEEP_NS = (16, 64, 256, 1024, 4096)
BATCHES = (1, 64)
FACTOR_CASES = ("n16b1", "n1024b64", "n4096b64")
DENSE_N_MAX = 1024  # the full oracle matrix is built only up to here
ORACLE_GATE = 1e-10  # criterion-1 bound, gated for N <= DENSE_N_MAX
BURST_NS = 20_000_000


@dataclass
class Case:
    n: int
    b: int
    spec: DvmSpec
    chain: object
    x: np.ndarray

    @property
    def tag(self):
        return f"n{self.n}b{self.b}"


def sweep_setup(ctx, tr):
    rng = np.random.default_rng([ctx.seed, 1])
    cases = []
    for n in SWEEP_NS:
        spec = DvmSpec(n, transform_alpha(FREQ, n))
        chain = tr.call("dvm.build_bluestein_chain", build_bluestein_chain, spec, tag=f"n{n}")
        for b in BATCHES:
            shape = (n,) if b == 1 else (n, b)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cases.append(Case(n, b, spec, chain, x))
    return cases


def oracle_apply(spec, x):
    """scaled_dvm_dense(spec) @ x.  Above DENSE_N_MAX the matrix would take
    hundreds of MB, so its rows are rebuilt 256 at a time.  At those sizes the
    exponents k*l exceed cis's 2**21 exact range, so scaled_dvm_dense takes
    cis's plain-product branch, which is what is reproduced here entry for
    entry."""
    n = spec.n
    if n <= DENSE_N_MAX:
        return scaled_dvm_dense(spec) @ x
    k = np.arange(n, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    for a in range(0, n, 256):
        theta = spec.phi * np.outer(k[a:a + 256], k)
        out[a:a + 256] = (np.cos(theta) + 1j * np.sin(theta)) @ x
    return out


def rel_err(y, ref):
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


def oracle_errors(cases, outputs):
    """Relative error of each case's output against the oracle, by tag."""
    return {c.tag: rel_err(outputs[c.tag], oracle_apply(c.spec, c.x)) for c in cases}


def gated(c, err):
    """True when the case fails its oracle gate.  N above DENSE_N_MAX is
    recorded, not gated: the known cis accuracy gap shows there."""
    return c.n <= DENSE_N_MAX and err > ORACLE_GATE


def max_err_by_n(cases, errs):
    out = {}
    for c in cases:
        out[c.n] = max(out.get(c.n, 0.0), errs[c.tag])
    return out


def sweep_run(ctx):
    res = Result()
    off = Tracer(False)
    setup_t, cases = timed(sweep_setup, ctx, off)
    setup_t = [setup_t]
    times = {c.tag: [] for c in cases}
    bursts = {c.tag: [] for c in cases}  # median of each burst
    outputs, mismatches = {}, {c.tag: 0 for c in cases}
    deadline = perf_counter() + ctx.seconds
    while True:
        # rounds of one burst per case: repeated calls at one size, as in
        # make_dataset, so a small case is not timed cold after a large one
        for c in cases:
            burst_end = perf_counter_ns() + BURST_NS
            first = len(times[c.tag])
            while True:
                t0 = perf_counter_ns()
                y = fast_dvm_apply(c.chain, c.x)
                t1 = perf_counter_ns()
                times[c.tag].append(t1 - t0)
                ref = outputs.setdefault(c.tag, y)
                if ref is not y and not np.array_equal(y, ref):
                    mismatches[c.tag] += 1
                if t1 >= burst_end:
                    break
            bursts[c.tag].append(statistics.median(times[c.tag][first:]))
        setup_t.append(timed(sweep_setup, ctx, off)[0])
        if perf_counter() >= deadline:
            break
    rss = peak_rss_mb()  # before the oracle allocates anything
    errs = oracle_errors(cases, outputs)
    for c in cases:
        # every call is one operation; a reference output that fails the
        # oracle fails every call of its case
        calls = len(times[c.tag])
        bad = calls if gated(c, errs[c.tag]) else mismatches[c.tag]
        res.attempted += calls
        res.failed += bad
        if bad:
            res.notes.append(f"FAILED: {c.tag}: {bad} of {calls} outputs wrong "
                             f"(oracle error {errs[c.tag]:.3e})")
        unit, scale = ("us", 1e-3) if c.b == 1 else ("ms", 1e-6)
        res.samples[f"apply_n{c.n}_b{c.b}_{unit}"] = ([t * scale for t in times[c.tag]], unit)
    for n, e in max_err_by_n(cases, errs).items():
        res.notes.append(f"max_rel_err n{n} {e:.3e}" + ("" if n <= DENSE_N_MAX else " (not gated)"))
    fast = {c.tag: best(bursts[c.tag]) for c in cases}
    res.notes.append("best burst median: " + ", ".join(
        f"{tag} {v / 1e3:.6g} us" for tag, v in fast.items()))
    res.metrics.update({
        "small_op_us": fast["n16b1"] / 1e3,
        "mid_op_ms": fast["n1024b64"] / 1e6,
        "large_op_s": fast["n4096b64"] / 1e9,
        "setup_s": statistics.median(setup_t),
        "peak_rss_mb": rss,
    })
    return res


def sweep_trace_pass(ctx, tr):
    res = Result()
    reps = ctx.scale["sweep_trace_reps"]
    with tr.span("bench.transform_sweep"):
        for _ in range(ctx.scale["sweep_setup_reps"]):
            cases = sweep_setup(ctx, tr)
        by_tag = {c.tag: c for c in cases}
        outputs = {}
        for c in cases:  # consecutive calls per case, as in the untraced bursts
            for _ in range(reps):
                y = tr.call("dvm.fast_dvm_apply", fast_dvm_apply, c.chain, c.x, tag=c.tag)
                ref = outputs.setdefault(c.tag, y)
                res.check(ref is y or np.array_equal(y, ref), f"{c.tag} output changed")
        for tag in FACTOR_CASES:
            c = by_tag[tag]
            for _ in range(reps):
                with tr.span("bench.factor_chain", tag):
                    y = np.asarray(c.x, dtype=np.complex128)
                    for f in c.chain.factors:
                        y = tr.call(f"dvm.{type(f).__name__.lower()}.apply", f.apply, y, tag=tag)
                res.check(np.array_equal(y, outputs[tag]), f"{tag} factor-by-factor output")
        ops = {}
        for c in cases:
            counter = OpCounter()
            tr.call("dvm.fast_dvm_apply", fast_dvm_apply, c.chain, c.x, counter, tag=c.tag + ".counted")
            # OpCounter tallies one column; the batch multiplies the work
            ops[c.tag] = (counter.muls + counter.adds) * c.b
        ref_err = 0.0
        for n in SWEEP_NS:
            c = by_tag[f"n{n}b64"]
            for _ in range(reps):
                y = tr.call("bench.ref_npfft", _npfft_chain, c.chain, c.x, tag=c.tag)
            ref_err = max(ref_err, rel_err(y, outputs[c.tag]))
            if n <= DENSE_N_MAX:
                dense = tr.call("bench.dense_matrix", scaled_dvm_dense, c.spec, tag=c.tag)
                for _ in range(reps):
                    tr.call("bench.ref_dense", np.matmul, dense, c.x, tag=c.tag)
                del dense
        res.check(ref_err <= 1e-9, f"numpy.fft reference differs by {ref_err:.3e}")
        with tr.span("bench.oracle"):
            errs = oracle_errors(cases, outputs)
        for c in cases:
            res.check(not gated(c, errs[c.tag]), f"{c.tag} oracle error {errs[c.tag]:.3e}")
    if not tr.enabled:
        return res
    m = res.metrics
    max_errs = max_err_by_n(cases, errs)
    for c in cases:
        key = f"n{c.n}.b{c.b}"
        t_ms = tr.median_ms("dvm.fast_dvm_apply", c.tag, self_time=True)
        m[f"dvm.apply_ms.{key}"] = t_ms
        m[f"dvm.ops.{key}"] = ops[c.tag]
        m[f"dvm.gops_per_s.{key}"] = ops[c.tag] / (t_ms * 1e-3) / 1e9
    for tag in FACTOR_CASES:
        per_rep = _factor_sums(tr, tag)
        for kind, vals in per_rep.items():
            m[f"dvm.factor_ms.{kind}.{tag}"] = statistics.median(vals)
    for n in SWEEP_NS:
        m[f"dvm.ref_npfft_ms.n{n}.b64"] = tr.median_ms("bench.ref_npfft", f"n{n}b64")
        if n <= DENSE_N_MAX:
            m[f"dvm.ref_dense_ms.n{n}.b64"] = tr.median_ms("bench.ref_dense", f"n{n}b64")
        m[f"dvm.max_rel_err.n{n}"] = max_errs[n]
        m[f"dvm.build_chain_ms.n{n}"] = tr.median_ms("dvm.build_bluestein_chain", f"n{n}")
    return res


def _factor_sums(tr, tag):
    """Per chain application, the summed time of each factor kind."""
    out: dict = {}
    for cid in tr.select("bench.factor_chain", tag):
        kinds: dict = {}
        for i in tr.subtree(cid)[1:]:
            s = tr.spans[i]
            kind = s[2].split(".")[1]
            kinds[kind] = kinds.get(kind, 0.0) + (s[5] - s[4]) / 1e6
        for kind, v in kinds.items():
            out.setdefault(kind, []).append(v)
    return out


def _npfft_chain(chain, x):
    """The same seven factors with numpy.fft in place of the radix-2 Dft."""
    d_hat, d_breve = chain.factors[0].values, chain.factors[3].values
    n, m = chain.spec.n, chain.spec.m
    u = x * d_hat[:, None]
    y = np.fft.fft(u, n=m, axis=0, norm="ortho") * d_breve[:, None]
    return np.fft.ifft(y, axis=0, norm="ortho")[:n] * d_hat[:, None]


# ---------------------------------------------------------------------------
# train_recipe: the pinned recipe from dataset build to stop.  training and
# network do the work; dvm's Bluestein chain runs only in set-up (dataset
# build).  Its seeds are pinned, so epochs to target repeat exactly; the
# workload seed only picks where the traced batch replay starts.

RECIPE_N, RECIPE_DEPTH = 16, 5
RECIPE_ANGLES = (30.0, 40.0, 50.0)
RECIPE_DATA_SEED, RECIPE_SEED = 100, 1
# A recipe is one sample of 20-30 s; the best of two keeps a run that partly
# fell in a slow stretch of the machine from reading slow.
MIN_RECIPES = 2


def recipe_setup(tr):
    ds = tr.call("signals.make_dataset", make_dataset, n=RECIPE_N, freq=FREQ,
                 angles_deg=RECIPE_ANGLES, samples_per_angle=1000,
                 noise_std=0.1, seed=RECIPE_DATA_SEED)
    trn, val = tr.call("signals.split_dataset", split_dataset, ds, seed=RECIPE_DATA_SEED)
    cfg = NetworkConfig(n=RECIPE_N, p=1, depth=RECIPE_DEPTH, delay_alpha=ds.alpha,
                        seed=RECIPE_SEED)
    net = tr.call("network.build_network", build_network, cfg)
    return trn, val, cfg, net


def recipe_opt(ctx):
    return OptimizerConfig(name="adam", lr=3e-2, batch_size=32, epochs=2000,
                           seed=RECIPE_SEED, target_mse=ctx.scale["recipe_target"])


def _check_report(res, rep, target):
    ok = rep.stop_reason == "target_reached" and rep.final_val_mse <= target
    res.check(ok, f"recipe stopped by {rep.stop_reason} at val MSE {rep.final_val_mse:.3e}")


def recipe_run(ctx):
    res = Result()
    # set-up is timed half before and half after training, so its median
    # spans the run rather than one moment of it
    off = Tracer(False)
    setup_t = []
    for _ in range(ctx.scale["recipe_setup_reps"] // 2):
        t, (trn, val, cfg, net) = timed(recipe_setup, off)
        setup_t.append(t)
    opt = recipe_opt(ctx)
    walls, per_step, per_epoch, epochs = [], [], [], set()
    start = perf_counter()
    while True:
        if walls:
            net = build_network(cfg)
        t0 = perf_counter()
        rep = train(net, trn.x, trn.y, val.x, val.y, opt)
        wall = perf_counter() - t0
        _check_report(res, rep, opt.target_mse)
        walls.append(wall)
        per_step.append(wall / rep.steps_run * 1e6)
        per_epoch.append(wall / rep.epochs_run * 1e3)
        epochs.add(rep.epochs_run)
        if len(walls) >= MIN_RECIPES and perf_counter() - start >= ctx.seconds:
            break
    res.check(len(epochs) == 1, f"epochs to target differ between recipes: {sorted(epochs)}")
    evals = []
    for _ in range(ctx.scale["eval_reps"]):
        t, v = timed(evaluate_mse, net, val.x, val.y)
        evals.append(t * 1e3)
        res.check(v == rep.final_val_mse, "evaluate_mse differs from the report")
    rss = peak_rss_mb()
    while len(setup_t) < ctx.scale["recipe_setup_reps"]:
        setup_t.append(timed(recipe_setup, off)[0])
    res.samples["train_time_to_target_s"] = (walls, "s")
    res.samples["train_step_us"] = (per_step, "us")
    res.samples["train_epoch_ms"] = (per_epoch, "ms")
    res.samples["evaluate_mse_ms"] = (evals, "ms")
    res.notes.append(f"epochs {rep.epochs_run}, steps {rep.steps_run}, "
                     f"train_steps_per_s {rep.steps_run / best(walls):.1f} in the best recipe")
    res.metrics.update({
        "small_op_us": best(per_step),
        "mid_op_ms": best(per_epoch),
        "large_op_s": best(walls),
        "setup_s": statistics.median(setup_t),
        "peak_rss_mb": rss,
    })
    return res


def recipe_trace_pass(ctx, tr):
    res = Result()
    sc = ctx.scale
    opt = recipe_opt(ctx)
    with tr.span("bench.train_recipe"):
        trn, val, cfg, net = recipe_setup(tr)
        rep = tr.call("training.train", train, net, trn.x, trn.y, val.x, val.y, opt)
        _check_report(res, rep, opt.target_mse)
        for _ in range(sc["eval_reps"]):
            v = tr.call("training.evaluate_mse", evaluate_mse, net, val.x, val.y)
            res.check(v == rep.final_val_mse, "evaluate_mse differs from the report")
        _replay(ctx, tr, res, trn, cfg, opt)
        _rdft_probe(ctx, tr, res)
    if not tr.enabled:
        return res
    m = res.metrics
    m["training.epochs_to_target"] = rep.epochs_run
    m["training.steps_run"] = rep.steps_run
    m["training.evaluate_mse_ms"] = tr.median_ms("training.evaluate_mse")
    parts = {
        "forward": ["network.forward"],
        "backward": ["training.backward"],
        "pack": ["training.GradientPack.to_flat", "network.Network.get_flat",
                 "network.Network.set_flat"],
        "optimizer": ["training.optimizer_step"],
    }
    meds = {name: tr.median_ms(name, "replay", self_time=True)
            for names in parts.values() for name in names}
    m["network.forward_trace_us"] = meds["network.forward"] * 1e3
    m["training.backward_us"] = meds["training.backward"] * 1e3
    m["training.pack_us"] = meds["training.GradientPack.to_flat"] * 1e3
    m["network.get_flat_us"] = meds["network.Network.get_flat"] * 1e3
    m["network.set_flat_us"] = meds["network.Network.set_flat"] * 1e3
    m["training.optimizer_step_us"] = meds["training.optimizer_step"] * 1e3
    step = sum(meds.values())
    for part, names in parts.items():
        m[f"training.step_share.{part}"] = sum(meds[n] for n in names) / step
    m["dvm.rdft_forward_us"] = tr.median_ms("dvm.RecursiveDftChain.apply_trace") * 1e3
    m["dvm.rdft_backward_us"] = tr.median_ms("dvm.RecursiveDftChain.backward") * 1e3
    return res


def _replay(ctx, tr, res, trn, cfg, opt):
    """Recipe steps through the public calls train() makes, one span each:
    the epoch-0 batch order of the recipe, from a fresh seed-1 net."""
    net = build_network(cfg)
    xT, tT = trn.x.T, trn.y.T
    order = np.random.default_rng(opt.seed).permutation(xT.shape[1])
    starts = list(range(0, xT.shape[1], opt.batch_size))
    first = ctx.seed % len(starts)
    before = evaluate_mse(net, trn.x, trn.y)
    state = None
    for k in range(ctx.scale["replay_steps"]):
        a = starts[(first + k) % len(starts)]
        idx = order[a:a + opt.batch_size]
        xb, tb = xT[:, idx], tT[:, idx]
        y, trace = tr.call("network.forward", forward, net, xb, want_trace=True, tag="replay")
        pack = tr.call("training.backward", backward, net, trace, tb,
                       norm=cfg.n * xb.shape[1], tag="replay")
        g = tr.call("training.GradientPack.to_flat", pack.to_flat, net, tag="replay")
        theta = tr.call("network.Network.get_flat", net.get_flat, tag="replay")
        theta, state = tr.call("training.optimizer_step", optimizer_step, theta, g, state,
                               opt, tag="replay")
        tr.call("network.Network.set_flat", net.set_flat, theta, tag="replay")
        res.check(bool(np.all(np.isfinite(g))) and np.isfinite(mse_loss(y, tb, cfg.n)),
                  f"replay step {k} not finite")
    after = evaluate_mse(net, trn.x, trn.y)
    res.check(after < before, f"replayed steps did not lower training MSE ({before} -> {after})")


def _rdft_probe(ctx, tr, res):
    """The trainable DFT chain of the recipe net: size 2n=32, depth 5, batch 32."""
    rng = np.random.default_rng([ctx.seed, 3])
    chain = build_recursive_dft_chain(2 * RECIPE_N, RECIPE_DEPTH, exact=False,
                                      normalized=True, rng=rng)
    x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    for _ in range(ctx.scale["rdft_reps"]):
        y, trace = tr.call("dvm.RecursiveDftChain.apply_trace", chain.apply_trace, x)
        gx, _, _ = tr.call("dvm.RecursiveDftChain.backward", chain.backward, trace, g)
    # the input gradient of a linear map is its adjoint: <A x, g> = <x, A^H g>
    lhs, rhs = np.vdot(g, y), np.vdot(gx, x)
    res.check(abs(lhs - rhs) <= 1e-12 * abs(lhs), "recursive chain backward is not the adjoint")


# ---------------------------------------------------------------------------
# gen_eval: the CLI path in process.  gen-data writes a binary dataset, eval
# scores an exact-initialized net on it (identity activation, unit delay, so
# its output equals the stored targets), and a CSV save and load of the same
# dataset runs beside them.  dvm runs at batch 1 inside make_dataset and at
# full batch in verify_targets; network.forward runs untraced over the set.

EXACT_EVAL_MSE = 1e-18
_MSE_RE = re.compile(r"samples: (\d+)\s+overall MSE: (\S+)")


def ge_paths(ctx):
    return {k: os.path.join(ctx.workdir, f) for k, f in
            (("model", "exact.stnn"), ("data", "snaps.bin"), ("csv", "snaps.csv"))}


def ge_setup(tr, model_path):
    cfg = NetworkConfig(n=RECIPE_N, activation_slope=1.0, delay_alpha=1.0)
    net = tr.call("network.build_network", build_network, cfg)
    tr.call("network.init_from_dvm", init_from_dvm, net, transform_alpha(FREQ, RECIPE_N))
    tr.call("network.save_network", save_network, net, model_path)
    return cfg


def ge_argv(ctx, paths):
    rng = np.random.default_rng([ctx.seed, 2])
    angles = np.sort(rng.choice(np.arange(-60.0, 60.5, 0.5), 3, replace=False))
    gen = ["gen-data", "--n", str(RECIPE_N), "--freq-ghz", str(FREQ / 1e9),
           # one token, so argparse cannot read a leading minus as a flag
           "--angles=" + ",".join(f"{a:g}" for a in angles),
           "--samples-per-angle", str(ctx.scale["ge_spa"]), "--noise-std", "0.1",
           "--seed", str(ctx.seed), "--out", paths["data"]]
    ev = ["eval", "--model", paths["model"], "--data", paths["data"]]
    return gen, ev


def _quiet_main(tr, argv, tag):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call("cli.main", cli.main, argv, tag=tag)
    return code, out.getvalue()


class _GenEvalChecker:
    """Checks one gen-data / eval / CSV cycle; the first dataset written is
    verified against the transform, later ones must be byte-identical."""

    def __init__(self, res, n_samples):
        self.res = res
        self.n_samples = n_samples
        self.digest = None

    def gen(self, code, text, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        ok = code == 0 and "target consistency: PASS" in text
        if self.digest is None and ok:
            err = verify_targets(load_dataset(path, verify=False))
            ok = err <= 1e-9
            self.digest = digest
        self.res.check(ok and digest == self.digest, f"gen-data exit {code}: {text.strip()}")

    def eval(self, code, text):
        m = _MSE_RE.search(text)
        ok = (code == 0 and m is not None and int(m.group(1)) == self.n_samples
              and float(m.group(2)) <= EXACT_EVAL_MSE)
        self.res.check(ok, f"eval of the exact net: exit {code}: {text.strip()}")

    def csv(self, ds, back):
        ok = (np.array_equal(ds.x, back.x) and np.array_equal(ds.y, back.y)
              and np.array_equal(ds.time, back.time)
              and np.allclose(ds.angle, back.angle, rtol=0, atol=1e-12))
        self.res.check(ok, "CSV round trip changed the dataset")


def ge_run(ctx):
    res = Result()
    paths = ge_paths(ctx)
    off = Tracer(False)
    setup_t = [timed(ge_setup, off, paths["model"])[0]]
    gen, ev = ge_argv(ctx, paths)
    n_samples = 3 * ctx.scale["ge_spa"]
    chk = _GenEvalChecker(res, n_samples)
    gen_t, eval_t, csv_t = [], [], []
    deadline = perf_counter() + ctx.seconds
    while True:
        t0 = perf_counter()
        code, text = _quiet_main(off, gen, "gen-data")
        gen_t.append(perf_counter() - t0)
        chk.gen(code, text, paths["data"])
        t0 = perf_counter()
        code, text = _quiet_main(off, ev, "eval")
        eval_t.append(perf_counter() - t0)
        chk.eval(code, text)
        ds = load_dataset(paths["data"], verify=False)
        t0 = perf_counter()
        save_dataset_csv(ds, paths["csv"])
        back = load_dataset_csv(paths["csv"])
        csv_t.append(perf_counter() - t0)
        chk.csv(ds, back)
        setup_t.append(timed(ge_setup, off, paths["model"])[0])
        if perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    res.samples["gen_data_s"] = (gen_t, "s")
    res.samples["eval_s"] = (eval_t, "s")
    res.samples["csv_roundtrip_s"] = (csv_t, "s")
    eval_fast = best(eval_t)
    res.notes.append(f"eval_samples_per_s {n_samples / eval_fast:.1f} at the best eval time "
                     f"({n_samples} samples)")
    res.metrics.update({
        "small_op_us": eval_fast / n_samples * 1e6,
        "mid_op_ms": best(csv_t) * 1e3,
        "large_op_s": best(gen_t),
        "setup_s": statistics.median(setup_t),
        "peak_rss_mb": rss,
    })
    return res


# the calls cli makes into the other layers (it imports them per subcommand)
CLI_BOUNDARY = [
    (signals, "make_dataset", "signals.make_dataset"),
    (signals, "verify_targets", "signals.verify_targets"),
    (signals, "save_dataset", "signals.save_dataset"),
    (signals, "load_dataset", "signals.load_dataset"),
    (network, "load_network", "network.load_network"),
    (network, "forward", "network.forward"),
    (training, "mse_loss", "training.mse_loss"),
]


def ge_trace_pass(ctx, tr):
    res = Result()
    paths = ge_paths(ctx)
    gen, ev = ge_argv(ctx, paths)
    n_samples = 3 * ctx.scale["ge_spa"]
    chk = _GenEvalChecker(res, n_samples)
    with tr.span("bench.gen_eval"):
        for _ in range(ctx.scale["ge_setup_reps"]):
            cfg = ge_setup(tr, paths["model"])
        for _ in range(ctx.scale["ge_trace_cycles"]):
            with patched(tr, CLI_BOUNDARY) if tr.enabled else contextlib.nullcontext():
                code, text = _quiet_main(tr, gen, "gen-data")
                with tr.span("bench.check"):
                    chk.gen(code, text, paths["data"])
                code, text = _quiet_main(tr, ev, "eval")
                chk.eval(code, text)
            ds = tr.call("signals.load_dataset", load_dataset, paths["data"], verify=False,
                         tag="direct")
            tr.call("signals.save_dataset_csv", save_dataset_csv, ds, paths["csv"])
            back = tr.call("signals.load_dataset_csv", load_dataset_csv, paths["csv"])
            chk.csv(ds, back)
        flops = {
            "structured": tr.call("complexity.flops_counted_structured",
                                  flops_counted_structured, RECIPE_N, cfg.resolved_depth),
            "dense": tr.call("complexity.flops_counted_dense", flops_counted_dense, RECIPE_N),
        }
    if not tr.enabled:
        return res
    m = res.metrics
    for kind, f in flops.items():
        m[f"complexity.counted_flops.{kind}.n16"] = f["total"]
    fwd_ms = tr.median_ms("network.forward", "")
    m["network.forward_eval_ms"] = fwd_ms
    m["network.forward_mflops_per_s"] = flops["structured"]["total"] * n_samples / (fwd_ms * 1e-3) / 1e6
    m["network.save_ms"] = tr.median_ms("network.save_network")
    m["network.load_ms"] = tr.median_ms("network.load_network", self_time=True)
    m["network.file_bytes"] = os.path.getsize(paths["model"])
    m["signals.make_dataset_ms"] = tr.median_ms("signals.make_dataset")
    m["signals.verify_targets_ms"] = tr.median_ms("signals.verify_targets")
    m["signals.save_ms"] = tr.median_ms("signals.save_dataset")
    m["signals.load_ms"] = tr.median_ms("signals.load_dataset", "direct")
    m["signals.file_bytes"] = os.path.getsize(paths["data"])
    m["signals.csv_save_ms"] = tr.median_ms("signals.save_dataset_csv")
    m["signals.csv_load_ms"] = tr.median_ms("signals.load_dataset_csv")
    m["cli.gen_data_ms"] = tr.median_ms("cli.main", "gen-data")
    m["cli.eval_ms"] = tr.median_ms("cli.main", "eval")
    st = tr.self_times()
    mains = tr.select("cli.main")
    per_cycle = [(st[a] + st[b]) / 1e6 for a, b in zip(mains[0::2], mains[1::2])]
    m["cli.overhead_ms"] = statistics.median(per_cycle)
    return res


WORKLOADS = {
    "transform_sweep": (sweep_run, sweep_trace_pass),
    "train_recipe": (recipe_run, recipe_trace_pass),
    "gen_eval": (ge_run, ge_trace_pass),
}
