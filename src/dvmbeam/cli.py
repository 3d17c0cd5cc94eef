"""dvmbeam command line.

Subcommands
-----------
  gen-data   simulate array snapshots and write a dataset (binary or CSV)
  train      fit a structured or fully connected net on a dataset
  eval       MSE of a saved model on a dataset, with per-angle breakdown
  verify     run the numerical self-checks (factorization, chains,
             exact initialization, gradients)
  bench      emit the weight/FLOP reduction tables (CSV + JSON)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(also when stdout closes before the output is written), 4 numeric
divergence, 5 shape mismatch.

A config file of `key = value` lines (# comments allowed) can seed any
subcommand's flags via --config; explicit flags win.  --threads N pins the
BLAS/OpenMP pool size and must take effect before numpy loads, which is why
this module imports the numerical stack lazily.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_SHAPE = 5

_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(argv):
    """Pin thread pools before any numpy import; returns argv untouched."""
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
        else:
            continue
        if not n.isdigit() or int(n) < 1:
            print("error: --threads takes a positive integer", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        for var in _THREAD_ENV:
            os.environ[var] = n
    return argv


def _read_config_file(path):
    """Parse `key = value` lines; raises OSError/ValueError on problems."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _fail(code, msg):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _version():
    from . import __version__

    return __version__


def _resolved(args, keys):
    cfg = {k: getattr(args, k) for k in keys}
    cfg["version"] = _version()
    return cfg


def _parse_angles(text):
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("angle list is empty")
    return vals


def _parse_int_list(text):
    try:
        vals = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("list is empty")
    return vals


# ---------------------------------------------------------------------------
# subcommands


# Largest gen-data set, as n times the sample count.  make_dataset peaks at
# about 114 bytes per entry, so the cap keeps a run under 4 GB (and its file
# at 1 GiB) where the flags alone would let numpy ask for terabytes and end
# in a MemoryError traceback.  The check runs before anything is allocated.
GEN_DATA_ENTRIES_MAX = 2**25


def cmd_gen_data(args):
    from .dvm import power_of_two
    from .signals import make_dataset, save_dataset, save_dataset_csv, verify_targets

    for flag in ("n", "freq_ghz", "out"):
        if getattr(args, flag) is None:
            return _fail(EXIT_USAGE, f"--{flag.replace('_', '-')} is required")
    if args.samples_per_angle < 1:
        return _fail(EXIT_USAGE, "--samples-per-angle must be >= 1")
    if power_of_two(args.n, least=2) is None:
        return _fail(EXIT_USAGE, f"--n must be a power of two >= 2, got {args.n}")
    if args.n * len(args.angles) * args.samples_per_angle > GEN_DATA_ENTRIES_MAX:
        return _fail(EXIT_USAGE, f"--n times the sample count (angles x "
                                 f"--samples-per-angle) must be at most {GEN_DATA_ENTRIES_MAX}")
    freq = args.freq_ghz * 1e9
    if args.tau_s is not None and not 0 < args.tau_s < math.inf:
        return _fail(EXIT_USAGE, f"--tau-s must be positive and finite, got {args.tau_s}")
    sample_rate = 32e9 if args.tau_s is None else 1.0 / (args.tau_s * args.n)
    try:
        ds = make_dataset(
            n=args.n, freq=freq, angles_deg=args.angles,
            samples_per_angle=args.samples_per_angle,
            noise_std=args.noise_std, seed=args.seed, sample_rate=sample_rate,
        )
    except ValueError as e:
        return _fail(EXIT_USAGE, str(e))
    err = verify_targets(ds)
    check = "PASS" if err < 1e-9 else "FAIL"
    try:
        if args.format == "csv":
            save_dataset_csv(ds, args.out)
        else:
            save_dataset(ds, args.out)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write {args.out}: {e}")
    print(f"wrote {ds.n_samples} samples to {args.out} "
          f"(n={ds.n}, f={args.freq_ghz} GHz, alpha={ds.alpha:.6f})")
    print(f"target consistency: {check} (max deviation {err:.3e})")
    return EXIT_OK if check == "PASS" else EXIT_VERIFY


def cmd_train(args):
    if args.data is None:
        return _fail(EXIT_USAGE, "--data is required")
    from .network import (
        KIND_DENSE, KIND_STRUCTURED, NetworkConfig, build_network,
        count_parameters, save_network,
    )
    from .signals import load_dataset, split_dataset
    from .training import OptimizerConfig, TrainingDiverged, train

    try:
        ds = load_dataset(args.data)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot read dataset: {e}")
    except ValueError as e:
        return _fail(EXIT_IO, str(e))
    if ds.n_samples == 0:
        return _fail(EXIT_IO, f"{args.data}: dataset has no samples to train on")
    kind = KIND_STRUCTURED if args.model == "stnn" else KIND_DENSE
    try:
        net_cfg = NetworkConfig(
            n=ds.n, p=args.p, depth=getattr(args, "lambda"), kind=kind,
            delay_alpha=ds.alpha, seed=args.seed,
        )
        opt_cfg = OptimizerConfig(
            name=args.optimizer, lr=args.lr, batch_size=args.batch_size,
            epochs=args.epochs, seed=args.seed, target_mse=args.target_mse,
        )
    except ValueError as e:
        return _fail(EXIT_USAGE, str(e))
    tr, va = split_dataset(ds, 0.8, seed=args.seed)
    if len(va.x) == 0:
        return _fail(
            EXIT_USAGE,
            f"the validation split of {args.data} is empty: every angle needs at "
            f"least 2 samples (gen-data --samples-per-angle 2 or more)",
        )
    net = build_network(net_cfg)
    try:
        report = train(net, tr.x, tr.y, va.x, va.y, opt_cfg)
    except TrainingDiverged as e:
        return _fail(EXIT_DIVERGED, f"training diverged: {e}")
    except ValueError as e:
        return _fail(EXIT_SHAPE, str(e))
    params = count_parameters(net)["total"]
    payload = report.to_dict()
    payload["resolved_config"] = _resolved(args, (
        "data", "model", "p", "epochs", "optimizer", "lr", "batch_size",
        "target_mse", "seed",
    ))
    payload["resolved_config"]["lambda"] = net_cfg.resolved_depth
    try:
        if args.out_model:
            save_network(net, args.out_model)
        if args.out_report:
            with open(args.out_report, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}")
    print(f"model: {args.model}  params: {params}  epochs run: {report.epochs_run} "
          f"({report.stop_reason})")
    print(f"final train MSE: {report.final_train_mse:.6e}")
    print(f"final val MSE:   {report.final_val_mse:.6e}")
    return EXIT_OK


def cmd_eval(args):
    if args.model is None or args.data is None:
        return _fail(EXIT_USAGE, "--model and --data are required")
    import numpy as np

    from .network import forward, load_network
    from .signals import load_dataset
    from .training import mse_loss

    try:
        net = load_network(args.model)
        ds = load_dataset(args.data)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot read input: {e}")
    except ValueError as e:
        return _fail(EXIT_IO, str(e))
    if ds.n_samples == 0:
        return _fail(EXIT_IO, f"{args.data}: dataset has no samples to evaluate")
    if net.config.n != ds.n:
        return _fail(
            EXIT_SHAPE,
            f"model expects n={net.config.n} channels, dataset has n={ds.n}",
        )
    y, _ = forward(net, ds.x.T)
    total = mse_loss(y, ds.y.T, ds.n)
    print(f"samples: {ds.n_samples}  overall MSE: {total:.6e}")
    for theta in np.unique(ds.angle):
        rows = ds.angle == theta
        m = mse_loss(y[:, rows], ds.y[rows].T, ds.n)
        print(f"  angle {math.degrees(theta):7.2f} deg: MSE {m:.6e} "
              f"({int(rows.sum())} samples)")
    return EXIT_OK


def _verify_checks(args):
    """Yield (name, worst_error, bound) tuples for the self-check table."""
    import numpy as np

    from .dvm import (
        DvmSpec, build_bluestein_chain, build_recursive_dft_chain,
        fast_dvm_apply, scaled_dvm_dense,
    )
    from .network import NetworkConfig, build_network, forward, init_from_dvm
    from .training import grad_check, min_preactivation_gap

    rng = np.random.default_rng(args.seed)

    worst = 0.0
    n = 2
    while n <= args.n_max:
        eye = np.eye(n, dtype=np.complex128)
        for _ in range(args.trials):
            alpha = np.exp(2j * np.pi * rng.random())
            spec = DvmSpec(n, alpha)
            chain = build_bluestein_chain(spec)
            dense = scaled_dvm_dense(spec)
            got = fast_dvm_apply(chain, eye)
            err = np.linalg.norm(got - dense) / np.linalg.norm(dense)
            worst = max(worst, float(err))
        n *= 2
    yield "factorization-identity", worst, 1e-10

    worst = 0.0
    for size, depth in ((8, 3), (16, 4), (32, 5), (64, 6)):
        chain = build_recursive_dft_chain(size, depth, exact=True)
        if args.corrupt_twiddle:
            chain.twiddles[0][0, 0] *= np.exp(0.01j)
        kk = np.arange(size)
        dense = np.exp(-2j * np.pi * np.outer(kk, kk) / size)
        err = np.linalg.norm(chain.dense() - dense) / np.linalg.norm(dense)
        worst = max(worst, float(err))
    yield "recursive-dft", worst, 1e-12

    worst = 0.0
    for n_net in (4, 8, 16):
        alpha = np.exp(2j * np.pi * rng.random())
        cfg = NetworkConfig(n=n_net, activation_slope=1.0, delay_alpha=1.0)
        net = init_from_dvm(build_network(cfg), alpha)
        dense = scaled_dvm_dense(DvmSpec(n_net, alpha))
        x = rng.standard_normal((2 * n_net, 8))
        y, _ = forward(net, x)
        zc = x[:n_net] + 1j * x[n_net:]
        ref = dense @ zc
        err = np.max(np.abs((y[:n_net] + 1j * y[n_net:]) - ref)) / np.max(np.abs(ref))
        worst = max(worst, float(err))
    yield "exact-initialization", worst, 1e-9

    worst = 0.0
    for kind in ("structured", "fully_connected"):
        for trial in range(max(1, args.trials // 2)):
            cfg = NetworkConfig(
                n=4, depth=2, kind=kind, seed=int(rng.integers(2**31)),
                delay_alpha=np.exp(2j * np.pi * rng.random()),
            )
            net = build_network(cfg)
            th = net.get_flat()
            net.set_flat(th + 0.05 * rng.standard_normal(th.size))
            for _ in range(50):
                x = rng.standard_normal((8, 3))
                t = rng.standard_normal((8, 3))
                if min_preactivation_gap(net, x) > 1e-4:
                    break
            res = grad_check(net, x, t)
            worst = max(worst, res["max_rel_err"])
    yield "gradient-check", worst, 1e-5


# Largest verify --n-max.  Up to 1024 the dense oracle's exponents k*l stay
# below 2**21, inside cis's exact range, so the factorization check measures
# the chain; at 2048 the oracle's own phase error already reads 2.0e-10
# against the 1e-10 bound (10 trials) and peak memory is 458 MB against 131
# MB at 1024, growing fourfold per doubling.  The check runs before anything
# is allocated.
VERIFY_N_MAX = 1024


def cmd_verify(args):
    from .dvm import check_seed, power_of_two

    if args.trials < 1:
        return _fail(EXIT_USAGE, "--trials must be >= 1")
    if power_of_two(args.n_max, least=2) is None or args.n_max > VERIFY_N_MAX:
        return _fail(EXIT_USAGE, f"--n-max must be a power of two in 2..{VERIFY_N_MAX}")
    try:
        check_seed(args.seed)
    except ValueError as e:
        return _fail(EXIT_USAGE, str(e))
    failures = []
    for name, err, bound in _verify_checks(args):
        ok = err <= bound
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} worst {err:.3e}  bound {bound:.0e}")
        if not ok:
            failures.append((name, err))
    if failures:
        worst_name, worst_err = max(failures, key=lambda f: f[1])
        print(f"verification failed: {worst_name} ({worst_err:.3e})")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def cmd_bench(args):
    from .complexity import reduction_report, write_reduction_csv, write_reduction_json
    from .dvm import power_of_two
    from .network import default_depth

    for n in args.n_list:
        if power_of_two(n, least=2) is None:
            return _fail(EXIT_USAGE, f"n values must be powers of two >= 2, got {n}")
    if args.p < 1:
        return _fail(EXIT_USAGE, f"--p must be >= 1, got {args.p}")
    depths = [default_depth(n) for n in args.n_list]
    report = reduction_report(ns=args.n_list, depths=depths, p=args.p)
    extra = {"resolved_config": _resolved(args, ("n_list", "p", "out"))}
    try:
        write_reduction_csv(report, args.out + ".csv")
        write_reduction_json(report, args.out + ".json", extra=extra)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write report: {e}")
    for row in report["rows"]:
        print(f"n={row['n']:3d}  params {row['params_structured']:6d} vs "
              f"{row['params_dense']:6d}  Pr(weights) {row['pr_weights_pct']:5.1f}%  "
              f"Pr(flops) {row['pr_flops_pct']:5.1f}%")
    print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    top = argparse.ArgumentParser(
        prog="dvmbeam",
        description="fast delay-Vandermonde transforms and structured beamforming nets",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    top.add_argument("--config", help="key = value file supplying flag defaults")
    top.add_argument("--threads", type=int, help="pin BLAS/OpenMP thread count")
    sub = top.add_subparsers(dest="subcommand", required=True)
    subparsers = {}

    g = sub.add_parser("gen-data", help="simulate a snapshot dataset")
    g.add_argument("--n", type=int, default=None, help="array size (power of two)")
    g.add_argument("--freq-ghz", type=float, default=None, help="carrier frequency")
    g.add_argument("--angles", type=_parse_angles, default=[30.0, 40.0, 50.0],
                   help="comma list of arrival angles in degrees")
    g.add_argument("--samples-per-angle", type=int, default=1000)
    g.add_argument("--noise-std", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tau-s", type=float, default=None,
                   help="override the transform sampling interval (seconds)")
    g.add_argument("--out", default=None)
    g.add_argument("--format", choices=("binary", "csv"), default="binary")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset")
    t.add_argument("--data", default=None)
    t.add_argument("--model", choices=("stnn", "ffnn"), default="stnn")
    t.add_argument("--p", type=int, default=1)
    t.add_argument("--lambda", type=int, default=None,
                   help="recursion depth (default: per-n schedule)")
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--optimizer", choices=("adam", "sgd", "lm"), default="adam")
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--target-mse", type=float, default=None)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out-model", default=None)
    t.add_argument("--out-report", default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a saved model")
    e.add_argument("--model", default=None)
    e.add_argument("--data", default=None)
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run numerical self-checks")
    v.add_argument("--n-max", type=int, default=256,
                   help=f"largest transform size checked, a power of two in 2..{VERIFY_N_MAX}")
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--corrupt-twiddle", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="emit weight/FLOP reduction tables")
    b.add_argument("--n-list", type=_parse_int_list, default=[8, 16, 32])
    b.add_argument("--p", type=int, default=1)
    b.add_argument("--out", default="reduction_report",
                   help="output base path (writes .csv and .json)")
    b.set_defaults(func=cmd_bench)

    subparsers.update({"gen-data": g, "train": t, "eval": e, "verify": v, "bench": b})
    return top, subparsers


def _apply_config_defaults(subparsers, file_vals):
    for sp in subparsers.values():
        defaults = {}
        for act in sp._actions:
            if act.dest in file_vals:
                raw = file_vals[act.dest]
                if act.type is not None:
                    defaults[act.dest] = act.type(raw)
                elif isinstance(act.default, bool) or act.const is True:
                    defaults[act.dest] = raw.lower() in ("1", "true", "yes")
                else:
                    defaults[act.dest] = raw
        sp.set_defaults(**defaults)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_threads(argv)
    parser, subparsers = _build_parser()
    # first pass only finds --config; the real parse then sees file defaults
    try:
        probe, _ = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    if probe.config:
        try:
            file_vals = _read_config_file(probe.config)
            _apply_config_defaults(subparsers, file_vals)
        except OSError as e:
            return _fail(EXIT_IO, f"cannot read config file: {e}")
        except (ValueError, argparse.ArgumentTypeError) as e:
            return _fail(EXIT_USAGE, f"config file: {e}")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; keep its code for --help (0) too
        return int(e.code) if e.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone (`dvmbeam eval ... | head -1`): point
        # fd 1 at the null device, so that the interpreter's last flush of
        # the unwritten output is silent too
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # an in-memory stdout has no fd
            pass
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
