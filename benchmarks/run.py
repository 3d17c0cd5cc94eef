#!/usr/bin/env python3
"""dvmbeam benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload transform_sweep --seed 1 --seconds 20 --trace 0

Workloads: transform_sweep, train_recipe, gen_eval (see README.md here).
--trace 0 measures the workload untraced for --seconds and reports the
end-to-end metrics of BENCHMARK.json.  --trace 1 runs a fixed traced pass of
every workload, each in its own process, with a span around each call into a
dvmbeam module, and reports the per-layer metrics; the selected workload's
pass also runs untraced, and the difference of the two walls is the tracing
overhead.  Spans are written to .bench_out/ when each pass ends.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The package is imported from
src/ of the checkout this script sits in; without it the run exits 2.
"""

import os
import sys

# Pin every BLAS/OpenMP pool before numpy is imported anywhere: an unpinned
# 2-thread OpenBLAS turns a 4 us dense 64x64 product into milliseconds.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes, not for measurement")
    # internal: one pass of a traced run, started by trace_run
    ap.add_argument("--child", choices=("traced", "untraced"), help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def high_percentile(values):
    """Highest of PERCENTILES with at least ten samples beyond it, or None."""
    import numpy as np

    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def print_samples(samples):
    for name, (vals, unit) in samples.items():
        hp = high_percentile(vals)
        tail = f"p{hp[0]:g} {hp[1]:.6g}" if hp else "(too few samples for a percentile)"
        print(f"  {name:28s} median {statistics.median(vals):.6g} {unit:3s} "
              f"{tail}  n={len(vals)}")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def span_cost_us(tracer_cls, reps=20000):
    """Cost of recording one span, from an empty span repeated reps times.
    Times spans x this cost estimates the overhead without the drift of the
    machine that the twin-pass difference carries."""
    tr = tracer_cls(True)
    t0 = perf_counter()
    for _ in range(reps):
        with tr.span("bench.calibrate"):
            pass
    return (perf_counter() - t0) / reps * 1e6


def run_pass(args, workload, mode, spans_path):
    """One pass of a workload in a fresh process, so its allocator and caches
    start as in an untraced run (a process that already freed large arrays
    serves medium ones without page faults, which halves some timings)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--scale", args.scale, "--child", mode, "--spans", spans_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_pass(wl, args, ctx):
    """Body of run_pass: prints the pass as one JSON line and appends its
    spans to the run's spans file."""
    tr = wl.Tracer(args.child == "traced")
    t0 = perf_counter()
    res = wl.WORKLOADS[args.workload][1](ctx, tr)
    out = {"metrics": res.metrics, "attempted": res.attempted, "failed": res.failed,
           "notes": res.notes, "wall_ms": (perf_counter() - t0) * 1e3}
    if tr.enabled:
        out.update(wall_ms=(tr.spans[0][5] - tr.spans[0][4]) / 1e6, spans=len(tr.spans),
                   layers=tr.layer_self_ms())
        # spans stay in memory until here; one header line per pass
        tr.write(args.spans, {"pass": args.workload, "seed": args.seed,
                              "machine": machine_facts()}, append=True)
    print(json.dumps(out))


def trace_run(wl, args):
    """Traced pass of every workload, each in its own process; the selected
    workload last, right after an untraced twin of its pass."""
    selected = args.workload
    metrics, attempted, failed = {}, 0, 0
    cost_us = statistics.median(span_cost_us(wl.Tracer) for _ in range(5))
    spans_path = os.path.join(OUT_DIR, f"spans-{selected}-seed{args.seed}.jsonl")
    open(spans_path, "w", encoding="utf-8").close()
    for name in [n for n in wl.WORKLOADS if n != selected] + [selected]:
        if name == selected:
            twin = run_pass(args, name, "untraced", spans_path)
            attempted += twin["attempted"]
            failed += twin["failed"]
            for note in twin["notes"]:
                print(f"  [untraced {name}] {note}")
        res = run_pass(args, name, "traced", spans_path)
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update(res["metrics"])
        layers, wall_ms, spans = res["layers"], res["wall_ms"], res["spans"]
        print(f"traced pass {name}: wall {wall_ms:.3f} ms, {spans} spans, self ms by layer "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items())))
        for note in res["notes"]:
            print(f"  {note}")
        if name == selected:
            untraced_ms = twin["wall_ms"]
            metrics.update({
                "trace.wall_ms": wall_ms,
                "trace.untraced_wall_ms": untraced_ms,
                "trace.overhead_ms": wall_ms - untraced_ms,
                "trace.self_sum_ms": sum(layers.values()),
                "trace.module_self_ms": sum(v for k, v in layers.items() if k != "bench"),
                "trace.spans": spans,
                "trace.span_cost_us": cost_us,
                "trace.overhead_est_ms": spans * cost_us / 1e3,
            })
            print(f"  untraced twin wall {untraced_ms:.3f} ms; measured overhead "
                  f"{wall_ms - untraced_ms:.3f} ms; estimated overhead "
                  f"{spans * cost_us / 1e3:.3f} ms ({cost_us:.3f} us x {spans} spans); "
                  f"self times sum to {sum(layers.values()):.3f} ms")
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, attempted, failed


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dvmbeam", "__init__.py")):
        print(f"error: no dvmbeam package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import dvmbeam

    if os.path.dirname(os.path.abspath(dvmbeam.__file__)) != os.path.join(src, "dvmbeam"):
        print(f"error: dvmbeam imported from {dvmbeam.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    e2e_units, layer_units, names = load_contract()
    if args.workload not in names or args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace and not args.child:
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} trace 1 scale {args.scale}")
        metrics, attempted, failed = trace_run(wl, args)
        return report(metrics, layer_units, attempted, failed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = wl.Ctx(seed=args.seed, seconds=args.seconds, scale=wl.SCALES[args.scale],
                 workdir=workdir)
    try:
        if args.child:
            child_pass(wl, args, ctx)
            return 0
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace 0 scale {args.scale}")
        res = wl.WORKLOADS[args.workload][0](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_samples(res.samples)
    for note in res.notes:
        print(f"  {note}")
    return report(res.metrics, e2e_units, res.attempted, res.failed)


def report(metrics, units, attempted, failed):
    """Print every metric by name and unit, then the result line."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 3
    for name in units:
        print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    print(f"operations: attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
