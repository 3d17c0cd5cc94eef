"""Acceptance gate: one test per shipping criterion, each printing a single
PASS line with its measured numbers (visible with -s, or in the captured
output on failure).  Tolerances are stated inline and never loosened; if a
criterion cannot be met the test stays red and the analysis lives in the
project notes.

The training criteria (7, 8) use pinned recipes: dataset seed 100, split
seed 100, adam, batch 32, learning rate 3e-2 for the structured nets (1e-3
for the dense baseline), early stop at the target validation MSE.
"""

import time

import numpy as np
import pytest

from dvmbeam.complexity import flops_counted_dense, flops_truncated, reduction_report
from dvmbeam.dvm import (
    DvmSpec,
    OpCounter,
    build_bluestein_chain,
    fast_dvm_apply,
    scaled_dvm_dense,
)
from dvmbeam.network import (
    KIND_DENSE,
    NetworkConfig,
    build_network,
    count_parameters,
    forward,
    init_from_dvm,
    save_network,
)
from dvmbeam.signals import make_dataset, save_dataset, split_dataset
from dvmbeam.training import OptimizerConfig, grad_check, min_preactivation_gap, train

VAL_TARGET = 1e-3     # structured-net validation bound (criteria 7, 8)
FFNN_TARGET = 1e-5    # dense-baseline bound (criterion 7)
EPOCH_BUDGET = 2000
WALL_BUDGET_S = 30 * 60


def train_stnn(freq, seed):
    ds = make_dataset(16, freq, [30.0, 40.0, 50.0], 1000, 0.1, seed=100)
    tr, va = split_dataset(ds, seed=100)
    cfg = NetworkConfig(n=16, p=1, depth=5, delay_alpha=ds.alpha, seed=seed)
    opt = OptimizerConfig(name="adam", lr=3e-2, batch_size=32,
                          epochs=EPOCH_BUDGET, seed=seed, target_mse=VAL_TARGET)
    return train(build_network(cfg), tr.x, tr.y, va.x, va.y, opt)


@pytest.fixture(scope="module")
def stnn_24ghz_report():
    return train_stnn(24e9, seed=1)


def test_criterion_1_factorization_oracle():
    """Chain vs dense scaled transform, every size 2..1024, 20 unit alpha."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    n = 2
    while n <= 1024:
        for _ in range(20):
            alpha = complex(np.exp(2j * np.pi * rng.random()))
            spec = DvmSpec(n, alpha)
            chain = build_bluestein_chain(spec)
            ref = scaled_dvm_dense(spec)
            rel = np.linalg.norm(chain.dense() - ref) / np.linalg.norm(ref)
            worst = max(worst, float(rel))
        n *= 2
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst relative Frobenius error {worst:.3e}"
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS  worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_fast_transform_scaling():
    """Instrumented multiply counts double-plus-log, not quadruple."""
    counts = {}
    for n in (128, 256, 512, 1024):
        counter = OpCounter()
        chain = build_bluestein_chain(DvmSpec(n, complex(np.exp(-0.41j))))
        fast_dvm_apply(chain, np.ones(n, dtype=complex), counter)
        counts[n] = counter.muls
    ratios = {n: counts[2 * n] / counts[n] for n in (128, 256, 512)}
    for n, ratio in ratios.items():
        assert ratio <= 2.3, f"count({2*n})/count({n}) = {ratio:.3f}"
    print(f"criterion 2: PASS  ratios "
          + ", ".join(f"{n}->{r:.3f}" for n, r in ratios.items()))


def test_criterion_3_exact_initialization():
    """Transform-exact parameters reproduce the dense product to 1e-9."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (4, 8, 16):
        alpha = complex(np.exp(2j * np.pi * rng.random()))
        cfg = NetworkConfig(n=n, activation_slope=1.0, delay_alpha=1.0 + 0.0j)
        net = init_from_dvm(build_network(cfg), alpha)
        dense = scaled_dvm_dense(DvmSpec(n, alpha))
        x = rng.standard_normal((2 * n, 100))
        y, _ = forward(net, x)
        ref = dense @ (x[:n] + 1j * x[n:])
        err = np.max(np.abs((y[:n] + 1j * y[n:]) - ref)) / np.max(np.abs(ref))
        worst = max(worst, float(err))
    assert worst <= 1e-9, f"worst exact-init error {worst:.3e}"
    print(f"criterion 3: PASS  worst rel err {worst:.3e}")


def test_criterion_4_gradient_correctness():
    """Twenty random small nets, both kinds, finite-difference agreement."""
    worst = 0.0
    for seed in range(10):
        for kind in ("structured", KIND_DENSE):
            rng = np.random.default_rng(500 + seed)
            net = build_network(
                NetworkConfig(n=4, kind=kind, activation_slope=0.2, seed=seed)
            )
            for _ in range(50):
                x = rng.normal(size=(8, 3))
                if min_preactivation_gap(net, x) > 1e-4:
                    break
            t = rng.normal(size=(8, 3))
            res = grad_check(net, x, t)
            worst = max(worst, res["max_rel_err"])
    assert worst <= 1e-5, f"worst gradient error {worst:.3e}"
    print(f"criterion 4: PASS  worst rel err {worst:.3e}")


def test_criterion_5_parameter_counts():
    """Dense counts exact, structured within 15%, weight reduction within 3."""
    dense_expect = {8: 1104, 16: 4256, 32: 16704}
    stnn_expect = {8: 220, 16: 428, 32: 716}
    pr_expect = {8: 83.0, 16: 90.0, 32: 96.0}
    lines = []
    for n, depth in ((8, 4), (16, 5), (32, 6)):
        d = count_parameters(
            build_network(NetworkConfig(n=n, kind=KIND_DENSE))
        )["total"]
        s = count_parameters(
            build_network(NetworkConfig(n=n, p=1, depth=depth))
        )["total"]
        assert d == dense_expect[n], f"n={n}: dense {d}"
        assert abs(s - stnn_expect[n]) <= 0.15 * stnn_expect[n], f"n={n}: {s}"
        pr = 100.0 * (d - s) / d
        assert abs(pr - pr_expect[n]) <= 3.0, f"n={n}: Pr {pr:.1f}"
        lines.append(f"n={n}: {s}/{d} Pr {pr:.1f}%")
    print("criterion 5: PASS  " + "; ".join(lines))


def test_criterion_6_flop_reproduction():
    """Formula and counted FLOPs near the published table, residual shown."""
    table = {8: (992, 2240, 56.0), 16: (2176, 8576, 75.0), 32: (4736, 33536, 85.0)}
    rows = reduction_report()["rows"]
    lines = []
    for row, (n, depth) in zip(rows, ((8, 4), (16, 5), (32, 6))):
        stnn_pub, ffnn_pub, pr_pub = table[n]
        formula = flops_truncated(n, depth)["total"]
        counted_ffnn = flops_counted_dense(n)["total"]
        assert abs(formula - stnn_pub) / stnn_pub <= 0.10, (n, formula)
        assert abs(counted_ffnn - ffnn_pub) / ffnn_pub <= 0.10, (n, counted_ffnn)
        assert abs(row["pr_flops_pct"] - pr_pub) <= 5.0, (n, row["pr_flops_pct"])
        # the formula-vs-counted residual must be carried openly in the row
        assert row["counted_vs_formula_pct"] != 0.0
        lines.append(
            f"n={n}: {formula} vs {stnn_pub} "
            f"(residual {row['counted_vs_formula_pct']:+.1f}%)"
        )
    print("criterion 6: PASS  " + "; ".join(lines))


def test_criterion_7_training_reproduction(stnn_24ghz_report):
    """Structured and dense nets on the 24 GHz set reach their MSE bounds."""
    rep = stnn_24ghz_report
    assert rep.final_val_mse <= VAL_TARGET, f"stnn val {rep.final_val_mse:.3e}"
    assert rep.epochs_run <= EPOCH_BUDGET
    assert rep.wall_time_s <= WALL_BUDGET_S

    ds = make_dataset(16, 24e9, [30.0, 40.0, 50.0], 1000, 0.1, seed=100)
    tr, va = split_dataset(ds, seed=100)
    cfg = NetworkConfig(n=16, kind=KIND_DENSE, delay_alpha=ds.alpha, seed=1)
    opt = OptimizerConfig(name="adam", lr=1e-3, batch_size=32,
                          epochs=EPOCH_BUDGET, seed=1, target_mse=FFNN_TARGET)
    ffnn = train(build_network(cfg), tr.x, tr.y, va.x, va.y, opt)
    assert ffnn.final_val_mse <= FFNN_TARGET, f"ffnn val {ffnn.final_val_mse:.3e}"
    assert ffnn.epochs_run <= EPOCH_BUDGET
    assert rep.wall_time_s + ffnn.wall_time_s <= WALL_BUDGET_S
    print(
        f"criterion 7: PASS  stnn {rep.final_val_mse:.3e} @ ep {rep.epochs_run} "
        f"({rep.wall_time_s:.0f}s), ffnn {ffnn.final_val_mse:.3e} @ ep "
        f"{ffnn.epochs_run} ({ffnn.wall_time_s:.0f}s)"
    )


def test_criterion_8_cross_frequency(stnn_24ghz_report):
    """Separate structured nets at 24, 27, 32 GHz all meet the bound."""
    runs = {24.0: stnn_24ghz_report}
    runs[27.0] = train_stnn(27e9, seed=5)
    runs[32.0] = train_stnn(32e9, seed=1)
    for ghz, rep in runs.items():
        assert rep.final_val_mse <= VAL_TARGET, (
            f"{ghz:g} GHz val {rep.final_val_mse:.3e}"
        )
        assert rep.epochs_run <= EPOCH_BUDGET
        assert rep.wall_time_s <= WALL_BUDGET_S
    print("criterion 8: PASS  " + "; ".join(
        f"{g:g} GHz {r.final_val_mse:.3e} @ ep {r.epochs_run}"
        for g, r in sorted(runs.items())
    ))


def test_criterion_9_determinism(tmp_path):
    """Fixed seeds and single-threaded reduction give bit-identical outputs:
    dataset bytes, training-report digests, saved model bytes, bench files."""
    from dvmbeam.complexity import write_reduction_csv, write_reduction_json

    # dataset artifact
    ds_paths = []
    for tag in ("a", "b"):
        ds = make_dataset(8, 24e9, [30.0, 40.0], 25, 0.1, seed=11)
        path = tmp_path / f"ds_{tag}.bin"
        save_dataset(ds, str(path))
        ds_paths.append(path.read_bytes())
    assert ds_paths[0] == ds_paths[1]

    # training report digest and model bytes
    ds = make_dataset(8, 24e9, [30.0, 40.0], 25, 0.1, seed=11)
    tr, va = split_dataset(ds, seed=11)
    digests, models = [], []
    for tag in ("a", "b"):
        cfg = NetworkConfig(n=8, depth=4, delay_alpha=ds.alpha, seed=3)
        net = build_network(cfg)
        opt = OptimizerConfig(name="adam", lr=1e-2, batch_size=16, epochs=10,
                              seed=3)
        rep = train(net, tr.x, tr.y, va.x, va.y, opt)
        digests.append(rep.digest())
        path = tmp_path / f"model_{tag}.net"
        save_network(net, str(path))
        models.append(path.read_bytes())
    assert digests[0] == digests[1]
    assert models[0] == models[1]

    # bench artifacts
    bench = []
    for tag in ("a", "b"):
        rep = reduction_report()
        cpath = tmp_path / f"red_{tag}.csv"
        jpath = tmp_path / f"red_{tag}.json"
        write_reduction_csv(rep, str(cpath))
        write_reduction_json(rep, str(jpath))
        bench.append(cpath.read_bytes() + jpath.read_bytes())
    assert bench[0] == bench[1]
    print(f"criterion 9: PASS  digests {digests[0][:12]}... identical, "
          "artifacts byte-identical")
