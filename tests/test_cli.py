"""Command-line tests: every subcommand end to end on small inputs, exit
codes, config-file layering, and output artifacts."""

import functools
import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dvmbeam import signals
from dvmbeam.cli import (
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_SHAPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    GEN_DATA_ENTRIES_MAX,
    TRAIN_CARRIER_ENTRIES_MAX,
    TRAIN_PARAMS_MAX,
    main,
)
from dvmbeam import network
from dvmbeam.network import NetworkConfig, build_network, init_from_dvm, save_network
from dvmbeam.signals import load_dataset, make_dataset, save_dataset, transform_alpha


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data8(work):
    path = work / "n8.bin"
    code = main(["gen-data", "--n", "8", "--freq-ghz", "24",
                 "--angles", "30,40", "--samples-per-angle", "20",
                 "--seed", "0", "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def data16(work):
    path = work / "n16.bin"
    code = main(["gen-data", "--n", "16", "--freq-ghz", "24",
                 "--samples-per-angle", "10", "--seed", "1", "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def data4_clean(work):
    path = work / "n4_clean.bin"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24",
                 "--samples-per-angle", "8", "--noise-std", "0",
                 "--seed", "2", "--out", str(path)])
    assert code == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_defaults(work, capsys):
    path = work / "full.bin"
    code = main(["gen-data", "--n", "16", "--freq-ghz", "24", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "wrote 3000 samples" in out
    assert "target consistency: PASS" in out
    ds = load_dataset(str(path))
    assert ds.n == 16 and ds.n_samples == 3000
    assert sorted(set(np.round(np.degrees(ds.angle), 6))) == [30.0, 40.0, 50.0]


def test_gen_data_missing_flags(capsys):
    assert main(["gen-data", "--freq-ghz", "24", "--out", "x"]) == EXIT_USAGE
    assert "--n is required" in capsys.readouterr().err


def test_gen_data_zero_samples(work, capsys):
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24",
                 "--samples-per-angle", "0", "--out", str(work / "z.bin")])
    assert code == EXIT_USAGE
    assert "samples-per-angle" in capsys.readouterr().err


@pytest.mark.parametrize("n,spa", [(2**40, 1), (4, 10**11), (2**23, 2)],
                         ids=["48TiB", "745GiB", "just_over"])
def test_gen_data_rejects_an_oversized_set_before_allocating(work, capsys, n, spa):
    # these used to end in a numpy MemoryError traceback and exit 1
    import tracemalloc

    out = work / "huge.bin"
    tracemalloc.start()
    try:
        code = main(["gen-data", "--n", str(n), "--freq-ghz", "24",
                     "--samples-per-angle", str(spa), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert f"at most {GEN_DATA_ENTRIES_MAX}" in capsys.readouterr().err
    assert peak < 1 << 20 and not out.exists()


def test_gen_data_and_load_agree_at_the_target_bound(work, capsys, monkeypatch):
    # gen-data printed FAIL (exit 1) for a set exactly at the bound, which
    # load_dataset then accepted; one step past it, both refuse
    path = work / "at_bound.bin"
    monkeypatch.setattr(signals, "verify_targets", lambda ds: signals.TARGET_TOL)
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "2",
                 "--out", str(path)]) == EXIT_OK
    assert "target consistency: PASS" in capsys.readouterr().out
    assert load_dataset(str(path)).n_samples == 6
    past = np.nextafter(signals.TARGET_TOL, 1)
    monkeypatch.setattr(signals, "verify_targets", lambda ds: past)
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "2",
                 "--out", str(path)]) == EXIT_VERIFY
    assert "target consistency: FAIL" in capsys.readouterr().out
    with pytest.raises(ValueError, match="limit 1e-09"):
        load_dataset(str(path))


def test_gen_data_negative_noise(work):
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24",
                 "--noise-std", "-1", "--out", str(work / "z.bin")]) == EXIT_USAGE


def test_gen_data_nan_frequency(work, capsys):
    # make_dataset rejects a NaN frequency by name (it used to write an
    # all-NaN dataset and exit 1, then to fail on the NaN generator)
    out = work / "nan_freq.bin"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "nan", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "freq must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_refuses_noise_that_overflows(work, capsys):
    # this used to print seven numpy RuntimeWarnings, write a set with
    # infinite inputs and NaN targets, and exit 1
    out = work / "overflow.bin"
    flags = ["gen-data", "--n", "16", "--freq-ghz", "24", "--angles", "30",
             "--samples-per-angle", "50", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(flags + ["--noise-std", "1e307"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: noise_std 1e+307 is too large: a noisy snapshot "
                                "or its target is not finite\n")
        assert not out.exists()
        assert main(flags + ["--noise-std", "1e306"]) == EXIT_OK
    assert "target consistency: PASS" in capsys.readouterr().out
    assert load_dataset(str(out)).n_samples == 50


def test_gen_data_deterministic(work):
    a, b = work / "det_a.bin", work / "det_b.bin"
    flags = ["gen-data", "--n", "4", "--freq-ghz", "27",
             "--samples-per-angle", "5", "--seed", "9"]
    assert main(flags + ["--out", str(a)]) == EXIT_OK
    assert main(flags + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed,noise", [(str(2**63), "0.1"), ("-1", "0"), ("-1", "0.1")],
                         ids=["2**63-noisy", "minus1-clean", "minus1-noisy"])
def test_gen_data_rejects_seed_outside_header_range(work, capsys, seed, noise):
    # the seed fills a signed 64-bit header field: 2**63 used to build the
    # whole set and then die in struct.pack, and -1 wrote a file when the
    # set had no noise
    path = work / f"seed_{seed}_{noise}.bin"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "2",
                 "--noise-std", noise, "--seed", seed, "--out", str(path)])
    assert code == EXIT_USAGE
    assert "seed must be an integer in 0..2**63-1" in capsys.readouterr().err
    assert not path.exists()


def test_gen_data_largest_seed_round_trips(work):
    path = work / "seed_max.bin"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "2",
                 "--seed", str(2**63 - 1), "--out", str(path)])
    assert code == EXIT_OK
    assert load_dataset(str(path)).seed == 2**63 - 1


def test_gen_data_csv_format(work):
    path = work / "tiny.csv"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24",
                 "--angles", "30", "--samples-per-angle", "6",
                 "--noise-std", "0", "--format", "csv", "--out", str(path)])
    assert code == EXIT_OK
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("sample_id,t,angle_deg,x_re_0")


def test_gen_data_tau_override(work):
    # tau = 1/(n * rate): passing tau = 1/64 at n=4 pins the rate to 16 GHz
    path = work / "tau.bin"
    tau = 1.0 / (4 * 16e9)
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24", "--tau-s",
                 f"{tau:.18e}", "--samples-per-angle", "3", "--noise-std", "0",
                 "--out", str(path)])
    assert code == EXIT_OK
    ds = load_dataset(str(path))
    assert ds.sample_rate == pytest.approx(16e9, rel=1e-12)


@pytest.mark.parametrize("flags,match", [
    ("--tau-s=inf", "--tau-s"), ("--tau-s=-1e-12", "--tau-s"), ("--tau-s=0", "--tau-s"),
    ("--tau-s=nan", "--tau-s"), ("--tau-s=1e-320", "sample rate"),
    ("--noise-std=nan", "noise_std"), ("--noise-std=inf", "noise_std"),
    ("--angles=30,nan", "angles"), ("--n=0 --tau-s=1e-12", "--n"),
], ids=["tau_inf", "tau_neg", "tau_0", "tau_nan", "tau_tiny", "noise_nan", "noise_inf",
        "angle_nan", "n0_with_tau"])
def test_gen_data_rejects_values_that_make_a_bad_set(work, capsys, flags, match):
    # each of these used to end in a traceback, a NaN set (exit 1), a set
    # that load_dataset rejects, or (tau 0) a silent fall back to 32 GHz
    out = work / "rejected.bin"
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "2",
                 *flags.split(), "--out", str(out)])
    assert code == EXIT_USAGE
    assert match in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_ffnn_param_echo(data8, work, capsys):
    report_path = work / "ffnn_report.json"
    code = main(["train", "--data", str(data8), "--model", "ffnn",
                 "--epochs", "2", "--seed", "0",
                 "--out-report", str(report_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "params: 1104" in out
    payload = json.loads(report_path.read_text())
    assert payload["param_count"] == 1104
    assert payload["resolved_config"]["model"] == "ffnn"
    assert payload["resolved_config"]["version"]
    assert payload["epochs_run"] == 2


def test_train_stnn_param_band(data16, capsys):
    code = main(["train", "--data", str(data16), "--model", "stnn",
                 "--p", "1", "--lambda", "5", "--epochs", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    params = int(re.search(r"params: (\d+)", out).group(1))
    assert abs(params - 428) <= 0.15 * 428


def test_train_zero_epochs(data8, work, capsys):
    report_path = work / "zero.json"
    code = main(["train", "--data", str(data8), "--epochs", "0",
                 "--out-report", str(report_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "epochs run: 0" in out
    payload = json.loads(report_path.read_text())
    assert payload["epochs_run"] == 0
    assert payload["train_mse"] == []
    assert payload["final_val_mse"] >= 0.0


def test_train_divergence_exit_code(data8, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(data8), "--optimizer", "sgd",
                     "--lr", "1e6", "--epochs", "50", "--seed", "0"])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


def test_train_rejects_nan_learning_rate(data8, capsys):
    # a NaN rate used to pass the config check and end as a divergence (exit 4)
    code = main(["train", "--data", str(data8), "--lr", "nan", "--epochs", "1"])
    assert code == EXIT_USAGE
    assert "lr must be finite" in capsys.readouterr().err


def test_train_empty_validation_split(work, capsys):
    path = work / "one_per_angle.bin"
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "1",
                 "--seed", "3", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    code = main(["train", "--data", str(path), "--epochs", "1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "validation split" in err and "--samples-per-angle" in err


def test_train_rejects_a_dataset_without_samples(work, capsys):
    # a 0-sample file loads, but has nothing to split or train on: train
    # names the file and exits 3 where it used to die in split_dataset with
    # exit 1, the verification-failure code
    path = work / "empty_train4.bin"
    save_dataset(make_dataset(4, 24e9, [], 10, 0.1, seed=0), str(path))
    assert load_dataset(str(path)).n_samples == 0
    code = main(["train", "--data", str(path), "--epochs", "1"])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert str(path) in captured.err and "no samples" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n,model,p,built", [
    (16, "stnn", 100000, False),  # 35M parameters, a 1.6 GB carrier per chunk
    (16, "stnn", 4097, False),    # the carrier cap alone, one submatrix over
    (16, "stnn", 4096, True),     # at the carrier cap
    (4096, "ffnn", 1, False),     # the parameter cap alone: 268M parameters
], ids=["p100000", "carrier_just_over", "carrier_at_cap", "ffnn_n4096"])
def test_train_refuses_a_net_too_large_before_building_it(work, capsys, monkeypatch,
                                                          n, model, p, built):
    # these used to end in a numpy MemoryError traceback and exit 1, or ask
    # for hundreds of GiB (an ffnn at n=65536 wants 512 GiB)
    import tracemalloc

    path = work / f"cap_n{n}.bin"
    if not path.exists():
        save_dataset(make_dataset(n, 24e9, [30.0, 40.0, 50.0], 4, 0.1, seed=0), str(path))

    class Built(Exception):
        pass

    def refuse(cfg):
        raise Built(cfg)

    monkeypatch.setattr(network, "build_network", refuse)
    model_path = work / "cap.net"
    tracemalloc.start()
    try:
        try:
            code = main(["train", "--data", str(path), "--model", model, "--p", str(p),
                         "--out-model", str(model_path)])
        except Built:
            code = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert not model_path.exists() and peak < 1 << 25
    if built:
        assert code is None and err == ""
        return
    assert code == EXIT_USAGE
    assert f"--p {p}" in err and f"n={n}" in err
    assert f"at most {TRAIN_PARAMS_MAX} and {TRAIN_CARRIER_ENTRIES_MAX}" in err


@pytest.mark.parametrize("model", ["ffnn", "stnn"])
def test_a_dense_whole_set_pass_over_the_cap_is_refused(data16, work, capsys, monkeypatch,
                                                         model):
    # the dense kind runs evaluate_mse (train) and eval over the whole set in
    # one unblocked pass: --p 4096 on a 3000-sample n=16 set asked for a
    # 4.69 GiB product and ended in a MemoryError traceback.  The 30-sample
    # n=16 set at --p 2 has 2 * 32 * 30 = 1920 carrier entries; the
    # structured kind runs in column blocks and is never refused
    import dvmbeam.cli as cli

    model_path = work / f"dense_cap_{model}.net"
    train = ["train", "--data", str(data16), "--model", model, "--p", "2", "--epochs", "1",
             "--out-model", str(model_path)]
    monkeypatch.setattr(cli, "DENSE_SET_ENTRIES_MAX", 1919)
    code = main(train)
    err = capsys.readouterr().err
    if model == "stnn":
        assert code == EXIT_OK and err == ""
    else:
        assert code == EXIT_USAGE and not model_path.exists()
        assert "--p 2" in err and "30 samples" in err and "at most 1919" in err
        monkeypatch.setattr(cli, "DENSE_SET_ENTRIES_MAX", 1920)
        assert main(train) == EXIT_OK
        monkeypatch.setattr(cli, "DENSE_SET_ENTRIES_MAX", 1919)
    capsys.readouterr()
    # eval checks a loaded model against the same cap, before its pass

    class Ran(Exception):
        pass

    def forward(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(network, "forward", forward)
    evaluate = ["eval", "--model", str(model_path), "--data", str(data16)]
    if model == "stnn":
        with pytest.raises(Ran):
            main(evaluate)
    else:
        assert main(evaluate) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(model_path) in err and "--p 2" in err and "at most 1919" in err


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_gen_data_bytes_do_not_depend_on_the_cpu_count(work, capsys, monkeypatch, fmt):
    # with two usable CPUs the noise rows are drawn beside the snapshot
    # synthesis and the file is written while the targets are checked; the
    # benchmark's 900-sample shape
    import threading

    from test_dvm import spy_threads

    outputs = {}
    for cpus in (1, 2):
        started = spy_threads(monkeypatch, cpus, force=False)
        path = work / f"cpus{cpus}.{fmt}"
        before = threading.active_count()
        code = main(["gen-data", "--n", "16", "--freq-ghz", "24", "--samples-per-angle", "300",
                     "--seed", "7301", "--format", fmt, "--out", str(path)])
        assert code == EXIT_OK and threading.active_count() == before
        assert len(started) == 2 * (cpus - 1) and not any(t.is_alive() for t in started)
        outputs[cpus] = (path.read_bytes(), capsys.readouterr().out.replace(str(path), "OUT"))
    assert outputs[1] == outputs[2]


def test_gen_data_write_error_on_the_worker_exits_with_the_io_code(work, capsys,
                                                                   monkeypatch):
    import threading

    import dvmbeam.dvm as dvm

    monkeypatch.setattr(dvm, "_usable_cpus", lambda: 2)
    path = work / "no_such_dir" / "set.bin"
    before = threading.active_count()
    code = main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "3",
                 "--out", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_IO and threading.active_count() == before
    assert captured.err.startswith(f"error: cannot write {path}:") and captured.out == ""


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_nan_angle_in_the_dataset_exits_with_the_io_code(exact_model, work, capsys, command):
    # a 6-sample n=4 set with one NaN angle used to load: eval then died in
    # its per-angle scores on an empty batch, and train's split dropped the
    # sample from both parts
    ds = make_dataset(4, 24e9, [-20.0, 30.0], 3, 0.1, seed=4)
    ds.angle[4] = float("nan")
    path = work / f"nan_angle_{command}.bin"
    save_dataset(ds, str(path))
    argv = (["train", "--data", str(path), "--epochs", "1"] if command == "train"
            else ["eval", "--model", str(exact_model), "--data", str(path)])
    code = main(argv)
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert f"{path}: row 4 has a non-finite angle (nan)" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_train_missing_data_flag(capsys):
    assert main(["train"]) == EXIT_USAGE


def test_train_unreadable_dataset(work, capsys):
    assert main(["train", "--data", str(work / "missing.bin")]) == EXIT_IO


@pytest.mark.parametrize("seed", ["-2", str(2**63)])
def test_train_rejects_seed_outside_header_range(data8, work, capsys, seed):
    # -2 used to fail in split_dataset with a traceback, 2**63 after
    # training, in struct.pack
    model, report = work / f"seed{seed}.stnn", work / f"seed{seed}.json"
    code = main(["train", "--data", str(data8), "--epochs", "1", "--seed", seed,
                 "--out-model", str(model), "--out-report", str(report)])
    assert code == EXIT_USAGE
    assert "seed must be an integer in 0..2**63-1" in capsys.readouterr().err
    assert not model.exists() and not report.exists()


def test_train_has_no_workers_flag(data8):
    assert main(["train", "--data", str(data8), "--workers", "2"]) == EXIT_USAGE


def test_train_writes_model(data8, work):
    model_path = work / "m8.net"
    code = main(["train", "--data", str(data8), "--epochs", "1", "--seed", "1",
                 "--out-model", str(model_path)])
    assert code == EXIT_OK
    assert model_path.stat().st_size > 0


def test_gen_train_eval_chain_with_three_submatrices(tmp_path):
    # the p stacked submatrices run end to end: a p=3 model is trained,
    # written and scored by eval
    data, model = tmp_path / "n4.bin", tmp_path / "p3.net"
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "6",
                 "--seed", "3", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--p", "3", "--epochs", "1", "--seed", "2",
                 "--out-model", str(model)]) == EXIT_OK
    assert main(["eval", "--model", str(model), "--data", str(data)]) == EXIT_OK


def test_train_report_reproducible(data8, work):
    outs = []
    for tag in ("r1", "r2"):
        path = work / f"{tag}.json"
        code = main(["train", "--data", str(data8), "--epochs", "3",
                     "--seed", "7", "--out-report", str(path)])
        assert code == EXIT_OK
        payload = json.loads(path.read_text())
        payload.pop("wall_time_s")
        outs.append(payload)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def exact_model(work):
    alpha = transform_alpha(24e9, 4)
    cfg = NetworkConfig(n=4, activation_slope=1.0, delay_alpha=1.0 + 0.0j)
    net = init_from_dvm(build_network(cfg), alpha)
    path = work / "exact4.net"
    save_network(net, str(path))
    return path


@pytest.mark.parametrize("subcommand", ["eval", "train"])
@pytest.mark.parametrize("field,value", [("x", np.inf), ("y", np.nan)])
def test_non_finite_set_exits_with_one_line_naming_the_row(exact_model, data4_clean, work,
                                                           capsys, subcommand, field, value):
    # the target check used to print numpy's overflow and invalid-value
    # warnings, then a deviation of nan that named neither row nor field
    ds = load_dataset(str(data4_clean))
    getattr(ds, field)[7, 3] = value
    bad = work / f"non_finite_{field}.bin"
    save_dataset(ds, str(bad))
    argv = (["eval", "--model", str(exact_model)] if subcommand == "eval"
            else ["train", "--epochs", "1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--data", str(bad)])
    captured = capsys.readouterr()
    assert code == EXIT_IO
    name = "input (x)" if field == "x" else "target (y)"
    assert captured.err == (f"error: {bad}: row 7 has a non-finite {name}; "
                            "inputs and targets must be finite\n")
    assert captured.out == ""


def test_eval_exact_model_on_clean_data(exact_model, data4_clean, capsys):
    code = main(["eval", "--model", str(exact_model), "--data", str(data4_clean)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    mse = float(re.search(r"overall MSE: (\S+)", out).group(1))
    assert mse <= 1e-18
    assert out.count("angle") == 3  # per-angle breakdown


def test_eval_is_deterministic(exact_model, data4_clean, capsys):
    main(["eval", "--model", str(exact_model), "--data", str(data4_clean)])
    first = capsys.readouterr().out
    main(["eval", "--model", str(exact_model), "--data", str(data4_clean)])
    assert capsys.readouterr().out == first


def test_eval_shape_mismatch(exact_model, data8, capsys):
    code = main(["eval", "--model", str(exact_model), "--data", str(data8)])
    assert code == EXIT_SHAPE
    assert "n=4" in capsys.readouterr().err


def test_eval_rejects_a_dataset_without_samples(exact_model, work, capsys):
    # a 0-sample file loads, but has no MSE to report: eval names the file
    # and exits 3 where it used to die in the forward pass
    path = work / "empty4.bin"
    save_dataset(make_dataset(4, 24e9, [], 10, 0.1, seed=0), str(path))
    assert load_dataset(str(path)).n_samples == 0
    code = main(["eval", "--model", str(exact_model), "--data", str(path)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert str(path) in captured.err and "no samples" in captured.err
    assert captured.out == ""


def test_eval_of_an_empty_set_with_a_huge_n_builds_no_transform(exact_model, work, capsys,
                                                                monkeypatch):
    # a 68-byte header with no samples and n = 2**31 passes every header
    # check; verifying it used to build the n = 2**31 chain (np.arange(2**31)
    # and more) before it looked at the sample count
    path = work / "empty_huge_n.bin"
    path.write_bytes(struct.pack(signals._HEAD_FMT, b"DVMB", 1, 2**31, 0, 24e9, 32e9,
                                 0.0, 0.0, 0.0, 0))

    def refuse(spec):
        raise AssertionError(f"built a chain of n={spec.n} for a set without samples")

    monkeypatch.setattr(signals, "build_bluestein_chain", refuse)
    assert load_dataset(str(path)).x.shape == (0, 2**32)
    code = main(["eval", "--model", str(exact_model), "--data", str(path)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert str(path) in captured.err and "no samples" in captured.err


def test_eval_missing_flags():
    assert main(["eval", "--model", "x"]) == EXIT_USAGE


@pytest.mark.parametrize("offset,what", [(24, "kind"), (25, "mode")])
def test_eval_corrupt_model_code_byte(exact_model, data4_clean, work, capsys, offset, what):
    data = bytearray(exact_model.read_bytes())
    data[offset] = 7
    bad = work / f"bad_{what}.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"{what} code 7" in err and f"byte {offset}" in err


def test_eval_rejects_a_real_parameter_mode_model(exact_model, data4_clean, work):
    # a model file with real parameters (mode code 1) does not load
    data = bytearray(exact_model.read_bytes())
    data[25] = 1
    bad = work / "real_mode.net"
    bad.write_bytes(bytes(data))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "dvmbeam", "eval", "--model", str(bad), "--data", str(data4_clean)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == EXIT_IO
    assert "mode code 1 (byte 25)" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_eval_into_a_closed_pipe_exits_with_the_io_code(exact_model, data4_clean):
    # the read end of stdout closes before the child writes anything, as when
    # `dvmbeam eval ... | head -1` has its line: the first write fails with
    # EPIPE, which must end in EXIT_IO, not a traceback or an exit-time
    # "Exception ignored" from the interpreter's last flush
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for buffered in (True, False):
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "dvmbeam", "eval", "--model", str(exact_model),
             "--data", str(data4_clean)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait() == EXIT_IO, err
        assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("offset,what", [(26, "tie-scaling"), (27, "share-siblings")])
def test_eval_corrupt_model_flag_byte(exact_model, data4_clean, work, capsys, offset, what):
    data = bytearray(exact_model.read_bytes())
    data[offset] = 7
    bad = work / f"bad_{what}.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"{what} flag 7" in err and f"byte {offset}" in err


@pytest.mark.parametrize("offset,what", [(26, "tie-scaling"), (27, "share-siblings")])
def test_eval_rejects_flag_byte_zero(exact_model, data4_clean, work, capsys, offset, what):
    # bytes 26 and 27 are always 1; a 0 there used to load
    data = bytearray(exact_model.read_bytes())
    data[offset] = 0
    bad = work / f"zero_{what}.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert f"{what} flag 0 (byte {offset}) must be 1" in captured.err
    assert captured.out == ""


def test_eval_nan_delay_alpha_in_model(exact_model, data4_clean, work, capsys):
    # byte 36 is the real part of the delay generator; NaN there used to load
    # and print "overall MSE: nan" with exit 0
    import struct

    data = bytearray(exact_model.read_bytes())
    struct.pack_into("<d", data, 36, float("nan"))
    bad = work / "nan_alpha.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert "delay_alpha" in captured.err and "MSE" not in captured.out


def test_eval_negative_seed_in_model(exact_model, data4_clean, work, capsys):
    # bytes 60-67 hold the seed, signed; a negative one used to fail inside
    # numpy with a message naming neither the file nor the byte
    import struct

    data = bytearray(exact_model.read_bytes())
    struct.pack_into("<q", data, 60, -3)
    bad = work / "negative_seed.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert str(bad) in err and "seed -3 (byte 60)" in err


def test_eval_nan_freq_in_dataset(exact_model, data4_clean, work, capsys):
    # bytes 20-27 of a dataset header hold the frequency; NaN there used to
    # fail on the generator with a message naming neither file nor field
    import struct

    data = bytearray(data4_clean.read_bytes())
    struct.pack_into("<d", data, 20, float("nan"))
    bad = work / "nan_freq.bin"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(exact_model), "--data", str(bad)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "frequency nan (byte 20)" in captured.err
    assert "Traceback" not in captured.err and "MSE" not in captured.out


@pytest.mark.parametrize("offset,value", [(8, 1024), (20, 4 * 10**9 + 1)],
                         ids=["n1024", "huge_l_layers"])
def test_eval_oversized_header(exact_model, data4_clean, work, capsys, offset, value):
    import struct

    data = bytearray(exact_model.read_bytes())
    struct.pack_into("<I", data, offset, value)
    bad = work / f"big_{offset}.net"
    bad.write_bytes(bytes(data))
    code = main(["eval", "--model", str(bad), "--data", str(data4_clean)])
    assert code == EXIT_IO
    assert "does not match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(capsys):
    code = main(["verify", "--n-max", "32", "--trials", "3", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for name in ("factorization-identity", "recursive-dft",
                 "exact-initialization", "gradient-check"):
        assert f"PASS  {name}" in out
    assert "all checks passed" in out


def test_verify_negative_control(capsys, monkeypatch):
    # one corrupted twiddle in every exact chain the check builds: the table
    # must name the recursive-dft check as the offender and exit nonzero
    import dvmbeam.dvm as dvm

    build = dvm.build_recursive_dft_chain

    def corrupted(*args, **kwargs):
        chain = build(*args, **kwargs)
        chain.twiddles[0][0, 0] *= np.exp(0.01j)
        return chain

    monkeypatch.setattr(dvm, "build_recursive_dft_chain", corrupted)
    code = main(["verify", "--n-max", "4", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "FAIL  recursive-dft" in out
    assert "verification failed: recursive-dft" in out


def test_verify_flag_validation():
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
    assert main(["verify", "--n-max", "3"]) == EXIT_USAGE
    # above the cap the dense oracle would be allocated: 2**30 asks for
    # 16 EiB per matrix
    for n_max in (2048, 2**30):
        assert main(["verify", "--n-max", str(n_max)]) == EXIT_USAGE
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    # the corrupting hook is no option: tests patch the chain builder instead
    assert main(["verify", "--corrupt-twiddle"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# bench


def test_bench_default_table(work, capsys):
    base = work / "red"
    code = main(["bench", "--out", str(base)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "wrote" in out
    payload = json.loads((work / "red.json").read_text())
    rows = payload["rows"]
    assert [r["params_dense"] for r in rows] == [1104, 4256, 16704]
    assert abs(rows[2]["pr_flops_pct"] - 85.0) <= 5.0
    assert payload["resolved_config"]["version"]
    csv_lines = (work / "red.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 2 * 3
    assert csv_lines[0].startswith("n,model,params")


def test_bench_counts_a_dense_net_too_large_to_build(work):
    # each dense weight matrix at n=65536 is (4n, 2n): 256 GiB, never allocated
    n = 65536
    code = main(["bench", "--n-list", str(n), "--out", str(work / "big")])
    assert code == EXIT_OK
    rows = json.loads((work / "big.json").read_text())["rows"]
    assert rows[0]["params_dense"] == 2 * (4 * n * 2 * n) + 2 * (4 * n) + 2 * n
    assert len((work / "big.csv").read_text().strip().split("\n")) == 1 + 2


def test_bench_rejects_bad_n():
    assert main(["bench", "--n-list", "6"]) == EXIT_USAGE


@pytest.mark.parametrize("p", ["0", "-1"])
def test_bench_rejects_p_below_one(work, capsys, p):
    # used to end in a ValueError traceback
    base = work / f"bench_p{p}"
    assert main(["bench", "--n-list", "8", "--p", p, "--out", str(base)]) == EXIT_USAGE
    assert "--p must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(f"{base}.csv") and not os.path.exists(f"{base}.json")


# ---------------------------------------------------------------------------
# top-level behavior


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "dvmbeam" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_threads_flag_validation(work, capsys):
    # there is no --threads: numpy, and with it the BLAS pool, is loaded
    # before main runs, so the flag could not pin anything
    env = dict(os.environ)
    out = str(work / "thr")
    for argv in (["--threads", "2", "bench"], ["--threads=1", "bench"]):
        assert main([*argv, "--n-list", "8", "--out", out]) == EXIT_USAGE
        assert "dvmbeam: error:" in capsys.readouterr().err
    assert dict(os.environ) == env
    assert not os.path.exists(out + ".csv")


def test_config_file_supplies_defaults(work):
    cfg = work / "gen.conf"
    cfg.write_text(
        "# dataset defaults\n"
        "samples-per-angle = 2\n"
        "noise-std = 0\n"
        "seed = 3\n"
    )
    path = work / "from_conf.bin"
    code = main(["--config", str(cfg), "gen-data", "--n", "4",
                 "--freq-ghz", "24", "--out", str(path)])
    assert code == EXIT_OK
    assert load_dataset(str(path)).n_samples == 6  # 3 default angles x 2

    # explicit flags beat the file
    path2 = work / "from_conf2.bin"
    code = main(["--config", str(cfg), "gen-data", "--n", "4",
                 "--freq-ghz", "24", "--samples-per-angle", "3",
                 "--out", str(path2)])
    assert code == EXIT_OK
    assert load_dataset(str(path2)).n_samples == 9


def test_config_file_errors(work, capsys):
    bad = work / "bad.conf"
    bad.write_text("this line has no equals sign\n")
    assert main(["--config", str(bad), "bench"]) == EXIT_USAGE
    assert main(["--config", str(work / "nope.conf"), "bench"]) == EXIT_IO


def test_config_file_format_outside_its_choices_is_a_usage_error(work, capsys):
    # argparse checks choices on the command line only; a file value used to
    # write the binary format and exit 0
    cfg = work / "xml.conf"
    cfg.write_text("format = xml\n")
    out = work / "xml.bin"
    assert main(["--config", str(cfg), "gen-data", "--n", "4", "--freq-ghz", "24",
                 "--samples-per-angle", "2", "--out", str(out)]) == EXIT_USAGE
    assert "config file: format 'xml' is not one of binary, csv" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_model_outside_its_choices_is_a_usage_error(data8, work, capsys):
    # a file model = foo used to fit the fully connected kind and report "foo"
    cfg = work / "foo.conf"
    cfg.write_text("model = foo\n")
    report = work / "foo_report.json"
    assert main(["--config", str(cfg), "train", "--data", str(data8), "--epochs", "1",
                 "--out-report", str(report)]) == EXIT_USAGE
    assert "config file: model 'foo' is not one of stnn, ffnn" in capsys.readouterr().err
    assert not report.exists()
    # the key is checked against the subcommand run: eval's --model is a path
    model = work / "foo_model.stnn"
    save_network(build_network(NetworkConfig(n=8)), str(model))
    cfg.write_text(f"model = {model}\n")
    assert main(["--config", str(cfg), "eval", "--data", str(data8)]) == EXIT_OK


def test_config_file_types_reach_each_subcommand(work, monkeypatch):
    # config layering walks argparse's private `_actions`; this pins that
    # every kind of option it converts still arrives typed in the args
    import dvmbeam.cli as cli

    seen = {}

    def capture(name):
        def run(args):
            seen[name] = args
            return EXIT_OK
        return run

    monkeypatch.setattr(cli, "cmd_gen_data", capture("gen-data"))
    monkeypatch.setattr(cli, "cmd_verify", capture("verify"))
    cfg = work / "typed.conf"
    cfg.write_text(
        "seed = 7              # int, shared by both subcommands\n"
        "trials = 4            # int, verify only\n"
        "noise-std = 0.25      # float\n"
        "out = from_file.bin   # string\n"
    )
    assert main(["--config", str(cfg), "gen-data"]) == EXIT_OK
    assert main(["--config", str(cfg), "verify"]) == EXIT_OK
    gen, ver = seen["gen-data"], seen["verify"]
    assert gen.seed == 7 and type(gen.seed) is int
    assert gen.noise_std == 0.25 and type(gen.noise_std) is float
    assert gen.out == "from_file.bin"
    assert ver.seed == 7 and type(ver.seed) is int
    assert ver.trials == 4 and type(ver.trials) is int
    # untouched options keep their parser defaults
    assert gen.samples_per_angle == 1000 and ver.n_max == 256


def test_gen_data_and_eval_call_each_function_on_its_module(exact_model, work, monkeypatch):
    # the benchmark's traced pass wraps these seven functions on their
    # modules, as the tests' monkeypatches do: the CLI must look each one up
    # there at call time, or a replacement would never run
    import dvmbeam.network as network
    import dvmbeam.signals as signals
    import dvmbeam.training as training

    calls = {}

    def counting(key, f):
        def run(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return run

    for mod, name in ((signals, "make_dataset"), (signals, "verify_targets"),
                      (signals, "save_dataset"), (signals, "load_dataset"),
                      (network, "load_network"), (network, "forward"),
                      (training, "mse_loss")):
        key = f"{mod.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(mod, name, counting(key, getattr(mod, name)))
    data = str(work / "boundary.bin")
    assert main(["gen-data", "--n", "4", "--freq-ghz", "24", "--samples-per-angle", "4",
                 "--out", data]) == EXIT_OK
    assert main(["eval", "--model", str(exact_model), "--data", data]) == EXIT_OK
    assert [key for key, count in calls.items() if count == 0] == []


@pytest.fixture
def fresh_parser(monkeypatch):
    """An empty parser cache whose builds are counted; the module's own
    cache is put back after the test."""
    import dvmbeam.cli as cli

    builds = []
    build = cli._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_shared_parser", functools.cache(cli._shared_parser.__wrapped__))
    return builds


def test_plain_runs_build_the_parser_once(work, fresh_parser):
    cfg = work / "once.conf"
    cfg.write_text("n-list = 8\n")
    out = str(work / "once")
    assert main(["bench", "--n-list", "8", "--out", out]) == EXIT_OK
    assert main(["eval"]) == EXIT_USAGE
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
    assert main(["bench", "--n-list", "x"]) == EXIT_USAGE
    assert len(fresh_parser) == 1
    # a --config run parses on a parser of its own, and the next plain run
    # takes the shared one again
    assert main(["--config", str(cfg), "bench", "--out", out]) == EXIT_OK
    assert len(fresh_parser) == 2
    assert main(["bench", "--n-list", "8", "--out", out]) == EXIT_OK
    assert len(fresh_parser) == 2


def test_a_plain_run_parses_its_argv_once(fresh_parser, monkeypatch, capsys):
    import dvmbeam.cli as cli

    top = cli._shared_parser()[0]
    parses = []
    parse = top.parse_known_args
    monkeypatch.setattr(top, "parse_known_args",
                        lambda *a, **kw: parses.append(a) or parse(*a, **kw))
    monkeypatch.setattr(cli, "cmd_eval", lambda args: EXIT_OK)
    assert main(["eval", "--model", "m.stnn"]) == EXIT_OK
    assert len(parses) == 1
    # leftover arguments still end in argparse's usage error, exit 2
    assert main(["eval", "--bogus", "1"]) == EXIT_USAGE
    assert "dvmbeam: error: unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert len(parses) == 2


def test_config_defaults_do_not_reach_a_later_run(work, fresh_parser):
    cfg = work / "spa.conf"
    cfg.write_text("samples-per-angle = 2\nangles = 10\nnoise-std = 0\n")
    flags = ["gen-data", "--n", "4", "--freq-ghz", "24"]
    path = work / "spa.bin"
    assert main(flags + ["--out", str(path)]) == EXIT_OK  # builds the shared parser
    assert main(["--config", str(cfg), *flags, "--out", str(path)]) == EXIT_OK
    assert load_dataset(str(path)).n_samples == 2
    assert main(flags + ["--out", str(path)]) == EXIT_OK
    ds = load_dataset(str(path))
    assert ds.n_samples == 3000 and ds.noise_std == 0.1
    assert sorted(set(np.round(np.degrees(ds.angle), 6))) == [30.0, 40.0, 50.0]


def test_a_run_that_edits_its_args_leaves_the_next_runs_defaults(work, fresh_parser, monkeypatch):
    import dvmbeam.cli as cli

    seen = []

    def edit(args):
        seen.append(list(args.angles))
        args.angles.append(60.0)
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_gen_data", edit)
    assert main(["gen-data"]) == EXIT_OK
    assert main(["gen-data"]) == EXIT_OK
    assert seen == [[30.0, 40.0, 50.0]] * 2


def test_a_handler_replaced_after_the_parser_is_built_is_the_one_run(fresh_parser, monkeypatch):
    import dvmbeam.cli as cli

    assert main(["eval"]) == EXIT_USAGE  # the real cmd_eval, on the shared parser
    seen = []

    def fake(args):
        seen.append((args.model, args.data))
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_eval", fake)
    assert main(["eval", "--model", "m.stnn", "--data", "d.bin"]) == EXIT_OK
    assert seen == [("m.stnn", "d.bin")]
    assert len(fresh_parser) == 1


@pytest.mark.parametrize("argv", [["--help"], ["gen-data", "--help"], ["bench", "-h"]],
                         ids=["top", "gen-data", "bench"])
def test_help_twice_prints_the_same_text(fresh_parser, capsys, argv):
    assert main(argv) == EXIT_OK
    first = capsys.readouterr()
    assert main(argv) == EXIT_OK
    second = capsys.readouterr()
    assert first.out.startswith("usage: dvmbeam") and first.err == ""
    assert second == first


def test_installed_entry_point(work):
    # the console script must resolve and run a real subcommand
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dvmbeam.cli import main; sys.exit(main(sys.argv[1:]))",
         "bench", "--n-list", "8", "--out", str(work / "ep")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert "Pr(weights)" in res.stdout


def test_python_dash_m_runs_the_cli(work):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "dvmbeam", "bench", "--n-list", "8", "--out", str(work / "dash_m")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    assert "Pr(weights)" in res.stdout
