"""Command-line tests: every subcommand end to end on small inputs, exit
codes, config-file layering, and output artifacts."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dvmbeam.cli import (
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_SHAPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
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


def test_verify_negative_control(capsys):
    # the hidden hook corrupts one twiddle; the table must name the
    # recursive-dft check as the offender and exit nonzero
    code = main(["verify", "--n-max", "4", "--trials", "1",
                 "--corrupt-twiddle"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "FAIL  recursive-dft" in out
    assert "verification failed: recursive-dft" in out


def test_verify_flag_validation():
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
    assert main(["verify", "--n-max", "3"]) == EXIT_USAGE
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE


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


def test_threads_flag_validation():
    with pytest.raises(SystemExit) as err:
        main(["--threads", "0", "bench"])
    assert err.value.code == EXIT_USAGE


def test_threads_flag_sets_pool_env(work):
    saved = os.environ.get("OMP_NUM_THREADS")
    try:
        code = main(["--threads", "2", "bench", "--n-list", "8",
                     "--out", str(work / "thr")])
        assert code == EXIT_OK
        assert os.environ["OMP_NUM_THREADS"] == "2"
    finally:
        if saved is None:
            os.environ.pop("OMP_NUM_THREADS", None)
        else:
            os.environ["OMP_NUM_THREADS"] = saved


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
        "corrupt-twiddle = yes # boolean flag\n"
    )
    assert main(["--config", str(cfg), "gen-data"]) == EXIT_OK
    assert main(["--config", str(cfg), "verify"]) == EXIT_OK
    gen, ver = seen["gen-data"], seen["verify"]
    assert gen.seed == 7 and type(gen.seed) is int
    assert gen.noise_std == 0.25 and type(gen.noise_std) is float
    assert gen.out == "from_file.bin"
    assert ver.seed == 7 and type(ver.seed) is int
    assert ver.trials == 4 and type(ver.trials) is int
    assert ver.corrupt_twiddle is True
    # untouched options keep their parser defaults
    assert gen.samples_per_angle == 1000 and ver.n_max == 256

    cfg.write_text("corrupt-twiddle = no\n")
    assert main(["--config", str(cfg), "verify"]) == EXIT_OK
    assert seen["verify"].corrupt_twiddle is False


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
