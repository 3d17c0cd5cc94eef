"""Property-based fuzzing of the file readers: random truncations, byte
flips, injected commas and blank lines in valid binary and CSV dataset
files, and truncations, byte flips and header-field rewrites in a valid
.stnn model file, must end in ValueError or OSError, never in another
exception; NaN or infinite angles and times in random rows must end in a
ValueError that names the first such row; a random --config file must end
in an exit code."""

import contextlib
import dataclasses
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvmbeam import cli
from dvmbeam.network import NetworkConfig, build_network, load_network, save_network
from dvmbeam.signals import (
    load_dataset,
    load_dataset_csv,
    make_dataset,
    save_dataset,
    save_dataset_csv,
)

# fixed examples and no example database, so every run checks the same files
FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)

DS = make_dataset(4, 24e9, [-20.0, 30.0], 3, 0.1, seed=5)

_truncate = st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.just(b""))
_flip = st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.binary(min_size=1, max_size=1))
_insert = st.tuples(st.just("insert"), st.floats(0.0, 1.0),
                    st.sampled_from([b",", b",,", b"\n", b"\r\n", b"\n\n", b"\r\n\r\n"]))
MUTATIONS = st.lists(st.one_of(_truncate, _flip, _insert), min_size=1, max_size=3)


def _rewrite(offset, fmt, values):
    """Write one value of values over the .stnn header field at offset."""
    return st.tuples(st.just("rewrite"), st.just(offset), values.map(lambda v: (fmt, v)))


# every .stnn header field after the magic; small integers get past the first
# checks more often than values drawn from the whole range
_small = st.integers(0, 16)
_REWRITES = st.one_of(
    *[_rewrite(off, "<I", _small | st.integers(0, 2**32 - 1)) for off in (4, 8, 12, 16, 20)],
    *[_rewrite(off, "<B", st.integers(0, 255)) for off in (24, 25, 26, 27)],
    *[_rewrite(off, "<d", st.floats()) for off in (28, 36, 44, 52)],
    _rewrite(60, "<q", _small | st.integers(-2**63, 2**63 - 1)),
    _rewrite(68, "<Q", _small | st.integers(0, 2**64 - 1)),
)
MODEL_MUTATIONS = st.lists(st.one_of(_truncate, _flip, _REWRITES), min_size=1, max_size=3)

# --config files: lines of real option names or junk keys with junk values,
# bare lines, and lone surrogates, which encode to invalid UTF-8
_SUBPARSERS = cli._build_parser()[1]
_KEYS = sorted({a.dest.replace("_", "-") for sp in _SUBPARSERS.values() for a in sp._actions})
_LINE = (st.tuples(st.sampled_from(_KEYS) | st.text(max_size=8), st.text(max_size=12))
         .map(" = ".join) | st.text(max_size=20))
CONFIG_FILES = st.lists(_LINE, max_size=6).map(
    lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


def mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for kind, where, data in edits:
        i = min(int(where * len(out)), max(len(out) - 1, 0))
        if kind == "truncate":
            del out[i:]
        elif kind == "flip" and out:
            out[i] = data[0]
        elif kind == "insert":
            out[i:i] = data
        elif kind == "rewrite" and len(out) >= where + struct.calcsize(data[0]):
            struct.pack_into(data[0], out, where, data[1])  # where is a byte offset
    return bytes(out)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    files = {}
    for fmt, save in (("binary", save_dataset), ("csv", save_dataset_csv)):
        p = d / f"valid.{fmt}"
        save(DS, str(p))
        files[fmt] = p.read_bytes()
    save_network(build_network(NetworkConfig(n=4, seed=5)), str(d / "valid.stnn"))
    files["stnn"] = (d / "valid.stnn").read_bytes()
    return d, files


def _load_mutated(valid_files, fmt, edits, load):
    d, files = valid_files
    p = d / f"mutated.{fmt}"
    p.write_bytes(mutate(files[fmt], edits))
    try:
        load(str(p))
    except (ValueError, OSError):
        pass


@FUZZ
@given(edits=MUTATIONS)
def test_binary_loader_raises_only_value_or_os_errors(valid_files, edits):
    _load_mutated(valid_files, "binary", edits, load_dataset)


@FUZZ
@given(edits=MUTATIONS)
def test_csv_loader_raises_only_value_or_os_errors(valid_files, edits):
    _load_mutated(valid_files, "csv", edits,
                  lambda path: load_dataset_csv(path, freq=DS.freq))


# non-finite angles and times written into random rows of a valid set
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
BAD_ROWS = st.lists(st.tuples(st.sampled_from(["angle", "time"]),
                              st.integers(0, DS.n_samples - 1), _NON_FINITE),
                    min_size=1, max_size=4)


@FUZZ
@given(edits=BAD_ROWS, fmt=st.sampled_from(["binary", "csv"]))
def test_loaders_refuse_a_non_finite_angle_or_time_naming_the_first_row(valid_files,
                                                                         edits, fmt):
    ds = dataclasses.replace(DS, angle=DS.angle.copy(), time=DS.time.copy())
    for field, row, value in edits:
        getattr(ds, field)[row] = value
    p = valid_files[0] / f"bad_rows.{fmt}"
    if fmt == "binary":
        save_dataset(ds, str(p))
        load = load_dataset
    else:
        save_dataset_csv(ds, str(p))
        load = lambda path: load_dataset_csv(path, freq=DS.freq)  # noqa: E731
    first = min(row for _, row, _ in edits)
    with pytest.raises(ValueError, match=f"row {first} has a non-finite "):
        load(str(p))


@FUZZ
@given(edits=MODEL_MUTATIONS)
def test_model_loader_raises_only_value_or_os_errors(valid_files, edits):
    _load_mutated(valid_files, "stnn", edits, load_network)


@FUZZ
@given(content=CONFIG_FILES, command=st.sampled_from(sorted(_SUBPARSERS)))
def test_config_file_ends_in_an_exit_code(valid_files, content, command):
    d, _ = valid_files
    path = d / "fuzz.conf"
    path.write_bytes(content)
    with contextlib.ExitStack() as stack:
        # the subcommands themselves do not run: this checks the layering
        for name in ("cmd_gen_data", "cmd_train", "cmd_eval", "cmd_verify", "cmd_bench"):
            stack.enter_context(mock.patch.object(cli, name, lambda args: cli.EXIT_OK))
        code = cli.main(["--config", str(path), command])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO)


def test_fuzz_files_load_unmutated(valid_files):
    d, files = valid_files
    for fmt, load in (("binary", load_dataset),
                      ("csv", lambda path: load_dataset_csv(path, freq=DS.freq))):
        p = d / f"plain.{fmt}"
        p.write_bytes(files[fmt])
        assert np.array_equal(load(str(p)).x, DS.x)
    p = d / "plain.stnn"
    p.write_bytes(files["stnn"])
    assert np.array_equal(load_network(str(p)).flat,
                          build_network(NetworkConfig(n=4, seed=5)).flat)
