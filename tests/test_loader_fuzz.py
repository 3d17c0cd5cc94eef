"""Property-based fuzzing of the dataset loaders: random truncations, byte
flips, injected commas and blank lines in valid binary and CSV files must
end in ValueError or OSError, never in another exception."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvmbeam.signals import load_dataset, load_dataset_csv, make_dataset, save_dataset

# fixed examples and no example database, so every run checks the same files
FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)

DS = make_dataset(4, 24e9, [-20.0, 30.0], 3, 0.1, seed=5)

_truncate = st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.just(b""))
_flip = st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.binary(min_size=1, max_size=1))
_insert = st.tuples(st.just("insert"), st.floats(0.0, 1.0),
                    st.sampled_from([b",", b",,", b"\n", b"\r\n", b"\n\n", b"\r\n\r\n"]))
MUTATIONS = st.lists(st.one_of(_truncate, _flip, _insert), min_size=1, max_size=3)


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
    return bytes(out)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    files = {}
    for fmt in ("binary", "csv"):
        p = d / f"valid.{fmt}"
        save_dataset(DS, str(p), format=fmt)
        files[fmt] = p.read_bytes()
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


def test_fuzz_files_load_unmutated(valid_files):
    d, files = valid_files
    for fmt, load in (("binary", load_dataset),
                      ("csv", lambda path: load_dataset_csv(path, freq=DS.freq))):
        p = d / f"plain.{fmt}"
        p.write_bytes(files[fmt])
        assert np.array_equal(load(str(p)).x, DS.x)
