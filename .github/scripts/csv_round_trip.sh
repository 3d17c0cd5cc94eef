#!/usr/bin/env bash
# CSV round trip of a 3000-sample n=64 set, written into directory $1: the
# same set as a binary file and as a table, 777,000 values through
# save_dataset_csv's '%.17g' kernel and back. The load re-verifies every
# target, and the values equal the binary file's (angle_deg goes through
# degrees). Run from the repository root with the package importable.
set -euo pipefail
dir="$1"
python -m dvmbeam gen-data --n 64 --freq-ghz 24 --samples-per-angle 1000 --out "$dir/csv_rt.bin"
python -m dvmbeam gen-data --n 64 --freq-ghz 24 --samples-per-angle 1000 --format csv --out "$dir/csv_rt.csv"
python -c '
import sys
import numpy as np
from dvmbeam.signals import load_dataset, load_dataset_csv
ds, table = load_dataset(sys.argv[1]), load_dataset_csv(sys.argv[2], freq=24e9)
for field in ("x", "y", "time"):
    assert getattr(table, field).tobytes() == getattr(ds, field).tobytes(), field
assert np.allclose(table.angle, ds.angle, rtol=0, atol=1e-12), "angle"
' "$dir/csv_rt.bin" "$dir/csv_rt.csv"
echo "CSV round trip holds"
