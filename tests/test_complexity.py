"""Complexity-audit tests: closed-form operation counts, layer-walked
counts, published-table agreement, and the reduction report serializers.

The two accountings (formula vs counted) are intentionally different by a
few percent; tests below bound the residual instead of forcing agreement.
"""

import csv
import json

import numpy as np
import pytest

from dvmbeam.complexity import (
    CONVENTIONS,
    flops_counted_dense,
    flops_counted_structured,
    flops_full,
    flops_truncated,
    percentage_reduction,
    reduction_report,
    write_reduction_csv,
    write_reduction_json,
)

# published targets: (n, depth, structured flops, ffnn flops, weight pct,
# flop pct); the depth schedule is the 4/5/6 ladder of the size sweep
TABLE = [
    (8, 4, 992, 2240, 83.0, 56.0),
    (16, 5, 2176, 8576, 90.0, 75.0),
    (32, 6, 4736, 33536, 96.0, 85.0),
]


# ---------------------------------------------------------------------------
# closed-form formulas


def test_full_formula_hand_values():
    # n=8: M=16, r=3, L=5.  adds = 1*4*16*3 + 4*1*4*16 - (4/4)*16
    #                            = 192 + 256 - 16 = 432
    #       muls = (1/2)*4*16*3 + (23/4)*1*16*4 = 96 + 368 = 464
    out = flops_full(8)
    assert out["adds"] == 432
    assert out["muls"] == 464
    assert out["total"] == 896


def test_full_formula_p_linearity():
    # the correction term -(L-1)M/4 carries no p, everything else is linear
    one = flops_full(8, p=1)
    two = flops_full(8, p=2)
    assert two["adds"] == 2 * one["adds"] + 16
    assert two["muls"] == 2 * one["muls"]


def test_full_formula_block_doubling():
    # every term is linear in (L-1), so L=9 doubles L=5 exactly
    five = flops_full(16, l_layers=5)
    nine = flops_full(16, l_layers=9)
    assert nine["adds"] == 2 * five["adds"]
    assert nine["muls"] == 2 * five["muls"]


def test_truncated_near_published_totals():
    # the published table sits a few percent above direct substitution; the
    # residual is a known property of the table, bounded here per row
    bounds = {8: 0.06, 16: 0.05, 32: 0.03}
    for n, depth, published, _, _, _ in TABLE:
        total = flops_truncated(n, depth)["total"]
        rel = abs(total - published) / published
        assert rel <= bounds[n], (n, total, published)
        assert total < published  # residual sign is stable: formula is lower


def test_truncated_frozen_values():
    assert flops_truncated(8, 4)["total"] == 944
    assert flops_truncated(16, 5)["total"] == 2112
    assert flops_truncated(32, 6)["total"] == 4672


def test_truncated_decreases_with_depth():
    for n in (8, 16, 32):
        m = 2 * n
        totals = [
            flops_truncated(n, lam)["total"]
            for lam in range(1, int(np.log2(m)) + 1)
        ]
        assert all(a > b for a, b in zip(totals, totals[1:])), (n, totals)


def test_truncated_depth_validation():
    with pytest.raises(ValueError, match="depth"):
        flops_truncated(8, 0)
    with pytest.raises(ValueError, match="depth"):
        flops_truncated(8, 5)  # chain size 16 caps depth at 4


def test_formulas_monotone_in_every_knob():
    for fn, args in ((flops_full, ()), (flops_truncated, (3,))):
        base = fn(8, *args)["total"]
        assert fn(16, *args)["total"] > base
        assert fn(8, *args, l_layers=9)["total"] > base
        assert fn(8, *args, p=2)["total"] > base


def test_formulas_reject_bad_n():
    with pytest.raises(ValueError, match="power of two"):
        flops_full(6)
    with pytest.raises(ValueError, match="power of two"):
        flops_truncated(6, 2)
    for n in (16.0, "16", None, 1):
        with pytest.raises(ValueError, match="power of two"):
            flops_full(n)
    # the counted walks take the check from the network config they build
    for fn in (flops_counted_structured, flops_counted_dense):
        with pytest.raises(ValueError, match="n must be a power of two >= 2, got 6"):
            fn(6)
    assert flops_full(np.int64(16)) == flops_full(16)


# ---------------------------------------------------------------------------
# layer-walked counts


def test_counted_dense_closed_form():
    # per block: two M x M real matmuls plus bias/activation/delay/skip
    # bookkeeping collapses to 8M^2 + 12M real operations
    for n, _, _, published, _, _ in TABLE:
        m = 2 * n
        out = flops_counted_dense(n)
        assert out["total"] == 8 * m * m + 12 * m
        assert out["total"] == published


def test_counted_dense_quadratic_scaling():
    for n in (8, 16, 32):
        ratio = flops_counted_dense(2 * n)["total"] / flops_counted_dense(n)["total"]
        assert 3.6 <= ratio <= 4.4, (n, ratio)


def test_counted_structured_frozen_values():
    assert flops_counted_structured(8, 4)["total"] == 1008
    assert flops_counted_structured(16, 5)["total"] == 2336
    assert flops_counted_structured(32, 6)["total"] == 5312


def test_counted_structured_near_formula():
    # cross-check between the two accounting paths
    for n, depth, _, _, _, _ in TABLE:
        counted = flops_counted_structured(n, depth)["total"]
        formula = flops_truncated(n, depth)["total"]
        assert abs(counted - formula) / formula <= 0.15, (n, counted, formula)


def test_counted_structured_loglinear_scaling():
    # doubling M with the depth ladder advancing one step keeps the cost
    # growth at the n log n rate
    for n, depth in ((32, 6), (64, 7)):
        a = flops_counted_structured(n, depth)["total"]
        b = flops_counted_structured(2 * n, depth + 1)["total"]
        assert b / a <= 2.4, (n, b / a)


def test_counted_by_layer_sums_to_total():
    for out, blocks in (
        (flops_counted_structured(16, 5, l_layers=9), 2),
        (flops_counted_dense(16), 1),
    ):
        muls = sum(v["muls"] for v in out["by_layer"].values())
        adds = sum(v["adds"] for v in out["by_layer"].values())
        assert out["muls"] == blocks * muls
        assert out["adds"] == blocks * adds
        assert out["total"] == out["muls"] + out["adds"]


def test_counted_structured_branch_accumulation():
    # p branches cost (p-1) complex adds per output element
    out = flops_counted_structured(8, 3, p=3)
    assert out["by_layer"]["accumulate"]["adds"] == 2 * 8 * (3 - 1)


def test_dense_matvec_convention():
    # rows x cols real matrix: rows*cols muls, rows*(cols-1) adds; the
    # 2 x 2 instance prices at 4 muls + 2 adds
    out = flops_counted_dense(4)
    h, w = 16, 8
    assert out["by_layer"]["w1"] == {"muls": h * w, "adds": h * (w - 1)}
    rows = cols = 2
    assert rows * cols == 4 and rows * (cols - 1) == 2
    assert "dense_matvec" in CONVENTIONS


def test_conventions_cover_every_layer_kind():
    need = {
        "complex_rotation", "diagonal_scaling", "butterfly", "leaf_block",
        "dense_matvec", "bias", "activation", "skip", "accumulation",
    }
    assert need <= set(CONVENTIONS)
    assert all(isinstance(v, str) and v for v in CONVENTIONS.values())


# ---------------------------------------------------------------------------
# reduction report


def test_percentage_reduction_examples():
    assert percentage_reduction(7.0, 7.0) == 0.0
    assert percentage_reduction(100.0, 25.0) == 75.0
    with pytest.raises(ValueError):
        percentage_reduction(0.0, 1.0)


def test_report_weight_reductions_match_table():
    rows = reduction_report()["rows"]
    for row, (n, _, _, _, pr_w, _) in zip(rows, TABLE):
        assert row["n"] == n
        assert abs(row["pr_weights_pct"] - pr_w) <= 3.0, row


def test_report_weight_counts_frozen():
    rows = reduction_report()["rows"]
    assert [r["params_structured"] for r in rows] == [192, 384, 768]
    assert [r["params_dense"] for r in rows] == [1104, 4256, 16704]


def test_report_flop_reductions_match_table():
    rows = reduction_report()["rows"]
    for row, (n, _, _, _, _, pr_f) in zip(rows, TABLE):
        assert abs(row["pr_flops_pct"] - pr_f) <= 5.0, row


def test_report_residual_is_visible_and_bounded():
    # counted-vs-formula residual must be carried in the row, not folded in
    for row in reduction_report()["rows"]:
        assert row["counted_vs_formula_pct"] != 0.0
        assert abs(row["counted_vs_formula_pct"]) <= 15.0


def test_report_row_invariants():
    for row in reduction_report()["rows"]:
        assert 0.0 <= row["pr_weights_pct"] <= 100.0
        assert 0.0 <= row["pr_flops_pct"] <= 100.0
        for key in ("flops_formula_total", "flops_counted_total",
                    "flops_dense_total", "params_structured", "params_dense"):
            assert row[key] > 0


def test_report_carries_conventions_and_settings():
    rep = reduction_report(ns=(8,))
    assert rep["conventions"] == CONVENTIONS
    assert rep["settings"]["l_layers"] == 5
    assert rep["rows"][0]["depth"] == 4


def test_csv_schema_and_roundtrip(tmp_path):
    rep = reduction_report()
    path = tmp_path / "reduction.csv"
    write_reduction_csv(rep, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "n", "model", "params", "flops_formula_add", "flops_formula_mul",
        "flops_counted_add", "flops_counted_mul",
        "pr_weights_pct", "pr_flops_pct",
    ]
    assert len(rows) == 2 * len(rep["rows"])
    for pair, src in zip(zip(rows[0::2], rows[1::2]), rep["rows"]):
        st, de = pair
        assert st["model"] == "structured" and de["model"] == "fully_connected"
        assert int(st["n"]) == int(de["n"]) == src["n"]
        assert int(st["params"]) == src["params_structured"]
        assert int(de["params"]) == src["params_dense"]
        assert int(st["flops_formula_add"]) == src["flops_formula_adds"]
        assert int(st["flops_counted_mul"]) == src["flops_counted_muls"]
        assert int(de["flops_counted_add"]) == src["flops_dense_adds"]
        assert float(st["pr_weights_pct"]) == pytest.approx(
            src["pr_weights_pct"], abs=0.005
        )
        assert float(st["pr_flops_pct"]) == pytest.approx(
            src["pr_flops_pct"], abs=0.005
        )


def test_json_mirror(tmp_path):
    rep = reduction_report()
    path = tmp_path / "reduction.json"
    write_reduction_json(rep, str(path), extra={"source": "test"})
    loaded = json.loads(path.read_text())
    assert loaded["rows"] == rep["rows"]
    assert loaded["conventions"] == CONVENTIONS
    assert loaded["source"] == "test"
