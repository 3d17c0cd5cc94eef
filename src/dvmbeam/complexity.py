"""Weight and FLOP accounting for both network kinds.

Two accountings coexist on purpose.  The closed-form estimates
(flops_full, flops_truncated) follow the coarse per-factor formulas used to
motivate the structured design; the counted numbers (flops_counted_*) walk
the layers and price every scalar operation under one explicit convention.
The two disagree by a few percent because the formulas fold constants
differently; reports always carry both so the gap stays visible.  Neither
is ever adjusted toward the other.

Counting convention (real operations on real-split data):
  - general complex rotation (twiddle factors, the frozen delay):
      4 muls + 2 adds per complex element
  - diagonal scaling (chirp and circulant diagonals): 2 muls per complex
      element, i.e. one mul per real-split coordinate
  - butterfly sum/difference pairs: 2 adds per complex add
  - leaf blocks: 2 muls per complex multiply, 2 adds per complex add
      (same real-split pricing as the diagonals)
  - dense real matvec (rows x cols): rows*cols muls, rows*(cols-1) adds
  - bias: 1 add per element; leaky activation: 1 mul per element
  - skip diagonal: 1 mul + 1 add per real element
  - p-way accumulation: 2 adds per complex element per extra branch
"""

from __future__ import annotations

import csv
import json
import math

from .network import KIND_DENSE, NetworkConfig, expected_param_count

CONVENTIONS = {
    "complex_rotation": "4 muls + 2 adds per complex element",
    "diagonal_scaling": "2 muls per complex element (1 per real coordinate)",
    "butterfly": "2 adds per complex add",
    "leaf_block": "2 muls per complex mul, 2 adds per complex add",
    "dense_matvec": "rows*cols muls, rows*(cols-1) adds",
    "bias": "1 add per element",
    "activation": "1 mul per element",
    "skip": "1 mul + 1 add per real element",
    "accumulation": "2 adds per complex element per extra branch",
}


def _check_n(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    return int(math.log2(n))


def flops_full(n: int, l_layers: int = 5, p: int = 1) -> dict:
    """Closed-form estimate for full-depth chains (depth log2(2n))."""
    r = _check_n(n)
    m = 2 * n
    lm1 = l_layers - 1
    adds = p * lm1 * m * r + 4 * p * lm1 * m - (lm1 / 4) * m
    muls = (p / 2) * lm1 * m * r + (23 / 4) * p * m * lm1
    return {"adds": round(adds), "muls": round(muls), "total": round(adds + muls)}


def flops_truncated(n: int, depth: int, l_layers: int = 5, p: int = 1) -> dict:
    """Closed-form estimate when the chains stop after `depth` butterfly
    levels and finish with dense leaf blocks."""
    _check_n(n)
    m = 2 * n
    if not 1 <= depth <= int(math.log2(m)):
        raise ValueError(f"depth must be in 1..{int(math.log2(m))}, got {depth}")
    lm1 = l_layers - 1
    leaf_ops = m * m / (1 << (depth - 1))  # leaf blocks: m/2^d squares of 2^d
    adds = p * lm1 * leaf_ops + p * depth * lm1 * m + 0.75 * p * lm1 * m
    muls = p * lm1 * leaf_ops + 3 * m * p * lm1 + 0.75 * p * depth * lm1 * m
    return {"adds": round(adds), "muls": round(muls), "total": round(adds + muls)}


def _chain_counted(m: int, depth: int) -> dict:
    s = m >> depth
    tw_muls = depth * (m // 2) * 4
    tw_adds = depth * (m // 2) * 2
    bf_adds = depth * m * 2
    leaf_muls = 2 * m * s
    leaf_adds = 2 * m * (s - 1)
    return {"muls": tw_muls + leaf_muls, "adds": tw_adds + bf_adds + leaf_adds}


def flops_counted_structured(
    n: int, depth: int | None = None, l_layers: int = 5, p: int = 1
) -> dict:
    """Layer-walked operation count for the structured kind under the
    module convention."""
    _check_n(n)
    cfg = NetworkConfig(n=n, p=p, depth=depth, l_layers=l_layers)
    m, h = cfg.m, cfg.hidden
    lam = cfg.resolved_depth
    chain = _chain_counted(m, lam)
    by_layer = {
        "chirp_scaling_in": {"muls": p * 2 * n, "adds": 0},
        "dft_chain_in": {"muls": p * chain["muls"], "adds": p * chain["adds"]},
        "circulant_scaling": {"muls": p * 2 * m, "adds": 0},
        "bias_hidden": {"muls": 0, "adds": h},
        "activation": {"muls": h, "adds": 0},
        "delay": {"muls": 2 * h, "adds": h},
        "skip": {"muls": h, "adds": h},
        "dft_chain_out": {"muls": p * chain["muls"], "adds": p * chain["adds"]},
        "chirp_scaling_out": {"muls": p * 2 * n, "adds": 0},
        "accumulate": {"muls": 0, "adds": 2 * n * (p - 1)},
        "bias_out": {"muls": 0, "adds": 2 * n},
    }
    blocks = cfg.blocks_count
    muls = blocks * sum(v["muls"] for v in by_layer.values())
    adds = blocks * sum(v["adds"] for v in by_layer.values())
    return {"muls": muls, "adds": adds, "total": muls + adds, "by_layer": by_layer}


def flops_counted_dense(n: int, l_layers: int = 5, p: int = 1) -> dict:
    """Layer-walked operation count for the fully connected baseline."""
    _check_n(n)
    cfg = NetworkConfig(n=n, p=p, l_layers=l_layers, kind=KIND_DENSE)
    h = cfg.hidden
    by_layer = {
        "w1": {"muls": h * 2 * n, "adds": h * (2 * n - 1)},
        "bias_hidden": {"muls": 0, "adds": h},
        "activation": {"muls": h, "adds": 0},
        "delay": {"muls": 2 * h, "adds": h},
        "skip": {"muls": h, "adds": h},
        "w4": {"muls": 2 * n * h, "adds": 2 * n * (h - 1)},
        "bias_out": {"muls": 0, "adds": 2 * n},
    }
    blocks = cfg.blocks_count
    muls = blocks * sum(v["muls"] for v in by_layer.values())
    adds = blocks * sum(v["adds"] for v in by_layer.values())
    return {"muls": muls, "adds": adds, "total": muls + adds, "by_layer": by_layer}


def percentage_reduction(dense_value: float, structured_value: float) -> float:
    """(dense - structured) / dense * 100."""
    if dense_value == 0:
        raise ValueError("dense value must be nonzero")
    return 100.0 * (dense_value - structured_value) / dense_value


def reduction_report(
    ns=(8, 16, 32),
    depths=None,
    l_layers: int = 5,
    p: int = 1,
) -> dict:
    """Side-by-side audit of both kinds at the given channel counts.

    Per row: trainable parameter counts (network.expected_param_count, the
    closed form that tests pin to built networks, so no network is built and
    a dense row costs no weight memory), formula and counted FLOPs,
    and the two reduction percentages.  The FLOP reduction uses the counted
    dense cost against the formula structured cost, which is how the two
    accountings were designed to be compared; the counted structured cost is
    included so the formula-vs-counted residual is visible.
    """
    rows = []
    for i, n in enumerate(ns):
        depth = None if depths is None else depths[i]
        cfg_s = NetworkConfig(n=n, p=p, depth=depth, l_layers=l_layers)
        cfg_d = NetworkConfig(n=n, p=p, l_layers=l_layers, kind=KIND_DENSE)
        params_s = expected_param_count(cfg_s)
        params_d = expected_param_count(cfg_d)
        lam = cfg_s.resolved_depth
        formula_s = flops_truncated(n, lam, l_layers, p)
        formula_full = flops_full(n, l_layers, p)
        counted_s = flops_counted_structured(n, lam, l_layers, p)
        counted_d = flops_counted_dense(n, l_layers, p)
        rows.append({
            "n": n,
            "depth": lam,
            "params_structured": params_s,
            "params_dense": params_d,
            "pr_weights_pct": percentage_reduction(params_d, params_s),
            "flops_formula_adds": formula_s["adds"],
            "flops_formula_muls": formula_s["muls"],
            "flops_formula_total": formula_s["total"],
            "flops_full_formula_total": formula_full["total"],
            "flops_counted_adds": counted_s["adds"],
            "flops_counted_muls": counted_s["muls"],
            "flops_counted_total": counted_s["total"],
            "flops_dense_adds": counted_d["adds"],
            "flops_dense_muls": counted_d["muls"],
            "flops_dense_total": counted_d["total"],
            "pr_flops_pct": percentage_reduction(
                counted_d["total"], formula_s["total"]
            ),
            "counted_vs_formula_pct": 100.0
            * (counted_s["total"] - formula_s["total"])
            / formula_s["total"],
        })
    return {
        "rows": rows,
        "conventions": dict(CONVENTIONS),
        "settings": {
            # the scaling diagonal is always tied; the key keeps reports stable
            "l_layers": l_layers, "p": p, "tie_scaling": True,
            "note": (
                "formula and counted accountings intentionally differ by a "
                "few percent; both are reported, neither is adjusted"
            ),
        },
    }


_CSV_FIELDS = [
    "n", "model", "params", "flops_formula_add", "flops_formula_mul",
    "flops_counted_add", "flops_counted_mul", "pr_weights_pct", "pr_flops_pct",
]


def write_reduction_csv(report: dict, path: str) -> None:
    """Two CSV rows per n, one for each model kind."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        w.writeheader()
        for row in report["rows"]:
            w.writerow({
                "n": row["n"], "model": "structured",
                "params": row["params_structured"],
                "flops_formula_add": row["flops_formula_adds"],
                "flops_formula_mul": row["flops_formula_muls"],
                "flops_counted_add": row["flops_counted_adds"],
                "flops_counted_mul": row["flops_counted_muls"],
                "pr_weights_pct": f"{row['pr_weights_pct']:.2f}",
                "pr_flops_pct": f"{row['pr_flops_pct']:.2f}",
            })
            w.writerow({
                "n": row["n"], "model": "fully_connected",
                "params": row["params_dense"],
                "flops_formula_add": "",
                "flops_formula_mul": "",
                "flops_counted_add": row["flops_dense_adds"],
                "flops_counted_mul": row["flops_dense_muls"],
                "pr_weights_pct": "", "pr_flops_pct": "",
            })


def write_reduction_json(report: dict, path: str, extra: dict | None = None) -> None:
    payload = dict(report)
    if extra:
        payload = {**payload, **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
