"""What the benchmark counts as an operation, and when one fails.

An operation is a priced (strike, tier) row of ``run``, a tier row of
``convergence``, or a Laplace point of ``surface``.  It fails when its entry
point raised, a value is non-finite, the bounds are out of order, a value
misses its stored reference, or a repetition with the same seed did not
reproduce it exactly.

Every check must hold on any seed, so tolerances are Z = 8 standard
deviations.  The stored references (``references.json``) are means over 16
seeds, each with its across-seed standard deviation; a value's tolerance
combines that spread with the run's own standard error.  The seed moves the
pilot envelope and with it the solver grid's nodes, so PDE prices spread with
heavier tails than a normal: over 60 seeds not used for the references they
reached 4.7 reference standard deviations.
"""

from __future__ import annotations

import math
import statistics

Z = 8.0
REL_FLOOR = 1e-6  # rounding-level changes, e.g. a reordered reduction, are not failures
CHECKED = {"run": ("a_minus", "a_plus", "hjb_american"), "convergence": ("a_minus", "a_plus")}
STANDARD_ERROR = {"a_minus": "se_minus", "a_plus": "se_plus"}


def collect_run(report) -> dict:
    return {"rows": [{"strike": r.strike, "n_t": r.n_t,
                      "a_minus": r.a_minus, "se_minus": r.se_minus,
                      "a_plus": r.a_plus, "se_plus": r.se_plus,
                      "euro_mc": r.euro_mc, "se_euro": r.se_euro,
                      "hjb_american": r.hjb_american, "hjb_european": r.hjb_european}
                     for r in report.rows]}


def collect_convergence(report) -> dict:
    return {"rows": [{"strike": float(report.strike), "n_t": int(row[0]),
                      "a_minus": float(row[1]), "se_minus": float(row[2]),
                      "a_plus": float(row[3]), "se_plus": float(row[4])}
                     for row in report.table]}


def probe_points(surf, model, p) -> list:
    """One probe per fitted slice, at the forward basket level px0 e^{rt}."""
    px0 = float(p.weights @ model.x0)
    return [[float(t), px0 * math.exp(model.r * float(t))] for t in surf.slice_times]


def collect_surface(surf, probes, laplace_failed: int) -> dict:
    import numpy as np

    return {"laplace_failed": laplace_failed,
            "coeffs_finite": bool(np.all(np.isfinite(surf.coeffs))),
            "probes": [[t, s, float(surf.eval_b2(t, s))] for t, s in probes]}


def count_failures(entry: str, outputs: list, refs: dict | None, attempted: int,
                   points_per_probe: int) -> tuple[int, list]:
    """Failed operations of one workload run; outputs holds one dict per repetition."""
    first = outputs[0]
    if "error" in first:
        return attempted, [first["error"]]
    notes: list[str] = []
    if entry == "surface":
        failed = _surface_failures(outputs, refs or {}, attempted, points_per_probe, notes)
    else:
        failed = _row_failures(entry, outputs, refs or {}, notes)
        missing = attempted - len(first["rows"])
        if missing:
            notes.append(f"{missing} rows missing")
            failed += missing
    return min(attempted, failed), notes


def _row_failures(entry: str, outputs: list, refs: dict, notes: list) -> int:
    ref_rows = {(r["strike"], r["n_t"]): r for r in refs.get("rows", [])}
    failed = 0
    for i, row in enumerate(outputs[0]["rows"]):
        why = _row_problem(entry, row, ref_rows.get((row["strike"], row["n_t"])))
        if why is None and any(o.get("rows", [])[i:i + 1] != [row] for o in outputs[1:]):
            why = "a repetition with the same seed gave different values"
        if why:
            failed += 1
            notes.append(f"K={row['strike']:g} N_t={row['n_t']}: {why}")
    return failed


def _row_problem(entry: str, row: dict, ref: dict | None) -> str | None:
    if not all(math.isfinite(v) for v in row.values()):
        return "non-finite value"
    if row["a_minus"] > row["a_plus"] + Z * (row["se_minus"] + row["se_plus"]):
        return "lower bound above upper bound"
    if ref is None:
        return "no stored reference"
    for q in CHECKED[entry]:
        se = row[STANDARD_ERROR[q]] if q in STANDARD_ERROR else 0.0
        tol = Z * math.hypot(se, ref[q + "_sd"]) + REL_FLOOR * abs(ref[q])
        if abs(row[q] - ref[q]) > tol:
            return f"{q}={row[q]:.6g} misses reference {ref[q]:.6g} by more than {tol:.3g}"
    return None


def _surface_failures(outputs: list, refs: dict, attempted: int, points_per_probe: int,
                      notes: list) -> int:
    first = outputs[0]
    failed = first["laplace_failed"]
    if failed:
        notes.append(f"{failed} Laplace points failed")
    if not first["coeffs_finite"]:
        notes.append("non-finite surface coefficients")
        return attempted
    if any(o != first for o in outputs[1:]):
        notes.append("a repetition with the same seed gave a different surface")
        return attempted
    ref_probes = refs.get("probes")
    if ref_probes is None:
        notes.append("no stored reference")
        return attempted
    for (t, s, b2), ref in zip(first["probes"], ref_probes):
        tol = Z * ref["b2_sd"] + REL_FLOOR * abs(ref["b2"])
        if abs(b2 - ref["b2"]) > tol:
            failed += points_per_probe  # the probe stands for its slice's points
            notes.append(f"surface at t={t:.4g}, s={s:.6g}: {b2:.8g} misses reference "
                         f"{ref['b2']:.8g} by more than {tol:.3g}")
    return failed


def quality(entry: str, output: dict) -> dict:
    """Bracket tightness and PDE accuracy over the top tier's strikes (zero where undefined)."""
    out = {"mc.gap_rel": 0.0, "hjb.err_rel": 0.0}
    rows = output.get("rows")
    if not rows:
        return out
    top = max(r["n_t"] for r in rows)
    priced = [(r, 0.5 * (r["a_minus"] + r["a_plus"])) for r in rows if r["n_t"] == top]
    priced = [(r, mid) for r, mid in priced if mid != 0.0]
    if not priced:
        return out
    out["mc.gap_rel"] = statistics.median((r["a_plus"] - r["a_minus"]) / mid for r, mid in priced)
    if entry == "run":
        out["hjb.err_rel"] = statistics.median(abs(r["hjb_american"] - mid) / mid
                                               for r, mid in priced)
    return out
