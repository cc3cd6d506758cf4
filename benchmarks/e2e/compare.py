"""Statistics of repeated runs and the comparison of two result files.

One place for the rules of the choosing-metrics guide: a timing is reported as
median, quartiles and n; a metric whose run-to-run spread (IQR / median) is
wider than its bound is *unresolved*, not unchanged; a change is *worse* when
its median is worse than the base's by more than the bound.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, n and IQR / median of one metric's repetitions."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
    }


def verdict(base: Dict, new: Dict, better: str, bound: float) -> Dict:
    """Compare two summaries of one metric on one workload.

    ``worsening`` is the relative change of the median in the bad direction,
    with the base median as its base.  ``unresolved`` means the spread of
    either side is wider than the bound and the two ranges overlap, so the
    medians cannot carry a verdict either way.
    """
    if base["median"]:
        change = (new["median"] - base["median"]) / base["median"]
    else:
        change = 0.0 if new["median"] == base["median"] else float("inf")
    worsening = change if better == "lower" else -change
    noisy = max(base["iqr_over_median"], new["iqr_over_median"]) > bound
    overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
    if noisy and overlap:
        result = "unresolved"
    elif worsening > bound:
        result = "worse"
    else:
        result = "within"
    return {"change": change, "worsening": worsening, "verdict": result}


def compare_files(path_a: str, path_b: str) -> List[Dict]:
    """Every workload x end-to-end metric of two ``run.py --out`` files."""
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        new = json.load(handle)
    rows = []
    for name, base_workload in base["workloads"].items():
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            continue
        for metric, spec in base["end_to_end"].items():
            a = base_workload["end_to_end"][metric]
            b = new_workload["end_to_end"].get(metric)
            if b is None:
                continue
            row = {"workload": name, "metric": metric, "unit": spec["unit"],
                   "bound": spec["bound"], "base": a, "new": b}
            row.update(verdict(a, b, spec["better"], spec["bound"]))
            rows.append(row)
        for exact in ("sim_fingerprint", "events", "netsize_rel_err", "failed_share"):
            a, b = base_workload.get(exact), new_workload.get(exact)
            rows.append({
                "workload": name, "metric": exact, "unit": "exact", "bound": 0.0,
                "base": a, "new": b, "change": None, "worsening": None,
                "verdict": "within" if a == b else "worse",
            })
    return rows


def _format_summary(summary: Optional[Dict]) -> str:
    if not isinstance(summary, dict):
        text = str(summary)
        return text if len(text) <= 16 else text[:13] + "..."
    return (
        f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}] n={summary['n']}"
    )


def render_comparison(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<16} {'base median [q1, q3] n':<34} "
        f"{'new median [q1, q3] n':<34} {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        change = "" if row["change"] is None else f"{row['change']:+.1%}"
        bound = "exact" if row["unit"] == "exact" else f"{row['bound']:.0%}"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<16} {_format_summary(row['base']):<34} "
            f"{_format_summary(row['new']):<34} {change:>8} {bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)
