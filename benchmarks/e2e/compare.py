"""Compare two result files of ``run.py --workload all``: base, then other.

    python3 benchmarks/e2e/compare.py base.json other.json

One row per workload x end-to-end metric: the base median, the other median,
their ratio (other / base), the regression bound from ``BENCHMARK.json`` and
a verdict:

``ok``          the other median is not worse than the base median by more
                than the bound;
``worse``       it is (exit status 1);
``unresolved``  the run-to-run spread of either side (distance between the
                quartiles over the median, needs ``--repeats`` >= 2) is wider
                than the bound, and the sides' runs overlap — the difference,
                either way, is not resolved by these runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def untraced_values(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per untraced run]}}`` of a result file."""
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for name, entry in result["workloads"].items():
        for run in entry["runs"]:
            if run["trace"]:
                continue
            for metric, measured in run["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(measured["value"])
    return values


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one run)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def verdict(base: List[float], other: List[float], metric: Dict[str, Any]) -> str:
    lower_is_better = metric["better"] == "lower"
    base_median, other_median = statistics.median(base), statistics.median(other)
    change = (other_median - base_median) / base_median if base_median else 0.0
    worsening = change if lower_is_better else -change
    if max(spread(base), spread(other)) > metric["bound"]:
        if lower_is_better:
            separated = max(other) < min(base)
        else:
            separated = min(other) > max(base)
        return "ok" if separated else "unresolved"
    return "worse" if worsening > metric["bound"] else "ok"


def main(arguments: List[str]) -> int:
    if len(arguments) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    base, other = (untraced_values(path) for path in arguments)
    print(
        f"{'workload':26s} {'metric':24s} {'unit':10s} {'base':>12s} {'other':>12s} "
        f"{'other/base':>10s} {'spread':>13s} {'bound':>6s}  verdict"
    )
    status = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        for metric in contract["end_to_end"]:
            ours = base.get(name, {}).get(metric["name"])
            theirs = other.get(name, {}).get(metric["name"])
            if not ours or not theirs:
                print(f"{name:26s} {metric['name']:24s} missing from one side")
                status = 1
                continue
            base_median, other_median = statistics.median(ours), statistics.median(theirs)
            outcome = verdict(ours, theirs, metric)
            if outcome == "worse":
                status = 1
            print(
                f"{name:26s} {metric['name']:24s} {metric['unit']:10s} {base_median:12.4f} "
                f"{other_median:12.4f} {other_median / base_median:10.3f} "
                f"{spread(ours):6.1%}/{spread(theirs):6.1%} {metric['bound']:6.2f}  {outcome}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
