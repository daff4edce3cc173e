"""The end-to-end benchmark's one command (see README.md beside this file).

Driver form, one run, one JSON object as the last line of standard output::

    python3 benchmarks/e2e/run.py --workload zipf_cached_disk --seed 1 --seconds 12 --trace 0

Human form, every workload untraced and traced, each in a fresh process, a
table of every metric by name and unit, and one result file for compare.py::

    python3 benchmarks/e2e/run.py --workload all --seed 1 [--repeats 5]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_harness() -> Any:
    """Put ``src/`` and this directory on the path; fail if the product is absent."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"run.py: no product source at {source}; run from a full checkout")
    for path in (source, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from e2ebench import runner, workloads

    return runner, workloads


def envelope(arguments: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "smoke": arguments.smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_one(arguments: argparse.Namespace) -> int:
    """One workload, one mode, in this process; the driver's contract."""
    contract = load_contract()
    runner, workloads = import_harness()
    workload = workloads.BY_NAME.get(arguments.workload)
    if workload is None:
        sys.exit(f"run.py: unknown workload {arguments.workload!r}; one of {sorted(workloads.BY_NAME)}")
    if arguments.smoke:
        workload = workload.smoke()
    trace = bool(arguments.trace)
    state = runner.run(workload, arguments.seed, arguments.seconds, trace, OUT)

    declared = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(state.metrics))
    if missing:
        state.errors.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": state.metrics[name], "unit": unit}
        for name, unit in units.items()
        if name in state.metrics
    }
    correct = state.failed == 0 and not state.errors
    result = {
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": metrics,
    }
    detail = {
        **envelope(arguments),
        "workload": workload.name,
        "trace": trace,
        "parameters": dataclasses.asdict(workload),
        "phases": state.phases,
        "samples": state.samples,
        "errors": state.errors,
        "spans_file": state.spans_file,
        **result,
    }
    path = arguments.detail or os.path.join(
        OUT, f"run-{workload.name}-trace{int(trace)}-seed{arguments.seed}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for name, metric in metrics.items():
        print(f"{workload.name:26s} {name:48s} {metric['value']:14.4f} {metric['unit']}")
    for error in state.errors:
        print(f"ERROR {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(arguments: argparse.Namespace) -> int:
    """Every workload, one fresh process per run: ``--repeats`` untraced runs
    on consecutive seeds (compare.py takes their medians and spread), then
    one traced run."""
    _runner, workloads = import_harness()
    os.makedirs(OUT, exist_ok=True)
    combined: Dict[str, Any] = {**envelope(arguments), "workloads": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        entry: Dict[str, Any] = {"runs": []}
        plan = [(0, arguments.seed + repeat) for repeat in range(arguments.repeats)]
        for trace, seed in plan + [(1, arguments.seed)]:
            detail = os.path.join(OUT, f"run-{workload.name}-trace{trace}-seed{seed}.json")
            command: List[str] = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload.name,
                "--seed", str(seed),
                "--seconds", str(arguments.seconds),
                "--trace", str(trace),
                "--detail", detail,
            ]
            if arguments.smoke:
                command.append("--smoke")
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if completed.returncode != 0:
                status = 1
            if os.path.exists(detail):
                with open(detail, encoding="utf-8") as handle:
                    entry["runs"].append(json.load(handle))
        combined["workloads"][workload.name] = entry
    path = arguments.detail or os.path.join(
        OUT, f"result-{combined['commit'][:12]}-seed{arguments.seed}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(combined, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}" + ("" if status == 0 else "  (FAILED runs above)"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="drives request order, probes, updates")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="test scale: small corpora")
    parser.add_argument("--repeats", type=int, default=1, help="'all' only: untraced runs per workload")
    parser.add_argument("--detail", default=None, help="where to write the full result JSON")
    arguments = parser.parse_args()
    if arguments.seconds is None:
        arguments.seconds = 1.0 if arguments.smoke else float(load_contract()["run_seconds"])
    if arguments.workload == "all":
        return run_all(arguments)
    return run_one(arguments)


if __name__ == "__main__":
    sys.exit(main())
