"""Smoke test of the end-to-end benchmark harness at ``--smoke`` scale.

Checks the harness, not the product's speed: every metric ``BENCHMARK.json``
declares is emitted, spans nest and add up, and traced counts repeat.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2ebench import runner, workloads  # noqa: E402

SEED = 3
SECONDS = 0.3
SINGLE_STORE = ("zipf_cached_disk", "mixed_rw_disk", "build_open_disk")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONTRACT = json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced and two traced runs with one seed."""
    out = str(tmp_path_factory.mktemp("e2e"))
    result = {}
    for workload in workloads.WORKLOADS:
        smoke = workload.smoke()
        result[workload.name] = [
            runner.run(smoke, SEED, SECONDS, trace, out) for trace in (False, True, True)
        ]
    return result


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_every_declared_metric_is_measured(runs, name):
    untraced, traced, _ = runs[name]
    for state in (untraced, traced):
        assert state.errors == [] and state.failed == 0 and state.attempted > 0
    assert set(untraced.metrics) >= {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(traced.metrics) >= {m["name"] for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["end_to_end"]:
        assert untraced.metrics[metric["name"]] > 0, metric["name"]
        if metric["unit"] in ("s", "ms", "req/s"):
            assert untraced.samples[metric["name"]] >= 1, metric["name"]
    for phase in untraced.phases.values():
        assert phase["sent"] == phase["succeeded"] > 0 and phase["failed"] == 0


@pytest.mark.parametrize("name", SINGLE_STORE)
def test_spans_nest_and_self_times_add_up(runs, name):
    traced = runs[name][1]
    # Every span of a single-store request is on the client's stack, so the
    # layers' self times partition the root spans.
    assert traced.self_seconds == pytest.approx(traced.root_seconds, rel=0.05)
    with open(traced.spans_file, encoding="utf-8") as handle:
        spans = json.load(handle)
    assert spans
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["request"] == span["request"]


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_traced_counts_repeat(runs, name):
    _, first, second = runs[name]
    for metric in CONTRACT["per_layer"]:
        if metric["unit"] == "count":
            assert first.metrics[metric["name"]] == second.metrics[metric["name"]], metric["name"]


def test_layer_dominance(runs):
    """Each workload exercises the layers it claims to and bypasses the rest."""
    traced = {name: states[1].metrics for name, states in runs.items()}
    assert traced["zipf_cached_disk"]["serving.cache.hit_ratio"] > 0
    assert traced["uniform_uncached_cluster"]["serving.cache.hit_ratio"] == 0
    for name, metrics in traced.items():
        clustered = name == "uniform_uncached_cluster"
        assert (metrics["cluster.router.nodes_queried"] > 0) == clustered
        assert (metrics["cluster.stats.lookup_ms"] > 0) == clustered
        writes = name == "mixed_rw_disk"
        assert (metrics["store.write.busy_ms"] > 0) == writes
        assert (metrics["core.incremental.self_ms"] > 0) == writes
        assert (metrics["serving.maintenance.apply_ms"] > 0) == writes
        assert (metrics["build.pipeline.load_s"] > 0) == (name == "build_open_disk")


def test_command_line_contract(tmp_path):
    """The driver's form: one JSON object with exactly four keys, last line."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", "uniform_uncached_cluster",
            "--seed", "5",
            "--seconds", str(SECONDS),
            "--trace", "0",
            "--smoke",
            "--detail", str(tmp_path / "detail.json"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    detail = json.loads((tmp_path / "detail.json").read_text())
    for key in ("commit", "python", "nproc", "seed", "parameters", "phases", "samples"):
        assert key in detail
