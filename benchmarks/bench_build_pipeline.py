"""Distributed build pipeline: batch crawl→index throughput at 100k fragments.

Builds the synthetic corpus (:class:`repro.datasets.SyntheticCorpus`) at
increasing scales and measures, per scale,

* ``single``      — the single-process reference build: per-fragment
                    ``InvertedFragmentIndex.add_fragment`` into one
                    :class:`DiskStore` inside one ``write_batch`` (the
                    blessed pre-pipeline path),
* ``distributed`` — :class:`repro.build.BuildPipeline` into a fresh
                    :class:`DiskStore`: partitioned map tasks, sorted-run
                    reduce tasks, parallel per-shard bulk loads and the final
                    merge,

verifies the two stores are **byte-identical** (posting blocks and fragment
rows — the ``parity_ok`` flag ``tools/check_bench_parity.py`` gates CI on),
and, on the largest corpus, measures end-to-end top-k search latency over a
document-frequency workload (hot / warm / cold / mixed keywords) against the
distributed build.  Emits ``BENCH_build_pipeline.json``.

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_build_pipeline.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_build_pipeline.py``).

Environment knobs: ``REPRO_BENCH_BUILD_FRAGMENTS`` (comma-separated corpus
sizes, default ``2000,20000,100000``), ``REPRO_BENCH_BUILD_WORKERS``
(pipeline workers, default 2), ``REPRO_BENCH_BUILD_MAP_TASKS`` /
``REPRO_BENCH_BUILD_REDUCE_TASKS`` (default 4 each),
``REPRO_BENCH_BUILD_SEARCH_REPEATS`` (latency samples per query, default 20).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Tuple

from repro.bench.reporting import print_table, summarize_latencies, write_json
from repro.build import BuildPipeline
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets import SyntheticCorpus
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.store import DiskStore
from repro.webapp.request import QueryStringSpec

FRAGMENT_COUNTS = tuple(
    int(value)
    for value in os.environ.get(
        "REPRO_BENCH_BUILD_FRAGMENTS", "2000,20000,100000"
    ).split(",")
)
WORKERS = int(os.environ.get("REPRO_BENCH_BUILD_WORKERS", "2"))
MAP_TASKS = int(os.environ.get("REPRO_BENCH_BUILD_MAP_TASKS", "4"))
REDUCE_TASKS = int(os.environ.get("REPRO_BENCH_BUILD_REDUCE_TASKS", "4"))
SEARCH_REPEATS = int(os.environ.get("REPRO_BENCH_BUILD_SEARCH_REPEATS", "20"))
K = 10
SIZE_THRESHOLD = 200

QUERY = fooddb_search_query(build_fooddb())
SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"


def _index_rows(store: DiskStore) -> Tuple[List, List]:
    """The parity material: every posting block and fragment row, bytes included."""
    blocks = store._connection.execute(
        "SELECT keyword, block_no, count, max_occurrences, max_weight, entries "
        "FROM posting_blocks ORDER BY keyword, block_no"
    ).fetchall()
    fragments = store._connection.execute(
        "SELECT id, size FROM fragments ORDER BY id"
    ).fetchall()
    return blocks, fragments


def build_single(corpus: SyntheticCorpus, path: str) -> Tuple[DiskStore, float]:
    started = time.perf_counter()
    store = DiskStore(path)
    index = InvertedFragmentIndex(store=store)
    with store.write_batch():
        for identifier, term_frequencies in corpus:
            index.add_fragment(identifier, term_frequencies)
    return store, time.perf_counter() - started


def build_distributed(corpus: SyntheticCorpus, path: str):
    started = time.perf_counter()
    store = DiskStore(path)
    report = BuildPipeline(
        corpus, map_tasks=MAP_TASKS, reduce_tasks=REDUCE_TASKS, workers=WORKERS
    ).run(store)
    return store, time.perf_counter() - started, report


def query_workload(store: DiskStore) -> Dict[str, List[str]]:
    """Hot / warm / cold keywords by document frequency, plus the mixed query."""
    index = InvertedFragmentIndex(store=store)
    frequencies = index.document_frequencies()
    ranked = sorted(frequencies, key=lambda keyword: (frequencies[keyword], keyword))
    workload = {
        "cold": [ranked[0]],
        "warm": [ranked[len(ranked) // 2]],
        "hot": [ranked[-1]],
    }
    workload["mixed"] = [ranked[-1], ranked[len(ranked) // 2], ranked[0]]
    return workload


def measure_search(store: DiskStore, fragments: int) -> List[Dict]:
    """End-to-end top-k latency on the distributed build (graph included)."""
    index = InvertedFragmentIndex(store=store)
    sizes = index.fragment_sizes
    graph = FragmentGraph.build(QUERY, sizes, store=store)
    searcher = TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))
    measurements = []
    for name, keywords in query_workload(store).items():
        searcher.search(keywords, k=K, size_threshold=SIZE_THRESHOLD)  # warm-up
        samples = []
        for _ in range(SEARCH_REPEATS):
            started = time.perf_counter()
            searcher.search(keywords, k=K, size_threshold=SIZE_THRESHOLD)
            samples.append(time.perf_counter() - started)
        measurements.append(
            {"fragments": fragments, "query": name, "keywords": keywords,
             **summarize_latencies(samples)}
        )
    return measurements


def run_build_comparison() -> Dict:
    payload = {
        "fragment_counts": list(FRAGMENT_COUNTS),
        "workers": WORKERS,
        "map_tasks": MAP_TASKS,
        "reduce_tasks": REDUCE_TASKS,
        "search_repeats": SEARCH_REPEATS,
        "measurements": [],
        "search_latency": [],
    }
    rows = []
    largest = max(FRAGMENT_COUNTS)
    for count in FRAGMENT_COUNTS:
        corpus = SyntheticCorpus(count, seed=7)
        with tempfile.TemporaryDirectory(prefix="repro-bench-build-") as scratch:
            single_store, single_seconds = build_single(
                corpus, os.path.join(scratch, "single.sqlite")
            )
            distributed_store, distributed_seconds, report = build_distributed(
                corpus, os.path.join(scratch, "distributed.sqlite")
            )
            parity_ok = _index_rows(single_store) == _index_rows(distributed_store)
            single_store.close()
            speedup = single_seconds / distributed_seconds if distributed_seconds else 0.0
            measurement = {
                "fragments": count,
                "single_seconds": round(single_seconds, 3),
                "single_fragments_per_second": round(count / single_seconds, 1),
                "distributed_seconds": round(distributed_seconds, 3),
                "distributed_fragments_per_second": round(
                    count / distributed_seconds, 1
                ),
                "speedup_vs_single": round(speedup, 2),
                "workers": WORKERS,
                "map_tasks": MAP_TASKS,
                "reduce_tasks": REDUCE_TASKS,
                "postings": report.postings,
                "keywords": report.keywords,
                "stage_seconds": {
                    "map": round(report.map_seconds, 3),
                    "reduce": round(report.reduce_seconds, 3),
                    "load": round(report.load_seconds, 3),
                    "merge": round(report.merge_seconds, 3),
                },
                "retries": dict(report.retries),
                "parity_ok": parity_ok,
            }
            payload["measurements"].append(measurement)
            rows.append(
                (count, round(single_seconds, 2), round(distributed_seconds, 2),
                 f"{speedup:.2f}x",
                 measurement["distributed_fragments_per_second"],
                 "yes" if parity_ok else "NO")
            )
            if count == largest:
                payload["search_latency"].extend(
                    measure_search(distributed_store, count)
                )
            distributed_store.close()
    print_table(
        ["fragments", "single (s)", "distributed (s)", "speedup",
         "dist fragments/s", "byte parity"],
        rows,
        title=f"Batch build: single-process vs distributed pipeline "
        f"({WORKERS} workers, {MAP_TASKS} map / {REDUCE_TASKS} reduce tasks)",
    )
    print_table(
        ["fragments", "query", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [
            (entry["fragments"], entry["query"], entry["mean_ms"],
             entry["p50_ms"], entry["p95_ms"], entry["p99_ms"])
            for entry in payload["search_latency"]
        ],
        title="Top-k search latency on the distributed build (largest corpus)",
    )
    path = write_json("BENCH_build_pipeline.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_build_pipeline_benchmark(benchmark):
    payload = benchmark.pedantic(run_build_comparison, rounds=1, iterations=1)
    # Every scale must verify byte-identical output.
    assert all(m["parity_ok"] for m in payload["measurements"])
    # The distributed pipeline must beat the single-process build wall-clock
    # at 20k+ fragments with >= 2 workers (the acceptance criterion; smaller
    # smoke scales are exempt — fixed stage overhead dominates there).
    if WORKERS >= 2:
        for measurement in payload["measurements"]:
            if measurement["fragments"] >= 20000:
                assert measurement["speedup_vs_single"] > 1.0, measurement
    # The largest corpus answered the search workload.
    assert payload["search_latency"], "no search-latency rows recorded"
    for entry in payload["search_latency"]:
        assert entry["requests"] == SEARCH_REPEATS
        assert entry["p95_ms"] >= entry["p50_ms"] >= 0.0


if __name__ == "__main__":
    run_build_comparison()
