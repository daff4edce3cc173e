"""Store-backend comparison: top-k search latency across storage backends.

Builds synthetic fragment sets of increasing size (fooddb-shaped: cuisine
equality chains over a budget range, Zipf-ish keyword mix with a few hot
keywords), loads them into every backend —

* ``seed``       — the seed implementation's search loop (eager global
                   seeding, full per-candidate rescoring) over the in-memory
                   store: the baseline the refactor is measured against,
* ``memory``     — :class:`InMemoryStore` behind the current searcher
                   (one-pass seed scoring + incremental page statistics),
* ``disk``       — :class:`DiskStore`, the persistent sqlite backend,

— measures average search latency over cold/warm/hot keywords, verifies that
every backend returns exactly the seed path's ranked URLs, and emits
``BENCH_store_backends.json`` for tooling.

The disk backend is additionally measured on its reason to exist: cold
start.  ``cold_start`` rows compare rebuilding the store from fragments
into memory (the no-persistence restart path; re-crawling would come on
top) against re-attaching to the already-built sqlite file (what only the
disk backend can do), alongside the one-time cost of building onto disk
and the first post-attach search.

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_store_backends.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_store_backends.py``).

Environment knobs: ``REPRO_BENCH_STORE_FRAGMENTS`` (comma-separated fragment
counts, default ``2000,12000``), ``REPRO_BENCH_STORE_REPEATS`` (timing
repetitions, default 5).
"""

from __future__ import annotations

import heapq
import os
import random
import sqlite3
import tempfile
import time
from typing import Dict, List, Tuple

from repro.bench.reporting import print_table, write_json
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import identifier_order
from repro.core.scoring import DashScorer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.store import DiskStore, InMemoryStore
from repro.webapp.request import QueryStringSpec

FRAGMENT_COUNTS = tuple(
    int(value) for value in os.environ.get("REPRO_BENCH_STORE_FRAGMENTS", "2000,12000").split(",")
)
REPEATS = int(os.environ.get("REPRO_BENCH_STORE_REPEATS", "5"))
K = 10
SIZE_THRESHOLDS = (200, 1000)

QUERY = fooddb_search_query(build_fooddb())
SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"

#: Hot keywords planted into a large share of the fragments.
HOT_KEYWORDS = ("burger", "noodle", "coffee")


# ----------------------------------------------------------------------
# the seed implementation's search loop (the measured baseline)
# ----------------------------------------------------------------------
class SeedTopKSearcher:
    """Replica of the pre-store search path: every seed is scored and pushed
    individually, and each expansion candidate re-scores the whole page.
    Queue ties break on the product's content-derived keys, so equal-score
    pages at the k-th rank come out in the order every backend returns."""

    def __init__(self, index: InvertedFragmentIndex, graph: FragmentGraph,
                 url_formulator: UrlFormulator) -> None:
        self.index = index
        self.graph = graph
        self.url_formulator = url_formulator

    def search(self, keywords, k=10, size_threshold=100):
        scorer = DashScorer(self.index, keywords)
        queue = []
        for identifier in scorer.relevant_fragments():
            entry = (tuple(identifier),)
            tie = (0, identifier_order(entry[0]))
            heapq.heappush(queue, (-scorer.score(entry), tie, entry))
        consumed, results = set(), []
        while queue and len(results) < k:
            negative_score, _tie, fragments = heapq.heappop(queue)
            if len(fragments) == 1 and fragments[0] in consumed:
                continue
            expansion = self._expansion_candidate(fragments, scorer, size_threshold)
            if expansion is None:
                results.append(self._make_result(fragments, -negative_score, scorer))
                continue
            consumed.add(expansion)
            expanded = self._ordered(fragments + (expansion,))
            tie = (1, tuple(identifier_order(member) for member in expanded))
            heapq.heappush(queue, (-scorer.score(expanded), tie, expanded))
        results.sort(key=lambda result: -result[1])
        return results

    def _expansion_candidate(self, fragments, scorer, size_threshold):
        if scorer.page_size(fragments) >= size_threshold:
            return None
        members = set(fragments)
        candidates = []
        for identifier in fragments:
            for neighbor in self.graph.neighbors(identifier):
                if neighbor not in members:
                    candidates.append(neighbor)
        if not candidates:
            return None
        unique_candidates = list(dict.fromkeys(candidates))

        def preference(candidate):
            relevant = scorer.fragment_is_relevant(candidate)
            resulting_score = scorer.score(self._ordered(fragments + (candidate,)))
            return (0 if relevant else 1, -resulting_score, identifier_order(candidate))

        unique_candidates.sort(key=preference)
        return unique_candidates[0]

    def _make_result(self, fragments, score, scorer):
        return (self.url_formulator.url_for_fragments(fragments), score, fragments)

    @staticmethod
    def _ordered(fragments):
        return tuple(sorted(set(fragments), key=identifier_order))


# ----------------------------------------------------------------------
# synthetic workload
# ----------------------------------------------------------------------
def synthetic_fragments(count: int, seed: int = 7) -> Dict[Tuple[str, int], Dict[str, int]]:
    """``count`` fragments in ~40-node cuisine chains with a mixed vocabulary."""
    rng = random.Random(seed)
    vocabulary = [f"kw{index:04d}" for index in range(1500)]
    fragments: Dict[Tuple[str, int], Dict[str, int]] = {}
    groups = max(1, count // 40)
    for index in range(count):
        identifier = (f"Cuisine{index % groups:04d}", 5 + index // groups)
        term_frequencies = {
            rng.choice(vocabulary): rng.randint(1, 4) for _ in range(rng.randint(8, 25))
        }
        if rng.random() < 0.5:
            term_frequencies[rng.choice(HOT_KEYWORDS)] = rng.randint(1, 3)
        fragments[identifier] = term_frequencies
    return fragments


def keyword_workload(index: InvertedFragmentIndex) -> Dict[str, str]:
    """One representative cold / warm / hot keyword (by document frequency)."""
    frequencies = index.document_frequencies()
    ranked = sorted(frequencies, key=lambda keyword: (frequencies[keyword], keyword))
    return {"cold": ranked[0], "warm": ranked[len(ranked) // 2], "hot": ranked[-1]}


def query_workload(index: InvertedFragmentIndex) -> Dict[str, List[str]]:
    """The measured queries: the three single keywords plus a mixed query.

    The mixed hot+warm+cold query is where the expansion pruning's score
    bound has IDF skew to work with.
    """
    workload = keyword_workload(index)
    queries: Dict[str, List[str]] = {name: [keyword] for name, keyword in workload.items()}
    queries["mixed"] = [workload["hot"], workload["warm"], workload["cold"]]
    return queries


def build_backend(fragments, store):
    index = InvertedFragmentIndex(store=store)
    with store.write_batch():
        for identifier, term_frequencies in fragments.items():
            index.add_fragment(identifier, term_frequencies)
    index.finalize()
    sizes = {identifier: index.fragment_size(identifier) for identifier in fragments}
    graph = FragmentGraph.build(QUERY, sizes, store=store)
    return index, graph


def searcher_for(name: str, fragments):
    if name == "seed":
        index, graph = build_backend(fragments, InMemoryStore())
        return SeedTopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))
    if name == "memory":
        store = InMemoryStore()
    elif name == "disk":
        store = DiskStore(
            os.path.join(tempfile.mkdtemp(prefix="repro-bench-disk-"), "store.sqlite")
        )
    else:
        raise ValueError(f"unknown backend {name!r}; expected seed, memory or disk")
    index, graph = build_backend(fragments, store)
    return TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))


def _table_bytes(connection: sqlite3.Connection, name: str) -> int:
    """On-disk bytes of one table or index.

    Uses the ``dbstat`` virtual table (btree pages actually occupied) when
    the sqlite build ships it, falling back to summed column lengths — an
    undercount that ignores page overhead, applied identically to both
    layouts so the ratio stays meaningful.
    """
    try:
        row = connection.execute(
            "SELECT COALESCE(SUM(pgsize), 0) FROM dbstat WHERE name = ?", (name,)
        ).fetchone()
        return int(row[0])
    except sqlite3.OperationalError:
        columns = [info[1] for info in connection.execute(f"PRAGMA table_info({name})")]
        if not columns:
            return 0
        expression = " + ".join(f"COALESCE(LENGTH({column}), 9)" for column in columns)
        return int(
            connection.execute(f"SELECT COALESCE(SUM({expression}), 0) FROM {name}").fetchone()[0]
        )


_V1_LAYOUT_DDL = """
CREATE TABLE postings (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    keyword     TEXT NOT NULL,
    fragment    TEXT NOT NULL,
    tie         TEXT NOT NULL,
    occurrences INTEGER NOT NULL
);
CREATE INDEX postings_by_keyword ON postings (keyword, occurrences DESC, tie);
CREATE INDEX postings_by_fragment ON postings (fragment);
"""


def measure_index_layout(store) -> Dict:
    """Byte footprint of the v2 block layout vs the same postings as v1 rows.

    Replays the store's inverted lists into a scratch file using the schema
    v1 row-per-posting layout — the ``postings`` table plus the two indexes
    v1 needed to serve keyword and fragment reads — and compares against the
    v2 ``posting_blocks`` table, which needs no secondary index (its
    ``WITHOUT ROWID`` primary key *is* the keyword access path and the
    ``fragment_terms`` forward index replaces the by-fragment scans).  The
    ratio is the delta+varint block compression the searcher actually pays
    for on disk.
    """
    from repro.store.disk import encode_identifier

    store.finalize()
    connection = sqlite3.connect(store.path)
    try:
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        v2_tables = {
            name: _table_bytes(connection, name)
            for name in ("posting_blocks", "fragment_terms", "fragments")
        }
    finally:
        connection.close()
    scratch_path = store.path + ".v1-layout"
    scratch = sqlite3.connect(scratch_path)
    try:
        scratch.executescript(_V1_LAYOUT_DDL)
        scratch.executemany(
            "INSERT INTO postings (keyword, fragment, tie, occurrences) VALUES (?, ?, ?, ?)",
            (
                (
                    keyword,
                    encode_identifier(posting.document_id),
                    str(tuple(posting.document_id)),
                    posting.term_frequency,
                )
                for keyword, postings in store.iter_items()
                for posting in postings
            ),
        )
        scratch.commit()
        v1_bytes = sum(
            _table_bytes(scratch, name)
            for name in ("postings", "postings_by_keyword", "postings_by_fragment")
        )
    finally:
        scratch.close()
        os.unlink(scratch_path)
    v2_bytes = v2_tables["posting_blocks"]
    # decoded-block parity: every keyword's concatenated decoded blocks must
    # reproduce the canonical sorted posting list exactly — the flag
    # tools/check_bench_parity.py fails CI on when it regresses
    block_parity_ok = True
    directories = store.posting_blocks_for_many(list(store.vocabulary()))
    for keyword, postings in store.iter_items():
        handle = directories[keyword]
        decoded = tuple(
            posting
            for block_no in range(len(handle.summaries))
            for posting in handle.decode(block_no)
        )
        if decoded != tuple(postings):
            block_parity_ok = False
    return {
        "v2_table_bytes": v2_tables,
        "v1_postings_bytes": v1_bytes,
        "v2_postings_bytes": v2_bytes,
        "compression_ratio": round(v1_bytes / v2_bytes, 2) if v2_bytes else float("inf"),
        "block_parity_ok": block_parity_ok,
    }


def measure_cold_start(fragments, hot_keyword: str) -> Dict[str, float]:
    """Rebuild-from-fragments vs re-attach-to-file, for one fragment set.

    ``rebuild`` is the honest no-persistence restart path: index + graph
    construction into a fresh in-memory store (crawling would come on top
    in a real restart, making the comparison conservative).  ``disk_build``
    is the one-time cost of building onto the sqlite file instead.
    ``open`` is the disk backend's restart path: attach to the existing
    file, wire the facades, and (``open_first_search``) answer the first
    query with page-cache-cold reads.
    """
    started = time.perf_counter()
    build_backend(fragments, InMemoryStore())
    rebuild_seconds = time.perf_counter() - started

    path = os.path.join(tempfile.mkdtemp(prefix="repro-bench-cold-"), "store.sqlite")
    started = time.perf_counter()
    index, graph = build_backend(fragments, DiskStore(path))
    disk_build_seconds = time.perf_counter() - started
    index.store.close()

    started = time.perf_counter()
    reopened = DiskStore(path, create=False)
    index = InvertedFragmentIndex(store=reopened)
    graph = FragmentGraph(QUERY, store=reopened)
    searcher = TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))
    open_seconds = time.perf_counter() - started
    started = time.perf_counter()
    searcher.search([hot_keyword], k=K, size_threshold=SIZE_THRESHOLDS[0])
    first_search_seconds = time.perf_counter() - started
    return {
        "rebuild_s": round(rebuild_seconds, 4),
        "disk_build_s": round(disk_build_seconds, 4),
        "open_s": round(open_seconds, 4),
        "open_first_search_s": round(first_search_seconds, 4),
        "open_speedup_vs_rebuild": round(
            rebuild_seconds / open_seconds if open_seconds else float("inf"), 2
        ),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _urls(results) -> List[str]:
    return [result[0] if isinstance(result, tuple) else result.url for result in results]


def run_comparison() -> Dict:
    backends = ["seed", "memory", "disk"]
    payload = {"k": K, "size_thresholds": list(SIZE_THRESHOLDS), "repeats": REPEATS,
               "fragment_counts": list(FRAGMENT_COUNTS), "measurements": [],
               "cold_start": [], "index_layout": []}
    rows = []
    for count in FRAGMENT_COUNTS:
        fragments = synthetic_fragments(count)
        searchers = {name: searcher_for(name, fragments) for name in backends}
        queries = query_workload(searchers["memory"].index)
        reference_urls = {}
        for name in backends:
            searcher = searchers[name]
            per_backend_ms = []
            pruned = {"seeds_scored": 0, "pruned_expansions": 0}
            parity_ok = True
            for temperature, keywords in queries.items():
                for size_threshold in SIZE_THRESHOLDS:
                    searcher.search(keywords, k=K, size_threshold=size_threshold)  # warm-up
                    samples = []
                    for _ in range(REPEATS):
                        started = time.perf_counter()
                        results = searcher.search(keywords, k=K, size_threshold=size_threshold)
                        samples.append(time.perf_counter() - started)
                    # best-of-N: robust against scheduler noise on shared boxes
                    elapsed_ms = min(samples) * 1000.0
                    per_backend_ms.append(elapsed_ms)
                    statistics = getattr(searcher, "last_statistics", None)
                    if statistics is not None:  # the seed replica has none
                        for field in pruned:
                            pruned[field] += getattr(statistics, field)
                    key = (temperature, size_threshold)
                    # every backend must rank exactly like the seed path
                    if name == "seed":
                        reference_urls[key] = _urls(results)
                    else:
                        matched = _urls(results) == reference_urls[key]
                        parity_ok = parity_ok and matched
                        assert matched, (name, count, key)
            average_ms = sum(per_backend_ms) / len(per_backend_ms)
            measurement = {
                "fragments": count,
                "backend": name,
                "avg_search_ms": round(average_ms, 4),
                # computed from the actual URL comparisons above (the seed
                # row is its own reference), so tools/check_bench_parity.py
                # keeps its guarantee even if the hard assert is ever removed
                "parity_ok": parity_ok,
            }
            if name != "seed":
                measurement.update(pruned)
            payload["measurements"].append(measurement)
        seed_ms = next(m["avg_search_ms"] for m in payload["measurements"]
                       if m["fragments"] == count and m["backend"] == "seed")
        for name in backends:
            entry = next(m for m in payload["measurements"]
                         if m["fragments"] == count and m["backend"] == name)
            average_ms = entry["avg_search_ms"]
            speedup = seed_ms / average_ms if average_ms else float("inf")
            entry["speedup_vs_seed"] = round(speedup, 2)
            rows.append((count, name, round(average_ms, 4), round(speedup, 2)))
        payload["index_layout"].append(
            {"fragments": count, **measure_index_layout(searchers["disk"].index.store)}
        )
        cold = measure_cold_start(fragments, queries["hot"][0])
        payload["cold_start"].append({"fragments": count, **cold})
        for searcher in searchers.values():
            # release the disk sqlite connections
            searcher.index.store.close()
    print_table(
        ["fragments", "backend", "avg search (ms)", "speedup vs seed"],
        rows,
        title="Store backends: average top-k search latency (identical ranked URLs verified)",
    )
    print_table(
        ["fragments", "v1 postings+idx (B)", "v2 blocks (B)", "compression", "fragment_terms (B)"],
        [
            (
                entry["fragments"],
                entry["v1_postings_bytes"],
                entry["v2_postings_bytes"],
                f"{entry['compression_ratio']:.2f}x",
                entry["v2_table_bytes"]["fragment_terms"],
            )
            for entry in payload["index_layout"]
        ],
        title="On-disk index layout: v1 row-per-posting vs v2 delta+varint blocks",
    )
    print_table(
        ["fragments", "rebuild (s)", "disk build (s)", "open (s)", "first search (s)",
         "open speedup"],
        [
            (
                entry["fragments"],
                entry["rebuild_s"],
                entry["disk_build_s"],
                entry["open_s"],
                entry["open_first_search_s"],
                entry["open_speedup_vs_rebuild"],
            )
            for entry in payload["cold_start"]
        ],
        title="Disk backend cold start: in-memory rebuild vs re-attach to the sqlite file",
    )
    path = write_json("BENCH_store_backends.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_store_backend_comparison(benchmark):
    payload = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    largest = max(FRAGMENT_COUNTS)
    speedups = {
        measurement["backend"]: measurement["speedup_vs_seed"]
        for measurement in payload["measurements"]
        if measurement["fragments"] == largest
    }
    # The refactored search path must beat the seed path clearly on the
    # largest synthetic fragment set (acceptance: >= 2x).
    assert max(speedups.values()) >= 2.0, speedups
    # The read-connection pool + batched reads must lift the disk backend
    # out of the serialized-sqlite regime (was ~1.2x before the overhaul;
    # ~2.2x typical now — the CI floor is deliberately conservative).
    assert speedups["disk"] >= 1.5, speedups
    # Every backend recorded its ranked-URL parity verdict.
    assert all(m["parity_ok"] for m in payload["measurements"])
    # The expansion bound must actually prune work on this workload.
    pruned_total = sum(m.get("pruned_expansions", 0) for m in payload["measurements"])
    assert pruned_total > 0, payload["measurements"]
    # The block BLOBs must clearly shrink the on-disk postings footprint vs
    # the v1 row-per-posting layout (5.35x @2k, 3.49x @12k) and decode back
    # to the canonical lists.  Floor 1.5x, not 2x: around 6k fragments most
    # lists are ~1.3 KB blobs, just past sqlite's ~1 KB local-payload limit,
    # so each spills onto a mostly-empty overflow page (measured 1.84x).
    for entry in payload["index_layout"]:
        assert entry["compression_ratio"] >= 1.5, entry
        assert entry["block_parity_ok"] is True, entry
    # Persistence must pay off on restart: re-attaching to the sqlite file
    # has to be far cheaper than rebuilding the store from fragments.
    for entry in payload["cold_start"]:
        assert entry["open_speedup_vs_rebuild"] > 1.0, entry


def test_compressed_layout_smoke():
    """Fast CI gate on the compressed layout alone (no timing loops):
    compression ratio and decoded-block parity on a small disk corpus."""
    fragments = synthetic_fragments(800)
    store = DiskStore(os.path.join(tempfile.mkdtemp(prefix="repro-layout-smoke-"), "s.sqlite"))
    try:
        build_backend(fragments, store)
        layout = measure_index_layout(store)
        assert layout["block_parity_ok"] is True, layout
        assert layout["compression_ratio"] >= 2.0, layout
        assert layout["v2_postings_bytes"] > 0, layout
    finally:
        store.close()


if __name__ == "__main__":
    run_comparison()
