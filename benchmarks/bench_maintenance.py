"""Write-path benchmark: batched mutation maintenance vs the per-fragment loop.

Measures what the write-path overhaul is for:

1. **Store mutation throughput** (the acceptance metric) — the exact
   per-fragment swap ops a Zipf-skewed insert/delete stream
   (:func:`repro.datasets.workloads.zipf_mutation_stream`) induces are
   recorded once, then applied to two identical stores two ways: the
   *per-fragment* loop (one ``replace_fragment`` — a one-op batch: on
   disk, one sqlite transaction — plus a ``finalize`` per update) and one
   :meth:`~repro.store.FragmentStore.apply_mutations` batch per
   ``REPRO_BENCH_MAINT_BATCH`` updates (on disk: one crash-safe
   transaction, repeated hot-fragment touches coalesced to one swap).
   After every applied batch the batched store's probe-query results are
   checked **byte-identical** against the per-fragment store at the same
   stream position (``parity_ok``).
2. **End-to-end maintenance throughput** — the same stream through the
   whole :class:`~repro.core.incremental.IncrementalMaintainer`, per-update
   (seed-era ``_refresh``) vs :meth:`apply_updates` chunks.  The affected-
   set join is common to both paths, so this ratio is smaller by
   construction; it is the deployment-visible number.
3. **Read latency while writing** — p50/p95 search latency on the disk
   backend while a background :class:`~repro.serving.MaintenanceService`
   applies the stream, next to the idle baseline: what the read/write gate
   actually costs readers.

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_maintenance.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_maintenance.py``);
emits ``BENCH_maintenance.json``.

Environment knobs: ``REPRO_BENCH_MAINT_FRAGMENTS`` (corpus size, default
1200), ``REPRO_BENCH_MAINT_UPDATES`` (stream length, default 320),
``REPRO_BENCH_MAINT_BATCH`` (updates per applied batch, default 64),
``REPRO_BENCH_MAINT_SKEW`` (Zipf skew, default 1.1).
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Tuple

from repro.bench.reporting import print_table, summarize_latencies, write_json
from repro.core.engine import DashEngine
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.incremental import IncrementalMaintainer
from repro.datasets.fooddb import (
    FOODDB_SEARCH_SQL,
    comment_schema,
    customer_schema,
    restaurant_schema,
)
from repro.datasets.workloads import zipf_keyword_queries, zipf_mutation_stream
from repro.db.database import Database
from repro.db.sqlparse import parse_psj_query
from repro.store import DiskStore, InMemoryStore, replace_op
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

FRAGMENTS = int(os.environ.get("REPRO_BENCH_MAINT_FRAGMENTS", "1200"))
UPDATES = int(os.environ.get("REPRO_BENCH_MAINT_UPDATES", "320"))
BATCH = int(os.environ.get("REPRO_BENCH_MAINT_BATCH", "64"))
SKEW = float(os.environ.get("REPRO_BENCH_MAINT_SKEW", "1.1"))
K = 10
SIZE_THRESHOLD = 200

SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"

_VOCABULARY = [f"dish{index:04d}" for index in range(900)]
_HOT_WORDS = ("burger", "noodle", "coffee", "curry")


def synthetic_database(fragment_target: int, seed: int = 7) -> Database:
    """A fooddb-shaped database whose query derives ~``fragment_target``
    fragments (distinct (cuisine, budget) pairs), with real comment text."""
    rng = random.Random(seed)
    budgets = list(range(5, 17))  # 12 budgets per cuisine chain
    cuisines = max(1, fragment_target // len(budgets))
    database = Database("maintdb")
    database.create_relation(restaurant_schema())
    database.create_relation(customer_schema())
    database.create_relation(comment_schema())
    customers = [(f"u{index:03d}", f"User{index:03d}") for index in range(60)]
    for row in customers:
        database.insert("customer", row)
    rid = 0
    cid = 0
    for cuisine_index in range(cuisines):
        cuisine = f"Cuisine{cuisine_index:04d}"
        for budget in budgets:
            rid += 1
            database.insert(
                "restaurant",
                (f"r{rid:06d}", f"Place {rid}", cuisine, budget, round(rng.uniform(2.0, 5.0), 1)),
            )
            for _ in range(rng.randint(1, 2)):
                cid += 1
                words = rng.sample(_VOCABULARY, rng.randint(4, 9))
                if rng.random() < 0.5:
                    words.append(rng.choice(_HOT_WORDS))
                database.insert(
                    "comment",
                    (
                        f"c{cid:06d}",
                        f"r{rid:06d}",
                        customers[rng.randrange(len(customers))][0],
                        " ".join(words),
                        "07/12",
                    ),
                )
    return database


class PerFragmentMaintainer(IncrementalMaintainer):
    """The seed-era write path, preserved as the measured baseline.

    Each refresh loops ``replace_fragment`` / ``remove_fragment`` one
    fragment at a time (one-op batches; on ``DiskStore``: one sqlite
    transaction per swap)
    and finalizes the index once per *update* — exactly what
    ``IncrementalMaintainer._refresh`` did before the batched overhaul.
    """

    def _refresh(self, identifiers) -> None:
        if not identifiers:
            return
        affected = set(identifiers)
        fragments = self._derive_restricted(affected)
        for identifier in affected:
            fragment = fragments.get(identifier)
            if fragment is None or fragment.size == 0 and fragment.record_count == 0:
                self.index.remove_fragment(identifier)
                if self.graph.has_fragment(identifier):
                    self.graph.remove_fragment(identifier)
                continue
            self.index.replace_fragment(identifier, fragment.term_frequencies)
            if self.graph.has_fragment(identifier):
                self.graph.update_keyword_count(identifier, fragment.size)
            else:
                self.graph.add_fragment(identifier, fragment.size)
        self.index.finalize()
        self.fragments_touched += len(affected)


def build_state(store, maintainer_cls, seed: int = 7):
    database = synthetic_database(FRAGMENTS, seed=seed)
    query = parse_psj_query(FOODDB_SEARCH_SQL, database, name="Search")
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments, store=store)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=index.store)
    maintainer = maintainer_cls(query, database, index, graph)
    return database, query, index, graph, maintainer


def probe_queries(index) -> List[List[str]]:
    frequencies = index.document_frequencies()
    ranked = sorted(frequencies, key=lambda keyword: (frequencies[keyword], keyword))
    return [
        [ranked[-1]],
        [ranked[len(ranked) // 2]],
        [ranked[-1], ranked[len(ranked) // 2], ranked[0]],
    ]


def ranked(searcher, query) -> Tuple:
    return tuple(
        (result.url, round(result.score, 9), result.fragments)
        for result in searcher.search(query, k=K, size_threshold=SIZE_THRESHOLD)
    )


def disk_store(tag: str) -> DiskStore:
    import tempfile

    return DiskStore(
        os.path.join(tempfile.mkdtemp(prefix=f"repro-bench-maint-{tag}-"), "store.sqlite")
    )


# ----------------------------------------------------------------------
# section 1: store-level mutation throughput (the acceptance metric)
# ----------------------------------------------------------------------
def record_fragment_ops(stream):
    """The exact per-fragment swap ops each update induces, recorded once.

    Replays the stream on a scratch in-memory state and captures, per
    update, the replace/remove ops the seed-era loop would issue — so both
    measured applications below push *identical* work through the store
    write path and the timing isolates per-fragment transactions vs one
    batch per chunk.
    """
    from repro.store import RemoveFragment

    _database, _query, index, _graph, recorder = build_state(
        InMemoryStore(), IncrementalMaintainer
    )
    per_update_ops = []
    for update in stream:
        affected = recorder.apply_updates([update])
        ops = []
        for identifier in affected:
            if index.store.has_fragment(identifier):
                ops.append(
                    replace_op(identifier, index.fragment_term_frequencies(identifier))
                )
            else:
                ops.append(RemoveFragment(identifier))
        per_update_ops.append(ops)
    return per_update_ops


def run_store_throughput() -> Dict:
    database = synthetic_database(FRAGMENTS)
    stream = list(
        zipf_mutation_stream(database, "comment", UPDATES, skew=SKEW, seed=19)
    )
    per_update_ops = record_fragment_ops(stream)
    total_ops = sum(len(ops) for ops in per_update_ops)

    from repro.core.search import TopKSearcher
    from repro.core.urls import UrlFormulator

    states = {}
    for tag in ("per-fragment", "batched"):
        _db, _q, index, graph, maintainer = build_state(
            disk_store(tag), IncrementalMaintainer
        )
        states[tag] = (
            index,
            TopKSearcher(index, graph, UrlFormulator(maintainer.query, SPEC, URI)),
        )
    legacy_index, legacy_searcher = states["per-fragment"]
    batched_index, batched_searcher = states["batched"]
    probes = probe_queries(legacy_index)

    legacy_seconds = 0.0
    batched_seconds = 0.0
    applied_ops = 0
    batches = 0
    parity_ok = True
    for start in range(0, len(per_update_ops), BATCH):
        chunk = per_update_ops[start : start + BATCH]
        # the per-fragment loop: one one-op batch (one disk transaction) per
        # fragment, one finalize per update
        begun = time.perf_counter()
        for ops in chunk:
            for op in ops:
                if hasattr(op, "term_frequencies"):
                    legacy_index.replace_fragment(
                        op.identifier, dict(op.term_frequencies)
                    )
                else:
                    legacy_index.remove_fragment(op.identifier)
            legacy_index.finalize()
        legacy_seconds += time.perf_counter() - begun
        # the batched path: every op of the chunk in one apply_mutations
        # round (repeated touches coalesce, one transaction on disk)
        flat = [op for ops in chunk for op in ops]
        begun = time.perf_counter()
        applied_ops += batched_index.apply_mutations(flat)
        batched_seconds += time.perf_counter() - begun
        batches += 1
        # parity at the shared stream position: byte-identical rankings
        for probe in probes:
            parity_ok = parity_ok and ranked(batched_searcher, probe) == ranked(
                legacy_searcher, probe
            )
    updates = len(per_update_ops)
    legacy_index.store.close()
    batched_index.store.close()
    return {
        "backend": "disk",
        "fragments": FRAGMENTS,
        "updates": updates,
        "swap_ops": total_ops,
        "batch_size": BATCH,
        "batches": batches,
        "per_fragment_seconds": round(legacy_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "per_fragment_updates_per_s": round(updates / legacy_seconds, 2),
        "batched_updates_per_s": round(updates / batched_seconds, 2),
        "speedup": round(legacy_seconds / batched_seconds, 2),
        "ops_applied_after_coalescing": applied_ops,
        "coalesced_op_ratio": round(total_ops / max(1, applied_ops), 2),
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# section 2: end-to-end maintenance throughput, per-update vs batched
# ----------------------------------------------------------------------
def run_throughput(backend: str) -> Dict:
    factory = InMemoryStore if backend == "memory" else lambda: disk_store(backend)

    # --- baseline: the per-fragment loop, one update per round
    database = synthetic_database(FRAGMENTS)
    stream = list(
        zipf_mutation_stream(database, "comment", UPDATES, skew=SKEW, seed=19)
    )
    _db, _q, index, _g, legacy = build_state(factory(), PerFragmentMaintainer)
    del _db, _q, _g
    started = time.perf_counter()
    for update in stream:
        legacy.apply_updates([update])
    legacy_seconds = time.perf_counter() - started
    legacy_touched = legacy.fragments_touched
    index.store.close()

    # --- measured path: apply_updates over BATCH-sized chunks
    _db, _q, index, _g, batched = build_state(factory(), IncrementalMaintainer)
    del _db, _q, _g
    searcher_store = index.store
    from repro.core.search import TopKSearcher
    from repro.core.urls import UrlFormulator

    searcher = TopKSearcher(
        index, batched.graph, UrlFormulator(batched.query, SPEC, URI)
    )
    # lock-step oracle: the same chunks through the per-fragment path in
    # memory — after every applied batch the measured store must rank
    # byte-identically (parity between batch boundaries is meaningless by
    # construction: the batch is the atomic unit)
    _odb, _oq, oracle_index, _og, oracle = build_state(InMemoryStore(), PerFragmentMaintainer)
    del _odb, _oq, _og
    oracle_searcher = TopKSearcher(
        oracle_index, oracle.graph, UrlFormulator(oracle.query, SPEC, URI)
    )
    probes = probe_queries(index)
    parity_ok = ranked(searcher, probes[0]) == ranked(oracle_searcher, probes[0])

    batched_seconds = 0.0
    batches = 0
    for start in range(0, len(stream), BATCH):
        chunk = stream[start : start + BATCH]
        begun = time.perf_counter()
        batched.apply_updates(chunk)
        batched_seconds += time.perf_counter() - begun
        batches += 1
        for update in chunk:  # untimed: bring the oracle to the same boundary
            oracle.apply_updates([update])
        for probe in probes:
            parity_ok = parity_ok and ranked(searcher, probe) == ranked(
                oracle_searcher, probe
            )
    batched_touched = batched.fragments_touched
    searcher_store.close()

    return {
        "backend": backend,
        "fragments": FRAGMENTS,
        "updates": len(stream),
        "batch_size": BATCH,
        "batches": batches,
        "per_fragment_seconds": round(legacy_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "per_fragment_updates_per_s": round(len(stream) / legacy_seconds, 2),
        "batched_updates_per_s": round(len(stream) / batched_seconds, 2),
        "speedup": round(legacy_seconds / batched_seconds, 2),
        "fragments_touched_per_fragment_path": legacy_touched,
        "fragments_touched_batched": batched_touched,
        "coalesced_touch_ratio": round(legacy_touched / max(1, batched_touched), 2),
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# section 2: read latency while the writer is applying
# ----------------------------------------------------------------------
def run_read_latency_while_writing() -> Dict:
    import tempfile

    path = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-maint-serve-"), "store.sqlite"
    )
    database = synthetic_database(FRAGMENTS)
    application = WebApplication(
        name="Search",
        uri=URI,
        query=parse_psj_query(FOODDB_SEARCH_SQL, database, name="Search"),
        query_string_spec=SPEC,
    )
    engine = DashEngine.build(
        application, database, analyze_source=False, store="disk", store_path=path
    )
    # cache off: every request exercises the full gated read path
    service = engine.serving(
        cache_size=0, workers=1, default_k=K, default_size_threshold=SIZE_THRESHOLD,
        maintenance=True, maintenance_batch=BATCH, maintenance_delay_seconds=0.002,
    )
    workload = zipf_keyword_queries(
        engine.index.document_frequencies(), count=60, skew=SKEW,
        keywords_per_query=(1, 2), seed=29,
    )
    queries = list(workload)

    def measure_pass() -> List[float]:
        latencies = []
        for keywords in queries:
            begun = time.perf_counter()
            service.search(keywords)
            latencies.append(time.perf_counter() - begun)
        return latencies

    measure_pass()  # warm the session/scorer caches
    idle = measure_pass()

    stream = list(
        zipf_mutation_stream(database, "comment", UPDATES, skew=SKEW, seed=31)
    )
    maintenance = service.maintenance
    feeder_done = threading.Event()

    def feed() -> None:
        for update in stream:
            maintenance.submit(update)
            time.sleep(0.0005)
        feeder_done.set()

    feeder = threading.Thread(target=feed)
    feeder.start()
    busy: List[float] = []
    while not (feeder_done.is_set() and maintenance.statistics()["pending"] == 0):
        busy.extend(measure_pass())
        if len(busy) > 20 * len(queries):
            break  # safety valve on very slow machines
    feeder.join()
    maintenance.flush(timeout=60)

    # parity: the served post-stream results must match a fresh engine
    parity_ok = True
    fresh = InvertedFragmentIndex.from_fragments(
        derive_fragments(engine.application.query, database)
    )
    from repro.core.fragment_graph import FragmentGraph as _Graph
    from repro.core.search import TopKSearcher
    from repro.core.urls import UrlFormulator

    fresh_graph = _Graph.build(
        engine.application.query, fresh.fragment_sizes, store=fresh.store
    )
    fresh_searcher = TopKSearcher(
        fresh, fresh_graph, UrlFormulator(engine.application.query, SPEC, URI)
    )
    for keywords in list(dict.fromkeys(queries))[:20]:
        served = service.search(keywords)
        reference = fresh_searcher.search(
            list(keywords), k=K, size_threshold=SIZE_THRESHOLD
        )
        parity_ok = parity_ok and [r.url for r in served.results] == [
            r.url for r in reference
        ]
    statistics = maintenance.statistics()
    service.close()
    engine.store.close()
    return {
        "fragments": FRAGMENTS,
        "queries_per_pass": len(queries),
        "idle": summarize_latencies(idle),
        "while_writing": summarize_latencies(busy),
        "batches_applied": statistics["batches_applied"],
        "updates_applied": statistics["updates_applied"],
        "mean_batch_size": round(statistics["mean_batch_size"], 2),
        "p95_slowdown_while_writing": round(
            summarize_latencies(busy)["p95_ms"] / summarize_latencies(idle)["p95_ms"], 2
        ),
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
def run_benchmark() -> Dict:
    store_throughput = run_store_throughput()
    end_to_end = [run_throughput("memory"), run_throughput("disk")]
    serving = run_read_latency_while_writing()
    payload = {
        "fragments": FRAGMENTS,
        "updates": UPDATES,
        "batch_size": BATCH,
        "zipf_skew": SKEW,
        "mutation_throughput": store_throughput,
        "end_to_end_maintenance": end_to_end,
        "read_latency_while_writing": serving,
    }
    print_table(
        ["backend", "swap ops", "per-fragment (u/s)", "batched (u/s)", "speedup",
         "op coalescing", "parity"],
        [
            (
                store_throughput["backend"],
                store_throughput["swap_ops"],
                store_throughput["per_fragment_updates_per_s"],
                store_throughput["batched_updates_per_s"],
                store_throughput["speedup"],
                store_throughput["coalesced_op_ratio"],
                "ok" if store_throughput["parity_ok"] else "MISMATCH",
            )
        ],
        title=(
            f"Store mutation throughput: apply_mutations batches vs the "
            f"per-fragment replace loop ({UPDATES} Zipf updates, batches of "
            f"{BATCH} updates, {FRAGMENTS} fragments)"
        ),
    )
    print_table(
        ["backend", "per-fragment (u/s)", "batched (u/s)", "speedup",
         "touch ratio", "parity"],
        [
            (
                row["backend"],
                row["per_fragment_updates_per_s"],
                row["batched_updates_per_s"],
                row["speedup"],
                row["coalesced_touch_ratio"],
                "ok" if row["parity_ok"] else "MISMATCH",
            )
            for row in end_to_end
        ],
        title=(
            "End-to-end maintenance (affected-set join included in both "
            "paths)"
        ),
    )
    print_table(
        ["pass", "p50 (ms)", "p95 (ms)", "throughput (q/s)"],
        [
            ("idle", round(serving["idle"]["p50_ms"], 3),
             round(serving["idle"]["p95_ms"], 3),
             round(serving["idle"]["throughput_qps"], 1)),
            ("while writing", round(serving["while_writing"]["p50_ms"], 3),
             round(serving["while_writing"]["p95_ms"], 3),
             round(serving["while_writing"]["throughput_qps"], 1)),
        ],
        title=(
            f"Disk-backed read latency while {serving['updates_applied']} updates "
            f"applied in {serving['batches_applied']} background batches "
            f"(parity {'ok' if serving['parity_ok'] else 'MISMATCH'})"
        ),
    )
    path = write_json("BENCH_maintenance.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_maintenance_benchmark(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    # every applied batch ranked byte-identically to the per-fragment oracle
    store_throughput = payload["mutation_throughput"]
    assert store_throughput["parity_ok"]
    assert all(row["parity_ok"] for row in payload["end_to_end_maintenance"])
    assert payload["read_latency_while_writing"]["parity_ok"]
    # acceptance: >= 3x batched mutation throughput on DiskStore at >= 1k
    # fragments (the floor only binds at full scale; tiny smoke corpora
    # amortize too little per transaction to gate on — there the floor is a
    # conservative 1.5x)
    if FRAGMENTS >= 1000:
        assert store_throughput["speedup"] >= 3.0, store_throughput
    else:
        assert store_throughput["speedup"] >= 1.5, store_throughput
    # the Zipf stream must actually coalesce repeated fragment touches
    assert store_throughput["coalesced_op_ratio"] > 1.0
    # end-to-end batching must never regress below the per-update loop
    # (generous floor: the affected-set join dominates both paths, and CI
    # machines are noisy)
    for row in payload["end_to_end_maintenance"]:
        assert row["speedup"] >= 0.9, row
    # background batches really ran while reads were measured
    assert payload["read_latency_while_writing"]["batches_applied"] >= 2


if __name__ == "__main__":
    run_benchmark()
