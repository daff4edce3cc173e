"""Extension benchmark: incremental fragment-index maintenance vs full rebuild.

Section VIII names efficient fragment-index maintenance under database updates
as future work ("it should be very costly to rebuild the entire fragment
index").  The repository implements the incremental maintainer
(:mod:`repro.core.incremental`); this benchmark quantifies the claim by
applying a batch of record insertions to a TPC-H slice and comparing the
incremental maintenance cost against rebuilding the fragment index and graph
from scratch after every update.
"""

import time

import pytest

from repro.bench.reporting import print_table
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.incremental import IncrementalMaintainer
from repro.datasets.tpch import TpchScale, build_tpch, tpch_queries

UPDATES = 20


def _build_state():
    tier = TpchScale("incremental", customers=40, orders_per_customer=6,
                     lineitems_per_order=3, parts=100, quantity_values=10)
    database = build_tpch(tier)
    query = tpch_queries(database)["Q2"]
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=index.store)
    return database, query, index, graph


def _new_lineitems(count):
    """New lineitem rows attached to existing orders (so they join into pages)."""
    lineitems = []
    for offset in range(count):
        order_key = offset + 1
        lineitems.append(
            ("lineitem", (order_key, 90 + offset, (offset % 100) + 1, (offset % 10) + 1,
                          1234.5 + offset, "N", "1997-06-14", "DELIVER IN PERSON", "TRUCK",
                          "special incremental deposits haggle"))
        )
    return lineitems


def test_incremental_maintenance_vs_full_rebuild(benchmark):
    database, query, index, graph, = _build_state()
    maintainer = IncrementalMaintainer(query, database, index, graph)
    updates = _new_lineitems(UPDATES)

    def apply_incrementally():
        for relation_name, record in updates:
            maintainer.insert(relation_name, record)
        return maintainer.fragments_touched

    touched = benchmark.pedantic(apply_incrementally, rounds=1, iterations=1)
    incremental_seconds = benchmark.stats.stats.mean if hasattr(benchmark.stats, "stats") else None

    # Full-rebuild comparison: apply the same updates to a fresh copy, timing a
    # complete re-derivation + re-index + re-graph after every update.
    rebuild_database, rebuild_query, _index, _graph = _build_state()
    started = time.perf_counter()
    for relation_name, record in updates:
        rebuild_database.insert(relation_name, record)
        fragments = derive_fragments(rebuild_query, rebuild_database)
        rebuilt = InvertedFragmentIndex.from_fragments(fragments)
        FragmentGraph.build(rebuild_query, fragment_sizes(fragments), store=rebuilt.store)
    rebuild_seconds = time.perf_counter() - started

    rows = [
        ("incremental maintenance", round(incremental_seconds or 0.0, 3), touched),
        ("full rebuild per update", round(rebuild_seconds, 3),
         len(derive_fragments(rebuild_query, rebuild_database)) * UPDATES),
    ]
    print_table(
        ["strategy", "seconds for %d updates" % UPDATES, "fragments touched"],
        rows,
        title="Incremental fragment-index maintenance vs full rebuild",
    )

    # The incremental path must touch far fewer fragments than rebuild-everything,
    # and (when timing data is available) be substantially faster.
    assert touched < len(derive_fragments(rebuild_query, rebuild_database)) * UPDATES / 5
    if incremental_seconds is not None:
        assert incremental_seconds < rebuild_seconds

    # Correctness: the maintained index equals a from-scratch rebuild.
    final_reference = InvertedFragmentIndex.from_fragments(derive_fragments(query, database))
    assert dict(index.iter_items()) == dict(final_reference.iter_items())
