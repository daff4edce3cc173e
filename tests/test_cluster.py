"""Cluster tests: routed scatter-gather must be byte-identical to one store.

The load-bearing property is exactness — the cluster is a *performance*
topology, never a semantic one.  Every suite here compares
``QueryRouter.search_detailed`` against a plain single-store
``TopKSearcher`` over the same corpus with ``as_comparable`` (URL, exact
float score, fragment tuple, size): no tolerance, no reranking slack.  The
hypothesis property drives random corpora, queries, mutation bursts and
rebalances through the comparison across 1/2/4 nodes on both the memory
and the disk backend.
"""

import itertools
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ClusterStore,
    GroupPartitioner,
    HashRing,
    SearchCluster,
    TermStatsCache,
)
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.store.memory import InMemoryStore
from repro.store.mutations import RemoveFragment, ReplaceFragment, TouchFragment
from repro.webapp.request import QueryStringSpec

QUERY = fooddb_search_query(build_fooddb())
SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"

VOCABULARY = [
    "burger", "fries", "coffee", "soup", "noodle", "spicy",
    "bland", "great", "awful", "crispy", "thai", "vegan",
]


def synthetic_corpus(count, seed=11, groups=None):
    """``count`` fragments in chained cuisine groups with a skewed vocabulary."""
    rng = random.Random(seed)
    groups = groups if groups is not None else max(1, count // 6)
    fragments = {}
    for index in range(count):
        identifier = (f"Cuisine{index % groups:03d}", 5 + index // groups)
        term_frequencies = {
            rng.choice(VOCABULARY): rng.randint(1, 4)
            for _ in range(rng.randint(2, 6))
        }
        term_frequencies.setdefault("burger", rng.randint(1, 2))
        fragments[identifier] = term_frequencies
    return fragments


def build_corpus(fragments):
    """One single-store corpus: (store, searcher) over ``fragments``."""
    store = InMemoryStore()
    index = InvertedFragmentIndex(store=store)
    for identifier, term_frequencies in fragments.items():
        index.add_fragment(identifier, term_frequencies)
    index.finalize()
    sizes = {identifier: index.fragment_size(identifier) for identifier in fragments}
    graph = FragmentGraph.build(QUERY, sizes, store=store)
    searcher = TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))
    return store, searcher


def as_comparable(results):
    """Byte-identical comparison key: URL, exact score, fragments, size."""
    return [(r.url, r.score, r.fragments, r.size) for r in results]


def assert_parity(searcher, cluster, queries, k=10, size_threshold=100):
    for keywords in queries:
        single = searcher.search_detailed(keywords, k=k, size_threshold=size_threshold)
        routed = cluster.router.search_detailed(keywords, k=k, size_threshold=size_threshold)
        assert as_comparable(single.results) == as_comparable(routed.results), keywords


QUERIES = (
    ["burger"],
    ["coffee"],
    ["thai", "spicy"],
    ["burger", "awful", "vegan"],
    ["missing-keyword"],
    ["burger", "missing-keyword"],
)


# ----------------------------------------------------------------------
# partitioning invariants
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_chains_never_cross_partitions(self):
        """Graph-adjacent fragments must share a partition (db-page locality)."""
        store, searcher = build_corpus(synthetic_corpus(60, seed=3))
        partitioner = GroupPartitioner(QUERY, 4)
        for identifier in store.fragment_ids():
            for neighbor in searcher.graph.neighbors(identifier):
                assert partitioner.partition_of(neighbor) == partitioner.partition_of(
                    identifier
                )

    def test_partitions_spread(self):
        partitioner = GroupPartitioner(QUERY, 4)
        fragments = synthetic_corpus(200, seed=9, groups=40)
        used = {partitioner.partition_of(identifier) for identifier in fragments}
        assert used == {0, 1, 2, 3}

    def test_partition_count_validated(self):
        with pytest.raises(ValueError):
            GroupPartitioner(QUERY, 0)

    def test_hash_ring_owners_distinct_and_clamped(self):
        ring = HashRing(("a", "b", "c"))
        owners = ring.nodes_for(("partition", 1), count=5)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_hash_ring_is_consistent(self):
        """Dropping one node only reassigns the keys that node owned."""
        before = HashRing(("a", "b", "c", "d"))
        after = HashRing(("a", "b", "c"))
        for key in range(64):
            primary = before.nodes_for(("partition", key))[0]
            if primary != "d":
                assert after.nodes_for(("partition", key))[0] == primary

    def test_hash_ring_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            HashRing(())
        with pytest.raises(ValueError):
            HashRing(("a", "a"))


# ----------------------------------------------------------------------
# the cluster store facade
# ----------------------------------------------------------------------
class TestClusterStore:
    def test_mutation_bursts_route_to_owning_partitions_only(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            victim = store.fragment_ids()[0]
            owner = cluster.store.partition_of(victim)
            before = cluster.store.partition_epochs()
            cluster.store.apply_mutations(
                [ReplaceFragment(victim, (("burger", 9), ("zzz", 1)))]
            )
            after = cluster.store.partition_epochs()
            assert after[owner] > before[owner]
            for partition, epoch in after.items():
                if partition != owner:
                    assert epoch == before[partition]
            assert cluster.store.term_frequency("zzz", victim) == 1
        finally:
            cluster.close()

    def test_populate_keeps_duplicate_postings(self):
        """Re-partitioning regroups the source's inverted lists, so duplicate
        (keyword, fragment) postings arrive as the separate postings they are."""
        store, _searcher = build_corpus(synthetic_corpus(12, seed=5))
        store.replace_fragment(store.fragment_ids()[0], [("burger", 2), ("burger", 3)])
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            assert list(cluster.store.iter_items()) == list(store.iter_items())
            assert cluster.store.fragment_sizes() == store.fragment_sizes()
        finally:
            cluster.close()

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_write_batch_commits_once_per_partition_and_ticks_once(self, backend, tmp_path):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, store, nodes=4, node_store=backend, store_dir=str(tmp_path)
        )
        try:
            facade = cluster.store
            identifiers = store.fragment_ids()
            epoch, partitions = facade.epoch, facade.partition_epochs()
            with facade.write_batch():
                facade.apply_mutations(
                    [ReplaceFragment(identifier, (("zzz", 2),)) for identifier in identifiers[:8]]
                )
                with facade.write_batch():
                    facade.apply_mutations([TouchFragment(identifier) for identifier in identifiers])
                # deferred: a stamp taken now must not cover uncommitted data
                assert facade.epoch == epoch
                if backend == "disk":
                    assert facade.partition_epochs() == partitions
            assert facade.epoch == epoch + 1
            assert facade.keyword_epoch("zzz") == facade.epoch
            assert all(facade.fragment_epoch(i) == facade.epoch for i in identifiers)
            if backend == "disk":  # one transaction, one tick per primary
                assert facade.partition_epochs() == {
                    partition: before + 1 for partition, before in partitions.items()
                }
            assert facade.fragment_frequency("zzz") == 8
            # a failed batch still ticks (in-memory primaries cannot roll back)
            with pytest.raises(RuntimeError):
                with facade.write_batch():
                    facade.apply_mutations([ReplaceFragment(identifiers[0], (("yyy", 3),))])
                    raise RuntimeError("boom")
            assert facade.epoch == epoch + 2
            assert facade.fragment_size(identifiers[0]) == (2 if backend == "disk" else 3)
        finally:
            cluster.close()

    def test_facade_epoch_matches_single_store(self):
        """populate + identical mutations keep facade/store epochs in lockstep."""
        fragments = synthetic_corpus(30, seed=7)
        store, _searcher = build_corpus(fragments)
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=3)
        try:
            assert cluster.store.epoch == store.epoch
            burst = [
                ReplaceFragment(
                    store.fragment_ids()[0], (("coffee", 2), ("fresh", 1))
                ),
                RemoveFragment(store.fragment_ids()[1]),
            ]
            store.apply_mutations(burst)
            cluster.store.apply_mutations(burst)
            assert cluster.store.epoch == store.epoch
            assert cluster.store.fragment_count() == store.fragment_count()
            assert cluster.store.document_frequencies() == store.document_frequencies()
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# routed search parity (deterministic matrix)
# ----------------------------------------------------------------------
class TestRoutedParity:
    @pytest.mark.parametrize(
        "nodes, partitions",
        [(1, None), (2, None), (4, None), (1, 4)],
        ids=["1", "2", "4", "1x4"],  # 1x4: in-process partitioning, one node
    )
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_routed_matches_single_store(self, nodes, partitions, backend, tmp_path):
        store, searcher = build_corpus(synthetic_corpus(90, seed=13))
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, store,
            nodes=nodes, partitions=partitions, replicas=2,
            node_store=backend, store_dir=str(tmp_path),
        )
        try:
            assert cluster.partition_count == (partitions or nodes)
            assert_parity(searcher, cluster, QUERIES)
            for k in (1, 3, 25):
                assert_parity(searcher, cluster, (["burger"],), k=k)
            assert_parity(searcher, cluster, (["burger", "spicy"],), size_threshold=8)
        finally:
            cluster.close()

    def test_parity_survives_mutations_and_sync(self):
        fragments = synthetic_corpus(60, seed=17)
        store, searcher = build_corpus(fragments)
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4, replicas=2)
        try:
            identifiers = store.fragment_ids()
            burst = [
                ReplaceFragment(identifiers[0], (("burger", 7),)),
                RemoveFragment(identifiers[1]),
                ReplaceFragment(("CuisineNEW", 5), (("noodle", 2), ("burger", 1))),
            ]
            store.apply_mutations(burst)
            cluster.store.apply_mutations(burst)
            assert_parity(searcher, cluster, QUERIES)
            assert cluster.sync_replicas() > 0
            assert cluster.sync_replicas() == 0  # now fresh: idempotent
            assert_parity(searcher, cluster, QUERIES)
        finally:
            cluster.close()

    def test_parity_survives_rebalance(self):
        store, searcher = build_corpus(synthetic_corpus(60, seed=19))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=3)
        try:
            for partition in range(cluster.partition_count):
                primary = cluster.assignment(partition).primary
                target = next(n for n in cluster.nodes if n != primary)
                assert cluster.rebalance(partition, target) is True
                assert cluster.assignment(partition).primary == target
            assert_parity(searcher, cluster, QUERIES)
        finally:
            cluster.close()

    def test_rebalance_no_op_and_unknown_target(self):
        store, _searcher = build_corpus(synthetic_corpus(20, seed=23))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            primary = cluster.assignment(0).primary
            assert cluster.rebalance(0, primary) is False
            with pytest.raises(ValueError):
                cluster.rebalance(0, "node-99")
        finally:
            cluster.close()

    def test_rebalance_leaves_other_partitions_serving(self):
        """Moving one partition must not swap — or stall — any other copy."""
        store, searcher = build_corpus(synthetic_corpus(80, seed=29))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            moving = 0
            others_before = {
                partition: cluster.nodes[
                    cluster.assignment(partition).primary
                ].hosted(partition)
                for partition in range(1, cluster.partition_count)
            }
            stop = threading.Event()
            failures = []

            def keep_searching():
                while not stop.is_set():
                    routed = cluster.router.search_detailed(["burger"], k=5)
                    if not routed.results:
                        failures.append("empty result during rebalance")
                        return

            reader = threading.Thread(target=keep_searching)
            reader.start()
            try:
                target = next(
                    n for n in cluster.nodes if n != cluster.assignment(moving).primary
                )
                assert cluster.rebalance(moving, target) is True
            finally:
                stop.set()
                reader.join()
            assert not failures
            for partition, hosted in others_before.items():
                current = cluster.nodes[
                    cluster.assignment(partition).primary
                ].hosted(partition)
                assert current is hosted  # untouched, zero downtime
            assert_parity(searcher, cluster, QUERIES)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# replica reads
# ----------------------------------------------------------------------
class TestReplicaReads:
    def test_round_robin_spreads_fresh_replica_reads(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=31))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=3, replicas=2)
        try:
            for partition in range(cluster.partition_count):
                served = {
                    cluster.select_serving(partition)[0] for _ in range(6)
                }
                assignment = cluster.assignment(partition)
                assert served == {assignment.primary, *assignment.replicas}
        finally:
            cluster.close()

    def test_stale_replicas_are_skipped_until_synced(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=37))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=3, replicas=2)
        try:
            victim = store.fragment_ids()[0]
            partition = cluster.store.partition_of(victim)
            cluster.store.apply_mutations([ReplaceFragment(victim, (("soup", 4),))])
            assignment = cluster.assignment(partition)
            served = {cluster.select_serving(partition)[0] for _ in range(6)}
            assert served == {assignment.primary}  # replicas stale, skipped
            assert cluster.sync_replicas(partition) == len(assignment.replicas)
            served = {cluster.select_serving(partition)[0] for _ in range(6)}
            assert served == {assignment.primary, *assignment.replicas}
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# fan-out statistics
# ----------------------------------------------------------------------
class TestFanOutStatistics:
    def test_router_reports_fanout_counters(self):
        store, _searcher = build_corpus(synthetic_corpus(120, seed=41))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            detailed = cluster.router.search_detailed(["burger"], k=1)
            statistics = detailed.statistics
            assert statistics.nodes_queried >= 1
            assert statistics.partials_merged == len(detailed.results) == 1
            # k=1 over a corpus where every partition matches: some partials
            # must have been materialized but never ranked.
            assert statistics.partials_discarded > 0
            lifetime = cluster.router.lifetime_statistics()
            assert lifetime["searches"] == 1
            assert lifetime["partials_discarded"] == statistics.partials_discarded
            assert lifetime["nodes_queried"] == statistics.nodes_queried
        finally:
            cluster.close()

    def test_single_store_searches_leave_fanout_counters_zero(self):
        _store, searcher = build_corpus(synthetic_corpus(20, seed=43))
        detailed = searcher.search_detailed(["burger"], k=3)
        assert detailed.statistics.nodes_queried == 0
        assert detailed.statistics.partials_merged == 0
        assert searcher.lifetime_statistics()["partials_discarded"] == 0


# ----------------------------------------------------------------------
# serving layer over the cluster
# ----------------------------------------------------------------------
class TestClusterServing:
    def test_engine_cluster_serves_cached_and_invalidates(self):
        from repro.core.engine import DashEngine
        from repro.webapp.application import WebApplication

        database = build_fooddb()
        application = WebApplication(
            name="Search",
            uri=URI,
            query=fooddb_search_query(database),
            query_string_spec=SPEC,
        )
        engine = DashEngine.build(
            application, database, algorithm="integrated", analyze_source=False
        )
        single = engine.serving(cache_size=32, workers=1, default_k=5)
        service = engine.cluster(nodes=2, replicas=2, cache_size=32, workers=2, default_k=5)
        try:
            for query in ("burger", "coffee thai"):
                expected = single.search(query)
                routed = service.search(query)
                assert as_comparable(expected.results) == as_comparable(routed.results)
            assert service.search("burger").cached is True
            fanout = service.statistics()["search"]
            assert fanout["nodes_queried"] > 0
            assert fanout["partials_merged"] > 0
            victim = service.cluster.store.fragment_ids()[0]
            service.cluster.store.apply_mutations([RemoveFragment(victim)])
            assert service.search("burger").cached is False
        finally:
            service.close()
            single.close()


# ----------------------------------------------------------------------
# the hypothesis property: routed ≡ single store, byte-identical
# ----------------------------------------------------------------------
corpus_fragments = st.dictionaries(
    st.tuples(
        st.sampled_from(["CuisineA", "CuisineB", "CuisineC", "CuisineD"]),
        st.integers(min_value=5, max_value=12),
    ),
    st.dictionaries(
        st.sampled_from(VOCABULARY),
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=24,
)
query_keywords = st.lists(
    st.sampled_from(VOCABULARY + ["absent"]), min_size=1, max_size=3
)

#: Unique per-example disk directories (tmp_path is shared across examples).
_example_ids = itertools.count()


@pytest.mark.parametrize("backend", ["memory", "disk"])
@given(
    fragments=corpus_fragments,
    keywords=query_keywords,
    k=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_routed_cluster_equals_single_store(backend, fragments, keywords, k, tmp_path, data):
    """The tentpole property: scatter-gather is byte-identical to one store,
    across 1/2/4 nodes and both backends, through mutation bursts routed to
    the owning partitions and through a rebalance."""
    store, searcher = build_corpus(fragments)
    for nodes in (1, 2, 4):
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, store,
            nodes=nodes, replicas=2, node_store=backend,
            store_dir=str(tmp_path / f"{backend}-{nodes}-{next(_example_ids)}"),
        )
        try:
            assert_parity(searcher, cluster, (keywords,), k=k)
            if nodes == 2:
                identifiers = store.fragment_ids()
                victim = data.draw(st.sampled_from(list(identifiers)), label="victim")
                burst = [
                    ReplaceFragment(victim, (("burger", 3), ("extra", 1))),
                    ReplaceFragment(("CuisineE", 6), (("coffee", 2),)),
                ]
                store.apply_mutations(burst)
                cluster.store.apply_mutations(burst)
                assert_parity(searcher, cluster, (keywords, ["burger"]), k=k)
                partition = data.draw(
                    st.integers(min_value=0, max_value=cluster.partition_count - 1),
                    label="partition",
                )
                primary = cluster.assignment(partition).primary
                target = next(n for n in cluster.nodes if n != primary)
                assert cluster.rebalance(partition, target) is True
                assert_parity(searcher, cluster, (keywords, ["burger"]), k=k)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# the epoch-validated term-statistics cache and bound-aware pruning
# ----------------------------------------------------------------------
class TestTermStatsCache:
    def test_warm_query_skips_df_round(self):
        """Second identical query hits the cache: half the fan-out submits,
        byte-identical answer."""
        store, searcher = build_corpus(synthetic_corpus(60, seed=3))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            router = cluster.router
            cold = router.search_detailed(["burger", "thai"], k=10)
            cold_submits = router.lifetime_statistics()["fanout_submits"]
            assert cold.statistics.df_cache_misses == 2
            assert cold.statistics.df_cache_hits == 0
            warm = router.search_detailed(["burger", "thai"], k=10)
            warm_submits = router.lifetime_statistics()["fanout_submits"] - cold_submits
            assert warm.statistics.df_cache_hits == 2
            assert warm.statistics.df_cache_misses == 0
            # the cold query paid round 1 (every partition) + round 2; the
            # warm one paid round 2 alone
            assert warm_submits <= cold_submits - router.partition_count
            assert as_comparable(cold.results) == as_comparable(warm.results)
            single = searcher.search_detailed(["burger", "thai"], k=10)
            assert as_comparable(single.results) == as_comparable(warm.results)
        finally:
            cluster.close()

    def test_negative_entries_cache_unseen_keywords(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            router = cluster.router
            cold = router.search_detailed(["nosuchterm"], k=5)
            assert cold.results == ()
            assert cold.statistics.df_cache_misses == 1
            warm = router.search_detailed(["nosuchterm"], k=5)
            assert warm.results == ()
            assert warm.statistics.df_cache_hits == 1
            # nothing anywhere: every partition pruned, no streams opened
            assert warm.statistics.partitions_pruned == router.partition_count
        finally:
            cluster.close()

    def test_mutation_invalidates_only_affected_keywords(self):
        fragments = {
            ("CuisineA", 5): {"burger": 2, "coffee": 1},
            ("CuisineA", 6): {"soup": 2},
            ("CuisineB", 5): {"thai": 3},
        }
        store, searcher = build_corpus(fragments)
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            router = cluster.router
            router.search_detailed(["coffee"], k=5)
            router.search_detailed(["thai"], k=5)
            assert "coffee" in router.term_stats and "thai" in router.term_stats
            burst = [ReplaceFragment(("CuisineA", 5), (("burger", 1),))]
            store.apply_mutations(burst)
            cluster.store.apply_mutations(burst)
            # write-through invalidation dropped the touched keywords only
            assert "coffee" not in router.term_stats
            assert "thai" in router.term_stats
            # the unaffected entry revalidates across the epoch move and hits
            warm = router.search_detailed(["thai"], k=5)
            assert warm.statistics.df_cache_hits == 1
            # the affected one re-scatters — and parity holds either way
            cold = router.search_detailed(["coffee"], k=5)
            assert cold.statistics.df_cache_misses == 1
            for keywords in (["coffee"], ["thai"], ["burger"]):
                single = searcher.search_detailed(keywords, k=5)
                routed = router.search_detailed(keywords, k=5)
                assert as_comparable(single.results) == as_comparable(routed.results)
        finally:
            cluster.close()

    def test_lru_eviction_bounds_occupancy(self):
        store, _searcher = build_corpus(synthetic_corpus(30, seed=9))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            cache = TermStatsCache(cluster.store, capacity=2)
            cache.record(
                [("a", 1, {}), ("b", 2, {0: 0.5}), ("c", 3, {1: 0.25})],
                cluster.store.epoch,
            )
            assert len(cache) == 2
            statistics = cache.statistics()
            assert statistics["evictions"] == 1
            assert "a" not in cache and "b" in cache and "c" in cache
        finally:
            cluster.close()

    def test_stale_entry_dropped_on_revalidation(self):
        """An unwired cache (no mutation listener) still never serves stale
        statistics: per-keyword epoch revalidation catches the move."""
        store, _searcher = build_corpus(synthetic_corpus(30, seed=9))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            cache = TermStatsCache(cluster.store, capacity=8)
            cache.record([("burger", 7, {0: 0.9})], cluster.store.epoch)
            victim = next(iter(store.fragment_ids()))
            burst = [ReplaceFragment(victim, (("burger", 5),))]
            store.apply_mutations(burst)
            cluster.store.apply_mutations(burst)
            assert cache.lookup(("burger",)) is None
            assert cache.statistics()["stale_drops"] == 1
        finally:
            cluster.close()

    def test_cluster_statistics_expose_cache_and_search_payloads(self):
        store, _searcher = build_corpus(synthetic_corpus(30, seed=9))
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2)
        try:
            cluster.router.search_detailed(["burger"], k=5)
            payload = cluster.statistics()
            assert payload["term_stats_cache"]["misses"] >= 1
            assert payload["search"]["searches"] == 1
            assert "discard_ratio" in payload["search"]
            assert "partitions_pruned" in payload["search"]
        finally:
            cluster.close()


class TestPartitionPruning:
    def test_rare_keyword_prunes_partitions(self):
        """A keyword confined to one cuisine chain lets the router skip every
        other partition outright — cold and warm, with byte parity."""
        fragments = synthetic_corpus(60, seed=3)
        rare_group = next(iter(fragments))[0]
        for identifier in fragments:
            if identifier[0] == rare_group:
                fragments[identifier]["saffron"] = 3
        store, searcher = build_corpus(fragments)
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            router = cluster.router
            for _pass in ("cold", "warm"):
                routed = router.search_detailed(["saffron"], k=10)
                single = searcher.search_detailed(["saffron"], k=10)
                assert as_comparable(routed.results) == as_comparable(single.results)
                assert routed.statistics.partitions_pruned >= 1
            assert routed.statistics.df_cache_hits == 1
        finally:
            cluster.close()

    def test_pruned_partition_counters_stay_consistent(self):
        """Pruning must not disturb the per-stream counter identities the
        merged statistics are built from."""
        fragments = synthetic_corpus(60, seed=3)
        rare_group = next(iter(fragments))[0]
        for identifier in fragments:
            if identifier[0] == rare_group:
                fragments[identifier]["saffron"] = 3
        store, _searcher = build_corpus(fragments)
        cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=4)
        try:
            detailed = cluster.router.search_detailed(["saffron"], k=10)
            statistics = detailed.statistics
            relevant = sum(1 for terms in fragments.values() if "saffron" in terms)
            # one group holds every seed; it is opened, so all of them are scored
            assert statistics.groups_pruned == 0
            assert statistics.seeds_scored == relevant
            assert statistics.seed_fragments == relevant
            assert statistics.complete
        finally:
            cluster.close()


@given(
    fragments=corpus_fragments,
    keywords=query_keywords,
    k=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_warm_stats_cache_parity_across_mutation_bursts(fragments, keywords, k, data):
    """The cache's correctness oracle: with the term-stats cache warm, routed
    results stay byte-identical to the single store through mutation bursts —
    the cache must never serve stale DFs or stale bounds."""
    store, searcher = build_corpus(fragments)
    cluster = SearchCluster.build(QUERY, SPEC, URI, store, nodes=2, replicas=1)
    try:
        queries = (keywords, ["burger"], ["burger", "absent"])
        assert_parity(searcher, cluster, queries, k=k)  # cold: fills the cache
        assert_parity(searcher, cluster, queries, k=k)  # warm: served from it
        warm = cluster.router.search_detailed(keywords, k=k)
        assert warm.statistics.df_cache_misses == 0
        assert warm.statistics.df_cache_hits > 0
        victim = data.draw(
            st.sampled_from(sorted(store.fragment_ids())), label="victim"
        )
        burst = [
            ReplaceFragment(victim, (("burger", 3), ("extra", 1))),
            ReplaceFragment(("CuisineE", 6), (("coffee", 2),)),
        ]
        store.apply_mutations(burst)
        cluster.store.apply_mutations(burst)
        assert_parity(searcher, cluster, queries + (["coffee"], ["extra"]), k=k)
        # warm again after the burst — still byte-identical
        assert_parity(searcher, cluster, queries + (["coffee"], ["extra"]), k=k)
    finally:
        cluster.close()
