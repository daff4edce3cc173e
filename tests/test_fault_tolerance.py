"""Fault-tolerance tests: chaos in, byte-parity (or typed degradation) out.

The contract under test: with a seeded :class:`~repro.faults.FaultPlane`
injecting *recoverable* faults (fewer node deaths than the replication
factor), routed results stay byte-identical to a single store and no query
raises; with unrecoverable faults the router either raises a typed
:class:`~repro.serving.PartialResultError` or — under ``degraded_ok`` —
returns flagged partial results that name the lost partitions and are
never cached.
"""

import sqlite3
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import GroupPartitioner, SearchCluster
from repro.cluster.health import CLOSED, HALF_OPEN, OPEN, NodeHealth
from repro.faults import (
    FaultInjectedStore,
    FaultPlane,
    FaultRule,
    NodeDown,
    NodeFault,
)
from repro.mapreduce.errors import TaskFailure
from repro.mapreduce.runtime import RetryPolicy, TaskRunner
from repro.serving import (
    CachedResult,
    PartialResultError,
    PartitionUnavailableError,
    ResultCache,
)
from repro.store.memory import InMemoryStore
from repro.store.mutations import ReplaceFragment

from test_cluster import (
    QUERIES,
    QUERY,
    SPEC,
    URI,
    as_comparable,
    build_corpus,
    synthetic_corpus,
)


def build_chaos_cluster(store, nodes=4, replicas=2, seed=0, **kwargs):
    """A cluster wired to a fresh seeded plane (breaker never self-heals
    mid-test unless a test opts in)."""
    plane = FaultPlane(seed=seed)
    kwargs.setdefault("breaker_reset_seconds", 300.0)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, store, nodes=nodes, replicas=replicas,
        fault_plane=plane, **kwargs
    )
    return cluster, plane


def primary_of(cluster, partition):
    return cluster.assignment(partition).primary


# ----------------------------------------------------------------------
# the fault plane itself
# ----------------------------------------------------------------------
class TestFaultPlane:
    def test_wrapped_read_surface_raises(self):
        plane = FaultPlane()
        plane.add_rule(FaultRule(kind="error", node="n0", operation="postings"))
        store = plane.wrap_store("n0", InMemoryStore())
        assert isinstance(store, FaultInjectedStore)
        with pytest.raises(NodeFault):
            store.postings("burger")
        # Other operations and other nodes are untouched.
        assert store.document_frequencies() == {}
        other = plane.wrap_store("n1", InMemoryStore())
        assert list(other.postings("burger")) == []

    def test_writes_and_lifecycle_delegate_unwrapped(self):
        plane = FaultPlane()
        plane.kill_node("n0")
        store = plane.wrap_store("n0", InMemoryStore())
        # Death fences *reads*; writes and metadata still delegate so a
        # fenced node can be re-synced after revival.
        store.bulk_load([(("CuisineA", 5), {"burger": 2})])
        assert store.epoch == store.inner_store.epoch
        with pytest.raises(NodeDown):
            store.postings("burger")
        plane.revive_node("n0")
        assert [posting.document_id for posting in store.postings("burger")] == [("CuisineA", 5)]

    def test_nth_rule_is_deterministic_per_copy(self):
        def run():
            plane = FaultPlane(seed=9)
            plane.add_rule(FaultRule(kind="error", operation="postings", nth=2))
            store = plane.wrap_store("n0", InMemoryStore())
            outcomes = []
            for _ in range(4):
                try:
                    store.postings("burger")
                    outcomes.append("ok")
                except NodeFault:
                    outcomes.append("fault")
            return outcomes

        assert run() == ["ok", "fault", "ok", "ok"]
        assert run() == run()

    def test_every_and_times_rules(self):
        plane = FaultPlane()
        plane.add_rule(FaultRule(kind="error", operation="postings", every=2, times=2))
        store = plane.wrap_store("n0", InMemoryStore())
        outcomes = []
        for _ in range(8):
            try:
                store.postings("burger")
                outcomes.append("ok")
            except NodeFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault", "ok", "ok", "ok", "ok"]

    def test_kill_rule_marks_node_dead(self):
        plane = FaultPlane()
        plane.add_rule(FaultRule(kind="kill", node="n0", operation="postings", nth=3))
        store = plane.wrap_store("n0", InMemoryStore())
        store.postings("burger")
        store.postings("burger")
        with pytest.raises(NodeDown):
            store.postings("burger")
        assert plane.is_dead("n0")
        # Every subsequent read fails, whatever the operation.
        with pytest.raises(NodeDown):
            store.fragment_sizes_for([("CuisineA", 5)])

    def test_latency_rule_sleeps(self):
        plane = FaultPlane()
        plane.add_rule(
            FaultRule(kind="latency", operation="postings", latency_seconds=0.05)
        )
        store = plane.wrap_store("n0", InMemoryStore())
        started = time.perf_counter()
        store.postings("burger")
        assert time.perf_counter() - started >= 0.05

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="explode")
        with pytest.raises(ValueError):
            FaultRule(kind="error", nth=1, every=2)
        with pytest.raises(ValueError):
            FaultRule(kind="latency")
        with pytest.raises(ValueError):
            FaultRule(kind="error", probability=1.5)

    def test_statistics_counts_injections(self):
        plane = FaultPlane(seed=4)
        plane.add_rule(FaultRule(kind="error", operation="postings", nth=1))
        store = plane.wrap_store("n0", InMemoryStore())
        with pytest.raises(NodeFault):
            store.postings("burger")
        store.postings("burger")
        stats = plane.statistics()
        assert stats["injected"]["error"] == 1
        assert stats["operations"] == 2
        assert stats["rules"][0]["fired"] == 1

    def test_shared_injector_contract_with_build_runner(self):
        """One plane faults build tasks through the PR 8 retry machinery."""
        plane = FaultPlane(seed=7)
        plane.add_rule(FaultRule(kind="error", operation="map", nth=1))
        runner = TaskRunner(RetryPolicy(max_attempts=3, failure_injector=plane.failure_injector()))

        def task(attempt):
            return f"done on attempt {attempt}"

        # Injected faults are TaskFailures, so the runner retries them.
        assert issubclass(NodeFault, TaskFailure)
        assert runner.run("map", 0, task) == "done on attempt 2"
        assert plane.statistics()["injected"]["error"] == 1


# ----------------------------------------------------------------------
# the circuit breaker
# ----------------------------------------------------------------------
class TestNodeHealth:
    def test_opens_after_threshold_consecutive_failures(self):
        health = NodeHealth("n0", failure_threshold=3, reset_seconds=300.0)
        assert health.state == CLOSED and health.available()
        health.record_failure()
        health.record_failure()
        health.record_success()  # success resets the consecutive counter
        health.record_failure()
        health.record_failure()
        assert health.state == CLOSED
        assert health.record_failure() == OPEN
        assert not health.available()

    def test_half_open_probe_and_recovery(self):
        clock = [0.0]
        health = NodeHealth("n0", failure_threshold=1, reset_seconds=5.0, clock=lambda: clock[0])
        health.record_failure()
        assert health.state == OPEN and not health.available()
        clock[0] = 5.1
        assert health.state == HALF_OPEN and health.available()
        health.record_success()
        assert health.state == CLOSED

    def test_half_open_failure_reopens_with_fresh_timer(self):
        clock = [0.0]
        health = NodeHealth("n0", failure_threshold=1, reset_seconds=5.0, clock=lambda: clock[0])
        health.record_failure()
        clock[0] = 5.1
        assert health.state == HALF_OPEN
        assert health.record_failure() == OPEN
        clock[0] = 9.0  # 3.9s after the re-trip: still open
        assert not health.available()
        clock[0] = 10.3
        assert health.available()
        assert health.as_dict()["opens_total"] == 2


# ----------------------------------------------------------------------
# topology: candidate selection, select_serving, promotion
# ----------------------------------------------------------------------
class TestTopologyFaults:
    def test_select_serving_raises_when_primary_dead_no_replica(self):
        """The satellite fix: no silent fallback to a dead primary."""
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster, _plane = build_chaos_cluster(store, nodes=4, replicas=1)
        try:
            victim = primary_of(cluster, 0)
            for _ in range(3):
                cluster.note_failure(victim)
            with pytest.raises(PartitionUnavailableError) as excinfo:
                cluster.select_serving(0)
            assert excinfo.value.partition == 0
            assert victim in excinfo.value.tried
        finally:
            cluster.close()

    def test_serving_candidates_skip_open_circuit_nodes(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster, _plane = build_chaos_cluster(store, nodes=2, replicas=2)
        try:
            victim = primary_of(cluster, 0)
            full = {node for node, _h in cluster.serving_candidates(0, rotate=False)}
            assert victim in full and len(full) == 2
            for _ in range(3):
                cluster.note_failure(victim)
            remaining = {node for node, _h in cluster.serving_candidates(0, rotate=False)}
            assert remaining == full - {victim}
            node_id, _hosted = cluster.select_serving(0)
            assert node_id != victim
        finally:
            cluster.close()

    def test_dead_primary_promotes_fresh_replica(self):
        store, _searcher = build_corpus(synthetic_corpus(40, seed=5))
        cluster, _plane = build_chaos_cluster(store, nodes=2, replicas=2)
        try:
            victim = primary_of(cluster, 0)
            for _ in range(3):
                cluster.note_failure(victim)
            promoted = cluster.ensure_live_primary(0)
            assert promoted is not None and promoted != victim
            assignment = cluster.assignment(0)
            assert assignment.primary == promoted
            # The dead node demotes to replica so it can re-sync on revival.
            assert victim in assignment.replicas
            # Idempotent while the new primary is healthy.
            assert cluster.ensure_live_primary(0) is None
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# query-time failover
# ----------------------------------------------------------------------
class TestQueryFailover:
    def test_node_kill_with_replicas_keeps_byte_parity(self):
        """The headline acceptance: one dead node, replicas=2, zero drift."""
        fragments = synthetic_corpus(80, seed=7)
        store, searcher = build_corpus(fragments)
        for nodes in (2, 4):
            cluster, plane = build_chaos_cluster(store, nodes=nodes, replicas=2)
            try:
                plane.kill_node(primary_of(cluster, 0))
                for keywords in QUERIES:
                    single = searcher.search_detailed(keywords, k=10, size_threshold=100)
                    routed = cluster.router.search_detailed(keywords, k=10, size_threshold=100)
                    assert as_comparable(single.results) == as_comparable(routed.results)
                assert cluster.router.lifetime_statistics()["failovers"] > 0
            finally:
                cluster.close()

    def test_transient_error_bursts_keep_byte_parity(self):
        """nth-call error rules on stream reads exercise mid-merge failover."""
        fragments = synthetic_corpus(80, seed=7)
        store, searcher = build_corpus(fragments)
        cluster, plane = build_chaos_cluster(store, nodes=4, replicas=2, seed=3)
        try:
            victim = primary_of(cluster, 0)
            for operation in ("postings_for_many", "posting_blocks_for_many", "neighbors"):
                plane.add_rule(
                    FaultRule(kind="error", node=victim, operation=operation, nth=2)
                )
            for keywords in QUERIES:
                single = searcher.search_detailed(keywords, k=10, size_threshold=100)
                routed = cluster.router.search_detailed(keywords, k=10, size_threshold=100)
                assert as_comparable(single.results) == as_comparable(routed.results)
        finally:
            cluster.close()

    def test_unrecoverable_loss_raises_typed_error(self):
        store, _searcher = build_corpus(synthetic_corpus(60, seed=7))
        cluster, plane = build_chaos_cluster(store, nodes=4, replicas=1)
        try:
            lost_partition = 0
            plane.kill_node(primary_of(cluster, lost_partition))
            with pytest.raises(PartialResultError) as excinfo:
                cluster.router.search_detailed(["burger"], k=10, size_threshold=100)
            assert lost_partition in excinfo.value.missing_partitions
        finally:
            cluster.close()

    def test_degraded_ok_flags_partial_results(self):
        fragments = synthetic_corpus(60, seed=7)
        store, searcher = build_corpus(fragments)
        cluster, plane = build_chaos_cluster(
            store, nodes=4, replicas=1, degraded_ok=True
        )
        try:
            lost_partition = 0
            plane.kill_node(primary_of(cluster, lost_partition))
            detailed = cluster.router.search_detailed(["burger"], k=10, size_threshold=100)
            assert not detailed.statistics.complete
            assert detailed.statistics.missing_partitions == (lost_partition,)
            # The surviving partitions' results are a subset of the full
            # answer *by URL* — scores legitimately differ because the
            # degraded IDF sums DF over surviving partitions only.
            single = searcher.search_detailed(["burger"], k=100, size_threshold=100)
            full_urls = {result.url for result in single.results}
            assert {result.url for result in detailed.results} <= full_urls
        finally:
            cluster.close()

    def test_deadline_bounds_latency_spike(self):
        """A spiking copy is preempted and its replica answers instead."""
        fragments = synthetic_corpus(60, seed=7)
        store, searcher = build_corpus(fragments)
        cluster, plane = build_chaos_cluster(
            store, nodes=2, replicas=2, deadline_seconds=0.4
        )
        try:
            victim = primary_of(cluster, 0)
            # The spike is short enough that cluster.close() (which waits
            # for pool threads) stays fast, but far above the deadline.
            plane.add_rule(
                FaultRule(
                    kind="latency",
                    node=victim,
                    operation="posting_blocks_for_many",
                    latency_seconds=3.0,
                )
            )
            started = time.perf_counter()
            routed = cluster.router.search_detailed(["burger"], k=10, size_threshold=100)
            elapsed = time.perf_counter() - started
            assert elapsed < 2.5  # preempted well before the 3s spike ended
            single = searcher.search_detailed(["burger"], k=10, size_threshold=100)
            assert as_comparable(single.results) == as_comparable(routed.results)
        finally:
            cluster.close()

    def test_zero_faults_with_plane_keeps_parity_and_statistics(self):
        fragments = synthetic_corpus(80, seed=7)
        store, searcher = build_corpus(fragments)
        cluster, _plane = build_chaos_cluster(store, nodes=4, replicas=2)
        try:
            for keywords in QUERIES:
                single = searcher.search_detailed(keywords, k=10, size_threshold=100)
                routed = cluster.router.search_detailed(keywords, k=10, size_threshold=100)
                assert as_comparable(single.results) == as_comparable(routed.results)
                assert routed.statistics.complete
                assert routed.statistics.missing_partitions == ()
            assert cluster.router.lifetime_statistics()["failovers"] == 0
            health = cluster.statistics()["health"]
            assert all(row["state"] == "closed" for row in health.values())
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# the serving layer over a degraded cluster
# ----------------------------------------------------------------------
class TestDegradedServing:
    def test_partial_results_are_flagged_and_never_cached(self):
        store, _searcher = build_corpus(synthetic_corpus(60, seed=7))
        cluster, plane = build_chaos_cluster(
            store, nodes=4, replicas=1, degraded_ok=True
        )
        service = cluster.service(cache_size=64)
        try:
            lost_partition = 0
            plane.kill_node(primary_of(cluster, lost_partition))
            served = service.search("burger")
            assert not served.complete
            assert served.missing_partitions == (lost_partition,)
            assert not served.cached
            # The partial answer must not be served from cache afterwards.
            again = service.search("burger")
            assert not again.cached
            stats = service.statistics()
            assert stats["cache"]["hits"] == 0
        finally:
            service.close()

    def test_result_cache_refuses_partial_entries(self):
        cache = ResultCache(capacity=8)
        store = InMemoryStore()
        partial = CachedResult(
            results=(), keywords=("burger",), dependencies=frozenset(),
            epoch=store.epoch, complete=False, missing_partitions=(1,),
        )
        cache.put("key", partial)
        assert cache.get("key", store) is None
        complete = CachedResult(
            results=(), keywords=("burger",), dependencies=frozenset(), epoch=store.epoch
        )
        cache.put("key", complete)
        assert cache.get("key", store) is complete

    def test_gateway_marks_incomplete_pages(self):
        store, _searcher = build_corpus(synthetic_corpus(60, seed=7))
        cluster, plane = build_chaos_cluster(
            store, nodes=4, replicas=1, degraded_ok=True
        )
        service = cluster.service(cache_size=0)
        try:
            from repro.serving.gateway import SearchGateway

            gateway = SearchGateway(service)
            lost_partition = 0
            plane.kill_node(primary_of(cluster, lost_partition))
            page = gateway.generate_page(None, "q=burger&k=5")
            assert f"INCOMPLETE missing partitions {lost_partition}" in page.text
            assert "INCOMPLETE" in page.html
        finally:
            service.close()


# ----------------------------------------------------------------------
# the disk-store lock-retry satellite
# ----------------------------------------------------------------------
class TestDiskReadRetry:
    def test_reader_connect_retries_transient_lock(self, tmp_path, monkeypatch):
        from repro.store import disk as disk_module
        from repro.store.disk import DiskStore

        store = DiskStore(str(tmp_path / "corpus.sqlite"))
        store.bulk_load([(("CuisineA", 5), {"burger": 2})])
        attempts = []
        real_connect = sqlite3.connect

        def flaky_connect(*args, **kwargs):
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(disk_module.sqlite3, "connect", flaky_connect)
        done = []

        def read():
            done.append(store.document_frequencies())

        # A fresh thread has no pooled reader, so it must connect (and
        # survive the two injected lock errors).
        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=10.0)
        assert done == [{"burger": 1}]
        assert len(attempts) == 3
        store.close()

    def test_reader_connect_gives_up_on_other_errors(self, tmp_path, monkeypatch):
        from repro.store import disk as disk_module
        from repro.store.disk import DiskStore

        store = DiskStore(str(tmp_path / "corpus.sqlite"))
        store.bulk_load([(("CuisineA", 5), {"burger": 2})])
        monkeypatch.setattr(
            disk_module.sqlite3,
            "connect",
            lambda *a, **k: (_ for _ in ()).throw(sqlite3.OperationalError("no such table")),
        )
        failures = []

        def read():
            try:
                store.document_frequencies()
            except sqlite3.OperationalError as error:
                failures.append(str(error))

        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=10.0)
        assert failures == ["no such table"]
        monkeypatch.undo()
        store.close()


# ----------------------------------------------------------------------
# the chaos-parity property
# ----------------------------------------------------------------------
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=20, max_value=70),
    nodes=st.sampled_from([2, 4]),
    kill_choice=st.integers(min_value=0, max_value=3),
    keywords=st.lists(
        st.sampled_from(["burger", "coffee", "thai", "spicy", "vegan", "missing"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    k=st.integers(min_value=1, max_value=15),
)
def test_property_recoverable_chaos_is_invisible(seed, count, nodes, kill_choice, keywords, k):
    """Fewer deaths than the replication factor -> byte-identical results."""
    fragments = synthetic_corpus(count, seed=seed)
    store, searcher = build_corpus(fragments)
    cluster, plane = build_chaos_cluster(store, nodes=nodes, replicas=2, seed=seed)
    try:
        # Kill one node: replicas=2 tolerates exactly one death per
        # partition, so this is the largest strictly-recoverable fault.
        victim = f"node-{kill_choice % nodes}"
        plane.kill_node(victim)
        single = searcher.search_detailed(keywords, k=k, size_threshold=100)
        routed = cluster.router.search_detailed(keywords, k=k, size_threshold=100)
        assert as_comparable(single.results) == as_comparable(routed.results)
        assert routed.statistics.complete
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# cached-DF survival: warm term statistics beat a dead partition
# ----------------------------------------------------------------------
class TestCachedDfSurvival:
    def test_warm_query_survives_dead_unconsulted_partition(self):
        """At replicas=1, a query whose keywords are absent from the dead
        node's partitions answers complete: the warm term-stats cache skips
        the DF scatter and the zero bounds prune the dead partitions before
        any stream opens — the always-scatter router failed 100% of these."""
        fragments = synthetic_corpus(60, seed=7)
        store, searcher = build_corpus(fragments)
        cluster, plane = build_chaos_cluster(store, nodes=4, replicas=1)
        try:
            router = cluster.router
            victim = primary_of(cluster, 0)
            victim_partitions = {
                partition
                for partition in range(cluster.partition_count)
                if primary_of(cluster, partition) == victim
            }
            partitioner = GroupPartitioner(QUERY, cluster.partition_count)
            safe = next(
                identifier
                for identifier in sorted(fragments)
                if partitioner.partition_of(identifier) not in victim_partitions
            )
            # Plant a keyword that lives only in a partition the victim does
            # not host — routed through both stores so parity holds.
            burst = [
                ReplaceFragment(
                    safe, tuple(fragments[safe].items()) + (("survivor", 3),)
                )
            ]
            store.apply_mutations(burst)
            cluster.store.apply_mutations(burst)
            single = searcher.search_detailed(["survivor"], k=10, size_threshold=100)
            warm = router.search_detailed(["survivor"], k=10, size_threshold=100)
            assert as_comparable(warm.results) == as_comparable(single.results)
            plane.kill_node(victim)
            survived = router.search_detailed(["survivor"], k=10, size_threshold=100)
            assert survived.statistics.complete
            assert survived.statistics.df_cache_hits == 1
            assert survived.statistics.partitions_pruned >= 1
            assert as_comparable(survived.results) == as_comparable(single.results)
            # Control: a query that does consult the dead partition still
            # raises the typed partial-result error (every fragment holds
            # "burger", so partition 0 is always a contender).
            with pytest.raises(PartialResultError):
                router.search_detailed(["burger"], k=10, size_threshold=100)
        finally:
            cluster.close()

    def test_cold_query_on_dead_partition_still_degrades(self):
        """Without a warm cache the DF scatter touches the dead partition:
        the torn read must degrade (or raise), never poison the cache."""
        fragments = synthetic_corpus(60, seed=7)
        store, _searcher = build_corpus(fragments)
        cluster, plane = build_chaos_cluster(
            store, nodes=4, replicas=1, degraded_ok=True
        )
        try:
            router = cluster.router
            plane.kill_node(primary_of(cluster, 0))
            degraded = router.search_detailed(["burger"], k=10, size_threshold=100)
            assert not degraded.statistics.complete
            # the torn DF read was not recorded: the next query re-scatters
            again = router.search_detailed(["burger"], k=10, size_threshold=100)
            assert again.statistics.df_cache_misses == 1
            assert "burger" not in router.term_stats
        finally:
            cluster.close()
