"""Tests for the serving layer: admission, caching, concurrency, staleness.

The staleness suite is the serving contract in miniature: after an
IncrementalMaintainer applies inserts/deletes, a previously-cached query must
return the fresh result set on every backend (memory and disk), while cached
queries the update did not touch keep hitting.
"""

import threading
import time

import pytest

from repro.core.engine import DashEngine
from repro.core.incremental import IncrementalMaintainer
from repro.core.search import TopKSearcher
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.serving import (
    InvalidParameterError,
    InvalidQueryError,
    ResultCache,
    SearchGateway,
    SearchService,
    ServiceClosedError,
    ServiceConfigurationError,
)
from repro.serving.cache import CachedResult
from repro.store import InMemoryStore
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec
from repro.webapp.server import WebServer

#: Store specs the parity/staleness suites sweep.
STORE_SPECS = ("memory", "disk")


def build_bundle(store_spec="memory"):
    """A fresh (database, engine) pair over fooddb (mutable per test)."""
    database = build_fooddb()
    application = WebApplication(
        name="Search",
        uri="www.example.com/Search",
        query=fooddb_search_query(database),
        query_string_spec=QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max"))),
    )
    engine = DashEngine.build(
        application, database, algorithm="integrated", analyze_source=False, store=store_spec
    )
    return database, engine


def as_comparable(results):
    """Byte-identical comparison key: URL, exact score, fragments, size."""
    return [(r.url, r.score, r.fragments, r.size) for r in results]


@pytest.fixture
def service_bundle():
    database, engine = build_bundle()
    service = engine.serving(cache_size=32, workers=2, default_k=5, default_size_threshold=20)
    yield database, engine, service
    service.close()


class TestAdmission:
    def test_string_input_is_tokenized_and_lowercased(self, service_bundle):
        _database, _engine, service = service_bundle
        admitted = service.admit("Bond's  Cafe COFFEE")
        assert admitted.keywords == ("bond's", "cafe", "coffee")

    def test_iterable_input_deduplicates_preserving_order(self, service_bundle):
        _database, _engine, service = service_bundle
        admitted = service.admit(["Burger", "coffee", "BURGER"])
        assert admitted.keywords == ("burger", "coffee")

    def test_defaults_apply(self, service_bundle):
        _database, _engine, service = service_bundle
        admitted = service.admit("burger")
        assert (admitted.k, admitted.size_threshold) == (5, 20)

    def test_empty_query_rejected(self, service_bundle):
        _database, _engine, service = service_bundle
        with pytest.raises(InvalidQueryError):
            service.admit("   !!!  ")
        with pytest.raises(InvalidQueryError):
            service.admit([])
        with pytest.raises(InvalidQueryError):
            service.admit(None)

    @pytest.mark.parametrize("bad_k", [0, -1, 2.5, "5", True])
    def test_bad_k_rejected(self, service_bundle, bad_k):
        _database, _engine, service = service_bundle
        with pytest.raises(InvalidParameterError):
            service.admit("burger", k=bad_k)

    def test_bad_size_threshold_rejected(self, service_bundle):
        _database, _engine, service = service_bundle
        with pytest.raises(InvalidParameterError):
            service.admit("burger", size_threshold=0)

    def test_mapping_requests_and_overrides(self, service_bundle):
        _database, _engine, service = service_bundle
        results = service.search_many(
            ["burger", {"keywords": "thai", "k": 1}], k=2, size_threshold=20
        )
        assert results[0].k == 2
        assert results[1].k == 1
        with pytest.raises(InvalidParameterError):
            service.search_many([{"keywords": "thai", "limit": 3}])
        with pytest.raises(InvalidQueryError):
            service.search_many([{"k": 3}])

    def test_invalid_configuration_rejected(self, service_bundle):
        _database, engine, _service = service_bundle
        with pytest.raises(ServiceConfigurationError):
            SearchService(engine.searcher, workers=0)
        with pytest.raises(ServiceConfigurationError):
            SearchService(engine.searcher, cache_size=-1)
        with pytest.raises(ServiceConfigurationError):
            SearchService(engine.searcher, default_k=0)


class TestCaching:
    def test_second_lookup_hits(self, service_bundle):
        _database, _engine, service = service_bundle
        first = service.search("burger")
        second = service.search("burger")
        assert not first.cached and second.cached
        assert as_comparable(second.results) == as_comparable(first.results)

    def test_distinct_parameters_cache_separately(self, service_bundle):
        _database, _engine, service = service_bundle
        service.search("burger", k=1)
        miss = service.search("burger", k=2)
        assert not miss.cached

    def test_lru_eviction(self):
        _database, engine = build_bundle()
        service = engine.serving(cache_size=2, workers=1, default_size_threshold=20)
        service.search("burger")
        service.search("thai")
        service.search("coffee")  # evicts "burger"
        assert not service.search("burger").cached
        assert service.statistics()["cache"]["evictions"] >= 1

    def test_cache_size_zero_disables_caching(self):
        _database, engine = build_bundle()
        service = engine.serving(cache_size=0, workers=1, default_size_threshold=20)
        service.search("burger")
        assert not service.search("burger").cached
        assert len(service.cache) == 0

    def test_warm_up_seeds_the_cache(self, service_bundle):
        _database, _engine, service = service_bundle
        seeded = service.warm_up(["burger", "thai", "burger"])
        assert seeded == 2
        assert service.search("burger").cached
        assert service.search("thai").cached

    def test_invalidate_cache_drops_everything(self, service_bundle):
        _database, _engine, service = service_bundle
        service.search("burger")
        assert service.invalidate_cache() == 1
        assert not service.search("burger").cached

    def test_statistics_counters(self, service_bundle):
        _database, _engine, service = service_bundle
        service.search("burger")
        service.search("burger")
        statistics = service.statistics()
        assert statistics["queries"] == 2
        assert statistics["computed"] == 1
        assert statistics["cache"]["hits"] == 1
        assert statistics["cache"]["misses"] == 1
        assert statistics["search"]["scorer_builds"] >= 1


class TestResultCacheUnit:
    def test_oversized_dependency_sets_degrade_to_epoch_only(self):
        store = InMemoryStore()
        cache = ResultCache(4)
        entry = CachedResult(results=(), keywords=("w",), dependencies=None, epoch=store.epoch)
        cache.put("key", entry)
        assert cache.get("key", store) is entry  # fast path: epoch unchanged
        store.bulk_load([(("x",), {"other": 1})])  # any mutation at all
        assert cache.get("key", store) is None
        assert cache.statistics.stale_drops == 1

    def test_fresh_entry_restamps_to_current_epoch(self):
        store = InMemoryStore()
        store.bulk_load([(("a",), {"w": 1})])
        cache = ResultCache(4)
        entry = CachedResult(
            results=(), keywords=("w",), dependencies=frozenset({("a",)}), epoch=store.epoch
        )
        cache.put("key", entry)
        store.bulk_load([(("b",), {"unrelated": 1})])  # does not touch w or ("a",)
        assert cache.get("key", store) is entry
        assert entry.epoch == store.epoch


@pytest.mark.parametrize("store_spec", STORE_SPECS)
class TestParity:
    """Service answers are byte-identical to uncached TopKSearcher.search."""

    def test_cached_and_uncached_results_identical(self, store_spec):
        database, engine = build_bundle(store_spec)
        reference = TopKSearcher(engine.index, engine.graph, engine.searcher.url_formulator)
        service = engine.serving(cache_size=64, workers=2)
        queries = [("burger",), ("thai",), ("coffee", "burger"), ("noodle",)]
        for keywords in queries:
            for k, size_threshold in ((1, 20), (3, 20), (5, 100)):
                expected = as_comparable(
                    reference.search(keywords, k=k, size_threshold=size_threshold)
                )
                cold = service.search(keywords, k=k, size_threshold=size_threshold)
                hot = service.search(keywords, k=k, size_threshold=size_threshold)
                assert as_comparable(cold.results) == expected
                assert as_comparable(hot.results) == expected
                assert hot.cached
        service.close()


@pytest.mark.parametrize("store_spec", STORE_SPECS)
class TestStaleness:
    """Epoch-based invalidation across every backend."""

    def test_insert_refreshes_affected_query_and_keeps_untouched_hits(self, store_spec):
        database, engine = build_bundle(store_spec)
        service = engine.serving(cache_size=64, workers=1, default_k=5, default_size_threshold=20)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )

        before = service.search("milkshake")
        assert before.results == ()  # the keyword does not exist yet
        untouched = service.search("thai")
        assert service.search("thai").cached

        affected = maintainer.insert("comment", ("207", "001", "120", "Great milkshake", "07/12"))
        assert affected == (("American", 10),)
        assert maintainer.epoch == maintainer.last_epoch == engine.store.epoch

        # The affected query was dropped as stale and recomputed fresh...
        after = service.search("milkshake")
        assert not after.cached
        expected = as_comparable(engine.searcher.search(["milkshake"], k=5, size_threshold=20))
        assert as_comparable(after.results) == expected
        assert after.results != ()
        # ...while the untouched query still hits the old entry.
        still = service.search("thai")
        assert still.cached
        assert as_comparable(still.results) == as_comparable(untouched.results)
        service.close()

    def test_delete_refreshes_affected_query_on_every_backend(self, store_spec):
        database, engine = build_bundle(store_spec)
        service = engine.serving(cache_size=64, workers=1, default_k=5, default_size_threshold=20)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )

        before = service.search("burger")
        assert before.results != ()
        untouched = service.search("thai")

        affected = maintainer.delete("comment", lambda record: record["cid"] == "203")
        assert affected  # the Example-6 burger comment lives on (American, 12)

        after = service.search("burger")
        assert not after.cached
        expected = as_comparable(engine.searcher.search(["burger"], k=5, size_threshold=20))
        assert as_comparable(after.results) == expected
        assert as_comparable(after.results) != as_comparable(before.results)

        still = service.search("thai")
        assert still.cached
        assert as_comparable(still.results) == as_comparable(untouched.results)
        service.close()

    def test_second_lookup_after_refresh_hits_again(self, store_spec):
        database, engine = build_bundle(store_spec)
        service = engine.serving(cache_size=64, workers=1, default_k=5, default_size_threshold=20)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        service.search("burger")
        maintainer.insert("restaurant", ("009", "Grill House", "American", 11, 3.5))
        refreshed = service.search("burger")
        assert not refreshed.cached
        assert service.search("burger").cached
        service.close()


class TestConcurrency:
    def test_search_many_preserves_order_and_matches_sequential(self, service_bundle):
        _database, _engine, service = service_bundle
        requests = ["burger", "thai", "coffee", "burger", "noodle soup"]
        batch = service.search_many(requests)
        assert [result.keywords for result in batch] == [
            ("burger",), ("thai",), ("coffee",), ("burger",), ("noodle", "soup"),
        ]
        for request, served in zip(requests, batch):
            assert as_comparable(service.search(request).results) == as_comparable(served.results)

    def test_batch_admission_fails_fast(self, service_bundle):
        _database, _engine, service = service_bundle
        with pytest.raises(InvalidQueryError):
            service.search_many(["burger", ""])
        # nothing from the rejected batch was executed
        assert service.statistics()["queries"] == 0

    def test_concurrent_identical_queries_coalesce(self):
        _database, engine = build_bundle()
        service = SearchService(engine.searcher, cache_size=32, workers=4)
        calls = []
        original = engine.searcher.search_detailed
        started = threading.Event()

        def slow_search(*args, **kwargs):
            calls.append(args)
            started.wait(1.0)
            return original(*args, **kwargs)

        engine.searcher.search_detailed = slow_search
        try:
            threads = [
                threading.Thread(target=service.search, args=("burger",), kwargs={"k": 2})
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let every thread reach the coalescing gate
            started.set()
            for thread in threads:
                thread.join(5.0)
        finally:
            engine.searcher.search_detailed = original
        assert len(calls) == 1  # one computation served all four callers
        statistics = service.statistics()
        assert statistics["computed"] == 1
        assert statistics["coalesced"] + statistics["cache"]["hits"] == 3
        service.close()


class TestSessionReuse:
    def test_engine_search_reuses_scorers_until_epoch_moves(self):
        database, engine = build_bundle()
        engine.search(["burger"], k=2, size_threshold=20)
        engine.search(["burger"], k=5, size_threshold=20)
        assert engine.searcher.lifetime_statistics()["scorer_reuses"] >= 1
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.insert("comment", ("208", "001", "120", "spicy noodle", "08/01"))
        builds_before = engine.searcher.lifetime_statistics()["scorer_builds"]
        engine.search(["burger"], k=2, size_threshold=20)
        # the next search revalidated the searcher's cache: it was replaced
        # and the scorer rebuilt against the post-update store state
        assert engine.searcher._identifiers.epoch == engine.store.epoch
        assert engine.searcher.lifetime_statistics()["scorer_builds"] == builds_before + 1


class TestLifecycle:
    def test_closed_service_rejects_queries(self, service_bundle):
        _database, engine, _service = service_bundle
        with engine.serving(workers=2) as service:
            service.search("burger")
        with pytest.raises(ServiceClosedError):
            service.search("burger")


class TestGateway:
    def build_server(self):
        database, engine = build_bundle()
        service = engine.serving(cache_size=32, workers=1, default_k=5, default_size_threshold=20)
        server = WebServer(database, host="www.example.com")
        server.deploy(engine.application)
        gateway = SearchGateway(service)
        server.deploy(gateway)
        return database, engine, service, server, gateway

    def test_end_to_end_search_and_dereference(self):
        _database, engine, _service, server, gateway = self.build_server()
        page = server.get("www.example.com/dbsearch?q=burger&k=2&s=20")
        expected = engine.searcher.search(["burger"], k=2, size_threshold=20)
        assert page.record_count == len(expected)
        for result in expected:
            assert result.url in page.text
        # the suggested URLs resolve to real db-pages on the same host
        for result in expected:
            db_page = server.get(result.url)
            assert db_page.contains_keyword("burger")
        assert gateway.requests_served == 1

    def test_multi_keyword_and_percent_encoding(self):
        _database, engine, _service, server, _gateway = self.build_server()
        page = server.get("www.example.com/dbsearch?q=thai+burger")
        expected = engine.searcher.search(["thai", "burger"], k=5, size_threshold=20)
        assert page.record_count == len(expected)

    def test_missing_or_invalid_fields_raise_typed_errors(self):
        _database, _engine, _service, server, _gateway = self.build_server()
        with pytest.raises(InvalidQueryError):
            server.get("www.example.com/dbsearch?q=")
        with pytest.raises(InvalidParameterError):
            server.get("www.example.com/dbsearch?q=burger&k=ten")
        with pytest.raises(InvalidParameterError):
            server.get("www.example.com/dbsearch?q=burger&k=0")


class TestStoreEpochs:
    @pytest.mark.parametrize("store", [InMemoryStore()])
    def test_mutations_bump_the_clock(self, store):
        assert store.epoch == 0
        store.bulk_load([(("a",), {"w": 2})])
        first = store.epoch
        assert first > 0
        assert store.keyword_epoch("w") == first
        assert store.fragment_epoch(("a",)) == first
        assert store.keyword_epoch("other") == 0
        store.touch_fragment(("a",))
        assert store.fragment_epoch(("a",)) > first
        assert store.keyword_epoch("w") == first  # a touch does not touch keywords
        assert store.postings("w")[0].term_frequency == 2

    def test_replace_fragment_bumps_old_and_new_keywords(self):
        store = InMemoryStore()
        store.bulk_load([(("a",), {"old": 1})])
        stamp = store.epoch
        store.replace_fragment(("a",), {"new": 2})
        assert store.keyword_epoch("old") > stamp
        assert store.keyword_epoch("new") > stamp
        assert store.fragment_epoch(("a",)) > stamp

    def test_removed_fragment_keeps_its_final_epoch(self):
        store = InMemoryStore()
        store.bulk_load([(("a",), {"w": 1})])
        store.remove_fragment(("a",))
        assert store.fragment_epoch(("a",)) == store.epoch

    @pytest.mark.parametrize("make_store", [InMemoryStore])
    def test_concurrent_reads_never_see_torn_posting_lists(self, make_store):
        """finalize's sort must never expose a mid-sort (emptied) list.

        Regression test: in-place list.sort leaves the list empty while it
        runs, so readers racing a writer's load+finalize cycle used to observe
        truncated postings and could cache them as fresh.
        """
        store = make_store()
        store.bulk_load((("f", index), {"hot": 1 + index % 3}) for index in range(800))
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                count = len(store.postings("hot"))
                if count < 800:
                    torn.append(count)
                    return

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        for round_index in range(150):
            store.bulk_load([(("g", round_index), {"hot": 1})])
            store.finalize()
        stop.set()
        for thread in readers:
            thread.join(5)
        assert torn == []
        final = store.postings("hot")
        assert len(final) == 950  # and no concurrent append was lost
        assert all(
            final[i].term_frequency >= final[i + 1].term_frequency
            for i in range(len(final) - 1)
        )
