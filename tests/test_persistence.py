"""Restart semantics and epoch-clock bounding.

Two guarantees stack on the :class:`~repro.store.DiskStore` backend:

* **warm restart** — build → serve → process exit → ``DashEngine.open`` must
  serve byte-identical results without a crawl, and because the epoch clock
  is persisted with the data, post-restart maintenance invalidates serving
  caches exactly as pre-restart maintenance would;
* **bounded clock** — the :class:`~repro.store.EpochClock` keeps tombstones
  for removed fragments so stale cache entries keep failing revalidation;
  the serving-driven generation sweep must bound that memory to the
  fragments touched since the oldest live cache stamp, even under
  continuous maintenance churn.
"""

from __future__ import annotations

import pytest

from repro.core.engine import DashEngine, DashEngineError
from repro.core.incremental import IncrementalMaintainer
from repro.store import DiskStore, EpochClock, InMemoryStore
from repro.store.disk import decode_identifier, encode_identifier


def _result_tuples(results):
    return [(r.url, r.score, r.fragments, r.size) for r in results]


@pytest.fixture()
def disk_path(tmp_path):
    return str(tmp_path / "engine.sqlite")


def _build_disk_engine(search_application, disk_path):
    from repro.datasets.fooddb import build_fooddb

    database = build_fooddb()
    return database, DashEngine.build(
        search_application, database, store="disk", store_path=disk_path
    )


# ----------------------------------------------------------------------
# warm restart
# ----------------------------------------------------------------------
class TestWarmRestart:
    def test_open_serves_identical_results(self, search_application, disk_path):
        from repro.datasets.fooddb import build_fooddb

        _database, engine = _build_disk_engine(search_application, disk_path)
        queries = (["burger"], ["coffee", "fries"], ["spicy"])
        expected = {
            tuple(keywords): _result_tuples(engine.search(keywords, k=3, size_threshold=20))
            for keywords in queries
        }
        epoch_before = engine.store.epoch
        engine.store.close()  # the "process exit"

        reopened = DashEngine.open(disk_path, search_application, build_fooddb())
        assert reopened.store.epoch == epoch_before
        assert reopened.statistics()["algorithm"] == "reopened"
        assert reopened.statistics()["store_backend"] == "DiskStore"
        for keywords in queries:
            actual = _result_tuples(reopened.search(keywords, k=3, size_threshold=20))
            assert actual == expected[tuple(keywords)]

    def test_post_restart_maintenance_invalidates_precisely(
        self, search_application, disk_path
    ):
        from repro.datasets.fooddb import build_fooddb

        _database, engine = _build_disk_engine(search_application, disk_path)
        engine.store.close()

        database = build_fooddb()
        reopened = DashEngine.open(disk_path, search_application, database)
        service = reopened.serving(cache_size=64, workers=1)
        burger = service.search("burger", k=3, size_threshold=20)
        thai = service.search("thai", k=3, size_threshold=20)
        assert service.search("burger", k=3, size_threshold=20).cached

        # a replace_fragment applied through a *reopened* store must drop
        # exactly the entries it could have changed
        maintainer = IncrementalMaintainer(
            reopened.application.query, database, reopened.index, reopened.graph
        )
        maintainer.insert("restaurant", ("008", "Burger Basement", "American", 9, 4.9))
        refreshed = service.search("burger", k=3, size_threshold=20)
        assert not refreshed.cached, "the American chain changed; the entry must drop"
        assert refreshed.epoch > burger.epoch
        retained = service.search("thai", k=3, size_threshold=20)
        assert retained.cached, "the Thai chain was untouched; its entry must keep hitting"
        assert retained.urls == thai.urls

        # and the refreshed results match a from-scratch engine over the
        # same post-update database
        rebuilt = DashEngine.build(search_application, database)
        assert _result_tuples(refreshed.results) == _result_tuples(
            rebuilt.search(["burger"], k=3, size_threshold=20)
        )

    def test_replace_fragment_is_durable_across_reopen(self, search_application, disk_path):
        from repro.datasets.fooddb import build_fooddb

        database, engine = _build_disk_engine(search_application, disk_path)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.delete("restaurant", lambda record: record["rid"] == "007")
        expected = _result_tuples(engine.search(["burger"], k=5, size_threshold=20))
        epoch = engine.store.epoch
        # no close(): the swap must already be committed (one transaction per
        # replace), so a second connection — a crashed-and-restarted process —
        # sees it even though this connection never shut down cleanly
        second = DiskStore(disk_path, create=False)
        assert second.epoch == epoch
        reopened = DashEngine.open(disk_path, search_application, build_fooddb())
        assert _result_tuples(reopened.search(["burger"], k=5, size_threshold=20)) == expected

    def test_open_rejects_missing_and_empty_stores(
        self, search_application, fooddb, tmp_path
    ):
        with pytest.raises(DashEngineError):
            DashEngine.open(str(tmp_path / "nope.sqlite"), search_application, fooddb)
        empty = DiskStore(str(tmp_path / "empty.sqlite"))
        empty.close()
        with pytest.raises(DashEngineError):
            DashEngine.open(str(tmp_path / "empty.sqlite"), search_application, fooddb)

    def test_build_over_populated_disk_store_rejects_then_reopens(
        self, search_application, disk_path
    ):
        """A rejected build must release the file it opened: the natural
        recovery — DashEngine.open on the same path — works immediately."""
        from repro.datasets.fooddb import build_fooddb

        _database, engine = _build_disk_engine(search_application, disk_path)
        expected = _result_tuples(engine.search(["burger"], k=3, size_threshold=20))
        engine.store.close()
        with pytest.raises(DashEngineError):
            DashEngine.build(
                search_application, build_fooddb(), store="disk", store_path=disk_path
            )
        reopened = DashEngine.open(disk_path, search_application, build_fooddb())
        assert _result_tuples(reopened.search(["burger"], k=3, size_threshold=20)) == expected
        reopened.store.close()


# ----------------------------------------------------------------------
# identifier encoding
# ----------------------------------------------------------------------
class TestIdentifierEncoding:
    @pytest.mark.parametrize(
        "identifier",
        [
            ("American", 10),
            ("Thai",),
            ("quote'd \"text\"", 3.5, None),
            (True, 0),
            ("unicode-日本語", -7),
        ],
    )
    def test_roundtrip(self, identifier):
        assert decode_identifier(encode_identifier(identifier)) == identifier

    def test_non_scalar_components_rejected_at_write_time(self, tmp_path):
        """A nested tuple would serialize as a JSON array and decode as a
        list — an unequal, unhashable value that bricks the store on reopen.
        The write must fail instead."""
        from repro.store import StoreError

        store = DiskStore(str(tmp_path / "s.sqlite"))
        with pytest.raises(StoreError):
            store.bulk_load([(("a", (1, 2)), {"kw": 1})])
        with pytest.raises(StoreError):
            store.touch_fragment(("a", [1, 2]))
        store.close()
        # snapshots share the JSON round trip, so the writer rejects too
        memory = InMemoryStore()
        memory.bulk_load([(("a", (1, 2)), {"kw": 1})])
        with pytest.raises(StoreError):
            memory.snapshot(str(tmp_path / "s.snapshot"))


# ----------------------------------------------------------------------
# the epoch clock: restore validation and the generation sweep
# ----------------------------------------------------------------------
class TestEpochClock:
    def test_load_rejects_regressed_store_epoch(self):
        clock = EpochClock()
        with pytest.raises(ValueError):
            clock.load(2, {"kw": 3}, {})
        clock.load(3, {"kw": 3}, {("a", 1): 2})
        assert clock.epoch == 3
        assert clock.keyword_epoch("kw") == 3
        assert clock.fragment_epoch(("a", 1)) == 2

    def test_sweep_prunes_only_at_or_below_the_stamp(self):
        clock = EpochClock()
        clock.tick_posting("old", ("gone", 1))  # epoch 1
        clock.tick_posting("hot", ("live", 2))  # epoch 2
        clock.tick_fragment(("live", 3))  # epoch 3
        assert clock.sweep(1) == 2  # "old" and ("gone", 1)
        # Pruned (and never-seen) keys answer the sweep floor, not 0: a
        # consumer the sweep could not see keeps failing revalidation for
        # anything it stamped before the bound.
        assert clock.floor == 1
        assert clock.keyword_epoch("old") == 1
        assert clock.fragment_epoch(("gone", 1)) == 1
        assert clock.keyword_epoch("hot") == 2
        assert clock.fragment_epoch(("live", 3)) == 3
        with pytest.raises(ValueError):
            clock.sweep(-1)

    def test_sweep_never_flips_a_live_revalidation(self):
        # the safety argument, executed: for any stamp >= the sweep bound,
        # the freshness comparison answers the same before and after
        clock = EpochClock()
        for round_index in range(5):
            clock.tick_posting(f"kw{round_index}", ("frag", round_index))
        bound = 3
        stamps = range(bound, clock.epoch + 1)
        before = {
            (stamp, index): clock.fragment_epoch(("frag", index)) > stamp
            for stamp in stamps
            for index in range(5)
        }
        clock.sweep(bound)
        after = {
            (stamp, index): clock.fragment_epoch(("frag", index)) > stamp
            for stamp in stamps
            for index in range(5)
        }
        assert after == before


class TestServingSweep:
    def _serving(self, fooddb, search_application):
        from repro.datasets.fooddb import build_fooddb

        database = build_fooddb()
        engine = DashEngine.build(search_application, database)
        return database, engine, engine.serving(cache_size=32, workers=1)

    def test_sweep_keeps_live_entries_valid(self, fooddb, search_application):
        database, engine, service = self._serving(fooddb, search_application)
        first = service.search("burger", k=3, size_threshold=20)
        pruned = service.sweep_epochs()
        assert pruned >= 0
        hit = service.search("burger", k=3, size_threshold=20)
        assert hit.cached and hit.urls == first.urls
        # maintenance after a sweep still invalidates: ticks land above every
        # surviving stamp
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.insert("restaurant", ("008", "Burger Barn", "American", 9, 4.1))
        refreshed = service.search("burger", k=3, size_threshold=20)
        assert not refreshed.cached

    def test_churn_memory_stays_bounded(self, search_application):
        """Continuous insert/delete churn with periodic sweeps: the clock
        tracks O(live fragments), not O(fragments ever seen)."""
        from repro.datasets.fooddb import build_fooddb

        database = build_fooddb()
        engine = DashEngine.build(search_application, database)
        service = engine.serving(cache_size=8, workers=1)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        rounds = 30
        unswept_peak = 0
        for round_index in range(rounds):
            # every round creates a brand-new fragment identifier and then
            # removes it — a fresh tombstone per round without a sweep
            rid = f"churn-{round_index}"
            cuisine = f"Churnese{round_index}"
            maintainer.insert("restaurant", (rid, f"pop-up {round_index}", cuisine, 12, 3.0))
            maintainer.delete("restaurant", lambda record, rid=rid: record["rid"] == rid)
            service.search("burger", k=3, size_threshold=20)  # keeps a live entry
            _epoch, _keywords, tracked = engine.store.epochs.snapshot()
            unswept_peak = max(unswept_peak, tracked)
            service.sweep_epochs()
        live = engine.store.fragment_count()
        _epoch, tracked_keywords, tracked_fragments = engine.store.epochs.snapshot()
        # without sweeping, the per-round tombstones would accumulate ~rounds
        # entries; with sweeping the track stays at one round's working set
        assert tracked_fragments <= live + 4, (tracked_fragments, live)
        assert tracked_keywords <= 8, tracked_keywords
        assert unswept_peak <= live + 8, unswept_peak
        # the surviving cache entry still revalidates and still invalidates
        assert service.search("burger", k=3, size_threshold=20).cached
        maintainer.insert("restaurant", ("zz", "burger finale", "American", 10, 4.0))
        assert not service.search("burger", k=3, size_threshold=20).cached

    def test_sweep_respects_other_services_on_the_same_store(self, search_application):
        """A sweep driven by one service must not erase tombstones another
        service's older cache entries still revalidate against."""
        from repro.datasets.fooddb import build_fooddb

        database = build_fooddb()
        engine = DashEngine.build(search_application, database)
        service_a = engine.serving(cache_size=16, workers=1)
        service_b = engine.serving(cache_size=16, workers=1)
        stale_to_be = service_b.search("burger", k=3, size_threshold=20)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.insert("restaurant", ("008", "Burger Loft", "American", 9, 4.2))
        # service_a recomputes (fresh stamp) and sweeps; service_b's older
        # entry must still fail revalidation afterwards
        service_a.search("burger", k=3, size_threshold=20)
        service_a.sweep_epochs()
        refreshed = service_b.search("burger", k=3, size_threshold=20)
        assert not refreshed.cached, "service_b's pre-update entry must still drop"
        assert refreshed.epoch > stale_to_be.epoch
        # once service_b closes, its old stamps no longer pin the clock
        service_b.close()
        service_a.search("burger", k=3, size_threshold=20)
        service_a.sweep_epochs()
        _epoch, _keywords, tracked = engine.store.epochs.snapshot()
        assert tracked == 0
        service_a.close()

    def test_abandoned_service_stops_pinning_the_sweep(self, search_application):
        """A service dropped without close() must not freeze the sweep bound
        forever — its weakly-held stamp provider dies with it."""
        import gc

        from repro.datasets.fooddb import build_fooddb

        database = build_fooddb()
        engine = DashEngine.build(search_application, database)
        service = engine.serving(cache_size=16, workers=1)
        abandoned = engine.serving(cache_size=16, workers=1)
        abandoned.search("burger", k=3, size_threshold=20)  # old stamp in its cache
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.insert("restaurant", ("008", "Burger Attic", "American", 9, 4.0))
        service.search("burger", k=3, size_threshold=20)
        service.sweep_epochs()
        _epoch, _keywords, pinned = engine.store.epochs.snapshot()
        assert pinned > 0, "the abandoned service's old stamp must pin the bound while alive"
        del abandoned
        gc.collect()
        service.sweep_epochs()
        _epoch, _keywords, tracked = engine.store.epochs.snapshot()
        assert tracked == 0
        service.close()

    def test_disk_store_sweep_prunes_persisted_rows(self, search_application, disk_path):
        database, engine = _build_disk_engine(search_application, disk_path)
        service = engine.serving(cache_size=8, workers=1)
        maintainer = IncrementalMaintainer(
            engine.application.query, database, engine.index, engine.graph
        )
        maintainer.insert("restaurant", ("churn-1", "pop-up", "Churnese", 12, 3.0))
        maintainer.delete("restaurant", lambda record: record["rid"] == "churn-1")
        service.search("burger", k=3, size_threshold=20)
        assert service.sweep_epochs() > 0
        state_before = engine.store.epochs.state()
        engine.store.close()
        # the sweep reached the persisted tables: a reopened clock matches
        reopened = DiskStore(disk_path, create=False)
        assert reopened.epochs.state() == state_before
