"""Write-path tests: batched store mutations, the batched maintainer, the
asynchronous MaintenanceService, and the single-writer multi-process mode."""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.core.engine import DashEngine
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.incremental import (
    DeleteRecords,
    IncrementalMaintainer,
    IncrementalMaintenanceError,
    InsertRecord,
)
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.datasets.workloads import zipf_mutation_stream
from repro.serving import MaintenanceService, ServiceClosedError, ServiceStoppedError
from repro.store import (
    DiskStore,
    InMemoryStore,
    RemoveFragment,
    StoreError,
    TouchFragment,
    coalesce_mutations,
    replace_op,
)
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"


def store_factories(tmp_path):
    return {
        "memory": InMemoryStore,
        "disk": lambda: DiskStore(os.path.join(str(tmp_path), "batch.sqlite")),
    }


def store_state(store):
    """Comparable dump of the postings section (lists, sizes, registration)."""
    return (
        {
            keyword: tuple((tuple(p.document_id), p.term_frequency) for p in postings)
            for keyword, postings in store.iter_items()
        },
        dict(store.fragment_sizes()),
    )


def seed_store(store):
    store.bulk_load(
        [
            (("A", 1), {"alpha": 3, "beta": 1}),
            (("B", 2), {"alpha": 2}),
            (("C", 3), {"gamma": 5}),
        ]
    )


BATCH = [
    replace_op(("A", 1), {"alpha": 1, "delta": 4}),
    RemoveFragment(("C", 3)),
    TouchFragment(("D", 4)),
    replace_op(("B", 2), {"alpha": 7}),
    replace_op(("A", 1), {"alpha": 2, "delta": 4}),  # overrides the first
]


# ----------------------------------------------------------------------
# store layer: apply_mutations
# ----------------------------------------------------------------------
class TestApplyMutations:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_batched_equals_sequential(self, backend, tmp_path):
        batched = store_factories(tmp_path / "b")[backend]()
        sequential = InMemoryStore()
        for store in (batched, sequential):
            seed_store(store)
        applied = batched.apply_mutations(BATCH)
        assert applied == 4  # the duplicate replace coalesced away
        # reference: the per-fragment path, one op at a time
        sequential.replace_fragment(("A", 1), {"alpha": 2, "delta": 4})
        sequential.remove_fragment(("C", 3))
        sequential.touch_fragment(("D", 4))
        sequential.replace_fragment(("B", 2), {"alpha": 7})
        assert store_state(batched) == store_state(sequential)
        batched.close()

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_batch_ticks_the_clock_once(self, backend, tmp_path):
        store = store_factories(tmp_path / "t")[backend]()
        seed_store(store)
        before = store.epoch
        store.apply_mutations(BATCH)
        assert store.epoch == before + 1
        # every touched keyword/fragment stamped with the batch epoch
        for keyword in ("alpha", "beta", "delta", "gamma"):
            assert store.keyword_epoch(keyword) == before + 1
        for identifier in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
            assert store.fragment_epoch(identifier) == before + 1
        store.close()

    def test_empty_batch_is_free(self):
        store = InMemoryStore()
        seed_store(store)
        before = store.epoch
        assert store.apply_mutations([]) == 0
        assert store.epoch == before

    def test_coalesce_semantics(self):
        ops = coalesce_mutations(
            [
                TouchFragment(("X", 1)),
                replace_op(("X", 1), {"a": 1}),
                RemoveFragment(("X", 1)),
                TouchFragment(("X", 1)),  # re-register after remove: kept
                TouchFragment(("X", 1)),  # duplicate: dropped
                replace_op(("Y", 2), {"b": 1}),
                replace_op(("Y", 2), {"b": 2}),  # last replace wins
            ]
        )
        assert [type(op).__name__ for op in ops] == [
            "RemoveFragment",
            "TouchFragment",
            "ReplaceFragment",
        ]
        assert ops[2].term_frequencies == (("b", 2),)

    def test_disk_batch_is_one_crash_safe_transaction(self, tmp_path):
        path = os.path.join(str(tmp_path), "crash.sqlite")
        store = DiskStore(path)
        seed_store(store)
        reference = store_state(store)
        epoch_before = store.epoch

        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with store.write_batch():
                store.apply_mutations(BATCH)
                raise Boom()
        # the whole round rolled back: data unchanged, clock never ticked
        assert store_state(store) == reference
        assert store.epoch == epoch_before
        store.close()
        reopened = DiskStore(path, create=False)
        assert store_state(reopened) == reference
        assert reopened.epoch == epoch_before
        reopened.close()

    def test_disk_batch_epochs_survive_reopen(self, tmp_path):
        path = os.path.join(str(tmp_path), "epochs.sqlite")
        store = DiskStore(path)
        seed_store(store)
        store.apply_mutations(BATCH)
        state = store.epochs.state()
        result = store_state(store)
        store.close()
        reopened = DiskStore(path, create=False)
        assert reopened.epochs.state() == state
        assert store_state(reopened) == result
        reopened.close()


# ----------------------------------------------------------------------
# core layer: the batched maintainer
# ----------------------------------------------------------------------
def build_maintained(store=None):
    database = build_fooddb()
    query = fooddb_search_query(database)
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments, store=store)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=index.store)
    return database, query, index, graph, IncrementalMaintainer(query, database, index, graph)


def index_as_dict(index):
    return {
        keyword: tuple((tuple(p.document_id), p.term_frequency) for p in postings)
        for keyword, postings in index.iter_items()
    }


class TestBatchedMaintainer:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_apply_updates_matches_rebuild(self, backend, tmp_path):
        store = {
            "memory": InMemoryStore,
            "disk": lambda: DiskStore(os.path.join(str(tmp_path), "m.sqlite")),
        }[backend]()
        database, query, index, graph, maintainer = build_maintained(store)
        stream = zipf_mutation_stream(database, "comment", 30, seed=5)
        affected = maintainer.apply_updates(list(stream))
        assert affected  # the stream touched something
        reference = InvertedFragmentIndex.from_fragments(derive_fragments(query, database))
        assert index_as_dict(index) == index_as_dict(reference)
        for identifier in index.fragment_ids():
            assert graph.keyword_count(identifier) == index.fragment_size(identifier)
        store.close()

    def test_burst_of_inserts_finalizes_once(self, monkeypatch):
        _database, _query, index, _graph, maintainer = build_maintained()
        calls = []
        original = index.finalize
        monkeypatch.setattr(
            index, "finalize", lambda: (calls.append(1), original())[1]
        )
        updates = [
            InsertRecord("comment", (f"60{i}", "001", "120", f"word{i} burger", "07/12"))
            for i in range(8)
        ]
        maintainer.apply_updates(updates)
        assert len(calls) == 1  # one finalize per applied batch, not per insert
        assert maintainer.updates_applied == 8

    def test_burst_coalesces_repeated_fragment_touches(self):
        database, query, index, _graph, maintainer = build_maintained()
        # eight comments on the same restaurant: one affected fragment
        updates = [
            InsertRecord("comment", (f"61{i}", "001", "120", f"tasty{i}", "07/12"))
            for i in range(8)
        ]
        affected = maintainer.apply_updates(updates)
        assert affected == (("American", 10),)
        assert maintainer.fragments_touched == 1
        assert index_as_dict(index) == index_as_dict(
            InvertedFragmentIndex.from_fragments(derive_fragments(query, database))
        )

    def test_batch_ticks_epoch_once_per_round(self):
        _database, _query, index, _graph, maintainer = build_maintained()
        before = index.store.epoch
        maintainer.apply_updates(
            [
                InsertRecord("comment", ("620", "001", "120", "quiet burger", "07/12")),
                InsertRecord("comment", ("621", "005", "120", "loud curry", "07/12")),
            ]
        )
        # postings batch: one tick; graph keyword-count updates: one tick per
        # node on the in-memory backend — far fewer than the seed's
        # per-posting ticks either way
        assert index.store.epoch <= before + 3

    def test_interleaved_inserts_and_deletes(self):
        database, query, index, _graph, maintainer = build_maintained()
        maintainer.apply_updates(
            [
                InsertRecord("comment", ("630", "001", "120", "fresh shake", "07/12")),
                DeleteRecords("comment", lambda record: record["cid"] == "630"),
                InsertRecord("restaurant", ("631", "Soup Stop", "Thai", 10, 4.0)),
                DeleteRecords("comment", lambda record: record["cid"] == "201"),
            ]
        )
        assert index_as_dict(index) == index_as_dict(
            InvertedFragmentIndex.from_fragments(derive_fragments(query, database))
        )

    def test_failed_update_mid_burst_keeps_index_consistent(self):
        # an insert lands in the database, then a later update of the same
        # burst blows up (a predicate that raises): the maintainer must
        # refresh what the burst already changed before re-raising, so the
        # index never silently diverges from the database
        database, query, index, _graph, maintainer = build_maintained()

        def exploding_predicate(record):
            raise RuntimeError("predicate blew up")

        with pytest.raises(RuntimeError, match="blew up"):
            maintainer.apply_updates(
                [
                    InsertRecord("comment", ("650", "001", "120", "sturdy burger", "07/12")),
                    DeleteRecords("comment", exploding_predicate),
                ]
            )
        assert index.term_frequency("sturdy", ("American", 10)) == 1
        assert index_as_dict(index) == index_as_dict(
            InvertedFragmentIndex.from_fragments(derive_fragments(query, database))
        )

    def test_rejects_non_operand_relations_before_mutating(self):
        database, _query, index, _graph, maintainer = build_maintained()
        before = index_as_dict(index)
        count = len(list(database.relation("comment")))
        with pytest.raises(IncrementalMaintenanceError):
            maintainer.apply_updates(
                [
                    InsertRecord("comment", ("640", "001", "120", "ok", "07/12")),
                    InsertRecord("unrelated", ("x",)),
                ]
            )
        # the whole burst was rejected up front: no partial application
        assert index_as_dict(index) == before
        assert len(list(database.relation("comment"))) == count


# ----------------------------------------------------------------------
# serving layer: MaintenanceService
# ----------------------------------------------------------------------
def build_engine(store="memory", store_path=None):
    database = build_fooddb()
    application = WebApplication(
        name="Search", uri=URI, query=fooddb_search_query(database), query_string_spec=SPEC
    )
    engine = DashEngine.build(
        application,
        database,
        analyze_source=False,
        store=store,
        store_path=store_path,
    )
    return database, engine


def comparable(results):
    return tuple((r.url, round(r.score, 9), r.fragments) for r in results)


class TestMaintenanceService:
    def test_tickets_resolve_and_burst_coalesces(self):
        _database, engine = build_engine()
        service = engine.serving(
            workers=1, default_k=5, default_size_threshold=20, maintenance=True,
            maintenance_delay_seconds=0.02,
        )
        maintenance = service.maintenance
        tickets = [
            maintenance.insert(
                "comment", (f"70{i}", "001", "120", f"crispy snack{i}", "07/12")
            )
            for i in range(6)
        ]
        assert maintenance.flush(timeout=10)
        batches = {id(ticket.result(timeout=5)) for ticket in tickets}
        assert len(batches) < len(tickets)  # the burst coalesced
        statistics = maintenance.statistics()
        assert statistics["updates_applied"] == 6
        assert statistics["updates_coalesced"] >= 6 - statistics["batches_applied"]
        assert service.statistics()["maintenance"]["pending"] == 0
        service.close()

    def test_epoch_precise_invalidation(self):
        _database, engine = build_engine()
        service = engine.serving(
            workers=1, default_k=5, default_size_threshold=20, maintenance=True
        )
        untouched = service.search("coffee")  # Bond's Cafe chain
        touched = service.search("thai")
        ticket = service.maintenance.insert(
            "comment", ("710", "005", "120", "glorious thai soup", "07/12")
        )
        ticket.result(timeout=5)
        after_untouched = service.search("coffee")
        after_touched = service.search("thai")
        assert after_untouched.cached  # nothing it depends on moved
        assert not after_touched.cached  # the batch touched its fragments
        fresh = engine.searcher.search(["thai"], k=5, size_threshold=20)
        assert comparable(after_touched.results) == comparable(fresh)
        assert untouched.epoch < after_touched.epoch
        del touched
        service.close()

    def test_failed_update_resolves_ticket_and_keeps_writer_alive(self):
        _database, engine = build_engine()
        service = engine.serving(workers=1, maintenance=True)
        maintenance = service.maintenance
        bad = maintenance.insert("unrelated", ("x",))
        with pytest.raises(IncrementalMaintenanceError):
            bad.result(timeout=5)
        good = maintenance.insert(
            "comment", ("720", "001", "120", "still alive", "07/12")
        )
        assert good.result(timeout=5).updates == 1
        assert maintenance.statistics()["failed_batches"] >= 1
        service.close()

    def test_close_drains_then_rejects(self):
        _database, engine = build_engine()
        service = engine.serving(workers=1, maintenance=True)
        maintenance = service.maintenance
        ticket = maintenance.insert(
            "comment", ("730", "001", "120", "final word", "07/12")
        )
        service.close()  # closes maintenance first, draining the queue
        assert ticket.result(timeout=5).updates >= 1
        with pytest.raises(ServiceClosedError):
            maintenance.insert("comment", ("731", "001", "120", "late", "07/12"))

    def test_writer_death_fails_tickets_instead_of_hanging(self, monkeypatch):
        """Regression: an unexpected error *outside* batch application
        (coalescing/dequeue logic) used to kill the writer thread silently,
        leaving queued tickets unresolved and ``flush()`` hanging forever.
        Now the service fails every queued ticket with the error and rejects
        further work with a typed ``ServiceStoppedError``."""
        _database, engine = build_engine()
        service = engine.serving(workers=1, maintenance=True)
        maintenance = service.maintenance

        boom = RuntimeError("internal writer bug")

        def dying_collect():
            # A faithful stand-in for a bug in the coalescing/dequeue
            # logic: the error fires with the ticket still queued.
            with maintenance._condition:
                while not maintenance._pending and not maintenance._closed:
                    maintenance._condition.wait()
            raise boom

        monkeypatch.setattr(maintenance, "_collect_batch", dying_collect)
        # The writer may still be parked inside the *real* _collect_batch;
        # push one sacrificial update through so its next loop iteration
        # picks up the dying replacement.
        sacrificial = maintenance.insert(
            "comment", ("739", "001", "120", "sacrificial", "07/12")
        )
        assert sacrificial.result(timeout=5).updates >= 1
        ticket = maintenance.insert(
            "comment", ("740", "001", "120", "doomed", "07/12")
        )
        # The queued ticket resolves with the internal error, never hangs.
        with pytest.raises(RuntimeError, match="internal writer bug"):
            ticket.result(timeout=5)
        # flush() raises instead of waiting on work nobody will apply.
        with pytest.raises(ServiceStoppedError) as excinfo:
            maintenance.flush(timeout=5)
        assert excinfo.value.cause is boom
        # New submissions are rejected with the stopped error, not queued.
        with pytest.raises(ServiceStoppedError):
            maintenance.insert("comment", ("741", "001", "120", "late", "07/12"))
        assert maintenance.statistics()["stopped"]
        monkeypatch.undo()
        service.close()


# ----------------------------------------------------------------------
# read-while-write consistency (memory / disk)
# ----------------------------------------------------------------------
PROBES = ("burger", "thai", "coffee")


def oracle_states(updates, k=5, size_threshold=20):
    """Probe results after every update prefix (batch boundaries are
    prefixes of the submission order, so any applied batch lands on one)."""
    database, engine = build_engine()
    maintainer = IncrementalMaintainer(
        engine.application.query, database, engine.index, engine.graph
    )
    states = {probe: set() for probe in PROBES}

    def snapshot():
        for probe in PROBES:
            states[probe].add(
                comparable(engine.searcher.search([probe], k=k, size_threshold=size_threshold))
            )

    snapshot()
    for update in updates:
        maintainer.apply_updates([update])
        snapshot()
    final = {
        probe: comparable(engine.searcher.search([probe], k=k, size_threshold=size_threshold))
        for probe in PROBES
    }
    return states, final


class TestReadWhileWriteConsistency:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_concurrent_searches_observe_only_batch_boundaries(self, backend, tmp_path):
        seed_database = build_fooddb()
        updates = list(zipf_mutation_stream(seed_database, "comment", 18, seed=11))
        states, final = oracle_states(updates)

        if backend == "disk":
            _database, engine = build_engine(
                store="disk", store_path=os.path.join(str(tmp_path), "rw.sqlite")
            )
        else:
            _database, engine = build_engine()
        service = engine.serving(
            workers=2, default_k=5, default_size_threshold=20, maintenance=True,
            maintenance_batch=4, maintenance_delay_seconds=0.002,
        )
        maintenance = service.maintenance
        violations = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                for probe in PROBES:
                    observed = comparable(service.search(probe).results)
                    if observed not in states[probe]:
                        violations.append((probe, observed))
                        return

        readers = [threading.Thread(target=hammer) for _ in range(2)]
        for reader in readers:
            reader.start()
        for update in updates:
            maintenance.submit(update)
            time.sleep(0.002)  # spread the stream over several batches
        assert maintenance.flush(timeout=30)
        stop.set()
        for reader in readers:
            reader.join()
        assert not violations, violations[:3]
        assert maintenance.statistics()["batches_applied"] >= 2
        for probe in PROBES:
            assert comparable(service.search(probe).results) == final[probe]
        # search_many during a final batch: same guarantee
        ticket = maintenance.insert(
            "comment", ("740", "001", "120", "closing burger", "07/12")
        )
        batch_results = service.search_many([[probe] for probe in PROBES])
        ticket.result(timeout=5)
        for probe, served in zip(PROBES, batch_results):
            fresh_before = states[probe]
            post = comparable(engine.searcher.search([probe], k=5, size_threshold=20))
            assert comparable(served.results) in fresh_before | {post}
        service.close()


# ----------------------------------------------------------------------
# single-writer / multi-reader DiskStore
# ----------------------------------------------------------------------
READER_SCRIPT = r"""
import json, os, sys, time
from repro.core.engine import DashEngine
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

path, iterations = sys.argv[1], int(sys.argv[2])
database = build_fooddb()
application = WebApplication(
    name="Search", uri="www.example.com/Search",
    query=fooddb_search_query(database),
    query_string_spec=QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max"))),
)
engine = DashEngine.open(path, application, database, analyze_source=False, read_only=True)
service = engine.serving(workers=1, default_k=5, default_size_threshold=20,
                         strict_freshness=True)
probes = ("burger", "thai", "coffee")
for _ in range(iterations):
    for probe in probes:
        served = service.search(probe)
        observed = [[r.url, round(r.score, 9), list(map(list, r.fragments))]
                    for r in served.results]
        print(json.dumps({"probe": probe, "results": observed}), flush=True)
    time.sleep(0.01)
service.close()
engine.store.close()
"""


class TestSingleWriterMultiProcess:
    def test_second_exclusive_writer_is_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "lock.sqlite")
        writer = DiskStore(path, exclusive_writer=True)
        with pytest.raises(StoreError, match="owns writes"):
            DiskStore(path, exclusive_writer=True)
        writer.close()  # releasing the lock frees the role
        successor = DiskStore(path, exclusive_writer=True)
        successor.close()

    def test_read_only_store_rejects_writes_and_refreshes_epochs(self, tmp_path):
        path = os.path.join(str(tmp_path), "ro.sqlite")
        writer = DiskStore(path, exclusive_writer=True)
        seed_store(writer)
        reader = DiskStore(path, read_only=True)
        assert [p.term_frequency for p in reader.postings("alpha")] == [3, 2]
        with pytest.raises(StoreError, match="read-only"):
            reader.bulk_load([(("X", 1), {"x": 1})])
        with pytest.raises(StoreError, match="read-only"):
            reader.apply_mutations([TouchFragment(("Z", 9))])
        # writer commits a batch; the reader sees it only as one atomic step
        writer.apply_mutations(BATCH)
        assert reader.refresh_epochs() is True
        assert reader.refresh_epochs() is False  # second sync is a no-op
        assert reader.epoch == writer.epoch
        assert store_state(reader) == store_state(writer)
        reader.close()
        writer.close()

    def test_reader_inherits_sweep_floor(self, tmp_path):
        path = os.path.join(str(tmp_path), "floor.sqlite")
        writer = DiskStore(path, exclusive_writer=True)
        seed_store(writer)
        reader = DiskStore(path, read_only=True)
        reader.refresh_epochs()
        writer.remove_fragment(("C", 3))  # leaves a tombstone
        bound = writer.epoch
        writer.sweep_epochs(bound)
        assert reader.refresh_epochs() is True
        # the pruned tombstone answers the floor, so anything the reader
        # stamped before the sweep keeps failing revalidation
        assert reader.epochs.floor == bound
        assert reader.fragment_epoch(("C", 3)) == bound
        reader.close()
        writer.close()

    def test_open_read_only_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError):
            DiskStore(os.path.join(str(tmp_path), "absent.sqlite"), read_only=True)

    def test_two_process_reader_observes_only_batch_boundaries(self, tmp_path):
        path = os.path.join(str(tmp_path), "two-proc.sqlite")
        seed_database = build_fooddb()
        updates = list(zipf_mutation_stream(seed_database, "comment", 12, seed=13))
        states, final = oracle_states(updates)
        _database, engine = build_engine(store="disk", store_path=path)

        environment = dict(os.environ)
        source_root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        environment["PYTHONPATH"] = source_root + os.pathsep + environment.get("PYTHONPATH", "")
        reader = subprocess.Popen(
            [sys.executable, "-c", READER_SCRIPT, path, "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=environment,
            text=True,
        )
        try:
            maintainer = IncrementalMaintainer(
                engine.application.query, engine.database, engine.index, engine.graph
            )
            for start in range(0, len(updates), 3):
                maintainer.apply_updates(updates[start : start + 3])
                time.sleep(0.03)
            stdout, stderr = reader.communicate(timeout=60)
        finally:
            if reader.poll() is None:
                reader.kill()
                reader.communicate()
        assert reader.returncode == 0, stderr
        observations = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        assert observations, stderr
        for observation in observations:
            probe = observation["probe"]
            observed = tuple(
                (url, score, tuple(tuple(f) for f in fragments))
                for url, score, fragments in observation["results"]
            )
            assert observed in states[probe], (probe, observed)
        # and the writer's final state matches the lock-step oracle
        for probe in PROBES:
            assert (
                comparable(engine.searcher.search([probe], k=5, size_threshold=20))
                == final[probe]
            )
        engine.store.close()
