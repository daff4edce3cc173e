"""Parity + fault-injection suite pinning the distributed build pipeline.

The contract under test (``repro.build``): a distributed crawl→index build —
partitioned map tasks, then load tasks bulk-loading the map spools inside one
write batch — produces output **byte-identical** to a single-process build
over the same corpus, for every partitioning, on every store backend, and
even when map/load workers are killed mid-run and retried.
"""

import os
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.build import BuildPipeline, BuildPipelineError
from repro.core.crawler import PartitionedCrawlFrontier
from repro.core.engine import DashEngine
from repro.core.fragments import derive_fragments
from repro.datasets import SyntheticCorpus, build_fooddb
from repro.datasets.fooddb import fooddb_search_query
from repro.mapreduce import RetryPolicy, TaskFailure
from repro.mapreduce.errors import JobError
from repro.store import DiskStore, InMemoryStore
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"


def fooddb_application(database):
    return WebApplication(
        name="Search",
        uri=URI,
        query=fooddb_search_query(database),
        query_string_spec=SPEC,
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
class ListSource:
    """A partitionable corpus source over an in-memory fragment list."""

    def __init__(self, fragments):
        self.fragments = list(fragments)

    def __iter__(self):
        return iter(self.fragments)

    def partitions(self, count):
        return [
            (lambda index=index: iter(self.fragments[index::count]))
            for index in range(count)
        ]


def naive_build(fragments, store):
    """The single-process reference: one load per fragment into one store."""
    for identifier, term_frequencies in fragments:
        store.bulk_load([(identifier, term_frequencies)])
    store.finalize()
    return store


def dump_disk(store):
    """Every logical row of a disk store's index (bytes included)."""
    blocks = store._connection.execute(
        "SELECT keyword, block_no, count, max_occurrences, max_weight, entries "
        "FROM posting_blocks ORDER BY keyword, block_no"
    ).fetchall()
    fragments = store._connection.execute(
        "SELECT id, size FROM fragments ORDER BY id"
    ).fetchall()
    terms = store._connection.execute(
        "SELECT fragment, terms FROM fragment_terms ORDER BY fragment"
    ).fetchall()
    return blocks, fragments, terms


def postings_view(store, keywords):
    return {
        keyword: [
            (posting.document_id, posting.term_frequency)
            for posting in store.postings(keyword)
        ]
        for keyword in keywords
    }


# ----------------------------------------------------------------------
# the synthetic corpus generator
# ----------------------------------------------------------------------
class TestSyntheticCorpus:
    def test_deterministic_across_instances(self):
        first = list(SyntheticCorpus(300, seed=21))
        second = list(SyntheticCorpus(300, seed=21))
        assert first == second
        assert list(SyntheticCorpus(300, seed=22)) != first

    def test_random_access_matches_iteration(self):
        corpus = SyntheticCorpus(100, seed=5)
        assert [corpus.fragment(index) for index in range(len(corpus))] == list(corpus)

    def test_partitions_cover_the_corpus_disjointly(self):
        corpus = SyntheticCorpus(120, seed=9)
        whole = dict(corpus)
        seen = {}
        for stream in corpus.partitions(3):
            for identifier, term_frequencies in stream():
                assert identifier not in seen
                seen[identifier] = term_frequencies
        assert seen == whole

    def test_identifiers_are_unique(self):
        corpus = SyntheticCorpus(500, seed=1)
        identifiers = [identifier for identifier, _tf in corpus]
        assert len(identifiers) == len(set(identifiers)) == 500


# ----------------------------------------------------------------------
# the parity property: distributed == single-process, byte for byte
# ----------------------------------------------------------------------
keywords_strategy = st.sampled_from(
    ["burger", "noodle", "coffee", "spicy", "crispy", "kw1", "kw2", "kw3"]
)
vectors = st.dictionaries(keywords_strategy, st.integers(min_value=1, max_value=5), max_size=6)
corpora = st.lists(vectors, min_size=1, max_size=12).map(
    lambda vs: [((f"cuisine{i:03d}", 5 + i), v) for i, v in enumerate(vs)]
)

RELAXED = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDistributedBuildParity:
    @RELAXED
    @given(fragments=corpora)
    def test_memory_target_matches_single_build(self, fragments):
        reference = naive_build(fragments, InMemoryStore())
        keywords = {kw for _id, tf in fragments for kw in tf}
        expected = postings_view(reference, keywords)
        for reduce_tasks in (1, 2, 4):
            store = InMemoryStore()
            BuildPipeline(
                ListSource(fragments), map_tasks=3, reduce_tasks=reduce_tasks, workers=1
            ).run(store)
            assert postings_view(store, keywords) == expected, reduce_tasks
            assert store.fragment_sizes() == reference.fragment_sizes()

    @RELAXED
    @given(fragments=corpora)
    def test_disk_target_matches_single_build_byte_for_byte(self, fragments, tmp_path_factory):
        base = tmp_path_factory.mktemp("parity")
        reference = naive_build(fragments, DiskStore(str(base / "ref.sqlite")))
        try:
            expected = dump_disk(reference)
        finally:
            reference.close()
        for reduce_tasks in (1, 2, 4):
            store = DiskStore(str(base / f"dist-{reduce_tasks}.sqlite"))
            try:
                BuildPipeline(
                    ListSource(fragments),
                    map_tasks=3,
                    reduce_tasks=reduce_tasks,
                    workers=1,
                ).run(store)
                assert dump_disk(store) == expected, reduce_tasks
            finally:
                store.close()

    def test_synthetic_corpus_parity_across_partitionings(self, tmp_path):
        corpus = SyntheticCorpus(400, seed=13)
        reference = naive_build(corpus, DiskStore(str(tmp_path / "ref.sqlite")))
        expected = dump_disk(reference)
        reference.close()
        for map_tasks, reduce_tasks in ((1, 1), (2, 4), (5, 3)):
            store = DiskStore(str(tmp_path / f"d-{map_tasks}-{reduce_tasks}.sqlite"))
            report = BuildPipeline(
                corpus, map_tasks=map_tasks, reduce_tasks=reduce_tasks, workers=1
            ).run(store)
            assert dump_disk(store) == expected, (map_tasks, reduce_tasks)
            assert report.fragments == 400
            assert report.postings > 0
            store.close()

    def test_empty_fragments_are_registered(self):
        fragments = [(("empty", 1), {}), (("full", 2), {"burger": 2})]
        store = InMemoryStore()
        BuildPipeline(ListSource(fragments), map_tasks=2, reduce_tasks=2, workers=1).run(store)
        assert store.fragment_size(("empty", 1)) == 0
        assert set(store.fragment_ids()) == {("empty", 1), ("full", 2)}

    def test_overlapping_partitions_are_rejected(self):
        class BadSource:
            def partitions(self, count):
                return [
                    (lambda: iter([(("dup", 1), {"burger": 1})]))
                    for _ in range(count)
                ]

        with pytest.raises(BuildPipelineError, match="two map partitions"):
            BuildPipeline(BadSource(), map_tasks=2, reduce_tasks=2, workers=1).run(
                InMemoryStore()
            )


# ----------------------------------------------------------------------
# engine-level parity (build_distributed vs build, attach via open unchanged)
# ----------------------------------------------------------------------
class TestEngineParity:
    QUERIES = (["burger"], ["coffee", "noodle"], ["star"], ["great", "burger"])

    @staticmethod
    def ranked(engine, keywords):
        return [
            (result.url, round(result.score, 9))
            for result in engine.search(keywords, k=5)
        ]

    def test_fooddb_memory_parity(self):
        database = build_fooddb()
        application = fooddb_application(database)
        single = DashEngine.build(
            application, database, algorithm="integrated", analyze_source=False
        )
        distributed = DashEngine.build_distributed(
            application, database, analyze_source=False, map_tasks=3,
            num_reduce_tasks=2, workers=1,
        )
        assert single.store.fragment_sizes() == distributed.store.fragment_sizes()
        for keywords in self.QUERIES:
            assert self.ranked(single, keywords) == self.ranked(distributed, keywords)
        assert distributed.statistics()["algorithm"] == "distributed"
        assert distributed.build_report.pipeline.fragments == len(
            distributed.store.fragment_ids()
        )

    def test_fooddb_disk_parity_and_open_attach(self, tmp_path):
        database = build_fooddb()
        application = fooddb_application(database)
        single_path = str(tmp_path / "single.sqlite")
        distributed_path = str(tmp_path / "distributed.sqlite")
        single = DashEngine.build(
            application, database, algorithm="integrated", analyze_source=False,
            store="disk", store_path=single_path,
        )
        distributed = DashEngine.build_distributed(
            application, database, analyze_source=False, map_tasks=2,
            num_reduce_tasks=4, workers=1, store="disk", store_path=distributed_path,
        )
        expected = {kws[0]: self.ranked(single, kws) for kws in self.QUERIES}
        for keywords in self.QUERIES:
            assert self.ranked(distributed, keywords) == expected[keywords[0]]
        # posting blocks and fragment rows byte-identical; term vectors are
        # semantically equal (the blob serializes items in insertion order,
        # which legitimately differs between keyword-major and fragment-major
        # load paths).
        single_blocks, single_fragments, _ = dump_disk(single.store)
        dist_blocks, dist_fragments, _ = dump_disk(distributed.store)
        assert single_blocks == dist_blocks
        assert single_fragments == dist_fragments
        for identifier in single.store.fragment_ids():
            assert single.store.fragment_term_frequencies(
                identifier
            ) == distributed.store.fragment_term_frequencies(identifier)
        single.store.close()
        distributed.store.close()

        # the built file serves through DashEngine.open unchanged
        reopened = DashEngine.open(distributed_path, application, database, analyze_source=False)
        for keywords in self.QUERIES:
            assert self.ranked(reopened, keywords) == expected[keywords[0]]
        reopened.store.close()

    def test_cluster_serves_distributed_build(self):
        database = build_fooddb()
        application = fooddb_application(database)
        engine = DashEngine.build_distributed(
            application, database, analyze_source=False, workers=1
        )
        service = engine.cluster(nodes=2, replicas=1, workers=2, default_k=5)
        try:
            direct = [result.url for result in engine.search(["burger"], k=5)]
            clustered = [result.url for result in service.search(["burger"], k=5)]
            assert clustered == direct
        finally:
            service.close()

    def test_populated_store_is_rejected(self, tmp_path):
        database = build_fooddb()
        application = fooddb_application(database)
        path = str(tmp_path / "populated.sqlite")
        DashEngine.build_distributed(
            application, database, analyze_source=False, workers=1,
            store="disk", store_path=path,
        ).store.close()
        with pytest.raises(Exception, match="already holds fragments"):
            DashEngine.build_distributed(
                application, database, analyze_source=False, workers=1,
                store="disk", store_path=path,
            )


# ----------------------------------------------------------------------
# the partitioned crawl frontier
# ----------------------------------------------------------------------
class TestPartitionedCrawlFrontier:
    def test_partitions_reproduce_the_reference_frontier(self):
        database = build_fooddb()
        query = fooddb_search_query(database)
        reference = {
            identifier: fragment.term_frequencies
            for identifier, fragment in derive_fragments(query, database).items()
        }
        frontier = PartitionedCrawlFrontier(query, database)
        for count in (1, 2, 5):
            seen = {}
            for stream in frontier.partitions(count):
                for identifier, term_frequencies in stream():
                    assert identifier not in seen, "partitions must be disjoint"
                    seen[identifier] = term_frequencies
            assert seen == reference, count

    def test_invalid_partition_count(self):
        database = build_fooddb()
        frontier = PartitionedCrawlFrontier(fooddb_search_query(database), database)
        with pytest.raises(ValueError):
            frontier.partitions(0)


# ----------------------------------------------------------------------
# fault injection: killed workers are retried to byte-identical output
# ----------------------------------------------------------------------
def _kill_once(phase, task_index=0):
    """An injector that kills one specific task's first attempt."""
    fired = []

    def injector(current_phase, index, attempt):
        if current_phase == phase and index == task_index and attempt == 1:
            fired.append((current_phase, index, attempt))
            raise TaskFailure(f"injected kill of {phase} task {index}")

    return injector, fired


class TestFaultInjection:
    @pytest.fixture()
    def corpus(self):
        return SyntheticCorpus(150, seed=4)

    @pytest.fixture()
    def expected(self, corpus, tmp_path):
        reference = naive_build(corpus, DiskStore(str(tmp_path / "ref.sqlite")))
        rows = dump_disk(reference)
        reference.close()
        return rows

    def _run_with_injector(self, corpus, tmp_path, injector, label, workdir=None):
        store = DiskStore(str(tmp_path / f"{label}.sqlite"))
        report = BuildPipeline(
            corpus,
            map_tasks=2,
            reduce_tasks=2,
            workers=1,
            workdir=workdir,
            retry_policy=RetryPolicy(max_attempts=3, failure_injector=injector),
        ).run(store)
        return store, report

    @pytest.mark.parametrize("phase", ["map"])
    def test_killed_worker_is_retried_to_identical_output(
        self, corpus, expected, tmp_path, phase
    ):
        injector, fired = _kill_once(phase)
        store, report = self._run_with_injector(
            corpus, tmp_path, injector, f"kill-{phase}"
        )
        assert fired == [(phase, 0, 1)]
        assert report.retries == {phase: 1}
        assert dump_disk(store) == expected
        store.close()

    def test_killed_load_finalize_is_retried_to_identical_output(
        self, corpus, expected, tmp_path
    ):
        # kill the second load task after the first one already staged its
        # fragments into the open write batch: the retry must neither lose
        # nor double them, and no spool temp file may be left behind.
        workdir = str(tmp_path / "work")
        injector, fired = _kill_once("load:finalize", task_index=1)
        store, report = self._run_with_injector(
            corpus, tmp_path, injector, "kill-load", workdir=workdir
        )
        assert fired == [("load:finalize", 1, 1)]
        assert report.retries == {"load": 1}
        assert dump_disk(store) == expected
        assert not [name for name in os.listdir(workdir) if name.endswith(".tmp")]
        store.close()

    def test_exhausted_retries_leave_the_disk_target_empty(self, corpus, tmp_path):
        # load task 0 succeeds, then every attempt of load task 1 dies: the
        # build must fail loudly AND roll task 0's fragments back too, so
        # the file holds no row of the failed build.
        def injector(phase, index, attempt):
            if phase == "load:finalize" and index == 1:
                raise TaskFailure("persistent crash")

        path = str(tmp_path / "target.sqlite")
        store = DiskStore(path)
        with pytest.raises(JobError, match="load task 1 failed 2 attempts"):
            BuildPipeline(
                corpus,
                map_tasks=2,
                reduce_tasks=2,
                workers=1,
                retry_policy=RetryPolicy(max_attempts=2, failure_injector=injector),
            ).run(store)
        assert store.fragment_count() == 0 and store.vocabulary() == ()
        assert store.epoch == 0
        store.close()
        connection = sqlite3.connect(path)
        try:
            for table in ("fragments", "fragment_terms", "posting_blocks"):
                assert connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
        finally:
            connection.close()

    def test_memory_target_fault_injection(self, corpus):
        reference = naive_build(corpus, InMemoryStore())
        for phase in ("map", "load", "load:finalize"):
            injector, fired = _kill_once(phase)
            store = InMemoryStore()
            report = BuildPipeline(
                corpus,
                map_tasks=2,
                reduce_tasks=2,
                workers=1,
                retry_policy=RetryPolicy(max_attempts=3, failure_injector=injector),
            ).run(store)
            assert fired, phase
            assert sum(report.retries.values()) == 1, phase
            assert store.fragment_sizes() == reference.fragment_sizes(), phase

    def test_memory_target_skips_posting_spools_and_reduce(self, corpus, tmp_path):
        # whole fragments go straight from the map spools to bulk_load:
        # no reduce task runs and the workdir holds only the map spools
        workdir = str(tmp_path / "work")
        reduced = []
        report = BuildPipeline(
            corpus,
            map_tasks=2,
            reduce_tasks=2,
            workers=1,
            workdir=workdir,
            retry_policy=RetryPolicy(
                failure_injector=lambda phase, *_task: reduced.append(phase == "reduce")
            ),
        ).run(InMemoryStore())
        assert not any(reduced) and report.reduce_seconds == 0.0
        assert sorted(os.listdir(workdir)) == ["map-0.fragments", "map-1.fragments"]
        assert report.postings == sum(len(terms) for _identifier, terms in corpus)

    def test_real_bugs_are_not_retried(self, corpus, tmp_path):
        calls = []

        def injector(phase, index, attempt):
            if phase == "map" and index == 0:
                calls.append(attempt)
                raise ValueError("a real bug, not a crash")

        store = DiskStore(str(tmp_path / "bug.sqlite"))
        with pytest.raises(ValueError, match="a real bug"):
            BuildPipeline(
                corpus,
                map_tasks=2,
                reduce_tasks=2,
                workers=1,
                retry_policy=RetryPolicy(max_attempts=3, failure_injector=injector),
            ).run(store)
        assert calls == [1], "non-TaskFailure exceptions must not be retried"
        store.close()
