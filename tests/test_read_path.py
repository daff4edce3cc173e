"""The read path: batched reads, the DiskStore read-connection pool, and the
top-k searcher pinned to the independent oracle.

Three guarantees are load-bearing:

* **Exactness** — the searcher must return byte-identical results (URLs,
  scores, fragments, sizes) to ``tests/oracle.py`` on every backend, for
  randomized corpora and queries (hypothesis) as well as the running
  examples, and dependencies that contain the oracle's and stay *sound*: a
  mutation outside them never changes the answer.  Pruning that changes
  output is a correctness bug, not a performance trade.
* **Batched reads agree with the per-item reads** — ``postings_for_many``
  and ``fragment_sizes_for`` must answer exactly like their singular
  counterparts on every backend, before and after mutations.
* **The DiskStore pool is real and bounded** — concurrent ``search_many``
  readers return the single-threaded results, and ``close()`` closes every
  pooled connection (no file-descriptor leak).
"""

import os
import sqlite3
import tempfile
import threading
import time

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from oracle import oracle_search
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import identifier_order
from repro.core.scoring import DashScorer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.serving import SearchService
from repro.store import DiskStore, InMemoryStore
from repro.store.mutations import replace_op
from repro.webapp.request import QueryStringSpec

QUERY = fooddb_search_query(build_fooddb())
SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
URI = "www.example.com/Search"

RELAXED = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _disk_store() -> DiskStore:
    return DiskStore(os.path.join(tempfile.mkdtemp(prefix="repro-read-path-"), "store.sqlite"))


def _build(fragments, store):
    index = InvertedFragmentIndex(store=store)
    for identifier, term_frequencies in fragments.items():
        index.add_fragment(identifier, term_frequencies)
    index.finalize()
    sizes = {identifier: index.fragment_size(identifier) for identifier in fragments}
    graph = FragmentGraph.build(QUERY, sizes, store=store)
    return index, graph, TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))


def _result_tuples(results):
    return [(r.url, r.score, r.fragments, r.size) for r in results]


# ----------------------------------------------------------------------
# randomized corpora + queries
# ----------------------------------------------------------------------
corpus_strategy = st.builds(
    lambda seed, count: _random_fragments(seed, count),
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=5, max_value=90),
)


def _random_fragments(seed: int, count: int):
    import random

    rng = random.Random(seed)
    vocabulary = [f"kw{index:02d}" for index in range(30)]
    fragments = {}
    groups = max(1, count // 6)
    for index in range(count):
        identifier = (f"Cuisine{index % groups:02d}", 5 + index // groups)
        fragments[identifier] = {
            rng.choice(vocabulary): rng.randint(1, 5) for _ in range(rng.randint(1, 8))
        }
    return fragments


def _random_keywords(query_seed: int):
    import random

    rng = random.Random(query_seed)
    vocabulary = [f"kw{index:02d}" for index in range(30)] + ["unknown"]
    return rng, rng.sample(vocabulary, rng.randint(1, 3))


#: Three two-fragment groups for ``["hot"]``, ``k=1``, ``s=50``: A's and C's
#: padding drowns their seed, so B wins (3/60) and C (1/100) is never opened.
THREE_GROUPS = {
    ("A", 1): {"hot": 5, "x": 5},
    ("A", 2): {"pad": 100},
    ("B", 1): {"hot": 3, "y": 27},
    ("B", 2): {"z": 30},
    ("C", 1): {"hot": 1, "w": 9},
    ("C", 2): {"pad": 90},
}


class TestExpansionPruning:
    """The pruning the searcher does perform is counted, on any backend."""

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_group_ceiling_pruning_is_reported(self, store_factory):
        """A fixed corpus where most groups cannot reach the top 2: their
        tokens stay queued, so their seeds are never scored."""
        fragments = _random_fragments(seed=3, count=90)
        _, _, searcher = _build(fragments, store_factory())
        keywords = ["kw00", "kw01", "kw02"]
        detailed = searcher.search_detailed(keywords, k=2, size_threshold=10)
        statistics = detailed.statistics
        seeds = {f for f, terms in fragments.items() if set(terms) & set(keywords)}
        assert statistics.groups_pruned > 0
        assert 0 < statistics.seeds_scored < len(seeds)
        assert searcher.lifetime_statistics()["groups_pruned"] == statistics.groups_pruned
        assert seeds <= detailed.dependencies  # scored or not, every seed is one

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_a_seed_with_no_size_row_is_opened_not_ruled_out(self, store_factory):
        """The size table is read after the postings, so a concurrent batch
        can leave a seed's group out of it.  Its ceiling must then fail safe
        (as high as a one-keyword page's), never 0: hiding the winner's rows
        still finds the winner, its sizes falling back to point reads."""
        index, graph, searcher = _build(THREE_GROUPS, store_factory())
        expected, _ = oracle_search(index, graph, ["hot"], 1, 50)
        assert [fragments for fragments, _score, _size in expected] == [(("B", 1), ("B", 2))]
        fragment_sizes = index.store.fragment_sizes
        index.store.fragment_sizes = lambda: {
            f: size for f, size in fragment_sizes().items() if f[0] != "B"
        }
        detailed = searcher.search_detailed(["hot"], k=1, size_threshold=50)
        assert [(r.fragments, r.score, r.size) for r in detailed.results] == expected
        index.store.close()

    def test_expansion_tier_pruning_is_reported(self):
        """Irrelevant neighbours are skipped once a relevant candidate exists."""
        fragments = _random_fragments(seed=3, count=90)
        _, _, searcher = _build(fragments, InMemoryStore())
        searcher.search(["kw00", "kw01", "kw02"], k=2, size_threshold=10)
        assert searcher.last_statistics.pruned_expansions > 0
        totals = searcher.lifetime_statistics()
        assert totals["searches"] == 1
        assert totals["pruned_expansions"] == searcher.last_statistics.pruned_expansions

    def test_dequeue_and_expansion_counts_are_backend_independent(self):
        fragments = _random_fragments(seed=9, count=60)
        _, _, reference = _build(fragments, InMemoryStore())
        reference.search(["kw03", "kw07"], k=4, size_threshold=20)
        _, _, other = _build(fragments, _disk_store())
        other.search(["kw03", "kw07"], k=4, size_threshold=20)
        assert other.last_statistics.dequeues == reference.last_statistics.dequeues
        assert other.last_statistics.expansions == reference.last_statistics.expansions
        assert other.last_statistics.seeds_scored == reference.last_statistics.seeds_scored


class TestIndependentOracle:
    """The searcher against ``tests/oracle.py``, on memory and disk.

    State carried wrongly between a page's dequeues, or a bound that prunes
    a winner, would pass every searcher-vs-searcher comparison; the oracle
    re-derives everything at every dequeue and prunes nothing.
    """

    #: One chain, two seeds (2 and 4) either side of an irrelevant middle:
    #: seed 2 absorbs 3 and seed 4 absorbs 3 as well (a consumed fragment
    #: stays a valid candidate), then ``{2,3}+4`` and ``{3,4}+2`` arrive at
    #: the same page by two routes.  Both copies must go on to prefer the
    #: small end 5 over the large end 1.
    CHAIN = {
        ("Cuisine00", 1): {"pad": 5},
        ("Cuisine00", 2): {"hot": 3, "a": 1},
        ("Cuisine00", 3): {"mid": 1},
        ("Cuisine00", 4): {"hot": 2, "b": 1},
        ("Cuisine00", 5): {"end": 2},
    }

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_a_page_reached_by_two_routes_expands_the_same_on_both(self, store_factory):
        index, graph, searcher = _build(self.CHAIN, store_factory())
        detailed = searcher.search_detailed(["hot"], k=3, size_threshold=10)
        expected, dependencies = oracle_search(index, graph, ["hot"], 3, 10)
        converged = tuple(("Cuisine00", budget) for budget in (2, 3, 4, 5))
        assert [fragments for fragments, _score, _size in expected] == [converged, converged]
        assert [(r.fragments, r.score, r.size) for r in detailed.results] == expected
        assert detailed.dependencies == dependencies
        assert detailed.statistics.expansions == 6  # 2+3, 4+3, then +4/+2 and +5 per route

    @RELAXED
    @given(
        fragments=corpus_strategy,
        query_seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        size_threshold=st.sampled_from([1, 10, 60]),
        store_factory=st.sampled_from([InMemoryStore, _disk_store]),
    )
    def test_matches_the_oracle_on_results_and_dependencies(
        self, fragments, query_seed, k, size_threshold, store_factory
    ):
        _rng, keywords = _random_keywords(query_seed)
        index, graph, searcher = _build(fragments, store_factory())
        expected, dependencies = oracle_search(index, graph, keywords, k, size_threshold)
        detailed = searcher.search_detailed(keywords, k=k, size_threshold=size_threshold)
        assert [(r.fragments, r.score, r.size) for r in detailed.results] == expected
        # a superset: every member of a never-opened group is a dependency too
        assert detailed.dependencies >= dependencies

    @settings(RELAXED, max_examples=40)
    @given(
        fragments=corpus_strategy,
        query_seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=4),
        size_threshold=st.sampled_from([10, 60, 200]),  # 200: above every group's size
        store_factory=st.sampled_from([InMemoryStore, _disk_store]),
        mutation=st.sampled_from(["replace", "remove", "add"]),
    )
    def test_a_mutation_outside_the_dependencies_leaves_the_answer_alone(
        self, fragments, query_seed, k, size_threshold, store_factory, mutation
    ):
        """The soundness the serving cache rests on.  A never-opened group
        was ruled out on its total size, so shrinking (or removing) any
        member — relevant or not — could let it into the top k: unless every
        member is a dependency, this property fails."""
        rng, keywords = _random_keywords(query_seed)
        index, graph, searcher = _build(fragments, store_factory())
        service = SearchService(searcher, cache_size=8, workers=1)
        parameters = {"k": k, "size_threshold": size_threshold}
        before = _result_tuples(service.search(keywords, **parameters).results)
        detailed = searcher.search_detailed(keywords, **parameters)
        assert _result_tuples(detailed.results) == before
        filler = {"pad": rng.choice([1, 1, 9])}  # never a query keyword; mostly a shrink
        if mutation == "add":
            group, _budget = rng.choice(sorted(fragments))
            target = (rng.choice([group, "CuisineNew"]), rng.choice([1, 99]))
        else:
            outside = sorted(set(fragments) - detailed.dependencies)
            if not outside:
                return
            # prefer the groups a search could have judged: those holding a seed
            seeded = {graph.group_key(f) for f in DashScorer(index, keywords).relevant_fragments()}
            target = rng.choice([f for f in outside if graph.group_key(f) in seeded] or outside)
        with index.store.write_batch():
            if mutation == "remove":
                index.remove_fragment(target)
                graph.remove_fragment(target)
            else:
                index.store.apply_mutations([replace_op(target, filler)])
                if mutation == "add":
                    graph.add_fragment(target, sum(filler.values()))
        expected, _ = oracle_search(index, graph, keywords, k, size_threshold)
        after = searcher.search_detailed(keywords, **parameters)
        assert [(r.fragments, r.score, r.size) for r in after.results] == expected
        # a cache hit or a recomputation, the service may not serve anything else
        assert _result_tuples(service.search(keywords, **parameters).results) == _result_tuples(
            after.results
        )
        # a new fragment changes its new neighbours' adjacency: only one that
        # lands beside no dependency is "outside" them
        if mutation != "add" or not set(graph.neighbors(target)) & detailed.dependencies:
            assert _result_tuples(after.results) == before
        service.close()
        index.store.close()

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_a_shrunk_irrelevant_member_reopens_its_group(self, store_factory):
        """Group C is ruled out while its padding keeps it above ``s`` and
        wins once a batch shrinks the padding: the size table is per epoch,
        and the cached answer depended on the padding it never scored."""
        index, graph, searcher = _build(THREE_GROUPS, store_factory())
        service = SearchService(searcher, cache_size=8, workers=1)
        for winner in ("B", "C"):
            expected, _ = oracle_search(index, graph, ["hot"], 1, 50)
            assert [fragments for fragments, _score, _size in expected] == [
                ((winner, 1), (winner, 2))
            ]
            detailed = searcher.search_detailed(["hot"], k=1, size_threshold=50)
            assert [(r.fragments, r.score, r.size) for r in detailed.results] == expected
            served = service.search(["hot"], k=1, size_threshold=50)
            assert _result_tuples(served.results) == _result_tuples(detailed.results)
            if winner == "B":
                assert detailed.statistics.groups_pruned == 1
                assert {("C", 1), ("C", 2)} <= detailed.dependencies
                with index.store.write_batch():
                    index.store.apply_mutations([replace_op(("C", 2), {"pad": 2})])
                    graph.update_keyword_count(("C", 2), 2)
        service.close()
        index.store.close()


# ----------------------------------------------------------------------
# the expansion loop's score bound
# ----------------------------------------------------------------------
class TestAdmissibleBounds:
    """``score_bound`` must never under-cap the score it stands in for."""

    @RELAXED
    @given(
        fragments=corpus_strategy,
        query_seed=st.integers(min_value=0, max_value=10_000),
        store_factory=st.sampled_from([InMemoryStore, _disk_store]),
    )
    def test_expansion_score_bound_is_admissible(self, fragments, query_seed, store_factory):
        """The call ``_expand`` makes: a page extended by one candidate,
        bounded from the candidate's occurrence total instead of its size."""
        rng, keywords = _random_keywords(query_seed)
        index, _, _ = _build(fragments, store_factory())
        scorer = DashScorer(index, keywords)
        identifiers = list(fragments)
        for _ in range(20):
            page = rng.sample(identifiers, rng.randint(1, min(4, len(identifiers) - 1)))
            candidate = rng.choice([f for f in identifiers if f not in page])
            stats = scorer.page_stats(page)
            extended = scorer.extended_occurrences(stats.occurrences, candidate)
            least_size = stats.size + sum(extended) - sum(stats.occurrences)
            exact = scorer.score_totals(extended, stats.size + scorer.size_of(candidate))
            assert scorer.score_bound(extended, least_size) >= exact


    @RELAXED
    @given(
        fragments=corpus_strategy,
        query_seed=st.integers(min_value=0, max_value=10_000),
        size_threshold=st.sampled_from([1, 10, 60, 1000]),
        store_factory=st.sampled_from([InMemoryStore, _disk_store]),
        overridden=st.booleans(),
    )
    def test_group_ceiling_caps_every_page_the_group_emits(
        self, fragments, query_seed, size_threshold, store_factory, overridden
    ):
        """The tokens a stream opens with, against every page the oracle
        emits when it runs each group dry (``k`` = every fragment) — also
        when the router substitutes its global IDF."""
        rng, keywords = _random_keywords(query_seed)
        index, graph, searcher = _build(fragments, store_factory())
        overrides = {keyword: rng.random() for keyword in keywords} if overridden else None
        stream = searcher.stream(keywords, 1, size_threshold, idf_overrides=overrides)
        ceilings = {}
        for negated, tie, seeds in stream._queue:
            assert tie == (-1, identifier_order(seeds[0]))
            ceilings[graph.group_key(seeds[0])] = -negated
        emitted, _ = oracle_search(index, graph, keywords, len(fragments), size_threshold)
        assert {graph.group_key(page[0]) for page, _score, _size in emitted} == set(ceilings)
        for page, _score, _size in emitted:
            assert stream.scorer.score(page) <= ceilings[graph.group_key(page[0])]
        index.store.close()


class TestBatchedReads:
    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_postings_for_many_matches_postings(self, store_factory):
        fragments = _random_fragments(seed=5, count=40)
        index, _, _ = _build(fragments, store_factory())
        store = index.store
        keywords = list(store.vocabulary())[:10] + ["missing", "missing"]
        batched = store.postings_for_many(keywords)
        assert set(batched) == set(keywords)
        for keyword in batched:
            assert batched[keyword] == store.postings(keyword)

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_postings_for_many_sees_mutations(self, store_factory):
        fragments = _random_fragments(seed=6, count=30)
        index, _, _ = _build(fragments, store_factory())
        store = index.store
        keyword = next(iter(store.vocabulary()))
        before = store.postings_for_many([keyword])[keyword]
        assert before  # the vocabulary keyword has postings
        victim = before[0].document_id
        index.replace_fragment(victim, {keyword: 999})
        after = store.postings_for_many([keyword])[keyword]
        assert after == store.postings(keyword)
        assert after[0].term_frequency == 999

    @pytest.mark.parametrize("store_factory", [InMemoryStore, _disk_store])
    def test_fragment_sizes_for_matches_fragment_size(self, store_factory):
        fragments = _random_fragments(seed=7, count=40)
        index, _, _ = _build(fragments, store_factory())
        store = index.store
        identifiers = list(store.fragment_ids())[:15] + [("Nope", 1)]
        batched = store.fragment_sizes_for(identifiers)
        for identifier in identifiers:
            assert batched[identifier] == store.fragment_size(identifier)
        assert batched[("Nope", 1)] == 0

    def test_disk_size_cache_invalidates_on_replace(self):
        fragments = _random_fragments(seed=8, count=20)
        index, _, _ = _build(fragments, _disk_store())
        store = index.store
        identifier = store.fragment_ids()[0]
        original = store.fragment_sizes_for([identifier])[identifier]
        assert original == store.fragment_size(identifier)
        index.replace_fragment(identifier, {"kw00": original + 17})
        assert store.fragment_sizes_for([identifier])[identifier] == original + 17
        assert store.fragment_size(identifier) == original + 17

    def test_disk_batched_reads_see_staged_bulk_load(self):
        """Before finalize() commits, reads must route through the write
        connection and see the staged rows."""
        store = _disk_store()
        index = InvertedFragmentIndex(store=store)
        index.add_fragment(("American", 10), {"burger": 2, "fries": 1})
        # finalize() not called: the bulk-load transaction is still open
        assert store.fragment_sizes_for([("American", 10)])[("American", 10)] == 3
        batched = store.postings_for_many(["burger", "fries"])
        assert [p.document_id for p in batched["burger"]] == [("American", 10)]
        store.close()


# ----------------------------------------------------------------------
# the DiskStore read-connection pool
# ----------------------------------------------------------------------
def _open_sqlite_fds(path):
    """File descriptors of this process pointing at ``path`` (linux)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("/proc/self/fd not available on this platform")
    real = os.path.realpath(path)
    open_fds = []
    for entry in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, entry))
        except OSError:
            continue
        if target == real:
            open_fds.append(entry)
    return open_fds


class TestDiskReadPool:
    def test_concurrent_search_many_matches_serial_results(self):
        fragments = _random_fragments(seed=11, count=80)
        _, _, searcher = _build(fragments, _disk_store())
        store = searcher.index.store
        queries = [[f"kw{index % 30:02d}", f"kw{(index * 7) % 30:02d}"] for index in range(24)]
        expected = [
            _result_tuples(searcher.search(keywords, k=5, size_threshold=20))
            for keywords in queries
        ]
        store.drop_read_caches()  # make the concurrent pass actually read SQL
        service = SearchService(searcher, cache_size=0, workers=4)
        served = service.search_many(
            [{"keywords": keywords} for keywords in queries], k=5, size_threshold=20
        )
        assert [_result_tuples(result.results) for result in served] == expected
        service.close()
        store.close()

    def test_pool_grows_per_thread_and_closes_without_fd_leak(self):
        fragments = _random_fragments(seed=12, count=30)
        _, _, searcher = _build(fragments, _disk_store())
        store = searcher.index.store
        searcher.search(["kw01"], k=3, size_threshold=10)
        assert store.pooled_reader_count >= 1

        seen = []
        release = threading.Event()

        def reader():
            seen.append(store.fragment_count())
            # stay alive until the pool size is observed — exited threads'
            # connections are legitimately reclaimed by later connects
            release.wait(timeout=30)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while len(seen) < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert sorted(seen) == [30, 30, 30]
        # one pooled connection per (live) reader thread plus the main thread's
        assert store.pooled_reader_count >= 4
        release.set()
        for thread in threads:
            thread.join()

        assert len(_open_sqlite_fds(store.path)) >= 1
        store.close()
        assert store.pooled_reader_count == 0
        assert _open_sqlite_fds(store.path) == []
        store.close()  # idempotent

    def test_dead_thread_connections_are_reclaimed(self):
        """Thread churn must not leak pooled connections (EMFILE over time)."""
        fragments = _random_fragments(seed=15, count=20)
        _, _, searcher = _build(fragments, _disk_store())
        store = searcher.index.store
        store.fragment_count()  # the main thread's pooled reader

        def reader():
            store.fragment_count()

        for _round in range(5):
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Each round's new readers swept the previous round's dead ones:
        # main + at most the last round's (dead, not-yet-swept) connections.
        assert store.pooled_reader_count <= 5
        final = threading.Thread(target=reader)
        final.start()
        final.join()
        # The final thread's connect swept every earlier dead reader.  (The
        # connection count is the leak-proof bound; per-connection fd counts
        # on the main db file vary with WAL timing, so they are asserted
        # only at close.)
        assert store.pooled_reader_count <= 2
        store.close()
        assert _open_sqlite_fds(store.path) == []

    def test_reads_after_close_raise(self):
        fragments = _random_fragments(seed=13, count=10)
        _, _, searcher = _build(fragments, _disk_store())
        store = searcher.index.store
        store.close()
        with pytest.raises(Exception):
            store.fragment_count()


# ----------------------------------------------------------------------
# block layout: directories are a pure function of store state
# ----------------------------------------------------------------------
def _assert_block_directories_match(store):
    """Every keyword's directory equals a fresh build over the current state.

    The cross-backend determinism contract: summaries (including the float
    maxima) must be byte-identical to ``build_summaries`` over the current
    sorted posting list and current sizes, and the concatenated decoded
    blocks must reproduce the posting list exactly.
    """
    from repro.store.blocks import BLOCK_SIZE, build_summaries

    keywords = list(store.vocabulary()) + ["kw-absent"]
    directories = store.posting_blocks_for_many(keywords)
    gathered = store.postings_for_many(keywords)
    snapshot = {}
    for keyword in keywords:
        handle = directories[keyword]
        postings = gathered[keyword]
        sizes = store.fragment_sizes_for(tuple({p.document_id for p in postings}))
        expected = build_summaries(postings, lambda identifier: sizes.get(identifier, 0))
        assert handle.summaries == expected
        assert handle.posting_count == len(postings)
        decoded = []
        for block_no, summary in enumerate(handle.summaries):
            block = handle.decode(block_no)
            assert len(block) == summary.count <= BLOCK_SIZE
            assert summary.max_occurrences == max(p.term_frequency for p in block)
            decoded.extend(block)
        assert tuple(decoded) == postings
        snapshot[keyword] = handle.summaries
    return snapshot


class TestBlockLayout:
    """The tentpole invariant: blocks are pure functions of (list, sizes)."""

    @RELAXED
    @given(fragments=corpus_strategy, churn_seed=st.integers(min_value=0, max_value=10_000))
    def test_directories_match_fresh_summaries_even_after_churn(self, fragments, churn_seed):
        import random

        from repro.store.mutations import RemoveFragment, replace_op

        rng = random.Random(churn_seed)
        batch = []
        for identifier in sorted(fragments):
            roll = rng.random()
            if roll < 0.15:
                batch.append(RemoveFragment(identifier))
            elif roll < 0.45:
                batch.append(
                    replace_op(
                        identifier,
                        {
                            f"kw{rng.randrange(30):02d}": rng.randint(1, 5)
                            for _ in range(rng.randint(1, 4))
                        },
                    )
                )

        per_backend = []
        for store_factory in (InMemoryStore, _disk_store):
            store = store_factory()
            index = InvertedFragmentIndex(store=store)
            for identifier, term_frequencies in fragments.items():
                index.add_fragment(identifier, term_frequencies)
            index.finalize()
            _assert_block_directories_match(store)
            if batch:
                store.apply_mutations(batch)
            per_backend.append(_assert_block_directories_match(store))
            store.close()
        # the same logical state yields bit-identical directories everywhere
        assert per_backend[0] == per_backend[1]

    def test_incremental_writes_refresh_directories(self):
        """replace_fragment / remove_fragment invalidate cached directories."""
        for store_factory in (InMemoryStore, _disk_store):
            store = store_factory()
            store.bulk_load([(("A", 1), {"alpha": 3}), (("B", 2), {"alpha": 2})])
            _assert_block_directories_match(store)
            # growing B's size through another keyword stales alpha's maxima
            store.replace_fragment(("B", 2), {"alpha": 2, "beta": 9})
            _assert_block_directories_match(store)
            store.remove_fragment(("A", 1))
            _assert_block_directories_match(store)
            store.close()


# ----------------------------------------------------------------------
# the delta+varint block codec
# ----------------------------------------------------------------------
class TestBlockCodec:
    @RELAXED
    @given(values=st.lists(st.integers(min_value=0, max_value=2**40), max_size=30))
    def test_uvarint_round_trip(self, values):
        from repro.store.blocks import decode_uvarint, encode_uvarint

        out = bytearray()
        for value in values:
            encode_uvarint(value, out)
        blob = bytes(out)
        position = 0
        decoded = []
        for _ in values:
            value, position = decode_uvarint(blob, position)
            decoded.append(value)
        assert decoded == values
        assert position == len(blob)

    def test_uvarint_rejects_negative_and_truncated(self):
        from repro.store.blocks import decode_uvarint, encode_uvarint

        with pytest.raises(ValueError):
            encode_uvarint(-1, bytearray())
        with pytest.raises(ValueError, match="truncated"):
            decode_uvarint(b"\x80", 0)
        with pytest.raises(ValueError, match="truncated"):
            decode_uvarint(b"", 0)

    @RELAXED
    @given(
        entries=st.lists(
            st.tuples(
                st.text(max_size=8),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=40,
        )
    )
    def test_block_round_trip(self, entries):
        from repro.store.blocks import decode_block, encode_block
        from repro.store.disk import decode_identifier, encode_identifier
        from repro.text.inverted_index import Posting

        postings = tuple(
            Posting((name, index), occurrences)
            for name, index, occurrences in sorted(entries, key=lambda entry: -entry[2])
        )
        blob = encode_block(postings, encode_identifier)
        assert decode_block(blob, decode_identifier) == postings

    def test_encode_block_rejects_ascending_occurrences(self):
        from repro.store.blocks import encode_block
        from repro.store.disk import encode_identifier
        from repro.text.inverted_index import Posting

        postings = (Posting(("A", 1), 1), Posting(("B", 2), 5))
        with pytest.raises(ValueError, match="occurrence-descending"):
            encode_block(postings, encode_identifier)

    @RELAXED
    @given(data=st.binary(max_size=60))
    def test_decode_block_never_crashes_on_garbage(self, data):
        """Corrupt BLOBs raise ValueError — never hang, never crash."""
        from repro.store.blocks import decode_block
        from repro.store.disk import decode_identifier

        try:
            decode_block(data, decode_identifier)
        except ValueError:
            pass

    @RELAXED
    @given(
        pairs=st.lists(
            st.tuples(st.text(min_size=1, max_size=10), st.integers(min_value=0, max_value=500)),
            max_size=20,
        )
    )
    def test_fragment_terms_round_trip_keeps_the_maximum(self, pairs):
        from repro.store.disk import decode_fragment_terms, encode_fragment_terms
        from repro.store.mutations import term_vector

        # duplicate keywords all count towards the size; the stored vector
        # keeps each keyword once, at its highest count, in first-seen order
        size, vector = term_vector(pairs)
        assert size == sum(occurrences for _keyword, occurrences in pairs)
        expected = {}
        for keyword, occurrences in pairs:
            expected[keyword] = max(occurrences, expected.get(keyword, 0))
        assert vector == {keyword: count for keyword, count in expected.items() if count}
        blob = encode_fragment_terms(vector)
        assert list(decode_fragment_terms(blob).items()) == list(vector.items())
        with pytest.raises(ValueError):
            decode_fragment_terms(blob + b"\x85")


# ----------------------------------------------------------------------
# schema version check
# ----------------------------------------------------------------------
class TestDiskSchemaVersion:
    def test_v1_file_is_refused_by_writer_and_reader(self, tmp_path):
        from repro.store import StoreError

        path = str(tmp_path / "v1.sqlite")
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version = 1")
        connection.commit()
        connection.close()
        for read_only in (False, True):
            with pytest.raises(StoreError, match="schema version 1"):
                DiskStore(path, create=False, read_only=read_only)
