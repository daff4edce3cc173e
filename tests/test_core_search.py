"""Tests for relevance scoring, URL formulation and the top-k search (Algorithm 1)."""

import pytest

from repro.core.engine import DashEngine
from repro.core.fragments import derive_fragments, fragment_sizes, identifier_order
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.scoring import DashScorer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulationError, UrlFormulator


@pytest.fixture(scope="module")
def built(fooddb, search_query, search_spec):
    fragments = derive_fragments(search_query, fooddb)
    index = InvertedFragmentIndex.from_fragments(fragments)
    graph = FragmentGraph.build(search_query, fragment_sizes(fragments))
    formulator = UrlFormulator(search_query, search_spec, "www.example.com/Search")
    searcher = TopKSearcher(index, graph, formulator)
    return index, graph, formulator, searcher


class TestDashScorer:
    def test_relevant_fragments_for_burger(self, built):
        index, _graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger"])
        assert set(scorer.relevant_fragments()) == {
            ("American", 10), ("American", 12), ("Thai", 10),
        }

    def test_single_fragment_score_matches_example7(self, built):
        """Example 7: TF of (American, 10) for "burger" is 2/8."""
        index, _graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger"])
        idf = index.idf("burger")
        assert scorer.score([("American", 10)]) == pytest.approx((2 / 8) * idf)
        assert scorer.score([("Thai", 10)]) == pytest.approx((1 / 10) * idf)

    def test_merged_page_score_matches_example7(self, built):
        """The merged (American, (10, 12)) page has TF 3/25."""
        index, _graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger"])
        merged = [("American", 10), ("American", 12)]
        assert scorer.score(merged) == pytest.approx((3 / 25) * index.idf("burger"))

    def test_expansion_never_raises_score_for_single_keyword(self, built):
        index, graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger"])
        single = scorer.score([("American", 10)])
        expanded = scorer.score([("American", 10), ("American", 12)])
        assert expanded <= single

    def test_multi_keyword_score(self, built):
        index, _graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger", "fries"])
        assert scorer.score([("American", 12)]) > scorer.score([("American", 10)]) * 0  # defined
        assert scorer.page_occurrences([("American", 12)]) == {"burger": 1, "fries": 1}

    def test_group_totals_are_kept_per_grouping(self, built):
        """A second grouping function gets its own totals, not the first's."""
        index, graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["burger"])
        by_group = scorer.group_totals(graph.group_key)
        assert sorted(by_group) == [
            ((("American", 10), ("American", 12)), (3,)),
            ((("Thai", 10),), (1,)),
        ]
        assert scorer.group_totals(graph.group_key) is by_group
        assert sorted(scorer.group_totals(lambda identifier: identifier)) == [
            ((("American", 10),), (2,)),
            ((("American", 12),), (1,)),
            ((("Thai", 10),), (1,)),
        ]

    def test_unknown_keywords_score_zero(self, built):
        index, _graph, _formulator, _searcher = built
        scorer = DashScorer(index, ["zzz"])
        assert scorer.relevant_fragments() == ()
        assert scorer.score([("American", 10)]) == 0.0


class TestUrlFormulator:
    def test_single_fragment(self, built):
        _index, _graph, formulator, _searcher = built
        assert formulator.url_for_fragments([("Thai", 10)]) == (
            "www.example.com/Search?c=Thai&l=10&u=10"
        )

    def test_merged_fragments_use_min_max(self, built):
        _index, _graph, formulator, _searcher = built
        url = formulator.url_for_fragments([("American", 10), ("American", 12)])
        assert url == "www.example.com/Search?c=American&l=10&u=12"

    def test_bindings_for_fragments(self, built):
        _index, _graph, formulator, _searcher = built
        bindings = formulator.bindings_for_fragments([("American", 12), ("American", 9)])
        assert bindings == {"cuisine": "American", "min": 9, "max": 12}

    def test_conflicting_equality_values_rejected(self, built):
        _index, _graph, formulator, _searcher = built
        with pytest.raises(UrlFormulationError):
            formulator.bindings_for_fragments([("American", 10), ("Thai", 10)])

    def test_empty_fragment_set_rejected(self, built):
        _index, _graph, formulator, _searcher = built
        with pytest.raises(UrlFormulationError):
            formulator.bindings_for_fragments([])

    def test_arity_mismatch_rejected(self, built):
        _index, _graph, formulator, _searcher = built
        with pytest.raises(UrlFormulationError):
            formulator.bindings_for_fragments([("American",)])

    def test_url_regenerates_exactly_the_fragments(self, fooddb, search_query, built, search_application):
        """Round trip: the URL formulated for a fragment set generates a page
        whose record count equals the fragments' total record count."""
        _index, _graph, formulator, _searcher = built
        fragments = derive_fragments(search_query, fooddb)
        chosen = [("American", 10), ("American", 12)]
        url = formulator.url_for_fragments(chosen)
        page = search_application.generate_page(fooddb, url.split("?", 1)[1])
        assert page.record_count == sum(fragments[f].record_count for f in chosen)


class TestTopKSearch:
    def test_example7_burger_search(self, built):
        """k=2, s=20, keyword "burger" returns the two URLs of Example 7."""
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["burger"], k=2, size_threshold=20)
        urls = {result.url for result in results}
        assert urls == {
            "www.example.com/Search?c=American&l=10&u=12",
            "www.example.com/Search?c=Thai&l=10&u=10",
        }

    def test_results_sorted_by_score(self, built):
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["burger"], k=5, size_threshold=20)
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_results(self, built):
        _index, _graph, _formulator, searcher = built
        assert len(searcher.search(["burger"], k=1, size_threshold=20)) == 1

    def test_small_threshold_returns_single_fragments(self, built):
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["burger"], k=3, size_threshold=1)
        assert all(len(result.fragments) == 1 for result in results)

    def test_large_threshold_expands_to_whole_component(self, built):
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["burger"], k=2, size_threshold=1000)
        # With s larger than any reachable page, pending pages keep expanding
        # until no combinable fragment remains; the American seed therefore
        # ends up covering its whole chain before it becomes a result.
        american = next(r for r in results if r.bindings["cuisine"] == "American")
        assert len(american.fragments) == 4
        assert american.size == 8 + 8 + 17 + 8
        assert american.url == "www.example.com/Search?c=American&l=9&u=18"

    def test_unknown_keyword_returns_empty(self, built):
        _index, _graph, _formulator, searcher = built
        assert searcher.search(["nonexistent"], k=5, size_threshold=100) == []

    def test_multi_keyword_search(self, built):
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["coffee", "fries"], k=4, size_threshold=10)
        found = {fragment for result in results for fragment in result.fragments}
        assert ("American", 9) in found and ("American", 12) in found

    def test_invalid_parameters(self, built):
        index, graph, formulator, searcher = built
        with pytest.raises(ValueError):
            searcher.search(["burger"], k=0)
        with pytest.raises(ValueError):
            searcher.search(["burger"], size_threshold=0)
        with pytest.raises(ValueError):  # the block-bounded mode is gone, not ignored
            TopKSearcher(index, graph, formulator, early_termination=True)

    def test_statistics_populated(self, built):
        _index, _graph, _formulator, searcher = built
        searcher.search(["burger"], k=2, size_threshold=20)
        stats = searcher.last_statistics
        assert stats.seed_fragments == 3
        assert stats.results == 2
        assert stats.elapsed_seconds >= 0

    def test_result_contains_scalar_identifier_regression(self, built):
        """``x in result`` with a non-iterable x must answer False, not raise."""
        _index, _graph, _formulator, searcher = built
        result = searcher.search(["burger"], k=1, size_threshold=20)[0]
        assert 10 not in result
        assert None not in result
        assert ("American", 10) in result or ("Thai", 10) in result

    def test_results_never_repeat_fragment_combinations(self, built):
        _index, _graph, _formulator, searcher = built
        results = searcher.search(["burger"], k=10, size_threshold=5)
        combos = [result.fragments for result in results]
        assert len(combos) == len(set(combos))


class _NoUrls:
    """Stands in for the UrlFormulator where identifiers mix component types."""

    def bindings_for_fragments(self, fragments):
        return {}

    def url_for_fragments(self, fragments):
        return ""


def _one_store_searcher(search_query, fragments, formulator=None):
    """Index and graph on one store, as an engine wires them."""
    index = InvertedFragmentIndex()
    for identifier, term_frequencies in fragments.items():
        index.add_fragment(identifier, term_frequencies)
    index.finalize()
    sizes = {identifier: index.fragment_size(identifier) for identifier in fragments}
    graph = FragmentGraph.build(search_query, sizes, store=index.store)
    return index, graph, TopKSearcher(index, graph, formulator or _NoUrls())


class TestIdentifierCaches:
    """Order keys and neighbour lists: one ordering, one bounded owner."""

    def test_members_neighbours_and_ties_sort_alike_for_every_component_type(self, search_query):
        chain = [("X", None), ("X", True), ("X", 2), ("X", 2.5), ("X", "10"), ("X", "9")]
        fragments = {identifier: {"hot": 1 + at, "pad": 2} for at, identifier in enumerate(chain)}
        _index, graph, searcher = _one_store_searcher(search_query, fragments)
        assert graph.neighbors(("X", 2.5)) == (("X", 2), ("X", "10"))
        assert graph.connected_component(("X", "9")) == tuple(chain)

        stream = searcher.stream(["hot"], 1, 1000)
        heads = []
        while stream.bound_key() is not None:
            heads.append(stream.bound_key())
            stream.next_result(heads[-1])
        assert stream.results[0].fragments == tuple(chain)
        # the stream opens on its one group's token: every seed behind it
        _ceiling, tie, seeds = heads[0]
        assert tie == (-1, identifier_order(seeds[0])) and set(seeds) == set(chain)
        assert any(tie[0] == 1 for _score, tie, _members in heads[1:])
        for _score, tie, members in heads[1:]:
            keys = tuple(identifier_order(member) for member in members)
            assert keys == tuple(sorted(keys))
            assert tie == ((0, keys[0]) if len(members) == 1 else (1, keys))

    def test_tokens_seeds_and_pages_never_compare_member_tuples(self, search_query):
        """Mixed-type range values make member tuples incomparable (``None <
        True`` raises): every pair of queue entries, tokens included, must be
        decided by score and tie alone — even at equal scores."""
        values = [None, True, 2, 2.5, "10", "9"]
        fragments = {
            (group, value): {"hot": 1 + at, "pad": 2}
            for group in ("X", "Y")
            for at, value in enumerate(values)
        }
        _index, _graph, searcher = _one_store_searcher(search_query, fragments)
        with pytest.raises(TypeError):
            (("X", None),) < (("X", True),)
        stream = searcher.stream(["hot"], 2, 1000)
        seen = {}
        while stream.bound_key() is not None:
            for entry in stream._queue:
                seen[id(entry)] = entry
            stream.next_result(stream.bound_key())
        kinds = {tie[0] for _score, tie, _members in seen.values()}
        assert kinds == {-1, 0, 1}
        entries = list(seen.values())
        for _score, left_tie, left in entries:
            for _score, right_tie, right in entries:
                if left_tie != right_tie:  # equal ties: the same page by two routes
                    assert ((0.0, left_tie, left) < (0.0, right_tie, right)) == (left_tie < right_tie)

    def test_caches_stay_bounded_across_insert_delete_rounds(self, search_query):
        fragments = {("Cuisine00", 5 + at): {"hot": 1, "pad": 3} for at in range(12)}
        index, graph, searcher = _one_store_searcher(search_query, fragments)
        for round_no in range(200):
            transient = ("Cuisine00", 100 + round_no)
            index.add_fragment(transient, {"hot": 2, "pad": 1})
            searcher.search(["hot"], k=3, size_threshold=40)
            index.remove_fragment(transient)
            searcher.search(["hot"], k=3, size_threshold=40)
            cache = searcher._identifiers
            bound = graph.fragment_count
            assert len(cache.orders) <= bound and len(cache.neighbors) <= bound
            # Every write moved the epoch: each search built its scorer
            # afresh, and the current cache holds only the last one.
            assert list(cache.scorers) == [("hot",)]
            lifetime = searcher.lifetime_statistics()
            assert (lifetime["scorer_builds"], lifetime["scorer_reuses"]) == (2 * round_no + 2, 0)
            assert transient not in cache.orders and transient not in cache.neighbors

    def test_streams_without_a_session_share_the_neighbour_cache(self, search_query):
        fragments = {("Cuisine00", 5 + at): {"hot": 1, "pad": 3} for at in range(6)}
        _index, _graph, searcher = _one_store_searcher(search_query, fragments)
        searcher.search(["hot"], k=2, size_threshold=40)
        filled = len(searcher._identifiers.neighbors)
        assert filled > 0
        routed = searcher.stream(["hot"], 2, 40, idf_overrides={"hot": 0.5})
        assert routed.next_result() is not None
        assert len(searcher._identifiers.neighbors) == filled
        # The overridden stream shares the neighbour lists, never the scorers.
        assert routed.scorer is not searcher._identifiers.scorers[("hot",)]
        lifetime = searcher.lifetime_statistics()
        assert (lifetime["scorer_builds"], lifetime["scorer_reuses"]) == (1, 0)
        searcher.search(["HOT", "hot"], k=2, size_threshold=40)
        assert searcher.lifetime_statistics()["scorer_reuses"] == 1

    def test_a_dropped_searcher_frees_its_store_without_the_cyclic_collector(self, search_query):
        import gc
        import weakref

        fragments = {("Cuisine00", 5 + at): {"hot": 1, "pad": 3} for at in range(6)}
        gc.collect()
        gc.disable()
        try:
            index, graph, searcher = _one_store_searcher(search_query, fragments)
            searcher.search(["hot"], k=2, size_threshold=40)
            assert searcher._identifiers.scorers  # a cached scorer holds group totals
            store = weakref.ref(index.store)
            del index, graph, searcher
            assert store() is None
        finally:
            gc.enable()


class TestSearchStreamBatching:
    """``next_results``: the router's batched merge advancement API."""

    @staticmethod
    def _comparable(results):
        return [(r.url, r.score, r.fragments, r.size) for r in results]

    def test_batch_matches_sequential_next_result(self, built):
        _index, _graph, _formulator, searcher = built
        batched = searcher.stream(["burger"], 5, 20)
        sequential = searcher.stream(["burger"], 5, 20)
        batch = batched.next_results(None, 3)
        singles = []
        for _ in range(3):
            result = sequential.next_result(None)
            if result is None:
                break
            singles.append(result)
        assert self._comparable(batch) == self._comparable(singles)

    def test_batch_respects_limit(self, built):
        # size_threshold=1 keeps every dequeue of a page a direct emission
        # (no expansion re-enqueues), so a page at the head must emit within
        # its own limit; a group token at the head opens its group and emits
        # nothing, because every seed sorts after its group's ceiling.
        # Either way everything left behind exceeds the limit.
        _index, _graph, _formulator, searcher = built
        stream = searcher.stream(["burger"], 5, 1)
        assert stream.bound_key()[1][0] == -1
        assert stream.pending_candidates == 0  # tokens are not scored candidates
        emitted = []
        while stream.bound_key() is not None:
            head = stream.bound_key()
            pending = stream.pending_candidates
            batch = stream.next_results(head, 5)
            if head[1][0] == -1:
                assert batch == [] and stream.pending_candidates > pending
            else:
                assert len(batch) >= 1
            emitted.extend(batch)
            refreshed = stream.bound_key()
            assert refreshed is None or refreshed > head
        assert len(emitted) == 3 and stream.pending_candidates == 0

    def test_batch_stops_at_max_results(self, built):
        _index, _graph, _formulator, searcher = built
        stream = searcher.stream(["burger"], 5, 20)
        assert len(stream.next_results(None, 2)) == 2

    def test_empty_stream_returns_empty_batch(self, built):
        _index, _graph, _formulator, searcher = built
        stream = searcher.stream(["nonexistent"], 5, 20)
        assert stream.next_results(None, 10) == []


class TestEngineEndToEnd:
    def test_engine_search_urls_generate_relevant_pages(self, fooddb, fooddb_engine, fooddb_server):
        """The URLs Dash suggests really produce db-pages containing the keyword."""
        results = fooddb_engine.search(["burger"], k=2, size_threshold=20)
        assert results
        for result in results:
            page = fooddb_server.get(result.url)
            assert page.contains_keyword("burger")

    def test_engine_statistics(self, fooddb_engine):
        stats = fooddb_engine.statistics()
        assert stats["fragments"] == 5
        assert stats["algorithm"] == "integrated"
        assert stats["graph_edges"] == 3

    def test_engine_rejects_unknown_algorithm(self, fooddb, search_application):
        from repro.core.engine import DashEngineError

        with pytest.raises(DashEngineError):
            DashEngine.build(search_application, fooddb, algorithm="magic")

    def test_engine_analysis_path_matches_declared_query(self, fooddb, search_application):
        engine = DashEngine.build(search_application, fooddb, analyze_source=True)
        assert engine.application.query.selection_attributes == ("cuisine", "budget")
        assert engine.build_report.analyzed is not None
