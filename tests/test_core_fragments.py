"""Tests for db-page fragments, the inverted fragment index and the fragment graph."""

from hypothesis import given, strategies as st
import pytest

from repro.core.fragment_graph import FragmentGraph, FragmentGraphError
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import (
    average_keywords_per_fragment,
    derive_fragments,
    fragment_sizes,
    identifier_order,
)


@pytest.fixture(scope="module")
def fooddb_fragments(fooddb, search_query):
    return derive_fragments(search_query, fooddb)


@pytest.fixture(scope="module")
def fooddb_index(fooddb_fragments):
    return InvertedFragmentIndex.from_fragments(fooddb_fragments)


@pytest.fixture(scope="module")
def fooddb_graph(search_query, fooddb_fragments):
    return FragmentGraph.build(search_query, fragment_sizes(fooddb_fragments))


class TestFragmentDerivation:
    def test_identifiers_match_figure5(self, fooddb_fragments):
        assert set(fooddb_fragments) == {
            ("American", 9), ("American", 10), ("American", 12), ("American", 18), ("Thai", 10),
        }

    def test_sizes_match_figure9(self, fooddb_fragments):
        sizes = fragment_sizes(fooddb_fragments)
        assert sizes[("American", 9)] == 8
        assert sizes[("American", 10)] == 8
        assert sizes[("American", 12)] == 17
        assert sizes[("American", 18)] == 8
        assert sizes[("Thai", 10)] == 10

    def test_american_12_has_three_records(self, fooddb_fragments):
        assert fooddb_fragments[("American", 12)].record_count == 3

    def test_burger_occurrences_match_figure6(self, fooddb_fragments):
        assert fooddb_fragments[("American", 10)].term_frequency("burger") == 2
        assert fooddb_fragments[("American", 12)].term_frequency("burger") == 1
        assert fooddb_fragments[("Thai", 10)].term_frequency("burger") == 1

    def test_fragments_partition_the_joined_result(self, fooddb, search_query, fooddb_fragments):
        joined = search_query.join_operands(fooddb)
        assert sum(f.record_count for f in fooddb_fragments.values()) == len(joined)

    def test_average_keywords(self, fooddb_fragments):
        assert average_keywords_per_fragment(fooddb_fragments) == pytest.approx(51 / 5)

    def test_fragment_text_contains_projected_values_only(self, fooddb_fragments):
        text = fooddb_fragments[("American", 9)].text()
        assert "Bond's Cafe" in text
        assert "American" not in text  # cuisine is a selection attribute, not projected

    def test_every_page_is_a_union_of_fragments(self, fooddb, search_query, fooddb_fragments):
        """Definition 2: any db-page equals the disjoint union of the fragments
        whose identifiers satisfy its query-string bindings."""
        bindings = {"cuisine": "American", "min": 10, "max": 15}
        page = search_query.evaluate(fooddb, bindings)
        matching = [
            fragment for identifier, fragment in fooddb_fragments.items()
            if identifier[0] == "American" and 10 <= identifier[1] <= 15
        ]
        assert sum(fragment.record_count for fragment in matching) == len(page)


_components = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3)
)


class TestIdentifierOrder:
    """The one ordering behind member tuples, neighbour lists and queue ties."""

    def test_type_tiers_then_value(self):
        identifiers = [("X", "9"), ("X", 2.5), ("X", None), ("X", "10"), ("X", 2), ("X", True)]
        assert sorted(identifiers, key=identifier_order) == [
            ("X", None), ("X", True), ("X", 2), ("X", 2.5), ("X", "10"), ("X", "9"),
        ]

    def test_equal_identifiers_share_a_key(self):
        # One fragment as far as any dict or set is concerned.
        assert identifier_order((1,)) == identifier_order((True,)) == identifier_order((1.0,))

    def test_lookalikes_and_huge_integers_stay_apart(self):
        identifiers = [
            (None,), ("",), ("None",), (True,), ("True",), (0,), ("0",), ("1",), (1.5,), ("1.5",),
            (2**53,), (2**53 + 1,),
        ]
        assert len({identifier_order(identifier) for identifier in identifiers}) == len(identifiers)

    @given(
        pair=st.integers(min_value=1, max_value=3).flatmap(
            lambda width: st.tuples(
                st.tuples(*[_components] * width), st.tuples(*[_components] * width)
            )
        )
    )
    def test_keys_are_totally_ordered_and_collide_only_on_equal_identifiers(self, pair):
        left, right = pair
        left_key, right_key = identifier_order(left), identifier_order(right)
        assert (left_key == right_key) == (left == right)
        assert (left_key < right_key) + (right_key < left_key) + (left_key == right_key) == 1


class TestInvertedFragmentIndex:
    def test_postings_match_figure6(self, fooddb_index):
        burger = [(tuple(p.document_id), p.term_frequency) for p in fooddb_index.postings("burger")]
        assert (("American", 10), 2) == burger[0]
        assert set(burger) == {
            (("American", 10), 2), (("American", 12), 1), (("Thai", 10), 1),
        }
        assert [(tuple(p.document_id), p.term_frequency) for p in fooddb_index.postings("coffee")] == [
            (("American", 9), 1)
        ]

    def test_fragment_frequency_and_idf(self, fooddb_index):
        assert fooddb_index.fragment_frequency("burger") == 3
        assert fooddb_index.idf("burger") == pytest.approx(1 / 3)
        assert fooddb_index.idf("unseen-word") == 0.0

    def test_fragment_sizes_via_index(self, fooddb_index):
        assert fooddb_index.fragment_size(("American", 12)) == 17
        assert fooddb_index.fragment_size(("Nope", 1)) == 0

    def test_from_posting_lists_equals_from_fragments(self, fooddb_fragments, fooddb_index):
        posting_lists = {
            keyword: [(p.document_id, p.term_frequency) for p in postings]
            for keyword, postings in fooddb_index.iter_items()
        }
        rebuilt = InvertedFragmentIndex.from_posting_lists(posting_lists)
        assert dict(rebuilt.iter_items()) == dict(fooddb_index.iter_items())
        assert rebuilt.fragment_sizes == fooddb_index.fragment_sizes

    def test_replace_and_remove_fragment(self, fooddb_fragments):
        index = InvertedFragmentIndex.from_fragments(fooddb_fragments)
        index.replace_fragment(("American", 9), {"coffee": 5})
        assert index.term_frequency("coffee", ("American", 9)) == 5
        index.remove_fragment(("American", 9))
        assert index.fragment_size(("American", 9)) == 0
        assert ("American", 9) not in index.fragment_ids()

    def test_duplicate_fragment_rejected(self, fooddb_fragments):
        index = InvertedFragmentIndex.from_fragments(fooddb_fragments)
        with pytest.raises(ValueError):
            index.add_fragment(("American", 9), {"x": 1})

    def test_average_keywords_per_fragment(self, fooddb_index):
        assert fooddb_index.average_keywords_per_fragment() == pytest.approx(51 / 5)

    def test_postings_sorted_descending(self, fooddb_index):
        for keyword, postings in fooddb_index.iter_items():
            frequencies = [posting.term_frequency for posting in postings]
            assert frequencies == sorted(frequencies, reverse=True)


class TestFragmentGraph:
    def test_figure9_topology(self, fooddb_graph):
        assert fooddb_graph.fragment_count == 5
        assert fooddb_graph.edge_count == 3
        assert fooddb_graph.are_connected(("American", 9), ("American", 10))
        assert fooddb_graph.are_connected(("American", 10), ("American", 12))
        assert fooddb_graph.are_connected(("American", 12), ("American", 18))
        assert not fooddb_graph.are_connected(("American", 10), ("American", 18))
        assert fooddb_graph.neighbors(("Thai", 10)) == ()

    def test_node_values_are_keyword_counts(self, fooddb_graph):
        assert fooddb_graph.keyword_count(("American", 9)) == 8
        assert fooddb_graph.keyword_count(("American", 12)) == 17

    def test_connected_component(self, fooddb_graph):
        component = fooddb_graph.connected_component(("American", 10))
        assert len(component) == 4
        assert ("Thai", 10) not in component

    def test_incremental_insertion_splits_edges(self, search_query):
        graph = FragmentGraph(search_query)
        graph.add_fragment(("American", 9), 8)
        graph.add_fragment(("American", 18), 8)
        assert graph.are_connected(("American", 9), ("American", 18))
        graph.add_fragment(("American", 12), 17)
        assert not graph.are_connected(("American", 9), ("American", 18))
        assert graph.are_connected(("American", 9), ("American", 12))
        assert graph.are_connected(("American", 12), ("American", 18))

    def test_incremental_equals_presorted(self, search_query, fooddb_fragments):
        sizes = fragment_sizes(fooddb_fragments)
        incremental = FragmentGraph.build(search_query, sizes, presorted=False)
        presorted = FragmentGraph.build(search_query, sizes, presorted=True)
        for identifier in sizes:
            assert set(incremental.neighbors(identifier)) == set(presorted.neighbors(identifier))

    def test_presorting_saves_comparisons(self, search_query, fooddb_fragments):
        sizes = fragment_sizes(fooddb_fragments)
        incremental = FragmentGraph.build(search_query, sizes, presorted=False)
        presorted = FragmentGraph.build(search_query, sizes, presorted=True)
        assert presorted.comparisons <= incremental.comparisons

    def test_remove_fragment_reconnects_chain(self, search_query, fooddb_fragments):
        graph = FragmentGraph.build(search_query, fragment_sizes(fooddb_fragments))
        graph.remove_fragment(("American", 12))
        assert graph.are_connected(("American", 10), ("American", 18))

    def test_duplicate_fragment_rejected(self, search_query):
        graph = FragmentGraph(search_query)
        graph.add_fragment(("American", 9), 8)
        with pytest.raises(FragmentGraphError):
            graph.add_fragment(("American", 9), 8)

    def test_unknown_fragment_raises(self, fooddb_graph):
        with pytest.raises(FragmentGraphError):
            fooddb_graph.neighbors(("French", 1))

    def test_build_with_report(self, search_query, fooddb_fragments):
        graph, report = FragmentGraph.build_with_report(search_query, fragment_sizes(fooddb_fragments))
        assert report.fragment_count == 5
        assert report.edge_count == graph.edge_count
        assert report.average_keywords == pytest.approx(51 / 5)
        assert report.build_seconds >= 0
