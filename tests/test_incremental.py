"""Tests for incremental fragment-index maintenance under database updates."""

import pytest

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.incremental import IncrementalMaintainer, IncrementalMaintenanceError
from repro.datasets.fooddb import build_fooddb, fooddb_search_query


def _index_as_dict(index):
    return {
        keyword: tuple((tuple(p.document_id), p.term_frequency) for p in postings)
        for keyword, postings in index.iter_items()
    }


@pytest.fixture
def maintained():
    """A freshly built (database, query, index, graph, maintainer) bundle."""
    database = build_fooddb()
    query = fooddb_search_query(database)
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=index.store)
    maintainer = IncrementalMaintainer(query, database, index, graph)
    return database, query, index, graph, maintainer


def _rebuilt_index(query, database):
    return InvertedFragmentIndex.from_fragments(derive_fragments(query, database))


class TestInserts:
    def test_insert_comment_updates_existing_fragment(self, maintained):
        database, query, index, graph, maintainer = maintained
        affected = maintainer.insert(
            "comment", ("207", "001", "120", "Great milkshake", "07/12")
        )
        assert affected == (("American", 10),)
        assert index.term_frequency("milkshake", ("American", 10)) == 1
        assert _index_as_dict(index) == _index_as_dict(_rebuilt_index(query, database))
        assert graph.keyword_count(("American", 10)) == index.fragment_size(("American", 10))

    def test_insert_restaurant_creates_new_fragment_and_graph_node(self, maintained):
        database, query, index, graph, maintainer = maintained
        affected = maintainer.insert("restaurant", ("008", "Pasta Palace", "Italian", 14, 4.6))
        assert affected == (("Italian", 14),)
        assert index.fragment_size(("Italian", 14)) > 0
        assert graph.has_fragment(("Italian", 14))
        assert graph.neighbors(("Italian", 14)) == ()
        assert _index_as_dict(index) == _index_as_dict(_rebuilt_index(query, database))

    def test_insert_restaurant_extends_existing_chain(self, maintained):
        database, query, index, graph, maintainer = maintained
        maintainer.insert("restaurant", ("009", "Grill House", "American", 11, 3.5))
        assert graph.are_connected(("American", 10), ("American", 11))
        assert graph.are_connected(("American", 11), ("American", 12))
        assert not graph.are_connected(("American", 10), ("American", 12))

    def test_insert_into_non_operand_relation_rejected(self, maintained):
        _database, _query, _index, _graph, maintainer = maintained
        with pytest.raises(IncrementalMaintenanceError):
            maintainer.insert("unrelated", ("x",))


class TestDeletes:
    def test_delete_comment_shrinks_fragment(self, maintained):
        database, query, index, _graph, maintainer = maintained
        before = index.fragment_size(("American", 12))
        affected = maintainer.delete("comment", lambda record: record["cid"] == "203")
        assert ("American", 12) in affected
        assert index.fragment_size(("American", 12)) < before
        assert _index_as_dict(index) == _index_as_dict(_rebuilt_index(query, database))

    def test_delete_last_restaurant_of_fragment_removes_node(self, maintained):
        database, query, index, graph, maintainer = maintained
        maintainer.delete("restaurant", lambda record: record["rid"] == "007")
        assert ("American", 9) not in index.fragment_ids()
        assert not graph.has_fragment(("American", 9))
        assert _index_as_dict(index) == _index_as_dict(_rebuilt_index(query, database))

    def test_delete_middle_fragment_reconnects_chain(self, maintained):
        database, query, _index, graph, maintainer = maintained
        maintainer.delete("restaurant", lambda record: record["budget"] == 10 and record["cuisine"] == "American")
        assert not graph.has_fragment(("American", 10))
        assert graph.are_connected(("American", 9), ("American", 12))

    def test_delete_nothing_is_a_noop(self, maintained):
        database, query, index, _graph, maintainer = maintained
        before = _index_as_dict(index)
        affected = maintainer.delete("comment", lambda record: False)
        assert affected == ()
        assert _index_as_dict(index) == before


class TestMaintenanceBookkeeping:
    def test_counters(self, maintained):
        _database, _query, _index, _graph, maintainer = maintained
        maintainer.insert("comment", ("208", "002", "171", "salty fries", "02/12"))
        maintainer.delete("comment", lambda record: record["cid"] == "208")
        assert maintainer.updates_applied == 2
        assert maintainer.fragments_touched >= 2

    def test_sequence_of_updates_stays_consistent_with_rebuild(self, maintained):
        database, query, index, _graph, maintainer = maintained
        maintainer.insert("restaurant", ("010", "Soup Stop", "Thai", 10, 4.0))
        maintainer.insert("comment", ("209", "010", "120", "lovely soup", "01/12"))
        maintainer.delete("comment", lambda record: record["cid"] == "201")
        maintainer.insert("customer", ("200", "Zoe"))
        maintainer.insert("comment", ("210", "005", "200", "spicy curry", "03/12"))
        assert _index_as_dict(index) == _index_as_dict(_rebuilt_index(query, database))
