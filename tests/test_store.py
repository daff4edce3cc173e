"""The pluggable fragment-store layer: backend parity and store semantics.

The load-bearing guarantee is that the storage backend is *invisible*: the
persistent :class:`DiskStore` must return exactly the search results, scores
and incremental-maintenance outcomes of the :class:`InMemoryStore`.  The parity suite checks that on the fooddb running
example, on randomized fooddb-shaped databases (hypothesis) and on a tiny
TPC-H workload; snapshot round-trips must preserve the whole store state
(both sections plus the epoch clock) across every backend pairing.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.incremental import IncrementalMaintainer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import (
    build_fooddb,
    comment_schema,
    customer_schema,
    fooddb_search_query,
    restaurant_schema,
)
from repro.db.database import Database
from repro.db.sqlparse import parse_psj_query
from repro.store import (
    DiskStore,
    FragmentStore,
    InMemoryStore,
    StoreError,
    resolve_store,
)
from repro.webapp.request import QueryStringSpec


def _tmp_disk_store() -> DiskStore:
    """A DiskStore over a fresh temp file (the OS reclaims the tmp dir)."""
    return DiskStore(os.path.join(tempfile.mkdtemp(prefix="repro-store-test-"), "store.sqlite"))
SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
RELAXED = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _build_searcher(query, fragments, store, uri="example.com/Search", spec=SPEC):
    index = InvertedFragmentIndex.from_fragments(fragments, store=store)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=store)
    return index, graph, TopKSearcher(index, graph, UrlFormulator(query, spec, uri))


def _result_tuples(results):
    return [(r.url, r.score, r.fragments, r.size) for r in results]


def _index_as_dict(index):
    return {
        keyword: tuple((tuple(p.document_id), p.term_frequency) for p in postings)
        for keyword, postings in index.iter_items()
    }


# ----------------------------------------------------------------------
# strategies (fooddb-shaped random databases, as in test_properties)
# ----------------------------------------------------------------------
cuisines = st.sampled_from(["American", "Thai", "Italian", "Mexican", "Nepali"])
budgets = st.integers(min_value=5, max_value=30)
words = st.sampled_from(
    ["burger", "fries", "coffee", "soup", "noodle", "spicy", "bland", "great", "awful", "crispy"]
)
comments = st.lists(words, min_size=1, max_size=5).map(" ".join)


@st.composite
def food_databases(draw):
    database = Database("prop-fooddb")
    database.create_relation(restaurant_schema())
    database.create_relation(customer_schema())
    database.create_relation(comment_schema())
    num_restaurants = draw(st.integers(min_value=1, max_value=8))
    num_customers = draw(st.integers(min_value=1, max_value=3))
    for index in range(num_restaurants):
        database.insert(
            "restaurant",
            (f"r{index}", draw(comments), draw(cuisines), draw(budgets), 4.0),
        )
    for index in range(num_customers):
        database.insert("customer", (f"u{index}", draw(words)))
    for index in range(draw(st.integers(min_value=0, max_value=10))):
        database.insert(
            "comment",
            (
                f"c{index}",
                f"r{draw(st.integers(min_value=0, max_value=num_restaurants - 1))}",
                f"u{draw(st.integers(min_value=0, max_value=num_customers - 1))}",
                draw(comments),
                "01/01",
            ),
        )
    return database


def _prop_query(database):
    return parse_psj_query(
        "SELECT name, budget, rate, comment, uname, date "
        "FROM (restaurant LEFT JOIN comment) JOIN customer "
        "WHERE cuisine = $cuisine AND budget BETWEEN $min AND $max",
        database,
        name="Search",
    )


# ----------------------------------------------------------------------
# store semantics
# ----------------------------------------------------------------------
class TestResolveStore:
    def test_defaults_to_memory(self):
        assert isinstance(resolve_store(None), InMemoryStore)
        assert isinstance(resolve_store("memory"), InMemoryStore)

    def test_engine_rejects_populated_store(self, fooddb, search_application):
        from repro.core.engine import DashEngine, DashEngineError

        store = InMemoryStore()
        DashEngine.build(search_application, fooddb, store=store)
        with pytest.raises(DashEngineError):
            DashEngine.build(search_application, fooddb, store=store)

    def test_instances_and_factories_pass_through(self):
        store = InMemoryStore()
        assert resolve_store(store) is store
        assert isinstance(resolve_store(InMemoryStore), InMemoryStore)

    def test_invalid_specs_rejected(self):
        with pytest.raises(StoreError):
            resolve_store("bogus")
        with pytest.raises(StoreError):
            resolve_store(lambda: "not a store")
        # a store is one partition: sharding specs are unknown specs
        with pytest.raises(StoreError):
            resolve_store("sharded")
        with pytest.raises(StoreError):
            resolve_store(3)

    def test_disk_spec(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = resolve_store("disk", path=path)
        assert isinstance(store, DiskStore)
        assert store.path == path
        store.close()
        # without a path the database lands in a fresh temp file
        anonymous = resolve_store("disk")
        assert isinstance(anonymous, DiskStore)
        assert os.path.exists(anonymous.path)
        anonymous.close()

    def test_disk_spec_conflicts(self, tmp_path):
        with pytest.raises(StoreError):
            resolve_store("memory", path=str(tmp_path / "x.sqlite"))
        with pytest.raises(StoreError):
            resolve_store(None, path=str(tmp_path / "x.sqlite"))
        with pytest.raises(StoreError):
            DiskStore(str(tmp_path / "missing.sqlite"), create=False)


@pytest.mark.parametrize(
    "make_store",
    [InMemoryStore, _tmp_disk_store],
    ids=["memory", "disk"],
)
class TestStoreSemantics:
    def test_remove_fragment_touches_only_affected_lists(self, make_store):
        store = make_store()
        store.add_posting("shared", ("a", 1), 3)
        store.add_posting("shared", ("b", 2), 2)
        store.add_posting("only-a", ("a", 1), 1)
        store.remove_fragment(("a", 1))
        assert not store.has_fragment(("a", 1))
        assert store.fragment_frequency("only-a") == 0
        assert "only-a" not in store.vocabulary()
        assert [tuple(p) for p in store.postings("shared")] == [(("b", 2), 2)]
        assert store.fragment_size(("b", 2)) == 2

    def test_replace_fragment_is_a_single_swap(self, make_store):
        store = make_store()
        store.add_posting("old", ("a", 1), 5)
        store.replace_fragment(("a", 1), {"new": 2, "zero": 0})
        assert store.fragment_term_frequencies(("a", 1)) == {"new": 2}
        assert store.fragment_size(("a", 1)) == 2
        assert store.fragment_frequency("old") == 0

    def test_replace_fragment_accumulates_duplicate_pairs(self, make_store):
        # pair form: keywords that canonicalise to the same term must sum,
        # exactly as repeated add_posting calls would
        store = make_store()
        store.add_posting("stale", ("a", 1), 9)
        store.replace_fragment(("a", 1), [("foo", 2), ("foo", 3)])
        assert store.fragment_size(("a", 1)) == 5
        assert [tuple(p) for p in store.postings("foo")] == [(("a", 1), 3), (("a", 1), 2)]

    def test_graph_section_independent_of_postings(self, make_store):
        store = make_store()
        store.add_node(("a", 1), 8)
        store.add_node(("a", 2), 9)
        store.add_edge(("a", 1), ("a", 2))
        assert store.edge_count() == 1
        assert set(store.neighbors(("a", 1))) == {("a", 2)}
        assert store.fragment_count() == 0  # postings section untouched
        store.remove_edge(("a", 1), ("a", 2))
        assert store.edge_count() == 0


def test_index_replace_matches_add_for_case_colliding_keys():
    """Keys that lower-case to the same keyword accumulate on both paths."""
    reference = InvertedFragmentIndex()
    reference.add_fragment(("a", 1), {"Foo": 2, "foo": 3})
    reference.finalize()
    replaced = InvertedFragmentIndex()
    replaced.add_fragment(("a", 1), {"x": 1})
    replaced.replace_fragment(("a", 1), {"Foo": 2, "foo": 3})
    replaced.finalize()
    assert _index_as_dict(replaced) == _index_as_dict(reference)
    assert replaced.fragment_size(("a", 1)) == 5


class TestSearchResultContains:
    def test_scalar_lookup_returns_false(self, fooddb, search_query, search_spec):
        fragments = derive_fragments(search_query, fooddb)
        _index, _graph, searcher = _build_searcher(
            search_query, fragments, InMemoryStore(), "www.example.com/Search", search_spec
        )
        result = searcher.search(["burger"], k=1, size_threshold=20)[0]
        assert 10 not in result  # scalar: must not raise TypeError
        assert None not in result
        assert ("American", 10) in result
        assert ["American", 10] in result  # iterable identifiers still coerce


# ----------------------------------------------------------------------
# backend parity: the persistent disk store
# ----------------------------------------------------------------------
class TestDiskStoreParity:
    @pytest.fixture(scope="class")
    def workload(self):
        database = build_fooddb()
        query = fooddb_search_query(database)
        return database, query, derive_fragments(query, database)

    def test_search_parity(self, workload, tmp_path):
        _database, query, fragments = workload
        _, _, reference = _build_searcher(query, fragments, InMemoryStore())
        _, _, disk = _build_searcher(query, fragments, DiskStore(str(tmp_path / "s.sqlite")))
        for keywords in (["burger"], ["coffee", "fries"], ["spicy"], ["nonexistent"]):
            for k in (1, 3, 10):
                for s in (1, 20, 1000):
                    expected = _result_tuples(reference.search(keywords, k=k, size_threshold=s))
                    actual = _result_tuples(disk.search(keywords, k=k, size_threshold=s))
                    assert actual == expected
        assert disk.last_statistics.dequeues == reference.last_statistics.dequeues
        assert disk.last_statistics.expansions == reference.last_statistics.expansions

    def test_index_parity(self, workload, tmp_path):
        _database, _query, fragments = workload
        reference = InvertedFragmentIndex.from_fragments(fragments, store=InMemoryStore())
        disk = InvertedFragmentIndex.from_fragments(
            fragments, store=DiskStore(str(tmp_path / "s.sqlite"))
        )
        assert _index_as_dict(disk) == _index_as_dict(reference)
        assert disk.fragment_sizes == reference.fragment_sizes
        assert disk.document_frequencies() == reference.document_frequencies()
        assert set(disk.fragment_ids()) == set(reference.fragment_ids())
        assert disk.approximate_bytes() == reference.approximate_bytes()
        # the write path ticks the shared clock identically on both backends
        assert disk.store.epoch == reference.store.epoch

    def test_incremental_maintenance_parity(self, tmp_path):
        bundles = []
        for store in (InMemoryStore(), DiskStore(str(tmp_path / "s.sqlite"))):
            database = build_fooddb()
            query = fooddb_search_query(database)
            fragments = derive_fragments(query, database)
            index, graph, _searcher = _build_searcher(query, fragments, store)
            bundles.append(
                (database, query, index, graph, IncrementalMaintainer(query, database, index, graph))
            )

        updates = [
            ("insert", "comment", ("207", "001", "120", "great milkshake", "07/12")),
            ("insert", "restaurant", ("008", "Pasta Palace", "Italian", 14, 4.6)),
            ("insert", "restaurant", ("009", "Grill House", "American", 11, 3.5)),
            ("delete", "comment", lambda record: record["cid"] == "203"),
            ("delete", "restaurant", lambda record: record["rid"] == "007"),
        ]
        affected = []
        for _database, _query, _index, _graph, maintainer in bundles:
            touched = []
            for action, relation, payload in updates:
                if action == "insert":
                    touched.append(maintainer.insert(relation, payload))
                else:
                    touched.append(maintainer.delete(relation, payload))
            affected.append(touched)
        assert affected[0] == affected[1]

        (_, query0, index0, graph0, _), (_, _query1, index1, graph1, _) = bundles
        assert _index_as_dict(index1) == _index_as_dict(index0)
        assert index1.fragment_sizes == index0.fragment_sizes
        assert graph1.edge_count == graph0.edge_count
        assert set(graph1.fragment_ids()) == set(graph0.fragment_ids())
        for identifier in graph0.fragment_ids():
            assert graph1.neighbors(identifier) == graph0.neighbors(identifier)
        rebuilt = InvertedFragmentIndex.from_fragments(derive_fragments(query0, bundles[0][0]))
        assert _index_as_dict(index1) == _index_as_dict(rebuilt)

    def test_unserializable_identifier_rejected(self, tmp_path):
        store = DiskStore(str(tmp_path / "s.sqlite"))
        with pytest.raises(StoreError):
            store.add_posting("kw", (object(),), 1)


# ----------------------------------------------------------------------
# snapshots: every backend pairing round-trips the whole store state
# ----------------------------------------------------------------------
class TestSnapshots:
    @pytest.fixture()
    def populated(self):
        database = build_fooddb()
        query = fooddb_search_query(database)
        fragments = derive_fragments(query, database)
        store = InMemoryStore()
        _build_searcher(query, fragments, store)
        return store

    @pytest.mark.parametrize("target", [None, "disk"], ids=["memory", "disk"])
    def test_roundtrip(self, populated, tmp_path, target):
        path = str(tmp_path / "store.snapshot")
        assert populated.snapshot(path) == path
        restored = FragmentStore.from_snapshot(path, store=target)
        assert dict(restored.iter_items()) == dict(populated.iter_items())
        assert restored.fragment_sizes() == populated.fragment_sizes()
        assert set(restored.node_ids()) == set(populated.node_ids())
        assert restored.edge_count() == populated.edge_count()
        for identifier in populated.node_ids():
            assert set(restored.neighbors(identifier)) == set(populated.neighbors(identifier))
            assert restored.node_keyword_count(identifier) == populated.node_keyword_count(
                identifier
            )
        # the clock travels with the data, exactly
        assert restored.epochs.state() == populated.epochs.state()

    def test_snapshot_from_disk_store(self, populated, tmp_path):
        sqlite_path = str(tmp_path / "restored.sqlite")
        disk = FragmentStore.from_snapshot(
            populated.snapshot(str(tmp_path / "a.snapshot")),
            store="disk",
            store_path=sqlite_path,
        )
        assert disk.path == sqlite_path  # the restore lands where asked
        back = FragmentStore.from_snapshot(disk.snapshot(str(tmp_path / "b.snapshot")))
        assert dict(back.iter_items()) == dict(populated.iter_items())
        assert back.epochs.state() == populated.epochs.state()

    def test_inconsistent_sizes_rejected(self, populated, tmp_path):
        import json

        path = populated.snapshot(str(tmp_path / "store.snapshot"))
        payload = json.load(open(path))
        payload["sizes"][0][1] += 1  # corrupt one stored size
        json.dump(payload, open(path, "w"))
        with pytest.raises(StoreError):
            FragmentStore.from_snapshot(path)

    def test_failed_disk_restore_cleans_up_for_retry(self, populated, tmp_path):
        """A corrupt restore must not strand a half-populated sqlite file:
        retrying at the same store_path with a good snapshot succeeds."""
        import json

        good = populated.snapshot(str(tmp_path / "good.snapshot"))
        bad = str(tmp_path / "bad.snapshot")
        payload = json.load(open(good))
        payload["sizes"][0][1] += 1
        json.dump(payload, open(bad, "w"))
        sqlite_path = str(tmp_path / "restored.sqlite")
        with pytest.raises(StoreError):
            FragmentStore.from_snapshot(bad, store="disk", store_path=sqlite_path)
        assert not os.path.exists(sqlite_path), "partial file must be removed"
        restored = FragmentStore.from_snapshot(good, store="disk", store_path=sqlite_path)
        assert dict(restored.iter_items()) == dict(populated.iter_items())
        restored.close()

    def test_restore_requires_empty_store(self, populated, tmp_path):
        path = populated.snapshot(str(tmp_path / "store.snapshot"))
        with pytest.raises(StoreError):
            FragmentStore.from_snapshot(path, store=populated)

    @pytest.mark.parametrize("target", [None, "disk"], ids=["memory", "disk"])
    def test_block_directories_rebuild_identically(self, populated, tmp_path, target):
        """Snapshots carry postings, not blocks: FORMAT_VERSION stays 1 and
        every backend rebuilds bit-identical block directories on restore."""
        from repro.store.blocks import BLOCK_SIZE

        path = populated.snapshot(str(tmp_path / "store.snapshot"))
        restored = FragmentStore.from_snapshot(
            path,
            store=target,
            store_path=str(tmp_path / "restored.sqlite") if target == "disk" else None,
        )
        keywords = list(populated.vocabulary())
        original = populated.posting_blocks_for_many(keywords)
        rebuilt = restored.posting_blocks_for_many(keywords)
        for keyword in keywords:
            assert rebuilt[keyword].summaries == original[keyword].summaries
            for block_no in range(len(original[keyword].summaries)):
                block = rebuilt[keyword].decode(block_no)
                assert block == original[keyword].decode(block_no)
                assert len(block) <= BLOCK_SIZE
        restored.close()

    def test_snapshot_replaces_atomically(self, populated, tmp_path):
        path = str(tmp_path / "store.snapshot")
        populated.snapshot(path)
        first = open(path, "rb").read()
        populated.add_posting("freshly-added", ("snapshot-frag", 1), 2)
        populated.finalize()
        populated.snapshot(path)
        second = open(path, "rb").read()
        assert first != second
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ], "temp files must not survive a successful snapshot"


# ----------------------------------------------------------------------
# backend parity: randomized fooddb workloads (property-based)
# ----------------------------------------------------------------------
@given(food_databases(), st.lists(words, min_size=1, max_size=3, unique=True),
       st.integers(min_value=1, max_value=4), st.integers(min_value=5, max_value=60))
@RELAXED
def test_random_workload_search_parity(database, keywords, k, size_threshold):
    query = _prop_query(database)
    fragments = derive_fragments(query, database)
    _, _, reference = _build_searcher(query, fragments, InMemoryStore())
    _, _, disk = _build_searcher(query, fragments, _tmp_disk_store())
    expected = _result_tuples(reference.search(keywords, k=k, size_threshold=size_threshold))
    actual = _result_tuples(disk.search(keywords, k=k, size_threshold=size_threshold))
    assert actual == expected


@given(food_databases())
@RELAXED
def test_random_workload_incremental_parity(database):
    query = _prop_query(database)
    fragments = derive_fragments(query, database)
    stores = (InMemoryStore(), _tmp_disk_store())
    indexes, graphs, maintainers = [], [], []
    for store in stores:
        # each maintainer needs its own mutable database copy
        copy = Database("prop-fooddb")
        for schema_fn in (restaurant_schema, customer_schema, comment_schema):
            copy.create_relation(schema_fn())
        for name in database.relation_names:
            for record in database.relation(name):
                copy.insert(name, dict(record.as_dict()))
        local_query = _prop_query(copy)
        index = InvertedFragmentIndex.from_fragments(fragments, store=store)
        graph = FragmentGraph.build(local_query, fragment_sizes(fragments), store=store)
        indexes.append(index)
        graphs.append(graph)
        maintainers.append(IncrementalMaintainer(local_query, copy, index, graph))
    for maintainer in maintainers:
        maintainer.insert("restaurant", ("rx", "crispy burger stand", "American", 12, 4.2))
        maintainer.insert("comment", ("cx", "r0", "u0", "spicy noodle soup", "02/02"))
        maintainer.delete("comment", lambda record: record["uid"] == "u0")
    assert _index_as_dict(indexes[1]) == _index_as_dict(indexes[0])
    assert indexes[1].fragment_sizes == indexes[0].fragment_sizes
    assert graphs[1].edge_count == graphs[0].edge_count


# ----------------------------------------------------------------------
# backend parity: TPC-H workload
# ----------------------------------------------------------------------
def test_tpch_search_parity(tiny_tpch, tiny_tpch_queries):
    query = tiny_tpch_queries["Q2"]
    fragments = derive_fragments(query, tiny_tpch)
    spec = QueryStringSpec((("r", "r"), ("lo", "min"), ("hi", "max")))
    _, _, reference = _build_searcher(query, fragments, InMemoryStore(), "shop.example.com/Orders", spec)
    index, _, disk = _build_searcher(
        query, fragments, _tmp_disk_store(), "shop.example.com/Orders", spec
    )
    frequencies = index.document_frequencies()
    ranked = sorted(frequencies, key=lambda keyword: (-frequencies[keyword], keyword))
    keywords = ranked[:3] + ranked[len(ranked) // 2: len(ranked) // 2 + 3] + ranked[-3:]
    for keyword in keywords:
        for k, s in ((1, 100), (10, 200), (5, 1000)):
            expected = _result_tuples(reference.search([keyword], k=k, size_threshold=s))
            actual = _result_tuples(disk.search([keyword], k=k, size_threshold=s))
            assert actual == expected


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
class TestEngineStoreConfig:
    def test_engine_rejects_bad_store(self, fooddb, search_application):
        from repro.core.engine import DashEngine, DashEngineError

        with pytest.raises(DashEngineError):
            DashEngine.build(search_application, fooddb, store="bogus")

