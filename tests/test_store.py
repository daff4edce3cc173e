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
    TouchFragment,
    replace_op,
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
        store.bulk_load([(("a", 1), {"shared": 3, "only-a": 1}), (("b", 2), {"shared": 2})])
        store.remove_fragment(("a", 1))
        assert not store.has_fragment(("a", 1))
        assert store.fragment_frequency("only-a") == 0
        assert "only-a" not in store.vocabulary()
        assert [tuple(p) for p in store.postings("shared")] == [(("b", 2), 2)]
        assert store.fragment_size(("b", 2)) == 2

    def test_replace_fragment_is_a_single_swap(self, make_store):
        store = make_store()
        store.bulk_load([(("a", 1), {"old": 5})])
        store.replace_fragment(("a", 1), {"new": 2, "zero": 0})
        assert store.fragment_term_frequencies(("a", 1)) == {"new": 2}
        assert store.fragment_size(("a", 1)) == 2
        assert store.fragment_frequency("old") == 0

    def test_replace_fragment_accumulates_duplicate_pairs(self, make_store):
        # pair form: keywords that canonicalise to the same term stay
        # separate postings and sum into the size
        store = make_store()
        store.bulk_load([(("a", 1), {"stale": 9})])
        store.replace_fragment(("a", 1), [("foo", 2), ("foo", 3)])
        assert store.fragment_size(("a", 1)) == 5
        assert [tuple(p) for p in store.postings("foo")] == [(("a", 1), 3), (("a", 1), 2)]

    def test_touch_stamps_a_stored_fragment_and_keeps_its_postings(self, make_store):
        store = make_store()
        store.bulk_load([(("a", 1), {"kw": 8})])
        before = store.epoch
        store.apply_mutations([TouchFragment(("a", 1)), TouchFragment(("a", 2))])
        assert store.epoch == before + 1
        assert store.fragment_epoch(("a", 1)) == store.fragment_epoch(("a", 2)) == store.epoch
        assert store.keyword_epoch("kw") == before  # no posting moved
        assert [tuple(p) for p in store.postings("kw")] == [(("a", 1), 8)]
        assert store.fragment_sizes() == {("a", 1): 8, ("a", 2): 0}


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


# ----------------------------------------------------------------------
# the write vocabulary: bulk_load / apply_mutations / write_batch
# ----------------------------------------------------------------------
class _ClusterBackend:
    """A 1-node, 4-partition cluster's facade store (closing closes the cluster)."""

    def __init__(self):
        from repro.cluster import SearchCluster

        query = fooddb_search_query(build_fooddb())
        self.cluster = SearchCluster.build(
            query, SPEC, "example.com/Search", InMemoryStore(), nodes=1, partitions=4
        )
        self.store = self.cluster.store

    def close(self):
        self.cluster.close()


@pytest.fixture(params=["memory", "disk", "cluster-1x4"])
def make_backend(request):
    """A factory of fresh empty stores of one kind; all closed at teardown."""
    opened = []

    def make() -> FragmentStore:
        if request.param == "cluster-1x4":
            backend = _ClusterBackend()
            opened.append(backend)
            return backend.store
        store = InMemoryStore() if request.param == "memory" else _tmp_disk_store()
        opened.append(store)
        return store

    make.kind = request.param
    yield make
    for backend in opened:
        backend.close()


def _store_state(store):
    """Everything the write vocabulary must agree on, bit for bit."""
    items = [
        (keyword, tuple((p.document_id, p.term_frequency) for p in postings))
        for keyword, postings in store.iter_items()
    ]
    directories = store.posting_blocks_for_many([keyword for keyword, _postings in items])
    summaries = {
        keyword: tuple(
            (summary.count, summary.max_occurrences, summary.max_weight.hex())
            for summary in blocks.summaries
        )
        for keyword, blocks in directories.items()
    }
    return items, store.fragment_sizes(), store.document_frequencies(), summaries


pair_vectors = st.lists(
    st.tuples(words, st.integers(min_value=0, max_value=4)), max_size=6
)  # zero counts and repeated keywords included on purpose
pair_corpora = st.lists(pair_vectors, min_size=1, max_size=9).map(
    lambda vectors: [
        ((f"Cuisine{index % 3}", 5 + index), vector) for index, vector in enumerate(vectors)
    ]
)


class TestWriteVocabulary:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(corpus=pair_corpora)
    def test_every_way_in_builds_the_same_store(self, make_backend, corpus, tmp_path_factory):
        reference = InMemoryStore()
        reference.bulk_load(corpus)
        expected = _store_state(reference)
        chunks = [corpus[start : start + 3] for start in range(0, len(corpus), 3)]

        whole = make_backend()
        before = whole.epoch
        assert whole.bulk_load(corpus) == len(corpus)
        assert whole.epoch == before + 1  # a bare load ticks exactly once
        assert _store_state(whole) == expected

        chunked = make_backend()
        for chunk in chunks:
            before = chunked.epoch
            chunked.bulk_load(chunk)
            assert chunked.epoch == before + 1
        assert _store_state(chunked) == expected

        chained = make_backend()
        before = chained.epoch
        with chained.write_batch():
            for chunk in chunks:
                chained.bulk_load(chunk)
        if make_backend.kind != "memory":  # memory has no scope to defer to
            assert chained.epoch == before + 1  # one scope, one commit, one tick
        assert _store_state(chained) == expected

        one_by_one = make_backend()
        for identifier, vector in corpus:
            before = one_by_one.epoch
            one_by_one.replace_fragment(identifier, vector)
            assert one_by_one.epoch == before + 1
        assert _store_state(one_by_one) == expected

        path = whole.snapshot(str(tmp_path_factory.mktemp("vocabulary") / "store.snapshot"))
        restored = FragmentStore.from_snapshot(path, store=make_backend())
        assert _store_state(restored) == expected
        assert restored.epochs.state() == whole.epochs.state()

    def test_bulk_load_refuses_stored_and_twice_listed_fragments(self, make_backend):
        store = make_backend()
        store.bulk_load([(("Cuisine0", 5), {"burger": 2}), (("Cuisine1", 6), {})])
        state, epoch = _store_state(store), store.epoch
        for refused in (
            [(("Cuisine2", 7), {"soup": 1}), (("Cuisine0", 5), {"fries": 1})],  # stored
            [(("Cuisine2", 7), {"soup": 1}), (("Cuisine1", 6), {"fries": 1})],  # stored, empty
            [(("Cuisine2", 7), {"soup": 1}), (("Cuisine2", 7), {"fries": 1})],  # listed twice
        ):
            with pytest.raises(StoreError):
                store.bulk_load(refused)
            # validated before anything is written — Cuisine2 never landed
            assert _store_state(store) == state
            assert store.epoch == epoch
            assert not store.has_fragment(("Cuisine2", 7))

    def test_empty_replace_registers_the_fragment(self, make_backend):
        from repro.store import replace_op

        for write in (
            lambda store, identifier: store.replace_fragment(identifier, {}),
            lambda store, identifier: store.replace_fragment(identifier, {"x": 0}),
            lambda store, identifier: store.apply_mutations([replace_op(identifier, {})]),
            lambda store, identifier: InvertedFragmentIndex(store=store).replace_fragment(
                identifier, {}
            ),
            lambda store, identifier: InvertedFragmentIndex(store=store).replace_fragment(
                identifier, {"X": 0}
            ),
        ):
            store = make_backend()
            store.bulk_load([(("Cuisine0", 5), {"burger": 2})])
            for identifier in (("Cuisine0", 5), ("Cuisine1", 6)):  # stored, unknown
                write(store, identifier)
                assert store.has_fragment(identifier)
                assert store.fragment_size(identifier) == 0
                assert store.fragment_term_frequencies(identifier) == {}
            assert store.document_frequencies() == {}
            assert store.fragment_count() == 2

    def test_failed_graph_batch_rolls_back_file_and_clock(self, tmp_path):
        """A batch that inserts a fragment into a chain — the op plus the
        touches of its chain neighbours — rolls back whole, touches included."""
        import sqlite3

        path = str(tmp_path / "graph.sqlite")
        store = DiskStore(path)
        store.bulk_load([(("a", 1), {"kw": 2}), (("a", 3), {"kw": 1, "other": 3})])
        graph = FragmentGraph(fooddb_search_query(build_fooddb()), store=store)
        state, clock = _store_state(store), store.epochs.state()
        batch = [replace_op(("a", 2), {"kw": 4})]
        touches = graph.neighbor_touches(batch)
        assert touches == [TouchFragment(("a", 1)), TouchFragment(("a", 3))]

        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with store.write_batch():
                store.apply_mutations(batch + touches)
                assert store.fragment_count() == 3  # the owner sees its staged rows
                raise Boom()
        assert store.epochs.state() == clock
        assert _store_state(store) == state
        assert graph.neighbors(("a", 1)) == (("a", 3),)

        def file_rows(table):
            connection = sqlite3.connect(path)
            try:
                return connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            finally:
                connection.close()

        assert file_rows("fragments") == 2 and file_rows("fragment_epochs") == 2
        # the next batch commits normally — and commits a compacted file
        with store.write_batch():
            store.apply_mutations(batch + touches)
        assert store.epoch == clock[0] + 1
        assert all(store.fragment_epoch(("a", at)) == store.epoch for at in (1, 2, 3))
        assert graph.neighbors(("a", 1)) == (("a", 2),)
        connection = sqlite3.connect(path)
        try:
            tables = {name for (name,) in connection.execute("SELECT name FROM sqlite_schema")}
        finally:
            connection.close()
        # the staged log is connection-local: the file holds no staging table
        assert not tables & {"staged_postings", "pending_removals"}, tables
        reference = InMemoryStore()
        reference.bulk_load(
            [(("a", 1), {"kw": 2}), (("a", 3), {"kw": 1, "other": 3}), (("a", 2), {"kw": 4})]
        )
        assert _store_state(store) == _store_state(reference)
        store.close()
        reopened = DiskStore(path, create=False)
        assert _store_state(reopened) == _store_state(reference)
        assert reopened.epoch == clock[0] + 1
        reopened.close()


# ----------------------------------------------------------------------
# the read vocabulary: batched reads are the core, singles derived once
# ----------------------------------------------------------------------
UNKNOWN_KEYWORD = "zz-unknown"
UNKNOWN_FRAGMENT = ("Nowhere", 0)


def _model_items(corpus, batch):
    """``iter_items()`` of ``corpus`` after ``batch``, from plain dictionaries."""
    from repro.store import RemoveFragment, ReplaceFragment

    vectors = {identifier: vector for identifier, vector in corpus}
    for op in batch:
        if isinstance(op, ReplaceFragment):
            vectors[op.identifier] = op.term_frequencies
        elif isinstance(op, RemoveFragment):
            vectors.pop(op.identifier, None)
        else:
            vectors.setdefault(op.identifier, [])
    lists = {}
    for identifier, vector in vectors.items():
        for keyword, occurrences in vector:
            if occurrences > 0:
                lists.setdefault(keyword, []).append((identifier, occurrences))
    return [
        (keyword, tuple(sorted(lists[keyword], key=lambda entry: (-entry[1], str(entry[0])))))
        for keyword in sorted(lists)
    ]


def _model_bytes(items):
    return sum(
        len(keyword) + 1
        + sum(8 + sum(len(str(part)) + 1 for part in identifier) for identifier, _n in postings)
        for keyword, postings in items
    )


def _assert_singles_match_core(store):
    """Every derived single-item read equals its batched core, unknowns included."""
    keywords = list(store.vocabulary()) + [UNKNOWN_KEYWORD]
    identifiers = list(store.fragment_ids()) + [UNKNOWN_FRAGMENT]
    lists = store.postings_for_many(keywords)
    vectors = store.fragment_term_frequencies_for(identifiers)
    sizes = store.fragment_sizes_for(identifiers)
    assert lists[UNKNOWN_KEYWORD] == () and vectors[UNKNOWN_FRAGMENT] == {}
    assert sizes[UNKNOWN_FRAGMENT] == 0
    for keyword in keywords:
        assert store.postings(keyword) == lists[keyword]
        assert store.fragment_frequency(keyword) == len(lists[keyword])
    for identifier in identifiers:
        assert store.fragment_term_frequencies(identifier) == vectors[identifier]
        assert store.fragment_size(identifier) == sizes[identifier]
        for keyword in keywords:
            assert store.term_frequency(keyword, identifier) == vectors[identifier].get(keyword, 0)
    assert store.vocabulary_size() == len(store.vocabulary())
    items = list(store.iter_items())
    assert items == [(keyword, lists[keyword]) for keyword in sorted(keywords[:-1])]
    return items


mutation_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.sampled_from(["replace", "remove", "touch"]),
        pair_vectors,
    ),
    max_size=6,
    unique_by=lambda op: op[0],
)


def _mutations(drawn):
    from repro.store import RemoveFragment, TouchFragment, replace_op

    make = {
        "replace": lambda identifier, vector: replace_op(identifier, vector),
        "remove": lambda identifier, _vector: RemoveFragment(identifier),
        "touch": lambda identifier, _vector: TouchFragment(identifier),
    }
    # Identifiers 0-8 may be stored already; 9-11 never are.
    return [
        make[kind]((f"Cuisine{index % 3}", 5 + index), vector) for index, kind, vector in drawn
    ]


class TestReadVocabulary:
    """The read half of the interface: three batched reads are the abstract
    core, and ``postings`` / ``fragment_frequency`` / ``term_frequency`` /
    ``fragment_term_frequencies`` / ``fragment_size`` / ``vocabulary_size``
    / ``iter_items`` are defined once, in ``FragmentStore``."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(corpus=pair_corpora, drawn=mutation_batches)
    def test_every_single_equals_its_batched_core(self, make_backend, corpus, drawn):
        store = make_backend()
        store.bulk_load(corpus)
        batch = _mutations(drawn)
        store.apply_mutations(batch)
        items = _assert_singles_match_core(store)
        expected = _model_items(corpus, batch)
        assert [
            (keyword, tuple((p.document_id, p.term_frequency) for p in postings))
            for keyword, postings in items
        ] == expected
        assert store.approximate_bytes() == _model_bytes(expected)

    def test_backends_define_no_single_item_read(self):
        from repro.cluster import ClusterStore

        singles = (
            "postings",
            "fragment_frequency",
            "term_frequency",
            "fragment_term_frequencies",
            "fragment_size",
            "vocabulary_size",
            "iter_items",
        )
        for backend in (InMemoryStore, DiskStore, ClusterStore):
            assert not set(singles) & set(vars(backend)), backend
            assert getattr(backend, "postings") is FragmentStore.postings
        assert "posting_blocks_for_many" not in vars(InMemoryStore)
        assert {
            "postings_for_many",
            "fragment_term_frequencies_for",
            "fragment_sizes_for",
        } <= FragmentStore.__abstractmethods__

    def test_owning_thread_reads_staged_rows_through_the_singles(self):
        store = _tmp_disk_store()
        store.bulk_load([(("a", 1), {"kw": 2}), (("a", 2), {"kw": 1, "old": 4})])
        assert store.postings("kw") and store.fragment_size(("a", 2)) == 5  # warm the caches
        with store.write_batch():
            store.replace_fragment(("a", 2), {"kw": 7, "new": 1})
            store.remove_fragment(("a", 1))
            assert [tuple(p) for p in store.postings("kw")] == [(("a", 2), 7)]
            assert store.postings("old") == () and store.fragment_frequency("new") == 1
            assert store.fragment_size(("a", 2)) == 8 and store.fragment_size(("a", 1)) == 0
            assert store.term_frequency("kw", ("a", 2)) == 7
            assert dict(store.iter_items()) == {
                "kw": store.postings_for_many(["kw"])["kw"],
                "new": store.postings_for_many(["new"])["new"],
            }
            _assert_singles_match_core(store)
        # staged reads were never cached: the committed store reads the same
        assert [tuple(p) for p in store.postings("kw")] == [(("a", 2), 7)]
        assert store.fragment_size(("a", 2)) == 8 and not store.has_fragment(("a", 1))
        _assert_singles_match_core(store)
        store.close()

    def test_read_only_reader_derives_the_same_singles(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        writer = DiskStore(path)
        writer.bulk_load([(("a", 1), {"kw": 2, "x": 1}), (("b", 2), {"kw": 3})])
        reader = DiskStore(path, read_only=True)
        try:
            assert _assert_singles_match_core(reader) == list(writer.iter_items())
            assert reader.fragment_size(("b", 2)) == 3
            writer.replace_fragment(("b", 2), {"kw": 1})
            reader.refresh_epochs()
            assert reader.fragment_size(("b", 2)) == 1
            assert [tuple(p) for p in reader.postings("kw")] == [(("a", 1), 2), (("b", 2), 1)]
            _assert_singles_match_core(reader)
        finally:
            reader.close()
            writer.close()

    def test_fault_rule_on_a_single_fires_for_the_proxy(self):
        from repro.faults import FaultPlane, FaultRule, NodeFault

        plane = FaultPlane()
        proxy = plane.wrap_store("n0", InMemoryStore())
        proxy.bulk_load([(("a", 1), {"kw": 2})])
        plane.add_rule(FaultRule("error", node="n0", operation="postings"))
        with pytest.raises(NodeFault):
            proxy.postings("kw")
        # the batched core is a different operation name: it is not faulted,
        # and the single's delegation to it does not fire its rules twice
        assert [tuple(p) for p in proxy.postings_for_many(["kw"])["kw"]] == [(("a", 1), 2)]
        assert proxy.fragment_size(("a", 1)) == 2
        assert plane.statistics()["rules"][0]["fired"] == 1


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
            store.bulk_load([((object(),), {"kw": 1})])
        with pytest.raises(StoreError):
            store.replace_fragment((object(),), {"kw": 1})
        assert store.epoch == 0 and store.fragment_count() == 0


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
        # the clock travels with the data, exactly
        assert restored.epochs.state() == populated.epochs.state()

    def test_payload_with_graph_sections_restores_the_same_results(self, populated, tmp_path):
        """Snapshots written while the store held the fragment graph carry
        ``nodes`` / ``edges`` sections: they restore, ignored, and search
        exactly like a snapshot without them."""
        import json

        query = fooddb_search_query(build_fooddb())
        graph = FragmentGraph(query, store=populated)
        path = str(tmp_path / "store.snapshot")
        populated.snapshot(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert not {"nodes", "edges"} & set(payload)
        payload["nodes"] = [[list(f), size] for f, size in populated.fragment_sizes().items()]
        payload["edges"] = [
            [list(f), list(neighbor)] for f in populated.fragment_ids() for neighbor in graph.neighbors(f)
        ]
        legacy = str(tmp_path / "legacy.snapshot")
        with open(legacy, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        answers = []
        for snapshot in (path, legacy):
            restored = FragmentStore.from_snapshot(snapshot, store="disk", store_path=snapshot + ".sqlite")
            searcher = TopKSearcher(
                InvertedFragmentIndex(store=restored),
                FragmentGraph(query, store=restored),
                UrlFormulator(query, SPEC, "example.com/Search"),
            )
            answers.append(
                [_result_tuples(searcher.search(keywords, k=5, size_threshold=s))
                 for keywords in (["burger"], ["spicy", "noodle"], ["good"]) for s in (5, 20)]
            )
            restored.close()
        reference = TopKSearcher(
            InvertedFragmentIndex(store=populated), graph, UrlFormulator(query, SPEC, "example.com/Search")
        )
        assert answers[0] == answers[1] == [
            _result_tuples(reference.search(keywords, k=5, size_threshold=s))
            for keywords in (["burger"], ["spicy", "noodle"], ["good"]) for s in (5, 20)
        ]
        assert any(answers[0])

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
        populated.bulk_load([(("snapshot-frag", 1), {"freshly-added": 2})])
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

