"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments, fragment_sizes
from repro.core.scoring import DashScorer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import comment_schema, customer_schema, restaurant_schema
from repro.db.database import Database
from repro.db.query import BetweenCondition, Comparison, JoinClause, Parameter, ParameterizedPSJQuery
from repro.db.sqlparse import parse_psj_query
from repro.mapreduce.job import default_partitioner, _stable_hash
from repro.text.inverted_index import InvertedIndex
from repro.text.tokenizer import count_keywords, tokenize
from repro.webapp.request import QueryString, QueryStringSpec

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
cuisines = st.sampled_from(["American", "Thai", "Italian", "Mexican", "Nepali"])
budgets = st.integers(min_value=5, max_value=30)
rates = st.floats(min_value=1.0, max_value=5.0, allow_nan=False).map(lambda x: round(x, 1))
words = st.sampled_from(
    ["burger", "fries", "coffee", "soup", "noodle", "spicy", "bland", "great", "awful", "crispy"]
)
comments = st.lists(words, min_size=1, max_size=5).map(" ".join)


@st.composite
def food_databases(draw):
    """Random fooddb-shaped databases (restaurants, customers, comments)."""
    database = Database("prop-fooddb")
    database.create_relation(restaurant_schema())
    database.create_relation(customer_schema())
    database.create_relation(comment_schema())
    num_restaurants = draw(st.integers(min_value=1, max_value=8))
    num_customers = draw(st.integers(min_value=1, max_value=4))
    for index in range(num_restaurants):
        database.insert(
            "restaurant",
            (f"r{index}", draw(comments), draw(cuisines), draw(budgets), draw(rates)),
        )
    for index in range(num_customers):
        database.insert("customer", (f"u{index}", draw(words)))
    num_comments = draw(st.integers(min_value=0, max_value=12))
    for index in range(num_comments):
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


def _search_query(database):
    return parse_psj_query(
        "SELECT name, budget, rate, comment, uname, date "
        "FROM (restaurant LEFT JOIN comment) JOIN customer "
        "WHERE cuisine = $cuisine AND budget BETWEEN $min AND $max",
        database,
        name="Search",
    )


SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))
RELAXED = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# tokenizer / inverted file invariants
# ----------------------------------------------------------------------
@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_always_lowercase_nonempty(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token


@given(st.lists(words, max_size=50))
@settings(deadline=None)
def test_count_keywords_preserves_total(keywords):
    counts = count_keywords(keywords)
    assert sum(counts.values()) == len(keywords)
    assert all(count > 0 for count in counts.values())


@given(st.dictionaries(st.text(min_size=1, max_size=8), st.lists(words, min_size=1, max_size=20), max_size=10))
@settings(deadline=None)
def test_inverted_index_df_and_lengths(documents):
    index = InvertedIndex()
    for document_id, keywords in documents.items():
        index.add_keywords(document_id, keywords)
    index.finalize()
    for keyword in index.vocabulary:
        postings = index.postings(keyword)
        assert index.document_frequency(keyword) == len(postings)
        frequencies = [posting.term_frequency for posting in postings]
        assert frequencies == sorted(frequencies, reverse=True)
    assert sum(index.document_length(d) for d in index.document_ids()) == sum(
        len(k) for k in documents.values()
    )


@given(st.one_of(st.integers(), st.text(max_size=20), st.tuples(st.text(max_size=5), st.integers())))
@settings(deadline=None)
def test_partitioner_stable_and_in_range(key):
    assert _stable_hash(key) == _stable_hash(key)
    assert 0 <= default_partitioner(key, 7) < 7


# ----------------------------------------------------------------------
# query-string round trips
# ----------------------------------------------------------------------
@given(cuisines, budgets, budgets)
@settings(deadline=None)
def test_query_string_spec_roundtrip(cuisine, low, high):
    bindings = {"cuisine": cuisine, "min": min(low, high), "max": max(low, high)}
    query_string = SPEC.format(bindings)
    parsed = SPEC.parse(str(query_string))
    assert parsed["cuisine"] == cuisine
    assert int(parsed["min"]) == bindings["min"]
    assert int(parsed["max"]) == bindings["max"]


@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127), min_size=1, max_size=8)),
    max_size=5, unique_by=lambda pair: pair[0]))
@settings(deadline=None)
def test_query_string_parse_format_roundtrip(pairs):
    text = str(QueryString(tuple(pairs)))
    reparsed = QueryString.parse(text)
    assert reparsed.pairs == tuple(pairs)


# ----------------------------------------------------------------------
# fragment invariants on random databases
# ----------------------------------------------------------------------
@given(food_databases())
@RELAXED
def test_fragments_partition_joined_result(database):
    query = _search_query(database)
    fragments = derive_fragments(query, database)
    joined = query.join_operands(database)
    assert sum(fragment.record_count for fragment in fragments.values()) == len(joined)
    # identifiers are unique and never contain NULLs
    for identifier in fragments:
        assert all(component is not None for component in identifier)


@given(food_databases())
@RELAXED
def test_fragment_sizes_equal_page_keyword_counts(database):
    """The db-page for any (cuisine, l, u) binding carries exactly the keywords
    of the fragments whose identifiers satisfy it."""
    query = _search_query(database)
    fragments = derive_fragments(query, database)
    if not fragments:
        return
    cuisine = sorted({identifier[0] for identifier in fragments})[0]
    budgets_for_cuisine = sorted(identifier[1] for identifier in fragments if identifier[0] == cuisine)
    low, high = budgets_for_cuisine[0], budgets_for_cuisine[-1]
    page = query.evaluate(database, {"cuisine": cuisine, "min": low, "max": high})
    page_keywords = len(page.keywords())
    fragment_keywords = sum(
        fragment.size
        for identifier, fragment in fragments.items()
        if identifier[0] == cuisine and low <= identifier[1] <= high
    )
    assert page_keywords == fragment_keywords


@given(food_databases())
@RELAXED
def test_fragment_graph_is_a_union_of_paths(database):
    query = _search_query(database)
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments)
    graph = FragmentGraph.build(query, fragment_sizes(fragments), store=index.store)
    assert graph.fragment_count == len(fragments)
    for identifier in fragments:
        neighbors = graph.neighbors(identifier)
        # a chain node has at most two neighbours, all sharing its cuisine
        assert len(neighbors) <= 2
        assert all(neighbor[0] == identifier[0] for neighbor in neighbors)
    # edges = nodes - number_of_cuisine_groups (each group is one path)
    groups = {identifier[0] for identifier in fragments}
    assert graph.edge_count == len(fragments) - len(groups)


@given(food_databases(), st.lists(words, min_size=1, max_size=3, unique=True),
       st.integers(min_value=1, max_value=4), st.integers(min_value=5, max_value=60))
@RELAXED
def test_topk_search_invariants(database, keywords, k, size_threshold):
    query = _search_query(database)
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments)
    graph = FragmentGraph.build(query, fragment_sizes(fragments))
    searcher = TopKSearcher(index, graph, UrlFormulator(query, SPEC, "example.com/Search"))
    results = searcher.search(keywords, k=k, size_threshold=size_threshold)

    assert len(results) <= k
    scores = [result.score for result in results]
    assert scores == sorted(scores, reverse=True)
    for result in results:
        # every result page is a set of same-cuisine fragments and scores > 0
        assert result.score > 0
        assert len({identifier[0] for identifier in result.fragments}) == 1
        assert result.size == sum(index.fragment_size(f) for f in result.fragments)
        # the URL regenerates a page containing at least one queried keyword
        bindings = result.bindings
        page = query.evaluate(
            database, {"cuisine": bindings["cuisine"], "min": bindings["min"], "max": bindings["max"]}
        )
        page_words = set(page.keywords())
        assert any(keyword in page_words for keyword in keywords)


@given(food_databases(), st.lists(words, min_size=1, max_size=2, unique=True))
@RELAXED
def test_scoring_matches_manual_tfidf(database, keywords):
    query = _search_query(database)
    fragments = derive_fragments(query, database)
    index = InvertedFragmentIndex.from_fragments(fragments)
    scorer = DashScorer(index, keywords)
    for identifier, fragment in fragments.items():
        expected = 0.0
        if fragment.size:
            for keyword in set(k.lower() for k in keywords):
                occurrences = fragment.term_frequency(keyword)
                if occurrences:
                    expected += (occurrences / fragment.size) * index.idf(keyword)
        assert abs(scorer.score([identifier]) - expected) < 1e-9
