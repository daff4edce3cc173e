"""Top-k db-page search (Algorithm 1 of the paper).

Given queried keywords ``W``, a result count ``k`` and a size threshold ``s``,
the search assembles db-page fragments into db-pages and returns the URLs of
the ``k`` most relevant ones:

1. look up the fragments relevant to ``W`` in the inverted fragment index;
2. seed a priority queue with them, ordered by TF/IDF score;
3. repeatedly dequeue the best pending db-page; if it cannot be expanded
   (its size already reaches ``s``, or it has no combinable neighbour left in
   the fragment graph) it becomes a result, otherwise it is expanded by the
   most relevant combinable fragment and re-queued;
4. stop when ``k`` results are collected or the queue empties, and formulate
   the result URLs by reverse query-string parsing.

Three implementation notes beyond the paper's pseudo-code:

* **Group ceilings and exact expansion pruning** — the fragment graph never
  links two equality groups, so a search is a merge of independent per-group
  searches.  The queue opens with one *group token* per group holding a
  relevant fragment, keyed by a ceiling on any page the group can emit (at
  size ``>= s`` or as the whole chain, with at most the group's total
  occurrences: ``score_bound(group totals, min(s, group size))``); the
  group's seeds are scored and queued only when the token is dequeued.  No
  emission scores above its group's token, so the leading token moves none:
  results, scores and tie order equal eager seeding's, while a group whose
  ceiling is below the ``k``-th emission is never scored, dequeued or
  expanded (``SearchStatistics.groups_pruned``; docs/architecture.md has
  the argument, and why per-block maxima could never prune here).
  Inside a group, pruning fires in the expansion step: an irrelevant
  candidate can never out-prefer a relevant one (the relevance tier
  dominates the preference order), and a relevant candidate whose
  :meth:`~repro.core.scoring.DashScorer.score_bound` cannot beat the best
  candidate found so far is skipped without reading its size.  Both are
  exact — the bound is admissible — and counted in
  ``SearchStatistics.pruned_expansions``; ``tests/oracle.py``, a direct
  transcription of the pseudo-code, pins the results, and the dependencies
  from below (every member of a never-opened group is one too).
* **Pending-page state** — a queued db-page is more than its member tuple:
  a :class:`_PendingPage` record rides with it from its first dequeue to its
  emission, holding the page's exact integer occurrence totals and size, its
  members' identifier-order keys and its *expansion frontier* (the
  combinable non-members).  Expanding by a candidate updates the record in
  place — one ``bisect`` insertion, the candidate's own neighbours merged
  into the frontier — so a dequeue costs ``O(deg + |W|)`` however large the
  page has grown, and a candidate that adds no query keyword reuses the
  totals untouched.  Scores come out bit-identical to the reference
  :meth:`~repro.core.scoring.DashScorer.score`.
* **Resumable streams** — the dequeue loop lives in :class:`SearchStream`:
  ``bound_key`` exposes the queue head (admissible, not exact: opening a
  group token queues seeds that sort before it) and
  ``next_result`` processes dequeues up to a caller-supplied key limit.
  ``search_detailed`` drains one stream; the cluster's
  :class:`~repro.cluster.QueryRouter` interleaves per-partition streams by
  smallest next key, which replays the exact dequeue sequence of a single
  merged store — scatter-gather results stay byte-identical to a
  single-store run.
"""

from __future__ import annotations

import heapq
import threading
import time
from bisect import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import FragmentId, identifier_order
from repro.core.scoring import DashScorer
from repro.core.urls import UrlFormulator

#: One priority-queue entry: (negated score, tie-break, fragments).  The
#: tie-break is a tuple: seeds carry ``(0, identifier order)`` and expanded
#: pages ``(1, member identifier orders)`` — both derived from the entry's
#: *content*, never from insertion order, so equal-score ties resolve
#: identically for any backend and any partitioning of the corpus (the
#: cluster router merges per-partition streams by exactly these keys, and
#: its per-partition sentinel tie ``(0,)`` sorts before both).  A group
#: token is ``(negated ceiling, (-1, first seed's identifier order), seeds)``:
#: before every real entry of equal score, and unique per group.
QueueEntry = Tuple[float, Tuple, Tuple[FragmentId, ...]]

#: ``SearchStatistics`` counters accumulated into lifetime totals — by every
#: :class:`TopKSearcher` and, with the fan-out counters live, by the cluster
#: router (both surface through ``SearchService.statistics()["search"]``).
LIFETIME_FIELDS = (
    "dequeues",
    "expansions",
    "seeds_scored",
    "groups_pruned",
    "pruned_expansions",
    "nodes_queried",
    "nodes_short_circuited",
    "partials_merged",
    "partials_discarded",
    "failovers",
    "df_cache_hits",
    "df_cache_misses",
    "partitions_pruned",
)


@dataclass(frozen=True)
class SearchResult:
    """One suggested db-page."""

    url: str
    score: float
    fragments: Tuple[FragmentId, ...]
    size: int
    bindings: Mapping[str, Any]

    def __contains__(self, identifier: object) -> bool:
        try:
            candidate = tuple(identifier)  # type: ignore[arg-type]
        except TypeError:
            # Scalar lookups (e.g. a bare budget value) can never match a
            # fragment identifier tuple; answer False instead of raising.
            return False
        return candidate in self.fragments


@dataclass
class SearchStatistics:
    """Instrumentation of one search call (used by the Figure 11 bench).

    ``seed_fragments`` is the total number of posting entries across the
    query keywords' inverted lists (``sum_w df_w`` — a fragment relevant to
    two keywords counts twice); ``seeds_scored`` is the number of relevant
    fragments scored and queued — those of the equality groups the search
    opened — and ``groups_pruned`` the number of groups whose token was still
    queued when it stopped.  ``pruned_expansions`` counts expansion-candidate
    evaluations skipped by the relevance tier or by
    :meth:`~repro.core.scoring.DashScorer.score_bound`.

    The fan-out counters are filled in by the cluster's scatter-gather
    router (:class:`~repro.cluster.QueryRouter`) and stay 0 on a
    single-store search: ``nodes_queried`` is how many distinct nodes served
    a partition stream, ``nodes_short_circuited`` how many of them still had
    undrained work when the merge collected its ``k``-th result (their best
    remaining bound could no longer win), ``partials_merged`` how many
    per-node partial results entered the merged ranking, and
    ``partials_discarded`` how many materialized partial candidates the
    merge abandoned unranked.

    The fault-tolerance fields are router-filled too: ``failovers`` counts
    partition read attempts that failed and were retried on another fresh
    copy (or abandoned); ``complete`` flips to ``False`` — with the lost
    partitions in ``missing_partitions`` — when the query was answered
    under ``degraded_ok=True`` without every partition (see
    :mod:`repro.cluster.router`).  Single-store searches are always
    complete.

    The term-statistics fields are router-filled as well:
    ``df_cache_hits``/``df_cache_misses`` count query keywords whose global
    document frequency was served from (or had to be read past) the
    router's epoch-validated :class:`~repro.cluster.stats.TermStatsCache`
    — a fully-hit query skips the DF fan-out round entirely — and
    ``partitions_pruned`` counts partitions the router never opened a
    stream on because their cached upper-bound score could not contribute
    (see :func:`~repro.cluster.stats.partition_bounds`).
    ``discard_ratio`` derives ``partials_discarded / partials_merged``
    (0.0 when nothing merged) — the merge's waste factor.
    """

    elapsed_seconds: float = 0.0
    seed_fragments: int = 0
    seeds_scored: int = 0
    groups_pruned: int = 0
    expansions: int = 0
    dequeues: int = 0
    pruned_expansions: int = 0
    results: int = 0
    nodes_queried: int = 0
    nodes_short_circuited: int = 0
    partials_merged: int = 0
    partials_discarded: int = 0
    failovers: int = 0
    df_cache_hits: int = 0
    df_cache_misses: int = 0
    partitions_pruned: int = 0
    complete: bool = True
    missing_partitions: Tuple[int, ...] = ()

    @property
    def discard_ratio(self) -> float:
        """``partials_discarded / partials_merged`` (0.0 when nothing merged)."""
        if not self.partials_merged:
            return 0.0
        return self.partials_discarded / self.partials_merged


@dataclass(frozen=True)
class DetailedSearch:
    """One search call's results plus its provenance.

    ``dependencies`` is every fragment the search *consulted* — seeds, page
    members and every expansion candidate whose size was read —
    plus every member of each equality group it never opened (the group was
    ruled out on its total size, which any member can change).
    Together with ``keywords`` (canonicalised) and ``epoch`` (the store epoch
    observed before the first read) it is exactly what a serving cache needs
    to decide later whether the entry is still fresh: the result can only
    change through a mutation that either touches some query keyword's
    postings or touches a consulted fragment, and both bump the corresponding
    store epochs past ``epoch`` (a fragment entering or leaving a chain is
    written with touches of its chain neighbours, see
    :meth:`~repro.core.fragment_graph.FragmentGraph.neighbor_touches`).
    """

    results: Tuple[SearchResult, ...]
    keywords: Tuple[str, ...]
    dependencies: FrozenSet[FragmentId]
    epoch: int
    statistics: SearchStatistics


class _IdentifierCache:
    """Scorers, order keys, groups and chains of one searcher, for one epoch.

    All depend only on the query keywords' postings, the fragment
    identifiers and their sizes at one epoch, so every stream of a searcher
    shares one instance (the cluster router's ``idf_overrides`` streams
    share all but the scorers).  :meth:`TopKSearcher._shared_identifiers`
    replaces (never clears) it when the epoch moves: a search in flight
    keeps a consistent cache, and no map outlives the fragments it was
    filled from.  Plain dict reads and writes — concurrent streams may
    compute an entry twice, never see a torn one; the scorer LRU's compound
    updates take a lock.
    """

    __slots__ = (
        "epoch",
        "orders",
        "neighbors",
        "group_keys",
        "group_key",
        "scorers",
        "_scorers_lock",
        "_graph",
        "_index",
        "_groups",
    )

    #: Scorers kept per epoch, least recently used evicted first.
    SCORER_CAPACITY = 64

    def __init__(self, graph: FragmentGraph, index: InvertedFragmentIndex, epoch: int) -> None:
        self.epoch = epoch
        self.orders: Dict[FragmentId, Tuple] = {}
        self.neighbors: Dict[FragmentId, Tuple[FragmentId, ...]] = {}
        self.group_keys: Dict[FragmentId, Tuple] = {}
        group_keys, graph_group_key = self.group_keys, graph.group_key

        def group_key(identifier: FragmentId) -> Tuple:
            """:meth:`~repro.core.fragment_graph.FragmentGraph.group_key`, memoised."""
            key = group_keys.get(identifier)
            if key is None:
                key = group_keys[identifier] = graph_group_key(identifier)
            return key

        # A closure, not a method: the cached scorers key their group totals
        # by it, and a bound method would tie them and this cache into a
        # reference cycle that only the cyclic collector frees.
        self.group_key = group_key
        self.scorers: "OrderedDict[Tuple[str, ...], DashScorer]" = OrderedDict()
        self._scorers_lock = threading.Lock()
        self._graph = graph
        self._index = index
        self._groups: Optional[Dict[Tuple, Tuple[int, Dict[FragmentId, int]]]] = None

    def scorer(self, keywords: Tuple[str, ...]) -> Tuple[DashScorer, bool]:
        """``(scorer, reused)`` for canonical ``keywords``, built on a miss."""
        with self._scorers_lock:
            scorer = self.scorers.get(keywords)
            if scorer is not None:
                self.scorers.move_to_end(keywords)
                return scorer, True
        scorer = DashScorer(self._index, keywords)
        with self._scorers_lock:
            self.scorers[keywords] = scorer
            while len(self.scorers) > self.SCORER_CAPACITY:
                self.scorers.popitem(last=False)
        return scorer, False

    def group(self, identifier: FragmentId) -> Tuple[int, Mapping[FragmentId, int]]:
        """``(size, {member: size})`` of ``identifier``'s group; ``(0, {})`` without a size row.

        From one ``fragment_sizes()`` pass, O(fragments), by the first search of an epoch.
        """
        if self._groups is None:
            members: Dict[Tuple, Dict[FragmentId, int]] = {}
            # One key object per group, not per member: the memo holds
            # every fragment for the epoch.
            keys: Dict[Tuple, Tuple] = {}
            group_key = self._graph.group_key
            for member, size in self._index.store.fragment_sizes().items():
                key = group_key(member)
                key = self.group_keys[member] = keys.setdefault(key, key)
                members.setdefault(key, {})[member] = size
            self._groups = {key: (sum(sizes.values()), sizes) for key, sizes in members.items()}
        return self._groups.get(self.group_key(identifier), (0, {}))

    def order(self, identifier: FragmentId) -> Tuple:
        """:func:`~repro.core.fragments.identifier_order`, memoised."""
        key = self.orders.get(identifier)
        if key is None:
            key = self.orders[identifier] = identifier_order(identifier)
        return key

    def neighbors_of(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """``identifier``'s chain neighbours, sorted by identifier order.

        A group's chain is sorted the first time one of its members is
        expanded, and all its members' neighbours are memoised for the
        epoch — never every group up front.
        """
        neighbors = self.neighbors.get(identifier)
        if neighbors is None:
            members = self.group(identifier)[1]
            if identifier not in members:
                # The size table is read after the postings, so a batch
                # racing the two reads can leave a seed out of it: take its
                # chain from the store's identifiers instead.
                key = self.group_key(identifier)
                members = [
                    member
                    for member in self._index.store.fragment_ids()
                    if self.group_key(member) == key
                ]
            self.neighbors.update(self._graph.chain(members))
            neighbors = self.neighbors.setdefault(identifier, ())
        return neighbors


class TopKSearcher:
    """Executes Algorithm 1 over a fragment index and a fragment graph.

    ``early_termination`` accepts only ``False`` — the one seeding path left.
    """

    def __init__(
        self,
        index: InvertedFragmentIndex,
        graph: FragmentGraph,
        url_formulator: UrlFormulator,
        early_termination: bool = False,
    ) -> None:
        if early_termination is not False:
            raise ValueError("block-bounded seeding was removed; group tokens are the one path")
        self.index = index
        self.graph = graph
        self.url_formulator = url_formulator
        self.last_statistics = SearchStatistics()
        # Pruning pays off across requests, so the serving layer wants the
        # running totals, not just the last search's snapshot.
        self._lifetime_lock = threading.Lock()
        self._lifetime: Dict[str, int] = {"searches": 0, "scorer_reuses": 0, "scorer_builds": 0}
        self._lifetime.update({field_name: 0 for field_name in LIFETIME_FIELDS})
        self._identifiers_lock = threading.Lock()
        self._identifiers = _IdentifierCache(graph, index, index.store.epoch)

    def lifetime_statistics(self) -> Dict[str, float]:
        """Running totals over every search this searcher has answered.

        Includes the derived ``discard_ratio`` (``partials_discarded /
        partials_merged``, 0.0 on a single-store searcher where both stay
        0) alongside the raw accumulated counters, and ``scorer_reuses`` /
        ``scorer_builds`` — streams that took their scorer from the
        per-epoch cache or had to build one (``idf_overrides`` streams
        count in neither).
        """
        with self._lifetime_lock:
            snapshot: Dict[str, float] = dict(self._lifetime)
        merged = snapshot.get("partials_merged", 0)
        snapshot["discard_ratio"] = (
            snapshot.get("partials_discarded", 0) / merged if merged else 0.0
        )
        return snapshot

    def _shared_identifiers(self) -> _IdentifierCache:
        """The shared identifier cache, revalidated for a search starting now.

        Everything in it derives from the index's store, so that store's
        epoch is the one stamp it is validated against.
        """
        epoch = self.index.store.epoch
        with self._identifiers_lock:
            cache = self._identifiers
            if epoch != cache.epoch:
                cache = self._identifiers = _IdentifierCache(self.graph, self.index, epoch)
            return cache

    # ------------------------------------------------------------------
    def search(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
    ) -> List[SearchResult]:
        """Return the URLs of the (at most) ``k`` most relevant db-pages.

        ``size_threshold`` is the paper's ``s``: pending db-pages smaller than
        ``s`` keep being expanded while combinable fragments remain, so results
        carry at least ``s`` keywords of content whenever that is achievable.
        """
        return list(self.search_detailed(keywords, k, size_threshold).results)

    def search_detailed(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
    ) -> DetailedSearch:
        """Run Algorithm 1 and report results, dependencies and the epoch.

        The returned :class:`DetailedSearch` carries everything a serving
        cache needs to stamp and later revalidate the entry.
        """
        stream = self.stream(keywords, k, size_threshold)
        while stream.next_result() is not None:
            pass
        detailed = stream.as_detailed()
        self.last_statistics = detailed.statistics
        self._record_lifetime(detailed.statistics)
        return detailed

    def stream(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
        idf_overrides: Optional[Mapping[str, float]] = None,
    ) -> "SearchStream":
        """Open one search as a resumable, bound-ordered :class:`SearchStream`.

        ``search_detailed`` drains a stream in one go; the cluster router
        instead opens one stream per partition and interleaves them by
        smallest next dequeue key.  The scorer (IDF table, gathered inverted
        lists, size memo) comes from the per-epoch cache, keyed by the
        canonical keywords.  ``idf_overrides`` substitutes router-supplied
        global IDF values for the locally derived ones (see
        :class:`~repro.core.scoring.DashScorer`) so a partition scores every
        fragment exactly as the merged corpus would; overridden streams
        always build a fresh scorer — the cache revalidates only against the
        *local* store epochs and could not see a remote partition's
        mutations.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if size_threshold < 1:
            raise ValueError("the size threshold s must be at least 1")
        canonical = tuple(dict.fromkeys(str(keyword).lower() for keyword in keywords))
        # Stamped before the first data read, so a write racing this search
        # (or the build of a cached scorer it reuses) ticks past the stamp.
        epoch = self.index.store.epoch
        identifiers = self._shared_identifiers()
        if idf_overrides is None:
            scorer, reused = identifiers.scorer(canonical)
            with self._lifetime_lock:
                self._lifetime["scorer_reuses" if reused else "scorer_builds"] += 1
        else:
            scorer = DashScorer(self.index, canonical, idf_overrides=idf_overrides)
        return SearchStream(self, canonical, k, size_threshold, scorer, epoch, identifiers)

    def _record_lifetime(self, statistics: SearchStatistics) -> None:
        with self._lifetime_lock:
            self._lifetime["searches"] += 1
            for field_name in LIFETIME_FIELDS:
                self._lifetime[field_name] += getattr(statistics, field_name)

    # ------------------------------------------------------------------
    def _make_result(
        self, fragments: Tuple[FragmentId, ...], score: float, size: int
    ) -> SearchResult:
        bindings = self.url_formulator.bindings_for_fragments(fragments)
        url = self.url_formulator.url_for_fragments(fragments)
        return SearchResult(
            url=url, score=score, fragments=fragments, size=size, bindings=bindings
        )


class _PendingPage:
    """What a db-page carries from one dequeue to its next.

    Created when a seed is first dequeued, then updated in place at every
    expansion and re-queued beside its member tuple, so no dequeue ever
    re-derives what the previous one knew.  ``frontier`` maps each
    combinable non-member to the smallest order key among the members it is
    adjacent to; the neighbours of ``added`` — the member absorbed last —
    are merged in at the *next* dequeue, not at enqueue, so a page that is
    never dequeued again (or has reached the size threshold) never reads
    adjacency.
    """

    __slots__ = ("occurrences", "size", "orders", "frontier", "added")

    def __init__(
        self, occurrences: Tuple[int, ...], size: int, order: Tuple, seed: FragmentId
    ) -> None:
        self.occurrences = occurrences
        self.size = size
        self.orders: Tuple[Tuple, ...] = (order,)
        self.frontier: Dict[FragmentId, Tuple] = {}
        self.added = seed


class SearchStream:
    """One search, advanced dequeue-by-dequeue in exact key order.

    The unit of progress is one priority-queue *dequeue*: :meth:`bound_key`
    exposes the entry the next dequeue would pop, and :meth:`next_result`
    processes dequeues while that entry is within a caller-supplied limit,
    returning as soon as one emits a result.
    Queue keys are content-determined (exact score plus the deterministic
    tie-breaks of :data:`QueueEntry`), so interleaving several streams by
    smallest next entry replays the exact dequeue sequence a single merged
    queue would perform.  That is the cluster's byte-identical merge: result
    emission is *not* score-monotone (an expansion can raise a pending page
    above an already-emitted result), so per-node top-k lists cannot simply
    be merged by score — the router must, and with streams does, reproduce
    the global dequeue order itself.  ``TopKSearcher.search_detailed`` is
    the degenerate single-stream case and stays byte-identical to the
    pre-stream implementation.

    ``consulted`` collects every fragment the search reads — opened groups'
    seeds, page members, every evaluated expansion candidate — and, at
    :meth:`finalize`, every member of the groups it never opened.
    """

    def __init__(
        self,
        searcher: TopKSearcher,
        keywords: Tuple[str, ...],
        k: int,
        size_threshold: int,
        scorer: DashScorer,
        epoch: int,
        identifiers: _IdentifierCache,
    ) -> None:
        self._searcher = searcher
        self.keywords = keywords
        self.k = k
        self.size_threshold = size_threshold
        self.scorer = scorer
        self.epoch = epoch
        self.statistics = SearchStatistics()
        self.statistics.seed_fragments = scorer.posting_count()
        self.consulted: Set[FragmentId] = set()
        self.results: List[SearchResult] = []
        self._identifiers = identifiers
        self._consumed: Set[FragmentId] = set()
        # The carried state of every *expanded* page waiting in the queue,
        # keyed by the identity of the member tuple in its queue entry (the
        # queue keeps that tuple alive, so the key is unique; two entries
        # with equal members — one page reached by two expansion routes —
        # are two tuples and own two records).  Seeds get theirs on first
        # dequeue.
        self._pending: Dict[int, _PendingPage] = {}
        self._finalized = False
        self._started = time.perf_counter()
        self._queue: List[QueueEntry] = []  # opens with one token per group holding a seed
        for seeds, totals in scorer.group_totals(identifiers.group_key):
            # At least 1, so a group with no size row is opened, not ruled out.
            least_size = max(1, min(size_threshold, identifiers.group(seeds[0])[0]))
            ceiling = scorer.score_bound(totals, least_size)
            self._queue.append((-ceiling, (-1, identifiers.order(seeds[0])), seeds))
        heapq.heapify(self._queue)
        self._unopened = len(self._queue)

    @property
    def exhausted(self) -> bool:
        """True when no further dequeue can happen.

        ``False`` means undrained work remains (the router counts such
        streams as short-circuited when the merge stops first).
        """
        return self._finalized or len(self.results) >= self.k or not self._queue

    @property
    def pending_candidates(self) -> int:
        """Exactly scored queue entries not yet dequeued (tokens excluded)."""
        return len(self._queue) - self._unopened

    def bound_key(self) -> Optional[QueueEntry]:
        """The queue head — a page entry or a group token — or ``None`` when done.

        Admissible, not exact: every *emission* still to come sorts
        at-or-after it, but opening a token queues seeds that sort before
        the token did.  A scatter-gather merge keeps each stream in its heap
        under this key and advances a stream only while its key is the
        global minimum (up to the runner-up ``limit`` of
        :meth:`next_result`), re-reading the key after every advance.
        """
        return None if self.exhausted else self._queue[0]

    def next_result(self, limit: Optional[QueueEntry] = None) -> Optional[SearchResult]:
        """Process dequeues in key order until one emits a result.

        Returns ``None`` once the next dequeue's entry exceeds ``limit``
        (another stream's bound, during a scatter-gather merge) or the
        stream is exhausted; with ``limit=None`` only exhaustion stops it.
        Entries compare by ``(negated score, tie-break, fragments)``, so
        streams over disjoint partitions never tie and the merge order is
        total.
        """
        searcher = self._searcher
        statistics = self.statistics
        while True:
            if self._finalized or len(self.results) >= self.k:
                return None
            if not self._queue:
                return None
            if limit is not None and self._queue[0] > limit:
                return None
            negative_score, tie, fragments = heapq.heappop(self._queue)
            if tie[0] < 0:
                self._open_group(fragments)
                continue
            statistics.dequeues += 1
            if len(fragments) == 1:
                if fragments[0] in self._consumed:
                    # This seed was absorbed into an expanded db-page already
                    # (the paper removes such entries from the queue).
                    continue
                # Its size was primed when its group opened: no store read.
                occurrences, size = self.scorer.fragment_totals(fragments[0])
                key = self._identifiers.order(fragments[0])
                page = _PendingPage(occurrences, size, key, fragments[0])
            else:
                page = self._pending.pop(id(fragments))
            expanded = self._expand(page, fragments)
            if expanded is None:
                result = searcher._make_result(fragments, -negative_score, page.size)
                self.results.append(result)
                return result
            statistics.expansions += 1
            members, score = expanded
            self._pending[id(members)] = page
            heapq.heappush(self._queue, (-score, (1, page.orders), members))

    def _open_group(self, seeds: Tuple[FragmentId, ...]) -> None:
        """Score and queue ``seeds``, one group's; prime every member's size."""
        scorer, order = self.scorer, self._identifiers.order
        scorer.prime_sizes(self._identifiers.group(seeds[0])[1])
        for seed in seeds:
            score = scorer.score_totals(*scorer.fragment_totals(seed))
            heapq.heappush(self._queue, (-score, (0, order(seed)), (seed,)))
        self.consulted.update(seeds)
        self.statistics.seeds_scored += len(seeds)
        self._unopened -= 1

    def _expand(
        self, page: _PendingPage, fragments: Tuple[FragmentId, ...]
    ) -> Optional[Tuple[Tuple[FragmentId, ...], float]]:
        """Grow ``page`` by its preferred candidate; ``None`` if not expandable.

        A pending db-page is not expandable when its size already reaches
        the threshold ``s`` or no combinable fragment remains.  Among the
        combinable candidates, relevant fragments (those containing query
        keywords) are favoured, then higher resulting score, then the
        identifier order — a total order (distinct identifiers never share
        an order key), so the winner does not depend on how the frontier is
        iterated.  Two exact prunings apply: once any relevant candidate
        exists, irrelevant ones are skipped unevaluated (the relevance tier
        dominates the preference order), and a relevant candidate whose
        admissible score bound cannot beat the best candidate so far is
        skipped without reading its size.  How many the second pruning skips
        *does* depend on the visiting order, so relevant candidates are
        visited by (smallest adjacent member, own identifier) — members in
        order, each one's neighbours in order.  Every candidate still lands
        in ``consulted``: skipping an evaluation must not narrow the
        dependency set a serving cache revalidates against.

        On success ``page`` is updated in place to the expanded page and
        ``(members, score)`` of that page is returned.
        """
        if page.size >= self.size_threshold:
            return None
        order = self._identifiers.order
        frontier = page.frontier
        anchor = order(page.added)
        for neighbor in self._identifiers.neighbors_of(page.added):
            if neighbor not in fragments:
                known = frontier.get(neighbor)
                if known is None or anchor < known:
                    frontier[neighbor] = anchor
        if not frontier:
            return None
        self.consulted.update(frontier)
        scorer = self.scorer
        relevant = scorer.relevant_among(frontier)
        occurrences, size = page.occurrences, page.size
        best_key = None
        if not relevant:
            # No candidate adds a query keyword: the totals stay as they
            # are, only the size grows.
            best_occurrences = occurrences
            for candidate in frontier:
                grown = size + scorer.size_of(candidate)
                key = (-scorer.score_totals(occurrences, grown), order(candidate))
                if best_key is None or key < best_key:
                    best_key, best, best_size = key, candidate, grown
        else:
            pruned = len(frontier) - len(relevant)
            if len(relevant) > 1:
                relevant.sort(key=lambda candidate: (frontier[candidate], order(candidate)))
            total = sum(occurrences)
            for candidate in relevant:
                rank = order(candidate)
                extended = scorer.extended_occurrences(occurrences, candidate)
                if best_key is not None:
                    bound = scorer.score_bound(extended, size + sum(extended) - total)
                    if (-bound, rank) > best_key:
                        pruned += 1
                        continue
                grown = size + scorer.size_of(candidate)
                key = (-scorer.score_totals(extended, grown), rank)
                if best_key is None or key < best_key:
                    best_key, best, best_size, best_occurrences = key, candidate, grown, extended
            self.statistics.pruned_expansions += pruned
        self._consumed.add(best)
        del frontier[best]
        at = bisect(page.orders, best_key[1])
        page.orders = page.orders[:at] + (best_key[1],) + page.orders[at:]
        page.occurrences, page.size, page.added = best_occurrences, best_size, best
        return fragments[:at] + (best,) + fragments[at:], -best_key[0]

    def next_results(
        self, limit: Optional[QueueEntry] = None, max_results: int = 1
    ) -> List[SearchResult]:
        """Batch form of :meth:`next_result`: up to ``max_results`` results.

        Emits results while the next dequeue entry stays within ``limit``,
        stopping early once the batch is full.
        """
        collected: List[SearchResult] = []
        while len(collected) < max_results:
            result = self.next_result(limit)
            if result is None:
                break
            collected.append(result)
        return collected

    def finalize(self) -> SearchStatistics:
        """Close the stream and return its statistics (idempotent)."""
        if not self._finalized:
            self._finalized = True
            # A group never opened was ruled out on its total size, which
            # any member can change: all of them are dependencies.
            for _ceiling, tie, seeds in self._queue:
                if tie[0] < 0:
                    self.consulted.update(self._identifiers.group(seeds[0])[1])
            self.statistics.groups_pruned = self._unopened
            self.statistics.results = len(self.results)
            self.statistics.elapsed_seconds = time.perf_counter() - self._started
        return self.statistics

    def as_detailed(self) -> DetailedSearch:
        """Finalize and package the stream's output as a DetailedSearch.

        Best-first emission is not strictly score-ordered when an expansion
        raises a pending page's score above an already-emitted result (the
        keyword-dense-neighbour case); a final stable sort restores the
        ranking without changing the result set.
        """
        statistics = self.finalize()
        ranked = sorted(self.results, key=lambda result: -result.score)
        return DetailedSearch(
            results=tuple(ranked),
            keywords=self.keywords,
            dependencies=frozenset(self.consulted),
            epoch=self.epoch,
            statistics=statistics,
        )

