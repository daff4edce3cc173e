"""Relevance scoring of db-page fragments and assembled db-pages (Section VI).

Dash modifies the classic TF/IDF scheme in two ways:

* **IDF approximation** — since db-pages are never materialised, the IDF of a
  keyword ``w`` is approximated by the inverse of the number of db-page
  *fragments* containing ``w`` (a keyword common to many fragments is expected
  to appear in many db-pages).
* **Relative term frequency** — the TF of ``w`` in a (pending) db-page is the
  number of occurrences of ``w`` divided by the page's total keyword count, as
  in the paper's Example 7 (fragment ``(American, 10)`` has TF ``2/8`` for
  "burger"; after merging with ``(American, 12)`` the page's TF drops to
  ``3/25``).  Dividing by the page size is what makes expansion with less
  relevant text lower the score, giving the best-first search its
  monotonicity.

Besides the reference :meth:`DashScorer.score`, the scorer exposes an
incremental path for the top-k search hot loop: a pending db-page is carried
as its per-query-keyword occurrence totals plus its size (all integers; the
public value form is :class:`PageStats`), extending a page by one candidate
fragment costs ``O(|W|)`` instead of ``O(|W| * |page|)``, and
:meth:`group_totals` sums the same occurrence maps per equality group for
the search's group ceilings.  Occurrence totals and sizes are exact integers
and the keyword accumulation order matches :meth:`score`, so the incremental
path produces bit-identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import FragmentId

#: Relative inflation applied to the admissible score bound.  The bound is
#: derived with a different floating-point operation order than the exact
#: score it caps (one division of sums vs. a sum of divided terms), so a
#: mathematically-equal bound could land an ulp *below* the exact score and
#: break the expansion pruning's exactness argument.  Inflating by 1e-9 —
#: about a million times the worst accumulated rounding over a query's few
#: dozen terms — keeps the bound safely admissible; the only cost is that
#: scores within one part per billion of a bound are computed rather than
#: pruned.
_BOUND_INFLATION = 1.0 + 1e-9


@dataclass(frozen=True)
class PageStats:
    """Integer statistics of a (pending) db-page.

    ``occurrences`` holds one total per query keyword, in the scorer's keyword
    order; ``size`` is the page's total keyword count.
    """

    occurrences: Tuple[int, ...]
    size: int


class DashScorer:
    """Scores fragments and fragment combinations for a set of query keywords.

    ``idf_overrides`` replaces the locally derived per-keyword IDF values
    (``1 / document frequency`` over this index) with caller-supplied ones.
    The cluster router uses it to score every partition with the *merged*
    corpus's IDF — each partition's document frequency is an exact integer,
    their sum is the global document frequency, so every node computes
    bit-identical scores to a single merged store.  Overriding IDF scales
    :meth:`score_bound` by exactly the factor it scales the exact scores
    (both are ``idf``-linear per keyword), so the bound stays admissible.
    """

    def __init__(
        self,
        index: InvertedFragmentIndex,
        keywords: Iterable[str],
        idf_overrides: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.index = index
        self.keywords: Tuple[str, ...] = tuple(dict.fromkeys(keyword.lower() for keyword in keywords))
        self._occurrences: Dict[str, Dict[FragmentId, int]] = {
            keyword: {} for keyword in self.keywords
        }
        # The same occurrence maps in keyword order.  The expansion loop's
        # per-candidate statistics walk these hundreds of thousands of times
        # per search; iterating a prebuilt tuple of dict references skips a
        # dict lookup per keyword per call.
        self._occ_maps: Tuple[Dict[FragmentId, int], ...] = tuple(
            self._occurrences[keyword] for keyword in self.keywords
        )
        #: Union of the occurrence maps' keys — the O(1) backing for
        #: :meth:`fragment_is_relevant`.
        self._relevant: Set[FragmentId] = set()
        # One batched store read gathers every query keyword's full inverted
        # list (one sqlite query on disk).  Lists are impact-ordered, so on a
        # duplicated (keyword, fragment) posting the first entry carries the
        # maximum occurrence count — keep it, matching the stores'
        # ``fragment_term_frequencies``.
        gathered = index.postings_for_many(self.keywords)
        relevant = self._relevant
        for keyword in self.keywords:
            per_fragment = self._occurrences[keyword]
            for posting in gathered[keyword]:
                per_fragment.setdefault(posting.document_id, posting.term_frequency)
                relevant.add(posting.document_id)
        self._idf = {
            keyword: (1.0 / len(gathered[keyword]) if gathered[keyword] else 0.0)
            for keyword in self.keywords
        }
        self._posting_count = sum(len(gathered[keyword]) for keyword in self.keywords)
        # Sizes are memoised: a whole equality group's are handed over when
        # the search opens it (prime_sizes), anything else is a point read on
        # first use.  This memo and the group totals are all a search writes,
        # both idempotently: a cached scorer is safe under concurrency.
        self._sizes: Dict[FragmentId, int] = {}
        self._groups: Dict[Callable, List[Tuple[Tuple[FragmentId, ...], Tuple[int, ...]]]] = {}
        if idf_overrides is not None:
            # Applied before _idf_list, so every score and every admissible
            # bound uses the override consistently.
            for keyword in self.keywords:
                if keyword in idf_overrides:
                    self._idf[keyword] = idf_overrides[keyword]
        # IDFs in keyword order, for the zip-based hot loops (the dict stays
        # authoritative for the public idf() accessor).
        self._idf_list: Tuple[float, ...] = tuple(self._idf[keyword] for keyword in self.keywords)

    def size_of(self, identifier: FragmentId) -> int:
        """One fragment's keyword count (a point read on first use, then memoised)."""
        size = self._sizes.get(identifier)
        if size is None:
            size = self.index.fragment_size(identifier)
            self._sizes[identifier] = size
        return size

    def prime_sizes(self, sizes: Mapping[FragmentId, int]) -> None:
        """Adopt sizes the caller already holds, sparing their point reads."""
        self._sizes.update(sizes)

    def posting_count(self) -> int:
        """Total posting entries across the query keywords' inverted lists."""
        return self._posting_count

    # ------------------------------------------------------------------
    def idf(self, keyword: str) -> float:
        return self._idf.get(keyword.lower(), 0.0)

    def relevant_fragments(self) -> Tuple[FragmentId, ...]:
        """All fragments containing at least one query keyword (search line 1)."""
        seen: Dict[FragmentId, None] = {}
        for keyword in self.keywords:
            for identifier in self._occurrences[keyword]:
                seen.setdefault(identifier, None)
        return tuple(seen)

    def occurrences(self, keyword: str, identifier: FragmentId) -> int:
        return self._occurrences.get(keyword.lower(), {}).get(identifier, 0)

    def page_size(self, fragments: Sequence[FragmentId]) -> int:
        """Total keyword count of a page assembled from ``fragments``."""
        return sum(self.size_of(tuple(identifier)) for identifier in fragments)

    def page_occurrences(self, fragments: Sequence[FragmentId]) -> Dict[str, int]:
        """Per-query-keyword occurrence counts of the assembled page."""
        totals: Dict[str, int] = {}
        for keyword in self.keywords:
            per_fragment = self._occurrences[keyword]
            totals[keyword] = sum(per_fragment.get(tuple(identifier), 0) for identifier in fragments)
        return totals

    def score(self, fragments: Sequence[FragmentId]) -> float:
        """TF/IDF relevance of the db-page assembled from ``fragments``."""
        size = self.page_size(fragments)
        if size <= 0:
            return 0.0
        total = 0.0
        for keyword, occurrences in self.page_occurrences(fragments).items():
            if occurrences:
                total += (occurrences / size) * self._idf[keyword]
        return total

    def fragment_is_relevant(self, identifier: FragmentId) -> bool:
        """Whether ``identifier`` contains any query keyword."""
        return identifier in self._relevant

    # ------------------------------------------------------------------
    # incremental page statistics (the top-k search hot path)
    # ------------------------------------------------------------------
    def group_totals(
        self, group_key: Callable[[FragmentId], Tuple]
    ) -> List[Tuple[Tuple[FragmentId, ...], Tuple[int, ...]]]:
        """``(seeds, occurrence totals)`` of every group holding a seed.

        ``group_key`` maps a fragment to its equality group
        (:meth:`~repro.core.fragment_graph.FragmentGraph.group_key`).  No
        page inside a group holds more of a query keyword than the group's
        total, so ``score_bound(totals, ...)`` caps every page it can emit.
        Kept per ``group_key``: a cached scorer pays once.
        """
        cached = self._groups.get(group_key)
        if cached is None:
            groups: Dict[Tuple, Tuple[Dict[FragmentId, None], List[int]]] = {}
            for position, per_fragment in enumerate(self._occ_maps):
                for identifier, occurrences in per_fragment.items():
                    key = group_key(identifier)
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = ({}, [0] * len(self.keywords))
                    group[0][identifier] = None  # an ordered set: one entry per seed
                    group[1][position] += occurrences
            cached = self._groups[group_key] = [
                (tuple(seeds), tuple(totals)) for seeds, totals in groups.values()
            ]
        return cached

    # ------------------------------------------------------------------
    # admissible score bound (exact expansion pruning)
    # ------------------------------------------------------------------
    def score_bound(self, occurrences: Sequence[int], least_size: int) -> float:
        """An admissible bound on a page's score from a floor on its size.

        The expansion loop calls this with a page's totals already extended
        by a candidate and ``least_size`` = the page's size plus the
        candidate's query-keyword occurrence total: the candidate's size is
        at least that total, so the exact extended score cannot exceed the
        bound, and a candidate that cannot beat the best one found so far
        is discarded without touching the store for its size.
        """
        if least_size <= 0:
            # Neither the page nor the candidate holds any query keyword:
            # the exact extended score is 0 whatever the candidate's size.
            return 0.0
        weighted = 0.0
        for idf, total in zip(self._idf_list, occurrences):
            weighted += total * idf
        return (weighted / least_size) * _BOUND_INFLATION

    def page_stats(self, fragments: Sequence[FragmentId]) -> PageStats:
        """The integer statistics of the page assembled from ``fragments``."""
        occurrences = tuple(
            sum(per_fragment.get(identifier, 0) for identifier in fragments)
            for per_fragment in self._occ_maps
        )
        return PageStats(occurrences=occurrences, size=self.page_size(fragments))

    def fragment_totals(self, identifier: FragmentId) -> Tuple[Tuple[int, ...], int]:
        """``page_stats((identifier,))`` as a bare ``(occurrences, size)`` pair."""
        return (
            tuple(per_fragment.get(identifier, 0) for per_fragment in self._occ_maps),
            self.size_of(identifier),
        )

    def relevant_among(self, identifiers: Iterable[FragmentId]) -> List[FragmentId]:
        """The ``identifiers`` containing a query keyword."""
        relevant = self._relevant
        return [identifier for identifier in identifiers if identifier in relevant]

    def extended_occurrences(
        self, occurrences: Sequence[int], candidate: FragmentId
    ) -> Tuple[int, ...]:
        """``occurrences`` of a page once ``candidate`` joins it — O(|W|)."""
        return tuple(
            total + per_fragment.get(candidate, 0)
            for per_fragment, total in zip(self._occ_maps, occurrences)
        )

    def score_totals(self, occurrences: Sequence[int], size: int) -> float:
        """A page's TF/IDF relevance from its occurrence totals and size.

        Accumulates in the same keyword order as :meth:`score`, over the same
        exact integer totals, so the result is bit-identical.
        """
        if size <= 0:
            return 0.0
        total = 0.0
        for idf, count in zip(self._idf_list, occurrences):
            if count:
                total += (count / size) * idf
        return total
