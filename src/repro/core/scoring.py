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
:meth:`seed_scores` scores every relevant fragment in one pass over the
inverted lists.  Occurrence totals and sizes are exact integers and the
keyword accumulation order matches :meth:`score`, so the incremental path
produces bit-identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import FragmentId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.blocks import KeywordBlocks

#: Relative inflation applied to every admissible score bound.  The bounds
#: are derived with different floating-point operation orders than the exact
#: scores they cap (one division of sums vs. a sum of divided terms), so a
#: mathematically-equal bound could land an ulp *below* the exact score and
#: break the early-termination exactness argument.  Inflating by 1e-9 —
#: about a million times the worst accumulated rounding over a query's few
#: dozen terms — keeps every bound safely admissible; the only cost is that
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
    the admissible seed/block bounds by exactly the factor it scales the
    exact scores (both are ``idf``-linear per keyword), so the bounds stay
    admissible.
    """

    def __init__(
        self,
        index: InvertedFragmentIndex,
        keywords: Iterable[str],
        lazy: bool = False,
        idf_overrides: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.index = index
        self.keywords: Tuple[str, ...] = tuple(dict.fromkeys(keyword.lower() for keyword in keywords))
        self._lazy = lazy
        self._occurrences: Dict[str, Dict[FragmentId, int]] = {
            keyword: {} for keyword in self.keywords
        }
        # The same occurrence maps in keyword order.  The expansion loop's
        # per-candidate statistics walk these hundreds of thousands of times
        # per search; iterating a prebuilt tuple of dict references skips a
        # dict lookup per keyword per call.  Safe to alias: the maps are
        # mutated in place, never reassigned.
        self._occ_maps: Tuple[Dict[FragmentId, int], ...] = tuple(
            self._occurrences[keyword] for keyword in self.keywords
        )
        #: Union of the occurrence maps' keys, maintained at every insertion
        #: site — the O(1) backing for :meth:`fragment_is_relevant`.
        self._relevant: Set[FragmentId] = set()
        #: Fragments whose full query-keyword occurrence vector is loaded.
        #: Meaningful only in lazy mode — eager scorers know every relevant
        #: fragment up front and never consult it.
        self._known: Set[FragmentId] = set()
        self._blocks: Dict[str, "KeywordBlocks"] = {}
        self._block_plan: Optional[List[Tuple[float, int, int, int]]] = None
        if lazy:
            # Block-directory mode (the bounded top-k search): one batched
            # store read gathers each keyword's *block summaries* — counts
            # and per-block maxima, no posting entries.  Document frequency
            # (and hence the IDF table) falls out of the directory for free;
            # occurrence vectors fill in lazily as the searcher decodes
            # blocks and materializes candidates.
            self._blocks = index.store.posting_blocks_for_many(self.keywords)
            # Completeness tracking: once every block of every query
            # keyword's directory has been decoded, the occurrence maps
            # hold the complete posting membership — exactly the eager
            # scorer's state — and every lazy per-fragment vector fetch
            # becomes a provable no-op (a fragment absent from the maps
            # is absent from the inverted lists).  On workloads where the
            # bounds cannot skip blocks this turns the expansion loop's
            # thousands of is-this-neighbour-relevant store probes into
            # set lookups.
            self._total_blocks = sum(
                len(self._blocks[keyword].summaries) for keyword in self.keywords
            )
            self._decoded_blocks: Set[Tuple[int, int]] = set()
            self._complete = self._total_blocks == 0
            self._idf = {
                keyword: (
                    1.0 / self._blocks[keyword].posting_count
                    if self._blocks[keyword].posting_count
                    else 0.0
                )
                for keyword in self.keywords
            }
            self._posting_count = sum(
                self._blocks[keyword].posting_count for keyword in self.keywords
            )
        else:
            # Exhaustive mode: one batched store read gathers every query
            # keyword's full inverted list (one sqlite query on disk).  Lists
            # are impact-ordered, so on a duplicated (keyword, fragment)
            # posting the first entry carries the maximum occurrence count —
            # keep it, matching the stores' ``fragment_term_frequencies`` and
            # the lazy decode path.
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
            self._total_blocks = 0
            self._decoded_blocks = set()
            self._complete = True
        # Fragment sizes are fetched lazily: the bounded top-k search only
        # needs the sizes of the seeds it actually materializes, so eagerly
        # reading every relevant fragment's size — the hottest read on the
        # old search path — would throw the pruning away.  prime_sizes()
        # batches the fetches; stray lookups fall back one at a time.
        self._sizes: Dict[FragmentId, int] = {}
        self._seed_bounds: Optional[Dict[FragmentId, float]] = None
        if idf_overrides is not None:
            # Applied before _idf_list and before any block_plan/bound
            # computation, so every score and every admissible bound uses
            # the override consistently.
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

    def prime_sizes(self, identifiers: Sequence[FragmentId]) -> None:
        """Batch-fetch the sizes of ``identifiers`` not yet known.

        One chunked/fanned-out store read instead of a per-fragment lookup —
        the searcher calls this for every batch of seeds it materializes.
        Expansion candidates deliberately stay on the lazy :meth:`size_of`
        fallback: the bound pruning skips most of them before their size is
        ever needed, so batching there would read sizes the search then
        throws away.
        """
        missing = [identifier for identifier in identifiers if identifier not in self._sizes]
        if missing:
            self._sizes.update(self.index.store.fragment_sizes_for(tuple(missing)))

    # ------------------------------------------------------------------
    # block directories (lazy mode: the block-max bounded search)
    # ------------------------------------------------------------------
    def posting_count(self) -> int:
        """Total posting entries across the query keywords' inverted lists."""
        return self._posting_count

    def block_plan(self) -> List[Tuple[float, int, int, int]]:
        """One admissible score bound per posting block, ready to heap.

        Returns ``(bound, keyword_index, block_no, count)`` tuples covering
        every block of every query keyword's directory.  For a block of
        keyword ``w`` whose summary caps the per-fragment weight
        ``occ_w/size`` at ``T``, a member fragment's exact score
        ``sum_w' (occ_w'/size) * idf_w'`` is bounded by both

        * ``t*idf_w + (1-t)*M_w`` with ``t = occ_w/size <= T`` and ``M_w``
          the largest IDF among the *other* query keywords — the other
          keywords' occurrences total at most ``size - occ_w``; the
          expression is monotone in ``t`` on ``[0, T]``, so its maximum is
          at an endpoint: ``max(M_w, T*idf_w + (1-T)*M_w)``; and
        * ``T*idf_w + S_w`` with ``S_w = sum_{w' != w} R_w' * idf_w'`` where
          ``R_w'`` is keyword ``w'``'s directory-wide weight ceiling — each
          other keyword contributes at most its own maximum weight.

        The minimum of the two (inflated, see ``_BOUND_INFLATION``) is the
        block's bound.  Summaries may only be stale *high* (fragment sizes
        grow without stored blocks being rebuilt until compaction), which
        loosens bounds but never under-caps a score — exactness survives.
        Requires lazy mode; computed once per scorer.
        """
        if not self._lazy:
            raise RuntimeError("block_plan() requires a lazy (block-directory) scorer")
        if self._block_plan is None:
            plan: List[Tuple[float, int, int, int]] = []
            ceilings = {
                keyword: self._blocks[keyword].max_weight for keyword in self.keywords
            }
            for kidx, keyword in enumerate(self.keywords):
                directory = self._blocks[keyword]
                if not directory.summaries:
                    continue
                idf = self._idf[keyword]
                other_max_idf = 0.0
                others_sum = 0.0
                for other in self.keywords:
                    if other == keyword:
                        continue
                    other_idf = self._idf[other]
                    if other_idf > other_max_idf:
                        other_max_idf = other_idf
                    others_sum += ceilings[other] * other_idf
                for block_no, summary in enumerate(directory.summaries):
                    ceiling = summary.max_weight
                    bound_split = max(
                        other_max_idf, ceiling * idf + (1.0 - ceiling) * other_max_idf
                    )
                    bound_sum = ceiling * idf + others_sum
                    plan.append(
                        (
                            min(bound_split, bound_sum) * _BOUND_INFLATION,
                            kidx,
                            block_no,
                            summary.count,
                        )
                    )
            self._block_plan = plan
        return self._block_plan

    def decode_block(self, keyword_index: int, block_no: int) -> Tuple[FragmentId, ...]:
        """Materialize one block's posting entries into the occurrence maps.

        Returns the block's fragment identifiers in impact order (duplicates
        included — the searcher counts them against the pruning identity).
        A duplicated (keyword, fragment) posting keeps its first — maximum —
        occurrence count.  On single-keyword queries the decoded entries are
        immediately *known*: their full query vector is this one entry, so
        no per-fragment vector fetch is ever needed.
        """
        keyword = self.keywords[keyword_index]
        per_fragment = self._occurrences[keyword]
        relevant = self._relevant
        single = len(self.keywords) == 1
        decoded: List[FragmentId] = []
        for posting in self._blocks[keyword].decode(block_no):
            identifier = posting.document_id
            per_fragment.setdefault(identifier, posting.term_frequency)
            relevant.add(identifier)
            if single:
                self._known.add(identifier)
            decoded.append(identifier)
        if not self._complete:
            self._decoded_blocks.add((keyword_index, block_no))
            if len(self._decoded_blocks) == self._total_blocks:
                self._complete = True
        return tuple(decoded)

    def ensure_known(self, identifiers: Iterable[FragmentId]) -> None:
        """Load the full query-keyword vectors of any unknown ``identifiers``.

        One batched store read per call; fragments already known (or every
        fragment, in eager mode) cost a set lookup.  The searcher calls this
        for each batch of seeds it materializes and for every expansion
        candidate before per-fragment occurrence lookups.
        """
        if not self._lazy or self._complete:
            return
        # Single pass, allocation-free when everything is already known —
        # the overwhelmingly common case on the expansion hot path.
        known = self._known
        missing: Optional[List[FragmentId]] = None
        for identifier in identifiers:
            if identifier not in known:
                if missing is None:
                    missing = [identifier]
                else:
                    missing.append(identifier)
        if missing:
            self._fetch_vectors(missing)

    def _ensure_one(self, identifier: FragmentId) -> None:
        if self._lazy and not self._complete and identifier not in self._known:
            self._fetch_vectors([identifier])

    def _fetch_vectors(self, missing: Sequence[FragmentId]) -> None:
        vectors = self.index.store.fragment_term_frequencies_for(tuple(missing))
        relevant = self._relevant
        for identifier in missing:
            vector = vectors.get(identifier, {})
            for keyword, per_fragment in zip(self.keywords, self._occ_maps):
                occurrences = vector.get(keyword)
                if occurrences:
                    per_fragment.setdefault(identifier, occurrences)
                    relevant.add(identifier)
            self._known.add(identifier)

    # ------------------------------------------------------------------
    def idf(self, keyword: str) -> float:
        return self._idf.get(keyword.lower(), 0.0)

    def relevant_fragments(self) -> Tuple[FragmentId, ...]:
        """All fragments containing at least one query keyword (search line 1)."""
        if self._lazy:
            raise RuntimeError(
                "relevant_fragments() requires an eager scorer - lazy scorers "
                "only materialize the fragments the bounded search touches"
            )
        seen: Dict[FragmentId, None] = {}
        for keyword in self.keywords:
            for identifier in self._occurrences[keyword]:
                seen.setdefault(identifier, None)
        return tuple(seen)

    def occurrences(self, keyword: str, identifier: FragmentId) -> int:
        self._ensure_one(identifier)
        return self._occurrences.get(keyword.lower(), {}).get(identifier, 0)

    def page_size(self, fragments: Sequence[FragmentId]) -> int:
        """Total keyword count of a page assembled from ``fragments``."""
        return sum(self.size_of(tuple(identifier)) for identifier in fragments)

    def page_occurrences(self, fragments: Sequence[FragmentId]) -> Dict[str, int]:
        """Per-query-keyword occurrence counts of the assembled page."""
        if self._lazy:
            self.ensure_known([tuple(identifier) for identifier in fragments])
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
        if identifier in self._relevant:
            # A hit in the partially-filled set is already definitive:
            # presence implies at least one occurrence, known vector or not.
            return True
        if self._lazy and not self._complete and identifier not in self._known:
            self._fetch_vectors((identifier,))
            return identifier in self._relevant
        return False

    # ------------------------------------------------------------------
    # incremental page statistics (the top-k search hot path)
    # ------------------------------------------------------------------
    def seed_scores(self) -> Dict[FragmentId, float]:
        """Single-fragment scores of every relevant fragment, in one pass.

        Equivalent to ``{f: score([f]) for f in relevant_fragments()}`` but
        computed directly from the gathered inverted lists, without building a
        per-fragment occurrence dict for each seed.
        """
        if self._lazy:
            raise RuntimeError("seed_scores() requires an eager scorer")
        scores: Dict[FragmentId, float] = {}
        for keyword in self.keywords:
            idf = self._idf[keyword]
            for identifier, occurrences in self._occurrences[keyword].items():
                size = self.size_of(identifier)
                if size > 0:
                    scores[identifier] = scores.get(identifier, 0.0) + (occurrences / size) * idf
                else:
                    scores.setdefault(identifier, 0.0)
        return scores

    def seed_scores_for(self, identifiers: Sequence[FragmentId]) -> Dict[FragmentId, float]:
        """Single-fragment scores of just ``identifiers``.

        The per-identifier accumulation runs in keyword order, skipping zero
        totals, exactly like :meth:`score` — so bounded-mode materialization
        can score one decoded batch at a time and still produce bit-identical
        floats.
        """
        self.ensure_known(identifiers)
        scores: Dict[FragmentId, float] = {}
        for identifier in identifiers:
            size = self.size_of(identifier)
            total = 0.0
            if size > 0:
                for per_fragment, idf in zip(self._occ_maps, self._idf_list):
                    occurrences = per_fragment.get(identifier)
                    if occurrences:
                        total += (occurrences / size) * idf
            scores[identifier] = total
        return scores

    # ------------------------------------------------------------------
    # admissible score bounds (exact early termination)
    # ------------------------------------------------------------------
    def seed_score_bounds(self) -> Dict[FragmentId, float]:
        """An admissible score bound per relevant fragment, size-free.

        A seed's exact score is ``sum_w (tf_w/size) * idf_w``; its size is at
        least the sum of its query-keyword occurrences, so the IDF average
        weighted by those occurrences bounds the score from above using the
        gathered inverted lists alone — no store read.  The searcher only
        pays for a fragment's size once this bound says the seed could still
        beat the current frontier.  Keys iterate in relevant-fragment order;
        values are safety-inflated (see ``_BOUND_INFLATION``), so a bound
        never dips below the exact score it caps and over-pruning is
        impossible.  Computed once per scorer.
        """
        if self._lazy:
            raise RuntimeError("seed_score_bounds() requires an eager scorer")
        if self._seed_bounds is None:
            weighted: Dict[FragmentId, float] = {}
            totals: Dict[FragmentId, int] = {}
            for keyword in self.keywords:
                idf = self._idf[keyword]
                for identifier, occurrences in self._occurrences[keyword].items():
                    weighted[identifier] = weighted.get(identifier, 0.0) + occurrences * idf
                    totals[identifier] = totals.get(identifier, 0) + occurrences
            self._seed_bounds = {
                identifier: (
                    (weighted[identifier] / totals[identifier]) * _BOUND_INFLATION
                    if totals[identifier]
                    else 0.0
                )
                for identifier in weighted
            }
        return self._seed_bounds

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
        if self._lazy:
            self.ensure_known(fragments)
        occurrences = tuple(
            sum(per_fragment.get(identifier, 0) for identifier in fragments)
            for per_fragment in self._occ_maps
        )
        return PageStats(occurrences=occurrences, size=self.page_size(fragments))

    def fragment_totals(self, identifier: FragmentId) -> Tuple[Tuple[int, ...], int]:
        """``page_stats((identifier,))`` as a bare ``(occurrences, size)`` pair."""
        self._ensure_one(identifier)
        return (
            tuple(per_fragment.get(identifier, 0) for per_fragment in self._occ_maps),
            self.size_of(identifier),
        )

    def relevant_among(self, identifiers: Iterable[FragmentId]) -> List[FragmentId]:
        """The ``identifiers`` containing a query keyword (one batched read)."""
        self.ensure_known(identifiers)
        relevant = self._relevant
        return [identifier for identifier in identifiers if identifier in relevant]

    def extended_occurrences(
        self, occurrences: Sequence[int], candidate: FragmentId
    ) -> Tuple[int, ...]:
        """``occurrences`` of a page once ``candidate`` joins it — O(|W|)."""
        self._ensure_one(candidate)
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
