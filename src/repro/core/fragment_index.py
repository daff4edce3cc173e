"""The inverted fragment index (Section V, Figure 6).

Structurally identical to a conventional inverted file, but the indexed
"documents" are db-page fragment identifiers: for every keyword ``w`` the
index keeps the list of ``(fragment identifier, occurrences)`` pairs sorted by
descending occurrence count.  The index additionally records every fragment's
total keyword count (its *size*), which the fragment graph displays on its
nodes and the top-k search uses against the size threshold ``s``.

Storage is delegated to a pluggable :class:`~repro.store.FragmentStore`
backend: the index canonicalises its inputs (keywords lower-cased, fragment
identifiers coerced to tuples) and programs against the store interface, so
the same code serves the in-memory :class:`~repro.store.InMemoryStore` and
the persistent :class:`~repro.store.DiskStore`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.fragments import Fragment, FragmentId
from repro.store.base import FragmentStore
from repro.store.memory import InMemoryStore
from repro.store.mutations import regroup_posting_lists
from repro.text.inverted_index import Posting


def _canonical_pairs(term_frequencies) -> List[Tuple[str, int]]:
    """A term map (or pair iterable) as lower-cased ``(keyword, occurrences)`` pairs.

    Pairs, not a dict: distinct keys that lower-case to the same keyword
    must stay separate postings and accumulate into the fragment's size.
    """
    items = term_frequencies.items() if hasattr(term_frequencies, "items") else term_frequencies
    return [(keyword.lower(), occurrences) for keyword, occurrences in items]


class InvertedFragmentIndex:
    """Keyword → sorted list of (fragment identifier, occurrence count)."""

    def __init__(self, store: Optional[FragmentStore] = None) -> None:
        self._store = store if store is not None else InMemoryStore()

    @property
    def store(self) -> FragmentStore:
        """The storage backend (shared with the fragment graph by the engine)."""
        return self._store

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fragments(
        cls,
        fragments: Mapping[FragmentId, Fragment],
        store: Optional[FragmentStore] = None,
    ) -> "InvertedFragmentIndex":
        """Build the index from fully-derived fragments (reference path)."""
        index = cls(store=store)
        index._store.bulk_load(
            (tuple(identifier), _canonical_pairs(fragment.term_frequencies))
            for identifier, fragment in fragments.items()
        )
        index.finalize()
        return index

    @classmethod
    def from_posting_lists(
        cls,
        posting_lists: Mapping[str, Sequence[Tuple[FragmentId, int]]],
        store: Optional[FragmentStore] = None,
    ) -> "InvertedFragmentIndex":
        """Build the index from consolidated ``keyword -> [(fragment, count)]`` lists.

        This is the format both MapReduce crawling workflows leave behind in
        their final output file, which makes this classmethod the crawl→store
        loading path: the lists are regrouped into whole fragments and handed
        to the store as one bulk load — pass ``store=`` to land the crawl
        output directly in the serving backend.
        """
        index = cls(store=store)
        fragments = regroup_posting_lists(
            (keyword.lower(), postings) for keyword, postings in posting_lists.items()
        )
        index._store.bulk_load(fragments.items())
        index.finalize()
        return index

    def add_fragment(self, identifier: FragmentId, term_frequencies: Mapping[str, int]) -> None:
        """Index one fragment's keyword counts."""
        identifier = tuple(identifier)
        if self._store.has_fragment(identifier):
            raise ValueError(f"fragment {identifier!r} already indexed")
        self._store.bulk_load([(identifier, _canonical_pairs(term_frequencies))])

    def remove_fragment(self, identifier: FragmentId) -> None:
        """Remove every posting of ``identifier`` (no-op when absent)."""
        self._store.remove_fragment(tuple(identifier))

    def replace_fragment(self, identifier: FragmentId, term_frequencies: Mapping[str, int]) -> None:
        """Replace a fragment's postings (incremental maintenance).

        A single store operation, so on a partitioned cluster the swap
        happens atomically inside the fragment's owning partition.
        """
        self._store.replace_fragment(tuple(identifier), _canonical_pairs(term_frequencies))

    def apply_mutations(self, batch) -> int:
        """Apply a batch of replace/remove/touch ops as one store operation.

        ``batch`` holds :mod:`repro.store.mutations` ops; replace ops are
        canonicalised exactly like :meth:`replace_fragment` (identifiers
        coerced to tuples, keywords lower-cased — distinct keys that
        lower-case to the same keyword accumulate, non-positive counts
        dropped) before the store sees them.  The store applies the whole
        batch natively — one dictionary pass or one crash-safe transaction
        — and ticks its epoch clock once.  Returns the number of ops applied
        after coalescing.
        """
        from repro.store.mutations import ReplaceFragment

        # Only the lower-casing is facade business; identifier coercion and
        # count filtering live in the store's normalize_mutations, which
        # re-validates everything else (including rejecting unknown op types).
        return self._store.apply_mutations(
            [
                ReplaceFragment(op.identifier, _canonical_pairs(op.term_frequencies))
                if isinstance(op, ReplaceFragment)
                else op
                for op in batch
            ]
        )

    def finalize(self) -> None:
        """Make everything loaded so far readable in canonical order."""
        self._store.finalize()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def postings(self, keyword: str) -> Tuple[Posting, ...]:
        """The inverted list of ``keyword`` (sorted, possibly empty)."""
        return self._store.postings(keyword.lower())

    def postings_for_many(self, keywords: Sequence[str]) -> Dict[str, Tuple[Posting, ...]]:
        """The inverted lists of all ``keywords`` in one batched store read.

        Keys are the canonical (lower-cased) keywords.  This is the scorer's
        construction path: a multi-keyword query costs one sqlite query
        instead of one per keyword.
        """
        return self._store.postings_for_many([keyword.lower() for keyword in keywords])

    def fragment_frequency(self, keyword: str) -> int:
        """Number of fragments containing ``keyword`` (the DF Dash uses for IDF)."""
        return self._store.fragment_frequency(keyword.lower())

    def document_frequencies(self) -> Dict[str, int]:
        """DF of every keyword in the vocabulary."""
        return self._store.document_frequencies()

    def idf(self, keyword: str) -> float:
        """Dash's IDF approximation: the inverse of the fragment frequency."""
        frequency = self.fragment_frequency(keyword)
        return 1.0 / frequency if frequency else 0.0

    def term_frequency(self, keyword: str, identifier: FragmentId) -> int:
        """Occurrences of ``keyword`` in fragment ``identifier``."""
        return self._store.term_frequency(keyword.lower(), tuple(identifier))

    def fragment_term_frequencies(self, identifier: FragmentId) -> Dict[str, int]:
        """All keyword counts of one fragment (maintenance/tests)."""
        return self._store.fragment_term_frequencies(tuple(identifier))

    def fragment_size(self, identifier: FragmentId) -> int:
        """Total keyword occurrences of ``identifier`` (0 when unknown)."""
        return self._store.fragment_size(tuple(identifier))

    @property
    def fragment_sizes(self) -> Dict[FragmentId, int]:
        return self._store.fragment_sizes()

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        return self._store.fragment_ids()

    @property
    def fragment_count(self) -> int:
        return self._store.fragment_count()

    @property
    def vocabulary(self) -> Tuple[str, ...]:
        return self._store.vocabulary()

    def __contains__(self, keyword: str) -> bool:
        return self._store.fragment_frequency(keyword.lower()) > 0

    def __len__(self) -> int:
        return self._store.vocabulary_size()

    def average_keywords_per_fragment(self) -> float:
        """The Table IV statistic, computed from the index itself."""
        sizes = self._store.fragment_sizes()
        if not sizes:
            return 0.0
        return sum(sizes.values()) / len(sizes)

    def approximate_bytes(self) -> int:
        """Rough serialized size of the index (ablation benchmarks)."""
        return self._store.approximate_bytes()

    def iter_items(self) -> Iterator[Tuple[str, Tuple[Posting, ...]]]:
        """Iterate ``(keyword, postings)`` in keyword order."""
        return self._store.iter_items()
