"""The single-partition in-memory backend.

Holds exactly the dictionaries that used to live inside
:class:`~repro.core.fragment_index.InvertedFragmentIndex`, plus a fragment -> keywords
reverse map so that removing a fragment only touches the inverted lists it
actually appears in (the seed implementation re-scanned every posting list on
each removal, O(keywords x postings) per incremental delete).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set, Tuple

from repro.core.fragments import FragmentId
from repro.store.base import FragmentStore, StoreError
from repro.store.mutations import (
    RemoveFragment,
    ReplaceFragment,
    normalize_mutations,
    replace_op,
    term_vector,
)
from repro.text.inverted_index import Posting


def posting_sort_key(posting: Posting):
    """Descending occurrence count, ``str(identifier)`` tie-break (Figure 6)."""
    return (-posting.term_frequency, str(posting.document_id))


class InMemoryStore(FragmentStore):
    """All postings and sizes in plain dictionaries."""

    def __init__(self) -> None:
        super().__init__()
        # Serializes postings-section mutators against finalize's sort-swap.
        # Reads stay lock-free: every mutation replaces whole lists (or
        # appends), so a racing reader sees a complete list, never a torn
        # one, and the epoch stamp retires anything it computed mid-write.
        self._postings_lock = threading.Lock()
        self._postings: Dict[str, List[Posting]] = {}
        self._fragment_sizes: Dict[FragmentId, int] = {}
        # Reverse map: fragment -> keyword -> occurrence count, insertion
        # ordered.  The keys make removals touch only the inverted lists the
        # fragment appears in; the values answer per-fragment term-vector
        # reads (fragment_term_frequencies_for) without scanning any posting
        # list.  Duplicate (keyword, fragment) postings keep the maximum count — the entry a
        # descending-sorted list scan finds first.
        self._fragment_keywords: Dict[FragmentId, Dict[str, int]] = {}
        self._sorted = True

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def bulk_load(self, fragments) -> int:
        """Append whole new fragments in one locked pass (one clock tick).

        The touched lists are left unsorted; :meth:`finalize` — run by the
        first read — restores the canonical order once, however many loads
        preceded it.
        """
        ops = [
            replace_op(identifier, term_frequencies)
            for identifier, term_frequencies in fragments
        ]
        if not ops:
            return 0
        listed: Set[FragmentId] = set()
        keywords: Set[str] = set()
        with self._postings_lock:
            for op in ops:
                if op.identifier in self._fragment_sizes or op.identifier in listed:
                    raise StoreError(
                        f"bulk load would duplicate fragment {op.identifier!r}; "
                        "bulk loads require fresh fragments"
                    )
                listed.add(op.identifier)
            self._sorted = False
            for op in ops:
                keywords.update(self._append_postings(op.identifier, op.term_frequencies))
        # Every mutator ticks the clock *after* its data writes complete (the
        # tick is the mutation's commit point): search stamps are captured
        # before the search's first data read, so any search that raced this
        # write carries a pre-tick stamp and the tick invalidates it.
        self._epoch_clock.tick_batch(keywords, listed)
        return len(ops)

    def _append_postings(self, identifier: FragmentId, pairs) -> Dict[str, int]:
        """Register ``identifier`` and append its postings (lock held).

        Duplicate ``(keyword, fragment)`` pairs stay separate postings (see
        :func:`~repro.store.mutations.term_vector`).  Returns the fragment's
        keyword map.
        """
        for keyword, occurrences in pairs:
            self._postings.setdefault(keyword, []).append(Posting(identifier, occurrences))
        self._fragment_sizes[identifier], keyword_map = term_vector(pairs)
        self._fragment_keywords[identifier] = keyword_map
        return keyword_map

    def apply_mutations(self, batch) -> int:
        """Apply a whole replace/remove/touch batch in one dictionary pass.

        All ops run under a single acquisition of the postings lock, only
        the inverted lists the batch touched are re-sorted, and the epoch
        clock ticks once for the whole batch (every affected keyword and
        fragment stamped with the same new epoch).  A reader racing the pass
        can observe partially-applied lists with a pre-batch stamp — the
        final tick retires anything it computed, the same write-window rule
        every single mutator follows.
        """
        ops = normalize_mutations(batch)
        if not ops:
            return 0
        affected_keywords: Set[str] = set()
        affected_fragments: Set[FragmentId] = set()
        with self._postings_lock:
            was_sorted = self._sorted
            self._sorted = False
            for op in ops:
                identifier = op.identifier
                if isinstance(op, (ReplaceFragment, RemoveFragment)):
                    if identifier in self._fragment_sizes:
                        del self._fragment_sizes[identifier]
                        outgoing = self._fragment_keywords.pop(identifier, {})
                        for keyword in outgoing:
                            postings = self._postings.get(keyword)
                            if postings is None:
                                continue
                            kept = [p for p in postings if p.document_id != identifier]
                            if kept:
                                self._postings[keyword] = kept
                            else:
                                del self._postings[keyword]
                            affected_keywords.add(keyword)
                        affected_fragments.add(identifier)
                    if isinstance(op, RemoveFragment):
                        continue
                    # Replace: register (even when empty) and append the new
                    # postings.
                    affected_keywords.update(
                        self._append_postings(identifier, op.term_frequencies)
                    )
                    affected_fragments.add(identifier)
                else:  # TouchFragment: stamped; registered empty if new
                    if identifier not in self._fragment_sizes:
                        self._fragment_sizes[identifier] = 0
                        self._fragment_keywords[identifier] = {}
                    affected_fragments.add(identifier)
            if was_sorted:
                # Only the touched lists lost their order; restore it here so
                # the batch needs no store-wide finalize afterwards.
                for keyword in affected_keywords:
                    postings = self._postings.get(keyword)
                    if postings is not None:
                        self._postings[keyword] = sorted(postings, key=posting_sort_key)
                self._sorted = True
        if affected_keywords or affected_fragments:
            self._epoch_clock.tick_batch(affected_keywords, affected_fragments)
        return len(ops)

    def finalize(self) -> None:
        if self._sorted:
            return
        with self._postings_lock:
            if self._sorted:
                return
            for keyword in list(self._postings):
                # Sort into a fresh list and swap in one assignment: a
                # lock-free reader racing this sees either the complete
                # unsorted list or the complete sorted one, never the
                # emptied-out state CPython's in-place list.sort exposes.
                self._postings[keyword] = sorted(self._postings[keyword], key=posting_sort_key)
            self._sorted = True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def postings_for_many(self, keywords) -> Dict[str, Tuple[Posting, ...]]:
        """All requested inverted lists behind a single finalize check."""
        self.finalize()
        return {keyword: tuple(self._postings.get(keyword, ())) for keyword in dict.fromkeys(keywords)}

    def document_frequencies(self) -> Dict[str, int]:
        return {keyword: len(postings) for keyword, postings in self._postings.items()}

    def fragment_term_frequencies_for(self, identifiers) -> Dict[FragmentId, Dict[str, int]]:
        keyword_maps = self._fragment_keywords
        return {
            identifier: dict(keyword_maps.get(identifier, {}))
            for identifier in dict.fromkeys(identifiers)
        }

    def fragment_sizes(self) -> Dict[FragmentId, int]:
        return dict(self._fragment_sizes)

    def fragment_sizes_for(self, identifiers) -> Dict[FragmentId, int]:
        """Sizes of just ``identifiers`` in one dictionary pass."""
        sizes = self._fragment_sizes
        return {identifier: sizes.get(identifier, 0) for identifier in identifiers}

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        return tuple(self._fragment_sizes)

    def has_fragment(self, identifier: FragmentId) -> bool:
        return identifier in self._fragment_sizes

    def fragment_count(self) -> int:
        return len(self._fragment_sizes)

    def vocabulary(self) -> Tuple[str, ...]:
        return tuple(self._postings)
