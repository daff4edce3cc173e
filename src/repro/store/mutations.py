"""Batched store mutations (the write path's unit of work).

The read path batches its store round-trips (``postings_for_many``,
``fragment_sizes_for``); this module is the write-side counterpart.  A
*mutation batch* is an ordered sequence of three op kinds over the postings
section:

* :class:`ReplaceFragment` — atomically swap one fragment's postings for a
  new set of ``(keyword, occurrences)`` pairs (registering the fragment even
  when the new set is empty),
* :class:`RemoveFragment` — drop one fragment's size entry and every posting
  of it (a no-op when the fragment is unknown),
* :class:`TouchFragment` — register a fragment with size 0 when it is not
  stored yet (a no-op otherwise).

:meth:`repro.store.FragmentStore.apply_mutations` applies a whole batch as
one store operation: a single dictionary pass in
:class:`~repro.store.InMemoryStore` and a single crash-safe sqlite
transaction (data *and* epoch write-through together) in
:class:`~repro.store.DiskStore`.  Each applied batch ticks the store's
:class:`~repro.store.EpochClock` once, stamping every keyword and fragment
the batch touched with the same new epoch — which is what lets the serving
layer invalidate exactly the cached entries one maintenance round could
have changed, at one epoch of clock growth per round.

Ops within one batch apply in order, but ops on *different* fragments
commute (a fragment's postings never depend on another's), which is why
:func:`coalesce_mutations` can fold a batch down to at most a handful of
ops per fragment before the store sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.core.fragments import FragmentId


@dataclass(frozen=True)
class ReplaceFragment:
    """Swap one fragment's postings for ``term_frequencies``.

    ``term_frequencies`` is a tuple of canonical ``(keyword, occurrences)``
    pairs (keywords already lower-cased, occurrences positive); duplicate
    keywords stay separate postings and accumulate into the fragment's size.
    A replace op always registers the fragment, so a fragment whose records
    survive with zero indexable keywords stays known to the store.
    """

    identifier: FragmentId
    term_frequencies: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class RemoveFragment:
    """Drop one fragment's size entry and all of its postings."""

    identifier: FragmentId


@dataclass(frozen=True)
class TouchFragment:
    """Register one fragment with size 0 if it is not stored yet."""

    identifier: FragmentId


#: Everything a mutation batch may contain.
Mutation = Union[ReplaceFragment, RemoveFragment, TouchFragment]


def _as_pairs(term_frequencies) -> Tuple[Tuple[str, int], ...]:
    items = (
        term_frequencies.items()
        if hasattr(term_frequencies, "items")
        else term_frequencies
    )
    return tuple(
        (keyword, int(occurrences))
        for keyword, occurrences in items
        if occurrences > 0
    )


def replace_op(identifier: FragmentId, term_frequencies) -> ReplaceFragment:
    """Build a canonical :class:`ReplaceFragment` from a mapping or pair iterable.

    Coerces the identifier to a tuple and drops non-positive occurrence
    counts.
    Keyword case is preserved — lower-casing is the
    :class:`~repro.core.fragment_index.InvertedFragmentIndex` facade's job.
    """
    return ReplaceFragment(tuple(identifier), _as_pairs(term_frequencies))


def term_vector(pairs: Iterable[Tuple[str, int]]) -> Tuple[int, Dict[str, int]]:
    """One fragment's ``(size, keyword -> occurrences)`` from its posting pairs.

    Duplicate keywords are separate postings: they all count towards the
    size, and the vector keeps the highest count — the posting a
    descending-sorted list scan finds first.
    """
    size = 0
    vector: Dict[str, int] = {}
    for keyword, occurrences in pairs:
        size += occurrences
        if occurrences > vector.get(keyword, 0):
            vector[keyword] = occurrences
    return size, vector


def regroup_posting_lists(posting_lists, registered=()) -> Dict[FragmentId, List[Tuple[str, int]]]:
    """Keyword-major ``(keyword, postings)`` lists as whole fragments.

    The inverse view of an inverted index, in the shape
    :meth:`~repro.store.FragmentStore.bulk_load` takes: ``fragment ->
    [(keyword, occurrences), ...]``.  ``registered`` names fragments to
    carry even when no posting mentions them (they load at size 0);
    duplicate ``(keyword, fragment)`` postings stay separate pairs.
    """
    fragments: Dict[FragmentId, List[Tuple[str, int]]] = {
        tuple(identifier): [] for identifier in registered
    }
    for keyword, postings in posting_lists:
        for identifier, occurrences in postings:
            fragments.setdefault(tuple(identifier), []).append((keyword, occurrences))
    return fragments


def coalesce_mutations(batch: Iterable[Mutation]) -> List[Mutation]:
    """Fold a batch down to the minimal op sequence with the same final state.

    Later :class:`ReplaceFragment`/:class:`RemoveFragment` ops override every
    earlier op on the same fragment; duplicate touches collapse.  A touch is
    only kept when it can still matter — first op for its fragment, or
    following a remove (where it re-registers the fragment empty).  Relative
    order *between* fragments is first-occurrence order, which is sound
    because ops on distinct fragments commute.

    This is what makes Zipf-skewed mutation streams cheap: a burst that
    rewrites the same hot fragment N times reaches the store as one swap.
    """
    slots: Dict[FragmentId, List[Mutation]] = {}
    for op in batch:
        identifier = tuple(op.identifier)
        ops = slots.setdefault(identifier, [])
        if isinstance(op, (ReplaceFragment, RemoveFragment)):
            ops.clear()
            ops.append(op)
        elif not ops or isinstance(ops[-1], RemoveFragment):
            # A touch after a replace is always a no-op (replace registers);
            # after a remove it re-registers the fragment empty.
            ops.append(op)
    coalesced: List[Mutation] = []
    for ops in slots.values():
        coalesced.extend(ops)
    return coalesced


def normalize_mutations(batch: Sequence[Mutation]) -> List[Mutation]:
    """Validate, canonicalise and coalesce one batch (every backend's entry).

    Identifiers are coerced to tuples, replace pair sets to canonical tuples
    with non-positive counts dropped, unknown op types rejected, and the
    result coalesced with :func:`coalesce_mutations`.
    """
    canonical: List[Mutation] = []
    for op in batch:
        if isinstance(op, ReplaceFragment):
            canonical.append(replace_op(op.identifier, op.term_frequencies))
        elif isinstance(op, RemoveFragment):
            canonical.append(RemoveFragment(tuple(op.identifier)))
        elif isinstance(op, TouchFragment):
            canonical.append(TouchFragment(tuple(op.identifier)))
        else:
            raise TypeError(
                f"unknown mutation op {op!r}; expected ReplaceFragment, "
                "RemoveFragment or TouchFragment"
            )
    return coalesce_mutations(canonical)
