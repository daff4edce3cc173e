"""Store mutation epochs (the serving layer's invalidation substrate).

Every :class:`~repro.store.FragmentStore` backend owns one :class:`EpochClock`
and ticks it on every mutation.  The clock keeps three views of the same
monotonic counter:

* the **store epoch** — bumped by every mutation, the coarse "has anything
  changed at all" signal a serving cache checks on its fast path;
* **keyword epochs** — the epoch at which each keyword's inverted list last
  changed (a posting added or removed).  A cached search result for keywords
  ``W`` can only gain or lose *seed* fragments through a mutation of some
  ``w in W``'s postings, so comparing the entry's stamp against
  ``max(keyword_epoch(w))`` detects seed-set and IDF staleness exactly;
* **fragment epochs** — the epoch at which each fragment last changed in any
  way: its postings (and therefore its size), its graph node or its adjacency.
  A cached result also depends on every fragment the search *consulted*
  (members of result pages, rejected expansion candidates, neighbour sets);
  the searcher reports that dependency set and the cache compares each
  member's fragment epoch against the entry's stamp.

Together the two fine views make invalidation precise: a maintenance run
bumps only the keywords and fragments it actually rewrote, so cached entries
for untouched queries keep validating (and re-stamp to the current epoch to
stay on the fast path) while any entry whose seeds, pages or neighbourhoods
were touched is dropped.

Epoch reads and ticks are plain int/dict operations — atomic under the GIL.
The intended regime is many concurrent readers with maintenance applied from
one writer at a time (matching :class:`IncrementalMaintainer`).  Every
mutator ticks the clock *after* its data writes complete — the tick is the
mutation's commit point.  A search captures its stamp before its first data
read, so a search that raced a writer necessarily carries a stamp older than
the completed mutation's tick and its cached entry fails revalidation; the
ordering can only over-invalidate (a search that read post-mutation data but
stamped pre-tick), never validate stale data as fresh.  The one permitted
race is a lookup revalidating inside a writer's write window: it may serve
the pre-update entry once — equivalent to the read arriving just before the
not-yet-committed update — and the tick retires the entry immediately after.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.core.fragments import FragmentId


class EpochClock:
    """Monotonic mutation counter with per-keyword and per-fragment views."""

    __slots__ = ("_epoch", "_keywords", "_fragments", "_floor")

    def __init__(self) -> None:
        self._epoch = 0
        self._keywords: Dict[str, int] = {}
        self._fragments: Dict[FragmentId, int] = {}
        # The highest sweep bound ever applied: entries at or below it were
        # pruned, so an *unknown* key answers the floor rather than 0.  This
        # is what keeps the clock sound for consumers the sweep could not
        # see (a reader process refreshing its clock from a swept file): any
        # entry stamped below the floor fails revalidation against a pruned
        # dependency instead of silently validating against the 0 default.
        self._floor = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The store-wide epoch (0 for a store never mutated)."""
        return self._epoch

    @property
    def floor(self) -> int:
        """The highest sweep bound applied (unknown keys answer this)."""
        return self._floor

    def keyword_epoch(self, keyword: str) -> int:
        """Epoch of the keyword's last postings change (the sweep floor if
        never touched or pruned)."""
        return self._keywords.get(keyword, self._floor)

    def fragment_epoch(self, identifier: FragmentId) -> int:
        """Epoch of the fragment's last change of any kind (0 if never touched).

        Removed fragments keep their final epoch: cached entries that depended
        on them must keep failing the freshness check, not see a reset to 0.
        The deliberate cost is O(fragments ever seen) resident entries — a
        tombstone only becomes prunable once no cache entry stamped before
        the removal survives, which the clock cannot observe by itself; the
        serving layer drives that pruning through :meth:`sweep` (see
        :meth:`repro.serving.SearchService.sweep_epochs`).  Unknown (or
        pruned) identifiers answer the sweep floor.
        """
        return self._fragments.get(identifier, self._floor)

    # ------------------------------------------------------------------
    # ticks (one per store mutation)
    # ------------------------------------------------------------------
    def tick_posting(self, keyword: str, identifier: FragmentId) -> int:
        """One posting of ``keyword`` in ``identifier`` added or removed."""
        self._epoch += 1
        self._keywords[keyword] = self._epoch
        self._fragments[identifier] = self._epoch
        return self._epoch

    def tick_fragment(self, identifier: FragmentId) -> int:
        """The fragment changed without touching postings (node, adjacency)."""
        self._epoch += 1
        self._fragments[identifier] = self._epoch
        return self._epoch

    def tick_batch(
        self, keywords: Iterable[str], fragments: Iterable[FragmentId]
    ) -> int:
        """One applied mutation batch: a single epoch for everything it touched.

        This is the commit point of
        :meth:`~repro.store.FragmentStore.apply_mutations` — every keyword
        whose inverted list the batch changed and every fragment it replaced,
        removed or registered is stamped with the same new epoch, so the
        clock grows by one epoch per batch instead of one per posting while
        invalidation stays exactly as precise.
        """
        self._epoch += 1
        for keyword in keywords:
            self._keywords[keyword] = self._epoch
        for identifier in fragments:
            self._fragments[identifier] = self._epoch
        return self._epoch

    # ------------------------------------------------------------------
    # persistence and bounding
    # ------------------------------------------------------------------
    def load(
        self,
        epoch: int,
        keywords: Mapping[str, int],
        fragments: Mapping[FragmentId, int],
        floor: int = 0,
    ) -> None:
        """Replace the clock's state wholesale (snapshot/disk restore).

        A persistent store that survived a restart restores its clock with
        this, so cache stamps handed out before the restart keep comparing
        correctly against mutations applied after it.  ``epoch`` must be at
        least every restored per-keyword/per-fragment epoch; anything else is
        a corrupt snapshot and raises ``ValueError``.  ``floor`` restores the
        sweep floor persisted alongside (see :meth:`sweep`).
        """
        views = list(keywords.values()) + list(fragments.values())
        if views and epoch < max(views):
            raise ValueError(
                f"corrupt epoch state: store epoch {epoch} is older than a "
                f"restored fine-grained epoch {max(views)}"
            )
        if floor > epoch:
            raise ValueError(
                f"corrupt epoch state: sweep floor {floor} is newer than the "
                f"store epoch {epoch}"
            )
        self._epoch = int(epoch)
        self._keywords = {keyword: int(value) for keyword, value in keywords.items()}
        self._fragments = {
            tuple(identifier): int(value) for identifier, value in fragments.items()
        }
        self._floor = int(floor)

    def sweep(self, oldest_live_stamp: int) -> int:
        """Prune every per-keyword/per-fragment entry at or below the stamp.

        This is the generation sweep that bounds tombstone memory: removed
        fragments (and vanished keywords) keep their final epoch forever so
        stale cache entries keep failing revalidation — O(fragments ever
        seen) entries under continuous maintenance churn.  Once the serving
        layer knows the *oldest stamp any live cache entry carries*, every
        entry with ``epoch <= oldest_live_stamp`` is dead weight: for any
        surviving stamp ``t >= oldest_live_stamp`` the freshness comparison
        ``entry_epoch > t`` is false whether the entry reads its recorded
        epoch or the unknown-entry default of 0, so dropping it can never
        flip a revalidation verdict.  Returns the number of entries pruned.

        Callers must pass a stamp no newer than any stamp still being
        compared — :meth:`repro.serving.SearchService.sweep_epochs` derives
        it from the result cache and the computations in flight.
        """
        if oldest_live_stamp < 0:
            raise ValueError(f"oldest live stamp must be non-negative, got {oldest_live_stamp}")
        # Record the bound so unknown keys answer it from now on: a consumer
        # the sweep could not see (a reader process syncing its clock from a
        # swept file) then fails revalidation for anything stamped below the
        # bound instead of trusting the 0 default.
        if oldest_live_stamp > self._floor:
            self._floor = oldest_live_stamp
        pruned = 0
        for keyword in [k for k, value in self._keywords.items() if value <= oldest_live_stamp]:
            del self._keywords[keyword]
            pruned += 1
        for identifier in [
            f for f, value in self._fragments.items() if value <= oldest_live_stamp
        ]:
            del self._fragments[identifier]
            pruned += 1
        return pruned

    def state(self) -> Tuple[int, Dict[str, int], Dict[FragmentId, int]]:
        """The full clock state (store epoch + both fine-grained views).

        Used by snapshot writers; the returned dicts are copies.
        """
        return (self._epoch, dict(self._keywords), dict(self._fragments))

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[int, int, int]:
        """(epoch, tracked keywords, tracked fragments) — diagnostics."""
        return (self._epoch, len(self._keywords), len(self._fragments))
