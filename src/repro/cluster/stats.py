"""Epoch-validated global term statistics: the fan-out-elimination cache.

Every routed query used to pay two full fan-out rounds: one scatter to sum
per-keyword posting counts into global document frequencies (the IDF every
partition then scores with), one to open the per-partition streams.  The
DF round reads nothing but the block *directories* — data that changes only
when some query keyword's postings change, which is exactly what the
store-owned :class:`~repro.store.EpochClock` already stamps.  So the round
is cacheable with the very revalidation rule the serving
:class:`~repro.serving.cache.ResultCache` uses:

* fast path — the facade store epoch equals the entry's stamp: nothing
  anywhere changed, serve the cached statistics;
* slow path — the store moved: the entry is fresh iff the keyword's
  postings epoch does not exceed the stamp; a fresh entry is re-stamped to
  the current epoch so later lookups take the fast path again.

One :class:`TermStatsEntry` per canonical keyword carries the **global
document frequency** (the exact integer sum of per-partition posting
counts) and the **per-partition weight ceilings** — each partition's
directory-wide :attr:`~repro.store.blocks.KeywordBlocks.max_weight`, read
for free from the same ``posting_blocks_for_many`` call the DF round
already performs.  Keywords absent from the corpus are cached too
(*negative entries*: frequency 0, no ceilings), so misses on unseen
keywords stop costing a full scatter.

The ceilings feed :func:`partition_bounds`: an admissible per-partition
upper bound on any queue entry a partition's stream could ever produce
(the derivation is in its docstring).  A page assembled inside a partition
scores the size-weighted *average* of its member fragments'
single-fragment scores, so the per-fragment bound covers expanded pages
too; ceilings can only ever be stale *high* (the store contract, see
:mod:`repro.store.blocks`), so the bounds stay admissible — a partition
whose bound is 0 provably holds no relevant fragment and is never
contacted at all, and the router's merge only advances a partition's
stream once its bound reaches the global dequeue frontier.

Invalidation is belt-and-braces: revalidation alone is already correct
(every DF-changing write ticks the keyword's facade epoch), and
write-through invalidation riding
:meth:`~repro.cluster.ClusterStore.apply_mutations` (via the mutation
listeners the facade exposes) additionally drops affected entries the
moment a batch commits, keeping the cache small and the slow path rare.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.scoring import _BOUND_INFLATION
from repro.store.base import FragmentStore


class TermStatsEntry:
    """One keyword's cached global statistics (mutable stamp, like a cache
    entry of :class:`~repro.serving.cache.ResultCache`)."""

    __slots__ = ("keyword", "frequency", "ceilings", "epoch")

    def __init__(
        self,
        keyword: str,
        frequency: int,
        ceilings: Mapping[int, float],
        epoch: int,
    ) -> None:
        self.keyword = keyword
        #: Global document frequency: the exact sum of per-partition posting
        #: counts.  0 is a *negative entry* — the keyword is nowhere.
        self.frequency = frequency
        #: partition -> directory-wide weight ceiling (``max_weight`` of the
        #: partition's block directory).  Partitions without the keyword are
        #: simply absent (ceiling 0).
        self.ceilings = dict(ceilings)
        self.epoch = epoch


class TermStatsCache:
    """A thread-safe LRU of :class:`TermStatsEntry`, revalidated per lookup.

    ``store`` is the cluster facade (:class:`~repro.cluster.ClusterStore`)
    whose epoch clock stamps and revalidates entries — the same clock the
    serving result cache validates against, so the two caches share one
    freshness authority.
    """

    def __init__(self, store: FragmentStore, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"term-stats capacity must be positive, got {capacity}")
        self._store = store
        self.capacity = capacity
        self._entries: "OrderedDict[str, TermStatsEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale_drops = 0
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def lookup(self, keywords: Sequence[str]) -> Optional[Dict[str, TermStatsEntry]]:
        """Every keyword's fresh entry, or ``None`` if any is missing/stale.

        All-or-nothing on purpose: a query with even one unknown keyword
        must scatter the DF read anyway (one batched directory read per
        partition covers every keyword at once), so a partial hit saves
        nothing.  Fresh entries are re-stamped to the current epoch.
        """
        current = self._store.epoch
        found: Dict[str, TermStatsEntry] = {}
        stale: List[str] = []
        with self._lock:
            for keyword in keywords:
                entry = self._entries.get(keyword)
                if entry is None:
                    self.misses += len(keywords)
                    return None
                found[keyword] = entry
        for keyword, entry in found.items():
            if entry.epoch != current:
                # Slow path: the store moved somewhere; the entry survives
                # iff this keyword's postings did not move past the stamp
                # (epochs only grow), and is then valid *at* ``current``.
                if self._store.keyword_epoch(keyword) > entry.epoch:
                    stale.append(keyword)
                    continue
                entry.epoch = current
        with self._lock:
            if stale:
                for keyword in stale:
                    if self._entries.get(keyword) is found[keyword]:
                        del self._entries[keyword]
                self.stale_drops += len(stale)
                self.misses += len(keywords)
                return None
            for keyword in keywords:
                if self._entries.get(keyword) is found[keyword]:
                    self._entries.move_to_end(keyword)
            self.hits += len(keywords)
        return found

    def record(
        self,
        entries: Iterable[Tuple[str, int, Mapping[int, float]]],
        epoch: int,
    ) -> None:
        """Store ``(keyword, global frequency, partition ceilings)`` rows.

        ``epoch`` is the facade epoch observed *before* the DF scatter ran
        — the standard read-then-stamp ordering: any mutation landing after
        the stamp bumps the keyword's epoch past it and revalidation drops
        the entry, so a racing write can at worst cause a spurious miss,
        never a stale hit.
        """
        with self._lock:
            for keyword, frequency, ceilings in entries:
                self._entries[keyword] = TermStatsEntry(
                    keyword, frequency, ceilings, epoch
                )
                self._entries.move_to_end(keyword)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_keywords(self, keywords: Iterable[str]) -> int:
        """Write-through invalidation: drop the named keywords' entries.

        Wired as a :class:`~repro.cluster.ClusterStore` mutation listener —
        the facade already derives every batch's affected keywords for its
        epoch tick, and this rides the same commit point.  Returns how many
        entries were dropped.
        """
        dropped = 0
        with self._lock:
            for keyword in keywords:
                if self._entries.pop(keyword, None) is not None:
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, keyword: object) -> bool:
        with self._lock:
            return keyword in self._entries

    def statistics(self) -> Dict[str, int]:
        """Monotonic counters plus the current occupancy."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "stale_drops": self.stale_drops,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }


def partition_bounds(
    keywords: Sequence[str],
    idf: Mapping[str, float],
    ceilings: Mapping[str, Mapping[int, float]],
    partitions: Iterable[int],
) -> Dict[int, float]:
    """An admissible upper bound per partition on any queue entry score.

    ``ceilings`` maps keyword -> partition -> directory-wide weight ceiling
    (see :class:`TermStatsEntry`); ``idf`` holds the *global* IDF values the
    partitions score with.  A fragment of keyword ``w``'s list whose
    weight ``occ_w/size`` is capped at the ceiling ``T`` has exact score
    ``sum_w' (occ_w'/size) * idf_w'``, bounded by both

    * ``max(M_w, T*idf_w + (1-T)*M_w)`` with ``M_w`` the largest IDF among
      the *other* query keywords — their occurrences total at most
      ``size - occ_w``, and ``t*idf_w + (1-t)*M_w`` is monotone in
      ``t = occ_w/size`` on ``[0, T]``, so its maximum is at an endpoint;
    * ``T*idf_w + sum_{w' != w} R_w' * idf_w'`` with ``R_w'`` keyword
      ``w'``'s own ceiling — each other keyword contributes at most its
      maximum weight.

    The partition's bound is the maximum over its present keywords of the
    smaller of the two: it caps every member fragment's exact score, hence
    (size-weighted-average argument) every assembled page's score the
    partition could enqueue.  Bounds inherit the stale-high-only guarantee
    of the summaries and carry the scorer's safety inflation, so pruning on
    them can never change the result set.

    A partition with no query keyword present gets bound 0.0 — it holds no
    relevant fragment, so its stream could never emit anything.
    """
    bounds: Dict[int, float] = {}
    for partition in partitions:
        local = {
            keyword: ceilings.get(keyword, {}).get(partition, 0.0)
            for keyword in keywords
        }
        best = 0.0
        for keyword in keywords:
            ceiling = local[keyword]
            if ceiling <= 0.0:
                continue
            keyword_idf = idf.get(keyword, 0.0)
            other_max_idf = 0.0
            others_sum = 0.0
            for other in keywords:
                if other == keyword:
                    continue
                other_idf = idf.get(other, 0.0)
                if other_idf > other_max_idf:
                    other_max_idf = other_idf
                others_sum += local[other] * other_idf
            bound_split = max(
                other_max_idf, ceiling * keyword_idf + (1.0 - ceiling) * other_max_idf
            )
            bound_sum = ceiling * keyword_idf + others_sum
            bound = min(bound_split, bound_sum) * _BOUND_INFLATION
            if bound > best:
                best = bound
        bounds[partition] = best
    return bounds
