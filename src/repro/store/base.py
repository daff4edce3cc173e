"""The pluggable fragment-storage interface.

Every serving-side structure of the reproduction — the inverted fragment
index, the fragment graph, the top-k searcher and the incremental
maintainer — programs against :class:`FragmentStore` instead of private
dictionaries, so the storage backend can be swapped (in-memory dictionaries,
a persistent sqlite file, a cluster facade, ...) without touching the
algorithms.

The store keeps what the paper's serving pipeline needs: keyword ->
inverted list of ``(fragment identifier, occurrences)`` postings plus every
fragment's total keyword count (its *size*, the node value of Figure 9).  The
fragment graph is not stored: its adjacency is a function of the fragment
identifiers (:mod:`repro.core.fragment_graph`).

Contract notes shared by all backends:

* callers pass *canonical* keys — keywords already lower-cased and fragment
  identifiers already coerced to tuples (the :class:`InvertedFragmentIndex`
  and :class:`FragmentGraph` facades take care of that);
* :meth:`postings` and :meth:`iter_items` return lists sorted by descending
  occurrence count with ``str(identifier)`` as the tie-break, exactly like the
  conventional inverted file of Section II;
* the store is read in **batches**: a backend implements
  :meth:`~FragmentStore.postings_for_many`,
  :meth:`~FragmentStore.fragment_term_frequencies_for` and
  :meth:`~FragmentStore.fragment_sizes_for` (plus the whole-store reads),
  and ``postings`` / ``fragment_term_frequencies`` / ``term_frequency`` /
  ``fragment_size`` / ``fragment_frequency`` / ``vocabulary_size`` /
  ``iter_items`` are defined once, here, on top of them;
* the store is written in **whole fragments**, the two ways the
  paper writes its index: :meth:`~FragmentStore.bulk_load` takes fragments
  not yet stored (the crawl, Section V) and
  :meth:`~FragmentStore.apply_mutations` swaps, removes or registers stored
  ones (incremental maintenance, Section VIII), with
  :meth:`~FragmentStore.write_batch` as the one commit scope around either.
  A fragment's postings never straddle two partitions, so a swap happens
  entirely inside one of them — which is what makes maintenance safe on a
  partitioned cluster.  ``touch_fragment`` / ``remove_fragment`` /
  ``replace_fragment`` are one-op batches, defined once, here.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.fragments import FragmentId
from repro.store.epochs import EpochClock
from repro.store.mutations import Mutation, RemoveFragment, ReplaceFragment, TouchFragment
from repro.text.inverted_index import Posting


class StoreError(Exception):
    """Raised for invalid store configuration or inconsistent operations."""


class FragmentStore(ABC):
    """Abstract storage for fragment postings and sizes.

    Every store owns an :class:`~repro.store.EpochClock`.  Ticking it
    **after every completed write** is part of the write-method contract:
    the serving layer's caches revalidate against it, and a backend whose
    writes do not tick would be read as permanently fresh.
    """

    def __init__(self) -> None:
        self._epoch_clock = EpochClock()
        # Resolvers yielding the oldest-stamp callback of each live consumer
        # revalidating against the clock (weak for bound methods);
        # sweep_epochs takes their minimum (see register_stamp_provider).
        # The lock keeps a registration racing a sweep's list rebuild from
        # being silently dropped.
        self._stamp_providers: List[Callable[[], Optional[Callable[[], Optional[int]]]]] = []
        self._stamp_providers_lock = threading.Lock()

    # ------------------------------------------------------------------
    # mutation epochs (serving-layer invalidation)
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> EpochClock:
        """The store's mutation clock (see :mod:`repro.store.epochs`)."""
        return self._epoch_clock

    @property
    def epoch(self) -> int:
        """Store-wide mutation epoch (bumped by every write)."""
        return self._epoch_clock.epoch

    def keyword_epoch(self, keyword: str) -> int:
        """Epoch of ``keyword``'s last postings change (0 if never touched)."""
        return self._epoch_clock.keyword_epoch(keyword)

    def fragment_epoch(self, identifier: FragmentId) -> int:
        """Epoch of ``identifier``'s last change — postings, size or a touch."""
        return self._epoch_clock.fragment_epoch(identifier)

    def load_epochs(
        self,
        epoch: int,
        keyword_epochs: Mapping[str, int],
        fragment_epochs: Mapping[FragmentId, int],
        floor: int = 0,
    ) -> None:
        """Replace the clock state wholesale (snapshot restore).

        Persistent backends override this to also write the restored state
        through to their storage.
        """
        self._epoch_clock.load(epoch, keyword_epochs, fragment_epochs, floor=floor)

    def register_stamp_provider(self, provider: Callable[[], Optional[int]]) -> None:
        """Register a callback reporting the oldest epoch stamp a consumer
        still compares against (``None`` when it holds none).

        Every cache revalidating against this store's clock — each
        :class:`~repro.serving.SearchService` registers on construction —
        must be represented here: :meth:`sweep_epochs` clamps its prune
        bound to the minimum over all providers, so a sweep driven by one
        consumer can never erase a tombstone another consumer's older
        entries still need to fail revalidation against.

        Bound methods are held through a weak reference to their instance:
        a consumer dropped without :meth:`unregister_stamp_provider` (an
        abandoned, never-closed service) stops pinning the sweep bound as
        soon as it is collected, instead of freezing it forever.
        """
        resolver = (
            weakref.WeakMethod(provider)
            if hasattr(provider, "__self__")
            else (lambda: provider)
        )
        with self._stamp_providers_lock:
            self._stamp_providers.append(resolver)

    def unregister_stamp_provider(self, provider: Callable[[], Optional[int]]) -> None:
        """Remove a provider added by :meth:`register_stamp_provider`.

        Entries whose consumer has been garbage-collected are dropped too.
        """
        with self._stamp_providers_lock:
            self._stamp_providers = [
                resolver
                for resolver in self._stamp_providers
                if resolver() not in (None, provider)
            ]

    def _effective_sweep_bound(self, oldest_live_stamp: int) -> int:
        with self._stamp_providers_lock:
            resolvers = list(self._stamp_providers)
        bounds = [oldest_live_stamp]
        dead: List[Callable[[], Optional[Callable[[], Optional[int]]]]] = []
        for resolver in resolvers:
            provider = resolver()
            if provider is None:
                dead.append(resolver)  # consumer collected — stop honouring it
                continue
            stamp = provider()
            if stamp is not None:
                bounds.append(stamp)
        if dead:
            with self._stamp_providers_lock:
                self._stamp_providers = [
                    resolver for resolver in self._stamp_providers if resolver not in dead
                ]
        return min(bounds)

    def sweep_epochs(self, oldest_live_stamp: int) -> int:
        """Prune clock tombstones no registered consumer can still see.

        The prune bound is ``oldest_live_stamp`` clamped by every registered
        stamp provider (see :meth:`register_stamp_provider`), so the sweep
        stays sound when several serving caches share one store.  See
        :meth:`~repro.store.EpochClock.sweep` for the safety argument;
        persistent backends override this to also prune their persisted
        epoch tables.  Returns the number of entries pruned.
        """
        return self._epoch_clock.sweep(self._effective_sweep_bound(oldest_live_stamp))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    # The write core is three calls, native on every backend: bulk_load for
    # fragments not yet stored, apply_mutations for everything that changes
    # stored fragments, write_batch as the one commit scope.  The single-
    # fragment methods below are one-op batches, defined here only.
    @abstractmethod
    def bulk_load(self, fragments) -> int:
        """Load whole fragments that are **not yet stored**, as one write.

        ``fragments`` is an iterable of ``(identifier, term_frequencies)``
        pairs — canonical identifiers, lower-cased keywords; a mapping or an
        iterable of ``(keyword, occurrences)`` pairs, exactly what a
        :class:`~repro.store.mutations.ReplaceFragment` op carries:
        non-positive counts are dropped, duplicate keywords accumulate as
        separate postings, and a fragment with no postings is registered at
        size 0.  A fragment that is already stored, or listed twice, raises
        :class:`StoreError` **before anything is written** — postings, sizes
        and the epoch clock stay untouched.  The clock ticks once per load
        (once per enclosing :meth:`write_batch` on
        :class:`~repro.store.DiskStore`).  Returns the number of fragments
        loaded.
        """

    def write_batch(self):
        """Context manager scoping one atomic write batch.

        The base implementation is a no-op scope (in-memory backends need no
        transaction bracket); :class:`~repro.store.DiskStore` overrides it so
        that every write issued inside the scope commits as **one** sqlite
        transaction with the epoch
        write-through for the whole batch in that same transaction, and the
        clock ticks once after the commit
        (:class:`~repro.cluster.ClusterStore` opens one scope per partition
        primary and ticks its facade clock after them).  Nesting is allowed;
        only the outermost scope commits.
        """
        return contextlib.nullcontext(self)

    @abstractmethod
    def apply_mutations(self, batch: Sequence[Mutation]) -> int:
        """Apply one batch of replace/remove/touch ops as a single operation.

        ``batch`` holds :class:`~repro.store.mutations.ReplaceFragment`,
        :class:`~repro.store.mutations.RemoveFragment` and
        :class:`~repro.store.mutations.TouchFragment` ops (see
        :mod:`repro.store.mutations`); repeated ops on one fragment coalesce
        (:func:`~repro.store.mutations.normalize_mutations`) before anything
        is written.  Every backend applies the batch in its native bulk form
        — a single locked dictionary pass
        (:class:`~repro.store.InMemoryStore`), one crash-safe transaction
        (:class:`~repro.store.DiskStore`), one sub-batch per owning
        partition (:class:`~repro.cluster.ClusterStore`) — leaves the
        inverted lists canonical, and ticks the epoch clock exactly once for
        the whole batch.  Returns the number of ops applied after
        coalescing.
        """

    def touch_fragment(self, identifier: FragmentId) -> None:
        """Stamp ``identifier``'s epoch, registering it with size 0 if it is not stored yet."""
        self.apply_mutations([TouchFragment(identifier)])

    def remove_fragment(self, identifier: FragmentId) -> None:
        """Drop the fragment's size entry and every posting of it (no-op when absent)."""
        self.apply_mutations([RemoveFragment(identifier)])

    def replace_fragment(self, identifier: FragmentId, term_frequencies) -> None:
        """Atomically swap one fragment's postings for ``term_frequencies``.

        Accepts a mapping or an iterable of ``(keyword, occurrences)`` pairs;
        duplicate keywords in the pair form accumulate as separate postings
        rather than last-wins.  The fragment is registered even when the new
        posting set is empty.
        """
        self.apply_mutations([ReplaceFragment(identifier, term_frequencies)])

    def finalize(self) -> None:
        """Make pending loads readable in canonical order.

        A no-op here: :class:`~repro.store.InMemoryStore` sorts the lists a
        :meth:`bulk_load` appended to (lazily, on the first read as well),
        and :class:`~repro.store.DiskStore` compacts and commits at
        :meth:`write_batch` exit.
        """

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    # The read core is three batched reads plus the whole-store reads, native
    # on every backend.  The single-item reads below are one-key batches,
    # defined here only.
    @abstractmethod
    def postings_for_many(self, keywords: Sequence[str]) -> Dict[str, Tuple[Posting, ...]]:
        """The inverted lists of all ``keywords`` in one batched read.

        Returns ``keyword -> sorted postings`` (empty tuple for unknown
        keywords; duplicate inputs collapse).  The on-disk backend answers
        the whole batch with a single query, which is what makes scorer
        construction one store round-trip instead of one per query keyword.
        """

    @abstractmethod
    def fragment_term_frequencies_for(
        self, identifiers: Sequence[FragmentId]
    ) -> Dict[FragmentId, Dict[str, int]]:
        """Keyword counts of all ``identifiers`` in one batched read.

        Unknown fragments map to ``{}``; duplicate inputs collapse.  The
        cluster facade reads replaced fragments' old vectors through it to
        stamp the keywords a batch detaches.
        """

    @abstractmethod
    def fragment_sizes_for(self, identifiers: Sequence[FragmentId]) -> Dict[FragmentId, int]:
        """Sizes of just ``identifiers`` in one batched read (0 when unknown)."""

    def postings(self, keyword: str) -> Tuple[Posting, ...]:
        """The sorted (possibly empty) inverted list of ``keyword``."""
        return self.postings_for_many((keyword,))[keyword]

    def fragment_term_frequencies(self, identifier: FragmentId) -> Dict[str, int]:
        """All keyword counts of one fragment."""
        return self.fragment_term_frequencies_for((identifier,))[identifier]

    def term_frequency(self, keyword: str, identifier: FragmentId) -> int:
        """Occurrences of ``keyword`` in fragment ``identifier`` (0 when absent)."""
        return self.fragment_term_frequencies(identifier).get(keyword, 0)

    def fragment_size(self, identifier: FragmentId) -> int:
        """Total keyword occurrences of ``identifier`` (0 when unknown)."""
        return self.fragment_sizes_for((identifier,))[identifier]

    def fragment_frequency(self, keyword: str) -> int:
        """Number of postings of ``keyword`` (the DF Dash inverts for IDF)."""
        return len(self.postings(keyword))

    def vocabulary_size(self) -> int:
        """Number of distinct indexed keywords."""
        return len(self.vocabulary())

    def iter_items(self) -> Iterator[Tuple[str, Tuple[Posting, ...]]]:
        """Iterate ``(keyword, postings)`` in keyword order."""
        for keyword in sorted(self.vocabulary()):
            yield keyword, self.postings(keyword)

    def posting_blocks_for_many(self, keywords: Sequence[str]):
        """Block directories of all ``keywords`` in one batched read.

        Returns ``keyword -> `` :class:`~repro.store.blocks.KeywordBlocks`
        (an empty directory for unknown keywords; duplicate inputs
        collapse).  Every backend must derive its summaries with
        :func:`~repro.store.blocks.build_summaries` over the keyword's
        current sorted list and the current fragment sizes, so the ceiling
        floats — and therefore the router's partition bounds — are
        backend-independent.  This implementation gathers the full lists
        and chunks them, uncached (the cluster router caches what it reads
        from them in its :class:`~repro.cluster.stats.TermStatsCache`);
        :class:`~repro.store.DiskStore` overrides it to serve its persisted
        ``posting_blocks`` rows without decoding any entries.
        """
        from repro.store.blocks import keyword_blocks_from_postings

        gathered = self.postings_for_many(keywords)
        directories = {}
        for keyword, postings in gathered.items():
            sizes = (
                self.fragment_sizes_for([posting.document_id for posting in postings])
                if postings
                else {}
            )
            directories[keyword] = keyword_blocks_from_postings(
                keyword, postings, lambda identifier, sizes=sizes: sizes.get(identifier, 0)
            )
        return directories

    @abstractmethod
    def document_frequencies(self) -> Dict[str, int]:
        """DF of every keyword in the vocabulary."""

    @abstractmethod
    def fragment_sizes(self) -> Dict[FragmentId, int]:
        """Identifier -> size of every stored fragment."""

    @abstractmethod
    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        """Every stored fragment identifier."""

    @abstractmethod
    def has_fragment(self, identifier: FragmentId) -> bool:
        """Whether the store holds ``identifier``."""

    @abstractmethod
    def fragment_count(self) -> int:
        """Number of stored fragments."""

    @abstractmethod
    def vocabulary(self) -> Tuple[str, ...]:
        """Every indexed keyword."""

    def approximate_bytes(self) -> int:
        """Rough serialized size of the postings (ablation benchmarks).

        Counts each keyword header once globally, regardless of how many
        partitions its postings are spread over.
        """
        total = 0
        for keyword, postings in self.iter_items():
            total += len(keyword) + 1
            for posting in postings:
                total += 8
                for component in posting.document_id:
                    total += len(str(component)) + 1
        return total

    def neighbors(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """Not a store read: chain adjacency is derived, never stored.

        The end-to-end benchmark's tracer still wraps ``DiskStore.neighbors``
        by name (``POINT_READS`` in ``benchmarks/e2e/e2ebench/runner.py``), so
        the attribute must resolve; nothing calls it.  It goes when that
        list stops naming it.  Adjacency is
        :meth:`~repro.core.fragment_graph.FragmentGraph.neighbors`.
        """
        raise NotImplementedError("adjacency is derived: see FragmentGraph.neighbors")

    # ------------------------------------------------------------------
    # snapshots (dataset reuse across runs and processes)
    # ------------------------------------------------------------------
    def snapshot(self, path: str) -> str:
        """Serialize the whole store (postings, sizes, clock) to ``path``.

        Works for every backend: the snapshot captures postings, fragment
        sizes and the full :class:`EpochClock` state,
        and is written atomically (temp file + ``os.replace``) so a crash
        mid-write never leaves a truncated snapshot behind.  Returns the
        written path.  Restore with :meth:`from_snapshot`.
        """
        from repro.store.snapshot import write_snapshot

        return write_snapshot(self, path)

    @staticmethod
    def from_snapshot(
        path: str,
        store=None,
        store_path: Optional[str] = None,
    ) -> "FragmentStore":
        """Load a snapshot written by :meth:`snapshot` into a fresh backend.

        ``store``/``store_path`` accept everything
        :func:`repro.store.resolve_store` does, so a snapshot taken from an
        in-memory store can be restored into an on-disk one (and vice versa)
        — ``store_path`` picks where a ``store="disk"`` restore lands its
        sqlite file.  The restored store's epoch clock matches the
        snapshotted one exactly, so serving-layer cache stamps taken against
        the original store stay comparable.
        """
        from repro.store.snapshot import load_snapshot

        return load_snapshot(path, store=store, store_path=store_path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any resources the backend holds (files, connections).

        The base implementation is a no-op; :class:`DiskStore` closes its
        sqlite connections (the write connection and every pooled reader).
        Closing is idempotent; reads after ``close()`` are undefined for
        backends that hold external resources.
        """
