"""The cluster's facade :class:`~repro.store.FragmentStore`.

:class:`ClusterStore` makes a partitioned cluster look like one store:

* **writes route** to the owning partition's *primary* store (decided by the
  :class:`~repro.cluster.GroupPartitioner`, so a db-page chain never
  straddles partitions) and then tick this facade's own
  :class:`~repro.store.EpochClock` — the *router clock* the serving layer
  stamps cache entries against.  The partition store's clock ticks first (its
  own write methods do), the facade's second, so by the time a cache stamp
  could observe the facade's new epoch the partition data is already
  committed — the same tick-after-write ordering every single store obeys
  (inside a ``write_batch`` the facade's ticks wait for the scope's exit,
  when every primary has committed its share).
  Per-partition clocks stay live underneath for replica freshness checks and
  catch-up (see :class:`~repro.cluster.SearchCluster`).
* **reads merge** across every partition primary: inverted lists concatenate
  and re-sort under the canonical ``(-occurrences, str(identifier))`` order
  (fragment identifiers are unique across partitions, so the merged order is
  total and identical to a single store's), counts sum, and per-fragment
  lookups route to the owner.

Because the facade honours the full store contract — including
``snapshot``/``apply_mutations`` and the epoch interface — the serving
layer's :class:`~repro.serving.SearchService`, its result cache and its
epoch invalidation run over a cluster *unchanged*; they cannot tell the
difference.  The scatter-gather hot path does **not** read through this
facade: the router opens per-partition search streams directly on the nodes
(:mod:`repro.cluster.router`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.fragments import FragmentId
from repro.cluster.partitioning import GroupPartitioner
from repro.store.base import FragmentStore, StoreError
from repro.store.memory import posting_sort_key
from repro.store.mutations import (
    Mutation,
    RemoveFragment,
    ReplaceFragment,
    normalize_mutations,
    regroup_posting_lists,
    replace_op,
)
from repro.text.inverted_index import Posting


class ClusterStore(FragmentStore):
    """One logical store over the cluster's partition primaries.

    ``primary_resolver`` returns the current primary store of a partition —
    the indirection (rather than a fixed store list) is what lets a
    rebalance swap a partition's backing store atomically underneath the
    facade while everything stacked on it keeps working.
    """

    def __init__(
        self,
        partitioner: GroupPartitioner,
        primary_resolver: Callable[[int], FragmentStore],
    ) -> None:
        super().__init__()
        self._partitioner = partitioner
        self._primary = primary_resolver
        self._mutation_listeners: List[Callable[[Set[str]], None]] = []
        # An open write_batch defers the facade's ticks to its exit.
        self._batch_lock = threading.RLock()
        self._batch_depth = 0
        self._batch_keywords: Set[str] = set()
        self._batch_fragments: Set[FragmentId] = set()

    # ------------------------------------------------------------------
    # mutation listeners (write-through invalidation)
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener: Callable[[Set[str]], None]) -> None:
        """Call ``listener(affected_keywords)`` after each committed write.

        Fired *after* the facade clock ticks, so by the time a listener
        runs, epoch-based revalidation already sees the write — listeners
        are a write-through fast path (the router's
        :class:`~repro.cluster.stats.TermStatsCache` drops affected
        entries eagerly instead of waiting for a stale lookup), never a
        correctness requirement.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[[Set[str]], None]) -> None:
        """Detach a previously added listener (no-op when absent)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, affected_keywords: Set[str]) -> None:
        if not self._mutation_listeners or not affected_keywords:
            return
        for listener in tuple(self._mutation_listeners):
            listener(affected_keywords)

    # ------------------------------------------------------------------
    # partition plumbing
    # ------------------------------------------------------------------
    @property
    def partition_count(self) -> int:
        """Number of corpus partitions (fixed for the cluster's lifetime)."""
        return self._partitioner.partitions

    def partition_of(self, identifier: FragmentId) -> int:
        """The partition owning ``identifier`` (equality-group hash)."""
        return self._partitioner.partition_of(identifier)

    def partition_epochs(self) -> Dict[int, int]:
        """Each partition primary's current store-wide epoch.

        Cache stamps carry the facade epoch (one scalar, derived from the
        same per-partition commits); this view is what replica catch-up and
        the statistics surface report per partition.
        """
        return {
            partition: self._primary(partition).epoch
            for partition in range(self.partition_count)
        }

    def _owner(self, identifier: FragmentId) -> FragmentStore:
        return self._primary(self._partitioner.partition_of(identifier))

    def _primaries(self) -> List[FragmentStore]:
        return [self._primary(partition) for partition in range(self.partition_count)]

    # ------------------------------------------------------------------
    # postings section — writes
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def write_batch(self):
        """One write batch on every partition primary, entered together.

        Each primary commits its own share at scope exit (a disk primary as
        one sqlite transaction; nothing is atomic *across* partitions), and
        the facade clock ticks once, after the last of those commits — the
        tick-after-write ordering bare calls have.  It ticks after a raise
        too: a disk primary rolled its share back, an in-memory one did not,
        and a spurious invalidation is the harmless side to err on.
        """
        with self._batch_lock:
            self._batch_depth += 1
            try:
                with contextlib.ExitStack() as stack:
                    for store in self._primaries():
                        stack.enter_context(store.write_batch())
                    yield self
            finally:
                self._batch_depth -= 1
                if not self._batch_depth and (self._batch_keywords or self._batch_fragments):
                    keywords, self._batch_keywords = self._batch_keywords, set()
                    fragments, self._batch_fragments = self._batch_fragments, set()
                    self._tick(keywords, fragments)

    def _tick(self, keywords: Iterable[str], fragments: Iterable[FragmentId]) -> None:
        """Stamp a committed write on the facade clock (at batch exit when one is open)."""
        with self._batch_lock:
            if self._batch_depth:
                self._batch_keywords.update(keywords)
                self._batch_fragments.update(fragments)
                return
        self._epoch_clock.tick_batch(keywords, fragments)
        self._notify_mutation(keywords)

    def bulk_load(self, fragments) -> int:
        """Load fresh fragments, each partition's share as one native load.

        Freshness is validated across the whole load before any partition is
        written; the facade clock ticks once.
        """
        grouped: Dict[int, List[ReplaceFragment]] = {}
        listed: Set[FragmentId] = set()
        keywords: Set[str] = set()
        for identifier, term_frequencies in fragments:
            op = replace_op(identifier, term_frequencies)
            partition = self.partition_of(op.identifier)
            if op.identifier in listed or self._primary(partition).has_fragment(op.identifier):
                raise StoreError(
                    f"bulk load would duplicate fragment {op.identifier!r}; "
                    "bulk loads require fresh fragments"
                )
            listed.add(op.identifier)
            keywords.update(keyword for keyword, _occurrences in op.term_frequencies)
            grouped.setdefault(partition, []).append(op)
        if not listed:
            return 0
        for partition, ops in grouped.items():
            self._primary(partition).bulk_load(
                (op.identifier, op.term_frequencies) for op in ops
            )
        self._tick(keywords, listed)
        return len(listed)

    def finalize(self) -> None:
        for store in self._primaries():
            store.finalize()

    def apply_mutations(self, batch: Sequence[Mutation]) -> int:
        """Apply one batch, each op routed to its owning partition.

        Every partition applies its sub-batch with its native bulk form
        (ticking its own clock once), then the facade clock ticks **once**
        for the whole batch — exactly one router epoch per maintenance
        round, matching the single-store contract the serving cache's
        invalidation granularity is built on.
        """
        ops = normalize_mutations(batch)
        if not ops:
            return 0
        grouped: Dict[int, List[Mutation]] = {}
        for op in ops:
            grouped.setdefault(self.partition_of(op.identifier), []).append(op)
        affected_keywords: Set[str] = set()
        affected_fragments: Set[FragmentId] = set()
        applied = 0
        for partition, partition_ops in grouped.items():
            store = self._primary(partition)
            # Stamp the keywords the batch may detach: a replace/remove
            # drops the fragment's *old* postings, known only to the owner.
            replaced = [
                op.identifier
                for op in partition_ops
                if isinstance(op, (ReplaceFragment, RemoveFragment))
            ]
            if replaced:
                old_vectors = store.fragment_term_frequencies_for(replaced)
                for vector in old_vectors.values():
                    affected_keywords.update(vector)
            for op in partition_ops:
                affected_fragments.add(op.identifier)
                if isinstance(op, ReplaceFragment):
                    affected_keywords.update(
                        keyword for keyword, _occurrences in op.term_frequencies
                    )
            applied += store.apply_mutations(partition_ops)
        self._tick(affected_keywords, affected_fragments)
        return applied

    # ------------------------------------------------------------------
    # postings section — reads
    # ------------------------------------------------------------------
    def postings_for_many(self, keywords: Sequence[str]) -> Dict[str, Tuple[Posting, ...]]:
        unique = list(dict.fromkeys(keywords))
        gathered = [store.postings_for_many(unique) for store in self._primaries()]
        merged: Dict[str, Tuple[Posting, ...]] = {}
        for keyword in unique:
            combined: List[Posting] = []
            for part in gathered:
                combined.extend(part.get(keyword, ()))
            combined.sort(key=posting_sort_key)
            merged[keyword] = tuple(combined)
        return merged

    def document_frequencies(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for store in self._primaries():
            for keyword, frequency in store.document_frequencies().items():
                totals[keyword] = totals.get(keyword, 0) + frequency
        return totals

    def fragment_term_frequencies_for(
        self, identifiers: Sequence[FragmentId]
    ) -> Dict[FragmentId, Dict[str, int]]:
        grouped = self._group_by_partition(identifiers)
        vectors: Dict[FragmentId, Dict[str, int]] = {}
        for partition, members in grouped.items():
            vectors.update(self._primary(partition).fragment_term_frequencies_for(members))
        return vectors

    def fragment_sizes(self) -> Dict[FragmentId, int]:
        sizes: Dict[FragmentId, int] = {}
        for store in self._primaries():
            sizes.update(store.fragment_sizes())
        return sizes

    def fragment_sizes_for(self, identifiers: Sequence[FragmentId]) -> Dict[FragmentId, int]:
        grouped = self._group_by_partition(identifiers)
        sizes: Dict[FragmentId, int] = {}
        for partition, members in grouped.items():
            sizes.update(self._primary(partition).fragment_sizes_for(members))
        return sizes

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        identifiers: List[FragmentId] = []
        for store in self._primaries():
            identifiers.extend(store.fragment_ids())
        return tuple(identifiers)

    def has_fragment(self, identifier: FragmentId) -> bool:
        return self._owner(tuple(identifier)).has_fragment(tuple(identifier))

    def fragment_count(self) -> int:
        return sum(store.fragment_count() for store in self._primaries())

    def vocabulary(self) -> Tuple[str, ...]:
        keywords: Set[str] = set()
        for store in self._primaries():
            keywords.update(store.vocabulary())
        return tuple(sorted(keywords))

    # ------------------------------------------------------------------
    # graph section
    # ------------------------------------------------------------------
    def add_node(self, identifier: FragmentId, keyword_count: int) -> None:
        identifier = tuple(identifier)
        self._owner(identifier).add_node(identifier, keyword_count)
        self._tick((), (identifier,))

    def remove_node(self, identifier: FragmentId) -> None:
        identifier = tuple(identifier)
        self._owner(identifier).remove_node(identifier)
        self._tick((), (identifier,))

    def has_node(self, identifier: FragmentId) -> bool:
        return self._owner(tuple(identifier)).has_node(tuple(identifier))

    def node_keyword_count(self, identifier: FragmentId) -> int:
        return self._owner(tuple(identifier)).node_keyword_count(tuple(identifier))

    def set_node_keyword_count(self, identifier: FragmentId, keyword_count: int) -> None:
        identifier = tuple(identifier)
        self._owner(identifier).set_node_keyword_count(identifier, keyword_count)
        self._tick((), (identifier,))

    def node_ids(self) -> Tuple[FragmentId, ...]:
        identifiers: List[FragmentId] = []
        for store in self._primaries():
            identifiers.extend(store.node_ids())
        return tuple(identifiers)

    def node_count(self) -> int:
        return sum(store.node_count() for store in self._primaries())

    def add_neighbor(self, identifier: FragmentId, neighbor: FragmentId) -> None:
        identifier, neighbor = tuple(identifier), tuple(neighbor)
        owning = self.partition_of(identifier)
        if self.partition_of(neighbor) != owning:
            # Equality-group partitioning guarantees adjacency never crosses
            # partitions; an edge that would is a partitioner bug, and
            # storing it would silently break search locality.
            raise StoreError(
                f"cross-partition edge {identifier!r} -> {neighbor!r}: adjacency "
                "must stay inside one equality group / partition"
            )
        self._primary(owning).add_neighbor(identifier, neighbor)
        self._tick((), (identifier,))

    def discard_neighbor(self, identifier: FragmentId, neighbor: FragmentId) -> None:
        identifier = tuple(identifier)
        self._owner(identifier).discard_neighbor(identifier, tuple(neighbor))
        self._tick((), (identifier,))

    def neighbors(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        return self._owner(tuple(identifier)).neighbors(tuple(identifier))

    def edge_count(self) -> int:
        return sum(store.edge_count() for store in self._primaries())

    # ------------------------------------------------------------------
    def _group_by_partition(
        self, identifiers: Sequence[FragmentId]
    ) -> Dict[int, List[FragmentId]]:
        grouped: Dict[int, List[FragmentId]] = {}
        for identifier in dict.fromkeys(tuple(entry) for entry in identifiers):
            grouped.setdefault(self.partition_of(identifier), []).append(identifier)
        return grouped


def populate_from_store(cluster: ClusterStore, source: FragmentStore) -> None:
    """Replay a built single store into the cluster's partition primaries.

    Partition-restricted build: the source's inverted lists are regrouped
    into whole fragments (duplicate postings and all), each partition
    primary takes its share as one :meth:`~repro.store.FragmentStore.bulk_load`
    and its nodes and edges through the facade, all inside one
    ``write_batch`` of that primary; the facade clock finally loads the
    *source* clock's state — so cache stamps taken against the source store
    stay comparable, exactly like a snapshot restore.  Partition stores keep
    the clocks their own replayed writes produced; replicas are cut from
    those afterwards.
    """
    fragments = regroup_posting_lists(source.iter_items(), source.fragment_ids())
    owned = cluster._group_by_partition(fragments)
    nodes = cluster._group_by_partition(source.node_ids())
    for partition in range(cluster.partition_count):
        primary = cluster._primary(partition)
        members = nodes.get(partition, ())
        with primary.write_batch():
            primary.bulk_load(
                (identifier, fragments[identifier]) for identifier in owned.get(partition, ())
            )
            for identifier in members:
                cluster.add_node(identifier, source.node_keyword_count(identifier))
            for identifier in members:
                for neighbor in source.neighbors(identifier):
                    cluster.add_neighbor(identifier, neighbor)
    cluster.finalize()
    epoch, keyword_epochs, fragment_epochs = source.epochs.state()
    cluster.load_epochs(epoch, keyword_epochs, fragment_epochs, floor=source.epochs.floor)
