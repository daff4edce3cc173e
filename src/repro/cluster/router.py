"""Scatter-gather top-k over the partitioned cluster, byte-identical.

The :class:`QueryRouter` answers one query in at most two fan-out rounds
and one merge:

1. **global document frequencies** — served from the router's
   epoch-validated :class:`~repro.cluster.stats.TermStatsCache` when every
   query keyword's entry is fresh (steady state: the whole round is
   skipped, half the fan-out submits).  On a miss, each selected partition
   copy reports its exact per-keyword DF *and* its directory-wide weight
   ceiling (both read from the same cached block directories); the DF sum
   is the merged corpus's DF, so ``1/df`` — the IDF every node then scores
   with via :class:`~repro.core.scoring.DashScorer`'s ``idf_overrides`` —
   is the bit-identical float a single store would compute, and the
   ``(frequency, ceilings)`` rows are written back to the cache stamped
   with the query's facade epoch.
2. **bound-ordered partial streams** — an admissible per-partition score
   bound falls out of the ceilings
   (:func:`~repro.cluster.stats.partition_bounds`); partitions whose bound
   is 0 provably hold no relevant fragment and are *never contacted*
   (``partitions_pruned`` — with a warm cache such a partition plays no
   part in the query at all, which is what lets a query survive a dead
   partition it does not consult).  Every remaining partition opens a
   :class:`~repro.core.search.SearchStream` in parallel (its postings are
   read and one ceiling-keyed token per equality group is queued; a group's
   seeds are scored only if the merge ever reaches its token).
3. **precedence merge** — every stream lives in the merge heap under an
   *admissible bound key*: initially the ceiling-derived
   ``(-bound, (0,))`` sentinel (the ``(0,)`` tie sorts before every
   content tie-break, see :data:`repro.core.search.QueueEntry`),
   afterwards :meth:`~repro.core.search.SearchStream.bound_key` (the
   stream's queue head, a page entry or a group token), both of which sort
   at-or-before every result the partition could still *emit* — the same
   argument one level up: a token is to its group what the sentinel is to
   its partition.  A stream advances only when
   its key reaches the top of the heap — i.e. could win the next global
   dequeue — and then only up to the runner-up's limit.  The router
   repeatedly advances the top stream — in *batches*
   (:meth:`~repro.core.search.SearchStream.next_results`) bounded by the
   runner-up's key, with ``heapq`` sift operations instead of re-sorting,
   and without refreshing the head once the global ``k``-th result is
   taken.  Queue keys are content-determined and every db-page chain lives
   inside one partition, so this greedy interleave replays the *exact
   global dequeue sequence* of a single merged store — result emission is
   not score-monotone (expansions can raise pending pages above emitted
   results), which is why merging per-node top-k lists by score alone
   would not be byte-identical, and replaying the dequeue order is.
   Streams with undrained work when the merge stops are counted in
   ``nodes_short_circuited``, their scored-but-unranked candidates
   (unopened group tokens are not candidates) in ``partials_discarded``.

:class:`SearchCluster` owns the topology: consistent-hash partition
assignment (:class:`~repro.cluster.HashRing`), replica placement with
round-robin reads for hot partitions, snapshot-based replica catch-up
(:meth:`SearchCluster.sync_replicas`) and live rebalancing
(:meth:`SearchCluster.rebalance`).  :class:`ClusterSearchService` is the
serving entry point: a stock :class:`~repro.serving.SearchService` whose
"searcher" is the router and whose "store" is the
:class:`~repro.cluster.ClusterStore` facade — admission, result caching
and epoch invalidation run unchanged.

**Fault tolerance.**  The healthy path above assumes every selected copy
answers; the fault-tolerant path makes each per-partition read a *failover
loop* instead.  The cluster keeps one
:class:`~repro.cluster.health.NodeHealth` circuit breaker per node, fed by
the router's observed read outcomes; candidate selection
(:meth:`SearchCluster.serving_candidates`) skips open-circuit nodes and
stale replicas, and a query whose read fails (or times out against its
per-query deadline budget) retries on the next fresh copy.  A dead primary
is demoted in place (:meth:`SearchCluster.ensure_live_primary` promotes a
fresh available replica through the same assignment flip ``rebalance()``
uses), so writes and freshness checks keep a live anchor.  Because a fresh
replica is byte-identical to its primary — and a replacement stream can be
deterministically fast-forwarded past the results the merge already took —
failover preserves the byte-parity guarantee whenever any fresh copy of
every partition survives.  When none does, the router raises a typed
:class:`~repro.serving.errors.PartialResultError`, or — under
``degraded_ok=True`` — answers from the surviving partitions with
``complete=False`` and the lost partitions named in
:class:`~repro.core.search.SearchStatistics.missing_partitions` (such
results are never cached).  With zero faults firing the whole machinery
reduces to the PR 7 fan-out plus a candidate-list build per partition.
"""

from __future__ import annotations

import heapq
import itertools
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.fragments import FragmentId
from repro.core.search import (
    LIFETIME_FIELDS,
    DetailedSearch,
    SearchResult,
    SearchStatistics,
    SearchStream,
)
from repro.cluster.health import NodeHealth
from repro.cluster.node import HostedPartition, SearchNode
from repro.cluster.partitioning import GroupPartitioner, HashRing
from repro.cluster.stats import TermStatsCache, partition_bounds
from repro.cluster.store import ClusterStore, populate_from_store
from repro.db.query import ParameterizedPSJQuery
from repro.faults.plane import FaultPlane
from repro.serving.errors import PartialResultError, PartitionUnavailableError
from repro.serving.service import SearchService
from repro.store.base import FragmentStore
from repro.store.disk import DiskStore
from repro.store.memory import InMemoryStore
from repro.store.snapshot import load_snapshot
from repro.webapp.request import QueryStringSpec

#: What ``node_store=`` accepts: a backend name (``"memory"``/``"disk"``) or
#: a ``(node_id, partition) -> FragmentStore`` factory returning an *empty*
#: backend (benchmarks use factories to wrap stores with simulated per-node
#: latency).
NodeStoreSpec = Union[str, Callable[[str, int], FragmentStore]]

#: Counters summed across partition streams into the routed query's
#: statistics (elapsed/results/fan-out counters are router-level).
_STREAM_SUM_FIELDS = (
    "seed_fragments",
    "seeds_scored",
    "groups_pruned",
    "expansions",
    "dequeues",
    "pruned_expansions",
)


class _RouterIndex:
    """The ``searcher.index`` shim a SearchService expects: just ``.store``."""

    def __init__(self, store: ClusterStore) -> None:
        self.store = store


class QueryRouter:
    """Scatter-gather searcher over one :class:`SearchCluster`.

    Duck-types the :class:`~repro.core.search.TopKSearcher` surface a
    :class:`~repro.serving.SearchService` drives — ``search_detailed``,
    ``lifetime_statistics()`` and ``index.store`` — so the
    whole serving layer stacks on a cluster unchanged.
    """

    def __init__(
        self,
        cluster: "SearchCluster",
        workers: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        degraded_ok: bool = False,
    ) -> None:
        self._cluster = cluster
        self.index = _RouterIndex(cluster.store)
        self.partition_count = cluster.store.partition_count
        #: Per-query failover budget in seconds (``None`` = no deadline).
        #: The budget bounds time spent *tolerating faults*: fan-out reads
        #: are preempted against it, replica retries stop at it — but a
        #: healthy merge is never aborted by it, so zero-fault results are
        #: identical with or without a deadline.
        self.deadline_seconds = deadline_seconds
        #: Whether queries that lose every copy of a partition return
        #: flagged partial results (``True``) or raise
        #: :class:`~repro.serving.errors.PartialResultError` (``False``).
        self.degraded_ok = degraded_ok
        if workers is None:
            workers = min(16, max(4, 2 * self.partition_count))
        # A pool exists whenever fan-out parallelism or deadline preemption
        # can be needed; a single-partition, fault-free router stays inline.
        need_pool = (
            self.partition_count > 1
            or deadline_seconds is not None
            or cluster.fault_plane is not None
        )
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="cluster-router")
            if need_pool
            else None
        )
        self.last_statistics = SearchStatistics()
        self._lifetime_lock = threading.Lock()
        self._lifetime: Dict[str, int] = {"searches": 0, "fanout_submits": 0}
        self._lifetime.update({field_name: 0 for field_name in LIFETIME_FIELDS})
        #: Epoch-validated global term statistics (DFs + per-partition
        #: weight ceilings); write-through invalidation rides the facade's
        #: mutation listeners on top of the epoch revalidation.
        self.term_stats = TermStatsCache(cluster.store)
        cluster.store.add_mutation_listener(self._on_mutations)

    # ------------------------------------------------------------------
    def lifetime_statistics(self) -> Dict[str, float]:
        """Running totals over every routed search (includes fan-out counters).

        ``fanout_submits`` counts per-partition read attempts dispatched by
        the fan-out rounds (a warm term-stats cache halves it — the DF
        round is skipped); the derived ``discard_ratio`` is
        ``partials_discarded / partials_merged`` (0.0 when nothing merged).
        """
        with self._lifetime_lock:
            snapshot: Dict[str, float] = dict(self._lifetime)
        merged = snapshot.get("partials_merged", 0)
        snapshot["discard_ratio"] = (
            snapshot.get("partials_discarded", 0) / merged if merged else 0.0
        )
        return snapshot

    def _on_mutations(self, affected_keywords: Iterable[str]) -> None:
        """Facade mutation listener: write-through term-stats invalidation."""
        self.term_stats.invalidate_keywords(affected_keywords)

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        self.index.store.remove_mutation_listener(self._on_mutations)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _submit(self, task: Callable, *args) -> "Future":
        """Run ``task`` on the fan-out pool (or inline, completed-future)."""
        with self._lifetime_lock:
            self._lifetime["fanout_submits"] += 1
        if self._executor is not None:
            return self._executor.submit(task, *args)
        future: "Future" = Future()
        try:
            future.set_result(task(*args))
        except BaseException as error:
            future.set_exception(error)
        return future

    def _partition_read_failed(
        self, partition: int, node_id: str, statistics: SearchStatistics
    ) -> None:
        """Bookkeeping for one failed per-copy read: breaker + promotion."""
        statistics.failovers += 1
        self._cluster.note_failure(node_id)
        # A primary whose circuit just opened hands its write/freshness
        # anchor to a fresh available replica (no-op while it is healthy).
        self._cluster.ensure_live_primary(partition)

    def _failover_fan_out(
        self,
        partitions: Sequence[int],
        task: Callable[[int, HostedPartition], object],
        deadline: Optional[float],
        statistics: SearchStatistics,
        pinned: Optional[Dict[int, Tuple[str, HostedPartition]]] = None,
    ) -> Tuple[Dict[int, Tuple[str, HostedPartition, object]], Dict[int, str]]:
        """Run ``task(partition, hosted)`` per partition with replica failover.

        Each partition gets an ordered candidate list (``pinned`` first when
        given — phase 2 reuses phase 1's copy — then the fresh, available
        copies); an attempt that raises or exceeds the deadline budget fails
        over to the next candidate.  While more candidates remain, an
        attempt is only granted half the remaining budget, so a hung copy
        leaves room for its replica.  Returns ``(resolved, lost)`` where
        ``resolved`` maps partition to ``(node_id, hosted, value)`` and
        ``lost`` maps abandoned partitions to a reason string.
        """
        queues: Dict[int, List[Tuple[str, HostedPartition]]] = {}
        for partition in partitions:
            if pinned is not None and partition in pinned:
                first_node, first_hosted = pinned[partition]
                candidates = [(first_node, first_hosted)] + [
                    (node_id, hosted)
                    for node_id, hosted in self._cluster.serving_candidates(
                        partition, rotate=False
                    )
                    if node_id != first_node
                ]
            else:
                candidates = list(self._cluster.serving_candidates(partition))
            queues[partition] = candidates
        resolved: Dict[int, Tuple[str, HostedPartition, object]] = {}
        lost: Dict[int, str] = {}
        pending: Set[int] = set(queues)
        while pending:
            submitted: Dict[int, Tuple[str, HostedPartition, "Future"]] = {}
            for partition in sorted(pending):
                queue = queues[partition]
                choice: Optional[Tuple[str, HostedPartition]] = None
                while queue:
                    node_id, hosted = queue.pop(0)
                    # Re-check availability at dispatch: another partition's
                    # failure this round may have opened the circuit since
                    # the candidate list was cut.
                    if self._cluster.node_available(node_id):
                        choice = (node_id, hosted)
                        break
                if choice is None:
                    lost[partition] = "no reachable fresh copy"
                    continue
                submitted[partition] = (
                    choice[0],
                    choice[1],
                    self._submit(task, partition, choice[1]),
                )
            pending = set()
            for partition, (node_id, hosted, future) in submitted.items():
                timeout = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    timeout = max(0.0, remaining / 2 if queues[partition] else remaining)
                try:
                    value = future.result(timeout=timeout)
                except FuturesTimeout:
                    future.cancel()
                    self._partition_read_failed(partition, node_id, statistics)
                    if queues[partition] and time.perf_counter() < deadline:
                        pending.add(partition)
                    else:
                        lost[partition] = f"deadline exceeded reading from {node_id}"
                except Exception as error:
                    self._partition_read_failed(partition, node_id, statistics)
                    out_of_time = (
                        deadline is not None and time.perf_counter() >= deadline
                    )
                    if queues[partition] and not out_of_time:
                        pending.add(partition)
                    else:
                        lost[partition] = (
                            f"{type(error).__name__} from {node_id}: {error}"
                        )
                else:
                    self._cluster.note_success(node_id)
                    resolved[partition] = (node_id, hosted, value)
        return resolved, lost

    def _replace_stream(
        self,
        partition: int,
        failed_node: str,
        tried: Dict[int, Set[str]],
        canonical: Tuple[str, ...],
        k: int,
        size_threshold: int,
        idf_overrides: Dict[str, float],
        emitted: int,
        deadline: Optional[float],
        statistics: SearchStatistics,
    ) -> Optional[Tuple[str, SearchStream]]:
        """Mid-merge failover: reopen the partition's stream on a fresh copy.

        The replacement is deterministically fast-forwarded past the
        ``emitted`` results the merge already took from the failed stream —
        a fresh copy holds byte-identical data, so it replays the identical
        dequeue sequence, and its next head key can only sit at or behind
        the failed stream's (re-consuming an expansion dequeue the failed
        stream had already absorbed is a no-op re-run of the same state
        transition).  Returns ``(node_id, stream)`` or ``None`` when no
        fresh copy answers within the deadline.
        """
        tried.setdefault(partition, set()).add(failed_node)
        self._partition_read_failed(partition, failed_node, statistics)
        for node_id, hosted in self._cluster.serving_candidates(partition, rotate=False):
            if node_id in tried[partition]:
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            try:
                stream = hosted.searcher.stream(
                    canonical, k, size_threshold, idf_overrides=idf_overrides
                )
                for _ in range(emitted):
                    if stream.next_result(None) is None:
                        break
            except Exception:
                tried[partition].add(node_id)
                self._partition_read_failed(partition, node_id, statistics)
                continue
            self._cluster.note_success(node_id)
            return node_id, stream
        return None

    # ------------------------------------------------------------------
    def search(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
    ) -> List[SearchResult]:
        """Routed top-``k`` results (see :meth:`search_detailed`)."""
        return list(self.search_detailed(keywords, k, size_threshold).results)

    def search_detailed(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
        deadline_seconds: Optional[float] = None,
        degraded_ok: Optional[bool] = None,
    ) -> DetailedSearch:
        """Scatter-gather one query; byte-identical to a single-store run.

        Per-partition scorers are built per query with the router's global
        IDF.  The returned epoch is the facade (router-clock) epoch observed
        before the first partition read, so serving-cache stamps invalidate
        exactly as over a single store.

        ``deadline_seconds``/``degraded_ok`` override the router defaults
        for this query (see :meth:`__init__`).  Every per-partition read —
        the DF round, the stream-open round, and each merge advance — fails
        over across the partition's fresh copies; a partition that loses
        every copy raises :class:`~repro.serving.errors.PartialResultError`
        unless degradation is allowed, in which case the answer is flagged
        ``complete=False`` with the lost partitions in the statistics.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if size_threshold < 1:
            raise ValueError("the size threshold s must be at least 1")
        budget = self.deadline_seconds if deadline_seconds is None else deadline_seconds
        degraded = self.degraded_ok if degraded_ok is None else degraded_ok
        started = time.perf_counter()
        deadline = None if budget is None else started + budget
        canonical = tuple(dict.fromkeys(str(keyword).lower() for keyword in keywords))
        epoch = self.index.store.epoch
        statistics = SearchStatistics()

        # Round 1 — global document frequencies and per-partition weight
        # ceilings, served from the epoch-validated term-stats cache when
        # every keyword's entry is fresh.  On a miss the scatter reads both
        # from each partition's block directories in one call, with
        # per-copy failover; the selected copy is pinned per partition
        # (round-robin over the primary and its fresh replicas) and reused
        # by round 2, so a fault-free cold query reads each partition from
        # one store object even if a rebalance lands mid-query.
        missing: Dict[int, str] = {}
        pinned: Optional[Dict[int, Tuple[str, HostedPartition]]] = None
        cached = self.term_stats.lookup(canonical)
        if cached is not None:
            statistics.df_cache_hits = len(canonical)
            global_frequencies = {
                keyword: cached[keyword].frequency for keyword in canonical
            }
            ceilings = {keyword: cached[keyword].ceilings for keyword in canonical}
            reachable: List[int] = list(range(self.partition_count))
        else:
            statistics.df_cache_misses = len(canonical)

            def read_term_stats(
                partition: int, hosted: HostedPartition
            ) -> Dict[str, Tuple[int, float]]:
                del partition
                directories = hosted.store.posting_blocks_for_many(canonical)
                return {
                    keyword: (
                        directories[keyword].posting_count,
                        directories[keyword].max_weight,
                    )
                    for keyword in canonical
                }

            frequency_reads, missing = self._failover_fan_out(
                range(self.partition_count), read_term_stats, deadline, statistics
            )
            if missing and not degraded:
                raise PartialResultError(missing, detail="; ".join(missing.values()))
            global_frequencies = {
                keyword: sum(
                    stats_map[keyword][0]
                    for _node, _hosted, stats_map in frequency_reads.values()
                )
                for keyword in canonical
            }
            ceilings = {
                keyword: {
                    partition: stats_map[keyword][1]
                    for partition, (_node, _hosted, stats_map) in frequency_reads.items()
                    if stats_map[keyword][1] > 0.0
                }
                for keyword in canonical
            }
            if not missing:
                # A degraded read must not poison the cache: its DF sums
                # are missing the lost partitions' counts.
                self.term_stats.record(
                    (
                        (keyword, global_frequencies[keyword], ceilings[keyword])
                        for keyword in canonical
                    ),
                    epoch,
                )
            pinned = {
                partition: (node_id, hosted)
                for partition, (node_id, hosted, _stats) in frequency_reads.items()
            }
            reachable = sorted(frequency_reads)
        idf_overrides = {
            keyword: (1.0 / frequency if frequency else 0.0)
            for keyword, frequency in global_frequencies.items()
        }

        # Bound-aware partition pruning: a partition whose admissible bound
        # is 0 holds no relevant fragment — no stream is opened and (with a
        # warm cache) the partition is never contacted at all, which is the
        # availability win under a dead node the query does not consult.
        bounds = partition_bounds(canonical, idf_overrides, ceilings, reachable)
        contenders = [partition for partition in reachable if bounds[partition] > 0.0]
        statistics.partitions_pruned = len(reachable) - len(contenders)

        # Round 2 — open the partial streams in parallel (scorer built,
        # one token per group queued).  Cold queries pin round 1's copies.
        def open_stream(partition: int, hosted: HostedPartition) -> SearchStream:
            del partition
            return hosted.searcher.stream(
                canonical, k, size_threshold, idf_overrides=idf_overrides
            )

        opened, lost_streams = self._failover_fan_out(
            contenders, open_stream, deadline, statistics, pinned=pinned
        )
        missing.update(lost_streams)
        if lost_streams and not degraded:
            raise PartialResultError(missing, detail="; ".join(missing.values()))

        streams: Dict[int, SearchStream] = {}
        stream_nodes: Dict[int, str] = {}
        emitted: Dict[int, int] = {}
        tried: Dict[int, Set[str]] = {}
        heap: List[Tuple[tuple, int]] = []
        for partition, (node_id, _hosted, stream) in opened.items():
            streams[partition] = stream
            stream_nodes[partition] = node_id
            emitted[partition] = 0
            # The sentinel key sorts at-or-before every real entry the
            # partition could enqueue: any score it produces is at most the
            # bound, and on equality the sentinel tie ``(0,)`` precedes
            # every content tie-break.
            heap.append(((-bounds[partition], (0,)), partition))
        heapq.heapify(heap)
        merged: List[SearchResult] = []
        while heap and len(merged) < k:
            _key, partition = heap[0]
            # The runner-up's key bounds how far this stream may advance:
            # in a binary heap only the root's children can hold the
            # second-smallest entry.
            if len(heap) >= 3:
                limit = min(heap[1][0], heap[2][0])
            elif len(heap) == 2:
                limit = heap[1][0]
            else:
                limit = None
            stream = streams[partition]
            try:
                # The stream's key surfaced: something it holds could win
                # the next global dequeue; advance it up to the runner-up.
                batch = stream.next_results(limit, k - len(merged))
                if batch:
                    merged.extend(batch)
                    emitted[partition] += len(batch)
                    if len(merged) >= k:
                        # The global k-th emission: stop without refreshing
                        # this stream's bound — nobody consumes more.
                        break
                refreshed = stream.bound_key()
            except Exception as error:
                # Merge-stage failover runs on the merge thread: the
                # deadline here is cooperative (checked between replica
                # attempts), preemptive timeouts cover the fan-out rounds.
                # Results a half-finished batch already emitted are
                # regenerated deterministically: the replacement is only
                # fast-forwarded past the results the merge *kept*.
                replacement = self._replace_stream(
                    partition,
                    stream_nodes[partition],
                    tried,
                    canonical,
                    k,
                    size_threshold,
                    idf_overrides,
                    emitted[partition],
                    deadline,
                    statistics,
                )
                if replacement is None:
                    reason = (
                        f"{type(error).__name__} from {stream_nodes[partition]} "
                        "mid-merge, no fresh copy left"
                    )
                    if not degraded:
                        missing[partition] = reason
                        raise PartialResultError(missing, detail=reason)
                    missing[partition] = reason
                    streams.pop(partition)
                    stream_nodes.pop(partition)
                    heapq.heappop(heap)
                    continue
                node_id, new_stream = replacement
                streams[partition] = new_stream
                stream_nodes[partition] = node_id
                head = new_stream.bound_key()
                if head is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (head, partition))
                continue
            if refreshed is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (refreshed, partition))

        statistics.nodes_queried = len(set(stream_nodes.values()))
        short_circuited: Set[str] = set()
        dependencies: Set[FragmentId] = set()
        for partition, stream in streams.items():
            if not stream.exhausted:
                short_circuited.add(stream_nodes[partition])
            statistics.partials_discarded += stream.pending_candidates
            stream_statistics = stream.finalize()
            dependencies.update(stream.consulted)
            for field_name in _STREAM_SUM_FIELDS:
                setattr(
                    statistics,
                    field_name,
                    getattr(statistics, field_name) + getattr(stream_statistics, field_name),
                )
        statistics.nodes_short_circuited = len(short_circuited)
        statistics.partials_merged = len(merged)
        # Same final step as a single stream: emission order is not strictly
        # score-ordered, the stable sort restores the ranking.
        merged.sort(key=lambda result: -result.score)
        statistics.results = len(merged)
        statistics.complete = not missing
        statistics.missing_partitions = tuple(sorted(missing))
        statistics.elapsed_seconds = time.perf_counter() - started
        self.last_statistics = statistics
        with self._lifetime_lock:
            self._lifetime["searches"] += 1
            for field_name in LIFETIME_FIELDS:
                self._lifetime[field_name] += getattr(statistics, field_name)
        return DetailedSearch(
            results=tuple(merged),
            keywords=canonical,
            dependencies=frozenset(dependencies),
            epoch=epoch,
            statistics=statistics,
        )


@dataclass
class PartitionAssignment:
    """Where one partition's copies live (primary first for writes)."""

    partition: int
    primary: str
    replicas: Tuple[str, ...]
    round_robin: int = 0


class SearchCluster:
    """A simulated multi-node search cluster over one built corpus.

    Build one with :meth:`build` (or through
    :meth:`repro.core.engine.DashEngine.cluster`): the source store is
    replayed into per-partition stores placed on the nodes by the
    consistent-hash ring, replica copies are cut from partition snapshots,
    and a :class:`QueryRouter` serves scatter-gather queries over the
    topology.  ``replicas`` counts *copies* per partition (1 = primary
    only), clamped to the node count.

    Writes (through :attr:`store`, the :class:`~repro.cluster.ClusterStore`
    facade) go to partition primaries; replicas become stale — the router
    skips them until :meth:`sync_replicas` cuts fresh copies (snapshot +
    epoch refresh).  :meth:`rebalance` moves a partition's primary between
    nodes the same way while every other partition keeps serving.
    Mutations to the *moving* partition should be quiesced by the caller
    for the duration of the move (one maintenance-batch boundary); the move
    re-cuts its snapshot if it detects a racing write.
    """

    def __init__(
        self,
        query: ParameterizedPSJQuery,
        query_string_spec: QueryStringSpec,
        uri: str,
        node_ids: Sequence[str],
        partitions: int,
        replicas: int,
        node_store: NodeStoreSpec = "memory",
        store_dir: Optional[str] = None,
        fault_plane: Optional[FaultPlane] = None,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 0.5,
    ) -> None:
        self.partitioner = GroupPartitioner(query, partitions)
        self.ring = HashRing(node_ids)
        self.nodes: Dict[str, SearchNode] = {
            node_id: SearchNode(node_id, query, query_string_spec, uri)
            for node_id in node_ids
        }
        self.replication = max(1, min(replicas, len(node_ids)))
        self.fault_plane = fault_plane
        self._health: Dict[str, NodeHealth] = {
            node_id: NodeHealth(
                node_id,
                failure_threshold=breaker_threshold,
                reset_seconds=breaker_reset_seconds,
            )
            for node_id in node_ids
        }
        self._node_store = node_store
        self._store_dir = store_dir
        self._owns_store_dir = False
        self._generation = itertools.count()
        self._topology_lock = threading.Lock()
        self._retired: List[FragmentStore] = []
        self._assignments: Dict[int, PartitionAssignment] = {}
        for partition in range(partitions):
            owners = self.ring.nodes_for(("partition", partition), count=self.replication)
            self._assignments[partition] = PartitionAssignment(
                partition=partition, primary=owners[0], replicas=tuple(owners[1:])
            )
        self.store = ClusterStore(self.partitioner, self.primary_store)
        self.router: Optional[QueryRouter] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        query: ParameterizedPSJQuery,
        query_string_spec: QueryStringSpec,
        uri: str,
        source_store: FragmentStore,
        nodes: int = 2,
        replicas: int = 1,
        partitions: Optional[int] = None,
        node_store: NodeStoreSpec = "memory",
        store_dir: Optional[str] = None,
        router_workers: Optional[int] = None,
        fault_plane: Optional[FaultPlane] = None,
        deadline_seconds: Optional[float] = None,
        degraded_ok: bool = False,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 0.5,
    ) -> "SearchCluster":
        """Partition a built corpus across ``nodes`` and wire the router.

        ``partitions`` defaults to ``nodes`` (one primary per node);
        ``node_store`` picks each partition copy's backend (see
        :data:`NodeStoreSpec`), ``store_dir`` where disk backends land
        their files (a managed temporary directory when omitted).

        ``fault_plane`` wraps every partition copy with a
        :class:`~repro.faults.FaultPlane` proxy (chaos testing);
        ``deadline_seconds``/``degraded_ok`` set the router's default
        failover budget and partial-result policy, and the ``breaker_*``
        knobs tune each node's circuit breaker (see
        :class:`~repro.cluster.health.NodeHealth`).
        """
        if nodes < 1:
            raise ValueError(f"node count must be at least 1, got {nodes}")
        partition_count = nodes if partitions is None else partitions
        cluster = cls(
            query=query,
            query_string_spec=query_string_spec,
            uri=uri,
            node_ids=tuple(f"node-{index}" for index in range(nodes)),
            partitions=partition_count,
            replicas=replicas,
            node_store=node_store,
            store_dir=store_dir,
            fault_plane=fault_plane,
            breaker_threshold=breaker_threshold,
            breaker_reset_seconds=breaker_reset_seconds,
        )
        for partition, assignment in cluster._assignments.items():
            store = cluster._new_partition_store(partition, assignment.primary)
            cluster.nodes[assignment.primary].host(partition, store)
        populate_from_store(cluster.store, source_store)
        for partition, assignment in cluster._assignments.items():
            for node_id in assignment.replicas:
                cluster.nodes[node_id].host(
                    partition, cluster._clone_partition(partition, node_id)
                )
        cluster.router = QueryRouter(
            cluster,
            workers=router_workers,
            deadline_seconds=deadline_seconds,
            degraded_ok=degraded_ok,
        )
        return cluster

    def service(self, **kwargs) -> "ClusterSearchService":
        """A serving layer over this cluster (see :class:`ClusterSearchService`)."""
        return ClusterSearchService(self, **kwargs)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def partition_count(self) -> int:
        """Number of corpus partitions."""
        return self.partitioner.partitions

    def assignment(self, partition: int) -> PartitionAssignment:
        """A consistent copy of one partition's current placement."""
        with self._topology_lock:
            current = self._assignments[partition]
            return PartitionAssignment(
                partition=current.partition,
                primary=current.primary,
                replicas=current.replicas,
                round_robin=current.round_robin,
            )

    def primary_store(self, partition: int) -> FragmentStore:
        """The current primary store of ``partition`` (the facade's write target)."""
        with self._topology_lock:
            node_id = self._assignments[partition].primary
        return self.nodes[node_id].hosted(partition).store

    def node_available(self, node_id: str) -> bool:
        """Whether ``node_id``'s circuit breaker currently admits traffic."""
        return self._health[node_id].available()

    def node_health(self, node_id: str) -> NodeHealth:
        """The breaker/counter record of one node."""
        return self._health[node_id]

    def note_failure(self, node_id: str) -> str:
        """Record one observed read failure; returns the breaker state."""
        return self._health[node_id].record_failure()

    def note_success(self, node_id: str) -> None:
        """Record one observed read success (closes a probing breaker)."""
        self._health[node_id].record_success()

    def serving_candidates(
        self, partition: int, rotate: bool = True
    ) -> List[Tuple[str, HostedPartition]]:
        """Every copy currently eligible to serve ``partition``, best first.

        Round-robin over the primary and its replicas (``rotate=False``
        reads the rotation without advancing it — failover re-reads reuse
        the query's pinned rotation), skipping copies whose node breaker is
        open and replicas whose epoch trails the primary's (stale until
        :meth:`sync_replicas`).  This is what spreads a hot partition's read
        load ``replicas``-ways; the first entry is the pick the old
        single-copy selection would have made.
        """
        with self._topology_lock:
            assignment = self._assignments[partition]
            order = (assignment.primary,) + assignment.replicas
            start = assignment.round_robin
            if rotate:
                assignment.round_robin = (assignment.round_robin + 1) % len(order)
        primary_hosted = self.nodes[assignment.primary].hosted(partition)
        primary_epoch = primary_hosted.store.epoch
        candidates: List[Tuple[str, HostedPartition]] = []
        for offset in range(len(order)):
            node_id = order[(start + offset) % len(order)]
            if not self.node_available(node_id):
                continue
            if node_id == assignment.primary:
                candidates.append((node_id, primary_hosted))
                continue
            node = self.nodes[node_id]
            if not node.hosts(partition):
                continue
            hosted = node.hosted(partition)
            if hosted.store.epoch == primary_epoch:
                candidates.append((node_id, hosted))
        return candidates

    def select_serving(self, partition: int) -> Tuple[str, HostedPartition]:
        """Pick the copy to serve one query's reads of ``partition``.

        The head of :meth:`serving_candidates` — round-robin over the
        primary and its fresh replicas.  Unlike the historical behaviour
        this never silently falls back to a primary whose breaker is open:
        if no copy is eligible it raises
        :class:`~repro.serving.errors.PartitionUnavailableError` so callers
        can fail over or surface the outage instead of querying a node
        known to be dead.
        """
        candidates = self.serving_candidates(partition)
        if not candidates:
            assignment = self.assignment(partition)
            raise PartitionUnavailableError(
                partition,
                tried=(assignment.primary,) + assignment.replicas,
                reason="primary dead and no fresh available replica",
            )
        return candidates[0]

    def ensure_live_primary(self, partition: int) -> Optional[str]:
        """Promote a fresh replica if ``partition``'s primary looks dead.

        No-op (returns ``None``) while the primary's breaker admits
        traffic.  Otherwise the first available replica hosting a copy at
        the primary's epoch is promoted via the :meth:`rebalance` flip
        machinery — the dead node demotes to replica so it can be re-synced
        if it comes back — and its id is returned.  With no eligible
        replica the partition stays on the dead primary (callers see
        :class:`~repro.serving.errors.PartitionUnavailableError` until the
        breaker's probe window reopens).
        """
        assignment = self.assignment(partition)
        if self.node_available(assignment.primary):
            return None
        primary_epoch = self.nodes[assignment.primary].hosted(partition).store.epoch
        for node_id in assignment.replicas:
            if not self.node_available(node_id):
                continue
            node = self.nodes[node_id]
            if not node.hosts(partition):
                continue
            if node.hosted(partition).store.epoch != primary_epoch:
                continue
            if self._flip_primary(
                partition,
                node_id,
                keep_source=True,
                expected_primary=assignment.primary,
            ):
                return node_id
            return None
        return None

    # ------------------------------------------------------------------
    # rebalancing and replica catch-up
    # ------------------------------------------------------------------
    def rebalance(self, partition: int, target_node_id: str) -> bool:
        """Move ``partition``'s primary to ``target_node_id`` via snapshot.

        The source copy keeps serving while the snapshot is cut and
        restored — no downtime for this or any other partition — and the
        assignment flips atomically once the target copy is complete.  A
        target that held a replica is promoted (the old primary demotes to
        replica, reusing its still-fresh store); otherwise the old primary
        copy is dropped and retired.  Returns ``False`` for a no-op move
        (target already primary), ``True`` otherwise.
        """
        if target_node_id not in self.nodes:
            raise ValueError(f"unknown node {target_node_id!r}")
        with self._topology_lock:
            assignment = self._assignments[partition]
            source_node_id = assignment.primary
        if source_node_id == target_node_id:
            return False
        source_store = self.nodes[source_node_id].hosted(partition).store
        while True:
            epoch_before = source_store.epoch
            new_store = self._clone_partition(partition, target_node_id)
            if source_store.epoch == epoch_before:
                break
            # A same-partition write raced the copy; retire it and recut.
            self._retired.append(new_store)
        self.nodes[target_node_id].host(partition, new_store)
        flipped = self._flip_primary(partition, target_node_id)
        if flipped is None:
            return True
        flipped_source, keep_source = flipped
        if not keep_source:
            dropped = self.nodes[flipped_source].drop(partition)
            if dropped is not None:
                # In-flight queries pinned to the old copy finish against it;
                # the store closes with the cluster, not under them.
                self._retired.append(dropped.store)
        return True

    def _flip_primary(
        self,
        partition: int,
        target_node_id: str,
        keep_source: Optional[bool] = None,
        expected_primary: Optional[str] = None,
    ) -> Optional[Tuple[str, bool]]:
        """Atomically make ``target_node_id`` the primary of ``partition``.

        ``keep_source`` forces whether the old primary stays listed as a
        replica (default: only if the target *was* a replica, i.e. its
        copy is reusable).  ``expected_primary`` aborts the flip (returns
        ``None``) if the assignment moved since the caller looked — the
        promotion equivalent of a compare-and-swap.  Returns the old
        primary and whether it was kept.
        """
        with self._topology_lock:
            assignment = self._assignments[partition]
            if expected_primary is not None and assignment.primary != expected_primary:
                return None
            source_node_id = assignment.primary
            if source_node_id == target_node_id:
                return None
            was_replica = target_node_id in assignment.replicas
            keep = was_replica if keep_source is None else keep_source
            remaining = tuple(
                node_id for node_id in assignment.replicas if node_id != target_node_id
            )
            assignment.primary = target_node_id
            assignment.replicas = remaining + (source_node_id,) if keep else remaining
        return source_node_id, keep

    def sync_replicas(self, partition: Optional[int] = None) -> int:
        """Cut fresh snapshot copies for stale replicas (epoch catch-up).

        Covers one partition or (default) all of them; returns how many
        replica copies were refreshed.  A replica is stale when its store
        epoch differs from its primary's — the same check
        :meth:`select_serving` uses to route reads away from it.
        """
        partitions = range(self.partition_count) if partition is None else (partition,)
        refreshed = 0
        for current in partitions:
            assignment = self.assignment(current)
            primary_epoch = self.nodes[assignment.primary].hosted(current).store.epoch
            for node_id in assignment.replicas:
                node = self.nodes[node_id]
                if node.hosts(current) and node.hosted(current).store.epoch == primary_epoch:
                    continue
                previous = node.drop(current)
                node.host(current, self._clone_partition(current, node_id))
                if previous is not None:
                    self._retired.append(previous.store)
                refreshed += 1
        return refreshed

    # ------------------------------------------------------------------
    # statistics and lifecycle
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Topology + per-partition epochs (the cluster's inspection surface)."""
        placements = {}
        for partition in range(self.partition_count):
            assignment = self.assignment(partition)
            placements[partition] = {
                "primary": assignment.primary,
                "replicas": list(assignment.replicas),
                "epoch": self.primary_store(partition).epoch,
            }
        payload: Dict[str, object] = {
            "nodes": {
                node_id: {"partitions": list(node.partitions())}
                for node_id, node in self.nodes.items()
            },
            "partitions": placements,
            "partition_epochs": self.store.partition_epochs(),
            "epoch": self.store.epoch,
            "replication": self.replication,
            "health": {
                node_id: health.as_dict() for node_id, health in self._health.items()
            },
        }
        if self.router is not None:
            payload["term_stats_cache"] = self.router.term_stats.statistics()
            payload["search"] = self.router.lifetime_statistics()
        if self.fault_plane is not None:
            payload["faults"] = self.fault_plane.statistics()
        return payload

    def close(self) -> None:
        """Shut the router down and close every hosted and retired store."""
        if self.router is not None:
            self.router.close()
        for node in self.nodes.values():
            for partition in node.partitions():
                dropped = node.drop(partition)
                if dropped is not None:
                    dropped.store.close()
        for store in self._retired:
            store.close()
        self._retired = []
        if self._owns_store_dir and self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    # ------------------------------------------------------------------
    def _ensure_store_dir(self) -> str:
        if self._store_dir is None:
            self._store_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            self._owns_store_dir = True
        return self._store_dir

    def _new_partition_store(self, partition: int, node_id: str) -> FragmentStore:
        return self._wrap_store(node_id, self._new_raw_partition_store(partition, node_id))

    def _new_raw_partition_store(self, partition: int, node_id: str) -> FragmentStore:
        """A bare (unwrapped) backend for one partition copy.

        Snapshot restores need the bare store — the fault-plane proxy is
        not a :class:`FragmentStore` and must only be layered on *after*
        the copy is complete (see :meth:`_wrap_store`).
        """
        spec = self._node_store
        if callable(spec):
            return spec(node_id, partition)
        if spec == "memory":
            return InMemoryStore()
        if spec == "disk":
            filename = f"{node_id}-p{partition}-g{next(self._generation)}.sqlite"
            return DiskStore(os.path.join(self._ensure_store_dir(), filename))
        raise ValueError(
            f"unknown node store spec {spec!r}; expected 'memory', 'disk' or a "
            "(node_id, partition) -> FragmentStore factory"
        )

    def _wrap_store(self, node_id: str, store: FragmentStore):
        """Layer the cluster's fault plane (if any) over one copy."""
        if self.fault_plane is None:
            return store
        return self.fault_plane.wrap_store(node_id, store)

    def _clone_partition(self, partition: int, target_node_id: str) -> FragmentStore:
        """Snapshot the partition's primary and restore it into a fresh store.

        The existing backend-independent snapshot machinery does the heavy
        lifting: postings, sizes and the partition's epoch clock all
        travel, so the clone is indistinguishable from the primary at cut
        time — including for the epoch-equality freshness check.
        """
        source = self.primary_store(partition)
        snapshot_path = os.path.join(
            self._ensure_store_dir(),
            f"snapshot-p{partition}-g{next(self._generation)}.json",
        )
        source.snapshot(snapshot_path)
        try:
            restored = load_snapshot(
                snapshot_path,
                store=self._new_raw_partition_store(partition, target_node_id),
            )
            return self._wrap_store(target_node_id, restored)
        finally:
            try:
                os.remove(snapshot_path)
            except OSError:
                pass


class ClusterSearchService(SearchService):
    """A stock :class:`~repro.serving.SearchService` over a cluster.

    The "searcher" is the cluster's :class:`QueryRouter` and the "store" is
    the :class:`~repro.cluster.ClusterStore` facade, so admission, the
    versioned result cache, single-flight coalescing and epoch invalidation
    all run unchanged — cache stamps carry the router epoch, whose ticks
    are derived one-to-one from per-partition commits.  Closing the service
    closes the cluster (router pool, every partition store, managed files).
    """

    def __init__(
        self,
        cluster: SearchCluster,
        degraded_ok: Optional[bool] = None,
        deadline_seconds: Optional[float] = None,
        **kwargs,
    ) -> None:
        if cluster.router is None:
            raise ValueError("the cluster has no router; build it with SearchCluster.build")
        self.cluster = cluster
        # Non-None overrides win over whatever SearchCluster.build wired in;
        # the serving layer is where the degraded-results policy lives.
        if degraded_ok is not None:
            cluster.router.degraded_ok = degraded_ok
        if deadline_seconds is not None:
            cluster.router.deadline_seconds = deadline_seconds
        super().__init__(cluster.router, **kwargs)

    def close(self) -> None:
        """Close the serving layer, then the cluster underneath it."""
        super().close()
        self.cluster.close()
