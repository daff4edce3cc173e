"""Simulated multi-node search cluster: partitioned scatter-gather serving.

The cluster package stacks on everything below it without forking any of
it.  A built corpus is split into consistent-hash partitions that never
cut a db-page chain (:class:`GroupPartitioner`), partitions are placed on
:class:`SearchNode`\\ s by a :class:`HashRing` (primary + replicas), and a
:class:`QueryRouter` answers queries by scatter-gather: global document
frequencies first (served from the epoch-validated :class:`TermStatsCache`
when warm, so steady-state queries pay one fan-out round instead of two),
then per-partition bound-ordered
:class:`~repro.core.search.SearchStream`\\ s merged in exact dequeue
order — results are byte-identical to a single-store run, partitions whose
admissible bound is zero are pruned before any stream opens, and streams
whose bounds never reach the global frontier are short-circuited.

:class:`ClusterStore` is the write/freshness facade (a real
:class:`~repro.store.FragmentStore` routing writes to partition primaries
and deriving a cluster-wide epoch clock), :class:`SearchCluster` owns the
topology (replica catch-up and live rebalancing via the snapshot
machinery), and :class:`ClusterSearchService` is a stock serving layer
over the router — see :meth:`repro.core.engine.DashEngine.cluster`.

Serving is fault-tolerant: per-node :class:`NodeHealth` circuit breakers
(fed by router-observed outcomes) fence off dying nodes, every
per-partition read fails over across fresh replicas under an optional
per-query deadline, dead primaries are auto-promoted, and queries that
lose every copy of a partition either raise a typed
:class:`~repro.serving.PartialResultError` or (``degraded_ok=True``)
return flagged, never-cached partial results.  Chaos is injected with
:class:`repro.faults.FaultPlane`.
"""

from repro.cluster.health import NodeHealth
from repro.cluster.node import HostedPartition, SearchNode
from repro.cluster.partitioning import GroupPartitioner, HashRing
from repro.cluster.router import (
    ClusterSearchService,
    PartitionAssignment,
    QueryRouter,
    SearchCluster,
)
from repro.cluster.stats import TermStatsCache, TermStatsEntry, partition_bounds
from repro.cluster.store import ClusterStore, populate_from_store

__all__ = [
    "ClusterSearchService",
    "ClusterStore",
    "GroupPartitioner",
    "HashRing",
    "HostedPartition",
    "NodeHealth",
    "PartitionAssignment",
    "QueryRouter",
    "SearchCluster",
    "SearchNode",
    "TermStatsCache",
    "TermStatsEntry",
    "partition_bounds",
    "populate_from_store",
]
