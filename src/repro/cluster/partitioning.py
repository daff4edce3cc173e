"""Consistent-hash partitioning for the search cluster.

Two placement decisions are kept deliberately separate:

* **fragment → partition** (:class:`GroupPartitioner`) — a *data* decision
  that must never change while data lives in the cluster, because moving one
  fragment would split the db-page chains Algorithm 1 assembles.  Fragments
  hash by their *equality group*: the components bound by the PSJ query's
  equality conditions.  Graph edges only ever connect fragments of one
  equality group (adjacent range-condition values within the group), so a
  whole chain — and therefore every db-page any search can assemble — lives
  inside a single partition, which is what lets a partition answer searches
  entirely locally.  A query with no range condition builds no edges at all,
  so each fragment is its own group and hashes by its full identifier.
* **partition → nodes** (:class:`HashRing`) — an *operational* decision that
  may change at runtime: the consistent-hash ring assigns each partition a
  primary node and, clockwise, distinct replica nodes, and rebalancing moves
  a partition's store between nodes (see
  :meth:`repro.cluster.SearchCluster.rebalance`) without touching the
  fragment → partition mapping.

Both hash with :func:`placement_hash` — the MapReduce layer's
process-stable FNV-1a run through a splitmix64 finalizer — so placement is
identical across runs and processes and spreads evenly around the ring.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Set, Tuple

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragments import FragmentId
from repro.db.query import ParameterizedPSJQuery
from repro.mapreduce.job import _stable_hash


def _spread(value: int) -> int:
    """splitmix64 finalizer over the FNV hash.

    FNV-1a's tuple fold is stable and collision-resistant but its *high*
    bits barely avalanche — keys differing only in their last element land
    adjacent when sorted by hash, which would cluster the ring.  The
    finalizer is a fixed bijection on 64-bit values, so it costs nothing in
    collision behaviour and keeps placement process-stable.
    """
    value &= 0xFFFFFFFFFFFFFFFF
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 31
    return value


def placement_hash(key: object) -> int:
    """The cluster's process-stable placement hash (FNV-1a + splitmix64)."""
    return _spread(_stable_hash(key))


class GroupPartitioner:
    """Maps fragments to partitions without ever splitting a db-page chain."""

    def __init__(self, query: ParameterizedPSJQuery, partitions: int) -> None:
        if partitions < 1:
            raise ValueError(f"partition count must be at least 1, got {partitions}")
        self.partitions = partitions
        self._group_key = FragmentGraph(query).group_key

    def group_key(self, identifier: FragmentId) -> Tuple:
        """The equality-group key that decides ``identifier``'s partition.

        :meth:`~repro.core.fragment_graph.FragmentGraph.group_key`, the one
        definition: with a range condition in the query, fragments sharing
        this key can be graph-adjacent and must co-locate; without one, no
        fragment is adjacent to any other and the full identifier spreads
        the corpus evenly.
        """
        return self._group_key(tuple(identifier))

    def partition_of(self, identifier: FragmentId) -> int:
        """The partition owning ``identifier`` (stable across processes)."""
        return placement_hash(self.group_key(identifier)) % self.partitions


class HashRing:
    """A consistent-hash ring assigning partitions to nodes.

    Each node contributes ``points_per_node`` virtual points; a key's owners
    are the first distinct nodes clockwise from the key's ring position.
    Virtual points smooth the assignment, and consistency means adding or
    removing one node only reassigns the partitions whose nearest points
    belonged to it — the property that keeps rebalancing incremental.
    """

    def __init__(self, node_ids: Sequence[str], points_per_node: int = 64) -> None:
        if not node_ids:
            raise ValueError("a hash ring needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError(f"duplicate node ids in {node_ids!r}")
        self.node_ids: Tuple[str, ...] = tuple(node_ids)
        self._points: List[Tuple[int, str]] = sorted(
            (placement_hash((node_id, point)), node_id)
            for node_id in self.node_ids
            for point in range(points_per_node)
        )

    def nodes_for(self, key: object, count: int = 1) -> Tuple[str, ...]:
        """The first ``count`` distinct nodes clockwise from ``key``.

        The first entry is the key's primary; the rest are its replica
        nodes.  ``count`` is clamped to the number of nodes on the ring.
        """
        wanted = max(1, min(count, len(self.node_ids)))
        start = bisect.bisect_right(self._points, (placement_hash(key),))
        chosen: List[str] = []
        seen: Set[str] = set()
        total = len(self._points)
        for offset in range(total):
            _point, node_id = self._points[(start + offset) % total]
            if node_id not in seen:
                seen.add(node_id)
                chosen.append(node_id)
                if len(chosen) == wanted:
                    break
        return tuple(chosen)
