"""One simulated cluster node hosting partition stores and their searchers.

A :class:`SearchNode` owns a set of *partition copies* — each one a complete
:class:`~repro.store.FragmentStore` (any backend; ``DiskStore`` for per-node
durability) holding one consistent-hash partition of the corpus, wrapped in
the standard read stack (:class:`~repro.core.fragment_index.InvertedFragmentIndex`,
:class:`~repro.core.fragment_graph.FragmentGraph`,
:class:`~repro.core.search.TopKSearcher`).  The same node may host the
*primary* copy of one partition and *replica* copies of others; which copy
serves a given query is the router's call (:mod:`repro.cluster.router`).

A node has no query methods of its own: the router reads a hosted copy's
block directories (``hosted.store.posting_blocks_for_many``) and opens its
:class:`~repro.core.search.SearchStream` (``hosted.searcher.stream``)
directly, advancing the stream in merge order and pulling only as many
partial results as the global top-k actually needs.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.db.query import ParameterizedPSJQuery
from repro.store.base import FragmentStore
from repro.webapp.request import QueryStringSpec


class HostedPartition:
    """One partition copy on one node: its store plus the read stack."""

    def __init__(
        self,
        partition: int,
        store: FragmentStore,
        query: ParameterizedPSJQuery,
        query_string_spec: QueryStringSpec,
        uri: str,
    ) -> None:
        self.partition = partition
        self.store = store
        self.index = InvertedFragmentIndex(store=store)
        self.graph = FragmentGraph(query, store=store)
        self.searcher = TopKSearcher(
            index=self.index,
            graph=self.graph,
            url_formulator=UrlFormulator(
                query=query,
                query_string_spec=query_string_spec,
                application_uri=uri,
            ),
        )


class SearchNode:
    """One cluster node: the partition copies it hosts, each with its read stack."""

    def __init__(
        self,
        node_id: str,
        query: ParameterizedPSJQuery,
        query_string_spec: QueryStringSpec,
        uri: str,
    ) -> None:
        self.node_id = node_id
        self._query = query
        self._query_string_spec = query_string_spec
        self._uri = uri
        self._lock = threading.Lock()
        self._partitions: Dict[int, HostedPartition] = {}

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------
    def host(self, partition: int, store: FragmentStore) -> HostedPartition:
        """Attach (or atomically replace) one partition copy on this node.

        Replacement is how a replica catches up and how a rebalanced
        partition arrives: the new store is fully restored before the swap,
        and searches already running against the old copy keep their
        consistent view — the old store object stays alive until its last
        reader drops it (the cluster retires and closes it later).
        """
        hosted = HostedPartition(
            partition, store, self._query, self._query_string_spec, self._uri
        )
        with self._lock:
            self._partitions[partition] = hosted
        return hosted

    def drop(self, partition: int) -> Optional[HostedPartition]:
        """Detach one partition copy (returns it for the cluster to retire)."""
        with self._lock:
            return self._partitions.pop(partition, None)

    def hosted(self, partition: int) -> HostedPartition:
        """The live copy of ``partition`` on this node (KeyError when absent)."""
        with self._lock:
            return self._partitions[partition]

    def hosts(self, partition: int) -> bool:
        """Whether this node currently holds a copy of ``partition``."""
        with self._lock:
            return partition in self._partitions

    def partitions(self) -> Tuple[int, ...]:
        """Partitions this node currently holds a copy of, in id order."""
        with self._lock:
            return tuple(sorted(self._partitions))
