"""The fragment graph (Section VI-A, Figure 9).

Nodes are db-page fragments (annotated with their total keyword count); an
edge connects fragments ``f`` and ``f'`` when they can be combined into a
db-page — i.e. there is a query-string binding whose page contains both — and
that combined page contains *no other* fragment.

For the PSJ queries the paper considers (one or more equality parameters plus
one BETWEEN range parameter), that means:

* two fragments must agree on every equality-constrained attribute value, and
* they must be *adjacent* in the ordering of their range-attribute value
  within that equality group (if a third fragment's range value lay strictly
  between theirs, the combining page would contain it too).

Fragments with different equality values are never connected — e.g. the
``(Thai, 10)`` node is disconnected from the ``American`` chain in Figure 9.

The class supports both the paper's incremental insertion (add one fragment at
a time, splitting an existing edge when the new fragment falls between its two
endpoints) and the pre-sorted bulk construction the paper recommends as an
optimisation.

Node and adjacency storage is delegated to a pluggable
:class:`~repro.store.FragmentStore` backend; pass the same store the inverted
fragment index uses and the whole serving state (postings, sizes, adjacency)
lives in one place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.fragments import FragmentId, identifier_order
from repro.db.query import BetweenCondition, ParameterizedPSJQuery
from repro.db.types import compare_values
from repro.store.base import FragmentStore
from repro.store.memory import InMemoryStore


class FragmentGraphError(Exception):
    """Raised for inconsistent graph operations."""


@dataclass
class GraphBuildReport:
    """Statistics of one graph construction (Table IV)."""

    build_seconds: float
    fragment_count: int
    edge_count: int
    average_keywords: float
    comparisons: int


class FragmentGraph:
    """Fragment adjacency plus per-fragment keyword counts."""

    def __init__(self, query: ParameterizedPSJQuery, store: Optional[FragmentStore] = None) -> None:
        self.query = query
        self._store = store if store is not None else InMemoryStore()
        self._equality_positions, self._range_positions = _condition_positions(query)
        self.comparisons = 0

    @property
    def store(self) -> FragmentStore:
        """The storage backend (shared with the fragment index by the engine)."""
        return self._store

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        query: ParameterizedPSJQuery,
        fragment_sizes: Mapping[FragmentId, int],
        presorted: bool = True,
        store: Optional[FragmentStore] = None,
    ) -> "FragmentGraph":
        """Build the graph for all fragments in ``fragment_sizes``.

        ``presorted=True`` applies the paper's optimisation: fragments are
        sorted by their query-parameter values before insertion, so each one
        simply extends the end of its equality group's chain — a single
        comparison per fragment instead of a scan over all existing nodes.
        """
        graph = cls(query, store=store)
        # Graph construction is a bulk load like the index's: one write
        # batch, so a persistent backend commits the adjacency once.
        with graph._store.write_batch():
            if not presorted:
                for identifier in fragment_sizes:
                    graph.add_fragment(identifier, fragment_sizes[identifier])
                return graph

            def group_then_range(identifier: FragmentId):
                return (
                    identifier_order(graph.group_key(identifier)),
                    identifier_order(graph._range_key(identifier)),
                )

            identifiers = sorted((tuple(identifier) for identifier in fragment_sizes), key=group_then_range)
            previous: Optional[FragmentId] = None
            for identifier in identifiers:
                if graph._store.has_node(identifier):
                    raise FragmentGraphError(f"fragment {identifier!r} already in the graph")
                graph._store.add_node(identifier, fragment_sizes[identifier])
                if (
                    graph._range_positions
                    and previous is not None
                    and graph.group_key(previous) == graph.group_key(identifier)
                ):
                    graph._store.add_edge(previous, identifier)
                graph.comparisons += 1
                previous = identifier
            return graph

    @classmethod
    def build_with_report(
        cls,
        query: ParameterizedPSJQuery,
        fragment_sizes: Mapping[FragmentId, int],
        presorted: bool = True,
        store: Optional[FragmentStore] = None,
    ) -> Tuple["FragmentGraph", GraphBuildReport]:
        """Build the graph and report construction statistics (Table IV)."""
        started = time.perf_counter()
        graph = cls.build(query, fragment_sizes, presorted=presorted, store=store)
        elapsed = time.perf_counter() - started
        sizes = list(fragment_sizes.values())
        average = sum(sizes) / len(sizes) if sizes else 0.0
        report = GraphBuildReport(
            build_seconds=elapsed,
            fragment_count=len(fragment_sizes),
            edge_count=graph.edge_count,
            average_keywords=average,
            comparisons=graph.comparisons,
        )
        return graph, report

    def add_fragment(self, identifier: FragmentId, keyword_count: int) -> None:
        """Incrementally insert one fragment (the paper's per-turn insertion).

        The new node is linked to its neighbours within its equality group;
        if it falls strictly between two currently-connected fragments, their
        edge is removed and replaced by two edges through the new node.
        """
        identifier = tuple(identifier)
        if self._store.has_node(identifier):
            raise FragmentGraphError(f"fragment {identifier!r} already in the graph")
        self._store.add_node(identifier, keyword_count)

        if not self._range_positions:
            # No range parameter: every fragment is its own maximal db-page.
            return

        group = self.group_key(identifier)
        below: Optional[FragmentId] = None
        above: Optional[FragmentId] = None
        for other in self._store.node_ids():
            if other == identifier:
                continue
            self.comparisons += 1
            if self.group_key(other) != group:
                continue
            comparison = self._compare_range(other, identifier)
            if comparison < 0:
                if below is None or self._compare_range(other, below) > 0:
                    below = other
            elif comparison > 0:
                if above is None or self._compare_range(other, above) < 0:
                    above = other
            else:
                raise FragmentGraphError(
                    f"two fragments share the identifier components {identifier!r}"
                )
        if below is not None and above is not None and self.are_connected(below, above):
            self._store.remove_edge(below, above)
        if below is not None:
            self._store.add_edge(below, identifier)
        if above is not None:
            self._store.add_edge(identifier, above)

    # ------------------------------------------------------------------
    # ordering helpers
    # ------------------------------------------------------------------
    def group_key(self, identifier: FragmentId) -> Tuple:
        """The equality group of ``identifier``: its equality-bound components.

        Edges only ever join fragments sharing this key, so a group is one
        chain and every db-page lives inside one group.  With no range
        condition there are no edges and the group is the fragment itself.
        """
        if not self._range_positions:
            return identifier
        return tuple(map(identifier.__getitem__, self._equality_positions))

    def _range_key(self, identifier: FragmentId) -> Tuple:
        return tuple(identifier[position] for position in self._range_positions)

    def _compare_range(self, left: FragmentId, right: FragmentId) -> int:
        for position in self._range_positions:
            comparison = compare_values(left[position], right[position])
            if comparison != 0:
                return comparison
        return 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_fragment(self, identifier: FragmentId) -> bool:
        return self._store.has_node(tuple(identifier))

    def keyword_count(self, identifier: FragmentId) -> int:
        try:
            return self._store.node_keyword_count(tuple(identifier))
        except KeyError:
            raise FragmentGraphError(f"unknown fragment {identifier!r}") from None

    def neighbors(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """Fragments directly combinable with ``identifier``."""
        identifier = tuple(identifier)
        try:
            neighbors = self._store.neighbors(identifier)
        except KeyError:
            raise FragmentGraphError(f"unknown fragment {identifier!r}") from None
        return tuple(sorted(neighbors, key=identifier_order))

    def are_connected(self, left: FragmentId, right: FragmentId) -> bool:
        left = tuple(left)
        if not self._store.has_node(left):
            return False
        return tuple(right) in self._store.neighbors(left)

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        return self._store.node_ids()

    @property
    def fragment_count(self) -> int:
        return self._store.node_count()

    @property
    def edge_count(self) -> int:
        return self._store.edge_count()

    def connected_component(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """All fragments reachable from ``identifier`` (one application chain)."""
        identifier = tuple(identifier)
        if not self._store.has_node(identifier):
            raise FragmentGraphError(f"unknown fragment {identifier!r}")
        seen: Set[FragmentId] = {identifier}
        frontier: List[FragmentId] = [identifier]
        while frontier:
            current = frontier.pop()
            for neighbor in self._store.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return tuple(sorted(seen, key=identifier_order))

    def remove_fragment(self, identifier: FragmentId) -> None:
        """Remove a fragment, reconnecting its neighbours (incremental deletes)."""
        identifier = tuple(identifier)
        if not self._store.has_node(identifier):
            return
        neighbors = sorted(self._store.neighbors(identifier), key=identifier_order)
        for neighbor in neighbors:
            self._store.discard_neighbor(neighbor, identifier)
        # Reconnect the two range-order neighbours so the chain stays intact.
        if len(neighbors) == 2:
            self._store.add_edge(neighbors[0], neighbors[1])
        self._store.remove_node(identifier)

    def update_keyword_count(self, identifier: FragmentId, keyword_count: int) -> None:
        """Change a node's keyword count (incremental maintenance)."""
        identifier = tuple(identifier)
        try:
            self._store.set_node_keyword_count(identifier, keyword_count)
        except KeyError:
            raise FragmentGraphError(f"unknown fragment {identifier!r}") from None


def _condition_positions(query: ParameterizedPSJQuery) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    equality: List[int] = []
    ranges: List[int] = []
    for position, condition in enumerate(query.conditions):
        if isinstance(condition, BetweenCondition):
            ranges.append(position)
        else:
            equality.append(position)
    return tuple(equality), tuple(ranges)

