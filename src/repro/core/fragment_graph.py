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

So every equality group is one path, and the graph is a function of the
fragment identifiers alone: nothing about it is stored.  The nodes are the
fragments of a :class:`~repro.store.FragmentStore` (their keyword counts are
the store's fragment sizes), and a fragment's neighbours are the members at
positions ± 1 of its group sorted by range value.  The top-k searcher reads
the same chains from its per-epoch group table
(:class:`~repro.core.search.TopKSearcher`); this class is the paper's facade
over them, plus the two things a writer needs from the definition —
:meth:`FragmentGraph.chain` and :meth:`FragmentGraph.neighbor_touches`.

:meth:`FragmentGraph.build` keeps the paper's two construction strategies as
a cost model (Table IV): the per-turn insertion compares each new fragment
with every node already present, while the pre-sorted construction extends
the end of its group's chain with a single comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.fragments import FragmentId, identifier_order
from repro.db.query import BetweenCondition, ParameterizedPSJQuery
from repro.store.base import FragmentStore
from repro.store.memory import InMemoryStore
from repro.store.mutations import Mutation, RemoveFragment, TouchFragment


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
    """Chain adjacency derived from a store's fragment identifiers."""

    def __init__(self, query: ParameterizedPSJQuery, store: Optional[FragmentStore] = None) -> None:
        self.query = query
        self._store = store if store is not None else InMemoryStore()
        self._equality_positions, self._range_positions = _condition_positions(query)
        self.comparisons = 0
        # (store epoch, group -> members, group -> chain): the groups come
        # from one identifier pass per epoch, and a chain is sorted the
        # first time one of its members is asked about.  Like the
        # searcher's group table, it describes the store as read outside
        # the reader's own write batch.
        self._chains: Tuple[int, Dict[Tuple, List[FragmentId]], Dict[Tuple, Dict]] = (-1, {}, {})

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
        """The graph over ``store``, costed as a build of ``fragment_sizes``.

        Nothing is written: adjacency is derived from the store's fragments.
        ``comparisons`` counts what constructing the chains of
        ``fragment_sizes`` costs.  ``presorted=True`` is the paper's
        optimisation: fragments are sorted by their query-parameter values
        and each one simply extends the end of its group's chain — a single
        comparison per fragment.  ``presorted=False`` is the per-turn
        insertion, which compares each new fragment with every node already
        inserted.
        """
        graph = cls(query, store=store)
        count = len(fragment_sizes)
        graph.comparisons = count if presorted else count * (count - 1) // 2
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
            edge_count=graph._edges_among(fragment_sizes),
            average_keywords=average,
            comparisons=graph.comparisons,
        )
        return graph, report

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

    def _range_order(self, identifier: FragmentId) -> Tuple:
        """The sort key of ``identifier`` along its group's chain.

        :func:`~repro.core.fragments.identifier_order` of the range
        components: it orders like
        :func:`~repro.db.types.compare_values` within one value domain,
        and stays a total order when a group mixes domains.
        """
        return identifier_order(tuple(identifier[position] for position in self._range_positions))

    def chain(self, members: Iterable[FragmentId]) -> Dict[FragmentId, Tuple[FragmentId, ...]]:
        """Each member's neighbours in the chain ``members`` form.

        ``members`` are one equality group's fragments; each maps to the
        members at positions ± 1 in range order, sorted by
        :func:`~repro.core.fragments.identifier_order`.  With no range
        condition every fragment is its own maximal db-page: no neighbours.
        """
        if not self._range_positions:
            return {member: () for member in members}
        ordered = sorted(members, key=self._range_order)
        # Within one group identifier order *is* range order (the equality
        # components are equal), so the lower neighbour is listed first.
        return {
            member: tuple(ordered[max(position - 1, 0) : position])
            + tuple(ordered[position + 1 : position + 2])
            for position, member in enumerate(ordered)
        }

    def neighbor_touches(self, batch: Sequence[Mutation]) -> List[TouchFragment]:
        """Touch ops for the chain neighbours of what ``batch`` adds or removes.

        Adjacency is derived, so inserting a fragment into a chain (or
        removing one) changes its neighbours' adjacency without writing
        them.  A writer appends these ops to the same
        :meth:`~repro.store.FragmentStore.apply_mutations` batch: each
        touch stamps a neighbour's fragment epoch, which is what retires a
        cached answer that expanded it.  For every fragment whose presence
        the batch flips, the touched fragments are its members at positions
        ± 1 among the group's fragments before *or* after the batch — which
        covers every fragment whose neighbours differ between the two.
        Fragments the batch writes anyway are left out (a touch after a
        remove would re-register the fragment).  Read against this graph's
        store, before the batch is applied.
        """
        if not self._range_positions:
            return []
        final: Dict[FragmentId, bool] = {}
        for op in batch:
            final[tuple(op.identifier)] = not isinstance(op, RemoveFragment)
        flipped = [
            identifier
            for identifier, present in final.items()
            if present != self._store.has_fragment(identifier)
        ]
        if not flipped:
            return []
        groups = {self.group_key(identifier) for identifier in flipped}
        members: Dict[Tuple, Set[FragmentId]] = {group: set() for group in groups}
        for identifier in list(self._store.fragment_ids()) + flipped:
            group = self.group_key(identifier)
            if group in members:
                members[group].add(identifier)
        touched: Set[FragmentId] = set()
        for group in members.values():
            adjacency = self.chain(group)
            for identifier in flipped:
                touched.update(adjacency.get(identifier, ()))
        return [
            TouchFragment(identifier)
            for identifier in sorted(touched - final.keys(), key=identifier_order)
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_fragment(self, identifier: FragmentId) -> bool:
        return self._store.has_fragment(tuple(identifier))

    def keyword_count(self, identifier: FragmentId) -> int:
        """The node value of Figure 9: the fragment's size."""
        identifier = tuple(identifier)
        if not self._store.has_fragment(identifier):
            raise FragmentGraphError(f"unknown fragment {identifier!r}")
        return self._store.fragment_size(identifier)

    def _chain_of(self, identifier: FragmentId) -> Dict[FragmentId, Tuple[FragmentId, ...]]:
        """The :meth:`chain` of ``identifier``'s group, memoised per store epoch."""
        epoch, groups, chains = self._chains
        if epoch != self._store.epoch:
            epoch, groups, chains = self._store.epoch, {}, {}
            for member in self._store.fragment_ids():
                groups.setdefault(self.group_key(member), []).append(member)
            self._chains = (epoch, groups, chains)
        group = self.group_key(identifier)
        if group not in chains:
            chains[group] = self.chain(groups.get(group, ()))
        return chains[group]

    def neighbors(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """Fragments directly combinable with ``identifier``."""
        identifier = tuple(identifier)
        try:
            return self._chain_of(identifier)[identifier]
        except KeyError:
            raise FragmentGraphError(f"unknown fragment {identifier!r}") from None

    def are_connected(self, left: FragmentId, right: FragmentId) -> bool:
        if not self.has_fragment(left):
            return False
        return tuple(right) in self.neighbors(left)

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        return self._store.fragment_ids()

    @property
    def fragment_count(self) -> int:
        return self._store.fragment_count()

    @property
    def edge_count(self) -> int:
        """One edge per fragment but the first of each chain."""
        return self._edges_among(self._store.fragment_ids())

    def _edges_among(self, identifiers: Iterable[FragmentId]) -> int:
        if not self._range_positions:
            return 0
        identifiers = list(identifiers)
        return len(identifiers) - len({self.group_key(tuple(member)) for member in identifiers})

    def connected_component(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        """All fragments reachable from ``identifier``: its whole chain."""
        identifier = tuple(identifier)
        chain = self._chain_of(identifier)
        if identifier not in chain:
            raise FragmentGraphError(f"unknown fragment {identifier!r}")
        return tuple(sorted(chain, key=identifier_order))


def _condition_positions(query: ParameterizedPSJQuery) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    equality: List[int] = []
    ranges: List[int] = []
    for position, condition in enumerate(query.conditions):
        if isinstance(condition, BetweenCondition):
            ranges.append(position)
        else:
            equality.append(position)
    return tuple(equality), tuple(ranges)
