"""Incremental fragment-index maintenance under database updates.

Section VIII lists this as future work: "in presence of updates in an
underlying database, a fragment index would become outdated ... it should be
very costly to rebuild the entire fragment index".  This module implements the
natural design the paper sketches — update only the *affected portion* of the
fragment index and the fragment graph — so the repository can benchmark
incremental maintenance against a full rebuild
(``benchmarks/bench_incremental.py``).

The maintenance rule follows from Definition 2: a record insert/delete in any
operand relation can only change fragments whose identifiers appear among the
joined rows that involve the changed record.  The maintainer therefore

1. computes the set of affected fragment identifiers by joining the changed
   record through the query's join chain (restricted to the records that can
   actually reach it),
2. re-derives exactly those fragments from the (already updated) database, and
3. replaces their postings in the inverted fragment index, touching the chain
   neighbours of every fragment that appears or disappears (the fragment
   graph is derived from the identifiers, so this is its whole update).

The maintainer only ever talks to the index/graph facades over one
:class:`~repro.store.FragmentStore`.  The write path is **batched**: one
maintenance round — a single :meth:`IncrementalMaintainer.insert`/``delete``
or a whole burst handed to :meth:`IncrementalMaintainer.apply_updates` —
derives every affected fragment once, coalesces repeated touches to the
same fragment, and emits a single
:meth:`~repro.store.FragmentStore.apply_mutations` batch wrapped in one
:meth:`~repro.store.FragmentStore.write_batch` scope.  On the persistent
backend that makes the whole round one crash-safe sqlite transaction; on
every backend the round finalizes the index exactly once and ticks the
epoch clock once, so serving caches drop precisely the entries the round
could have changed.  Because a fragment's postings and size — and its
whole chain — live on the identifier's owning partition, a cluster routes
the batch per partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import Fragment, FragmentId, derive_fragments
from repro.db.algebra import select
from repro.db.database import Database
from repro.db.query import ParameterizedPSJQuery
from repro.db.relation import Record, Relation
from repro.store.mutations import Mutation, RemoveFragment, replace_op


class IncrementalMaintenanceError(Exception):
    """Raised when an update cannot be applied incrementally."""


@dataclass(frozen=True)
class InsertRecord:
    """One record insertion into an operand relation (a queueable update)."""

    relation: str
    record: Any


@dataclass(frozen=True)
class DeleteRecords:
    """Deletion of every record of ``relation`` matching ``predicate``."""

    relation: str
    predicate: Callable[[Record], bool]


#: What :meth:`IncrementalMaintainer.apply_updates` (and the serving layer's
#: :class:`~repro.serving.MaintenanceService`) accept as one queued update.
DatabaseUpdate = Union[InsertRecord, DeleteRecords]


class IncrementalMaintainer:
    """Keeps a fragment index and fragment graph consistent with the database."""

    def __init__(
        self,
        query: ParameterizedPSJQuery,
        database: Database,
        index: InvertedFragmentIndex,
        graph: FragmentGraph,
    ) -> None:
        if graph.store is not index.store:
            # The graph derives chains from the store the index writes: over
            # any other store its neighbour touches would read stale chains.
            raise IncrementalMaintenanceError("the index and the graph must share one store")
        self.query = query
        self.database = database
        self.index = index
        self.graph = graph
        self.updates_applied = 0
        self.fragments_touched = 0
        #: Store epoch after the last applied update (serving caches compare
        #: their entry stamps against it; see repro.store.epochs).
        self.last_epoch = self.store.epoch

    @property
    def store(self):
        """The storage backend the index and the graph share."""
        return self.index.store

    @property
    def epoch(self) -> int:
        """The store's current mutation epoch.

        Every ``insert``/``delete`` this maintainer applies bumps it (one
        mutation batch ticks the store's :class:`~repro.store.EpochClock`
        once), which is what lets a
        :class:`~repro.serving.SearchService` drop exactly the cached results
        the update could have changed.
        """
        return self.store.epoch

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def insert(self, relation_name: str, record: Any) -> Tuple[FragmentId, ...]:
        """Insert ``record`` into ``relation_name`` and refresh affected fragments."""
        return self.apply_updates([InsertRecord(relation_name, record)])

    def delete(self, relation_name: str, predicate) -> Tuple[FragmentId, ...]:
        """Delete records matching ``predicate`` and refresh affected fragments."""
        return self.apply_updates([DeleteRecords(relation_name, predicate)])

    def apply_updates(self, updates: Sequence[DatabaseUpdate]) -> Tuple[FragmentId, ...]:
        """Apply a whole burst of database updates as **one** maintenance round.

        Every update (:class:`InsertRecord` / :class:`DeleteRecords`) is
        applied to the database in order, accumulating the union of affected
        fragment identifiers; the union is then refreshed once — one
        restricted derivation, one coalesced
        :meth:`~repro.store.FragmentStore.apply_mutations` batch inside a single
        :meth:`~repro.store.FragmentStore.write_batch` scope, and one
        ``finalize``.  A burst that touches the same hot fragment N times
        therefore re-derives and swaps it once, and on ``DiskStore`` the
        whole round is one crash-safe transaction instead of one per
        fragment.  Returns the affected identifiers, sorted by ``str``.
        """
        for update in updates:
            self._require_operand(update.relation)
        affected: Set[FragmentId] = set()
        try:
            for update in updates:
                if isinstance(update, InsertRecord):
                    inserted = self.database.insert(update.relation, update.record)
                    affected.update(self._affected_identifiers(update.relation, inserted))
                else:
                    relation = self.database.relation(update.relation)
                    doomed = [record for record in relation if update.predicate(record)]
                    for record in doomed:
                        affected.update(self._affected_identifiers(update.relation, record))
                    self.database.delete(update.relation, update.predicate)
        except BaseException:
            # A failing update (a predicate that raises, a rejected record)
            # must not strand earlier updates of the burst half-applied: the
            # database already holds them, so refresh their fragments before
            # re-raising — the index stays consistent with whatever the
            # burst actually changed.
            if affected:
                self._refresh(tuple(sorted(affected, key=str)))
                self.last_epoch = self.store.epoch
            raise
        ordered = tuple(sorted(affected, key=str))
        self._refresh(ordered)
        self.updates_applied += len(updates)
        self.last_epoch = self.store.epoch
        return ordered

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_operand(self, relation_name: str) -> None:
        if relation_name not in self.query.operand_relations:
            raise IncrementalMaintenanceError(
                f"relation {relation_name!r} is not an operand of query {self.query.name!r}"
            )

    def _affected_identifiers(self, relation_name: str, record: Record) -> Tuple[FragmentId, ...]:
        """Fragment identifiers of the joined rows that involve ``record``.

        Evaluated by running the query's join chain over a *restricted* view of
        the database in which ``relation_name`` contains only ``record``, then
        keeping only the rows in which the record actually participates (left
        outer joins would otherwise keep every padded left-hand row).
        """
        restricted = _RestrictedDatabase(self.database, {relation_name: [record]})
        joined = self.query.join_operands(restricted)
        selection_attributes = [
            self.query.resolve_attribute(joined.schema, attribute)
            for attribute in self.query.selection_attributes
        ]
        witness_attributes = self._witness_attributes(relation_name, joined.schema)
        identifiers: Set[FragmentId] = set()
        for row in joined:
            if not self._row_involves_record(row, record, witness_attributes):
                continue
            identifier = tuple(row[attribute] for attribute in selection_attributes)
            if any(component is None for component in identifier):
                continue
            identifiers.add(identifier)
        return tuple(sorted(identifiers, key=str))

    def _witness_attributes(self, relation_name: str, joined_schema) -> List[Tuple[str, str]]:
        """``(record_attribute, joined_attribute)`` pairs proving a joined row
        really contains the changed record (its key attributes, mapped to the
        names under which they survive in the joined output)."""
        schema = self.database.relation(relation_name).schema
        key_attributes = schema.primary_key or schema.attribute_names
        replacement: Dict[str, str] = {}
        for join in self.query.joins:
            for left_attr, right_attr in join.on:
                if right_attr != left_attr:
                    replacement[right_attr] = left_attr
        pairs: List[Tuple[str, str]] = []
        for attribute in key_attributes:
            survived = attribute
            seen: Set[str] = set()
            while survived in replacement and survived not in seen:
                seen.add(survived)
                survived = replacement[survived]
            if joined_schema.has_attribute(survived):
                pairs.append((attribute, survived))
        return pairs

    @staticmethod
    def _row_involves_record(row: Record, record: Record, witnesses: List[Tuple[str, str]]) -> bool:
        if not witnesses:
            return True
        for record_attribute, joined_attribute in witnesses:
            if row[joined_attribute] != record[record_attribute]:
                return False
        return True

    def _refresh(self, identifiers: Sequence[FragmentId]) -> None:
        """Re-derive ``identifiers`` from the current database state and swap
        them in as one batched store round.

        The round is atomic end to end: one
        :meth:`~repro.store.FragmentStore.apply_mutations` batch — the
        replaced and removed fragments plus touches of the chain neighbours
        they move (:meth:`~repro.core.fragment_graph.FragmentGraph.neighbor_touches`)
        — inside one :meth:`~repro.store.FragmentStore.write_batch` scope (one
        sqlite transaction on ``DiskStore``), the index finalizes exactly
        once, and the store's epoch clock ticks once for the whole round.
        """
        if not identifiers:
            return
        affected = set(identifiers)
        fragments = self._derive_restricted(affected)
        ordered = sorted(affected, key=str)
        batch: List[Mutation] = []
        for identifier in ordered:
            fragment = fragments.get(identifier)
            if fragment is None or fragment.size == 0 and fragment.record_count == 0:
                # The fragment no longer exists (its last record was deleted).
                batch.append(RemoveFragment(identifier))
            else:
                batch.append(replace_op(identifier, fragment.term_frequencies))
        # Adjacency is derived from the identifiers, so a fragment entering
        # or leaving a chain changes its neighbours without writing them:
        # the batch touches them, which moves their fragment epochs.
        batch.extend(self.graph.neighbor_touches(batch))
        with self.store.write_batch():
            self.index.apply_mutations(batch)
            self.index.finalize()
        self.fragments_touched += len(affected)

    def _derive_restricted(self, identifiers: Set[FragmentId]) -> Dict[FragmentId, Fragment]:
        """Derive only the fragments whose identifiers are in ``identifiers``.

        The operand relation owning each selection attribute is pre-filtered to
        the affected values, so the join only touches the relevant slice of the
        database instead of re-crawling everything.
        """
        allowed_values: Dict[str, Set[Any]] = {}
        for position, attribute in enumerate(self.query.selection_attributes):
            allowed_values[attribute] = {identifier[position] for identifier in identifiers}

        overrides: Dict[str, List[Record]] = {}
        for attribute, values in allowed_values.items():
            owner = self._owner_of(attribute)
            relation = self.database.relation(owner)
            kept = [record for record in relation if record.get(attribute) in values]
            existing = overrides.get(owner)
            if existing is None:
                overrides[owner] = kept
            else:
                kept_keys = {id(record) for record in kept}
                overrides[owner] = [record for record in existing if id(record) in kept_keys]

        restricted = _RestrictedDatabase(self.database, overrides)
        fragments = derive_fragments(self.query, restricted)
        return {identifier: fragments[identifier] for identifier in identifiers if identifier in fragments}

    def _owner_of(self, attribute: str) -> str:
        for relation_name in self.query.operand_relations:
            if self.database.relation(relation_name).schema.has_attribute(attribute):
                return relation_name
        raise IncrementalMaintenanceError(f"attribute {attribute!r} owned by no operand relation")


class _RestrictedDatabase:
    """A read-only database view overriding some relations' record sets."""

    def __init__(self, base: Database, overrides: Mapping[str, Sequence[Record]]) -> None:
        self._base = base
        self._overrides = {
            name: self._as_relation(name, records) for name, records in overrides.items()
        }

    def _as_relation(self, name: str, records: Sequence[Record]) -> Relation:
        relation = Relation(self._base.relation(name).schema)
        for record in records:
            relation.insert(record)
        return relation

    def relation(self, name: str) -> Relation:
        if name in self._overrides:
            return self._overrides[name]
        return self._base.relation(name)

    def has_relation(self, name: str) -> bool:
        return self._base.has_relation(name)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return self._base.relation_names
