"""Db-page fragments (Definition 2) and the reference fragment derivation.

A db-page fragment is the set of joined records sharing one combination of
selection-attribute values::

    pi_{a1..al} sigma_{c1 = v1 and ... cm = vm} (R1 join R2 join ... Rn)

The tuple ``(v1, ..., vm)`` is the fragment's *identifier*.  Every db-page the
application can generate is the disjoint union of some fragments, which is why
Dash collects, indexes and searches fragments instead of pages.

:func:`derive_fragments` is the single-machine reference derivation used by
small examples, tests and the incremental-maintenance extension; the MapReduce
crawlers in :mod:`repro.core.crawler` must produce exactly the same fragments
(a property the test suite checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.db.algebra import group_by
from repro.db.database import Database
from repro.db.query import ParameterizedPSJQuery
from repro.db.relation import Record, Relation
from repro.text.tokenizer import count_keywords, tokenize

#: A fragment identifier: the values of the selection attributes, in condition order.
FragmentId = Tuple[Any, ...]


def identifier_order(identifier: FragmentId) -> Tuple[Tuple[int, Any], ...]:
    """The one total order over fragment identifiers.

    Page members, fragment-graph neighbour lists and the search queue's
    tie-breaks all sort by this key: per component, ``None`` first, then
    numbers by value (``bool`` is an ``int`` — ``True`` orders, and as a dict
    key *is*, ``1``), then everything else by its ``str``.  Numbers compare
    as themselves, not through ``float``, so integers beyond 2**53 stay
    apart.  Over the supported component types (``None``, ``bool``, ``int``,
    non-NaN ``float``, ``str``) two identifiers share a key only when they
    are equal — the same fragment — so a minimum taken under this key does
    not depend on the order its candidates were visited in.
    """
    return tuple(
        (0, "") if component is None
        else (1, component) if isinstance(component, (int, float))
        else (2, str(component))
        for component in identifier
    )


@dataclass
class Fragment:
    """One db-page fragment.

    ``rows`` hold the projected attribute values of every joined record in the
    fragment (in join-output order); ``term_frequencies`` the keyword counts of
    all that text; ``size`` the total number of keyword occurrences (the
    node value shown in the paper's Figure 9).
    """

    identifier: FragmentId
    rows: List[Dict[str, Any]] = field(default_factory=list)
    term_frequencies: Dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Total number of keyword occurrences in the fragment."""
        return sum(self.term_frequencies.values())

    @property
    def record_count(self) -> int:
        return len(self.rows)

    def keywords(self) -> Tuple[str, ...]:
        """The distinct keywords occurring in the fragment."""
        return tuple(sorted(self.term_frequencies))

    def term_frequency(self, keyword: str) -> int:
        return self.term_frequencies.get(keyword.lower(), 0)

    def add_row(self, row: Mapping[str, Any], projected_attributes: Sequence[str]) -> None:
        """Append one joined record's projected values and update keyword counts."""
        projected = {attribute: row.get(attribute) for attribute in projected_attributes}
        self.rows.append(projected)
        for keyword, occurrences in count_keywords(_row_keywords(projected, projected_attributes)).items():
            self.term_frequencies[keyword] = self.term_frequencies.get(keyword, 0) + occurrences

    def text(self) -> str:
        """The fragment content as plain text (one line per record)."""
        lines = []
        for row in self.rows:
            lines.append(" ".join(_render_value(value) for value in row.values() if value is not None))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fragment({self.identifier!r}, records={self.record_count}, size={self.size})"


def _render_value(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _row_keywords(row: Mapping[str, Any], projected_attributes: Sequence[str]) -> List[str]:
    keywords: List[str] = []
    for attribute in projected_attributes:
        value = row.get(attribute)
        if value is None:
            continue
        keywords.extend(tokenize(_render_value(value)))
    return keywords


def derive_fragments(
    query: ParameterizedPSJQuery,
    database: Database,
) -> Dict[FragmentId, Fragment]:
    """Reference derivation of every db-page fragment of ``query`` over ``database``.

    Evaluates the crawling query (join of the operand relations, keeping the
    projection *and* selection attributes), groups the joined records by the
    selection-attribute values and accumulates keyword counts over the
    projection attributes only — matching the paper's Example 3 / Figure 5.
    """
    joined = query.join_operands(database)
    selection_attributes = [
        query.resolve_attribute(joined.schema, attribute) for attribute in query.selection_attributes
    ]
    projected_attributes = list(query.output_attributes(joined.schema))

    fragments: Dict[FragmentId, Fragment] = {}
    for identifier, records in group_by(joined, selection_attributes).items():
        if any(component is None for component in identifier):
            # Records with a NULL selection attribute can never be produced by
            # any query-string binding, so they belong to no db-page.
            continue
        fragment = Fragment(identifier=identifier)
        for record in records:
            fragment.add_row(record.as_dict(), projected_attributes)
        fragments[identifier] = fragment
    return fragments


def fragment_sizes(fragments: Mapping[FragmentId, Fragment]) -> Dict[FragmentId, int]:
    """Identifier → total keyword count, for fragment-graph construction."""
    return {identifier: fragment.size for identifier, fragment in fragments.items()}


def total_keyword_occurrences(fragments: Mapping[FragmentId, Fragment]) -> int:
    """Total keyword occurrences across all fragments."""
    return sum(fragment.size for fragment in fragments.values())


def average_keywords_per_fragment(fragments: Mapping[FragmentId, Fragment]) -> float:
    """The Table IV statistic: average number of keywords per fragment."""
    if not fragments:
        return 0.0
    return total_keyword_occurrences(fragments) / len(fragments)
