"""An independent oracle for the top-k search: Algorithm 1, transcribed.

``TopKSearcher`` carries page state between dequeues and prunes expansion
candidates on an admissible bound; a test that compares the searcher with
itself cannot catch a mistake in either.  This module shares neither: every
seed is scored up front, every expansion candidate re-scores the whole
assembled page with the reference :meth:`DashScorer.score`, and page members
and candidates are re-derived from nothing at every dequeue.  Adjacency is
derived here too, from the paper's definition (Section VI-A): the fragments
of one equality group sorted by their range values form a path.  The only
things taken from the product are the definitions both sides must agree on —
the reference scorer, the equality group of a fragment, and the identifier
order that the queue's content-derived tie-breaks
(:data:`repro.core.search.QueueEntry`) are made of.
"""

import heapq

from repro.core.fragments import identifier_order
from repro.core.scoring import DashScorer
from repro.db.query import BetweenCondition


def chain_neighbors(index, graph):
    """Every stored fragment's neighbours: positions ± 1 of its equality
    group sorted by range value (none without a range condition)."""
    ranges = [
        position
        for position, condition in enumerate(graph.query.conditions)
        if isinstance(condition, BetweenCondition)
    ]
    groups = {}
    for identifier in index.store.fragment_ids():
        groups.setdefault(graph.group_key(identifier), []).append(identifier)
    neighbors = {}
    for members in groups.values():
        members.sort(key=lambda member: identifier_order(tuple(member[at] for at in ranges)))
        for position, member in enumerate(members):
            adjacent = members[max(position - 1, 0) : position] + members[position + 1 : position + 2]
            neighbors[member] = tuple(adjacent) if ranges else ()
    return neighbors


def oracle_search(index, graph, keywords, k, size_threshold):
    """Run Algorithm 1; return ``(results, dependencies)``.

    ``results`` are ``(fragments, score, size)`` tuples in ranked order;
    ``dependencies`` is every fragment the run read — all seeds, and every
    candidate of every dequeued page that was still below ``size_threshold``.
    """
    canonical = tuple(dict.fromkeys(str(keyword).lower() for keyword in keywords))
    scorer = DashScorer(index, canonical)
    adjacency = chain_neighbors(index, graph)

    def page_of(fragments):
        return tuple(sorted(fragments, key=identifier_order))

    seeds = scorer.relevant_fragments()
    consulted = set(seeds)
    queue = [
        (-scorer.score((seed,)), (0, identifier_order(seed)), (seed,)) for seed in seeds
    ]
    heapq.heapify(queue)
    consumed = set()
    emitted = []
    while queue and len(emitted) < k:
        negative_score, _tie, fragments = heapq.heappop(queue)
        if len(fragments) == 1 and fragments[0] in consumed:
            continue  # absorbed into an expanded page: the paper removes it
        size = scorer.page_size(fragments)
        candidates = []
        if size < size_threshold:
            candidates = list(
                dict.fromkeys(
                    neighbor
                    for member in fragments
                    for neighbor in adjacency[member]
                    if neighbor not in fragments
                )
            )
        if not candidates:
            emitted.append((fragments, -negative_score, size))
            continue
        consulted.update(candidates)

        def preference(candidate):
            return (
                0 if scorer.fragment_is_relevant(candidate) else 1,
                -scorer.score(page_of(fragments + (candidate,))),
                identifier_order(candidate),
            )

        best = min(candidates, key=preference)
        consumed.add(best)
        expanded = page_of(fragments + (best,))
        tie = (1, tuple(identifier_order(member) for member in expanded))
        heapq.heappush(queue, (-scorer.score(expanded), tie, expanded))
    # Emission is best-first but not score-monotone (an expansion can lift a
    # pending page above an emitted result); a stable sort restores the rank.
    emitted.sort(key=lambda result: -result[1])
    return emitted, frozenset(consulted)
