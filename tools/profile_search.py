"""cProfile harness for the top-k search read path.

Builds the synthetic fooddb-shaped corpus the store benchmarks use, runs a
mixed single-/multi-keyword query loop against the chosen backend, and
prints the top cumulative hot spots — the quickest way to see where a
backend's search time actually goes (seed scoring, size reads, neighbour
lookups, ...) before and after a change.

Usage::

    PYTHONPATH=src python tools/profile_search.py --backend disk --fragments 6000
    PYTHONPATH=src python tools/profile_search.py --backend memory --top 30
    PYTHONPATH=src python tools/profile_search.py --backend memory --output profile.txt
    PYTHONPATH=src python tools/profile_search.py --compare memory,disk
    PYTHONPATH=src python tools/profile_search.py --cluster nodes=4,replicas=2
    PYTHONPATH=src python tools/profile_search.py --backend memory --sort tottime

``--sort`` picks the pstats ordering (``cumulative``, the default, or
``tottime`` — self time, which is what names a hot loop body).  Every report
ends with ``dequeues=<n> us_per_dequeue=<x> groups=<n> pruned=<m>``: the same
query loop timed once more with the profiler *off*, divided by the
priority-queue dequeues it performed — the unit cost of Algorithm 1's
expand-and-requeue step, readable without a pstats table — and how many of
the equality groups holding a seed the loop never had to open.

``--backend`` accepts ``seed`` (the pre-store baseline searcher), ``memory``
and ``disk``.  ``--compare a,b,...`` profiles every listed backend in one
run, so their hot spots can be read side by side.
``--cluster nodes=N,replicas=R`` profiles the
:class:`~repro.cluster.QueryRouter` hot paths (term-stats cache lookups,
bound-aware pruning, sentinel merge) with the same corpus and query mix as
the single-store backends — the warm-up pass fills the term-stats cache, so
the profile shows the one-fan-out-round steady state.  Referenced from
docs/benchmarks.md; CI runs it on the smoke corpus and uploads the output
as an artifact.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from bench_store_backends import (  # noqa: E402  (path set up above)
    K,
    QUERY,
    SIZE_THRESHOLDS,
    SPEC,
    URI,
    build_backend,
    keyword_workload,
    searcher_for,
    synthetic_fragments,
)


def _seeded_groups(index, graph, queries) -> int:
    """Equality groups holding a seed, summed over ``queries``."""
    from repro.core.scoring import DashScorer

    return sum(len(DashScorer(index, query).group_totals(graph.group_key)) for query in queries)


def _profile(run_passes, lifetime_statistics, sort: str, top: int, groups: int) -> str:
    """Profile ``run_passes()``, then time it unprofiled; pstats table + unit-cost line.

    ``lifetime_statistics`` is the searcher's (or router's) running-totals
    accessor, ``None`` for the seed replica, which counts nothing; ``groups``
    is how many group tokens one ``run_passes()`` opens its streams with.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    run_passes()
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(top)
    if lifetime_statistics is None:
        return buffer.getvalue()
    before = lifetime_statistics()
    started = time.perf_counter()
    run_passes()
    elapsed = time.perf_counter() - started
    after = lifetime_statistics()
    dequeues = int(after["dequeues"] - before["dequeues"])
    pruned = int(after["groups_pruned"] - before["groups_pruned"])
    return buffer.getvalue() + (
        f"dequeues={dequeues} us_per_dequeue={elapsed * 1e6 / max(1, dequeues):.2f} "
        f"groups={groups} pruned={pruned}\n"
    )


def profile_backend(
    backend: str,
    fragments: int,
    repeats: int,
    top: int,
    sort: str = "cumulative",
) -> str:
    """Profile ``repeats`` passes of the standard query mix; returns the report."""
    corpus = synthetic_fragments(fragments)
    searcher = searcher_for(backend, corpus)
    workload = keyword_workload(searcher.index)
    queries = [[keyword] for keyword in workload.values()]
    queries.append(list(workload.values()))  # one multi-keyword query
    for keywords in queries:  # warm caches so the profile shows the steady state
        searcher.search(keywords, k=K, size_threshold=SIZE_THRESHOLDS[0])

    def run_passes() -> None:
        for _ in range(repeats):
            for keywords in queries:
                for size_threshold in SIZE_THRESHOLDS:
                    searcher.search(keywords, k=K, size_threshold=size_threshold)

    statistics = getattr(searcher, "lifetime_statistics", None)
    groups = 0
    if statistics is not None:
        per_pass = _seeded_groups(searcher.index, searcher.graph, queries)
        groups = repeats * len(SIZE_THRESHOLDS) * per_pass
    table = _profile(run_passes, statistics, sort, top, groups)

    store = getattr(getattr(searcher, "index", None), "store", None)
    if store is not None:
        store.close()  # release the disk backend's connections / read pool

    header = (
        f"backend={backend} fragments={fragments} repeats={repeats} "
        f"queries/pass={len(queries) * len(SIZE_THRESHOLDS)}\n"
    )
    try:
        search_statistics = searcher.last_statistics
        header += (
            f"last search: seeds={search_statistics.seed_fragments} "
            f"scored={search_statistics.seeds_scored} "
            f"pruned_expansions={search_statistics.pruned_expansions}\n"
        )
    except AttributeError:
        pass  # the seed replica carries no statistics
    return header + table


def profile_cluster(
    spec: str, fragments: int, repeats: int, top: int, sort: str = "cumulative"
) -> str:
    """Profile the routed (cluster) read path with a warm term-stats cache.

    ``spec`` is ``nodes=N,replicas=R`` (both optional, defaults 4 and 1).
    The warm-up pass both exercises the cold DF scatter and fills the
    epoch-validated term-stats cache, so the profiled loop is the
    steady-state single-fan-out-round path the router serves hot traffic
    with.
    """
    from repro.cluster import SearchCluster
    from repro.store import InMemoryStore

    options = dict(
        part.split("=", 1) for part in spec.split(",") if part.strip()
    )
    nodes = int(options.get("nodes", "4"))
    replicas = int(options.get("replicas", "1"))
    corpus = synthetic_fragments(fragments)
    source_store = InMemoryStore()
    index, graph = build_backend(corpus, source_store)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store, nodes=nodes, replicas=replicas
    )
    router = cluster.router
    workload = keyword_workload(index)
    queries = [[keyword] for keyword in workload.values()]
    queries.append(list(workload.values()))  # one multi-keyword query
    for keywords in queries:  # warm the term-stats cache (and page caches)
        router.search(keywords, k=K, size_threshold=SIZE_THRESHOLDS[0])

    def run_passes() -> None:
        for _ in range(repeats):
            for keywords in queries:
                for size_threshold in SIZE_THRESHOLDS:
                    router.search(keywords, k=K, size_threshold=size_threshold)

    groups = repeats * len(SIZE_THRESHOLDS) * _seeded_groups(index, graph, queries)
    table = _profile(run_passes, router.lifetime_statistics, sort, top, groups)

    lifetime = router.lifetime_statistics()
    cache = router.term_stats.statistics()
    cluster.close()
    source_store.close()

    header = (
        f"cluster nodes={nodes} replicas={replicas} fragments={fragments} "
        f"repeats={repeats} queries/pass={len(queries) * len(SIZE_THRESHOLDS)}\n"
        f"lifetime: searches={lifetime['searches']:.0f} "
        f"fanout_submits={lifetime['fanout_submits']:.0f} "
        f"df_cache_hits={lifetime['df_cache_hits']:.0f} "
        f"df_cache_misses={lifetime['df_cache_misses']:.0f} "
        f"partitions_pruned={lifetime['partitions_pruned']:.0f} "
        f"discard_ratio={lifetime['discard_ratio']:.2f}\n"
        f"term-stats cache: hits={cache['hits']} misses={cache['misses']} "
        f"entries={cache['entries']}\n"
    )
    return header + table


def main(argv=None) -> int:
    """Parse arguments, profile one backend, print (or write) the report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        default="disk",
        help="seed | memory | disk (default: disk)",
    )
    parser.add_argument("--fragments", type=int, default=6000, help="corpus size (default 6000)")
    parser.add_argument("--repeats", type=int, default=5, help="query-mix passes (default 5)")
    parser.add_argument("--top", type=int, default=20, help="hot spots to print (default 20)")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime"),
        help="pstats ordering: cumulative (default) or tottime (self time)",
    )
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BACKENDS",
        help="comma-separated backends, each profiled in a single run "
        "(overrides --backend)",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="SPEC",
        help="profile the routed cluster read path instead, e.g. "
        "nodes=4,replicas=2 (overrides --backend/--compare)",
    )
    arguments = parser.parse_args(argv)

    if arguments.cluster:
        report = profile_cluster(
            arguments.cluster,
            arguments.fragments,
            arguments.repeats,
            arguments.top,
            sort=arguments.sort,
        )
    elif arguments.compare:
        sections = []
        for backend in [name.strip() for name in arguments.compare.split(",") if name.strip()]:
            sections.append(
                profile_backend(
                    backend,
                    arguments.fragments,
                    arguments.repeats,
                    arguments.top,
                    sort=arguments.sort,
                )
            )
        report = ("=" * 78 + "\n").join(sections)
    else:
        report = profile_backend(
            arguments.backend,
            arguments.fragments,
            arguments.repeats,
            arguments.top,
            sort=arguments.sort,
        )
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {arguments.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
