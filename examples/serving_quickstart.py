#!/usr/bin/env python
"""Serving quickstart: build an engine, serve concurrent queries, apply an
update, observe epoch-based invalidation.

Walks the serving layer end to end over the paper's running example:

1. build a Dash engine over fooddb;
2. wrap it in a ``SearchService`` (``engine.serving(...)``) — query admission,
   versioned LRU result cache, thread-pooled batches;
3. serve a concurrent batch and show cold-vs-hot latencies;
4. deploy the ``SearchGateway`` on the simulated web server next to the
   ``Search`` application, so one host answers keyword queries *and* serves
   the suggested db-pages;
5. apply a database update through the ``IncrementalMaintainer`` and watch
   the cache drop exactly the queries the update touched.

Run with:  PYTHONPATH=src python examples/serving_quickstart.py
"""

from repro.core import DashEngine, IncrementalMaintainer
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.serving import SearchGateway
from repro.webapp import WebApplication, WebServer
from repro.webapp.request import QueryStringSpec


def main() -> None:
    # 1. Engine over fooddb.
    database = build_fooddb()
    application = WebApplication(
        name="Search",
        uri="www.example.com/Search",
        query=fooddb_search_query(database),
        query_string_spec=QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max"))),
    )
    engine = DashEngine.build(application, database)
    print(f"engine built: {engine.index.fragment_count} fragments, "
          f"store epoch {engine.store.epoch}")

    # 2. The serving layer: admission + versioned cache + worker pool.
    service = engine.serving(cache_size=256, workers=4, default_k=3, default_size_threshold=20)

    # 3. A concurrent batch, twice: the second pass is served from cache.
    batch = ["burger", "thai burger", "coffee", "noodle"]
    cold = service.search_many(batch)
    hot = service.search_many(batch)
    print("\ncold vs hot (same batch):")
    for request, cold_result, hot_result in zip(batch, cold, hot):
        print(f"  {request!r:16} cold {cold_result.elapsed_seconds * 1000:7.3f} ms   "
              f"hot {hot_result.elapsed_seconds * 1000:7.3f} ms  cached={hot_result.cached}")

    # 4. One host serves the search endpoint and the db-pages it points at.
    server = WebServer(database, host="www.example.com")
    server.deploy(application)
    server.deploy(SearchGateway(service))
    page = server.get("www.example.com/dbsearch?q=burger&k=2")
    print("\nGET www.example.com/dbsearch?q=burger&k=2")
    for line in page.text.splitlines():
        print(f"  {line}")
    best_url = page.text.splitlines()[0].split()[1]
    db_page = server.get(best_url)
    print(f"  dereferenced #1 -> {db_page.record_count} rows, "
          f"contains 'burger': {db_page.contains_keyword('burger')}")

    # 5. A database update invalidates exactly what it touched.
    maintainer = IncrementalMaintainer(engine.application.query, database,
                                       engine.index, engine.graph)
    cached_before = service.search("milkshake")
    print(f"\n'milkshake' before update: {len(cached_before.results)} results "
          f"(epoch {cached_before.epoch})")
    affected = maintainer.insert("comment", ("901", "001", "120", "Great milkshake", "07/12"))
    print(f"inserted a comment; affected fragments {affected}, epoch -> {maintainer.epoch}")

    refreshed = service.search("milkshake")
    print(f"'milkshake' after update : {len(refreshed.results)} results, "
          f"served from cache: {refreshed.cached}")
    for result in refreshed.results:
        print(f"  {result.url}  score={result.score:.4f}")
    # "coffee" lives on the updated (American, 10) fragment, so it would be
    # (correctly) dropped too; "noodle" only touches the Thai chain.
    untouched = service.search("noodle")
    print(f"'noodle' (untouched)     : served from cache: {untouched.cached}")

    statistics = service.statistics()
    print(f"\nservice statistics: {statistics['queries']} queries, "
          f"{statistics['cache']['hits']} hits, "
          f"{statistics['cache']['stale_drops']} stale drops, "
          f"{statistics['computed']} computed")
    service.close()


if __name__ == "__main__":
    main()
