#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the ``fooddb`` database (Figure 2), statically analyses the ``Search``
servlet (Figure 3) to recover its parameterized PSJ query and query-string
mapping, crawls the database into db-page fragments with the integrated
MapReduce algorithm, and answers the keyword search of Example 7 — then
dereferences the suggested URLs against a simulated web server to show that
they really generate db-pages containing the keyword.

Run with:  python examples/quickstart.py
"""

import os
import tempfile

from repro.analysis import ApplicationAnalyzer
from repro.core import DashEngine
from repro.datasets.fooddb import FOODDB_SEARCH_SERVLET_SOURCE, build_fooddb
from repro.webapp import WebServer


def main() -> None:
    # 1. The backend database and the web application's servlet source.
    database = build_fooddb()
    print(f"fooddb: {database.total_records()} records in {list(database.relation_names)}")

    # 2. Web application analysis (Section III): recover the parameterized
    #    query and the reverse query-string parsing logic from the source.
    analyzer = ApplicationAnalyzer(database)
    analyzed = analyzer.analyze(FOODDB_SEARCH_SERVLET_SOURCE, name="Search")
    print("\nRecovered application query:")
    print(f"  {analyzed.symbolic_sql}")
    print(f"  query-string fields: {dict(analyzed.query_string_spec.fields)}")

    application = analyzed.to_web_application(
        "www.example.com/Search", source=FOODDB_SEARCH_SERVLET_SOURCE
    )

    # 3. Database crawling + fragment indexing + fragment graph (Sections IV-VI).
    engine = DashEngine.build(application, database, algorithm="integrated")
    stats = engine.statistics()
    print("\nDash engine built:")
    print(f"  db-page fragments : {stats['fragments']}")
    print(f"  vocabulary        : {stats['vocabulary']} keywords")
    print(f"  fragment graph    : {stats['graph_edges']} edges")
    print(f"  fragment sizes    : {sorted(engine.index.fragment_sizes.items(), key=str)}")

    # 4. Top-k db-page search (Example 7: keyword 'burger', k=2, s=20).
    results = engine.search(["burger"], k=2, size_threshold=20)
    print("\nTop-2 db-pages for keyword 'burger' (s=20):")
    for rank, result in enumerate(results, start=1):
        print(f"  {rank}. {result.url}")
        print(f"     score={result.score:.4f}  fragments={result.fragments}  size={result.size}")

    # 5. Validate the suggested URLs against a live (simulated) web server.
    server = WebServer(database, host="www.example.com")
    server.deploy(application)
    print("\nDereferencing the suggested URLs:")
    for result in results:
        page = server.get(result.url)
        marker = "contains 'burger'" if page.contains_keyword("burger") else "MISSING KEYWORD"
        print(f"  {result.url} -> {page.record_count} result rows, {marker}")

    # 6. The serving store is pluggable: the same engine over the persistent
    #    sqlite backend returns exactly the same ranked URLs — `store=` (and
    #    where the file lives) is the only change.
    with tempfile.TemporaryDirectory(prefix="repro-quickstart-") as directory:
        disk_engine = DashEngine.build(
            application,
            database,
            algorithm="integrated",
            store="disk",
            store_path=os.path.join(directory, "fooddb.sqlite"),
        )
        disk_results = disk_engine.search(["burger"], k=2, size_threshold=20)
        print(f"\nSame search on {disk_engine.statistics()['store_backend']}:")
        for rank, result in enumerate(disk_results, start=1):
            print(f"  {rank}. {result.url}  score={result.score:.4f}")
        assert [r.url for r in disk_results] == [r.url for r in results]
        disk_engine.store.close()


if __name__ == "__main__":
    main()
