#!/usr/bin/env python
"""Scenario: an e-commerce store exposes its order history through a web form.

This is the paper's evaluation setting (Section VII): the backend is a TPC-H
style database and the application query is Q2 of Table III — a customer /
orders / lineitem join filtered by customer key and quantity range.  The
example runs the whole Dash pipeline at laptop scale:

1. generate the TPC-H-like dataset,
2. synthesise the application's servlet source and statically analyse it,
3. crawl the database with both the stepwise and the integrated algorithms and
   compare their cost (the Figure 10 mechanism),
4. report the fragment graph (Table IV statistics) — its chains are derived
   from the stored fragment identifiers, so there is no graph to build, and
5. run hot / warm / cold keyword searches (the Figure 11 workload) and check
   the suggested URLs against the simulated web server.

Run with:  python examples/tpch_store_search.py
"""

from repro.analysis import ApplicationAnalyzer, make_servlet_source
from repro.bench.harness import calibrated_runtime
from repro.core import DashEngine
from repro.core.crawler import StepwiseCrawler
from repro.datasets.tpch import TPCH_QUERY_SQL, TpchScale, build_tpch
from repro.datasets.workloads import select_keyword_workloads
from repro.webapp import WebServer


def main() -> None:
    # A small-but-not-trivial store (scale the numbers up for a longer run).
    tier = TpchScale("store", customers=60, orders_per_customer=8,
                     lineitems_per_order=4, parts=150, quantity_values=10)
    database = build_tpch(tier)
    print(f"store database: {database.total_records()} records "
          f"({len(database.relation('lineitem'))} lineitems)")

    # The application: an order browser driven by Q2 of Table III.
    source = make_servlet_source(
        "OrderBrowser", [("cust", "r"), ("qmin", "min"), ("qmax", "max")], TPCH_QUERY_SQL["Q2"]
    )
    analyzed = ApplicationAnalyzer(database).analyze(source, name="OrderBrowser")
    application = analyzed.to_web_application("shop.example.com/OrderBrowser", source=source)
    print(f"analysed application query over {analyzed.query.operand_relations}")

    # Crawl with the integrated algorithm (and compare against stepwise).
    engine = DashEngine.build(
        application, database, algorithm="integrated", runtime=calibrated_runtime()
    )
    stepwise = StepwiseCrawler(engine.application.query, database,
                               runtime=calibrated_runtime()).crawl()
    crawl = engine.build_report.crawl
    print("\nDatabase crawling and fragment indexing (simulated 4-node cluster):")
    print(f"  integrated: {crawl.simulated_seconds():8.1f} simulated s   "
          f"stages {dict((k, round(v, 1)) for k, v in crawl.stage_seconds().items())}")
    print(f"  stepwise  : {stepwise.simulated_seconds():8.1f} simulated s   "
          f"stages {dict((k, round(v, 1)) for k, v in stepwise.stage_seconds().items())}")

    print("\nFragment index / graph (Table IV statistics):")
    print(f"  fragments              : {engine.index.fragment_count}")
    print(f"  avg keywords / fragment: {engine.index.average_keywords_per_fragment():.1f}")
    print(f"  graph edges            : {engine.graph.edge_count} "
          "(chains derived from the fragment identifiers)")
    print(f"  pre-sorted comparisons : {engine.build_report.graph.comparisons}")

    # Keyword workloads by document frequency (Section VII-B).
    workloads = select_keyword_workloads(engine.index.document_frequencies(), group_size=5)
    server = WebServer(database, host="shop.example.com")
    server.deploy(engine.application)

    print("\nTop-k searches (k=5, s=100):")
    for temperature in ("hot", "warm", "cold"):
        keywords = list(workloads[temperature])[:2]
        for keyword in keywords:
            results = engine.search([keyword], k=5, size_threshold=100)
            verified = 0
            for result in results:
                if server.get(result.url).contains_keyword(keyword):
                    verified += 1
            timing = engine.searcher.last_statistics.elapsed_seconds * 1000
            print(f"  [{temperature:4s}] {keyword!r:18s}: {len(results)} db-pages in "
                  f"{timing:6.2f} ms, {verified}/{len(results)} URLs verified")


if __name__ == "__main__":
    main()
