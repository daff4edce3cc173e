#!/usr/bin/env python
"""Build-pipeline quickstart: distributed batch build, then attach and serve.

Walks the batch crawl→index pipeline end to end over the paper's running
example plus a synthetic corpus:

1. build the fooddb index **distributed** — ``DashEngine.build_distributed``
   partitions the crawl frontier over map tasks that spool whole
   fragments, and load tasks bulk-load the spools into the store inside
   one write batch — with the per-stage timings from the pipeline report;
2. prove the result is the same index the single-process crawl produces
   (identical ranked answers for a keyword query);
3. run the same pipeline at a larger scale over the seeded
   :class:`~repro.datasets.SyntheticCorpus`, onto disk, and re-attach the
   built sqlite file with ``DashEngine.open`` — the serving path does not
   know (or care) that a pipeline built the file;
4. inject a fault: kill a map worker on its first attempt and watch the
   retry rebuild the exact same index anyway.

Run with:  PYTHONPATH=src python examples/build_pipeline_quickstart.py
"""

import os
import tempfile

from repro.core import DashEngine
from repro.datasets import SyntheticCorpus
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.mapreduce import RetryPolicy, TaskFailure
from repro.webapp import WebApplication
from repro.webapp.request import QueryStringSpec


def make_application(database) -> WebApplication:
    return WebApplication(
        name="Search",
        uri="www.example.com/Search",
        query=fooddb_search_query(database),
        query_string_spec=QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max"))),
    )


def ranked(engine: DashEngine, keywords, k: int = 5):
    return [(result.url, round(result.score, 6))
            for result in engine.search(keywords, k=k)]


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-build-pipeline-")

    # 1. Distributed build over the fooddb crawl frontier.  The pipeline
    #    partitions whole fragments across map tasks, so every load task
    #    hands complete fragments to the store's bulk_load.
    database = build_fooddb()
    application = make_application(database)
    engine = DashEngine.build_distributed(
        application, database, map_tasks=2, num_reduce_tasks=2, workers=2
    )
    report = engine.build_report.pipeline
    print(f"distributed fooddb build: {report.fragments} fragments, "
          f"{report.postings} postings, {report.keywords} keywords")
    print(f"  stages (s): map={report.map_seconds:.3f} "
          f"load={report.load_seconds:.3f} merge={report.merge_seconds:.3f}")

    # 2. Same answers as the classic single-process crawl.
    reference = DashEngine.build(application, database, algorithm="integrated",
                                 analyze_source=False)
    query = ["burger", "thai"]
    assert ranked(engine, query) == ranked(reference, query)
    print(f"\nparity with the single-process crawl on {query}:")
    for url, score in ranked(engine, query, k=3):
        print(f"  {score:.4f}  {url}")

    # 3. Scale up: a seeded synthetic corpus, built onto disk, then
    #    re-attached cold — the pipeline output is a normal store file.
    corpus = SyntheticCorpus(2000, seed=7)
    store_path = os.path.join(workdir, "synthetic.sqlite")
    built = DashEngine.build_distributed(
        application, database, source=corpus,
        map_tasks=4, num_reduce_tasks=4, workers=2,
        store="disk", store_path=store_path, analyze_source=False,
    )
    statistics = built.statistics()
    print(f"\nsynthetic build: {statistics['fragments']} fragments on disk, "
          f"algorithm={statistics['algorithm']!r}")
    built.store.close()

    reopened = DashEngine.open(store_path, application, database)
    print(f"reopened {os.path.basename(store_path)}: "
          f"{reopened.index.fragment_count} fragments, "
          f"top hit for 'burger': {reopened.search(['burger'], k=1)[0].url}")
    reopened.store.close()

    # 4. Fault injection: the first map attempt dies, the retry finishes the
    #    job, and the rebuilt index still matches the reference build.
    state = {"fired": False}

    def kill_first_map_attempt(phase: str, task_index: int, attempt: int) -> None:
        if phase == "map" and not state["fired"]:
            state["fired"] = True
            raise TaskFailure("injected: map worker killed mid-run")

    survivor = DashEngine.build_distributed(
        application, database, map_tasks=2, num_reduce_tasks=2, workers=1,
        retry_policy=RetryPolicy(max_attempts=3,
                                 failure_injector=kill_first_map_attempt),
    )
    retries = survivor.build_report.pipeline.retries
    assert ranked(survivor, query) == ranked(reference, query)
    print(f"\nkilled one map attempt; pipeline retried {retries} and the "
          f"index still matches the reference build")

    print(f"\nartifacts kept in {workdir}")


if __name__ == "__main__":
    main()
