"""The Dash engine facade (Figure 4).

Wires the whole pipeline together for one web application over one database:

1. **Web application analysis** — recover the parameterized PSJ query and the
   reverse query-string parsing logic from the application source (skipped
   when the caller already has a fully-specified :class:`WebApplication`).
2. **Database crawling + fragment indexing** — run the stepwise or the
   integrated MapReduce workflow to build the inverted fragment index,
   loading the consolidated posting lists straight into the configured
   :class:`~repro.store.FragmentStore` backend.
3. **Fragment graph** — the combinability graph, derived from the fragment
   identifiers in the same store (nothing is built or stored).
4. **Top-k search** — answer keyword queries with db-page URLs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.analyzer import AnalyzedApplication, ApplicationAnalyzer
from repro.core.crawler import (
    CrawlResult,
    IntegratedCrawler,
    PartitionedCrawlFrontier,
    StepwiseCrawler,
)
from repro.core.fragment_graph import FragmentGraph, GraphBuildReport
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import SearchResult, TopKSearcher
from repro.core.urls import UrlFormulator
from repro.db.database import Database
from repro.mapreduce.runtime import MapReduceRuntime, RetryPolicy
from repro.store import FragmentStore, StoreSpec, resolve_store
from repro.webapp.application import WebApplication

if TYPE_CHECKING:  # runtime import would be circular through repro.core
    from repro.build.pipeline import BuildReport
    from repro.cluster.router import ClusterSearchService, NodeStoreSpec
    from repro.faults.plane import FaultPlane
    from repro.serving.service import SearchService


class DashEngineError(Exception):
    """Raised for invalid engine configuration."""


_CRAWLERS = {
    "stepwise": StepwiseCrawler,
    "integrated": IntegratedCrawler,
}


def _close_store(store: FragmentStore) -> None:
    """Close a backend if it holds external resources (DiskStore does)."""
    close = getattr(store, "close", None)
    if close is not None:
        close()


@dataclass
class DashBuildReport:
    """Everything measured while building an engine (used by benchmarks).

    Exactly one of ``crawl`` (a :meth:`DashEngine.build` MapReduce crawl) and
    ``pipeline`` (a :meth:`DashEngine.build_distributed` batch build) is set.
    """

    graph: GraphBuildReport
    crawl: Optional[CrawlResult] = None
    analyzed: Optional[AnalyzedApplication] = None
    pipeline: Optional["BuildReport"] = None


class DashEngine:
    """A built, searchable Dash instance for one web application.

    Construct one with :meth:`build` (analyse + crawl + index into the
    configured store) or :meth:`open` (re-attach to a persistent store a
    previous process built — no crawl).  ``build_report`` is ``None`` for
    reopened engines: nothing was measured because nothing was built.
    """

    def __init__(
        self,
        application: WebApplication,
        database: Database,
        index: InvertedFragmentIndex,
        graph: FragmentGraph,
        build_report: Optional[DashBuildReport],
    ) -> None:
        self.application = application
        self.database = database
        self.index = index
        self.graph = graph
        self.build_report = build_report
        self._searcher = TopKSearcher(
            index=index,
            graph=graph,
            url_formulator=UrlFormulator(
                query=application.query,
                query_string_spec=application.query_string_spec,
                application_uri=application.uri,
            ),
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        application: WebApplication,
        database: Database,
        algorithm: str = "integrated",
        runtime: Optional[MapReduceRuntime] = None,
        analyze_source: bool = True,
        num_reduce_tasks: int = 4,
        store: StoreSpec = None,
        store_path: Optional[str] = None,
    ) -> "DashEngine":
        """Analyse, crawl, index and wire up a searchable engine.

        ``algorithm`` selects the crawling workflow (``"integrated"`` — the
        paper's recommendation — or ``"stepwise"``).  When ``analyze_source``
        is true and the application carries servlet source, the application's
        query and query-string mapping are recovered from the source through
        :class:`~repro.analysis.analyzer.ApplicationAnalyzer` (the path Dash
        itself takes); otherwise the application's declared query is trusted.

        ``store`` selects the serving backend (see
        :func:`repro.store.resolve_store`): ``"memory"`` (default) or
        ``"disk"`` together with ``store_path=`` for a persistent sqlite
        store a later process can re-attach to with :meth:`open` — no
        re-crawl.  The crawl output, the fragment graph (derived from the
        stored fragments, never written) and the searcher all share the
        resolved store.  A store is one partition; to split the
        built corpus N ways, call :meth:`cluster`.
        """
        if algorithm not in _CRAWLERS:
            raise DashEngineError(
                f"unknown crawling algorithm {algorithm!r}; expected one of {sorted(_CRAWLERS)}"
            )
        try:
            fragment_store = resolve_store(store, path=store_path)
        except Exception as error:
            raise DashEngineError(str(error)) from error
        if fragment_store.fragment_count():
            # Loading a second crawl into a populated store would duplicate
            # postings and corrupt every TF denominator before anything fails.
            if not isinstance(store, FragmentStore):
                # We resolved (and for "disk", opened) this backend ourselves;
                # don't hold its file open past the rejection.  A caller-owned
                # instance stays the caller's to manage.
                _close_store(fragment_store)
            raise DashEngineError(
                "the configured store already holds fragments; build each engine "
                "over a fresh FragmentStore"
            )

        effective_application, analyzed = cls._effective_application(
            application, database, analyze_source
        )

        crawler_cls = _CRAWLERS[algorithm]
        crawler = crawler_cls(
            query=effective_application.query,
            database=database,
            runtime=runtime,
            num_reduce_tasks=num_reduce_tasks,
            store=fragment_store,
        )
        crawl_result = crawler.crawl()

        graph, graph_report = FragmentGraph.build_with_report(
            effective_application.query,
            crawl_result.index.fragment_sizes,
            store=fragment_store,
        )
        report = DashBuildReport(crawl=crawl_result, graph=graph_report, analyzed=analyzed)
        return cls(
            application=effective_application,
            database=database,
            index=crawl_result.index,
            graph=graph,
            build_report=report,
        )

    @classmethod
    def build_distributed(
        cls,
        application: WebApplication,
        database: Database,
        source: Any = None,
        map_tasks: int = 4,
        num_reduce_tasks: int = 4,
        workers: int = 2,
        workdir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        analyze_source: bool = True,
        store: StoreSpec = None,
        store_path: Optional[str] = None,
    ) -> "DashEngine":
        """Build a searchable engine through the distributed batch pipeline.

        The batch-scale sibling of :meth:`build`: instead of running the
        MapReduce crawl simulation, the corpus is split into ``map_tasks``
        partitioned crawl jobs and driven through
        :class:`~repro.build.BuildPipeline` — map tasks (on up to
        ``workers`` threads) spool whole fragments, and ``num_reduce_tasks``
        load tasks bulk-load the spools into the serving store inside one
        write batch.  The resulting store, index, graph and
        searcher are byte-identical to :meth:`build`'s, so everything
        downstream — :meth:`serving`, :meth:`cluster`, a later
        :meth:`open` — attaches unchanged.

        ``source`` is any object with the ``partitions(count)`` streaming
        protocol; it defaults to a
        :class:`~repro.core.crawler.PartitionedCrawlFrontier` over the
        application's (possibly source-recovered) query.  ``retry_policy``
        governs worker-failure retries (and carries the test suite's fault
        injector); ``workdir`` pins the spool directory (a temporary
        directory otherwise).  Store selection (``store``/``store_path``)
        matches :meth:`build`.
        """
        # Imported here: repro.build programs against repro.core and the
        # stores, so a module-level import would be circular.
        from repro.build.pipeline import BuildPipeline

        try:
            fragment_store = resolve_store(store, path=store_path)
        except Exception as error:
            raise DashEngineError(str(error)) from error
        if fragment_store.fragment_count():
            if not isinstance(store, FragmentStore):
                _close_store(fragment_store)
            raise DashEngineError(
                "the configured store already holds fragments; build each engine "
                "over a fresh FragmentStore"
            )

        effective_application, analyzed = cls._effective_application(
            application, database, analyze_source
        )
        if source is None:
            source = PartitionedCrawlFrontier(effective_application.query, database)

        pipeline = BuildPipeline(
            source,
            map_tasks=map_tasks,
            reduce_tasks=num_reduce_tasks,
            workers=workers,
            workdir=workdir,
            retry_policy=retry_policy,
        )
        pipeline_report = pipeline.run(fragment_store)

        index = InvertedFragmentIndex(store=fragment_store)
        graph, graph_report = FragmentGraph.build_with_report(
            effective_application.query,
            index.fragment_sizes,
            store=fragment_store,
        )
        report = DashBuildReport(
            graph=graph_report, analyzed=analyzed, pipeline=pipeline_report
        )
        return cls(
            application=effective_application,
            database=database,
            index=index,
            graph=graph,
            build_report=report,
        )

    @classmethod
    def open(
        cls,
        path: str,
        application: WebApplication,
        database: Database,
        analyze_source: bool = True,
        read_only: bool = False,
        exclusive_writer: bool = False,
    ) -> "DashEngine":
        """Re-attach to a persistent store a previous process built.

        Opens the :class:`~repro.store.DiskStore` at ``path`` (raising
        :class:`DashEngineError` when no store exists there — a typo'd path
        must not masquerade as an empty dataset) and wires the index, graph
        and searcher facades straight onto it: **no crawl runs**.  The store's
        epoch clock was persisted with the data, so a serving layer stacked on
        the reopened engine invalidates exactly like one that never restarted.

        ``application``/``database`` supply what the store does not hold —
        the PSJ query and query-string mapping that drive graph adjacency
        interpretation and result-URL formulation, and the live database
        future :class:`~repro.core.incremental.IncrementalMaintainer` runs
        consult.  ``analyze_source`` recovers them from servlet source
        exactly as :meth:`build` does.

        ``read_only``/``exclusive_writer`` select the store's multi-process
        role (see :class:`~repro.store.DiskStore`): several processes can
        open one file read-only and serve WAL snapshot reads while a single
        ``exclusive_writer`` process owns every mutation.
        """
        # Imported here: the store package is imported by repro.core modules,
        # and DiskStore lives behind the same resolution seam build() uses.
        from repro.store.disk import DiskStore

        try:
            fragment_store = DiskStore(
                path,
                create=False,
                read_only=read_only,
                exclusive_writer=exclusive_writer,
            )
        except Exception as error:
            raise DashEngineError(str(error)) from error
        if not fragment_store.fragment_count():
            fragment_store.close()  # don't hold the rejected file open
            raise DashEngineError(
                f"the disk store at {path!r} holds no fragments; build an engine "
                "over it first (DashEngine.build(..., store='disk', store_path=...))"
            )
        try:
            effective_application, _analyzed = cls._effective_application(
                application, database, analyze_source
            )
        except BaseException:
            fragment_store.close()
            raise
        index = InvertedFragmentIndex(store=fragment_store)
        graph = FragmentGraph(effective_application.query, store=fragment_store)
        return cls(
            application=effective_application,
            database=database,
            index=index,
            graph=graph,
            build_report=None,
        )

    @staticmethod
    def _effective_application(
        application: WebApplication, database: Database, analyze_source: bool
    ) -> Tuple[WebApplication, Optional[AnalyzedApplication]]:
        """The application with its query recovered from source when possible."""
        if not (analyze_source and application.source):
            return application, None
        analyzer = ApplicationAnalyzer(database)
        analyzed = analyzer.analyze(application.source, name=application.name)
        return (
            WebApplication(
                name=application.name,
                uri=application.uri,
                query=analyzed.query,
                query_string_spec=analyzed.query_string_spec,
                source=application.source,
            ),
            analyzed,
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        keywords: Iterable[str],
        k: int = 10,
        size_threshold: int = 100,
    ) -> List[SearchResult]:
        """Top-``k`` db-page URLs for ``keywords`` (Algorithm 1)."""
        return self._searcher.search(keywords, k=k, size_threshold=size_threshold)

    def serving(
        self,
        cache_size: int = 1024,
        workers: int = 4,
        default_k: int = 10,
        default_size_threshold: int = 100,
        max_dependencies: int = 4096,
        maintenance: bool = False,
        maintenance_batch: int = 64,
        maintenance_delay_seconds: float = 0.005,
        strict_freshness: bool = False,
    ) -> "SearchService":
        """The blessed serving entry point: a cached, concurrent SearchService.

        Wraps this engine's searcher (and with it the searcher's
        epoch-invalidated scorer cache) in a :class:`~repro.serving.SearchService`: query admission, a
        versioned LRU result cache, and a thread pool for ``search_many``.

        ``maintenance=True`` additionally wires the write path: an
        :class:`~repro.core.incremental.IncrementalMaintainer` over this
        engine's database/index/graph, wrapped in a
        :class:`~repro.serving.MaintenanceService` (exposed as the returned
        service's ``.maintenance``) whose dedicated writer thread queues,
        coalesces and applies mutation batches — each batch atomic with
        respect to this service's search computations.
        ``maintenance_batch``/``maintenance_delay_seconds`` tune its
        coalescing; ``strict_freshness`` is the multi-process reader knob
        (see :class:`~repro.serving.SearchService`).
        """
        # Imported here: repro.serving programs against repro.core, so a
        # module-level import would be circular through repro.core.__init__.
        from repro.serving.service import SearchService

        service = SearchService(
            self._searcher,
            cache_size=cache_size,
            workers=workers,
            default_k=default_k,
            default_size_threshold=default_size_threshold,
            max_dependencies=max_dependencies,
            strict_freshness=strict_freshness,
        )
        if maintenance:
            from repro.core.incremental import IncrementalMaintainer
            from repro.serving.maintenance import MaintenanceService

            maintainer = IncrementalMaintainer(
                self.application.query, self.database, self.index, self.graph
            )
            service.maintenance = MaintenanceService(
                maintainer,
                service=service,
                max_batch=maintenance_batch,
                max_delay_seconds=maintenance_delay_seconds,
            )
        return service

    def cluster(
        self,
        nodes: int = 2,
        replicas: int = 1,
        partitions: Optional[int] = None,
        node_store: "NodeStoreSpec" = "memory",
        store_dir: Optional[str] = None,
        cache_size: int = 1024,
        workers: int = 4,
        default_k: int = 10,
        default_size_threshold: int = 100,
        max_dependencies: int = 4096,
        fault_plane: Optional["FaultPlane"] = None,
        deadline_seconds: Optional[float] = None,
        degraded_ok: bool = False,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 0.5,
    ) -> "ClusterSearchService":
        """Serve this engine's corpus from a simulated multi-node cluster.

        Partitions the built corpus across ``nodes``
        :class:`~repro.cluster.SearchNode`\\ s (``replicas`` copies per
        partition, ``node_store`` picking each copy's backend) and returns a
        :class:`~repro.cluster.ClusterSearchService` — the standard serving
        layer, backed by the cluster's scatter-gather
        :class:`~repro.cluster.QueryRouter` instead of a single searcher.
        Results are byte-identical to single-store serving; closing the
        returned service tears the whole cluster down.  The engine's own
        store is only *read* during the build — subsequent mutations must go
        through the returned service's cluster facade
        (``service.cluster.store``), not this engine.

        ``fault_plane`` (a :class:`~repro.faults.FaultPlane`) wraps every
        partition copy for chaos testing; ``deadline_seconds`` bounds each
        query's failover budget, ``degraded_ok`` opts into flagged partial
        results instead of :class:`~repro.serving.PartialResultError` when a
        partition loses every copy, and the ``breaker_*`` knobs tune the
        per-node circuit breakers.
        """
        # Imported here for the same circularity reason as serving().
        from repro.cluster import SearchCluster

        built = SearchCluster.build(
            query=self.application.query,
            query_string_spec=self.application.query_string_spec,
            uri=self.application.uri,
            source_store=self.store,
            nodes=nodes,
            replicas=replicas,
            partitions=partitions,
            node_store=node_store,
            store_dir=store_dir,
            fault_plane=fault_plane,
            deadline_seconds=deadline_seconds,
            degraded_ok=degraded_ok,
            breaker_threshold=breaker_threshold,
            breaker_reset_seconds=breaker_reset_seconds,
        )
        return built.service(
            cache_size=cache_size,
            workers=workers,
            default_k=default_k,
            default_size_threshold=default_size_threshold,
            max_dependencies=max_dependencies,
        )

    @property
    def searcher(self) -> TopKSearcher:
        return self._searcher

    @property
    def store(self) -> FragmentStore:
        """The serving backend shared by the index, the graph and the searcher."""
        return self.index.store

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, Any]:
        """A summary of the engine (fragment counts, build costs).

        Reopened engines (:meth:`open`) report ``algorithm: "reopened"`` and
        no crawl/graph-build timings — nothing was built in this process.
        """
        if self.build_report is None:
            algorithm = "reopened"
        elif self.build_report.crawl is not None:
            algorithm = self.build_report.crawl.algorithm
        else:
            algorithm = "distributed"
        statistics: Dict[str, Any] = {
            "application": self.application.name,
            "algorithm": algorithm,
            "store_backend": type(self.store).__name__,
            "fragments": self.index.fragment_count,
            "vocabulary": len(self.index),
            "average_keywords_per_fragment": self.index.average_keywords_per_fragment(),
            "graph_edges": self.graph.edge_count,
        }
        if self.build_report is not None:
            statistics["graph_build_seconds"] = self.build_report.graph.build_seconds
            if self.build_report.crawl is not None:
                statistics.update(
                    {
                        "crawl_simulated_seconds": self.build_report.crawl.simulated_seconds(),
                        "crawl_stage_seconds": self.build_report.crawl.stage_seconds(),
                    }
                )
            if self.build_report.pipeline is not None:
                statistics["pipeline"] = self.build_report.pipeline.as_dict()
        return statistics
