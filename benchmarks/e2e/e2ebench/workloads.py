"""The four workloads: what is built and what traffic it gets.

A :class:`Workload` is pure data; :class:`System` builds the system under
test from nothing through the product's public entry points and exposes the
one operation the load generator needs — ``send(request_index)``.
"""

from __future__ import annotations

import dataclasses
import os
import urllib.parse
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import DashEngine
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import derive_fragments
from repro.core.search import SearchResult, TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets import SyntheticCorpus, build_fooddb
from repro.serving import SearchGateway
from repro.store import InMemoryStore
from repro.webapp.server import WebServer

from e2ebench import corpus

K = 10
SIZE_THRESHOLD = 200


@dataclass(frozen=True)
class Workload:
    """One named workload (the names are the contract later issues cite;
    why each exists is recorded in ``BENCHMARK.json`` and the README)."""

    name: str
    fragments: int
    #: ``"database"`` — the fooddb-shaped database crawled by
    #: ``DashEngine.build``; ``"corpus"`` — ``SyntheticCorpus`` through
    #: ``DashEngine.build_distributed``.
    source: str
    store: str  # "disk" | "memory"
    #: ``"gateway"`` — WebServer.get -> SearchGateway -> SearchService;
    #: ``"engine"`` — direct ``DashEngine.search``, no serving layer.
    entry: str
    cache_size: int = 0
    cluster_nodes: int = 0  # 0 = single store
    maintenance: bool = False
    pool_size: int = 1024  # distinct queries
    #: Requests per pass of the stream: 0 = every pool query once (uniform);
    #: otherwise a fixed Zipf(1.1) sample of that many requests.  Sized so a
    #: pass takes one to two seconds and a phase holds several.
    zipf_block: int = 0
    setup_repeats: int = 3
    open_cycles: int = 15  # re-attach cycles behind open_ms / first_search_ms
    update_rate: float = 0.0  # updates/s submitted open-loop beside the reads
    drain_burst: int = 0  # updates in the final burst timed to flush()
    open_rate: float = 10.0  # phase C arrivals/s
    open_limit_ms: float = 100.0  # phase C latency limit
    traced_requests: int = 200  # whole passes, so the traced counts repeat
    traced_updates: int = 0
    probes: int = 64
    final_probes: int = 0  # after the last flush(), against the mutated database

    def smoke(self) -> "Workload":
        """The same shape at test scale (seconds, not minutes)."""
        return dataclasses.replace(
            self,
            fragments=min(self.fragments, 600 if self.source == "corpus" else 144),
            cache_size=min(self.cache_size, 16),
            pool_size=min(self.pool_size, 48),
            zipf_block=min(self.zipf_block, 48),
            setup_repeats=1,
            open_cycles=2,
            drain_burst=min(self.drain_burst, 16),
            traced_requests=min(self.traced_requests, 48),
            traced_updates=min(self.traced_updates, 4),
            probes=min(self.probes, 8),
            final_probes=min(self.final_probes, 8),
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="zipf_cached_disk",
        fragments=1600,
        source="database",
        store="disk",
        entry="gateway",
        cache_size=128,
        zipf_block=512,
        open_rate=60.0,
        open_limit_ms=100.0,
        traced_requests=512,
    ),
    Workload(
        name="uniform_uncached_cluster",
        fragments=4000,
        source="database",
        store="memory",
        entry="gateway",
        cluster_nodes=4,
        pool_size=48,
        open_cycles=5,
        open_rate=12.0,
        open_limit_ms=150.0,
        traced_requests=96,
    ),
    Workload(
        name="mixed_rw_disk",
        fragments=1600,
        source="database",
        store="disk",
        entry="gateway",
        cache_size=128,
        maintenance=True,
        zipf_block=512,
        update_rate=1.0,
        drain_burst=128,
        open_rate=20.0,
        open_limit_ms=100.0,
        traced_requests=512,
        traced_updates=8,
        final_probes=50,
    ),
    Workload(
        name="build_open_disk",
        fragments=20000,
        source="corpus",
        store="disk",
        entry="engine",
        pool_size=256,
        zipf_block=64,
        setup_repeats=2,
        open_cycles=11,
        open_rate=8.0,
        open_limit_ms=250.0,
        traced_requests=128,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def rendered(results: Sequence[SearchResult]) -> str:
    """Reference results in the text form the gateway serves (rank url score)."""
    return "\n".join(
        f"{rank} {result.url} {result.score:.6f}" for rank, result in enumerate(results, start=1)
    )


def comparable(results: Sequence[SearchResult]) -> Tuple[Tuple[str, float], ...]:
    """Direct search results as ``(url, round(score, 9))`` pairs."""
    return tuple((result.url, round(result.score, 9)) for result in results)


class System:
    """One workload's system under test, built from nothing.

    Construction is what ``setup_s`` times: database or corpus generation,
    crawl or distributed build, index, graph, and service/cluster wiring.
    """

    def __init__(self, workload: Workload, directory: str) -> None:
        self.workload = workload
        self.path = os.path.join(directory, "index.sqlite") if workload.store == "disk" else None
        self.service: Any = None
        self.server: Optional[WebServer] = None
        store = {"store": "disk", "store_path": self.path} if self.path else {}
        if workload.source == "corpus":
            self.database = build_fooddb()
            self.application = corpus.search_application(self.database)
            self.engine = DashEngine.build_distributed(
                self.application,
                self.database,
                source=SyntheticCorpus(workload.fragments, seed=corpus.CORPUS_SEED),
                workers=2,
                map_tasks=4,
                num_reduce_tasks=4,
                workdir=os.path.join(directory, "build"),
                **store,
            )
        else:
            self.database = corpus.synthetic_database(workload.fragments)
            self.application = corpus.search_application(self.database)
            self.engine = DashEngine.build(self.application, self.database, **store)
        self.build_report = self.engine.build_report
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Wire the serving side over ``self.engine`` (also after a re-open)."""
        workload = self.workload
        if workload.entry != "gateway":
            return
        options = {"default_k": K, "default_size_threshold": SIZE_THRESHOLD}
        if workload.cluster_nodes:
            self.service = self.engine.cluster(
                nodes=workload.cluster_nodes,
                replicas=1,
                node_store="memory",
                cache_size=workload.cache_size,
                **options,
            )
        else:
            self.service = self.engine.serving(
                cache_size=workload.cache_size, maintenance=workload.maintenance, **options
            )
        self.server = WebServer(self.database)
        self.server.deploy(self.application)
        self.gateway = SearchGateway(self.service)
        self.server.deploy(self.gateway)

    def detach(self) -> None:
        """Close the serving side; a cluster workload keeps its source engine."""
        if self.service is not None:
            self.service.close()
            self.service = None
            self.server = None

    def reopen(self) -> None:
        """Re-attach the way an operator would after a restart.

        Disk: ``DashEngine.open`` on the file plus the serving wiring; the
        in-memory cluster has no file, so its re-attach is re-partitioning
        the built corpus onto fresh nodes.
        """
        if self.path:
            self.engine = DashEngine.open(self.path, self.application, self.database)
        self.attach()

    def shut(self) -> None:
        """Detach and, on disk, close the store file (before a ``reopen``)."""
        self.detach()
        if self.path:
            self.engine.store.close()

    def close(self) -> None:
        self.detach()
        self.engine.store.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def use_pool(self, pool: Sequence[corpus.Query]) -> None:
        self.pool = list(pool)
        if self.workload.entry == "gateway":
            self.urls = [
                f"{self.gateway.uri}?q={urllib.parse.quote_plus(' '.join(query))}"
                f"&k={K}&s={SIZE_THRESHOLD}"
                for query in pool
            ]

    def answer(self, index: int) -> Any:
        """One request through the real entry point; its comparable answer."""
        if self.workload.entry == "gateway":
            return self.server.get(self.urls[index]).text
        return comparable(self.engine.search(self.pool[index], k=K, size_threshold=SIZE_THRESHOLD))

    def expected(self, results: Sequence[SearchResult]) -> Any:
        return rendered(results) if self.workload.entry == "gateway" else comparable(results)

    def document_frequencies(self) -> Dict[str, int]:
        return self.engine.store.document_frequencies()

    def index_bytes(self) -> int:
        """Bytes the built index occupies at rest: the sqlite database file
        (its WAL is transient and gone after a clean close), or in memory the
        store's serialized-size estimate."""
        if not self.path:
            return self.engine.store.approximate_bytes()
        return os.path.getsize(self.path)


class Reference:
    """An independent in-memory single-store searcher over the same corpus.

    Built from ``derive_fragments`` (or the corpus stream) straight into an
    ``InMemoryStore`` and searched with ``early_termination=False`` — the
    exhaustive path the repo's parity suite uses as its oracle — so it
    shares neither the crawl, nor the backend, nor the pruning with the
    system under test.  Not part of ``setup_s``.
    """

    def __init__(self, workload: Workload, database: Any = None) -> None:
        index = InvertedFragmentIndex(store=InMemoryStore())
        if workload.source == "corpus":
            application = corpus.search_application(build_fooddb())
            for identifier, terms in SyntheticCorpus(workload.fragments, seed=corpus.CORPUS_SEED):
                index.add_fragment(identifier, terms)
        else:
            if database is None:
                database = corpus.synthetic_database(workload.fragments)
            application = corpus.search_application(database)
            for identifier, fragment in derive_fragments(application.query, database).items():
                index.add_fragment(identifier, fragment.term_frequencies)
        index.finalize()
        graph = FragmentGraph.build(application.query, index.fragment_sizes, store=index.store)
        self._searcher = TopKSearcher(
            index,
            graph,
            UrlFormulator(application.query, corpus.SEARCH_SPEC, corpus.SEARCH_URI),
            early_termination=False,
        )

    def search(self, query: corpus.Query) -> List[SearchResult]:
        return self._searcher.search(query, k=K, size_threshold=SIZE_THRESHOLD)
