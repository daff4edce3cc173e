"""Dash core: the paper's primary contribution.

* :mod:`repro.core.fragments` — db-page fragments (Definition 2) and the
  reference (single-machine) fragment derivation.
* :mod:`repro.core.fragment_index` — the inverted fragment index.
* :mod:`repro.core.fragment_graph` — the fragment graph (Section VI-A).
* :mod:`repro.core.scoring` — the modified TF/IDF relevance of assembled
  db-pages (Section VI).
* :mod:`repro.core.crawler` — MapReduce-based database crawling and fragment
  indexing: the stepwise and the integrated algorithms (Section V).
* :mod:`repro.core.urls` — reverse query-string parsing / URL formulation.
* :mod:`repro.core.search` — the top-k db-page search (Algorithm 1).
* :mod:`repro.core.incremental` — incremental fragment-index maintenance under
  database updates (the paper's future-work direction, built as an extension).
* :mod:`repro.core.engine` — the :class:`DashEngine` facade wiring analysis,
  crawling, indexing and search together (Figure 4).

Serving-side storage (postings and fragment sizes; graph adjacency is derived
from them) is pluggable through :mod:`repro.store`: the index and graph
facades program against the
:class:`~repro.store.FragmentStore` interface, with
:class:`~repro.store.InMemoryStore` and the persistent
:class:`~repro.store.DiskStore` as backends; splitting a corpus N ways is
:meth:`DashEngine.cluster <repro.core.engine.DashEngine.cluster>`.
"""

from repro.core.crawler import CrawlResult, IntegratedCrawler, StepwiseCrawler
from repro.core.engine import DashEngine
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.fragments import Fragment, FragmentId, derive_fragments
from repro.core.incremental import IncrementalMaintainer
from repro.core.scoring import DashScorer, PageStats
from repro.core.search import DetailedSearch, SearchResult, TopKSearcher
from repro.core.urls import UrlFormulator
from repro.store import FragmentStore, InMemoryStore, resolve_store

__all__ = [
    "CrawlResult",
    "DashEngine",
    "DashScorer",
    "DetailedSearch",
    "Fragment",
    "FragmentGraph",
    "FragmentId",
    "FragmentStore",
    "InMemoryStore",
    "IncrementalMaintainer",
    "IntegratedCrawler",
    "InvertedFragmentIndex",
    "PageStats",
    "SearchResult",
    "StepwiseCrawler",
    "TopKSearcher",
    "UrlFormulator",
    "derive_fragments",
    "resolve_store",
]
