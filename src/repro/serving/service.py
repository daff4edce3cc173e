"""The cached, concurrent search frontend.

:class:`SearchService` is the layer a real deployment puts between HTTP and
the index — everything above :class:`~repro.core.search.TopKSearcher`:

* **query admission** — raw keyword input (a string, or any iterable of
  strings) is normalized through :func:`repro.text.tokenizer.tokenize`
  (lower-cased, split exactly like the indexed content) and de-duplicated
  preserving order; ``k`` and the size threshold ``s`` are validated.  Every
  rejection is a typed :class:`~repro.serving.errors.ServingError`.
* **versioned result cache** — an LRU of finished result lists, stamped with
  the store epoch and revalidated per lookup against the store's
  :class:`~repro.store.EpochClock` (see :mod:`repro.serving.cache`), so a
  maintenance run never serves outdated URLs while untouched hot entries
  keep hitting.
* **concurrent execution** — ``search()`` computes on the caller's thread;
  ``search_many()`` fans a batch out over a thread pool.  Identical queries
  in flight are *coalesced* (single-flight): one computation runs, the other
  callers wait for its result instead of duplicating work.
* **warm-up** — ``warm_up()`` pre-populates the cache for an expected
  workload before traffic arrives.

Scorers and sorted neighbour lists are reused across requests through the
searcher's own per-epoch cache, dropped on epoch changes.  One service instance is safe for concurrent use from many
threads; maintenance is expected to be applied by one writer at a time
(matching :class:`~repro.core.incremental.IncrementalMaintainer`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.search import SearchResult, TopKSearcher
from repro.serving.cache import CachedResult, ResultCache
from repro.serving.errors import (
    InvalidParameterError,
    InvalidQueryError,
    ServiceClosedError,
    ServiceConfigurationError,
)
from repro.text.tokenizer import tokenize

#: What ``search``/``search_many`` accept as one query's keywords.
KeywordsSpec = Union[str, Iterable[str]]


@dataclass(frozen=True)
class AdmittedQuery:
    """One validated, canonical query (the cache key is derived from it)."""

    keywords: Tuple[str, ...]
    k: int
    size_threshold: int

    @property
    def key(self) -> Hashable:
        return (self.keywords, self.k, self.size_threshold)


@dataclass(frozen=True)
class ServingResult:
    """One answered query.

    ``cached`` — served straight from the result cache;
    ``coalesced`` — computed once by a concurrent identical request and
    shared; ``epoch`` — the store epoch the results are valid against;
    ``complete`` — ``False`` for a degraded cluster answer with the
    unreachable partitions in ``missing_partitions`` (degraded answers are
    never served from or stored into the cache).
    """

    results: Tuple[SearchResult, ...]
    keywords: Tuple[str, ...]
    k: int
    size_threshold: int
    cached: bool
    coalesced: bool
    epoch: int
    elapsed_seconds: float
    complete: bool = True
    missing_partitions: Tuple[int, ...] = ()

    @property
    def urls(self) -> Tuple[str, ...]:
        return tuple(result.url for result in self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class SearchService:
    """Query admission + versioned caching + concurrency over one searcher."""

    def __init__(
        self,
        searcher: TopKSearcher,
        cache_size: int = 1024,
        workers: int = 4,
        default_k: int = 10,
        default_size_threshold: int = 100,
        max_dependencies: int = 4096,
        strict_freshness: bool = False,
    ) -> None:
        if workers < 1:
            raise ServiceConfigurationError(f"workers must be at least 1, got {workers}")
        if max_dependencies < 0:
            raise ServiceConfigurationError(
                f"max_dependencies must be non-negative, got {max_dependencies}"
            )
        try:
            self._check_limit("default_k", default_k)
            self._check_limit("default size threshold", default_size_threshold)
        except InvalidParameterError as error:
            # Construction-time mistakes are configuration errors, not
            # per-query admission failures.
            raise ServiceConfigurationError(str(error)) from None
        self._searcher = searcher
        self._store = searcher.index.store
        self._cache = ResultCache(cache_size)
        self._workers = workers
        self._default_k = default_k
        self._default_size_threshold = default_size_threshold
        self._max_dependencies = max_dependencies
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._flight_lock = threading.Lock()
        self._inflight: Dict[Hashable, "Future[CachedResult]"] = {}
        # Store epoch observed when each in-flight leader was admitted — a
        # lower bound on the stamp its entry will carry (epochs only grow),
        # which is what lets sweep_epochs run safely alongside readers.
        self._inflight_stamps: Dict[Hashable, int] = {}
        self._counter_lock = threading.Lock()
        self._queries = 0
        self._computed = 0
        self._coalesced = 0
        self._closed = False
        # Write-side coordination (see repro.serving.maintenance): when a
        # MaintenanceService pairs with this service it installs its
        # ReadWriteGate here, fencing every search computation against
        # in-flight batch application so computed results always reflect a
        # batch boundary.  None means searches run ungated.
        self._mutation_gate = None
        #: The paired MaintenanceService, when serving was built with
        #: ``maintenance=True`` (closed together with this service).
        self.maintenance = None
        # Multi-process strictness: refresh the store's persisted epochs
        # before admission and revalidate every *computed* result before
        # serving it, recomputing on conflict.  This is what lets a
        # read-only DiskStore process serve boundary-consistent results
        # while another process owns writes; single-process deployments
        # leave it off (the gate already provides the guarantee for free).
        self._strict_freshness = strict_freshness
        self._epoch_refresher = getattr(self._store, "refresh_epochs", None)
        # Every cache comparing stamps against the store's clock must be
        # visible to epoch sweeps — including ones driven by *another*
        # service sharing the store (engine.serving() called twice).
        self._store.register_stamp_provider(self._oldest_stamp_in_use)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self,
        keywords: KeywordsSpec,
        k: Optional[int] = None,
        size_threshold: Optional[int] = None,
    ) -> AdmittedQuery:
        """Normalize and validate one query, or raise a typed ServingError.

        Keyword input goes through the same tokenizer the crawl used to index
        fragment content, so ``"Bond's  Cafe"`` admits exactly the keywords
        the index knows; duplicates collapse (first occurrence wins the
        scoring order).
        """
        if keywords is None:
            raise InvalidQueryError("query keywords must not be None")
        if isinstance(keywords, str):
            parts: List[str] = tokenize(keywords)
        else:
            parts = []
            for value in keywords:
                parts.extend(tokenize(str(value)))
        canonical = tuple(dict.fromkeys(parts))
        if not canonical:
            raise InvalidQueryError(f"no keywords admitted from {keywords!r}")
        k = self._default_k if k is None else k
        size_threshold = (
            self._default_size_threshold if size_threshold is None else size_threshold
        )
        self._check_limit("k", k)
        self._check_limit("size threshold s", size_threshold)
        return AdmittedQuery(keywords=canonical, k=k, size_threshold=size_threshold)

    @staticmethod
    def _check_limit(name: str, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise InvalidParameterError(f"{name} must be at least 1, got {value}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def search(
        self,
        keywords: KeywordsSpec,
        k: Optional[int] = None,
        size_threshold: Optional[int] = None,
    ) -> ServingResult:
        """Answer one keyword query (cache → coalesce → compute)."""
        return self._execute(self.admit(keywords, k, size_threshold))

    def search_many(
        self,
        requests: Sequence[Any],
        k: Optional[int] = None,
        size_threshold: Optional[int] = None,
    ) -> List[ServingResult]:
        """Answer a batch of queries concurrently, preserving request order.

        Each request is a keywords spec (a string or an iterable of strings)
        or a mapping with ``keywords`` and optional ``k``/``size_threshold``
        overriding the batch-level defaults.  The whole batch is admitted
        up front, so an invalid request rejects before any work starts.

        Duplicate queries within one batch are answered by a single
        execution (its ServingResult is shared): a follower parked on an
        in-flight future would otherwise hold a worker slot doing nothing,
        serializing the distinct queries queued behind it — and Zipf-shaped
        traffic is duplicate-heavy by construction.
        """
        if isinstance(requests, str):
            # A bare string would fan out one query per character.
            raise InvalidParameterError(
                "search_many expects a sequence of queries; use search() for a single query"
            )
        admitted = [self._admit_request(request, k, size_threshold) for request in requests]
        if not admitted:
            return []
        unique: Dict[Hashable, AdmittedQuery] = {}
        for query in admitted:
            unique.setdefault(query.key, query)
        if self._workers == 1 or len(unique) == 1:
            by_key = {key: self._execute(query) for key, query in unique.items()}
        else:
            executor = self._ensure_executor()
            futures = {
                key: executor.submit(self._execute, query) for key, query in unique.items()
            }
            by_key = {key: future.result() for key, future in futures.items()}
        duplicates = len(admitted) - len(unique)
        if duplicates:
            # Keep statistics consistent with the search() path: every
            # answered request counts as a query, and a deduped duplicate is
            # a coalesced one.
            with self._counter_lock:
                self._queries += duplicates
                self._coalesced += duplicates
        return [by_key[query.key] for query in admitted]

    def warm_up(
        self,
        requests: Sequence[Any],
        k: Optional[int] = None,
        size_threshold: Optional[int] = None,
    ) -> int:
        """Pre-populate the cache for an expected workload.

        Runs the batch like :meth:`search_many` (concurrently, coalesced) and
        returns the number of entries resident in the cache afterwards.
        """
        self.search_many(requests, k=k, size_threshold=size_threshold)
        return len(self._cache)

    def _admit_request(
        self, request: Any, k: Optional[int], size_threshold: Optional[int]
    ) -> AdmittedQuery:
        if isinstance(request, Mapping):
            unknown = set(request) - {"keywords", "k", "size_threshold"}
            if unknown:
                raise InvalidParameterError(f"unknown query fields {sorted(unknown)}")
            if "keywords" not in request:
                raise InvalidQueryError(f"query mapping {request!r} is missing 'keywords'")
            return self.admit(
                request["keywords"],
                request.get("k", k),
                request.get("size_threshold", size_threshold),
            )
        return self.admit(request, k, size_threshold)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, query: AdmittedQuery) -> ServingResult:
        if self._closed:
            raise ServiceClosedError("this SearchService has been closed")
        started = time.perf_counter()
        with self._counter_lock:
            self._queries += 1
        key = query.key

        while True:
            if self._strict_freshness and self._epoch_refresher is not None:
                # Pull epochs another process committed before consulting the
                # cache, so entries invalidate exactly like they would in the
                # writer's own process.
                self._epoch_refresher()
            entry = self._cache.get(key, self._store)
            if entry is not None:
                return self._serve(query, entry, started, cached=True, coalesced=False)

            # Single-flight: the first miss for a key computes; concurrent
            # identical requests wait for that computation instead of
            # repeating it.
            with self._flight_lock:
                future = self._inflight.get(key)
                leader = future is None
                if leader:
                    future = Future()
                    self._inflight[key] = future
                    self._inflight_stamps[key] = self._store.epoch
            if not leader:
                entry = future.result()
                with self._counter_lock:
                    self._coalesced += 1
                if ResultCache.is_fresh(entry, self._store):
                    return self._serve(query, entry, started, cached=False, coalesced=True)
                # The leader's entry is stamped with its pre-search epoch; a
                # follower admitted *after* a maintenance run that raced the
                # leader's computation must not serve those results — apply
                # the same freshness rule a cache lookup would, retrying
                # (bounded by the store actually mutating between rounds).
                continue

            try:
                gate = self._mutation_gate
                if gate is None:
                    detailed = self._searcher.search_detailed(
                        query.keywords,
                        k=query.k,
                        size_threshold=query.size_threshold,
                    )
                else:
                    # The read side of the maintenance gate: a background
                    # batch can never apply halfway through this computation,
                    # so the result always reflects a batch boundary.
                    with gate.read():
                        detailed = self._searcher.search_detailed(
                            query.keywords,
                            k=query.k,
                            size_threshold=query.size_threshold,
                        )
                dependencies = detailed.dependencies
                # Single-store searchers have no notion of partial answers;
                # the cluster router stamps these on its statistics.
                complete = getattr(detailed.statistics, "complete", True)
                missing = tuple(getattr(detailed.statistics, "missing_partitions", ()))
                entry = CachedResult(
                    results=detailed.results,
                    keywords=detailed.keywords,
                    dependencies=(
                        dependencies if len(dependencies) <= self._max_dependencies else None
                    ),
                    epoch=detailed.epoch,
                    complete=complete,
                    missing_partitions=missing,
                )
                # The cache refuses partial entries too (defense in depth).
                if complete:
                    self._cache.put(key, entry)
                with self._counter_lock:
                    self._computed += 1
                future.set_result(entry)
            except BaseException as error:
                future.set_exception(error)
                raise
            finally:
                with self._flight_lock:
                    self._inflight.pop(key, None)
                    self._inflight_stamps.pop(key, None)
            if self._strict_freshness:
                # Cross-process regime: another process's batch may have
                # committed mid-computation (no in-process gate can fence
                # it).  Refresh the persisted epochs and apply the same
                # freshness rule a cache lookup would — recompute on
                # conflict instead of serving a possibly-torn read.  Bounded
                # by the writer actually committing between rounds.
                if self._epoch_refresher is not None:
                    self._epoch_refresher()
                if not ResultCache.is_fresh(entry, self._store):
                    continue
            return self._serve(query, entry, started, cached=False, coalesced=False)

    def _serve(
        self,
        query: AdmittedQuery,
        entry: CachedResult,
        started: float,
        cached: bool,
        coalesced: bool,
    ) -> ServingResult:
        return ServingResult(
            results=entry.results,
            keywords=query.keywords,
            k=query.k,
            size_threshold=query.size_threshold,
            cached=cached,
            coalesced=coalesced,
            epoch=entry.epoch,
            elapsed_seconds=time.perf_counter() - started,
            complete=getattr(entry, "complete", True),
            missing_partitions=tuple(getattr(entry, "missing_partitions", ())),
        )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise ServiceClosedError("this SearchService has been closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="search-service"
                )
            return self._executor

    def set_mutation_gate(self, gate) -> None:
        """Install (or clear) the maintenance gate fencing computations.

        Called by :class:`~repro.serving.maintenance.MaintenanceService` on
        construction; every subsequent search computation runs under the
        gate's read side so batch application is atomic with respect to it.
        """
        self._mutation_gate = gate

    # ------------------------------------------------------------------
    # lifecycle / inspection
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> int:
        """Drop every cached result (returns how many were resident)."""
        return self._cache.invalidate()

    def sweep_epochs(self) -> int:
        """Prune the store clock's tombstones no live cache entry can see.

        The :class:`~repro.store.EpochClock` keeps a final epoch for every
        fragment and keyword ever mutated — removed fragments stay behind as
        tombstones so stale entries keep failing revalidation, which is
        O(fragments ever seen) memory under continuous maintenance churn.
        This sweep bounds that: it computes the oldest stamp still in use —
        over the resident cache entries and every in-flight computation's
        admission epoch (a lower bound on the stamp its entry will carry) —
        and drops every clock entry at or below it, which provably cannot
        change any surviving revalidation verdict (see
        :meth:`repro.store.EpochClock.sweep`).

        The store clamps the bound by every registered consumer — this
        service's own :meth:`_oldest_stamp_in_use` and any other service
        sharing the store — so a sweep driven here can never strand someone
        else's older entries.  Safe to call while readers are searching;
        call it from the maintenance writer after applying updates (the
        same single-writer regime the rest of the store layer assumes).
        One bounded race is accepted, same class as the clock's permitted
        write-window race: an entry that left the cache (eviction,
        ``invalidate_cache``) while a reader was mid-revalidation is
        invisible to the bound and may be served stale once; it is gone
        from the cache, so it cannot be served again.  Returns the number
        of clock entries pruned.
        """
        # The service's own bound arrives through its registered provider;
        # with nothing cached and nothing in flight anywhere, every stamp
        # handed out from now on is >= the current epoch.
        return self._store.sweep_epochs(self._store.epoch)

    def _oldest_stamp_in_use(self) -> Optional[int]:
        """The oldest epoch stamp this service still compares against.

        ``None`` when nothing is cached or in flight.  Registered with the
        store as a stamp provider so sweeps from any consumer respect it.
        """
        with self._flight_lock:
            bounds = list(self._inflight_stamps.values())
        oldest_cached = self._cache.oldest_stamp()
        if oldest_cached is not None:
            bounds.append(oldest_cached)
        return min(bounds) if bounds else None

    @property
    def epoch(self) -> int:
        """The backing store's current mutation epoch."""
        return self._store.epoch

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def workers(self) -> int:
        return self._workers

    def statistics(self) -> Dict[str, Any]:
        """One snapshot of every service counter (queries, cache, search)."""
        with self._counter_lock:
            counters = {
                "queries": self._queries,
                "computed": self._computed,
                "coalesced": self._coalesced,
            }
        statistics = {
            **counters,
            "cache": {
                **self._cache.statistics.as_dict(),
                "entries": len(self._cache),
                "capacity": self._cache.capacity,
            },
            # Running totals over this service's computed queries — seeds
            # scored, dequeues, expansions, the expansion evaluations the
            # admissible bound saved (see repro.core.search.SearchStatistics)
            # and scorer reuses / builds.
            "search": self._searcher.lifetime_statistics(),
            "epoch": self._store.epoch,
            "workers": self._workers,
        }
        if self.maintenance is not None:
            statistics["maintenance"] = self.maintenance.statistics()
        return statistics

    def close(self) -> None:
        """Stop accepting queries and shut the worker pool down.

        A paired :class:`~repro.serving.maintenance.MaintenanceService`
        (``serving(maintenance=True)``) is closed first, draining its queue.
        """
        maintenance, self.maintenance = self.maintenance, None
        if maintenance is not None:
            maintenance.close()
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        self._store.unregister_stamp_provider(self._oldest_stamp_in_use)
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()
