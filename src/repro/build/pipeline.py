"""Distributed crawl→index batch build pipeline.

The paper builds its inverted fragment index offline, as a MapReduce batch
job over the whole database, then serves it unchanged.  This module is that
build path at reproduction scale: a corpus source is split into partitioned
crawl jobs, map tasks stream their partition's fragments into per-reduce
posting spools, reduce tasks merge the spools into canonically sorted
per-shard posting runs, and load tasks bulk-load each run into its own
:class:`~repro.store.disk.DiskStore` shard file in parallel before a final
merge folds the shards into the serving store.  The result is attached
through ``DashEngine.open()`` / ``DashEngine.cluster()`` unchanged — and is
byte-identical to a single-process ``DashEngine.build()`` over the same
corpus (the property ``tests/test_build_pipeline.py`` pins).

Stages, in order:

1. **map** — task *j* streams the ``(identifier, term_frequencies)`` pairs
   of corpus partition *j* (the source's ``partitions(count)`` protocol —
   see :class:`~repro.core.crawler.PartitionedCrawlFrontier` and
   :class:`~repro.datasets.SyntheticCorpus`), splits each fragment's
   postings by keyword hash into one spool per reduce partition and writes
   a fragment spool (whole term vectors, for sizes and the final merge).
   Every spool write is atomic (temp file + ``os.replace``), so a retried
   task simply overwrites its own half-written output.
2. **reduce** — task *r* concatenates every map task's partition-*r* spool
   and sorts it into one canonical run: ``(keyword, occurrences DESC,
   str(identifier))`` — exactly the posting order the store's compaction
   produces, so the downstream shard build degenerates to a streaming load.
3. **load** — task *r* builds ``shard-r.building``, bulk-stages its run
   with the *global* fragment sizes (weights must not depend on the
   partitioning) in one write batch, and atomically publishes
   ``shard-r.sqlite`` via ``os.replace``.  A killed load attempt leaves no
   published shard behind — the ``.building`` file is removed and the
   retry starts clean.
   Because reduce partitions keywords by hash, shards hold **disjoint
   keyword partitions** whose posting blocks are already canonical.
4. **merge** — the serving store absorbs each shard's posting blocks as a
   straight row copy, loads the authoritative fragment rows (sizes + term
   vectors, including fragments with no postings at all) from the map
   stage's fragment spools, and commits once (one write batch).

Only a :class:`~repro.store.disk.DiskStore` target runs all four.  Any
other backend takes whole fragments, so its build is map → load: the map
tasks write just the fragment spools (no posting spools, no reduce stage,
no runs), load task *r* hands fragment spools *r*, *r + R*, … to
``bulk_load``, and the merge is ``store.finalize()``.

Worker failures are retried through the MapReduce substrate's
:class:`~repro.mapreduce.runtime.TaskRunner`: a raised
:class:`~repro.mapreduce.errors.TaskFailure` (a crash, a kill, an injected
fault) re-runs the task up to the :class:`~repro.mapreduce.runtime.RetryPolicy`
attempt budget, while any other exception propagates as a real bug.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.fragments import FragmentId
from repro.mapreduce.errors import TaskFailure
from repro.mapreduce.job import default_partitioner
from repro.mapreduce.runtime import RetryPolicy, TaskRunner
from repro.store.base import FragmentStore
from repro.store.disk import DiskStore


class BuildPipelineError(Exception):
    """Raised for invalid pipeline configuration or corrupt corpus sources."""


# ----------------------------------------------------------------------
# spool helpers (atomic pickle files)
# ----------------------------------------------------------------------
def _atomic_pickle(path: str, payload: Any) -> None:
    """Write a spool so a retried task can never leave a torn file behind."""
    temp_path = f"{path}.tmp"
    with open(temp_path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(temp_path, path)


def _read_pickle(path: str) -> Any:
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _run_sort_key(row: Tuple[str, FragmentId, int]) -> Tuple[str, int, str]:
    """The store's canonical posting order: occurrences DESC, identifier tie ASC."""
    keyword, identifier, occurrences = row
    return (keyword, -occurrences, str(identifier))


def _map_posting_spool(workdir: str, task: int, partition: int) -> str:
    return os.path.join(workdir, f"map-{task}-part-{partition}.postings")


def _map_fragment_spool(workdir: str, task: int) -> str:
    return os.path.join(workdir, f"map-{task}.fragments")


def _run_path(workdir: str, partition: int) -> str:
    return os.path.join(workdir, f"run-{partition}.postings")


def shard_path(workdir: str, partition: int) -> str:
    """The published (finalized, atomically renamed) shard file of a partition."""
    return os.path.join(workdir, f"shard-{partition}.sqlite")


def _building_shard_path(workdir: str, partition: int) -> str:
    return os.path.join(workdir, f"shard-{partition}.building")


# ----------------------------------------------------------------------
# the shard load task (runs inline or in a worker process)
# ----------------------------------------------------------------------
def _load_shard(
    workdir: str,
    partition: int,
    sizes: Dict[FragmentId, int],
    checkpoint: Optional[Callable[[], None]] = None,
) -> Tuple[str, int]:
    """Build and atomically publish one shard file from its sorted run.

    The ``.building`` file is the only mutable state; it is removed on any
    failure and only renamed to ``shard-<r>.sqlite`` after its one write
    batch committed, so an observer never sees a partially-loaded shard.
    ``checkpoint`` (the ``load:finalize`` fault-injection seam) runs after
    staging but before the compacting commit, where a crash is most damaging.
    """
    building = _building_shard_path(workdir, partition)
    published = shard_path(workdir, partition)
    for stale in (building, published):
        if os.path.exists(stale):
            os.remove(stale)
    postings = _read_pickle(_run_path(workdir, partition))
    store = DiskStore(building)
    try:
        with store.write_batch():
            staged = store.bulk_load_run(postings, sizes)
            if checkpoint is not None:
                checkpoint()
    except BaseException:
        store.close()
        if os.path.exists(building):
            os.remove(building)
        raise
    store.close()
    os.replace(building, published)
    return published, staged


def _load_shard_process(payload: Tuple[str, int, Dict[FragmentId, int]]) -> Tuple[str, int]:
    """Module-level entry point for process-pool shard loads (must pickle)."""
    workdir, partition, sizes = payload
    return _load_shard(workdir, partition, sizes)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass
class BuildReport:
    """Everything one distributed build measured (used by the benchmark)."""

    backend: str = ""
    map_tasks: int = 0
    reduce_tasks: int = 0
    workers: int = 0
    fragments: int = 0
    postings: int = 0
    keywords: int = 0
    map_seconds: float = 0.0
    reduce_seconds: float = 0.0
    load_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0
    retries: Dict[str, int] = field(default_factory=dict)
    shard_files: Tuple[str, ...] = ()

    @property
    def fragments_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.fragments / self.total_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "map_tasks": self.map_tasks,
            "reduce_tasks": self.reduce_tasks,
            "workers": self.workers,
            "fragments": self.fragments,
            "postings": self.postings,
            "keywords": self.keywords,
            "map_seconds": self.map_seconds,
            "reduce_seconds": self.reduce_seconds,
            "load_seconds": self.load_seconds,
            "merge_seconds": self.merge_seconds,
            "total_seconds": self.total_seconds,
            "fragments_per_second": self.fragments_per_second,
            "retries": dict(self.retries),
        }


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
class BuildPipeline:
    """Partitioned map → sorted-run reduce → parallel shard load → merge.

    ``source`` is any object exposing ``partitions(count) -> [callable]``
    where each callable streams its partition's ``(identifier,
    term_frequencies)`` pairs (:class:`~repro.core.crawler.PartitionedCrawlFrontier`
    for a live database, :class:`~repro.datasets.SyntheticCorpus` for
    benchmarks).  ``run(store)`` loads the whole corpus into ``store``:

    * a :class:`~repro.store.disk.DiskStore` target takes the sharded path —
      per-partition shard files built in parallel (worker processes when
      ``workers > 1`` and no fault injector is installed, inline otherwise)
      and absorbed as canonical posting-block rows;
    * any other backend takes the map stage's whole fragments through
      ``bulk_load`` (the same fragment spools the disk merge reads, which is
      what lets the parity suite compare memory and disk targets posting
      for posting); the posting spools and the reduce stage are skipped.

    ``workdir`` holds the spools, runs and shard files; when omitted a
    temporary directory is created and removed with the run.
    """

    def __init__(
        self,
        source: Any,
        *,
        map_tasks: int = 4,
        reduce_tasks: int = 4,
        workers: int = 2,
        workdir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if map_tasks < 1:
            raise BuildPipelineError("map_tasks must be at least 1")
        if reduce_tasks < 1:
            raise BuildPipelineError("reduce_tasks must be at least 1")
        if workers < 1:
            raise BuildPipelineError("workers must be at least 1")
        self.source = source
        self.map_tasks = map_tasks
        self.reduce_tasks = reduce_tasks
        self.workers = workers
        self.workdir = workdir
        self.task_runner = TaskRunner(retry_policy)

    # ------------------------------------------------------------------
    def run(self, store: FragmentStore) -> BuildReport:
        report = BuildReport(
            backend=type(store).__name__,
            map_tasks=self.map_tasks,
            reduce_tasks=self.reduce_tasks,
            workers=self.workers,
        )
        started = time.perf_counter()
        owned_dir: Optional[tempfile.TemporaryDirectory] = None
        workdir = self.workdir
        if workdir is None:
            owned_dir = tempfile.TemporaryDirectory(prefix="dash-build-")
            workdir = owned_dir.name
        else:
            os.makedirs(workdir, exist_ok=True)
        try:
            sharded = isinstance(store, DiskStore)
            step = time.perf_counter()
            self._run_map_phase(workdir, spool_postings=sharded)
            report.map_seconds = time.perf_counter() - step

            sizes, report.postings, keywords = self._survey_fragments(workdir)
            report.fragments = len(sizes)
            report.keywords = len(keywords)

            if sharded:
                step = time.perf_counter()
                run_members = self._run_reduce_phase(workdir)
                report.reduce_seconds = time.perf_counter() - step

                step = time.perf_counter()
                shard_files = self._run_load_phase_disk(workdir, sizes, run_members)
                report.load_seconds = time.perf_counter() - step
                report.shard_files = tuple(shard_files)

                step = time.perf_counter()
                self._merge_into_disk(store, workdir, shard_files)
                report.merge_seconds = time.perf_counter() - step
            else:
                step = time.perf_counter()
                self._run_load_phase_generic(workdir, store)
                report.load_seconds = time.perf_counter() - step

                step = time.perf_counter()
                store.finalize()
                report.merge_seconds = time.perf_counter() - step
        finally:
            report.retries = dict(self.task_runner.retries)
            if owned_dir is not None:
                owned_dir.cleanup()
        report.total_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # stage 1: map
    # ------------------------------------------------------------------
    def _run_map_phase(self, workdir: str, spool_postings: bool) -> None:
        partitions = self.source.partitions(self.map_tasks)
        if len(partitions) != self.map_tasks:
            raise BuildPipelineError(
                f"source produced {len(partitions)} partitions for "
                f"{self.map_tasks} map tasks"
            )
        reduce_tasks = self.reduce_tasks

        def make_task(task_index: int, stream: Callable[[], Iterable]) -> Callable[[int], int]:
            def run_map(_attempt: int) -> int:
                spools: List[List[Tuple[str, FragmentId, int]]] = [
                    [] for _ in range(reduce_tasks)
                ]
                fragments: List[Tuple[FragmentId, List[Tuple[str, int]]]] = []
                for identifier, term_frequencies in stream():
                    identifier = tuple(identifier)
                    items = (
                        term_frequencies.items()
                        if hasattr(term_frequencies, "items")
                        else term_frequencies
                    )
                    vector: List[Tuple[str, int]] = []
                    for keyword, occurrences in items:
                        occurrences = int(occurrences)
                        if occurrences <= 0:
                            continue
                        vector.append((keyword, occurrences))
                        if spool_postings:
                            spools[default_partitioner(keyword, reduce_tasks)].append(
                                (keyword, identifier, occurrences)
                            )
                    fragments.append((identifier, vector))
                if spool_postings:
                    for partition, postings in enumerate(spools):
                        _atomic_pickle(
                            _map_posting_spool(workdir, task_index, partition), postings
                        )
                _atomic_pickle(_map_fragment_spool(workdir, task_index), fragments)
                return len(fragments)

            return run_map

        self._run_tasks(
            "map",
            [make_task(index, stream) for index, stream in enumerate(partitions)],
        )

    def _survey_fragments(self, workdir: str) -> Tuple[Dict[FragmentId, int], int, Set[str]]:
        """The corpus as the map stage spooled it: sizes, posting count, keywords.

        The identifier → size map is authoritative (shard weights must not
        depend on the partitioning) and doubles as the duplicate-owner guard.
        """
        sizes: Dict[FragmentId, int] = {}
        postings = 0
        keywords: Set[str] = set()
        for task_index in range(self.map_tasks):
            for identifier, vector in _read_pickle(_map_fragment_spool(workdir, task_index)):
                if identifier in sizes:
                    raise BuildPipelineError(
                        f"fragment {identifier!r} was produced by two map "
                        "partitions; corpus partitions must be disjoint"
                    )
                sizes[identifier] = sum(occurrences for _keyword, occurrences in vector)
                postings += len(vector)
                keywords.update(keyword for keyword, _occurrences in vector)
        return sizes, postings, keywords

    # ------------------------------------------------------------------
    # stage 2: reduce
    # ------------------------------------------------------------------
    def _run_reduce_phase(self, workdir: str) -> List[Set[FragmentId]]:
        """Sort every reduce partition's run; returns each run's fragments."""
        map_tasks = self.map_tasks

        def make_task(partition: int) -> Callable[[int], Set[FragmentId]]:
            def run_reduce(_attempt: int) -> Set[FragmentId]:
                rows: List[Tuple[str, FragmentId, int]] = []
                for task_index in range(map_tasks):
                    rows.extend(
                        _read_pickle(_map_posting_spool(workdir, task_index, partition))
                    )
                rows.sort(key=_run_sort_key)
                _atomic_pickle(_run_path(workdir, partition), rows)
                return {row[1] for row in rows}

            return run_reduce

        return self._run_tasks(
            "reduce", [make_task(partition) for partition in range(self.reduce_tasks)]
        )

    # ------------------------------------------------------------------
    # stage 3: load
    # ------------------------------------------------------------------
    def _run_load_phase_disk(
        self,
        workdir: str,
        sizes: Dict[FragmentId, int],
        run_members: Sequence[Set[FragmentId]],
    ) -> List[str]:
        """Build every shard file — in worker processes when allowed."""
        # Each shard only stores the fragments its run references; the merge
        # loads the full fragment table, so shards stay proportional to
        # their keyword partition.
        subsets = [
            {identifier: sizes[identifier] for identifier in members}
            for members in run_members
        ]
        runner = self.task_runner
        use_processes = self.workers > 1 and runner.policy.failure_injector is None
        results: List[Optional[str]] = [None] * self.reduce_tasks

        def make_task(partition: int) -> Callable[[int], str]:
            def run_load(attempt: int) -> str:
                published, _staged = _load_shard(
                    workdir,
                    partition,
                    subsets[partition],
                    checkpoint=lambda: runner.checkpoint(
                        "load:finalize", partition, attempt
                    ),
                )
                return published

            return run_load

        if use_processes:
            pending: List[int] = []
            with ProcessPoolExecutor(max_workers=min(self.workers, self.reduce_tasks)) as pool:
                futures = {
                    partition: pool.submit(
                        _load_shard_process, (workdir, partition, subsets[partition])
                    )
                    for partition in range(self.reduce_tasks)
                }
                for partition, future in futures.items():
                    try:
                        results[partition] = future.result()[0]
                    except Exception:
                        # A crashed worker process is a transient task failure:
                        # fall back to an inline, retry-governed rebuild.
                        pending.append(partition)
            for partition in pending:
                results[partition] = self.task_runner.run(
                    "load", partition, make_task(partition)
                )
        else:
            for partition in range(self.reduce_tasks):
                results[partition] = self.task_runner.run(
                    "load", partition, make_task(partition)
                )
        return [path for path in results if path is not None]

    def _run_load_phase_generic(self, workdir: str, store: FragmentStore) -> None:
        """Bulk-load the map stage's whole fragments into the store.

        Load task *r* takes every ``reduce_tasks``-th fragment spool starting
        at *r* — whole term vectors, so fragments with no postings at all
        are registered too.  Mutations only start after the attempt's
        checkpoints have passed and a bulk load validates before it writes,
        so an injected failure leaves the store untouched and the retry
        loads the identical fragments.
        """
        runner = self.task_runner

        def make_task(partition: int) -> Callable[[int], int]:
            def run_load(attempt: int) -> int:
                spools = [
                    _read_pickle(_map_fragment_spool(workdir, task_index))
                    for task_index in range(partition, self.map_tasks, self.reduce_tasks)
                ]
                runner.checkpoint("load:finalize", partition, attempt)
                return sum(store.bulk_load(fragments) for fragments in spools)

            return run_load

        for partition in range(self.reduce_tasks):
            self.task_runner.run("load", partition, make_task(partition))

    # ------------------------------------------------------------------
    # stage 4: merge
    # ------------------------------------------------------------------
    def _merge_into_disk(
        self, store: DiskStore, workdir: str, shard_files: Sequence[str]
    ) -> None:
        with store.write_batch():
            for path in shard_files:
                store.absorb_index_shard(path)
            for task_index in range(self.map_tasks):
                store.bulk_load_fragment_vectors(
                    _read_pickle(_map_fragment_spool(workdir, task_index))
                )

    # ------------------------------------------------------------------
    def _run_tasks(self, phase: str, tasks: Sequence[Callable[[int], Any]]) -> List[Any]:
        """Run one phase's tasks through the retry-governed runner."""
        runner = self.task_runner
        if self.workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
                futures = [
                    pool.submit(runner.run, phase, index, task)
                    for index, task in enumerate(tasks)
                ]
                return [future.result() for future in futures]
        return [runner.run(phase, index, task) for index, task in enumerate(tasks)]
