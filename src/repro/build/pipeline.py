"""Distributed crawl→index batch build pipeline.

The paper builds its inverted fragment index offline, as a MapReduce batch
job over the whole database, then serves it unchanged.  This module is that
build path at reproduction scale: a corpus source is split into partitioned
crawl jobs, map tasks spool their partition's whole fragments, and load
tasks bulk-load the spools into the serving store inside one write batch.
The result is attached through ``DashEngine.open()`` /
``DashEngine.cluster()`` unchanged — and is byte-identical to a
single-process ``DashEngine.build()`` over the same corpus (the property
``tests/test_build_pipeline.py`` pins).

Stages, in order:

1. **map** — task *j* streams the ``(identifier, term_frequencies)`` pairs
   of corpus partition *j* (the source's ``partitions(count)`` protocol —
   see :class:`~repro.core.crawler.PartitionedCrawlFrontier` and
   :class:`~repro.datasets.SyntheticCorpus`) and writes one fragment spool
   of whole term vectors.  Every spool write is atomic (temp file +
   ``os.replace``), so a retried task simply overwrites its own
   half-written output.  With ``workers > 1`` the map tasks run on a
   thread pool.
2. **load** — load task *r* hands fragment spools *r*, *r + R*, … to the
   target's ``bulk_load``.  Every load task runs inside one
   ``store.write_batch()``, closed by ``store.finalize()``: a
   :class:`~repro.store.disk.DiskStore` target compacts its staged log into
   canonical posting blocks and commits once, at the scope's exit, and a
   build whose retries run out rolls the target back to empty.

Every backend takes the same two stages; the store, not the pipeline, owns
the canonical posting order.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.fragments import FragmentId
from repro.mapreduce.runtime import RetryPolicy, TaskRunner
from repro.store.base import FragmentStore


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


def _map_fragment_spool(workdir: str, task: int) -> str:
    return os.path.join(workdir, f"map-{task}.fragments")


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass
class BuildReport:
    """Everything one distributed build measured (used by the benchmark).

    ``reduce_seconds`` is kept for report consumers and always reads 0: the
    build has no reduce stage.  ``merge_seconds`` is the closing
    ``finalize()`` plus the write batch's commit (a disk target's
    compaction).
    """

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
    """Partitioned map → bulk load, in one write batch of the target.

    ``source`` is any object exposing ``partitions(count) -> [callable]``
    where each callable streams its partition's ``(identifier,
    term_frequencies)`` pairs (:class:`~repro.core.crawler.PartitionedCrawlFrontier`
    for a live database, :class:`~repro.datasets.SyntheticCorpus` for
    benchmarks).  ``run(store)`` loads the whole corpus into ``store``
    through its ``bulk_load``: ``map_tasks`` map tasks (on up to ``workers``
    threads) spool whole fragments, and ``reduce_tasks`` load tasks load
    the spools, every one inside the same ``store.write_batch()``.

    ``workdir`` holds the fragment spools; when omitted a temporary
    directory is created and removed with the run.
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
            step = time.perf_counter()
            self._run_map_phase(workdir)
            report.map_seconds = time.perf_counter() - step

            report.fragments, report.postings, keywords = self._survey_fragments(workdir)
            report.keywords = len(keywords)

            step = time.perf_counter()
            with store.write_batch():
                self._run_load_phase(workdir, store)
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
    def _run_map_phase(self, workdir: str) -> None:
        partitions = self.source.partitions(self.map_tasks)
        if len(partitions) != self.map_tasks:
            raise BuildPipelineError(
                f"source produced {len(partitions)} partitions for "
                f"{self.map_tasks} map tasks"
            )

        def make_task(task_index: int, stream: Callable[[], Iterable]) -> Callable[[int], int]:
            def run_map(_attempt: int) -> int:
                fragments: List[Tuple[FragmentId, List[Tuple[str, int]]]] = []
                for identifier, term_frequencies in stream():
                    items = (
                        term_frequencies.items()
                        if hasattr(term_frequencies, "items")
                        else term_frequencies
                    )
                    vector: List[Tuple[str, int]] = []
                    for keyword, occurrences in items:
                        occurrences = int(occurrences)
                        if occurrences > 0:
                            vector.append((keyword, occurrences))
                    fragments.append((tuple(identifier), vector))
                _atomic_pickle(_map_fragment_spool(workdir, task_index), fragments)
                return len(fragments)

            return run_map

        self._run_tasks(
            "map",
            [make_task(index, stream) for index, stream in enumerate(partitions)],
        )

    def _survey_fragments(self, workdir: str) -> Tuple[int, int, Set[str]]:
        """The corpus as the map stage spooled it: fragment count, posting
        count, keywords — and the guard that no fragment has two owners."""
        seen: Set[FragmentId] = set()
        postings = 0
        keywords: Set[str] = set()
        for task_index in range(self.map_tasks):
            for identifier, vector in _read_pickle(_map_fragment_spool(workdir, task_index)):
                if identifier in seen:
                    raise BuildPipelineError(
                        f"fragment {identifier!r} was produced by two map "
                        "partitions; corpus partitions must be disjoint"
                    )
                seen.add(identifier)
                postings += len(vector)
                keywords.update(keyword for keyword, _occurrences in vector)
        return len(seen), postings, keywords

    # ------------------------------------------------------------------
    # stage 2: load
    # ------------------------------------------------------------------
    def _run_load_phase(self, workdir: str, store: FragmentStore) -> None:
        """Bulk-load the map stage's whole fragments into the store.

        Load task *r* takes every ``reduce_tasks``-th fragment spool starting
        at *r* — whole term vectors, so fragments with no postings at all
        are registered too.  Mutations only start after the attempt's
        checkpoints have passed and a bulk load validates before it writes,
        so an injected failure leaves the store untouched and the retry
        loads the identical fragments.  The tasks run in the calling thread,
        the one that owns the enclosing write batch.
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
            runner.run("load", partition, make_task(partition))

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
