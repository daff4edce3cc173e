"""One benchmark run: build, warm up, load, check, report.

``run(workload, seed, seconds, trace)`` is the whole protocol.  With
``trace`` off it measures the end-to-end metrics; with it on it makes one
untraced and one traced pass over the same fixed request list (the per-layer
numbers and the tracing overhead), then the two-client phase B, the open-loop
phase C and, on the write workload, the update burst.  Answers are recorded
during the run and compared with the reference afterwards, off the clock.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster import QueryRouter, TermStatsCache
from repro.core.incremental import IncrementalMaintainer
from repro.core.search import SearchStream, TopKSearcher
from repro.datasets.workloads import zipf_mutation_stream
from repro.serving import ReadWriteGate, ResultCache, SearchGateway, SearchService
from repro.store import DiskStore, InMemoryStore
from repro.store.blocks import KeywordBlocks
from repro.webapp.server import WebServer

from e2ebench import corpus
from e2ebench.loadgen import (
    PhaseResult,
    RequestStream,
    closed_loop,
    open_loop,
    percentile,
    quiet,
)
from e2ebench.tracing import Span, Tracer, export, layer_totals
from e2ebench.workloads import Reference, System, Workload

#: Shares of ``--seconds``.  The untraced run spends all of it in phase A
#: (closed loop, 1 client), after a lead-in on the write workload; the traced
#: run adds phase B (closed loop, 2 clients) and phase C (open loop) to its
#: fixed-count passes.
LEAD_IN, PHASE_B, PHASE_C = 0.2, 0.3, 0.4
ZIPF_SKEW = 1.1
#: Updates generated for the write workload; a run submits a few hundred.
MUTATIONS = 2000

#: The store's read surface on the search path.  Point reads are timed on
#: the disk backend only: in memory they are dictionary lookups that cost
#: less than the two clock reads a span needs, and a search makes thousands.
BATCHED_READS = ("posting_blocks_for_many", "fragment_sizes_for", "fragment_term_frequencies_for")
POINT_READS = ("fragment_size", "neighbors")


class UpdateFeeder:
    """Submits a mutation stream open-loop at a fixed rate, from load threads.

    The hook :meth:`at_rate` returns is called by a load thread between
    requests and submits every update that has come due; each is timed from
    its *due* time to the resolution of its ``AppliedBatch`` ticket, so a
    reader that picked the update up late does not hide the delay.
    """

    def __init__(self, maintenance: Any, updates: Sequence[Any]) -> None:
        self._maintenance = maintenance
        self._updates = list(updates)
        self._lock = threading.Lock()
        self.submitted = 0
        self.latencies: List[float] = []
        self.failed = 0

    def take(self, count: int) -> List[Any]:
        """The next ``count`` updates, for the caller to submit itself."""
        with self._lock:
            taken = self._updates[self.submitted:self.submitted + count]
            del self._updates[self.submitted:self.submitted + count]
        if len(taken) < count:
            raise RuntimeError("the mutation stream ran out of updates")
        return taken

    def _submit(self, due: float) -> None:
        with self._lock:
            if self.submitted == len(self._updates):
                raise RuntimeError("the mutation stream ran out of updates")
            update = self._updates[self.submitted]
            self.submitted += 1
        ticket = self._maintenance.submit(update)
        ticket.add_done_callback(partial(self._resolved, due))

    def _resolved(self, due: float, ticket: Any) -> None:
        if ticket.exception() is not None:
            self.failed += 1
        else:
            self.latencies.append(time.perf_counter() - due)

    def at_rate(self, rate: float) -> Callable[[float], None]:
        """A between-requests hook: every update that has come due at
        ``rate`` per second, the first one gap from now."""
        origin = time.perf_counter()
        schedule = threading.Lock()
        sent = 0

        def hook(now: float) -> None:
            nonlocal sent
            with schedule:
                while origin + (sent + 1) / rate <= now:
                    sent += 1
                    self._submit(origin + sent / rate)

        return hook


class Run:
    """State of one run of one workload (see :func:`run`)."""

    def __init__(self, workload: Workload, seed: int, seconds: float, outdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.outdir = outdir
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.phases: Dict[str, Dict[str, Any]] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.recorded: Dict[int, Any] = {}
        self.recording = True
        self.final_answers: Dict[int, Any] = {}
        self.spans_file: Optional[str] = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def build(self, repeats: int) -> None:
        """Set the system up ``repeats`` times; keep the last, time them all."""
        self.workdir = tempfile.mkdtemp(prefix="tmp-", dir=self.outdir)
        times: List[float] = []
        for attempt in range(repeats):
            directory = os.path.join(self.workdir, f"setup{attempt}")
            os.makedirs(directory)
            started = time.perf_counter()
            system = System(self.workload, directory)
            times.append(time.perf_counter() - started)
            if attempt < repeats - 1:
                system.close()
                shutil.rmtree(directory)
                del system
                gc.collect()
        self.system = system
        self.metrics["setup_s"] = statistics.median(times)
        self.samples["setup_s"] = len(times)

        workload = self.workload
        frequencies = system.document_frequencies()
        self.pool = corpus.query_pool(frequencies, workload.pool_size)
        system.use_pool(self.pool)
        if workload.zipf_block:
            block = corpus.zipf_block(len(self.pool), workload.zipf_block, ZIPF_SKEW)
        else:
            block = list(range(len(self.pool)))
        self.block = block
        self.stream = RequestStream(block, self.seed)
        rng = random.Random(self.seed)
        candidates = corpus.distinct(block)
        self.probes = rng.sample(candidates, min(workload.probes, len(candidates)))
        self.final_probes = rng.sample(candidates, min(workload.final_probes, len(candidates)))
        self._probe_set = frozenset(self.probes)
        self.feeder: Optional[UpdateFeeder] = None
        if workload.maintenance:
            # Generated before any mutation: the stream clones the records
            # the relation holds now.  More than either run can submit.
            updates = zipf_mutation_stream(
                system.database, "comment", MUTATIONS, skew=ZIPF_SKEW, seed=self.seed
            ).updates
            self.feeder = UpdateFeeder(system.service.maintenance, updates)

    def send(self, index: int) -> bool:
        """The load generator's request: one search through the entry point."""
        answer = self.system.answer(index)
        if self.recording and index in self._probe_set:
            self.recorded[index] = answer
        return not (isinstance(answer, str) and answer.startswith("INCOMPLETE"))

    def note(self, phase: PhaseResult) -> PhaseResult:
        self.phases[phase.name] = phase.summary()
        self.attempted += phase.sent
        self.failed += phase.failed
        if phase.failed:
            self.errors.append(f"phase {phase.name}: {phase.failed} of {phase.sent} requests failed")
        return phase

    def warm_up(self, indices: Sequence[int]) -> None:
        """Fill the caches and finish lazy set-up, then record every probe
        once while the data is still as built."""
        self.fixed_pass("warm-up", indices, 0, None)
        for index in self.probes:
            if index not in self.recorded:
                self.send(index)
        # On the write workload answers move with the data from here on.
        self.recording = self.feeder is None

    # ------------------------------------------------------------------
    # the untraced run: end-to-end metrics
    # ------------------------------------------------------------------
    def end_to_end(self) -> None:
        workload, metrics, samples = self.workload, self.metrics, self.samples
        self.build(workload.setup_repeats)
        self.warm_up(self.stream.take(len(self.block)))
        between = None
        if self.feeder is not None:
            # One unmeasured pass with the updates already arriving: the hit
            # ratio settles from "everything cached" to its level under writes.
            between = self.feeder.at_rate(workload.update_rate)
            lead_in = LEAD_IN * self.seconds
            self.note(closed_loop("lead-in", self.send, self.stream, lead_in, 1, between))

        one = self.note(closed_loop("A", self.send, self.stream, self.seconds, 1, between))
        metrics["search_qps"] = one.throughput
        metrics["search_p50_ms"] = one.latency_ms(0.50)
        metrics["search_p95_ms"] = one.latency_ms(0.95)
        samples["search_qps"] = samples["search_p50_ms"] = samples["search_p95_ms"] = one.succeeded

        self.settle_updates()
        self.final_checks()
        self.open_cycles()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def settle_updates(self) -> None:
        """Wait for every submitted update; count them and their failures."""
        if self.feeder is None:
            return
        self.system.service.maintenance.flush()
        self.attempted += self.feeder.submitted
        self.failed += self.feeder.failed
        if self.feeder.failed:
            self.errors.append(f"{self.feeder.failed} updates failed")

    def final_checks(self) -> None:
        """After writes: fresh answers from the mutated system, compared
        with a reference re-derived from the mutated database."""
        for index in self.final_probes:
            self.final_answers[index] = self.system.answer(index)

    def open_cycles(self) -> None:
        """N x (re-attach -> first search -> close) with one fixed query, so
        the cycles repeat one piece of work; their quiet quartile."""
        system = self.system
        postings = sum(system.document_frequencies().values())
        system.shut()
        # At rest: a cleanly closed sqlite file has absorbed its write-ahead log.
        self.metrics["index_bytes_per_posting"] = system.index_bytes() / postings
        index = self.block[0]  # fixed by the workload, not the seed
        opens: List[float] = []
        firsts: List[float] = []
        answers = set()
        for _ in range(self.workload.open_cycles):
            gc.collect()  # the previous cycle's garbage is not this cycle's cost
            started = time.perf_counter()
            system.reopen()
            system.use_pool(self.pool)
            opened = time.perf_counter()
            answer = system.answer(index)
            finished = time.perf_counter()
            system.shut()
            opens.append(opened - started)
            firsts.append(finished - opened)
            answers.add(answer)
        if len(answers) > 1:
            self.errors.append("re-attached systems answered one query differently")
        self.final_answers[index] = answer
        self.metrics["open_ms"] = 1000.0 * quiet(opens)
        self.metrics["first_search_ms"] = 1000.0 * quiet(firsts)
        self.samples["open_ms"] = self.samples["first_search_ms"] = len(opens)

    # ------------------------------------------------------------------
    # the traced run: per-layer metrics
    # ------------------------------------------------------------------
    def per_layer(self) -> None:
        workload, metrics = self.workload, self.metrics
        self.build(1)
        indices = self.stream.take(workload.traced_requests)
        updates = workload.traced_updates
        # Three passes over the same requests: the first is the warm-up, so
        # the untraced and the traced pass both start from "just served this
        # list once" and do the same work.
        self.warm_up(indices)
        untraced = self.fixed_pass("untraced", indices, updates, None)
        tracer = Tracer()
        before = self.counters()
        self.install(tracer)
        try:
            traced = self.fixed_pass("traced", indices, updates, tracer)
        finally:
            tracer.restore()
        after = self.counters()
        spans = tracer.spans()
        delta = {key: after[key] - before[key] for key in after}
        delta["store.write.ops"] = tracer.sums.get("store.write.apply_mutations", 0.0)
        self.layer_metrics(spans, traced, delta)
        metrics["client.trace_overhead_ratio"] = (
            traced.throughput / untraced.throughput if untraced.throughput else 0.0
        )

        between = None
        if self.feeder is not None:
            self.feeder.latencies.clear()
            between = self.feeder.at_rate(workload.update_rate)
        two = self.note(
            closed_loop("B", self.send, self.stream, PHASE_B * self.seconds, 2, between)
        )
        metrics["client.c2_qps"] = two.throughput
        self.samples["client.c2_qps"] = two.succeeded
        opened = self.note(
            open_loop(
                "C",
                self.send,
                self.stream,
                workload.open_rate,
                PHASE_C * self.seconds,
                self.seed,
                between,
            )
        )
        limit = workload.open_limit_ms / 1000.0
        missed = opened.failed + sum(1 for latency in opened.latencies if latency > limit)
        metrics["client.open_p50_ms"] = opened.latency_ms(0.50)
        metrics["client.open_p95_ms"] = opened.latency_ms(0.95)
        metrics["client.open_miss_ratio"] = missed / opened.sent if opened.sent else 0.0
        metrics["client.late_p95_ms"] = 1000.0 * percentile(sorted(opened.lateness), 0.95)
        self.samples["client.open_p95_ms"] = opened.succeeded

        self.settle_updates()
        self.write_metrics()
        self.build_metrics()
        self.final_checks()
        self.export_spans(spans)
        self.system.shut()

    def fixed_pass(
        self, name: str, indices: Sequence[int], updates: int, tracer: Optional[Tracer]
    ) -> PhaseResult:
        """One client over ``indices``; on the write workload ``updates``
        updates are interleaved at fixed positions, each awaited before the
        next read, so the pass does the same thing in every run."""
        pending = self.feeder.take(updates) if self.feeder is not None and updates else []
        stride = max(1, len(indices) // (len(pending) + 1))
        maintenance = self.system.service.maintenance if pending else None

        def send(index: int) -> bool:
            if tracer is None:
                return self.send(index)
            with tracer.request("client"):
                return self.send(index)

        result = PhaseResult(name, 1)
        started = time.perf_counter()
        for position, index in enumerate(indices):
            if pending and position % stride == stride - 1:
                update = pending.pop()
                self.attempted += 1
                try:
                    if tracer is None:
                        maintenance.submit(update).result()
                    else:
                        with tracer.request("client.update"):
                            maintenance.submit(update).result()
                except Exception as error:
                    self.failed += 1
                    self.errors.append(f"update failed: {error!r}")
            begun = time.perf_counter()
            try:
                succeeded = send(index)
            except Exception:
                succeeded = False
            result.sent += 1
            if succeeded:
                result.latencies.append(time.perf_counter() - begun)
            else:
                result.failed += 1
        result.seconds = time.perf_counter() - started
        return self.note(result)

    def install(self, tracer: Tracer) -> None:
        """Wrap the public callable at every layer boundary."""
        tracer.wrap(WebServer, "get", "webapp.server")
        tracer.wrap(SearchGateway, "generate_page", "serving.gateway")
        tracer.wrap(SearchService, "search", "serving.service")
        tracer.wrap_scope(ReadWriteGate, "read", "serving.gate", enter_only=True)
        tracer.wrap(ResultCache, "get", "serving.cache")
        tracer.wrap(ResultCache, "put", "serving.cache")
        tracer.wrap(QueryRouter, "search_detailed", "cluster.router")
        tracer.wrap(TermStatsCache, "lookup", "cluster.stats")
        tracer.wrap(TopKSearcher, "search_detailed", "core.search")
        tracer.wrap(TopKSearcher, "stream", "core.search")
        tracer.wrap(SearchStream, "next_results", "core.search")
        tracer.wrap(SearchStream, "bound_key", "core.search")
        tracer.wrap(KeywordBlocks, "decode", "store.blocks")
        tracer.wrap(IncrementalMaintainer, "apply_updates", "core.incremental")
        on_disk = self.workload.store == "disk"
        backend = DiskStore if on_disk else InMemoryStore
        for name in BATCHED_READS + (POINT_READS if on_disk else ()):
            tracer.wrap(backend, name, "store.read")
        if self.workload.maintenance:
            tracer.wrap_scope(backend, "write_batch", "store.write")
            tracer.wrap(backend, "apply_mutations", "store.write", tally=float)

    def counters(self) -> Dict[str, float]:
        """The product's own counters, flattened (differenced around a pass)."""
        system = self.system
        flat: Dict[str, float] = {}
        if system.service is None:
            search = system.engine.searcher.lifetime_statistics()
        else:
            statistics_ = system.service.statistics()
            search = statistics_["search"]
            for key in ("queries", "computed", "coalesced"):
                flat[f"service.{key}"] = statistics_[key]
            for key in ("hits", "misses", "stale_drops", "evictions"):
                flat[f"cache.{key}"] = statistics_["cache"][key]
            for key, value in statistics_.get("maintenance", {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    flat[f"maintenance.{key}"] = value
            if self.workload.cluster_nodes:
                for key in ("hits", "misses"):
                    flat[f"stats.{key}"] = system.service.cluster.router.term_stats.statistics()[key]
        for key, value in search.items():
            flat[f"search.{key}"] = value
        return flat

    def layer_metrics(
        self, spans: List[Span], traced: PhaseResult, delta: Dict[str, float]
    ) -> None:
        metrics = self.metrics
        layers = layer_totals(spans)
        requests = max(1, traced.sent)
        roots = [span for span in spans if span.layer == "client"]
        batches = [span for span in spans if span.layer == "client.update"]

        def self_ms(layer: str, per: int = requests) -> float:
            return 1000.0 * layers.get(layer, {}).get("self_seconds", 0.0) / per

        def total_ms(layer: str, per: int = requests) -> float:
            return 1000.0 * layers.get(layer, {}).get("seconds", 0.0) / per

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        root_seconds = sum(span.end - span.start for span in roots)
        metrics["client.request_ms"] = 1000.0 * root_seconds / requests
        metrics["client.self_ms"] = self_ms("client")
        self.samples["client.request_ms"] = len(roots)
        metrics["webapp.server.self_ms"] = self_ms("webapp.server")
        metrics["serving.gateway.self_ms"] = self_ms("serving.gateway")
        metrics["serving.service.self_ms"] = self_ms("serving.service")
        metrics["serving.service.gate_wait_ms"] = total_ms("serving.gate")
        metrics["serving.service.computed_ratio"] = ratio(
            delta.get("service.computed", 0), delta.get("service.queries", 0)
        )
        metrics["serving.service.coalesced"] = delta.get("service.coalesced", 0)
        hits, misses = delta.get("cache.hits", 0), delta.get("cache.misses", 0)
        updates = delta.get("maintenance.updates_applied", 0)
        metrics["serving.cache.self_ms"] = self_ms("serving.cache")
        metrics["serving.cache.hit_ratio"] = ratio(hits, hits + misses)
        metrics["serving.cache.evictions"] = delta.get("cache.evictions", 0)
        metrics["serving.cache.stale_drops"] = delta.get("cache.stale_drops", 0)
        metrics["serving.cache.stale_drops_per_update"] = ratio(
            delta.get("cache.stale_drops", 0), updates
        )

        applied = delta.get("maintenance.batches_applied", 0)
        per_batch = max(1, int(applied))
        apply_seconds = layers.get("core.incremental", {}).get("seconds", 0.0)
        ticket_seconds = sum(span.end - span.start for span in batches)
        metrics["serving.maintenance.queue_wait_ms"] = (
            1000.0 * max(0.0, ticket_seconds - apply_seconds) / per_batch if batches else 0.0
        )
        metrics["serving.maintenance.apply_ms"] = total_ms("core.incremental", per_batch)
        metrics["serving.maintenance.batch_size_mean"] = ratio(updates, applied)
        metrics["serving.maintenance.busy_ratio"] = ratio(
            delta.get("maintenance.apply_seconds", 0.0), traced.seconds
        )
        metrics["serving.maintenance.failed_batches"] = delta.get("maintenance.failed_batches", 0)
        metrics["core.incremental.self_ms"] = self_ms("core.incremental", per_batch)
        metrics["core.incremental.fragments_touched_per_update"] = ratio(
            delta.get("maintenance.fragments_touched", 0), updates
        )
        metrics["store.write.busy_ms"] = self_ms("store.write", per_batch)
        metrics["store.write.ops_per_batch"] = ratio(
            delta["store.write.ops"], applied
        )

        searches = delta.get("search.searches", 0)
        clustered = bool(self.workload.cluster_nodes)
        metrics["cluster.router.self_ms"] = self_ms("cluster.router")
        metrics["cluster.router.submits_per_query"] = ratio(
            delta.get("search.fanout_submits", 0), searches
        )
        for counter in (
            "nodes_queried",
            "partials_merged",
            "partials_discarded",
            "partitions_pruned",
            "failovers",
        ):
            # Router-filled; a single-store searcher carries the fields at 0.
            metrics[f"cluster.router.{counter}"] = (
                delta.get(f"search.{counter}", 0) if clustered else 0
            )
        metrics["cluster.stats.lookup_ms"] = self_ms("cluster.stats")
        metrics["cluster.stats.df_hit_ratio"] = ratio(
            delta.get("stats.hits", 0), delta.get("stats.hits", 0) + delta.get("stats.misses", 0)
        )
        metrics["core.search.self_ms"] = self_ms("core.search")
        for counter in (
            "seeds_scored",
            "pruned_dequeues",
            "dequeues",
            "expansions",
            "pruned_expansions",
        ):
            metrics[f"core.search.{counter}"] = delta.get(f"search.{counter}", 0)
        metrics["store.blocks.decode_ms"] = self_ms("store.blocks")
        for counter in ("blocks_decoded", "blocks_skipped", "postings_decoded"):
            metrics[f"store.blocks.{counter}"] = delta.get(f"search.{counter}", 0)
        metrics["store.read.calls"] = layers.get("store.read", {}).get("calls", 0)
        metrics["store.read.busy_ms"] = self_ms("store.read")

        # Single-store spans all nest on the client thread, so the layers'
        # self times must add up to the root spans; kept for the smoke test.
        self.self_seconds = sum(layer["self_seconds"] for layer in layers.values())
        self.root_seconds = root_seconds + ticket_seconds

    def write_metrics(self) -> None:
        """Update latency beside reads (phase C) and the burst drain rate."""
        metrics, workload = self.metrics, self.workload
        latencies = sorted(self.feeder.latencies) if self.feeder is not None else []
        metrics["update_apply_p50_ms"] = 1000.0 * percentile(latencies, 0.50)
        metrics["update_apply_p90_ms"] = 1000.0 * percentile(latencies, 0.90)
        self.samples["update_apply_p90_ms"] = len(latencies)
        metrics["update_drain_ups"] = 0.0
        if self.feeder is None or not workload.drain_burst:
            return
        maintenance = self.system.service.maintenance
        burst = self.feeder.take(workload.drain_burst)
        started = time.perf_counter()
        tickets = [maintenance.submit(update) for update in burst]
        maintenance.flush()
        elapsed = time.perf_counter() - started
        failed = sum(1 for ticket in tickets if ticket.exception() is not None)
        self.attempted += len(burst)
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} burst updates failed")
        metrics["update_drain_ups"] = len(burst) / elapsed
        self.samples["update_drain_ups"] = len(burst)

    def build_metrics(self) -> None:
        metrics, report = self.metrics, self.system.build_report
        pipeline = report.pipeline
        metrics["core.fragment_graph.build_s"] = report.graph.build_seconds
        metrics["build.pipeline.map_s"] = pipeline.map_seconds if pipeline else 0.0
        metrics["build.pipeline.reduce_s"] = pipeline.reduce_seconds if pipeline else 0.0
        metrics["build.pipeline.load_s"] = pipeline.load_seconds if pipeline else 0.0
        metrics["build.pipeline.merge_s"] = pipeline.merge_seconds if pipeline else 0.0
        metrics["build.pipeline.retries"] = sum(pipeline.retries.values()) if pipeline else 0
        # build_distributed = pipeline + graph; everything else in setup_s is
        # corpus generation and wiring.
        metrics["build_fps"] = (
            pipeline.fragments / (pipeline.total_seconds + report.graph.build_seconds)
            if pipeline
            else 0.0
        )

    def export_spans(self, spans: List[Span]) -> None:
        # One file per workload, overwritten: a traced run writes megabytes.
        self.spans_file = os.path.join(self.outdir, f"spans-{self.workload.name}.json")
        with open(self.spans_file, "w", encoding="utf-8") as handle:
            json.dump(export(spans), handle)

    # ------------------------------------------------------------------
    # correctness, off the clock
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Compare every recorded answer with the independent reference."""
        system = self.system
        reference = Reference(self.workload)
        self.compare(reference, self.recorded, "probe")
        if self.feeder is not None:
            # Writes happened: later answers are checked against a reference
            # re-derived from the database as the updates left it.
            reference = Reference(self.workload, database=system.database)
        self.compare(reference, self.final_answers, "final")

    def compare(self, reference: Reference, answers: Dict[int, Any], label: str) -> None:
        for index, answer in answers.items():
            self.attempted += 1
            if answer != self.system.expected(reference.search(self.pool[index])):
                self.failed += 1
                self.errors.append(f"{label} answer differs for {' '.join(self.pool[index])!r}")

    def cleanup(self) -> None:
        system = getattr(self, "system", None)
        if system is not None:
            try:
                system.close()
            except Exception:  # already shut; the directory goes either way
                pass
        shutil.rmtree(getattr(self, "workdir", ""), ignore_errors=True)


def run(workload: Workload, seed: int, seconds: float, trace: bool, outdir: str) -> Run:
    """Run ``workload`` once and return the finished :class:`Run`."""
    os.makedirs(outdir, exist_ok=True)
    state = Run(workload, seed, seconds, outdir)
    try:
        if trace:
            state.per_layer()
        else:
            state.end_to_end()
        state.check()
    finally:
        state.cleanup()
    return state
