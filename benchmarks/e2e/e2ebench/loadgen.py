"""The load generator: seeded request streams, closed and open loops.

Never more than two load threads (the sandbox has two cores).  A closed loop
sends a client's next request when the previous one completed; the open loop
replays one seeded arrival schedule through two workers, with no generator
thread, and times every request from when it was *due* — so a stall is
charged to every request that queued behind it.

A closed-loop phase is a whole number of *passes* over one fixed block of
requests.  Every pass does the same work, so each yields its own throughput
and percentiles, and the phase reports their quiet quartile (see
:func:`quiet`): a second of interference from the shared box then spoils
one pass, not the run.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``send(request_index)`` performs one request and returns whether it
#: succeeded; an exception counts as a failure too.
Send = Callable[[int], bool]

#: Called by a load thread after each request with the current time; the
#: mixed workload uses it to submit the updates that have come due.
Between = Optional[Callable[[float], None]]


class RequestStream:
    """Endless seeded passes over one fixed block of request indices.

    The block (which queries, how often) belongs to the workload; the seed
    only decides the order within each pass.  Keeping the multiset fixed is
    what makes two seeds comparable: they do the same work in another order.
    """

    def __init__(self, block: Sequence[int], seed: int) -> None:
        self._block = list(block)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._pass: List[int] = []
        self._passes = 0

    def restart(self) -> None:
        """Drop the rest of the current pass and number the next one 0."""
        with self._lock:
            self._pass = []
            self._passes = 0

    def next_in_pass(
        self, may_start: Optional[Callable[[int], bool]] = None
    ) -> Optional[Tuple[int, int]]:
        """``(pass number, request index)`` of the next request.

        Before dealing the first request of a new pass ``may_start(passes
        dealt so far)`` is asked; if it refuses, the stream yields ``None``.
        """
        with self._lock:
            if not self._pass:
                if may_start is not None and not may_start(self._passes):
                    return None
                self._pass = self._block[:]
                self._rng.shuffle(self._pass)
                self._passes += 1
            return self._passes - 1, self._pass.pop()

    def next(self) -> int:
        return self.next_in_pass()[1]

    def take(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def quiet(durations: Sequence[float]) -> float:
    """The lower quartile of repeated timings of the same work.

    Interference on a shared box only ever adds time, and it comes in
    episodes of about a second, so among a run's repetitions (passes,
    re-attach cycles) the quieter ones are the product's cost.  Measured
    on this sandbox, the lower quartile of one commit's repetitions moved
    a quarter as much from run to run as their median did.
    """
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=4, method="inclusive")[0]


@dataclass
class PhaseResult:
    """What one load phase sent and how long each success took."""

    name: str
    clients: int
    seconds: float = 0.0
    sent: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)  # seconds, successes only
    lateness: List[float] = field(default_factory=list)  # open loop: pick-up delay
    #: Closed loop: ``(seconds, latencies of its successes)`` of every pass.
    passes: List[Tuple[float, List[float]]] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def throughput(self) -> float:
        """Closed loop: requests per pass over the quiet pass time;
        otherwise successes over the whole phase's seconds."""
        per_request = [seconds / len(done) for seconds, done in self.passes if done]
        if per_request:
            return 1.0 / quiet(per_request)
        return self.succeeded / self.seconds if self.seconds > 0 else 0.0

    def latency_ms(self, fraction: float) -> float:
        """Closed loop: the quiet quartile over passes of each pass's
        percentile; otherwise the percentile of the whole phase."""
        samples = [done for _, done in self.passes if done] or [self.latencies]
        return 1000.0 * quiet([percentile(sorted(done), fraction) for done in samples])

    def summary(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "seconds": self.seconds,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "pass_seconds": [seconds for seconds, _ in self.passes],
        }


def _attempt(send: Send, index: int) -> bool:
    try:
        return bool(send(index))
    except Exception:  # a raised request is a failed request, not a crash
        return False


def _run_clients(workers: Sequence[Callable[[], None]]) -> None:
    """One worker runs on the calling thread; a second gets its own thread."""
    threads = [threading.Thread(target=worker, name="e2e-client") for worker in workers[1:]]
    for thread in threads:
        thread.start()
    workers[0]()
    for thread in threads:
        thread.join()


def closed_loop(
    name: str,
    send: Send,
    stream: RequestStream,
    seconds: float,
    clients: int = 1,
    between: Between = None,
) -> PhaseResult:
    """``clients`` (1 or 2) closed-loop clients for about ``seconds`` seconds.

    The phase is a whole number of passes over ``stream``: a new pass starts
    only if, at the pace so far, at least half of it fits before the deadline.
    """
    if clients not in (1, 2):
        raise ValueError("the load generator runs one or two clients")
    result = PhaseResult(name, clients)
    merge = threading.Lock()
    #: (pass number, completed at, latency or None if the request failed)
    records: List[Tuple[int, float, Optional[float]]] = []
    stream.restart()
    started = time.perf_counter()

    def may_start(dealt: int) -> bool:
        elapsed = time.perf_counter() - started
        return dealt == 0 or elapsed + 0.5 * elapsed / dealt < seconds

    def client() -> None:
        mine: List[Tuple[int, float, Optional[float]]] = []
        while True:
            drawn = stream.next_in_pass(may_start)
            if drawn is None:
                break
            number, index = drawn
            begun = time.perf_counter()
            succeeded = _attempt(send, index)
            now = time.perf_counter()
            mine.append((number, now, now - begun if succeeded else None))
            if between is not None:
                between(now)
        with merge:
            records.extend(mine)

    _run_clients([client] * clients)
    result.seconds = time.perf_counter() - started
    result.sent = len(records)
    by_pass: Dict[int, List[Tuple[float, Optional[float]]]] = {}
    for number, completed, latency in records:
        by_pass.setdefault(number, []).append((completed, latency))
        if latency is None:
            result.failed += 1
        else:
            result.latencies.append(latency)
    # Passes are dealt in order, so pass i ends when its last request does
    # and pass i+1 is charged from that moment: durations add up to the phase.
    ended = started
    for number in sorted(by_pass):
        requests = by_pass[number]
        last = max(completed for completed, _ in requests)
        done = [latency for _, latency in requests if latency is not None]
        result.passes.append((last - ended, done))
        ended = last
    return result


def open_loop(
    name: str,
    send: Send,
    stream: RequestStream,
    rate: float,
    seconds: float,
    seed: int,
    between: Between = None,
) -> PhaseResult:
    """Poisson arrivals at ``rate``/s for ``seconds``; two workers, no generator.

    Latency runs from each request's due time; ``lateness`` records how long
    after its due time a worker picked the request up.
    """
    rng = random.Random(seed)
    schedule: List[float] = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        schedule.append(clock)
        clock += rng.expovariate(rate)
    indices = stream.take(len(schedule))
    result = PhaseResult(name, 2)
    merge = threading.Lock()
    ticket = itertools.count()
    started = time.perf_counter()

    def worker() -> None:
        latencies: List[float] = []
        lateness: List[float] = []
        sent = failed = 0
        while True:
            position = next(ticket)
            if position >= len(schedule):
                break
            due = started + schedule[position]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            begun = time.perf_counter()
            succeeded = _attempt(send, indices[position])
            now = time.perf_counter()
            sent += 1
            lateness.append(max(0.0, begun - due))
            if succeeded:
                latencies.append(now - due)
            else:
                failed += 1
            if between is not None:
                between(now)
        with merge:
            result.sent += sent
            result.failed += failed
            result.latencies.extend(latencies)
            result.lateness.extend(lateness)

    _run_clients([worker, worker])
    result.seconds = time.perf_counter() - started
    return result
