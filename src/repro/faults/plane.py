"""The deterministic, seedable chaos plane for serving-side fault injection.

A :class:`FaultPlane` is one registry of :class:`FaultRule`\\ s plus the
set of permanently dead nodes.  Cluster stores are wrapped with
:meth:`FaultPlane.wrap_store`, which intercepts exactly the query-time read
surface (block directories, posting/size/term batches and their single-item
forms, snapshot cuts) and consults the plane before delegating; a matching rule
then injects a latency spike (sleep), a transient error burst
(:class:`NodeFault`), or permanent node death (:class:`NodeDown` from that
call on, until :meth:`FaultPlane.revive_node`).

The chaos vocabulary is shared with the build pipeline on purpose: every
injected error is a :class:`~repro.mapreduce.errors.TaskFailure` subclass —
the one exception class the PR 8 :class:`~repro.mapreduce.runtime.TaskRunner`
retries — and :meth:`FaultPlane.failure_injector` adapts the plane to the
``(phase, task_index, attempt)`` injector contract of
:class:`~repro.mapreduce.runtime.RetryPolicy`, so one seeded plane can
fault a distributed build *and* the cluster serving it.

Determinism: rule counters are keyed per ``(rule, node, operation)`` and
``probability`` rules draw from one seeded :class:`random.Random` under the
plane lock.  Counter-triggered rules (``nth``/``every``) fire at exactly
the same per-copy call numbers on every run; probability rules are
reproducible for a fixed call *order*, which concurrent fan-out does not
guarantee — chaos suites that assert byte-parity should therefore use
counter rules and :meth:`FaultPlane.kill_node`, and keep probability rules
for availability-style measurements.
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mapreduce.errors import TaskFailure

#: Store methods the wrapper routes through the plane: the whole query-time
#: read surface plus ``snapshot`` (so replica catch-up and rebalancing from
#: a dead copy fail like any other read of it).  Matching is by name: a
#: single-item read (``postings``, ``fragment_size``, ...) is defined once in
#: :class:`~repro.store.FragmentStore` on top of its batched form, and the
#: proxy consults the plane under the name the caller used, once — the inner
#: store's delegation to its own batched read goes around the proxy.
INTERCEPTED_OPERATIONS: Tuple[str, ...] = (
    "postings",
    "postings_for_many",
    "posting_blocks_for_many",
    "fragment_frequency",
    "document_frequencies",
    "term_frequency",
    "fragment_term_frequencies",
    "fragment_term_frequencies_for",
    "fragment_size",
    "fragment_sizes_for",
    "snapshot",
)


class FaultError(TaskFailure):
    """Base class of every injected fault (a retryable TaskFailure)."""


class NodeFault(FaultError):
    """A transient injected failure of one node operation (crash, burst)."""


class NodeDown(FaultError):
    """The node is permanently dead (until revived); every read fails."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* it applies and *when* it fires.

    ``kind`` — ``"error"`` (raise :class:`NodeFault`), ``"latency"`` (sleep
    ``latency_seconds``) or ``"kill"`` (mark the node dead and raise
    :class:`NodeDown`).  ``node``/``operation`` scope the rule (``None``
    matches any).  Exactly one trigger may be set: ``nth`` fires on the
    n-th matching call of each ``(node, operation)`` pair (1-based, once
    per pair), ``every`` on every n-th, ``probability`` per call with the
    plane's seeded RNG; with no trigger the rule fires on every matching
    call.  ``times`` caps total firings across the whole plane (``None``
    is unlimited; an ``nth`` rule without ``times`` still fires at most
    once per pair by construction).
    """

    kind: str
    node: Optional[str] = None
    operation: Optional[str] = None
    nth: Optional[int] = None
    every: Optional[int] = None
    probability: Optional[float] = None
    times: Optional[int] = None
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("error", "latency", "kill"):
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected 'error', 'latency' or 'kill'"
            )
        triggers = [value is not None for value in (self.nth, self.every, self.probability)]
        if sum(triggers) > 1:
            raise ValueError("a FaultRule takes at most one of nth/every/probability")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.kind == "latency" and self.latency_seconds <= 0.0:
            raise ValueError("latency rules need latency_seconds > 0")


class _RuleState:
    """One registered rule plus its per-``(node, operation)`` call counters."""

    __slots__ = ("rule", "calls", "fired")

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.calls: Dict[Tuple[str, str], int] = {}
        self.fired = 0

    def matches(self, node_id: str, operation: str) -> bool:
        rule = self.rule
        if rule.node is not None and rule.node != node_id:
            return False
        return rule.operation is None or rule.operation == operation

    def triggered(self, node_id: str, operation: str, rng: random.Random) -> bool:
        rule = self.rule
        if rule.times is not None and self.fired >= rule.times:
            return False
        key = (node_id, operation)
        count = self.calls.get(key, 0) + 1
        self.calls[key] = count
        if rule.nth is not None:
            fire = count == rule.nth
        elif rule.every is not None:
            fire = count % rule.every == 0
        elif rule.probability is not None:
            fire = rng.random() < rule.probability
        else:
            fire = True
        if fire:
            self.fired += 1
        return fire


class FaultPlane:
    """One seeded chaos plane shared by every wrapped store (thread-safe)."""

    def __init__(self, seed: int = 0, rules: Iterable[FaultRule] = ()) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._rules: List[_RuleState] = []
        self._dead: Dict[str, bool] = {}
        self._injected: Dict[str, int] = {"error": 0, "latency": 0, "kill": 0, "dead_read": 0}
        self._operations = 0
        self._armed = False
        self._proxies: "weakref.WeakSet[FaultInjectedStore]" = weakref.WeakSet()
        self.enabled = True
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    # rule and death management
    # ------------------------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Register one rule (evaluation order = registration order)."""
        with self._lock:
            self._rules.append(_RuleState(rule))
            self._set_armed_locked(True)
        return rule

    def kill_node(self, node_id: str) -> None:
        """Mark ``node_id`` permanently dead: every wrapped read raises
        :class:`NodeDown` until :meth:`revive_node`."""
        with self._lock:
            self._dead[node_id] = True
            self._set_armed_locked(True)

    def revive_node(self, node_id: str) -> None:
        """Bring a dead node back (its store was never touched, only fenced)."""
        with self._lock:
            self._dead.pop(node_id, None)
            self._set_armed_locked(bool(self._rules or self._dead))

    def _set_armed_locked(self, armed: bool) -> None:
        """Flip the armed flag and re-point every proxy's read surface.

        While disarmed (no rules, no dead nodes) each proxy exposes the
        inner store's bound methods *directly*, so a chaos-wired but
        quiescent cluster pays nothing per read; arming swaps in the
        intercepting closures.  Caller must hold the plane lock.
        """
        if armed == self._armed:
            return
        self._armed = armed
        for proxy in self._proxies:
            proxy._apply_interception(armed)

    def _register_proxy(self, proxy: "FaultInjectedStore") -> None:
        with self._lock:
            self._proxies.add(proxy)
            proxy._apply_interception(self._armed)

    def is_dead(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently marked dead."""
        with self._lock:
            return node_id in self._dead

    # ------------------------------------------------------------------
    # the injection point
    # ------------------------------------------------------------------
    def operation(self, node_id: str, operation: str) -> None:
        """Consult the plane before one store operation on ``node_id``.

        Raises :class:`NodeDown`/:class:`NodeFault` or sleeps out a latency
        spike per the registered rules; returns normally otherwise.  Rule
        bookkeeping happens under the plane lock; the sleep itself runs
        outside it so one spiking node never stalls the others.

        A quiescent plane (no rules, no dead nodes) returns without taking
        the lock so zero-fault serving pays next to nothing per read; the
        ``operations`` counter therefore counts only calls consulted while
        the plane was armed.  Arm the plane (``add_rule`` / ``kill_node``)
        before the traffic it should fault — in-flight reads racing the
        very first rule registration may slip through unfaulted.
        """
        if not self.enabled or not self._armed:
            return
        delay = 0.0
        error: Optional[FaultError] = None
        with self._lock:
            self._operations += 1
            if node_id in self._dead:
                self._injected["dead_read"] += 1
                raise NodeDown(f"node {node_id!r} is down (operation {operation!r})")
            for state in self._rules:
                if not state.matches(node_id, operation):
                    continue
                if not state.triggered(node_id, operation, self._rng):
                    continue
                kind = state.rule.kind
                self._injected[kind] += 1
                if kind == "kill":
                    self._dead[node_id] = True
                    raise NodeDown(
                        f"node {node_id!r} killed by fault rule (operation {operation!r})"
                    )
                if kind == "latency":
                    delay += state.rule.latency_seconds
                elif error is None:
                    error = NodeFault(
                        f"injected fault on node {node_id!r} (operation {operation!r})"
                    )
        if delay:
            time.sleep(delay)
        if error is not None:
            raise error

    def wrap_store(self, node_id: str, store: Any) -> "FaultInjectedStore":
        """A store proxy whose read surface consults this plane first."""
        return FaultInjectedStore(self, node_id, store)

    def failure_injector(self) -> Callable[[str, int, int], None]:
        """This plane as a PR 8 build-side failure injector.

        The returned callable satisfies the
        :data:`~repro.mapreduce.runtime.FailureInjector` contract: each
        attempt maps to one plane operation on the pseudo-node
        ``"{phase}[{task_index}]"`` with the phase as the operation name,
        so the same rule grammar (nth-call, probability, per-node) drives
        build-task faults — and every injected error is a
        :class:`~repro.mapreduce.errors.TaskFailure` the runner retries.
        """

        def inject(phase: str, task_index: int, attempt: int) -> None:
            del attempt  # each attempt is simply the next matching call
            self.operation(f"{phase}[{task_index}]", phase)

        return inject

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, Any]:
        """Injection counters, dead nodes and per-rule firing counts."""
        with self._lock:
            return {
                "seed": self.seed,
                "enabled": self.enabled,
                "armed": self._armed,
                "operations": self._operations,
                "injected": dict(self._injected),
                "dead_nodes": sorted(self._dead),
                "rules": [
                    {
                        "kind": state.rule.kind,
                        "node": state.rule.node,
                        "operation": state.rule.operation,
                        "fired": state.fired,
                    }
                    for state in self._rules
                ],
            }


def _intercept(plane: FaultPlane, node_id: str, operation: str, inner_method: Any):
    # Bind everything once at wrap time: a query makes many store reads, so
    # the per-call cost of this closure (one plane consult + the delegated call) is the whole
    # zero-fault overhead of chaos-wiring a cluster.
    plane_operation = plane.operation

    def method(*args: Any, **kwargs: Any) -> Any:
        plane_operation(node_id, operation)
        return inner_method(*args, **kwargs)

    method.__name__ = operation
    method.__qualname__ = f"FaultInjectedStore.{operation}"
    method.__doc__ = f"``{operation}`` routed through the fault plane, then delegated."
    return method


class FaultInjectedStore:
    """A delegating store proxy with the plane in front of its read surface.

    Only the operations in :data:`INTERCEPTED_OPERATIONS` consult the
    plane; everything else — writes, epoch metadata, lifecycle — delegates
    untouched via ``__getattr__``, so building, populating and closing a
    wrapped store behave exactly like the bare backend.  Interception is
    itself armed lazily: while the plane has no rules and no dead nodes the
    proxy's read methods *are* the inner store's bound methods (zero
    per-call cost), and the plane re-points them at the consulting closures
    the moment it arms.  The proxy is not a
    :class:`~repro.store.FragmentStore` subclass on purpose: it must never
    be handed to code that *creates* stores (snapshot restore targets are
    restored bare and wrapped afterwards).
    """

    def __init__(self, plane: FaultPlane, node_id: str, inner: Any) -> None:
        self._plane = plane
        self._node_id = node_id
        self._inner = inner
        self._raw_methods: Dict[str, Any] = {}
        self._intercepted_methods: Dict[str, Any] = {}
        for operation in INTERCEPTED_OPERATIONS:
            inner_method = getattr(inner, operation, None)
            if inner_method is not None:
                self._raw_methods[operation] = inner_method
                self._intercepted_methods[operation] = _intercept(
                    plane, node_id, operation, inner_method
                )
        plane._register_proxy(self)

    def _apply_interception(self, armed: bool) -> None:
        """Point the read surface at the intercepting closures or, while the
        plane is quiescent, at the inner store's bound methods directly."""
        methods = self._intercepted_methods if armed else self._raw_methods
        for operation, method in methods.items():
            object.__setattr__(self, operation, method)

    @property
    def fault_node_id(self) -> str:
        """Which node's chaos rules this copy is subject to."""
        return self._node_id

    @property
    def inner_store(self) -> Any:
        """The wrapped backend (escape hatch for lifecycle bookkeeping)."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjectedStore({self._node_id!r}, {self._inner!r})"
