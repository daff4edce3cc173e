"""The serving layer: everything between HTTP and the fragment index.

* :mod:`repro.serving.service` — :class:`SearchService`: query admission,
  a versioned LRU result cache, thread-pooled ``search_many`` with
  single-flight coalescing, warm-up.
* :mod:`repro.serving.cache` — :class:`ResultCache`: LRU entries stamped with
  the store epoch and revalidated against per-keyword / per-fragment mutation
  epochs (see :mod:`repro.store.epochs`).
* :mod:`repro.serving.gateway` — :class:`SearchGateway`: the search (and
  mutation) endpoint deployable on the simulated
  :class:`~repro.webapp.server.WebServer`.
* :mod:`repro.serving.maintenance` — :class:`MaintenanceService`: the write
  side — queued mutations coalesced into background batches on a dedicated
  writer thread, fenced against search computations by a
  :class:`ReadWriteGate`.
* :mod:`repro.serving.errors` — the typed :class:`ServingError` hierarchy.

The blessed construction path is
:meth:`repro.core.engine.DashEngine.serving`, which shares the engine's
searcher — and with it the searcher's epoch-invalidated scorer cache — with
the service (and, with ``maintenance=True``, wires the write side to the
same engine).
"""

from repro.serving.cache import CachedResult, CacheStatistics, ResultCache
from repro.serving.errors import (
    InvalidParameterError,
    InvalidQueryError,
    PartialResultError,
    PartitionUnavailableError,
    ServiceClosedError,
    ServiceConfigurationError,
    ServiceStoppedError,
    ServingError,
)
from repro.serving.gateway import SearchGateway
from repro.serving.maintenance import AppliedBatch, MaintenanceService, ReadWriteGate
from repro.serving.service import AdmittedQuery, SearchService, ServingResult

__all__ = [
    "AdmittedQuery",
    "AppliedBatch",
    "CachedResult",
    "CacheStatistics",
    "InvalidParameterError",
    "InvalidQueryError",
    "MaintenanceService",
    "PartialResultError",
    "PartitionUnavailableError",
    "ReadWriteGate",
    "ResultCache",
    "SearchGateway",
    "SearchService",
    "ServiceClosedError",
    "ServiceConfigurationError",
    "ServiceStoppedError",
    "ServingError",
    "ServingResult",
]
