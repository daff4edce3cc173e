"""Pluggable fragment storage (the serving-side scale-out layer).

* :mod:`repro.store.base` — the :class:`FragmentStore` interface every
  serving structure programs against.
* :mod:`repro.store.memory` — :class:`InMemoryStore`, the single-partition
  backend (the seed implementation's dictionaries, extracted).
* :mod:`repro.store.disk` — :class:`DiskStore`, the persistent sqlite3
  backend: the crawl, the graph and the epoch clock survive process exit,
  and every ``write_batch`` is one crash-safe transaction.
* :mod:`repro.store.snapshot` — backend-independent snapshot files
  (:meth:`FragmentStore.snapshot` / :meth:`FragmentStore.from_snapshot`).
* :mod:`repro.store.epochs` — the :class:`EpochClock` every backend ticks,
  which the serving layer's caches revalidate against.
* :mod:`repro.store.mutations` — the batched write-path ops
  (:class:`ReplaceFragment` / :class:`RemoveFragment` /
  :class:`TouchFragment`) that :meth:`FragmentStore.apply_mutations`
  applies as one store operation.

:func:`resolve_store` turns the ``store=`` configuration accepted by
:class:`~repro.core.engine.DashEngine` (a name, an instance or a factory)
into a concrete backend.  A store is always a single partition; splitting a
corpus N ways is :meth:`DashEngine.cluster(nodes=..., partitions=...)
<repro.core.engine.DashEngine.cluster>`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Optional, Union

from repro.store.base import FragmentStore, StoreError
from repro.store.disk import DiskStore
from repro.store.epochs import EpochClock
from repro.store.memory import InMemoryStore
from repro.store.mutations import (
    Mutation,
    RemoveFragment,
    ReplaceFragment,
    TouchFragment,
    coalesce_mutations,
    replace_op,
)

#: What ``DashEngine.build(store=...)`` accepts.
StoreSpec = Union[None, str, FragmentStore, Callable[[], FragmentStore]]


def resolve_store(spec: StoreSpec = None, path: Optional[str] = None) -> FragmentStore:
    """Resolve a store configuration into a :class:`FragmentStore` backend.

    * ``None`` or ``"memory"`` — a fresh :class:`InMemoryStore`;
    * ``"disk"`` — a persistent :class:`DiskStore` at ``path``; without a
      ``path`` the database lands in a fresh temporary file (its location is
      the store's ``.path``);
    * a :class:`FragmentStore` instance — used as-is;
    * a zero-argument callable — called to produce the backend.

    ``path`` is only meaningful for ``"disk"``; passing it with any other
    spec is a conflicting spec and raises.
    """
    if path is not None and spec != "disk":
        raise StoreError(
            f"conflicting store spec: path={path!r} is only valid with store='disk', "
            f"got store={spec!r}"
        )
    if isinstance(spec, FragmentStore):
        return spec
    if callable(spec):
        store = spec()
        if not isinstance(store, FragmentStore):
            raise StoreError(f"store factory returned {type(store).__name__}, not a FragmentStore")
        return store
    if spec is None or spec == "memory":
        return InMemoryStore()
    if spec == "disk":
        if path is None:
            descriptor, path = tempfile.mkstemp(prefix="repro-diskstore-", suffix=".sqlite")
            os.close(descriptor)
        return DiskStore(path)
    raise StoreError(
        f"unknown store spec {spec!r}; expected 'memory', 'disk', a FragmentStore "
        "or a factory"
    )


__all__ = [
    "DiskStore",
    "EpochClock",
    "FragmentStore",
    "InMemoryStore",
    "Mutation",
    "RemoveFragment",
    "ReplaceFragment",
    "StoreError",
    "StoreSpec",
    "TouchFragment",
    "coalesce_mutations",
    "replace_op",
    "resolve_store",
]
