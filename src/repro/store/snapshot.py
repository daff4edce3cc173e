"""Backend-independent store snapshots (build once, reuse everywhere).

A snapshot is one JSON file capturing everything a
:class:`~repro.store.FragmentStore` holds — postings, fragment sizes and the
full :class:`~repro.store.EpochClock` state.  It is
written atomically (temp file in the target directory, then ``os.replace``)
so a crash mid-write leaves the previous snapshot intact, and it restores
into *any* backend: benchmarks build a dataset once in memory, snapshot it,
and restore it into on-disk stores or cluster partitions without re-crawling.

The clock travels with the data on purpose: a serving cache stamp taken
against the snapshotted store is still meaningful against the restored one,
which is what makes snapshots usable for warm restarts and not just for
dataset seeding.

Fragment identifiers are flat tuples of JSON scalars; the file stores them
as JSON arrays and restoration coerces them back to tuples.

Snapshots deliberately carry *postings*, not posting blocks: the block
directories (summaries plus delta+varint BLOBs) are a pure function of the
sorted posting lists and fragment sizes, so restoration bulk-loads the
postings and every backend rebuilds bit-identical blocks on its own.  That keeps
``FORMAT_VERSION`` at 1 — files written before the block layout existed
restore unchanged, and block-format evolution never invalidates snapshots.  Files written while
the store still held the fragment graph carry ``nodes`` / ``edges`` sections
as well; restoration ignores them (the graph is derived from the fragments).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

FORMAT_VERSION = 1


def write_snapshot(store, path: str) -> str:
    """Serialize ``store`` to ``path`` atomically; returns the written path.

    The store is finalized first so postings land in canonical sorted order.
    """
    from repro.store.disk import check_identifier_components

    store.finalize()
    epoch, keyword_epochs, fragment_epochs = store.epochs.state()
    sizes = store.fragment_sizes()
    for identifier in sizes:
        # Same contract as the disk backend: a nested-tuple component would
        # serialize as an array and restore as an unequal list.
        check_identifier_components(identifier)
    payload = {
        "format": FORMAT_VERSION,
        "postings": [
            [keyword, [[list(p.document_id), p.term_frequency] for p in postings]]
            for keyword, postings in store.iter_items()
        ],
        "sizes": [
            [list(identifier), size] for identifier, size in sizes.items()
        ],
        "epochs": {
            "epoch": epoch,
            "keywords": [[keyword, value] for keyword, value in keyword_epochs.items()],
            "fragments": [
                [list(identifier), value] for identifier, value in fragment_epochs.items()
            ],
        },
    }
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Write-then-rename: readers (and crashes) only ever see a complete file.
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return path


def load_snapshot(
    path: str,
    store=None,
    store_path: Optional[str] = None,
):
    """Restore a snapshot into a fresh backend resolved from ``store``.

    ``store`` accepts everything :func:`repro.store.resolve_store` does
    (``None``/``"memory"``/``"disk"``/instances/factories);
    ``store_path`` is where a ``store="disk"`` restore lands its sqlite
    file (a fresh temp file when omitted).  The target must be empty —
    restoring on top of existing fragments would corrupt sizes and document
    frequencies.  The restored clock matches the snapshotted one exactly.
    """
    from repro.store import FragmentStore, StoreError, resolve_store
    from repro.store.mutations import regroup_posting_lists

    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT_VERSION:
        raise StoreError(
            f"snapshot {path!r} has format {payload.get('format')!r}, "
            f"this build reads format {FORMAT_VERSION}"
        )
    created = not isinstance(store, FragmentStore)
    target = resolve_store(store, path=store_path)
    if target.fragment_count():
        raise StoreError("snapshots must be restored into an empty store")

    try:
        # Regroup the keyword-major postings into whole fragments — the
        # sizes list registers every fragment, including postings-free ones
        # — and load them as one write batch; the exact clock state then
        # goes on top of whatever the replay ticked.
        expected_sizes = {tuple(identifier): size for identifier, size in payload["sizes"]}
        fragments = regroup_posting_lists(payload["postings"], expected_sizes)
        with target.write_batch():
            target.bulk_load(fragments.items())
            # Sizes are re-accumulated by the load; the stored values
            # double-check the size == sum(occurrences) invariant held when
            # the snapshot was written (a divergence means a corrupt or
            # edited file).
            if target.fragment_sizes() != expected_sizes:
                raise StoreError(
                    f"snapshot {path!r} is inconsistent: stored fragment sizes do not "
                    "match the sizes its postings re-accumulate to"
                )
        target.finalize()
        epochs = payload["epochs"]
        target.load_epochs(
            epochs["epoch"],
            {keyword: value for keyword, value in epochs["keywords"]},
            {tuple(identifier): value for identifier, value in epochs["fragments"]},
        )
    except BaseException:
        # A failed restore must not strand a half-populated store: close a
        # backend we created ourselves and remove its partial database file,
        # so a retry at the same store_path starts clean.  A caller-supplied
        # instance is the caller's to clean up.
        if created:
            close = getattr(target, "close", None)
            if close is not None:
                close()
            target_path = getattr(target, "path", None)
            if target_path is not None and os.path.exists(target_path):
                os.unlink(target_path)
        raise
    return target
