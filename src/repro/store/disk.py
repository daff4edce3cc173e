"""The persistent on-disk backend (sqlite3, standard library only).

:class:`DiskStore` keeps the entire serving state — keyword postings,
fragment sizes, graph nodes, adjacency *and* the store's
:class:`~repro.store.EpochClock` — in one sqlite database file, so a crawl
survives process exit: a restarted server re-attaches with
``DiskStore(path)`` (or :meth:`repro.core.engine.DashEngine.open`) and
serves exactly the results it served before, without re-crawling, and with
cache stamps handed out before the restart still comparing correctly
against mutations applied after it.

Consistency model
-----------------

There is one write protocol: **every write runs inside a**
:meth:`DiskStore.write_batch` **scope, and the scope's exit is the only
commit.**  A bare write call (``bulk_load``, ``apply_mutations``, a
graph-section write) opens a scope of its own; loops that issue many —
the crawl load, graph construction, snapshot restore, a maintenance round
with its graph updates — open one around themselves.  Everything staged
inside a scope commits as a single sqlite transaction (WAL mode,
``synchronous=NORMAL``): a crash or a raise loses the whole batch, never
half, so a fragment is never half-replaced on disk, and a WAL reader — in
this process or another — sees the batch exactly at its commit boundary.
The clock is write-through: the epoch rows for everything the batch touched
land in ``meta`` / ``keyword_epochs`` / ``fragment_epochs`` inside that same
transaction, the in-memory clock ticks once, after the commit, and the
persisted state is restored into it on open — reads stay dict-fast, restarts
stay exact.  Between scopes the write connection holds no open transaction.

Single-writer multi-process serving
-----------------------------------

One process opens the file with ``exclusive_writer=True`` (an advisory
lock on ``<path>.writer-lock`` makes a second writer fail fast) and owns
every mutation; any number of other processes open it with
``read_only=True`` and serve WAL snapshot reads.  A reader process calls
:meth:`refresh_epochs` to pull the epochs the writer committed — cheap
when nothing changed — after which its serving caches invalidate exactly
like the writer's own.  Sweep bounds persist in ``meta`` so a reader that
re-syncs after a tombstone sweep retires everything it stamped before the
sweep instead of trusting the pruned rows.

Identifiers are flat tuples of scalars (strings, numbers, booleans,
``None``); they are stored JSON-encoded, together with the ``str()`` form
the posting sort order tie-breaks on, so ``ORDER BY occurrences DESC, tie``
reproduces the canonical inverted-list order byte for byte.

Block layout (schema v2)
------------------------

Schema v2 replaces the row-per-posting table with the block-max layout of
:mod:`repro.store.blocks`: each keyword's impact-ordered list is stored as
``posting_blocks`` rows — one delta+varint BLOB per :data:`~repro.store.blocks.BLOCK_SIZE`
postings, with the block's ``count`` / ``max_occurrences`` / ``max_weight``
summary alongside as plain columns so a document-frequency or weight-ceiling
read touches only the tiny directory.  A per-fragment varint
forward index (``fragment_terms``) replaces the old ``fragment`` column
scans.  Mutations never rewrite blocks in place: they append to a
``staged_postings`` log (plus a ``pending_removals`` set), and **the
commit compacts first** — the affected keywords' blocks are rebuilt
from stored-minus-removed plus staged under the canonical sort, inside the
same transaction.  A *committed* file therefore always has an empty staged
log and fully fresh block summaries: pooled readers decode blocks without
ever merging, and the stored ``max_weight`` values are bit-identical to
what the in-memory backends compute fresh (cross-backend partition bounds
stay equal).  A file stamped with any other schema version is
refused with a :class:`~repro.store.StoreError` on open.

Thread-safety and the read-connection pool
------------------------------------------

Writes go through one shared connection guarded by an
:class:`~threading.RLock` (sqlite serializes writers anyway).  Reads do
**not** share it: every reader thread lazily opens its own read-only
connection (``PRAGMA query_only=ON``) the first time it touches the store
and keeps it for the thread's life, so concurrent serving-layer readers —
``SearchService.search_many`` workers, cluster partition streams — run
their SQL genuinely in parallel under WAL instead of convoying behind one
lock.  ``close()`` closes the write connection *and* every pooled reader.

One read path falls back to the locked write connection on purpose: the
thread that owns the open ``write_batch`` must see the rows it staged, which
only the writing connection can.  (A store that never sees a second thread
only ever creates the one pooled reader, so the single-threaded cost is one
extra ``connect``.)

Hot reads are additionally cached in memory with epoch validation:
keyword -> postings and fragment -> size entries are stamped with the
store epoch and revalidated against the clock per lookup, so a warm
searcher reads dictionaries, not SQL, until maintenance actually touches
the data it cached.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.fragments import FragmentId
from repro.store.base import FragmentStore, StoreError
from repro.store.blocks import (
    BLOCK_SIZE,
    BlockSummary,
    KeywordBlocks,
    build_summaries,
    decode_block,
    decode_uvarint,
    encode_block,
    encode_uvarint,
)
from repro.store.mutations import (
    RemoveFragment,
    ReplaceFragment,
    TouchFragment,
    normalize_mutations,
    replace_op,
    term_vector,
)
from repro.text.inverted_index import Posting

try:  # POSIX advisory locks back the single-writer mode; absent on Windows
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Bump when the table layout changes; stored in ``PRAGMA user_version``.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS fragments (
    id   TEXT PRIMARY KEY,
    size INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS posting_blocks (
    keyword         TEXT NOT NULL,
    block_no        INTEGER NOT NULL,
    count           INTEGER NOT NULL,
    max_occurrences INTEGER NOT NULL,
    max_weight      REAL NOT NULL,
    entries         BLOB NOT NULL,
    PRIMARY KEY (keyword, block_no)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS fragment_terms (
    fragment TEXT PRIMARY KEY,
    terms    BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS staged_postings (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    keyword     TEXT NOT NULL,
    fragment    TEXT NOT NULL,
    tie         TEXT NOT NULL,
    occurrences INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS staged_by_keyword ON staged_postings (keyword, occurrences DESC, tie);
CREATE INDEX IF NOT EXISTS staged_by_fragment ON staged_postings (fragment);
CREATE TABLE IF NOT EXISTS pending_removals (
    fragment TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS nodes (
    id            TEXT PRIMARY KEY,
    keyword_count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS edges (
    src TEXT NOT NULL,
    dst TEXT NOT NULL,
    PRIMARY KEY (src, dst)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS keyword_epochs (
    keyword TEXT PRIMARY KEY,
    epoch   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS fragment_epochs (
    fragment TEXT PRIMARY KEY,
    epoch    INTEGER NOT NULL
);
"""


#: Identifier component types that survive the JSON round trip unchanged.
SCALAR_COMPONENT_TYPES = (str, int, float, bool, type(None))


def check_identifier_components(identifier: FragmentId) -> None:
    """Reject identifiers whose components would not round-trip through JSON.

    Identifiers are flat tuples of scalars by contract; a nested tuple would
    *serialize* fine (json writes it as an array) but decode as a list —
    an unequal, unhashable value that would brick the store on reopen.
    Failing the write keeps the file always reopenable.
    """
    for component in identifier:
        if not isinstance(component, SCALAR_COMPONENT_TYPES):
            raise StoreError(
                f"fragment identifier {identifier!r} has non-scalar component "
                f"{component!r} ({type(component).__name__}); persistent stores "
                "require flat tuples of str/int/float/bool/None"
            )


def encode_identifier(identifier: FragmentId) -> str:
    """One fragment identifier as a canonical JSON string (the row key)."""
    check_identifier_components(identifier)
    return json.dumps(list(identifier), separators=(",", ":"))


def decode_identifier(encoded: str) -> FragmentId:
    """The inverse of :func:`encode_identifier`."""
    return tuple(json.loads(encoded))


def encode_fragment_terms(vector: Mapping[str, int]) -> bytes:
    """One fragment's term vector as a varint BLOB.

    Each ``keyword -> occurrences`` entry is ``varint(len) + utf-8 +
    varint(occurrences)``, in the mapping's order, with no count header.
    """
    out = bytearray()
    for keyword, occurrences in vector.items():
        raw = keyword.encode("utf-8")
        encode_uvarint(len(raw), out)
        out += raw
        encode_uvarint(occurrences, out)
    return bytes(out)


def decode_fragment_terms(blob: bytes) -> Dict[str, int]:
    """The ``keyword -> occurrences`` vector of one ``fragment_terms`` BLOB."""
    vector: Dict[str, int] = {}
    position = 0
    end = len(blob)
    while position < end:
        length, position = decode_uvarint(blob, position)
        raw = blob[position : position + length]
        if len(raw) != length:
            raise ValueError("truncated fragment term keyword")
        position += length
        occurrences, position = decode_uvarint(blob, position)
        vector[raw.decode("utf-8")] = occurrences
    return vector


class DiskStore(FragmentStore):
    """All serving state in one sqlite database file.

    ``path`` — the database file; created (with parent directories) when
    missing unless ``create=False``, in which case opening a non-existent
    path raises :class:`~repro.store.StoreError` (the ``DashEngine.open``
    re-attach path, where silently creating an empty store would mask a
    typo'd path as an empty dataset).

    ``read_only`` — open in the multi-process *reader* role: every
    connection is ``PRAGMA query_only``, write methods raise
    :class:`~repro.store.StoreError`, and :meth:`refresh_epochs` re-syncs
    the in-memory clock with mutations another process committed.  WAL
    readers see each committed writer transaction atomically, so a reader
    process never observes half of an applied mutation batch.

    ``exclusive_writer`` — take the single-writer role: a POSIX advisory
    lock on ``<path>.writer-lock`` is held for the store's life, so a second
    process asking for the writer role fails fast instead of interleaving
    transactions.  The lock dies with the process (no stale-lock cleanup
    after a crash).
    """

    def __init__(
        self,
        path: str,
        create: bool = True,
        read_only: bool = False,
        exclusive_writer: bool = False,
    ) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.read_only = read_only
        existed = os.path.exists(self.path)
        if read_only and exclusive_writer:
            raise StoreError("a read-only disk store cannot take the writer role")
        if not existed and (not create or read_only):
            raise StoreError(f"no disk store at {self.path!r} (create=False)")
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._writer_lock_fd: Optional[int] = None
        if exclusive_writer:
            self._acquire_writer_lock()
        self._lock = threading.RLock()
        # One shared *write* connection: sqlite serializes writers anyway,
        # and the RLock keeps its cursor use race-free.  Reads go through a
        # per-thread read-only pool (see _read_connection).
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._pool_lock = threading.Lock()
        # (owning thread, connection) pairs: the thread reference is what
        # lets _read_connection reclaim connections whose thread exited.
        self._pooled_readers: List[Tuple[threading.Thread, sqlite3.Connection]] = []
        self._thread_reader = threading.local()
        self._closed = False
        # Atomic-batch bookkeeping (see write_batch): depth of nested batch
        # scopes, the thread that owns the open batch, and the keywords/
        # fragments it touched, whose single deferred tick is the batch's
        # in-process commit point.
        self._batch_depth = 0
        self._batch_owner: Optional[threading.Thread] = None
        self._batch_keywords: Set[str] = set()
        self._batch_fragments: Dict[str, FragmentId] = {}
        # Keywords whose posting_blocks rows are stale relative to the
        # open batch's staged log; _compact() rebuilds exactly these before
        # the commit.  In-memory only on purpose: a crash or a rollback
        # discards the uncommitted staged rows wholesale, back to the last
        # commit's fully compacted file.
        self._dirty_keywords: Set[str] = set()
        # Highest persisted meta epoch whose commits the loaded clock views
        # are known to cover (see refresh_epochs).
        self._refreshed_meta_epoch = 0
        try:
            if read_only:
                # The reader role never writes: query_only enforces it at
                # the SQL layer (while still participating in WAL locking,
                # which a mode=ro URI open could not on a missing -shm).
                self._connection.execute("PRAGMA query_only=ON")
            else:
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=NORMAL")
            # A writer checkpointing (or a reader racing one) may find the
            # file briefly busy in multi-process serving; wait, don't throw.
            self._connection.execute("PRAGMA busy_timeout=5000")
            self._ensure_schema(existed)
            # Decoded-identifier memo (encoded text -> tuple) plus
            # epoch-validated read caches: hot keywords and hot fragment
            # sizes skip the SQL round-trip until their epoch moves.  Guarded
            # by their own lock so pooled readers never serialize behind the
            # write lock.
            self._decoded: Dict[str, FragmentId] = {}
            self._cache_lock = threading.Lock()
            self._postings_cache: Dict[str, Tuple[int, Tuple[Posting, ...]]] = {}
            self._sizes_cache: Dict[FragmentId, Tuple[int, int]] = {}
            self._neighbors_cache: Dict[FragmentId, Tuple[int, Tuple[FragmentId, ...]]] = {}
            # Block directories are validated against the *store-wide*
            # epoch, not the keyword epoch: a fragment-size change stales a
            # block's max_weight without ticking the keyword, and the store
            # epoch is the one stamp that moves on every mutation (same rule
            # the in-memory backends apply to their block directories).
            self._blocks_cache: Dict[str, Tuple[int, KeywordBlocks]] = {}
            self._restore_clock()
        except BaseException:
            # A failed open (schema mismatch, corrupt file) must not leave the
            # connection dangling — the caller may want to delete or rebuild
            # the file, which a held lock would block on some platforms.
            self._connection.close()
            self._release_writer_lock()
            raise

    # ------------------------------------------------------------------
    # schema / lifecycle
    # ------------------------------------------------------------------
    @property
    def writer_lock_path(self) -> str:
        """The advisory lock file backing the exclusive-writer role."""
        return self.path + ".writer-lock"

    def _acquire_writer_lock(self) -> None:
        descriptor = os.open(self.writer_lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    raise StoreError(
                        f"another process already owns writes to {self.path!r} "
                        f"(writer lock {self.writer_lock_path!r} is held)"
                    ) from None
            os.ftruncate(descriptor, 0)
            os.write(descriptor, str(os.getpid()).encode("ascii"))
        except BaseException:
            os.close(descriptor)
            raise
        self._writer_lock_fd = descriptor

    def _release_writer_lock(self) -> None:
        descriptor, self._writer_lock_fd = self._writer_lock_fd, None
        if descriptor is not None:
            # Closing drops the flock; the lock file itself stays behind (a
            # successor writer locks the same inode, so no unlink race).
            os.close(descriptor)

    def _assert_writable(self) -> None:
        if self.read_only:
            raise StoreError(
                f"disk store {self.path!r} was opened read-only; writes belong "
                "to the process holding the writer role"
            )

    def _ensure_schema(self, existed: bool) -> None:
        with self._lock:
            version = self._connection.execute("PRAGMA user_version").fetchone()[0]
            if existed and version not in (0, SCHEMA_VERSION):
                raise StoreError(
                    f"disk store {self.path!r} uses schema version {version}, "
                    f"this build reads version {SCHEMA_VERSION}"
                )
            if self.read_only:
                # A reader cannot create what is missing.
                if version != SCHEMA_VERSION:
                    raise StoreError(
                        f"disk store {self.path!r} holds no readable "
                        f"version-{SCHEMA_VERSION} schema (open it with a "
                        "writer once to build it)"
                    )
                return
            self._connection.executescript(_SCHEMA)
            self._connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._connection.commit()

    def _write_keyword_blocks(
        self,
        keyword: str,
        entries: List[Tuple[str, int]],
        sizes: Mapping[str, int],
    ) -> None:
        """Replace one keyword's ``posting_blocks`` rows.

        ``entries`` is the keyword's complete inverted list in canonical
        order as ``(encoded identifier, occurrences)`` pairs; ``sizes`` maps
        encoded identifiers to *current* fragment sizes.  The summaries are
        built through the shared :func:`~repro.store.blocks.build_summaries`
        over exactly these values, so the stored ``max_weight`` floats are
        bit-identical to what the in-memory backends compute fresh.
        """
        connection = self._connection
        connection.execute("DELETE FROM posting_blocks WHERE keyword = ?", (keyword,))
        if not entries:
            return
        postings = tuple(Posting(encoded, occurrences) for encoded, occurrences in entries)
        summaries = build_summaries(postings, lambda encoded: sizes.get(encoded, 0))
        rows = []
        start = 0
        for block_no, summary in enumerate(summaries):
            chunk = postings[start : start + summary.count]
            start += summary.count
            rows.append(
                (
                    keyword,
                    block_no,
                    summary.count,
                    summary.max_occurrences,
                    summary.max_weight,
                    encode_block(chunk, lambda encoded: encoded),
                )
            )
        connection.executemany(
            "INSERT INTO posting_blocks "
            "(keyword, block_no, count, max_occurrences, max_weight, entries) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _read_clock_state(self):
        """The persisted clock state ``(epoch, keywords, fragments, floor)``
        or ``None`` when the file has never been stamped."""
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'epoch'"
            ).fetchone()
            if row is None:
                return None
            bound = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'sweep_bound'"
            ).fetchone()
            keywords = {
                keyword: epoch
                for keyword, epoch in self._connection.execute(
                    "SELECT keyword, epoch FROM keyword_epochs"
                )
            }
            fragments = {
                self._decode(encoded): epoch
                for encoded, epoch in self._connection.execute(
                    "SELECT fragment, epoch FROM fragment_epochs"
                )
            }
        return int(row[0]), keywords, fragments, int(bound[0]) if bound else 0

    def _restore_clock(self) -> None:
        state = self._read_clock_state()
        if state is None:
            return
        epoch, keywords, fragments, floor = state
        self._epoch_clock.load(epoch, keywords, fragments, floor=floor)
        # Everything committed up to this meta epoch is reflected in the
        # loaded views (they were read after it) — the refresh_epochs
        # short-circuit compares against this coverage mark, never against
        # the possibly-ahead clock epoch.
        self._refreshed_meta_epoch = epoch

    def refresh_epochs(self) -> bool:
        """Re-sync the in-memory clock with mutations committed by another
        process (the reader half of the single-writer protocol).

        Cheap when nothing changed: one ``meta`` row read.  When the
        persisted store epoch (or sweep bound) moved past what this process
        has already loaded, the fine-grained views are reloaded wholesale
        and the method returns ``True`` — every cache revalidating against
        this store then drops exactly the entries the writer's batches
        touched, and the restored sweep floor retires anything stamped
        before a sweep this process never witnessed.  The writer's own
        store is trivially current, so calling this there is a no-op.
        """
        row = self._execute_read("SELECT value FROM meta WHERE key = 'epoch'")
        persisted = int(row[0][0]) if row else 0
        bound_row = self._execute_read("SELECT value FROM meta WHERE key = 'sweep_bound'")
        persisted_floor = int(bound_row[0][0]) if bound_row else 0
        clock = self._epoch_clock
        # Compare against the *coverage mark* (the meta epoch whose commits
        # the loaded views provably include), never the clock epoch itself:
        # a commit racing the previous reload can leave the clock rounded
        # ahead of a view (see below), and short-circuiting on the clock
        # would then skip that commit's epochs forever.
        if persisted <= self._refreshed_meta_epoch and persisted_floor <= clock.floor:
            return False
        keywords = dict(self._execute_read("SELECT keyword, epoch FROM keyword_epochs"))
        fragments = {
            self._decode(encoded): epoch
            for encoded, epoch in self._execute_read(
                "SELECT fragment, epoch FROM fragment_epochs"
            )
        }
        # Each SELECT above is its own WAL snapshot, so a commit landing
        # between them can make a fine-grained view newer than the meta
        # epoch read first; taking the maximum keeps the restored clock
        # self-consistent (epochs only grow, so rounding up is safe).  The
        # views were read *after* the meta row, so they cover every commit
        # up to ``persisted`` — that, not the rounded-up epoch, is the next
        # short-circuit bound.
        epoch = max([persisted, clock.epoch, *keywords.values(), *fragments.values()])
        clock.load(epoch, keywords, fragments, floor=persisted_floor)
        self._refreshed_meta_epoch = persisted
        return True

    def close(self) -> None:
        """Close every sqlite connection.

        Closes the write connection *and* all pooled read connections (no
        file descriptor outlives the store).  Nothing is pending outside a
        :meth:`write_batch` scope, so there is nothing to flush.  Idempotent;
        reads after ``close()`` raise :class:`sqlite3.ProgrammingError`.
        """
        with self._pool_lock:
            already_closed = self._closed
            self._closed = True
            pooled, self._pooled_readers = self._pooled_readers, []
        for _thread, connection in pooled:
            connection.close()
        if not already_closed:
            with self._lock:
                self._connection.close()
            self._release_writer_lock()

    @property
    def pooled_reader_count(self) -> int:
        """Number of per-thread read connections currently open."""
        with self._pool_lock:
            return len(self._pooled_readers)

    def drop_read_caches(self) -> int:
        """Evict the in-memory postings/size caches (benchmark cold starts).

        Returns the number of entries dropped.  Purely a diagnostics hook:
        the caches are epoch-validated, so correctness never requires this.
        """
        with self._cache_lock:
            dropped = (
                len(self._postings_cache)
                + len(self._sizes_cache)
                + len(self._neighbors_cache)
                + len(self._blocks_cache)
            )
            self._postings_cache = {}
            self._sizes_cache = {}
            self._neighbors_cache = {}
            self._blocks_cache = {}
        return dropped

    def _read_connection(self) -> Optional[sqlite3.Connection]:
        """This thread's pooled read-only connection.

        ``None`` for the thread that owns the open :meth:`write_batch`: its
        staged rows are only visible to the connection that wrote them, and
        its own maintenance logic (graph surgery over fragments the batch
        already removed) depends on them, so the owner reads through the
        write connection (locked).  Every other thread keeps using its
        pooled snapshot connection while a batch is open — the staged rows
        must stay invisible until the batch commits, so a racing reader sees
        the complete pre-batch state, never a torn one.
        """
        if self._in_owned_batch():
            return None
        connection = getattr(self._thread_reader, "connection", None)
        if connection is None:
            with self._pool_lock:
                if self._closed:
                    raise StoreError(f"disk store {self.path!r} is closed")
                # Reclaim connections whose owning thread exited — the
                # thread-local reference died with the thread, but this list
                # would otherwise keep their sqlite fds open forever under
                # thread churn (thread-per-request servers, repeated
                # SearchService pools).  Churn always brings new reader
                # threads through here, so sweeps keep pace with deaths.
                surviving = []
                for thread, pooled in self._pooled_readers:
                    if thread.is_alive():
                        surviving.append((thread, pooled))
                    else:
                        pooled.close()
                self._pooled_readers = surviving
                # check_same_thread=False only so close() (and the sweep
                # above) can close pooled readers from whatever thread runs
                # them; reads still use each connection from its owner.
                connection = self._connect_reader()
                self._pooled_readers.append((threading.current_thread(), connection))
            self._thread_reader.connection = connection
        return connection

    def _connect_reader(self) -> sqlite3.Connection:
        """Open + configure one pooled read-only connection, with retry.

        ``busy_timeout`` only protects statements on an *established*
        connection — the connect itself (and the PRAGMAs before the timeout
        is installed) can still hit a writer holding the file lock and
        raise ``sqlite3.OperationalError: database is locked``.  Those are
        retried within the same ~5 s budget the busy handler would have
        granted; any other operational error propagates immediately.
        """
        deadline = time.monotonic() + 5.0  # mirrors PRAGMA busy_timeout=5000
        while True:
            connection = None
            try:
                connection = sqlite3.connect(self.path, check_same_thread=False)
                connection.execute("PRAGMA query_only=ON")
                connection.execute("PRAGMA busy_timeout=5000")
                return connection
            except sqlite3.OperationalError as error:
                if connection is not None:
                    connection.close()
                message = str(error).lower()
                transient = "locked" in message or "busy" in message
                if not transient or time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)
            except BaseException:
                if connection is not None:
                    connection.close()
                raise

    def _execute_read(self, sql: str, parameters: Tuple = ()) -> List[Tuple]:
        """Run one SELECT on this thread's pooled reader (or, for the owner
        of the open batch, on the locked write connection) and fetch all rows."""
        connection = self._read_connection()
        if connection is None:
            with self._lock:
                return self._connection.execute(sql, parameters).fetchall()
        return connection.execute(sql, parameters).fetchall()

    def __enter__(self) -> "DiskStore":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # encoding / clock write-through
    # ------------------------------------------------------------------
    def _decode(self, encoded: str) -> FragmentId:
        identifier = self._decoded.get(encoded)
        if identifier is None:
            identifier = decode_identifier(encoded)
            self._decoded[encoded] = identifier
        return identifier

    def _persist_epoch(self) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('epoch', ?)",
            (str(self._epoch_clock.epoch),),
        )

    def _in_owned_batch(self) -> bool:
        """Whether the calling thread owns the currently-open write batch.

        The owner's reads must see the batch's staged rows (and must skip
        the epoch-validated caches, whose entries still describe pre-batch
        state under an unticked clock); every other thread reads the
        pre-batch snapshot.
        """
        return bool(self._batch_depth) and self._batch_owner is threading.current_thread()

    def _compact(self) -> None:
        """Fold the staged write log into the block tables (no commit).

        :meth:`write_batch` runs this before its commit, so a *committed*
        file is always fully block-compacted: ``staged_postings`` and
        ``pending_removals`` are empty on disk after any commit, pooled
        readers decode blocks without merging, and every stored per-block
        ``max_weight`` reflects the fragment sizes as of the commit —
        bit-identical to the in-memory backends' fresh computation, which
        keeps partition bounds equal across backends.
        """
        if not self._dirty_keywords:
            return
        connection = self._connection
        removed = {
            encoded
            for (encoded,) in connection.execute("SELECT fragment FROM pending_removals")
        }
        dirty = sorted(self._dirty_keywords)
        staged: Dict[str, List[Tuple[str, int, str]]] = {}
        merged: Dict[str, List[Tuple[str, int]]] = {}
        for start in range(0, len(dirty), self._IN_CHUNK):
            chunk = dirty[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            for keyword, encoded, occurrences, tie in connection.execute(
                f"SELECT keyword, fragment, occurrences, tie FROM staged_postings "
                f"WHERE keyword IN ({placeholders}) "
                "ORDER BY keyword, occurrences DESC, tie ASC, seq ASC",
                tuple(chunk),
            ).fetchall():
                staged.setdefault(keyword, []).append((encoded, occurrences, tie))
            for keyword, blob in connection.execute(
                f"SELECT keyword, entries FROM posting_blocks "
                f"WHERE keyword IN ({placeholders}) ORDER BY keyword, block_no",
                tuple(chunk),
            ).fetchall():
                kept = merged.setdefault(keyword, [])
                for posting in decode_block(blob, lambda encoded: encoded):
                    if posting.document_id not in removed:
                        kept.append((posting.document_id, posting.term_frequency))
        for keyword, additions in staged.items():
            # Stable merge under the canonical (occurrences DESC, tie,
            # insertion) order: stored entries precede staged ones at equal
            # keys, exactly as their lower v1-style sequence numbers would.
            combined = [
                (encoded, occurrences, str(self._decode(encoded)))
                for encoded, occurrences in merged.get(keyword, [])
            ]
            combined.extend(additions)
            combined.sort(key=lambda entry: (-entry[1], entry[2]))
            merged[keyword] = [(encoded, occurrences) for encoded, occurrences, _tie in combined]
        members = sorted({
            encoded for entries in merged.values() for encoded, _occurrences in entries
        })
        sizes: Dict[str, int] = {}
        for start in range(0, len(members), self._IN_CHUNK):
            chunk = members[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            sizes.update(
                connection.execute(
                    f"SELECT id, size FROM fragments WHERE id IN ({placeholders})",
                    tuple(chunk),
                ).fetchall()
            )
        for keyword in dirty:
            self._write_keyword_blocks(keyword, merged.get(keyword, []), sizes)
        # Dirty marking is exhaustive (every staged row / removal marks its
        # keywords), so the whole log is folded now.
        connection.execute("DELETE FROM staged_postings")
        connection.execute("DELETE FROM pending_removals")
        self._dirty_keywords = set()

    @contextlib.contextmanager
    def write_batch(self):
        """One crash-safe transaction for every write issued inside the scope.

        The store's only commit protocol: every write method — postings,
        graph section and the build pipeline's loaders alike — runs inside a
        scope, and a bare call opens its own.

        * data writes stage on the write connection and **commit once**, at
          scope exit, compacted first (:meth:`_compact`); a crash loses the
          whole batch, never half of it;
        * the epoch write-through for everything the batch touched lands in
          that same transaction (one predicted epoch for the batch);
        * the in-memory clock ticks once, *after* the commit — in-process
          readers mid-batch read the pre-batch WAL snapshot under pre-batch
          stamps, and the post-commit tick retires whatever they cached;
        * reader processes see the batch exactly at the WAL commit boundary.

        Nested scopes are allowed (``apply_mutations`` inside a maintenance
        round); only the outermost commits.  Raising out of the scope rolls
        the entire batch back to the last commit — the deferred tick means
        the in-memory clock never saw it either.
        """
        self._assert_writable()
        with self._lock:
            if self._batch_depth:
                self._batch_depth += 1
                try:
                    yield self
                finally:
                    self._batch_depth -= 1
                return
            self._batch_depth = 1
            self._batch_owner = threading.current_thread()
            keywords: Set[str] = set()
            fragments: Dict[str, FragmentId] = {}
            try:
                yield self
                keywords = self._batch_keywords
                fragments = self._batch_fragments
                self._compact()
                if keywords or fragments:
                    predicted = self._epoch_clock.epoch + 1
                    self._connection.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES ('epoch', ?)",
                        (str(predicted),),
                    )
                    # Upserts, not INSERT OR REPLACE: a re-stamped row is
                    # updated in place instead of moving to a fresh rowid and
                    # leaving its old page on the freelist.
                    self._connection.executemany(
                        "INSERT INTO keyword_epochs (keyword, epoch) VALUES (?, ?) "
                        "ON CONFLICT (keyword) DO UPDATE SET epoch = excluded.epoch",
                        [(keyword, predicted) for keyword in keywords],
                    )
                    self._connection.executemany(
                        "INSERT INTO fragment_epochs (fragment, epoch) VALUES (?, ?) "
                        "ON CONFLICT (fragment) DO UPDATE SET epoch = excluded.epoch",
                        [(encoded, predicted) for encoded in fragments],
                    )
                self._connection.commit()
            except BaseException:
                # Back to the last commit: a compacted file, nothing staged.
                self._connection.rollback()
                self._dirty_keywords = set()
                raise
            finally:
                self._batch_depth = 0
                self._batch_owner = None
                self._batch_keywords = set()
                self._batch_fragments = {}
            if keywords or fragments:
                # The batch's commit point for in-process consumers: one
                # epoch for everything it touched.  The tick alone retires
                # the read caches' entries (they are epoch-validated); the
                # evictions just free them early.
                self._epoch_clock.tick_batch(keywords, fragments.values())
                with self._cache_lock:
                    for keyword in keywords:
                        self._postings_cache.pop(keyword, None)
                        self._blocks_cache.pop(keyword, None)
                    for identifier in fragments.values():
                        self._sizes_cache.pop(identifier, None)
                        self._neighbors_cache.pop(identifier, None)

    def load_epochs(
        self,
        epoch: int,
        keyword_epochs: Mapping[str, int],
        fragment_epochs: Mapping[FragmentId, int],
        floor: int = 0,
    ) -> None:
        """Restore the clock and persist the restored state (one transaction)."""
        self._assert_writable()
        self._epoch_clock.load(epoch, keyword_epochs, fragment_epochs, floor=floor)
        with self._lock:
            try:
                self._connection.execute("DELETE FROM keyword_epochs")
                self._connection.execute("DELETE FROM fragment_epochs")
                self._connection.executemany(
                    "INSERT INTO keyword_epochs (keyword, epoch) VALUES (?, ?)",
                    [(keyword, int(value)) for keyword, value in keyword_epochs.items()],
                )
                self._connection.executemany(
                    "INSERT INTO fragment_epochs (fragment, epoch) VALUES (?, ?)",
                    [
                        (encode_identifier(identifier), int(value))
                        for identifier, value in fragment_epochs.items()
                    ],
                )
                self._persist_epoch()
                self._connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('sweep_bound', ?)",
                    (str(int(floor)),),
                )
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise

    def sweep_epochs(self, oldest_live_stamp: int) -> int:
        """Prune tombstones in memory and on disk (one transaction).

        The applied bound is persisted as the file's ``sweep_bound``, so a
        reader process syncing its clock with :meth:`refresh_epochs` learns
        that entries below it were pruned and retires anything it stamped
        before the sweep instead of trusting the missing rows.
        """
        self._assert_writable()
        bound = self._effective_sweep_bound(oldest_live_stamp)
        pruned = self._epoch_clock.sweep(bound)
        with self._lock:
            try:
                self._connection.execute(
                    "DELETE FROM keyword_epochs WHERE epoch <= ?", (bound,)
                )
                self._connection.execute(
                    "DELETE FROM fragment_epochs WHERE epoch <= ?", (bound,)
                )
                self._connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('sweep_bound', ?)",
                    (str(self._epoch_clock.floor),),
                )
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise
        return pruned

    # ------------------------------------------------------------------
    # postings section — writes
    # ------------------------------------------------------------------
    # Nothing here rewrites a posting block in place: new postings append to
    # the ``staged_postings`` log, removed fragments join
    # ``pending_removals``, the touched keywords join the dirty set, and the
    # enclosing write_batch compacts before it commits.  What a write
    # touched is recorded in the batch sets, whose single deferred tick is
    # the batch's in-process commit point.
    def _delete_fragment_rows(self, encoded: str, identifier: FragmentId) -> None:
        """Stage one stored fragment's removal (a no-op when it is unknown)."""
        connection = self._connection
        if not connection.execute("DELETE FROM fragments WHERE id = ?", (encoded,)).rowcount:
            return
        row = connection.execute(
            "SELECT terms FROM fragment_terms WHERE fragment = ?", (encoded,)
        ).fetchone()
        keywords = decode_fragment_terms(row[0]) if row is not None else ()
        connection.execute(
            "INSERT OR IGNORE INTO pending_removals (fragment) VALUES (?)", (encoded,)
        )
        connection.execute("DELETE FROM staged_postings WHERE fragment = ?", (encoded,))
        connection.execute("DELETE FROM fragment_terms WHERE fragment = ?", (encoded,))
        self._dirty_keywords.update(keywords)
        self._batch_keywords.update(keywords)
        self._batch_fragments[encoded] = identifier

    def _insert_fragment_rows(self, fragments) -> None:
        """Stage whole fragments that hold no rows (new, or just deleted).

        ``fragments`` yields ``(encoded, identifier, pairs)`` with canonical
        ``(keyword, occurrences)`` pairs; every fragment gets its size row —
        also at size 0 — and its term vector, every pair a staged posting.
        """
        fragment_rows: List[Tuple[str, int]] = []
        term_rows: List[Tuple[str, bytes]] = []
        staged_rows: List[Tuple[str, str, str, int]] = []
        keywords: Set[str] = set()
        for encoded, identifier, pairs in fragments:
            tie = str(identifier)
            staged_rows.extend(
                (keyword, encoded, tie, occurrences) for keyword, occurrences in pairs
            )
            size, vector = term_vector(pairs)
            fragment_rows.append((encoded, size))
            if vector:
                term_rows.append((encoded, encode_fragment_terms(vector)))
                keywords.update(vector)
            self._batch_fragments[encoded] = identifier
        connection = self._connection
        connection.executemany("INSERT INTO fragments (id, size) VALUES (?, ?)", fragment_rows)
        connection.executemany(
            "INSERT INTO fragment_terms (fragment, terms) VALUES (?, ?)", term_rows
        )
        connection.executemany(
            "INSERT INTO staged_postings (keyword, fragment, tie, occurrences) "
            "VALUES (?, ?, ?, ?)",
            staged_rows,
        )
        self._dirty_keywords.update(keywords)
        self._batch_keywords.update(keywords)

    def apply_mutations(self, batch) -> int:
        """Apply a whole replace/remove/touch batch in one transaction.

        Joins the enclosing :meth:`write_batch` (a maintenance round's graph
        updates commit with it) or opens its own.  A non-persistable
        identifier is refused before anything hashes it, and every
        identifier is encoded before the first write.
        """
        batch = list(batch)
        for op in batch:
            if isinstance(op, (ReplaceFragment, RemoveFragment, TouchFragment)):
                check_identifier_components(op.identifier)
        ops = normalize_mutations(batch)
        if not ops:
            return 0
        encoded_ids = [encode_identifier(op.identifier) for op in ops]
        with self.write_batch():
            incoming = []
            for op, encoded in zip(ops, encoded_ids):
                if isinstance(op, TouchFragment):
                    registered = self._connection.execute(
                        "INSERT OR IGNORE INTO fragments (id, size) VALUES (?, 0)", (encoded,)
                    )
                    if registered.rowcount:
                        self._batch_fragments[encoded] = op.identifier
                    continue
                self._delete_fragment_rows(encoded, op.identifier)
                if isinstance(op, ReplaceFragment):
                    incoming.append((encoded, op.identifier, op.term_frequencies))
            self._insert_fragment_rows(incoming)
        return len(ops)

    def bulk_load(self, fragments) -> int:
        """Stage whole new fragments with batched inserts.

        One ``executemany`` each into ``fragments``, ``fragment_terms`` and
        the ``staged_postings`` log; the enclosing :meth:`write_batch` (the
        load's own when called bare) folds the log into canonical posting
        blocks and ticks once.
        """
        incoming = []
        listed: Set[str] = set()
        for identifier, term_frequencies in fragments:
            op = replace_op(identifier, term_frequencies)
            encoded = encode_identifier(op.identifier)
            if encoded in listed:
                raise StoreError(f"duplicate fragment {op.identifier!r} in bulk load")
            listed.add(encoded)
            incoming.append((encoded, op.identifier, op.term_frequencies))
        with self.write_batch():
            self._assert_fragments_absent(list(listed))
            self._insert_fragment_rows(incoming)
        return len(incoming)

    def _assert_fragments_absent(self, encoded_ids: List[str]) -> None:
        for start in range(0, len(encoded_ids), self._IN_CHUNK):
            chunk = encoded_ids[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            row = self._connection.execute(
                f"SELECT id FROM fragments WHERE id IN ({placeholders}) LIMIT 1",
                tuple(chunk),
            ).fetchone()
            if row is not None:
                raise StoreError(
                    f"bulk load would duplicate stored fragment {row[0]!r}; "
                    "bulk loads require fresh fragments"
                )

    # ------------------------------------------------------------------
    # postings section — the sharded build's loaders
    # ------------------------------------------------------------------
    def bulk_load_run(self, postings, sizes) -> int:
        """Stage one sorted posting run with authoritative fragment sizes.

        The build pipeline's per-shard loader: ``postings`` is an iterable of
        ``(keyword, identifier, occurrences)`` in canonical run order —
        typically a *keyword partition*, so the run's fragments are not whole
        here — and ``sizes`` maps every member identifier to its **global**
        size (``INSERT OR REPLACE``, never accumulated), which is what keeps
        the block summaries the scope's compaction builds bit-identical to a
        whole-corpus build.  Term vectors are not touched; a merge step loads
        them separately (:meth:`bulk_load_fragment_vectors`).  Returns the
        number of staged postings.
        """
        by_encoded: Dict[str, FragmentId] = {}
        fragment_rows: List[Tuple[str, int]] = []
        for identifier, size in sizes.items():
            identifier = tuple(identifier)
            encoded = encode_identifier(identifier)
            by_encoded[encoded] = identifier
            fragment_rows.append((encoded, int(size)))
        encoded_cache: Dict[FragmentId, Tuple[str, str]] = {}
        staged_rows: List[Tuple[str, str, str, int]] = []
        keywords: Set[str] = set()
        for keyword, identifier, occurrences in postings:
            if occurrences <= 0:
                continue
            identifier = tuple(identifier)
            try:
                encoded, tie = encoded_cache[identifier]
            except KeyError:
                encoded, tie = encoded_cache.setdefault(
                    identifier, (encode_identifier(identifier), str(identifier))
                )
            staged_rows.append((keyword, encoded, tie, occurrences))
            keywords.add(keyword)
        with self.write_batch():
            self._connection.executemany(
                "INSERT INTO fragments (id, size) VALUES (?, ?) "
                "ON CONFLICT (id) DO UPDATE SET size = excluded.size",
                fragment_rows,
            )
            self._connection.executemany(
                "INSERT INTO staged_postings (keyword, fragment, tie, occurrences) "
                "VALUES (?, ?, ?, ?)",
                staged_rows,
            )
            self._dirty_keywords.update(keywords)
            self._batch_keywords.update(keywords)
            self._batch_fragments.update(by_encoded)
        return len(staged_rows)

    def bulk_load_fragment_vectors(self, fragments) -> int:
        """Write whole fragment rows — size and term vector — without postings.

        The merge step of a sharded build: the posting blocks arrive via
        :meth:`absorb_index_shard`, and this writes the authoritative
        ``fragments`` / ``fragment_terms`` rows from the pipeline's fragment
        spools (``(identifier, term_frequencies)`` pairs, whole vectors).
        ``INSERT OR REPLACE`` semantics.  Returns the number of fragments
        written.
        """
        fragment_rows: List[Tuple[str, int]] = []
        term_rows: List[Tuple[str, bytes]] = []
        by_encoded: Dict[str, FragmentId] = {}
        for identifier, term_frequencies in fragments:
            op = replace_op(identifier, term_frequencies)
            encoded = encode_identifier(op.identifier)
            size, vector = term_vector(op.term_frequencies)
            fragment_rows.append((encoded, size))
            if vector:
                term_rows.append((encoded, encode_fragment_terms(vector)))
            by_encoded[encoded] = op.identifier
        with self.write_batch():
            self._connection.executemany(
                "INSERT INTO fragments (id, size) VALUES (?, ?) "
                "ON CONFLICT (id) DO UPDATE SET size = excluded.size",
                fragment_rows,
            )
            self._connection.executemany(
                "INSERT INTO fragment_terms (fragment, terms) VALUES (?, ?) "
                "ON CONFLICT (fragment) DO UPDATE SET terms = excluded.terms",
                term_rows,
            )
            self._batch_fragments.update(by_encoded)
        return len(fragment_rows)

    def absorb_index_shard(self, path: str) -> int:
        """Copy another committed DiskStore file's posting blocks into this one.

        The fan-in step of the sharded build: each shard file holds the
        canonical, already-compacted ``posting_blocks`` rows of a disjoint
        keyword partition (built against global fragment sizes), so
        absorbing is a straight row copy — no decoding, no re-sorting, no
        re-blocking.  The shard's keywords must not already exist here, and
        the open batch must hold no staged writes for them; violating either
        raises :class:`StoreError`.  Returns the number of block rows copied.
        """
        with self.write_batch():
            source = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            try:
                staged = source.execute(
                    "SELECT (SELECT COUNT(*) FROM staged_postings) + "
                    "(SELECT COUNT(*) FROM pending_removals)"
                ).fetchone()[0]
                if staged:
                    raise StoreError(
                        f"index shard {path!r} holds {staged} uncompacted staged "
                        "writes; only a committed shard can be absorbed"
                    )
                cursor = source.execute(
                    "SELECT keyword, block_no, count, max_occurrences, max_weight, "
                    "entries FROM posting_blocks"
                )
                keywords: Set[str] = set()
                copied = 0
                while True:
                    rows = cursor.fetchmany(4096)
                    if not rows:
                        break
                    keywords.update(row[0] for row in rows)
                    if self._dirty_keywords.intersection(keywords):
                        raise StoreError(
                            "absorbing a shard over staged writes for its keywords "
                            "would fold them twice; absorb in a batch of its own"
                        )
                    try:
                        self._connection.executemany(
                            "INSERT INTO posting_blocks "
                            "(keyword, block_no, count, max_occurrences, max_weight, "
                            "entries) VALUES (?, ?, ?, ?, ?, ?)",
                            rows,
                        )
                    except sqlite3.IntegrityError as error:
                        raise StoreError(
                            f"index shard {path!r} overlaps keywords already stored "
                            "here; shards must hold disjoint keyword partitions"
                        ) from error
                    copied += len(rows)
            finally:
                source.close()
            self._batch_keywords.update(keywords)
        return copied

    # ------------------------------------------------------------------
    # postings section — reads
    # ------------------------------------------------------------------
    #: Bound variables per IN (...) chunk — stays under sqlite's default
    #: SQLITE_MAX_VARIABLE_NUMBER on every supported build.
    _IN_CHUNK = 500

    def _gather_postings(self, keywords: List[str]) -> Dict[str, Tuple[Posting, ...]]:
        """Decode the requested inverted lists from their block rows.

        On a pooled reader the committed file is always compacted (see
        :meth:`_compact`), so concatenating each keyword's blocks in
        ``block_no`` order *is* the canonical inverted list.  On the locked
        write connection (the owning thread of the open batch) the staged
        log may hold rows the blocks do not: those
        keywords merge stored-minus-removed with the staged rows under the
        canonical ``(occurrences DESC, tie, insertion)`` sort.
        """
        grouped: Dict[str, List] = {keyword: [] for keyword in keywords}
        connection = self._read_connection()
        if connection is not None:
            for start in range(0, len(keywords), self._IN_CHUNK):
                chunk = keywords[start : start + self._IN_CHUNK]
                placeholders = ",".join("?" for _ in chunk)
                for keyword, blob in connection.execute(
                    f"SELECT keyword, entries FROM posting_blocks "
                    f"WHERE keyword IN ({placeholders}) ORDER BY keyword, block_no",
                    tuple(chunk),
                ).fetchall():
                    grouped[keyword].extend(decode_block(blob, self._decode))
            return {keyword: tuple(grouped[keyword]) for keyword in keywords}
        with self._lock:
            removed = {
                encoded
                for (encoded,) in self._connection.execute(
                    "SELECT fragment FROM pending_removals"
                )
            }
            staged: Dict[str, List[Tuple[str, int, str]]] = {}
            for start in range(0, len(keywords), self._IN_CHUNK):
                chunk = keywords[start : start + self._IN_CHUNK]
                placeholders = ",".join("?" for _ in chunk)
                for keyword, blob in self._connection.execute(
                    f"SELECT keyword, entries FROM posting_blocks "
                    f"WHERE keyword IN ({placeholders}) ORDER BY keyword, block_no",
                    tuple(chunk),
                ).fetchall():
                    kept = grouped[keyword]
                    for posting in decode_block(blob, lambda encoded: encoded):
                        if posting.document_id not in removed:
                            kept.append((posting.document_id, posting.term_frequency))
                for keyword, encoded, occurrences, tie in self._connection.execute(
                    f"SELECT keyword, fragment, occurrences, tie FROM staged_postings "
                    f"WHERE keyword IN ({placeholders}) "
                    "ORDER BY keyword, occurrences DESC, tie ASC, seq ASC",
                    tuple(chunk),
                ).fetchall():
                    staged.setdefault(keyword, []).append((encoded, occurrences, tie))
            results: Dict[str, Tuple[Posting, ...]] = {}
            for keyword in keywords:
                entries = grouped[keyword]
                additions = staged.get(keyword)
                if additions:
                    combined = [
                        (encoded, occurrences, str(self._decode(encoded)))
                        for encoded, occurrences in entries
                    ]
                    combined.extend(additions)
                    # Stable: stored entries precede staged ones at equal
                    # keys (their v1-style sequence numbers were lower).
                    combined.sort(key=lambda entry: (-entry[1], entry[2]))
                    entries = [
                        (encoded, occurrences) for encoded, occurrences, _tie in combined
                    ]
                results[keyword] = tuple(
                    Posting(self._decode(encoded), occurrences)
                    for encoded, occurrences in entries
                )
            return results

    def postings_for_many(self, keywords) -> Dict[str, Tuple[Posting, ...]]:
        """All requested inverted lists in one chunked query.

        Cache hits are revalidated against each keyword's epoch; the misses
        are answered together with ``keyword IN (...)`` batches (ordered so
        each keyword's rows come back in canonical inverted-list order), one
        round-trip instead of one per query keyword.  The pre-read stamp
        makes a racing write's tick invalidate a new entry on its next
        lookup; misses are never cached (unbounded growth under hostile
        unknown keywords), and neither is anything read by the thread that
        owns the open batch — its stamp would predate the staged data.
        """
        results: Dict[str, Tuple[Posting, ...]] = {}
        missing: List[str] = []
        in_owned_batch = self._in_owned_batch()
        if in_owned_batch:
            missing = list(dict.fromkeys(keywords))
        else:
            with self._cache_lock:
                for keyword in dict.fromkeys(keywords):
                    cached = self._postings_cache.get(keyword)
                    if cached is not None and self.keyword_epoch(keyword) <= cached[0]:
                        results[keyword] = cached[1]
                        continue
                    if cached is not None:
                        self._postings_cache.pop(keyword, None)
                    missing.append(keyword)
        if not missing:
            return results
        stamp = self.epoch
        gathered = self._gather_postings(missing)
        for keyword in missing:
            result = gathered[keyword]
            if result and not in_owned_batch:
                with self._cache_lock:
                    self._postings_cache[keyword] = (stamp, result)
            results[keyword] = result
        return results

    def document_frequencies(self) -> Dict[str, int]:
        if self._read_connection() is not None:
            return dict(
                self._execute_read(
                    "SELECT keyword, SUM(count) FROM posting_blocks GROUP BY keyword"
                )
            )
        return {
            keyword: len(postings)
            for keyword, postings in self._gather_postings(list(self.vocabulary())).items()
            if postings
        }

    def fragment_term_frequencies_for(self, identifiers) -> Dict[FragmentId, Dict[str, int]]:
        """Each fragment's term vector from its forward-index BLOB (one
        chunked IN query; unknown fragments answer ``{}``)."""
        wanted = [
            (identifier, encode_identifier(identifier))
            for identifier in dict.fromkeys(identifiers)
        ]
        vectors: Dict[FragmentId, Dict[str, int]] = {}
        for start in range(0, len(wanted), self._IN_CHUNK):
            chunk = wanted[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            blobs = dict(
                self._execute_read(
                    f"SELECT fragment, terms FROM fragment_terms "
                    f"WHERE fragment IN ({placeholders})",
                    tuple(encoded for _identifier, encoded in chunk),
                )
            )
            for identifier, encoded in chunk:
                blob = blobs.get(encoded)
                vectors[identifier] = decode_fragment_terms(blob) if blob is not None else {}
        return vectors

    def fragment_sizes(self) -> Dict[FragmentId, int]:
        rows = self._execute_read("SELECT id, size FROM fragments")
        return {self._decode(encoded): size for encoded, size in rows}

    def fragment_sizes_for(self, identifiers) -> Dict[FragmentId, int]:
        # One batched IN query per chunk; the single fragment_size is a
        # one-identifier call of this.  Sizes already cached (and
        # epoch-fresh) never reach SQL at all, and neither the owning
        # thread's staged reads nor misses are cached.
        sizes: Dict[FragmentId, int] = {}
        wanted: List[Tuple[FragmentId, str]] = []
        in_owned_batch = self._in_owned_batch()
        if in_owned_batch:
            for identifier in identifiers:
                sizes[identifier] = 0
                wanted.append((identifier, encode_identifier(identifier)))
        else:
            with self._cache_lock:
                for identifier in identifiers:
                    cached = self._sizes_cache.get(identifier)
                    if cached is not None and self.fragment_epoch(identifier) <= cached[0]:
                        sizes[identifier] = cached[1]
                    else:
                        sizes[identifier] = 0
                        wanted.append((identifier, encode_identifier(identifier)))
        stamp = self.epoch
        for start in range(0, len(wanted), self._IN_CHUNK):
            chunk = wanted[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._execute_read(
                f"SELECT id, size FROM fragments WHERE id IN ({placeholders})",
                tuple(encoded for _identifier, encoded in chunk),
            )
            by_encoded = dict(rows)
            with self._cache_lock:
                for identifier, encoded in chunk:
                    if encoded in by_encoded:
                        size = by_encoded[encoded]
                        sizes[identifier] = size
                        if not in_owned_batch:
                            self._sizes_cache[identifier] = (stamp, size)
        return sizes

    def fragment_ids(self) -> Tuple[FragmentId, ...]:
        rows = self._execute_read("SELECT id FROM fragments")
        return tuple(self._decode(encoded) for (encoded,) in rows)

    def has_fragment(self, identifier: FragmentId) -> bool:
        return bool(
            self._execute_read(
                "SELECT 1 FROM fragments WHERE id = ?", (encode_identifier(identifier),)
            )
        )

    def fragment_count(self) -> int:
        return self._execute_read("SELECT COUNT(*) FROM fragments")[0][0]

    def vocabulary(self) -> Tuple[str, ...]:
        if self._read_connection() is not None:
            rows = self._execute_read(
                "SELECT DISTINCT keyword FROM posting_blocks ORDER BY keyword"
            )
            return tuple(keyword for (keyword,) in rows)
        # Write-connection fallback (the owner of the open batch): the
        # staged log can hold keywords the blocks don't yet, and pending
        # removals can have emptied a blocked keyword.
        with self._lock:
            names = {
                keyword
                for (keyword,) in self._connection.execute(
                    "SELECT DISTINCT keyword FROM posting_blocks"
                )
            }
            names.update(
                keyword
                for (keyword,) in self._connection.execute(
                    "SELECT DISTINCT keyword FROM staged_postings"
                )
            )
        return tuple(keyword for keyword in sorted(names) if self.postings(keyword))

    def posting_blocks_for_many(self, keywords) -> Dict[str, KeywordBlocks]:
        """Block directories served straight from the summary columns.

        The pooled-reader fast path reads only ``(count, max_occurrences,
        max_weight)`` rows — no BLOBs — and hands back handles (cached under
        store-epoch validation) whose ``decode`` slices the keyword's
        epoch-validated :meth:`postings`.  While this thread must read
        through the write connection (it owns the open batch) the staged log
        isn't folded into blocks yet, so the generic merged-list builder
        answers instead: deterministic, just not block-served.
        """
        unique = list(dict.fromkeys(keywords))
        if self._read_connection() is None:
            return super().posting_blocks_for_many(unique)
        results: Dict[str, KeywordBlocks] = {}
        missing: List[str] = []
        with self._cache_lock:
            for keyword in unique:
                cached = self._blocks_cache.get(keyword)
                if cached is not None and self.epoch <= cached[0]:
                    results[keyword] = cached[1]
                    continue
                if cached is not None:
                    self._blocks_cache.pop(keyword, None)
                missing.append(keyword)
        if not missing:
            return results
        stamp = self.epoch
        grouped: Dict[str, List[BlockSummary]] = {keyword: [] for keyword in missing}
        for start in range(0, len(missing), self._IN_CHUNK):
            chunk = missing[start : start + self._IN_CHUNK]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._execute_read(
                f"SELECT keyword, count, max_occurrences, max_weight FROM posting_blocks "
                f"WHERE keyword IN ({placeholders}) ORDER BY keyword, block_no",
                tuple(chunk),
            )
            for keyword, count, max_occurrences, max_weight in rows:
                grouped[keyword].append(BlockSummary(count, max_occurrences, max_weight))
        with self._cache_lock:
            for keyword in missing:
                handle = KeywordBlocks(
                    keyword,
                    tuple(grouped[keyword]),
                    lambda block_no, keyword=keyword: self.postings(keyword)[
                        block_no * BLOCK_SIZE : (block_no + 1) * BLOCK_SIZE
                    ],
                )
                results[keyword] = handle
                if grouped[keyword]:
                    self._blocks_cache[keyword] = (stamp, handle)
        return results

    # ------------------------------------------------------------------
    # graph section
    # ------------------------------------------------------------------
    def add_node(self, identifier: FragmentId, keyword_count: int) -> None:
        encoded = encode_identifier(identifier)
        with self.write_batch():
            self._connection.execute(
                "INSERT OR REPLACE INTO nodes (id, keyword_count) VALUES (?, ?)",
                (encoded, keyword_count),
            )
            # Re-adding a node resets its neighbour set, like the in-memory
            # backend's fresh set() assignment.
            self._connection.execute("DELETE FROM edges WHERE src = ?", (encoded,))
            self._batch_fragments[encoded] = identifier

    def _require_node(self, encoded: str, identifier: FragmentId) -> None:
        known = self._connection.execute(
            "SELECT 1 FROM nodes WHERE id = ?", (encoded,)
        ).fetchone()
        if known is None:
            raise KeyError(identifier)

    def remove_node(self, identifier: FragmentId) -> None:
        encoded = encode_identifier(identifier)
        with self.write_batch():
            self._require_node(encoded, identifier)
            self._connection.execute("DELETE FROM edges WHERE src = ?", (encoded,))
            self._connection.execute("DELETE FROM nodes WHERE id = ?", (encoded,))
            self._batch_fragments[encoded] = identifier

    def has_node(self, identifier: FragmentId) -> bool:
        return bool(
            self._execute_read(
                "SELECT 1 FROM nodes WHERE id = ?", (encode_identifier(identifier),)
            )
        )

    def node_keyword_count(self, identifier: FragmentId) -> int:
        rows = self._execute_read(
            "SELECT keyword_count FROM nodes WHERE id = ?",
            (encode_identifier(identifier),),
        )
        if not rows:
            raise KeyError(identifier)
        return rows[0][0]

    def set_node_keyword_count(self, identifier: FragmentId, keyword_count: int) -> None:
        encoded = encode_identifier(identifier)
        with self.write_batch():
            self._require_node(encoded, identifier)
            self._connection.execute(
                "UPDATE nodes SET keyword_count = ? WHERE id = ?", (keyword_count, encoded)
            )
            self._batch_fragments[encoded] = identifier

    def node_ids(self) -> Tuple[FragmentId, ...]:
        rows = self._execute_read("SELECT id FROM nodes")
        return tuple(self._decode(encoded) for (encoded,) in rows)

    def node_count(self) -> int:
        return self._execute_read("SELECT COUNT(*) FROM nodes")[0][0]

    def add_neighbor(self, identifier: FragmentId, neighbor: FragmentId) -> None:
        encoded = encode_identifier(identifier)
        with self.write_batch():
            self._require_node(encoded, identifier)
            self._connection.execute(
                "INSERT OR IGNORE INTO edges (src, dst) VALUES (?, ?)",
                (encoded, encode_identifier(neighbor)),
            )
            self._batch_fragments[encoded] = identifier

    def discard_neighbor(self, identifier: FragmentId, neighbor: FragmentId) -> None:
        encoded = encode_identifier(identifier)
        with self.write_batch():
            self._require_node(encoded, identifier)
            self._connection.execute(
                "DELETE FROM edges WHERE src = ? AND dst = ?",
                (encoded, encode_identifier(neighbor)),
            )
            self._batch_fragments[encoded] = identifier

    def neighbors(self, identifier: FragmentId) -> Tuple[FragmentId, ...]:
        # The expansion loop reads adjacency for every page member of every
        # dequeued pending page — the second-hottest read on the search path
        # after sizes — so neighbour sets are cached with the same epoch
        # validation as postings and sizes (every adjacency mutation ticks
        # the endpoint's fragment epoch).
        in_owned_batch = self._in_owned_batch()
        if not in_owned_batch:
            with self._cache_lock:
                cached = self._neighbors_cache.get(identifier)
                if cached is not None and self._epoch_clock.fragment_epoch(identifier) <= cached[0]:
                    return cached[1]
        stamp = self.epoch
        encoded = encode_identifier(identifier)
        rows = self._execute_read("SELECT dst FROM edges WHERE src = ?", (encoded,))
        if not rows and not self.has_node(identifier):
            # Only the empty-adjacency answer needs the existence probe; a
            # node with edges is trivially known.
            raise KeyError(identifier)
        result = tuple(self._decode(dst) for (dst,) in rows)
        if not in_owned_batch:
            with self._cache_lock:
                self._neighbors_cache[identifier] = (stamp, result)
        return result

    def edge_count(self) -> int:
        return self._execute_read("SELECT COUNT(*) FROM edges")[0][0] // 2
