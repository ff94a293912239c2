"""Pluggable artifact stores: memory, content-addressed disk, tiers.

The paper computes its islandizations once per graph and reuses them
across every layer and experiment (§3.1's locality story); this module
is that idea applied to the simulator's own artifacts.  The Engine's
caches are backed by an :class:`ArtifactStore` — a plain
``(kind, key) → artifact`` mapping with three implementations:

* :class:`MemoryStore` — per-process dicts; holds live Python objects
  (this is the seed Engine's behaviour, now behind the protocol).
* :class:`DiskStore` — one directory per store version under a cache
  root (``~/.cache/repro`` by default, or ``REPRO_CACHE_DIR`` /
  ``--cache-dir``).  Artifact kinds with a stable serialization persist
  across processes and hosts: datasets, shards, islandizations,
  incremental state and workloads as content-addressed npz files,
  report summaries as JSON rows of one SQLite catalogue.  Kinds without
  one (live report objects) are simply not handled by the tier.
* :class:`TieredStore` — a memory-over-disk stack: reads walk the
  tiers in order and *promote* lower-tier hits upward, writes go to
  every tier that handles the kind.

Keys are stable strings (graph fingerprints + config digests — see
``repro.runtime.engine``), so a disk tier populated by one process —
or one parallel sweep worker — warm-starts every later one.  Each
artifact is named by a blake2b digest of ``kind + key``; file writes
are atomic (tmp-file + ``os.replace``) and each row write is one SQLite
commit, which makes a shared disk tier safe under concurrent sweep
workers.  The version directory is the whole reachability story:
everything outside it is garbage to ``gc``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sqlite3
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.islandizer_pincremental import load_ilstate
from repro.core.types import IslandizationResult
from repro.errors import ConfigError
from repro.graph.datasets import Dataset
from repro.graph.partition import GraphShard
from repro.models.workload import Workload

__all__ = [
    "MISS",
    "ARTIFACT_KINDS",
    "CacheStats",
    "ArtifactStore",
    "MemoryStore",
    "DiskStore",
    "TieredStore",
    "VerifyReport",
    "GCReport",
    "default_cache_dir",
    "build_store",
]

#: Sentinel returned by ``get`` when an artifact is absent.
MISS = object()

#: Artifact kinds the Engine routes through the store, in dependency
#: order.  "report" holds live report objects (memory tiers only);
#: "summary" holds their JSON-able shared-schema rows (disk-cacheable);
#: "shard" holds graph partition shards that the partitioned
#: islandizer's worker fleet memory-maps straight off the disk tier;
#: "ilstate" holds the incremental-islandization bookkeeping
#: (``IncrementalState``) recorded alongside an "islandization" under
#: the *same key*, so the pair travels together through every tier.
#: Retiring a kind needs no VERSION bump: gc removes the old kind's
#: directory, or its catalogue rows.
ARTIFACT_KINDS = (
    "dataset", "shard", "islandization", "ilstate",
    "workload", "report", "summary",
)


@dataclass
class CacheStats:
    """Hit/miss counters for one artifact kind (at one tier or overall)."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        """All lookups."""
        return self.hits + self.misses


class ArtifactStore:
    """Abstract ``(kind, key) → artifact`` mapping.

    ``kind`` is one of :data:`ARTIFACT_KINDS`; ``key`` is a stable
    string.  Implementations keep per-kind :class:`CacheStats` for
    every ``get`` on a kind they handle.
    """

    #: Tier label used in stats reporting.
    name = "store"

    #: True for tiers whose contents outlive the process and may be
    #: shared with other processes/hosts — ``Engine.clear()`` spares
    #: them unless explicitly asked.
    persistent = False

    def __init__(self) -> None:
        self._stats: dict[str, CacheStats] = {}

    def handles(self, kind: str) -> bool:
        """Whether this store can hold artifacts of ``kind``."""
        return True

    def get(self, kind: str, key: str) -> Any:
        """The stored artifact, or :data:`MISS`."""
        raise NotImplementedError

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store ``value`` (a no-op for unhandled kinds)."""
        raise NotImplementedError

    def clear(self, kind: str | None = None) -> None:
        """Drop every artifact (of ``kind``, or all kinds)."""
        raise NotImplementedError

    def stats(self) -> dict[str, dict[str, CacheStats]]:
        """Per-tier, per-kind lookup counters: ``{tier: {kind: stats}}``."""
        return {self.name: dict(self._stats)}

    def _record(self, kind: str, *, hit: bool) -> None:
        stats = self._stats.setdefault(kind, CacheStats())
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1


class MemoryStore(ArtifactStore):
    """In-process store holding live Python objects (no serialization)."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, dict[str, Any]] = {}

    def get(self, kind: str, key: str) -> Any:
        bucket = self._data.get(kind)
        if bucket is not None and key in bucket:
            self._record(kind, hit=True)
            return bucket[key]
        self._record(kind, hit=False)
        return MISS

    def put(self, kind: str, key: str, value: Any) -> None:
        self._data.setdefault(kind, {})[key] = value

    def clear(self, kind: str | None = None) -> None:
        if kind is None:
            self._data.clear()
        else:
            self._data.pop(kind, None)

    def entries(self) -> dict[str, int]:
        """Artifact count per kind (for inspection)."""
        return {kind: len(bucket) for kind, bucket in self._data.items() if bucket}


# ----------------------------------------------------------------------
# Disk store
# ----------------------------------------------------------------------
def _npz_codec(cls) -> tuple[Callable, Callable]:
    return (lambda value, fh: value.to_npz(fh), cls.from_npz)


#: The catalogue's one table.  ``name`` is the digest a file kind's
#: filename carries; ``written`` (seconds since the epoch) orders rows
#: for :meth:`DiskStore.evict` as mtime orders files.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS rows (
    kind    TEXT NOT NULL,
    name    TEXT PRIMARY KEY,
    value   TEXT NOT NULL,
    written REAL NOT NULL
) WITHOUT ROWID
"""


class DiskStore(ArtifactStore):
    """Content-addressed on-disk store under one root directory.

    Everything lives in ``<root>/v<VERSION>/``: an npz kind's artifacts
    as files ``<kind>/<name>.npz``, a row kind's (report summaries) as
    JSON rows of one SQLite table in ``catalogue.sqlite``, where
    ``name`` is ``blake2b(kind + key)``.  File writes are atomic
    (same-directory tmp file + ``os.replace``); a row put is one commit.
    An unreadable file or row is deleted and an unreadable catalogue
    skipped, both as misses, so a corrupt cache degrades to a cold one
    instead of failing the run.

    The catalogue is opened like the experiment queue's database
    (autocommit, WAL, ``synchronous=NORMAL``, a 30 s busy timeout, one
    connection shared by the process's threads), lazily, once per
    process: a forked worker opens its own connection instead of using
    its parent's.
    """

    name = "disk"
    persistent = True

    #: Store version: the directory under the root that holds every
    #: artifact.  Bump it whenever artifact *semantics* change without
    #: the cache key changing (locator algorithm tweaks, cost-model
    #: fixes, codec layout changes): lookups then miss in a fresh
    #: directory instead of serving results computed by previous code,
    #: and one :meth:`gc` removes the old one.  2: island ids became
    #: positional (IslandizationResult npz format 2 dropped the
    #: "island_ids" array).  3: summaries became catalogue rows, the
    #: version a directory, and IncrementalState dropped its three
    #: per-island columns.
    VERSION = 3

    #: kind → (encode(value, fh), decode(fh)) for the kinds kept as
    #: npz files.
    FILE_CODECS: dict[str, tuple[Callable, Callable]] = {
        "dataset": _npz_codec(Dataset),
        "shard": _npz_codec(GraphShard),
        "islandization": _npz_codec(IslandizationResult),
        # ilstate decodes through a format dispatcher: format 1 is the
        # monolithic IncrementalState, format 2 the partitioned pair.
        "ilstate": (lambda value, fh: value.to_npz(fh), load_ilstate),
        "workload": _npz_codec(Workload),
    }

    #: Kinds kept as JSON rows of the catalogue.
    ROW_KINDS = ("summary",)

    #: Age below which :meth:`gc` leaves a put's ``.tmp-`` file alone:
    #: a sweep in a loop beside live writers otherwise removes tmp
    #: files mid-write, and a put whose two attempts both lose one
    #: forfeits its entry.  verify(repair=True) removes them at once.
    TMP_GRACE_S = 3600.0

    _CATALOGUE = "catalogue.sqlite"

    #: The catalogue and the files SQLite keeps beside it.
    _CATALOGUE_FILES = frozenset(
        f"catalogue.sqlite{suffix}" for suffix in ("", "-wal", "-shm", "-journal")
    )

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        # Nothing is created until the first put, so read-only paths
        # (cache stats, a warm get on a cold machine) have no side
        # effects — a typo'd --cache-dir stays visibly absent.
        self.root = Path(root).expanduser()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid = 0
        # Connections a fork handed down: never used, and never closed
        # here, where closing could release locks their owner holds.
        self._inherited: list[sqlite3.Connection] = []

    @property
    def version_dir(self) -> Path:
        """The directory every current-version artifact lives in."""
        return self.root / f"v{self.VERSION}"

    def handles(self, kind: str) -> bool:
        return kind in self.FILE_CODECS or kind in self.ROW_KINDS

    @staticmethod
    def _name(kind: str, key: str) -> str:
        return hashlib.blake2b(
            f"{kind}\x00{key}".encode(), digest_size=16
        ).hexdigest()

    def _path(self, kind: str, key: str) -> Path:
        return self.version_dir / kind / f"{self._name(kind, key)}.npz"

    def path_for(self, kind: str, key: str) -> Path:
        """On-disk location of ``(kind, key)`` — existing or not.

        This is the store's *out-of-core read path*: the partitioned
        islandizer hands worker processes this path so they can
        memory-map the artifact instead of deserializing a copy.
        """
        if kind not in self.FILE_CODECS:
            raise ConfigError(f"disk store keeps no file for kind {kind!r}")
        return self._path(kind, key)

    # -- the catalogue --------------------------------------------------
    def _catalogue(self, *, create: bool = False) -> sqlite3.Connection | None:
        """This process's catalogue connection.

        None when there is no catalogue and ``create`` is false, so
        read paths create neither the root nor the catalogue.  Raises
        :class:`sqlite3.Error` when the file is not a readable database.
        """
        if self._conn is not None and self._conn_pid == os.getpid():
            return self._conn
        self._drop_connection()
        path = self.version_dir / self._CATALOGUE
        if create:
            path.parent.mkdir(parents=True, exist_ok=True)
        uri = f"{path.absolute().as_uri()}?mode={'rwc' if create else 'rw'}"
        try:
            conn = sqlite3.connect(
                uri, uri=True, timeout=30.0, isolation_level=None,
                check_same_thread=False,
            )
        except sqlite3.OperationalError:
            if create:
                raise
            return None
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
        except sqlite3.Error:
            conn.close()
            raise
        self._conn, self._conn_pid = conn, os.getpid()
        return conn

    def _drop_connection(self) -> None:
        """Forget the connection; the next catalogue access reopens it."""
        if self._conn is None:
            return
        if self._conn_pid == os.getpid():
            self._conn.close()
        else:
            self._inherited.append(self._conn)
        self._conn = None

    def _query(self, sql: str, params: tuple = ()) -> tuple[list[tuple], int]:
        """Rows and change count of one statement on the catalogue.

        ``([], 0)`` when there is no catalogue or SQLite cannot run the
        statement; the connection is then dropped, so the next call
        reopens it.
        """
        try:
            db = self._catalogue()
            if db is None:
                return [], 0
            cursor = db.execute(sql, params)
            return cursor.fetchall(), cursor.rowcount
        except sqlite3.Error:
            self._drop_connection()
            return [], 0

    def _delete_row(self, name: str) -> int:
        return self._query("DELETE FROM rows WHERE name = ?", (name,))[1]

    @staticmethod
    def _decode_row(text: Any) -> Any:
        """A row's value, or :data:`MISS` when its JSON does not parse."""
        try:
            return json.loads(text)
        except (TypeError, ValueError):
            return MISS

    def _row_label(self, kind: str, name: str) -> str:
        return f"{self.version_dir / self._CATALOGUE}:{kind}/{name}"

    # -- the ArtifactStore contract ---------------------------------------
    def get(self, kind: str, key: str) -> Any:
        if kind in self.ROW_KINDS:
            value = self._get_row(kind, key)
        elif kind in self.FILE_CODECS:
            value = self._get_file(kind, key)
        else:
            return MISS
        self._record(kind, hit=value is not MISS)
        return value

    def _get_row(self, kind: str, key: str) -> Any:
        name = self._name(kind, key)
        rows, _ = self._query("SELECT value FROM rows WHERE name = ?", (name,))
        if not rows:
            return MISS
        value = self._decode_row(rows[0][0])
        if value is MISS:
            self._delete_row(name)
        return value

    def _get_file(self, kind: str, key: str) -> Any:
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                return self.FILE_CODECS[kind][1](fh)
        except FileNotFoundError:
            return MISS
        except Exception:
            path.unlink(missing_ok=True)
            return MISS

    def put(self, kind: str, key: str, value: Any) -> None:
        if kind in self.ROW_KINDS:
            self._put_row(kind, key, value)
        elif kind in self.FILE_CODECS:
            self._put_file(kind, key, value)

    def _put_row(self, kind: str, key: str, value: Any) -> None:
        row = (kind, self._name(kind, key), json.dumps(value), time.time())
        try:
            self._catalogue(create=True).execute(
                "INSERT OR REPLACE INTO rows VALUES (?, ?, ?, ?)", row
            )
        except sqlite3.Error:
            # A catalogue that cannot take the row (unreadable, or
            # locked past the busy timeout) forfeits only this cache
            # entry — the computed artifact is already in the caller's
            # hands.
            self._drop_connection()

    def _put_file(self, kind: str, key: str, value: Any) -> None:
        path = self._path(kind, key)
        # A concurrent clear() may remove the kind directory, or a gc
        # sweep this put's tmp file, before the final rename; the
        # second attempt starts over.  Losing the race twice forfeits
        # only this cache entry.
        for attempt in (0, 1):
            try:
                self._write(kind, path, value)
                return
            except FileNotFoundError:
                if attempt:
                    return

    def _write(self, kind: str, path: Path, value: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # The ".tmp-" prefix keeps half-written files (e.g. a worker
        # killed mid-put) out of entries()/clear() accounting.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as fh:
                self.FILE_CODECS[kind][0](value, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @staticmethod
    def _artifact_files(directory: Path) -> list[Path]:
        """Completed artifact files in one kind directory (no tmp debris)."""
        if not directory.is_dir():
            return []
        return [
            p for p in directory.iterdir()
            if p.is_file() and not p.name.startswith(".tmp-")
        ]

    def clear(self, kind: str | None = None) -> int:
        """Delete current-version artifacts; returns how many went.

        A file kind's directory goes whole, orphaned tmp files
        included, but only completed artifacts are counted.  A row
        kind's rows are deleted; the catalogue itself stays, since
        other processes may hold it open.
        """
        kinds = [kind] if kind is not None else [*self.FILE_CODECS, *self.ROW_KINDS]
        removed = 0
        for name in kinds:
            if name in self.ROW_KINDS:
                removed += self._query("DELETE FROM rows WHERE kind = ?", (name,))[1]
                continue
            directory = self.version_dir / name
            if directory.is_dir():
                removed += len(self._artifact_files(directory))
                shutil.rmtree(directory)
        return removed

    def entries(self) -> dict[str, tuple[int, int]]:
        """Per-kind (artifact count, total bytes) of the current version."""
        out: dict[str, tuple[int, int]] = {}
        for kind in self.FILE_CODECS:
            files = self._artifact_files(self.version_dir / kind)
            if files:
                out[kind] = (len(files), sum(p.stat().st_size for p in files))
        rows, _ = self._query(
            "SELECT kind, COUNT(*), SUM(LENGTH(value)) FROM rows GROUP BY kind"
        )
        for kind, count, size in rows:
            if kind in self.ROW_KINDS:
                out[kind] = (count, size)
        return out

    # -- maintenance ------------------------------------------------------
    def _walk(self) -> tuple[list[tuple[str, Path]], list[Path]]:
        """The sweep :meth:`gc` and :meth:`verify` share.

        Returns ``(kind, path)`` of every well-named file of an npz kind
        in the version directory, and every other entry under the root
        except the catalogue and its SQLite companions: other root
        entries (earlier versions, the flat layout and ``index.log`` of
        version 2, strays), version-directory entries that are not an
        npz kind, and ill-named files and ``.tmp-`` debris.
        """
        files: list[tuple[str, Path]] = []
        garbage: list[Path] = []
        if not self.root.is_dir():
            return files, garbage
        version = self.version_dir
        for entry in sorted(self.root.iterdir()):
            if entry != version or not entry.is_dir():
                garbage.append(entry)
        if not version.is_dir():
            return files, garbage
        for entry in sorted(version.iterdir()):
            if entry.name in self._CATALOGUE_FILES:
                continue
            if entry.name not in self.FILE_CODECS or not entry.is_dir():
                garbage.append(entry)
                continue
            for path in sorted(entry.iterdir()):
                if path.is_file() and self._well_named(path):
                    files.append((entry.name, path))
                else:
                    garbage.append(path)
        return files, garbage

    def verify(self, repair: bool = False) -> "VerifyReport":
        """Integrity sweep over the cache directory.

        Classifies every file under the root and every catalogue row:

        * **ok** — a well-named npz file its codec can decode, or a row
          of a row kind whose JSON parses;
        * **corrupt** — right name and place, but the codec rejects it
          (truncated npz, malformed JSON row), or a catalogue SQLite
          cannot read or whose ``quick_check`` fails;
        * **orphaned** — everything :meth:`gc` removes: ``.tmp-``
          debris, files whose name is not a digest this store would
          produce, anything outside the version directory, directories
          that are not npz kinds, and rows of a kind not kept as rows.

        With ``repair=True`` corrupt and orphaned entries are deleted —
        a corrupt catalogue whole, with its SQLite companions.
        Artifacts re-materialize on the next miss; a live writer's
        in-flight tmp file dying with them costs only that one put.
        Returns a :class:`VerifyReport`; the sweep itself never raises
        on file contents.
        """
        files, orphaned = self._walk()
        corrupt = [
            path for kind, path in files
            if not self._decodes(path, self.FILE_CODECS[kind][1])
        ]
        ok = len(files) - len(corrupt)
        bad_rows: list[tuple[str, str]] = []
        stray_rows: list[tuple[str, str]] = []
        catalogue = self.version_dir / self._CATALOGUE
        catalogue_corrupt = False
        rows: list[tuple] = []
        try:
            db = self._catalogue()
            if db is not None:
                check = db.execute("PRAGMA quick_check").fetchall()
                catalogue_corrupt = check != [("ok",)]
                rows = db.execute("SELECT kind, name, value FROM rows").fetchall()
        except sqlite3.Error:
            self._drop_connection()
            catalogue_corrupt = True
        for kind, name, value in rows:
            if kind not in self.ROW_KINDS:
                stray_rows.append((kind, name))
            elif self._decode_row(value) is not MISS:
                ok += 1
            else:
                bad_rows.append((kind, name))
        removed = 0
        if repair:
            removed += sum(self._remove(path) for path in orphaned + corrupt)
            removed += sum(self._delete_row(name) for _, name in bad_rows + stray_rows)
            if catalogue_corrupt:
                self._drop_connection()
                removed += self._remove(catalogue)
                for companion in self._CATALOGUE_FILES - {self._CATALOGUE}:
                    (catalogue.parent / companion).unlink(missing_ok=True)
        return VerifyReport(
            root=str(self.root),
            ok=ok,
            orphaned=[str(p) for p in orphaned]
            + [self._row_label(*row) for row in stray_rows],
            corrupt=[str(p) for p in corrupt]
            + [self._row_label(*row) for row in bad_rows]
            + ([str(catalogue)] if catalogue_corrupt else []),
            removed=removed,
        )

    @staticmethod
    def _well_named(path: Path) -> bool:
        """Whether ``path`` is a filename put() produces."""
        stem = path.name[:-4]
        return (
            path.name.endswith(".npz") and len(stem) == 32
            and all(c in "0123456789abcdef" for c in stem)
        )

    @staticmethod
    def _decodes(path: Path, decode: Callable) -> bool:
        try:
            with open(path, "rb") as fh:
                decode(fh)
        except Exception:
            return False
        return True

    @staticmethod
    def _remove(path: Path) -> bool:
        """Delete a file or tree; False when it raced away or stays."""
        try:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        except OSError:
            return False
        return True

    def gc(self, *, dry_run: bool = False) -> "GCReport":
        """Remove everything under the root that no lookup can reach.

        An artifact is reachable only at its own place in the version
        directory, so garbage is what :meth:`_walk` returns besides
        the well-named files — earlier versions and the layout an
        earlier commit wrote, foreign entries, ill-named files and
        ``.tmp-`` debris — plus catalogue rows of a kind not kept as
        rows.  Unlike :meth:`verify`, gc decodes nothing.
        ``dry_run=True`` reports what would be removed without touching
        anything.

        gc takes no lock: it never removes a well-named current-version
        file, a row of a row kind, or a put's tmp file younger than
        :attr:`TMP_GRACE_S`, which may still be in flight.
        """
        files, garbage = self._walk()
        doomed = [path for path in garbage if not self._in_flight(path)]
        rows, _ = self._query("SELECT kind, name, LENGTH(value) FROM rows")
        stray = [(kind, name, size) for kind, name, size in rows
                 if kind not in self.ROW_KINDS]
        freed = sum(self._size_of(path) for path in doomed)
        freed += sum(size for _, _, size in stray)
        removed = 0
        if not dry_run:
            removed = sum(self._remove(path) for path in doomed)
            removed += sum(self._delete_row(name) for _, name, _ in stray)
        return GCReport(
            root=str(self.root),
            live=len(files) + len(rows) - len(stray),
            removed=[str(p) for p in doomed]
            + [self._row_label(kind, name) for kind, name, _ in stray],
            freed=freed,
            removed_count=removed,
            dry_run=dry_run,
        )

    def _in_flight(self, path: Path) -> bool:
        """Whether ``path`` may be a live put's tmp file."""
        if not path.name.startswith(".tmp-") or path.parent.parent != self.version_dir:
            return False
        try:
            return time.time() - path.stat().st_mtime < self.TMP_GRACE_S
        except OSError:
            return True  # renamed or removed meanwhile: nothing to sweep

    @staticmethod
    def _size_of(path: Path) -> int:
        try:
            if path.is_dir():
                return sum(
                    p.stat().st_size for p in path.rglob("*") if p.is_file()
                )
            return path.stat().st_size
        except OSError:
            return 0

    def evict(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-written artifacts until ≤ ``max_bytes``.

        Recency is a file's mtime or a row's ``written`` time — a read
        touches neither, so this is LRU by *write/promotion* time, which
        is the granularity a shared sweep store needs: long campaigns
        keep their freshest islandizations and shed the oldest first.
        Returns ``(removed artifact count, removed bytes)``.  Artifacts
        vanishing concurrently (another worker's evict, a clear) just
        count as already gone.
        """
        if max_bytes < 0:
            raise ConfigError("max_bytes must be non-negative")
        items: list[tuple[float, int, Path | str]] = []
        for kind in self.FILE_CODECS:
            for path in self._artifact_files(self.version_dir / kind):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                items.append((stat.st_mtime, stat.st_size, path))
        rows, _ = self._query("SELECT kind, written, LENGTH(value), name FROM rows")
        items.extend(row[1:] for row in rows if row[0] in self.ROW_KINDS)
        total = sum(size for _, size, _ in items)
        removed = freed = 0
        for _, size, item in sorted(items, key=lambda it: it[0]):
            if total <= max_bytes:
                break
            if isinstance(item, str):
                gone = self._delete_row(item)
            else:
                try:
                    item.unlink()
                    gone = 1
                except FileNotFoundError:
                    gone = 0  # raced with another worker's evict/clear
                except OSError:
                    continue  # still on disk (permissions?): keep it in `total`
            removed += gone
            freed += size * gone
            total -= size
        return removed, freed


@dataclass(frozen=True)
class VerifyReport:
    """What :meth:`DiskStore.verify` found (and, on repair, removed)."""

    root: str
    ok: int
    orphaned: list[str]
    corrupt: list[str]
    removed: int

    @property
    def clean(self) -> bool:
        """True when every file and row is a decodable artifact."""
        return not self.orphaned and not self.corrupt


@dataclass(frozen=True)
class GCReport:
    """What :meth:`DiskStore.gc` found (and, unless dry-run, removed)."""

    root: str
    #: Reachable artifacts left in place.
    live: int
    #: Paths (and catalogue rows) judged garbage — removal targets on
    #: a dry run.
    removed: list[str]
    #: Bytes they occupy.
    freed: int
    #: Entries actually deleted (0 on a dry run or if removals raced).
    removed_count: int
    dry_run: bool


class TieredStore(ArtifactStore):
    """A stack of stores: reads promote upward, writes go everywhere.

    ``get`` consults tiers in order and copies a lower-tier hit into
    every faster tier above it (so one disk read seeds the memory tier
    for the rest of the process).  ``put`` writes through to every
    tier handling the kind.
    """

    name = "tiered"

    def __init__(self, *tiers: ArtifactStore) -> None:
        super().__init__()
        if not tiers:
            raise ConfigError("TieredStore needs at least one tier")
        self.tiers = tuple(tiers)

    def handles(self, kind: str) -> bool:
        return any(tier.handles(kind) for tier in self.tiers)

    def get(self, kind: str, key: str) -> Any:
        for i, tier in enumerate(self.tiers):
            if not tier.handles(kind):
                continue
            value = tier.get(kind, key)
            if value is not MISS:
                for upper in self.tiers[:i]:
                    if upper.handles(kind):
                        upper.put(kind, key, value)
                return value
        return MISS

    def put(self, kind: str, key: str, value: Any) -> None:
        for tier in self.tiers:
            if tier.handles(kind):
                tier.put(kind, key, value)

    def clear(self, kind: str | None = None) -> None:
        for tier in self.tiers:
            tier.clear(kind)

    def stats(self) -> dict[str, dict[str, CacheStats]]:
        merged: dict[str, dict[str, CacheStats]] = {}
        for tier in self.tiers:
            for name, kinds in tier.stats().items():
                # Stacks may repeat a tier type (two DiskStores, say);
                # suffix duplicates so no tier's counters are dropped.
                label, n = name, 2
                while label in merged:
                    label = f"{name}{n}"
                    n += 1
                merged[label] = kinds
        return merged


def default_cache_dir() -> str:
    """The conventional disk-store location.

    ``REPRO_CACHE_DIR`` wins when set; otherwise ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def build_store(cache_dir: str | Path | None = None) -> ArtifactStore:
    """The Engine's default store stack.

    Without ``cache_dir``: a bare :class:`MemoryStore` (the seed
    behaviour — nothing touches disk).  With one: memory over disk.
    """
    if cache_dir is None:
        return MemoryStore()
    return TieredStore(MemoryStore(), DiskStore(cache_dir))
