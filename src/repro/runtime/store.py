"""Pluggable artifact stores: memory, content-addressed disk, tiers.

The paper computes its islandizations once per graph and reuses them
across every layer and experiment (§3.1's locality story); this module
is that idea applied to the simulator's own artifacts.  The Engine's
caches are backed by an :class:`ArtifactStore` — a plain
``(kind, key) → artifact`` mapping with three implementations:

* :class:`MemoryStore` — per-process dicts; holds live Python objects
  (this is the seed Engine's behaviour, now behind the protocol).
* :class:`DiskStore` — content-addressed files under a cache directory
  (``~/.cache/repro`` by default, or ``REPRO_CACHE_DIR`` /
  ``--cache-dir``).  Artifact kinds with a stable serialization
  (datasets, shards, islandizations, workloads → npz; report
  summaries → JSON) persist across processes and hosts; kinds without
  one (live report objects) are simply not handled by the tier.
* :class:`TieredStore` — a memory-over-disk stack: reads walk the
  tiers in order and *promote* lower-tier hits upward, writes go to
  every tier that handles the kind.

Keys are stable strings (graph fingerprints + config digests — see
``repro.runtime.engine``), so a disk tier populated by one process —
or one parallel sweep worker — warm-starts every later one.  Filenames
are a blake2b digest of ``kind + key``; writes are atomic
(tmp-file + ``os.replace``), which makes a shared disk tier safe under
concurrent sweep workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import warnings

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, IO

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
#: Retiring a kind needs no VERSION bump: gc removes every file in the
#: old kind's directory, and its index lines are not corruption.
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
def _npz_codec(cls) -> tuple[str, Callable, Callable]:
    return (
        ".npz",
        lambda value, fh: value.to_npz(fh),
        lambda fh: cls.from_npz(fh),
    )


def _json_encode(value: Any, fh: IO[bytes]) -> None:
    fh.write(json.dumps(value, sort_keys=False).encode())


def _json_decode(fh: IO[bytes]) -> Any:
    return json.loads(fh.read().decode())


class DiskStore(ArtifactStore):
    """Content-addressed on-disk store under one root directory.

    Layout: ``<root>/<kind>/<blake2b(kind + key)>.{npz,json}``.  Writes
    are atomic (same-directory tmp file + ``os.replace``); unreadable
    or truncated files are treated as misses and deleted, so a corrupt
    cache degrades to a cold one instead of failing the run.
    """

    name = "disk"
    persistent = True

    #: Key-space version, folded into every filename digest.  Bump it
    #: whenever artifact *semantics* change without the cache key
    #: changing (locator algorithm tweaks, cost-model fixes, codec
    #: layout changes): old files then miss instead of silently serving
    #: results computed by previous code.  2: island ids became
    #: positional (IslandizationResult npz format 2 dropped the
    #: "island_ids" array).
    VERSION = 2

    #: kind → (extension, encode(value, fh), decode(fh)).
    CODECS: dict[str, tuple[str, Callable, Callable]] = {
        "dataset": _npz_codec(Dataset),
        "shard": _npz_codec(GraphShard),
        "islandization": _npz_codec(IslandizationResult),
        # ilstate decodes through a format dispatcher: format 1 is the
        # monolithic IncrementalState, format 2 the partitioned pair.
        "ilstate": (".npz", lambda value, fh: value.to_npz(fh), load_ilstate),
        "workload": _npz_codec(Workload),
        "summary": (".json", _json_encode, _json_decode),
    }

    #: Reachability index: one ``kind/filename`` line appended per
    #: completed put().  Advisory — reads never consult it; only
    #: :meth:`gc` does, to tell current-key-space artifacts from files
    #: stranded by a :data:`VERSION` bump (which are well-named and
    #: decodable, so :meth:`verify` rightly calls them intact, yet no
    #: present-day key can ever address them again).
    _INDEX_NAME = "index.log"

    #: Advisory ``fcntl`` lockfile serialising index appends against
    #: the gc sweep's index rewrite (see :meth:`_index_lock`).
    _LOCK_NAME = ".index.lock"

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        # The directory is created lazily by put() so read-only paths
        # (cache stats, a warm get on a cold machine) have no side
        # effects — a typo'd --cache-dir stays visibly absent.
        self.root = Path(root).expanduser()

    def handles(self, kind: str) -> bool:
        return kind in self.CODECS

    def _path(self, kind: str, key: str) -> Path:
        ext = self.CODECS[kind][0]
        digest = hashlib.blake2b(
            f"v{self.VERSION}\x00{kind}\x00{key}".encode(), digest_size=16
        ).hexdigest()
        return self.root / kind / f"{digest}{ext}"

    def path_for(self, kind: str, key: str) -> Path:
        """On-disk location of ``(kind, key)`` — existing or not.

        This is the store's *out-of-core read path*: the partitioned
        islandizer hands worker processes this path so they can
        memory-map the artifact instead of deserializing a copy.
        """
        if not self.handles(kind):
            raise ConfigError(f"disk store has no codec for kind {kind!r}")
        return self._path(kind, key)

    def get(self, kind: str, key: str) -> Any:
        if not self.handles(kind):
            return MISS
        path = self._path(kind, key)
        if not path.exists():
            self._record(kind, hit=False)
            return MISS
        decode = self.CODECS[kind][2]
        try:
            with open(path, "rb") as fh:
                value = decode(fh)
        except Exception:
            path.unlink(missing_ok=True)
            self._record(kind, hit=False)
            return MISS
        self._record(kind, hit=True)
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        if not self.handles(kind):
            return
        path = self._path(kind, key)
        # A concurrent clear() may rmtree the kind directory between
        # our mkdir and the final rename; the second attempt re-creates
        # it.  Losing the race twice forfeits only this cache entry —
        # the computed artifact itself is already in the caller's hands.
        for attempt in (0, 1):
            try:
                self._write(kind, path, value)
                return
            except FileNotFoundError:
                if attempt:
                    return

    def _write(self, kind: str, path: Path, value: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        encode = self.CODECS[kind][1]
        # The ".tmp-" prefix keeps half-written files (e.g. a worker
        # killed mid-put) out of entries()/clear() accounting.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                encode(value, fh)
            # Publish + index under the advisory lock: without it, a
            # concurrent gc on a shared mount can walk the tree before
            # this rename lands yet rewrite the index after this append
            # lands — compacting the new line away and stranding the
            # artifact for the *next* sweep.  Holding the lock across
            # both steps makes a put land entirely before or entirely
            # after any gc's walk-and-rewrite.
            with self._index_lock():
                os.replace(tmp, path)
                self._index_add(kind, path.name)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _index_path(self) -> Path:
        return self.root / self._INDEX_NAME

    @contextlib.contextmanager
    def _index_lock(self):
        """Advisory cross-process lock over index writes and gc sweeps.

        ``fcntl.flock`` on ``<root>/.index.lock``.  Yields whether the
        lock is actually held: platforms without ``fcntl``, unwritable
        roots, flock-less filesystems (some network mounts) and
        pre-lock readers all yield ``False`` and degrade to the old
        unserialised behaviour instead of failing the operation —
        put() accepts that (the forfeit is one cache entry), while the
        *destructive* gc sweep refuses to run unlocked (see
        :meth:`gc`).
        """
        if fcntl is None or not self.root.is_dir():
            yield False
            return
        try:
            fh = open(self.root / self._LOCK_NAME, "a+b")
        except OSError:
            yield False
            return
        try:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX)
            except OSError:
                yield False
                return
            yield True
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(fh, fcntl.LOCK_UN)
            fh.close()

    def _index_add(self, kind: str, name: str) -> None:
        """Append one reachability line (``v<N> <kind>/<name>``).

        One short O_APPEND write per line keeps concurrent sweep
        workers from interleaving.  The index is advisory, so an
        unwritable one degrades :meth:`gc` to its conservative sweep
        instead of failing the put.
        """
        try:
            with open(self._index_path(), "a") as fh:
                fh.write(f"v{self.VERSION} {kind}/{name}\n")
        except OSError:
            pass

    def _read_index(self) -> set[str] | None:
        """Current-version ``kind/name`` entries, or None if no index.

        Crash-tolerant: a writer SIGKILLed mid-append (or a torn page
        on a shared mount) leaves a truncated or garbled trailing line.
        Such lines are *skipped with a warning* — never an abort — so
        gc keeps working against the readable remainder; the next
        non-dry-run gc compacts the garbage away.  The skipped line's
        artifact (if its line was the one torn) is forfeited to the
        sweep — the same single-entry forfeit put() itself accepts on
        lockless stores.
        """
        path = self._index_path()
        try:
            data = path.read_bytes()
        except OSError:
            return None
        entries: set[str] = set()
        corrupt = 0
        prefix = f"v{self.VERSION} "
        for raw in data.split(b"\n"):
            if not raw:
                continue
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError:
                corrupt += 1
                continue
            if not self._valid_index_line(line):
                corrupt += 1
                continue
            if line.startswith(prefix):
                entries.add(line[len(prefix):])
        if corrupt:
            warnings.warn(
                f"{path}: skipped {corrupt} corrupt index line(s) — "
                f"likely a writer crashed mid-append; gc will compact "
                f"the index",
                RuntimeWarning,
                stacklevel=3,
            )
        return entries

    def _valid_index_line(self, line: str) -> bool:
        """Whether one index line has the shape ``_index_add`` writes.

        Current-version lines of a known kind are checked strictly (a
        filename put() would produce); those of a kind this build has
        retired, whose files gc removes anyway, only for a 32-hex-digit
        stem plus an extension.  Other-version lines — legacy content a
        later gc is entitled to ignore — only for shape.
        """
        head, sep, rest = line.partition(" ")
        if not sep or not head.startswith("v") or not head[1:].isdigit():
            return False
        kind, sep2, name = rest.partition("/")
        if not sep2 or not kind or not name or "/" in name:
            return False
        if int(head[1:]) != self.VERSION:
            return True
        path = Path(name)
        if kind not in self.CODECS:
            return bool(path.suffix) and self._well_named(path, path.suffix)
        return self._well_named(path, self.CODECS[kind][0])

    @staticmethod
    def _artifact_files(directory: Path) -> list[Path]:
        """Completed artifact files in one kind directory (no tmp debris)."""
        return [
            p for p in directory.iterdir()
            if p.is_file() and not p.name.startswith(".tmp-")
        ]

    def clear(self, kind: str | None = None) -> int:
        """Delete cached files; returns how many artifacts were removed.

        Orphaned tmp files are deleted too (the whole kind directory
        goes), but only completed artifacts are counted.
        """
        kinds = [kind] if kind is not None else list(self.CODECS)
        removed = 0
        for name in kinds:
            directory = self.root / name
            if directory.is_dir():
                removed += len(self._artifact_files(directory))
                shutil.rmtree(directory)
        if kind is None:
            # Full clears drop the reachability index too; per-kind
            # clears leave stale lines for gc() to compact (they only
            # vouch for files that exist, so they resurrect nothing).
            with contextlib.suppress(OSError):
                self._index_path().unlink()
        return removed

    def entries(self) -> dict[str, tuple[int, int]]:
        """Per-kind (artifact count, total bytes) currently on disk."""
        out: dict[str, tuple[int, int]] = {}
        for kind in self.CODECS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            files = self._artifact_files(directory)
            if files:
                out[kind] = (len(files), sum(p.stat().st_size for p in files))
        return out

    def verify(self, repair: bool = False) -> "VerifyReport":
        """Integrity sweep over the cache directory.

        Classifies every file under the root:

        * **ok** — a completed artifact of a known kind that its codec
          can decode;
        * **corrupt** — right name and place, but the codec rejects it
          (truncated npz, bad digest, malformed JSON, …);
        * **orphaned** — everything else: ``.tmp-`` debris from killed
          writers, files whose name is not a digest this store would
          produce, wrong extensions, and files inside directories that
          are not artifact kinds.

        With ``repair=True`` corrupt and orphaned files are deleted
        (artifacts re-materialize on the next miss; a live writer's
        in-flight tmp file dying with them costs only that one put).
        Returns a :class:`VerifyReport`; the sweep itself never raises
        on file contents.
        """
        ok = 0
        orphaned: list[Path] = []
        corrupt: list[Path] = []
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                if not entry.is_dir():
                    if entry.name not in (self._INDEX_NAME, self._LOCK_NAME):
                        orphaned.append(entry)
                    continue
                known = entry.name in self.CODECS
                ext = self.CODECS[entry.name][0] if known else ""
                decode = self.CODECS[entry.name][2] if known else None
                for path in sorted(entry.iterdir()):
                    if not path.is_file() or not known:
                        orphaned.append(path)
                    elif not self._well_named(path, ext):
                        orphaned.append(path)
                    elif self._decodes(path, decode):
                        ok += 1
                    else:
                        corrupt.append(path)
        removed = 0
        if repair:
            for path in orphaned + corrupt:
                try:
                    if path.is_dir():
                        shutil.rmtree(path)
                    else:
                        path.unlink()
                except OSError:
                    continue  # raced or unremovable: report, don't count
                removed += 1
        return VerifyReport(
            root=str(self.root),
            ok=ok,
            orphaned=[str(p) for p in orphaned],
            corrupt=[str(p) for p in corrupt],
            removed=removed,
        )

    @staticmethod
    def _well_named(path: Path, ext: str) -> bool:
        """Whether ``path`` is a filename this store's put() produces."""
        if path.name.startswith(".tmp-") or path.suffix != ext:
            return False
        stem = path.name[: -len(ext)]
        return len(stem) == 32 and all(c in "0123456789abcdef" for c in stem)

    @staticmethod
    def _decodes(path: Path, decode: Callable) -> bool:
        try:
            with open(path, "rb") as fh:
                decode(fh)
        except Exception:
            return False
        return True

    def gc(self, *, dry_run: bool = False, force: bool = False) -> "GCReport":
        """Collect unreachable files from the cache directory.

        :meth:`verify` judges files by *shape* (name, place, decodes);
        ``gc`` judges them by *reachability*.  A file is garbage when
        no ``(kind, key)`` lookup in the current key space can ever
        return it:

        * ``.tmp-`` debris and ill-named/foreign files (verify's
          orphans — including whole non-kind directories);
        * artifacts stranded by a :data:`VERSION` bump: perfectly
          decodable, but addressed by a digest no current put/get
          computes — these are invisible to ``verify`` and the reason
          ``gc`` exists.

        Stranded artifacts are recognised through the put-time
        reachability index (``index.log``).  A store with *no* index
        (populated by an older build) is swept conservatively — only
        shape-orphans go — and its surviving artifacts are adopted
        into a fresh index, so the *next* gc after a VERSION bump has
        full precision.  ``dry_run=True`` reports what would be
        removed without touching anything (index included).

        Races: the whole sweep — walk, index read, deletions, index
        rewrite — runs under the advisory ``fcntl`` index lock, so a
        concurrent writer's put (which publishes file + index line
        under the same lock) lands entirely before the walk or
        entirely after the rewrite; on shared mounts neither side can
        strand the other's artifacts.  When the lock *cannot* be held
        (``fcntl`` missing on this platform, or a filesystem that
        rejects ``flock`` — common on network mounts) a destructive
        sweep could strand a live writer's artifacts, so gc **refuses**
        with :class:`~repro.errors.ConfigError` unless the caller
        passes ``dry_run=True`` (read-only, always safe) or
        ``force=True`` (explicitly accepting the unlocked race; only
        sensible when no other writer shares the root).
        """
        if not self.root.is_dir():
            # Nothing to sweep and nothing to race: empty report,
            # no lock needed (the lockfile would have to be created
            # under a root that doesn't exist).
            return self._gc_locked(dry_run=dry_run)
        with self._index_lock() as locked:
            if not locked and not (dry_run or force):
                why = (
                    "the fcntl module is unavailable on this platform"
                    if fcntl is None else
                    f"the index lock at {self.root / self._LOCK_NAME} "
                    f"could not be acquired (unsupported or shared "
                    f"filesystem?)"
                )
                raise ConfigError(
                    f"refusing destructive gc of {self.root}: {why}. "
                    f"A concurrent writer could lose artifacts. "
                    f"Re-run with dry_run (repro cache gc --dry-run) "
                    f"to preview, or force=True (--force) if no other "
                    f"process writes to this cache."
                )
            return self._gc_locked(dry_run=dry_run)

    def _gc_locked(self, *, dry_run: bool) -> "GCReport":
        doomed: list[Path] = []
        kept: list[tuple[str, Path]] = []
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                if not entry.is_dir():
                    if entry.name not in (self._INDEX_NAME, self._LOCK_NAME):
                        doomed.append(entry)
                    continue
                known = entry.name in self.CODECS
                ext = self.CODECS[entry.name][0] if known else ""
                for path in sorted(entry.iterdir()):
                    if (not path.is_file() or not known
                            or not self._well_named(path, ext)):
                        doomed.append(path)
                    else:
                        kept.append((entry.name, path))
        # Read the index only after the walk (see the race note above).
        index = self._read_index()
        if index is not None:
            reachable = [
                (kind, path) for kind, path in kept
                if f"{kind}/{path.name}" in index
            ]
            doomed.extend(path for kind, path in kept
                          if f"{kind}/{path.name}" not in index)
            kept = reachable
        freed = sum(self._size_of(path) for path in doomed)
        removed = 0
        if not dry_run:
            for path in doomed:
                try:
                    if path.is_dir():
                        shutil.rmtree(path)
                    else:
                        path.unlink()
                except OSError:
                    continue  # raced or unremovable: report, don't count
                removed += 1
            if kept or index is not None:
                # Compact (or, for a legacy store, adopt) the index.
                self._rewrite_index(kept)
        return GCReport(
            root=str(self.root),
            live=len(kept),
            removed=[str(p) for p in doomed],
            freed=freed,
            removed_count=removed,
            dry_run=dry_run,
            indexed=index is not None,
        )

    def _rewrite_index(self, kept: list[tuple[str, Path]]) -> None:
        """Atomically replace the index with the surviving entries."""
        lines = "".join(
            f"v{self.VERSION} {kind}/{path.name}\n" for kind, path in kept
        )
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            with os.fdopen(fd, "w") as fh:
                fh.write(lines)
            os.replace(tmp, self._index_path())
        except OSError:
            with contextlib.suppress(OSError, UnboundLocalError):
                os.unlink(tmp)

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
        """Evict least-recently-used artifacts until ≤ ``max_bytes``.

        Recency is file mtime — a read does not touch it, so this is
        LRU by *write/promotion* time, which is the granularity a
        shared sweep store needs: long campaigns keep their freshest
        islandizations and shed the oldest first.  Returns ``(removed
        artifact count, removed bytes)``.  Files vanishing concurrently
        (another worker's evict, a clear) just count as already gone.
        """
        if max_bytes < 0:
            raise ConfigError("max_bytes must be non-negative")
        files: list[tuple[float, int, Path]] = []
        for kind in self.CODECS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in self._artifact_files(directory):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in files)
        removed = freed = 0
        for _, size, path in sorted(files, key=lambda f: f[0]):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # raced with another worker's evict/clear: gone anyway
            except OSError:
                continue  # still on disk (permissions?): keep it in `total`
            else:
                removed += 1
                freed += size
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
        """True when every file on disk is a decodable artifact."""
        return not self.orphaned and not self.corrupt


@dataclass(frozen=True)
class GCReport:
    """What :meth:`DiskStore.gc` found (and, unless dry-run, removed)."""

    root: str
    #: Reachable artifacts left in place.
    live: int
    #: Paths judged garbage (removal targets on a dry run).
    removed: list[str]
    #: Bytes those paths occupy.
    freed: int
    #: Files actually deleted (0 on a dry run or if removals raced).
    removed_count: int
    dry_run: bool
    #: Whether a reachability index existed; without one the sweep is
    #: conservative (shape-orphans only) and adopts the survivors.
    indexed: bool


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
