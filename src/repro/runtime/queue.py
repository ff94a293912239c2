"""Durable experiment queue: fault-tolerant sweep-as-a-service.

``Engine.sweep`` runs the paper's evaluation grid (§4: datasets ×
models × platforms) as one in-process job list — fine on a laptop,
fatal at fleet scale: a single OOM-killed pool worker raises
``BrokenProcessPool``, and nothing survives a coordinator crash.  This
module turns the grid into a *persistent* queue à la py_experimenter:

* :class:`ExperimentQueue` — a SQLite (WAL-mode) table whose rows are
  ``(dataset, model, platform, config-digest)`` cells with status
  (``pending``/``claimed``/``done``/``error``), owner, lease deadline,
  attempt count, error text and a result-summary column.  The grid is
  defined once (:meth:`ExperimentQueue.submit`, idempotent); any number
  of worker processes — on any host sharing the disk artifact store —
  claim cells in one ``BEGIN IMMEDIATE`` transaction (select the next
  runnable cell, then mark it claimed), heartbeat their lease while
  computing, and write the summary row back.
* Crash recovery — a claim whose lease expires (worker SIGKILLed,
  wedged, or partitioned away) is *reaped*: the cell returns to
  ``pending`` with its attempt count bumped and an exponential backoff,
  so the next claimant retries it.  Cells that exhaust their retry
  budget are quarantined as ``error`` rows with the failure text
  preserved — never silently dropped.  Completion and heartbeats are
  fenced by ``(owner, status)`` guards, so a reaped worker that wakes
  up late cannot overwrite a retry's result.
* :func:`work` — the worker loop (``repro queue work``): claim →
  heartbeat → simulate through a normal :class:`~repro.runtime.Engine`
  (sharing the content-addressed disk store, so retries warm-start) →
  complete/fail, until the queue drains.

``Engine.sweep(..., queue=path)`` submits the grid, drives local
workers, and folds the table back into the exact rows the in-process
path produces — byte-identically, in the same deterministic
dataset-major order (``tests/test_queue.py`` pins this, SIGKILL
included).

Fault injection: setting ``REPRO_QUEUE_CELL_DELAY`` (seconds) makes a
worker sleep inside each claimed cell — the hook the crash-recovery
tests and CI's queue-smoke job use to kill a worker reliably mid-cell.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import sqlite3
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.config import ConsumerConfig, LocatorConfig
from repro.errors import ConfigError, SimulationError
from repro.runtime.engine import Engine, _model_for
from repro.runtime.registry import resolve_name
from repro.serialize import config_digest

__all__ = [
    "CELL_STATUSES",
    "ClaimedCell",
    "ExperimentQueue",
    "QueueStatus",
    "SubmitReport",
    "WorkReport",
    "default_queue_path",
    "work",
]

#: Cell lifecycle states.  ``pending → claimed → done`` is the happy
#: path; ``claimed → pending`` on failure/lease expiry (attempts
#: permitting), ``claimed → error`` once the retry budget is spent.
CELL_STATUSES = ("pending", "claimed", "done", "error")

#: Fault-injection hook: seconds each worker sleeps inside a claimed
#: cell (under heartbeat).  Lets tests and CI SIGKILL a worker
#: deterministically mid-cell.
CELL_DELAY_ENV = "REPRO_QUEUE_CELL_DELAY"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS configs (
    digest   TEXT PRIMARY KEY,
    locator  TEXT NOT NULL,
    consumer TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    id             INTEGER PRIMARY KEY,
    ordinal        INTEGER NOT NULL,
    dataset        TEXT NOT NULL,
    model          TEXT NOT NULL,
    platform       TEXT NOT NULL,
    scale          TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    variant        TEXT NOT NULL,
    config_digest  TEXT NOT NULL REFERENCES configs(digest),
    status         TEXT NOT NULL DEFAULT 'pending',
    owner          TEXT,
    lease_deadline REAL,
    not_before     REAL NOT NULL DEFAULT 0,
    attempts       INTEGER NOT NULL DEFAULT 0,
    error          TEXT,
    result         TEXT,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL,
    UNIQUE (dataset, model, platform, scale, seed, variant, config_digest)
);
CREATE INDEX IF NOT EXISTS idx_cells_claim
    ON cells (status, not_before, ordinal);
"""

def default_queue_path() -> str:
    """The conventional queue location.

    ``REPRO_QUEUE_DB`` wins when set; otherwise ``.repro-queue.sqlite``
    in the working directory (a queue is an experiment-campaign
    artifact, not a per-user cache, so it defaults alongside the run).
    """
    return os.environ.get("REPRO_QUEUE_DB") or ".repro-queue.sqlite"


def _pair_digest(locator: LocatorConfig, consumer: ConsumerConfig) -> str:
    """Stable digest of one (locator, consumer) configuration pair."""
    return f"{config_digest(locator)}:{config_digest(consumer)}"


@dataclass(frozen=True)
class ClaimedCell:
    """One leased experiment cell, as handed to a worker."""

    id: int
    ordinal: int
    dataset: str
    model: str
    platform: str
    scale: float | None
    seed: int
    variant: str
    config_digest: str
    attempts: int
    lease_deadline: float


@dataclass(frozen=True)
class SubmitReport:
    """What one grid submission did.

    ``cell_ids`` lists the grid's cells in deterministic sweep order
    (dataset-major, then model, then platform) whether each cell was
    inserted by this call or already present — the fold order
    :meth:`ExperimentQueue.results` reproduces.
    """

    cell_ids: tuple[int, ...]
    added: int
    reused: int


@dataclass(frozen=True)
class QueueStatus:
    """Point-in-time queue summary (``repro queue status``)."""

    path: str
    counts: dict[str, int]
    total: int
    expired: int
    errors: list[dict[str, Any]]

    @property
    def drained(self) -> bool:
        """No runnable work left (every cell is done or quarantined)."""
        return self.counts["pending"] == 0 and self.counts["claimed"] == 0


@dataclass
class WorkReport:
    """What one :func:`work` loop did before exiting."""

    owner: str
    done: int = 0
    failed: int = 0
    lost: int = 0
    cell_ids: list[int] = field(default_factory=list)


class ExperimentQueue:
    """SQLite-backed durable grid of experiment cells.

    Parameters
    ----------
    path:
        Queue database file.  Created (WAL mode) on first use; any
        number of processes/hosts sharing the file (and the disk
        artifact store) may open it concurrently.
    lease_s / max_attempts / backoff_s:
        Queue-wide policy: default claim lease, per-cell retry budget
        (attempts beyond it quarantine the cell as ``error``), and the
        base of the exponential retry backoff (``backoff_s * 2**(n-1)``
        after the n-th failure).  Persisted in the queue's ``meta``
        table on first set, so every worker sees one policy; passing a
        value on an existing queue updates it.

    Thread-safety: one instance may be shared across threads (the
    worker's heartbeat thread does); every statement runs under an
    internal lock on one autocommit connection, with multi-statement
    operations wrapped in ``BEGIN IMMEDIATE`` transactions.
    """

    _DEFAULTS = {"lease_s": 60.0, "max_attempts": 3, "backoff_s": 0.5}

    def __init__(
        self,
        path: str | Path,
        *,
        lease_s: float | None = None,
        max_attempts: int | None = None,
        backoff_s: float | None = None,
    ) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False,
            isolation_level=None,
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        for key, value in (
            ("lease_s", lease_s),
            ("max_attempts", max_attempts),
            ("backoff_s", backoff_s),
        ):
            if value is None:
                continue
            if float(value) <= 0:
                raise ConfigError(f"{key} must be positive (got {value})")
            self._meta_set(key, repr(float(value)) if key != "max_attempts"
                           else repr(int(value)))

    def close(self) -> None:
        """Close the underlying connection (the file remains)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Meta / policy
    # ------------------------------------------------------------------
    def _meta_set(self, key: str, value: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, value),
            )

    def _meta_get(self, key: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key=?", (key,)
            ).fetchone()
        return None if row is None else row["value"]

    def _policy(self, key: str) -> float:
        raw = self._meta_get(key)
        return self._DEFAULTS[key] if raw is None else float(raw)

    @property
    def lease_s(self) -> float:
        """Default claim lease in seconds."""
        return self._policy("lease_s")

    @property
    def max_attempts(self) -> int:
        """Retry budget: attempts beyond this quarantine the cell."""
        return int(self._policy("max_attempts"))

    @property
    def backoff_s(self) -> float:
        """Base of the exponential retry backoff."""
        return self._policy("backoff_s")

    @property
    def cache_dir(self) -> str | None:
        """Disk-store hint recorded at submit time (workers default to it)."""
        return self._meta_get("cache_dir")

    # ------------------------------------------------------------------
    # Grid definition
    # ------------------------------------------------------------------
    def submit(
        self,
        datasets: Sequence[str],
        platforms: Sequence[str],
        *,
        models: Sequence[str] = ("gcn",),
        variant: str = "algo",
        scale: float | None = None,
        seed: int = 7,
        locator: LocatorConfig | None = None,
        consumer: ConsumerConfig | None = None,
        cache_dir: str | None = None,
    ) -> SubmitReport:
        """Define (or re-assert) one sweep grid; idempotent.

        Every ``dataset × model × platform`` cell is inserted once —
        resubmitting the same grid (a coordinator restart, a second
        host joining) finds the existing cells, whatever their status,
        and never duplicates or resets them.  Returns the grid's cell
        ids in deterministic sweep order, the fold order of
        :meth:`results`.
        """
        locator = locator or LocatorConfig()
        consumer = consumer or ConsumerConfig()
        platforms = [resolve_name(p) for p in platforms]
        digest = _pair_digest(locator, consumer)
        scale_key = "" if scale is None else repr(float(scale))
        now = time.time()
        cell_ids: list[int] = []
        added = 0
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR IGNORE INTO configs (digest, locator, consumer) "
                    "VALUES (?, ?, ?)",
                    (
                        digest,
                        json.dumps(dataclasses.asdict(locator), sort_keys=True),
                        json.dumps(dataclasses.asdict(consumer), sort_keys=True),
                    ),
                )
                row = self._conn.execute(
                    "SELECT COALESCE(MAX(ordinal), -1) AS top FROM cells"
                ).fetchone()
                ordinal = int(row["top"]) + 1
                for dataset in datasets:
                    for spec in models:
                        for platform in platforms:
                            identity = (dataset, spec, platform, scale_key,
                                        int(seed), variant, digest)
                            cur = self._conn.execute(
                                "INSERT OR IGNORE INTO cells (ordinal, dataset,"
                                " model, platform, scale, seed, variant,"
                                " config_digest, created_at, updated_at)"
                                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                                (ordinal, *identity, now, now),
                            )
                            if cur.rowcount:
                                added += 1
                                ordinal += 1
                            found = self._conn.execute(
                                "SELECT id FROM cells WHERE dataset=? AND"
                                " model=? AND platform=? AND scale=? AND"
                                " seed=? AND variant=? AND config_digest=?",
                                identity,
                            ).fetchone()
                            cell_ids.append(int(found["id"]))
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        if cache_dir is not None:
            self._meta_set("cache_dir", str(cache_dir))
        return SubmitReport(
            cell_ids=tuple(cell_ids), added=added,
            reused=len(cell_ids) - added,
        )

    def configs_for(self, digest: str) -> tuple[LocatorConfig, ConsumerConfig]:
        """Rebuild the (locator, consumer) pair a cell was submitted with."""
        with self._lock:
            row = self._conn.execute(
                "SELECT locator, consumer FROM configs WHERE digest=?",
                (digest,),
            ).fetchone()
        if row is None:
            raise SimulationError(
                f"queue {self.path}: no config recorded for digest {digest!r}"
            )
        return (
            LocatorConfig(**json.loads(row["locator"])),
            ConsumerConfig(**json.loads(row["consumer"])),
        )

    # ------------------------------------------------------------------
    # Claim / lease state machine
    # ------------------------------------------------------------------
    def claim(
        self, owner: str, *, lease_s: float | None = None,
        now: float | None = None,
    ) -> ClaimedCell | None:
        """Atomically claim the next runnable cell, or ``None``.

        Expired leases are reaped first (every claimant doubles as the
        reaper, so a SIGKILLed worker's cell is retried by whoever
        claims next — no dedicated daemon required).  The claim itself
        selects the oldest ``pending`` cell whose backoff has elapsed
        and marks it claimed inside one ``BEGIN IMMEDIATE``
        transaction, which takes SQLite's write lock up front:
        concurrent claimants racing one cell serialize on it and
        exactly one wins.
        """
        now = time.time() if now is None else now
        lease = self.lease_s if lease_s is None else float(lease_s)
        self.reap(now=now)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT id, ordinal, dataset, model, platform, scale,"
                    " seed, variant, config_digest, attempts FROM cells"
                    " WHERE status='pending' AND not_before<=?"
                    " ORDER BY ordinal LIMIT 1",
                    (now,),
                ).fetchone()
                if row is not None:
                    self._conn.execute(
                        "UPDATE cells SET status='claimed', owner=?,"
                        " lease_deadline=?, updated_at=? WHERE id=?",
                        (owner, now + lease, now, row["id"]),
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        if row is None:
            return None
        return ClaimedCell(
            id=int(row["id"]),
            ordinal=int(row["ordinal"]),
            dataset=row["dataset"],
            model=row["model"],
            platform=row["platform"],
            scale=float(row["scale"]) if row["scale"] else None,
            seed=int(row["seed"]),
            variant=row["variant"],
            config_digest=row["config_digest"],
            attempts=int(row["attempts"]),
            lease_deadline=now + lease,
        )

    def heartbeat(
        self, cell_id: int, owner: str, *, lease_s: float | None = None,
        now: float | None = None,
    ) -> bool:
        """Extend a claim's lease; False means the lease was lost.

        Fenced on ``(owner, status='claimed')``: a worker whose cell
        was reaped (and possibly re-claimed by someone else) gets
        ``False`` and must discard its in-flight result.
        """
        now = time.time() if now is None else now
        lease = self.lease_s if lease_s is None else float(lease_s)
        with self._lock:
            cur = self._conn.execute(
                "UPDATE cells SET lease_deadline=?, updated_at=?"
                " WHERE id=? AND owner=? AND status='claimed'",
                (now + lease, now, cell_id, owner),
            )
        return cur.rowcount == 1

    def complete(self, cell_id: int, owner: str, row: dict[str, Any]) -> bool:
        """Record a cell's summary row and mark it ``done``.

        Same fencing as :meth:`heartbeat`; a late completion after a
        reap returns False and writes nothing.
        """
        payload = json.dumps(row)
        with self._lock:
            cur = self._conn.execute(
                "UPDATE cells SET status='done', result=?, error=NULL,"
                " lease_deadline=NULL, updated_at=?"
                " WHERE id=? AND owner=? AND status='claimed'",
                (payload, time.time(), cell_id, owner),
            )
        return cur.rowcount == 1

    def fail(
        self, cell_id: int, owner: str, error: str, *,
        now: float | None = None,
    ) -> str | None:
        """Record a cell failure; returns the cell's new status.

        Within the retry budget the cell goes back to ``pending`` with
        an exponential backoff (``backoff_s * 2**(attempts-1)``); once
        the budget is spent it is quarantined as ``error`` with the
        failure text preserved.  Returns ``None`` when the lease was
        already lost (fenced like :meth:`complete`).
        """
        now = time.time() if now is None else now
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT attempts FROM cells WHERE id=? AND owner=?"
                    " AND status='claimed'",
                    (cell_id, owner),
                ).fetchone()
                if row is None:
                    status = None
                else:
                    status = self._requeue(cell_id, int(row["attempts"]) + 1,
                                           error, now)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return status

    def _requeue(self, cell_id: int, attempts: int, error: str,
                 now: float) -> str:
        """Shared failure bookkeeping (caller holds the transaction)."""
        if attempts >= self.max_attempts:
            status, not_before = "error", 0.0
        else:
            status = "pending"
            not_before = now + self.backoff_s * 2 ** (attempts - 1)
        self._conn.execute(
            "UPDATE cells SET status=?, owner=NULL, lease_deadline=NULL,"
            " not_before=?, attempts=?, error=?, updated_at=? WHERE id=?",
            (status, not_before, attempts, error, now, cell_id),
        )
        return status

    def reap(self, *, now: float | None = None) -> list[int]:
        """Reclaim every claimed cell whose lease expired.

        A reaped lease costs an attempt, exactly like an in-worker
        failure — a cell that keeps killing its workers ends up
        quarantined instead of crash-looping the fleet forever.
        Returns the reclaimed cell ids.
        """
        now = time.time() if now is None else now
        reaped: list[int] = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._conn.execute(
                    "SELECT id, owner, attempts FROM cells WHERE"
                    " status='claimed' AND lease_deadline < ?",
                    (now,),
                ).fetchall()
                for row in rows:
                    self._requeue(
                        int(row["id"]), int(row["attempts"]) + 1,
                        f"lease expired (owner {row['owner']}, "
                        f"attempt {int(row['attempts']) + 1})",
                        now,
                    )
                    reaped.append(int(row["id"]))
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return reaped

    def retry(self) -> int:
        """Requeue every quarantined ``error`` cell; returns the count.

        Attempts reset to zero (the operator asked for a fresh budget);
        the old error text stays on the row until the retry resolves.
        """
        with self._lock:
            cur = self._conn.execute(
                "UPDATE cells SET status='pending', owner=NULL,"
                " lease_deadline=NULL, not_before=0, attempts=0,"
                " updated_at=? WHERE status='error'",
                (time.time(),),
            )
        return cur.rowcount

    # ------------------------------------------------------------------
    # Inspection / folding
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Cells per status (all four statuses always present)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM cells GROUP BY status"
            ).fetchall()
        out = {status: 0 for status in CELL_STATUSES}
        for row in rows:
            out[row["status"]] = int(row["n"])
        return out

    def status(self, *, now: float | None = None) -> QueueStatus:
        """Counts plus quarantined-cell detail (``repro queue status``)."""
        now = time.time() if now is None else now
        counts = self.counts()
        with self._lock:
            expired = self._conn.execute(
                "SELECT COUNT(*) AS n FROM cells WHERE status='claimed'"
                " AND lease_deadline < ?",
                (now,),
            ).fetchone()
            errors = self._conn.execute(
                "SELECT id, dataset, model, platform, attempts, error"
                " FROM cells WHERE status='error' ORDER BY ordinal"
            ).fetchall()
        return QueueStatus(
            path=self.path,
            counts=counts,
            total=sum(counts.values()),
            expired=int(expired["n"]),
            errors=[dict(row) for row in errors],
        )

    def results(self, cell_ids: Sequence[int] | None = None) -> list[dict[str, Any]]:
        """Fold ``done`` cells back into summary rows.

        With ``cell_ids`` (a :class:`SubmitReport`'s grid) rows come
        back in that order; without, every done cell in ordinal order.
        Raises :class:`SimulationError` — quarantined errors quoted,
        never silent — if any requested cell is not ``done``.
        """
        with self._lock:
            if cell_ids is None:
                rows = self._conn.execute(
                    "SELECT id, status, result, error FROM cells"
                    " ORDER BY ordinal"
                ).fetchall()
            else:
                marks = ",".join("?" * len(cell_ids))
                fetched = self._conn.execute(
                    f"SELECT id, status, result, error FROM cells"
                    f" WHERE id IN ({marks})",
                    tuple(cell_ids),
                ).fetchall()
                by_id = {int(row["id"]): row for row in fetched}
                missing = [i for i in cell_ids if i not in by_id]
                if missing:
                    raise SimulationError(
                        f"queue {self.path}: {len(missing)} grid cells "
                        f"missing from the table (ids {missing[:5]}…)"
                    )
                rows = [by_id[i] for i in cell_ids]
        incomplete = [row for row in rows if row["status"] != "done"]
        if incomplete:
            detail = "; ".join(
                f"cell {int(row['id'])} {row['status']}"
                + (f": {row['error'].splitlines()[-1]}" if row["error"] else "")
                for row in incomplete[:3]
            )
            raise SimulationError(
                f"queue {self.path}: {len(incomplete)} cells not done "
                f"({detail})"
            )
        return [json.loads(row["result"]) for row in rows]


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
class _Heartbeat(threading.Thread):
    """Extends one claim's lease until stopped; flags a lost lease."""

    def __init__(self, queue: ExperimentQueue, cell_id: int, owner: str,
                 lease_s: float) -> None:
        super().__init__(daemon=True)
        self._queue = queue
        self._cell_id = cell_id
        self._owner = owner
        self._lease_s = lease_s
        self._halt = threading.Event()  # _stop would shadow Thread._stop
        self.lost = False

    def run(self) -> None:
        interval = max(self._lease_s / 3.0, 0.05)
        while not self._halt.wait(interval):
            if not self._queue.heartbeat(
                self._cell_id, self._owner, lease_s=self._lease_s
            ):
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _default_owner() -> str:
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


def _execute_cell(engine: Engine, cell: ClaimedCell) -> dict[str, Any]:
    """Compute one cell's summary row (module-level for test injection)."""
    ds = engine.dataset(cell.dataset, scale=cell.scale, seed=cell.seed)
    model = _model_for(ds, cell.model, cell.variant)
    return engine.summary(cell.platform, ds, model)


def work(
    path: str | Path,
    *,
    cache_dir: str | None = None,
    owner: str | None = None,
    lease_s: float | None = None,
    max_cells: int | None = None,
    poll_s: float = 0.2,
    wait: bool = True,
    cell_delay: float | None = None,
    engine: Engine | None = None,
    timeout_s: float | None = None,
) -> WorkReport:
    """Drain a queue: claim, heartbeat, simulate, complete — repeat.

    Exits when the queue is drained (no ``pending`` or ``claimed``
    cells left — with ``wait=True``, the default, a worker outlives
    other claimants' leases, so a fleet survivor finishes a SIGKILLed
    sibling's cells), after ``max_cells``, or at ``timeout_s``.

    ``cache_dir`` defaults to the hint recorded at submit time, so
    every worker — and every retry — shares the content-addressed disk
    store and warm-starts instead of re-simulating.  ``engine``
    short-circuits engine construction for cells whose config digest
    matches (the coordinator's inline drain uses this so a serial
    ``queue=`` sweep shares its memory tier exactly like a plain
    serial sweep).

    ``cell_delay`` (or the ``REPRO_QUEUE_CELL_DELAY`` environment
    variable) sleeps inside each claimed cell under heartbeat — the
    fault-injection hook crash tests hang a victim worker on.
    """
    queue = ExperimentQueue(path)
    owner = owner or _default_owner()
    lease = queue.lease_s if lease_s is None else float(lease_s)
    if cell_delay is None:
        raw = os.environ.get(CELL_DELAY_ENV)
        cell_delay = float(raw) if raw else 0.0
    if cache_dir is None:
        cache_dir = queue.cache_dir
    engines: dict[str, Engine] = {}
    if engine is not None:
        engines[_pair_digest(engine.locator_config, engine.consumer_config)] = engine
    report = WorkReport(owner=owner)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    try:
        while max_cells is None or report.done + report.failed < max_cells:
            if deadline is not None and time.monotonic() > deadline:
                break
            cell = queue.claim(owner, lease_s=lease)
            if cell is None:
                counts = queue.counts()
                if counts["pending"] == 0 and (
                    counts["claimed"] == 0 or not wait
                ):
                    break
                time.sleep(poll_s)
                continue
            cell_engine = engines.get(cell.config_digest)
            if cell_engine is None:
                locator, consumer = queue.configs_for(cell.config_digest)
                cell_engine = engines.setdefault(
                    cell.config_digest,
                    Engine(locator=locator, consumer=consumer,
                           cache_dir=cache_dir),
                )
            beat = _Heartbeat(queue, cell.id, owner, lease)
            beat.start()
            try:
                if cell_delay:
                    time.sleep(cell_delay)
                row = _execute_cell(cell_engine, cell)
            except Exception:
                beat.stop()
                status = queue.fail(cell.id, owner, traceback.format_exc())
                if status is None:
                    report.lost += 1
                else:
                    report.failed += 1
                continue
            beat.stop()
            if beat.lost or not queue.complete(cell.id, owner, row):
                # The lease was reaped mid-run; someone else owns the
                # retry now.  Discard — the disk store already holds
                # the artifacts, so the retry warm-starts anyway.
                report.lost += 1
            else:
                report.done += 1
                report.cell_ids.append(cell.id)
    finally:
        queue.close()
    return report
