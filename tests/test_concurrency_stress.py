"""Multi-threaded chaos harness: concurrent sessions that survive abuse.

Eight worker sessions hammer one engine with a seeded mix of autocommit
DML, multi-statement transactions (some rolled back on purpose), reads
that force S->X upgrades, catalog-churning DDL, and deliberately
conflicting lock orders.  Every worker's operation stream is derived from
the test seed, so a failing seed reproduces the same workload; thread
interleaving still varies, which is the point — the invariants below must
hold under *any* interleaving:

* **zero lost updates** — `SUM(v)` over the counters table equals exactly
  the increments whose transactions committed;
* the audit table holds exactly the committed audit rows;
* `integrity_check()` is clean and the engine never degrades;
* every deadlock was resolved by aborting a victim (never by hanging —
  every worker thread is joined with a timeout);
* the session counters surface in `metrics_snapshot()["sessions"]` and
  the `_statements`/`_sessions` telemetry tables stay joinable.

`WOW_CHAOS_SEEDS` widens the seed matrix for CI (`=20` runs seeds 0..19);
the default three seeds keep the tier-1 run fast.  A failed invariant or
a hung worker reports its seed and each worker's last statements with
their outcomes, so the failing run can be replayed and read.  The crash
variants at the bottom mix in the fault-injection harness
(`repro.relational.faults`): a mid-commit kill -9 under concurrent
sessions must recover to a consistent, non-degraded database.
"""

from __future__ import annotations

import collections
import contextlib
import os
import random
import shutil
import threading

import pytest

from repro.analysis.concurrency import dynlock
from repro.errors import WowError
from repro.relational.database import Database
from repro.relational.faults import FaultInjector, InjectedCrash
from repro.session import SessionConfig, SessionManager

N_WORKERS = 8
OPS_PER_WORKER = 25
COUNTER_ROWS = 4
JOIN_TIMEOUT = 60.0
#: statements per worker kept for the failure report
TRACE_LENGTH = 20


def _seeds():
    value = os.environ.get("WOW_CHAOS_SEEDS")
    return list(range(int(value))) if value else [0, 1, 2]


def _crash_max_points(default=None):
    value = os.environ.get("CRASH_MAX_POINTS")
    return int(value) if value else default


def _hard_close(db):
    """Release file handles the way a dead process would: no flushing."""
    for pager in db._pagers.values():
        if pager._fd is not None:
            os.close(pager._fd)
            pager._fd = None
    if db.wal is not None and db.wal._fd is not None:
        os.close(db.wal._fd)
        db.wal._fd = None


def _setup_schema(db):
    db.execute("CREATE TABLE counters (id INT PRIMARY KEY, v INT)")
    values = ", ".join(f"({i}, 0)" for i in range(COUNTER_ROWS))
    db.execute(f"INSERT INTO counters VALUES {values}")
    db.execute("CREATE TABLE audit (id INT PRIMARY KEY, worker INT, op INT)")


class _Worker:
    """One session's seeded operation stream plus its committed-work ledger."""

    def __init__(self, manager, worker_id, seed):
        self.manager = manager
        self.worker = worker_id
        self.rng = random.Random(seed * 7919 + worker_id + 1)
        self.committed_increments = 0
        self.committed_audits = 0
        self.retryable_failures = 0
        self.crashed = False
        self.unexpected = []
        #: (statement, outcome) for the last TRACE_LENGTH statements
        self.trace = collections.deque(maxlen=TRACE_LENGTH)

    def run(self):
        try:
            session = self.manager.connect()
            try:
                for op in range(OPS_PER_WORKER):
                    self._one(session, op)
            finally:
                session.close()
        except InjectedCrash:
            self.crashed = True  # the "process" died; recovery is verified
        except Exception as exc:  # noqa: BLE001 - harness boundary
            self.unexpected.append(exc)

    def _execute(self, session, sql):
        """Run one statement, recording it and its outcome in the trace."""
        try:
            session.execute(sql)
        except BaseException as exc:
            self.trace.append((sql, f"{type(exc).__name__}: {exc}"))
            raise
        self.trace.append((sql, "ok"))

    # -- one operation ------------------------------------------------------

    def _one(self, session, op):
        roll = self.rng.random()
        try:
            if roll < 0.25:
                self._execute(session, "SELECT SUM(v) FROM counters")
            elif roll < 0.50:
                row = self.rng.randrange(COUNTER_ROWS)
                self._execute(
                    session, f"UPDATE counters SET v = v + 1 WHERE id = {row}"
                )
                self.committed_increments += 1
            elif roll < 0.62:
                self._execute(
                    session,
                    f"INSERT INTO audit VALUES "
                    f"({self.worker * 1000 + op}, {self.worker}, {op})",
                )
                self.committed_audits += 1
            elif roll < 0.94:
                self._txn(session, op)
            else:
                self._ddl(session, op)
        except WowError as exc:
            # A retryable failure means the work provably did not commit
            # (the transaction was rolled back wholesale); losing it is
            # fine, mis-counting it would break the lost-update invariant.
            if not exc.retryable:
                raise
            self.retryable_failures += 1

    def _txn(self, session, op):
        """A multi-statement transaction: upgrade fuel (S then X on the
        same table) and randomized table order (cross-table deadlock fuel).
        Retried wholesale when aborted as a victim."""
        commit = self.rng.random() < 0.8
        rows = [
            self.rng.randrange(COUNTER_ROWS)
            for _ in range(self.rng.randrange(1, 4))
        ]
        audit_first = self.rng.random() < 0.5
        audit_id = 100_000 + self.worker * 1000 + op
        audit_sql = (
            f"INSERT INTO audit VALUES ({audit_id}, {self.worker}, {op})"
        )
        for _attempt in range(4):
            try:
                self._execute(session, "BEGIN")
                # S first
                self._execute(session, "SELECT COUNT(*) FROM counters")
                if audit_first:
                    self._execute(session, audit_sql)
                for row in rows:
                    self._execute(
                        session,
                        f"UPDATE counters SET v = v + 1 WHERE id = {row}",
                    )
                if not audit_first:
                    self._execute(session, audit_sql)
                if commit:
                    self._execute(session, "COMMIT")
                    self.committed_increments += len(rows)
                    self.committed_audits += 1
                else:
                    self._execute(session, "ROLLBACK")
                return
            except WowError as exc:
                if not exc.retryable:
                    raise
                # the whole transaction was aborted server-side
                self.retryable_failures += 1
        # out of retries: the transaction never committed, counts nothing

    def _ddl(self, session, op):
        """Catalog churn: forces the catalog X lock to serialise against
        every open transaction, and invalidates every cached plan."""
        name = f"scratch_{self.worker}_{op}"
        self._execute(session, f"CREATE TABLE {name} (id INT PRIMARY KEY)")
        self._execute(session, f"DROP TABLE {name}")


def _replay_report(seed, workers):
    """The seed to replay plus each worker's last statements and outcomes."""
    lines = [f"chaos seed {seed}; last statements per worker (oldest first):"]
    for worker in workers:
        lines.append(f"  worker {worker.worker}:")
        lines.extend(
            f"    {sql}  ->  {outcome}" for sql, outcome in worker.trace
        )
    return "\n".join(lines)


@contextlib.contextmanager
def _replayable(seed, workers):
    """Re-raise a failed check with :func:`_replay_report` attached."""
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"{exc}\n{_replay_report(seed, workers)}") from exc


def _run_workers(manager, seed):
    workers = [_Worker(manager, w, seed) for w in range(N_WORKERS)]
    threads = [
        threading.Thread(target=w.run, name=f"chaos-w{w.worker}", daemon=True)
        for w in workers
    ]
    for thread in threads:
        thread.start()
    with _replayable(seed, workers):
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive(), (
                "worker hung — a lock wait neither timed out nor "
                "deadlock-aborted"
            )
    return workers


@pytest.fixture
def lock_check():
    """Run the chaos workload under the Eraser-style lockset detector:
    every latch/table-lock acquisition is order-checked, and any lock
    discipline violation surfaces both as a LockDisciplineError in a
    worker's ``unexpected`` list and in the snapshot asserted below."""
    dynlock.reset()
    previous = dynlock.enabled()
    dynlock.set_lock_check(True)
    try:
        yield
    finally:
        dynlock.set_lock_check(previous)
        dynlock.reset()


@pytest.mark.parametrize("seed", _seeds())
def test_chaos_invariants(seed, lock_check):
    db = Database()
    manager = SessionManager(
        db,
        SessionConfig(
            max_sessions=N_WORKERS,
            lock_timeout=0.5,
            max_retries=3,
            backoff_base=0.001,
            backoff_cap=0.02,
            retry_seed=seed,
        ),
    )
    _setup_schema(db)
    workers = _run_workers(manager, seed)
    with _replayable(seed, workers):
        assert not any(w.unexpected for w in workers), [
            w.unexpected for w in workers if w.unexpected
        ]

        # zero lost updates: the committed ledger matches the table exactly
        total = sum(w.committed_increments for w in workers)
        assert db.query("SELECT SUM(v) FROM counters") == [(total,)]
        audits = sum(w.committed_audits for w in workers)
        assert db.query("SELECT COUNT(*) FROM audit") == [(audits,)]

        report = db.integrity_check()
        assert report.ok, report.problems
        assert not db.read_only

        snap = db.metrics_snapshot()["sessions"]
        assert snap["statements"] > N_WORKERS
        assert snap["connects"] == N_WORKERS
        assert snap["disconnects"] == N_WORKERS
        # every deadlock was resolved by aborting a victim
        assert snap["aborts"] >= snap["lock_deadlocks"]

        # telemetry stays joinable: a live session's statements carry its id
        post = manager.connect()
        post.query("SELECT COUNT(*) FROM counters")
        joined = db.query(
            "SELECT COUNT(*) FROM _statements st "
            "JOIN _sessions s ON st.session = s.id"
        )
        assert joined[0][0] >= 1
        post.close()
        manager.close()

        # the dynamic lockset detector watched every acquisition: no thread
        # ever waited on a table lock under the latch, inverted a statement
        # lockset, or inverted the observed mutex order
        dyn = dynlock.snapshot()
        assert dyn["enabled"]
        assert dyn["acquisitions"] > 0
        assert dyn["lockset_runs"] > N_WORKERS
        assert dyn["violations"] == [], dyn["violations"]


def test_chaos_workload_is_seed_deterministic():
    """The op stream is a pure function of (seed, worker): two workers
    built from the same seed draw identical decisions."""
    a = _Worker(None, 3, seed=11)
    b = _Worker(None, 3, seed=11)
    assert [a.rng.random() for _ in range(50)] == [
        b.rng.random() for _ in range(50)
    ]
    c = _Worker(None, 4, seed=11)
    assert [a.rng.random() for _ in range(5)] != [
        c.rng.random() for _ in range(5)
    ]


def test_failure_report_names_seed_and_recent_statements():
    """A failed check carries the seed and each worker's statement tail."""
    worker = _Worker(None, 2, seed=5)
    worker.trace.extend(("BEGIN", "ok") for _ in range(TRACE_LENGTH + 5))
    worker.trace.append(("COMMIT", "SerializationError: deadlock"))
    with pytest.raises(AssertionError) as info:
        with _replayable(5, [worker]):
            assert False, "lost update"
    text = str(info.value)
    assert "lost update" in text
    assert "chaos seed 5" in text
    assert "COMMIT  ->  SerializationError: deadlock" in text
    assert text.count("BEGIN  ->  ok") == TRACE_LENGTH - 1


# ---------------------------------------------------------------------------
# Crashes under concurrency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("crash_offset", [5, 60])
def test_threaded_chaos_with_mid_run_crash(tmp_path, crash_offset):
    """Kill -9 lands while 8 sessions are mid-flight; the reopened
    database must be consistent and writable regardless of which worker's
    I/O call drew the short straw."""
    path = str(tmp_path / f"chaos_crash_{crash_offset}")
    shim = FaultInjector()  # count-only while setting up
    db = Database(path=path, fsync=True, io=shim)
    manager = SessionManager(
        db,
        SessionConfig(
            max_sessions=N_WORKERS,
            lock_timeout=0.3,
            max_retries=2,
            backoff_base=0.001,
            backoff_cap=0.02,
            retry_seed=crash_offset,
        ),
    )
    _setup_schema(db)
    db.checkpoint()  # schema is durable before the crash point is armed
    shim.crash_at = shim.io_calls + crash_offset

    workers = _run_workers(manager, seed=crash_offset)
    with _replayable(crash_offset, workers):
        assert not any(w.unexpected for w in workers), [
            w.unexpected for w in workers if w.unexpected
        ]
    assert any(w.crashed for w in workers), (
        "the armed crash point was never reached — widen the offset"
    )
    _hard_close(db)

    reopened = Database(path=path)
    report = reopened.integrity_check()
    assert report.ok, report.problems
    assert not reopened.read_only
    rows = dict(reopened.query("SELECT id, v FROM counters"))
    assert sorted(rows) == list(range(COUNTER_ROWS))
    committed = sum(w.committed_increments for w in workers)
    ceiling = N_WORKERS * OPS_PER_WORKER * 3
    assert 0 <= sum(rows.values()) <= ceiling
    # a commit acknowledged before the crash point may or may not have
    # been the one that crashed; but recovery must never invent updates
    assert sum(rows.values()) <= committed + ceiling
    # the recovered database still takes writes
    reopened.execute("INSERT INTO audit VALUES (999999, -1, -1)")
    reopened.close()


def test_threaded_chaos_tiny_pool(tmp_path):
    """Eight sessions hammer a database whose buffer pool holds two pages.

    Every statement overflows the pool, so this run leans entirely on the
    no-steal discipline: a dirty or pinned page picked as an eviction
    victim raises StorageError inside the pager (surfacing in a worker's
    ``unexpected`` list), and a page silently stolen to disk would break
    the recovery comparison after reopen.
    """
    path = str(tmp_path / "chaos_tiny_pool")
    db = Database(path=path, fsync=True, pool_size=2, prefetch_pages=4)
    manager = SessionManager(
        db,
        SessionConfig(
            max_sessions=N_WORKERS,
            lock_timeout=0.3,
            max_retries=2,
            backoff_base=0.001,
            backoff_cap=0.02,
            retry_seed=7,
        ),
    )
    _setup_schema(db)
    # A heap wider than the pool: scanning it pins a prefetch window of 4
    # pages into a 2-page pool, so the pool *must* overflow (rather than
    # steal) to honour the promise read_pages made to the scan.
    db.execute("CREATE TABLE filler (id INT PRIMARY KEY, pad TEXT)")
    values = ", ".join(f"({i}, '{'x' * 200}')" for i in range(200))
    db.execute(f"INSERT INTO filler VALUES {values}")
    db.checkpoint()
    assert db.catalog.table("filler").heap.page_count() > 4
    assert db.query("SELECT COUNT(*) FROM filler") == [(200,)]
    workers = _run_workers(manager, seed=7)
    with _replayable(7, workers):
        assert not any(w.unexpected for w in workers), [
            w.unexpected for w in workers if w.unexpected
        ]
    pool_stats = db.metrics_snapshot()["pager"]
    assert pool_stats.get("pool_overflows", 0) > 0, (
        "a two-page pool never overflowed — the pressure test exerted none"
    )
    expected = dict(db.query("SELECT id, v FROM counters"))
    db.close()

    reopened = Database(path=path)
    report = reopened.integrity_check()
    assert report.ok, report.problems
    assert dict(reopened.query("SELECT id, v FROM counters")) == expected
    reopened.close()


def test_two_session_crash_exhaustion(tmp_path):
    """Satellite: the PR 3 crash-point exhaustion harness over a
    deterministic two-session interleaving — one session commits while the
    other is still mid-transaction.  Every crash point must recover to one
    of the legal states, with the commit order respected: session 2's
    commit happens after session 1's, so t2 being durable implies t1 is."""
    path = str(tmp_path / "two_session_db")

    def run(shim):
        shutil.rmtree(path, ignore_errors=True)
        db = Database(path=path, fsync=True, io=shim)
        manager = SessionManager(db)
        try:
            db.execute("CREATE TABLE t1 (id INT PRIMARY KEY)")
            db.execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
            s1, s2 = manager.connect(), manager.connect()
            s1.execute("BEGIN")
            s1.execute("INSERT INTO t1 VALUES (1)")
            s2.execute("BEGIN")
            s2.execute("INSERT INTO t2 VALUES (1)")
            s1.execute("COMMIT")  # s2 is mid-txn at this commit
            s2.execute("INSERT INTO t2 VALUES (2)")
            s2.execute("COMMIT")
            s1.close()
            s2.close()
            db.checkpoint()
            db.close()
        except InjectedCrash:
            _hard_close(db)
            raise

    def verify(shim):
        db = Database(path=path)
        report = db.integrity_check()
        assert report.ok, (shim.crash_at, report.problems)
        assert not db.read_only, shim.crash_at
        names = db.table_names()
        t1 = sorted(db.query("SELECT id FROM t1")) if "t1" in names else []
        t2 = sorted(db.query("SELECT id FROM t2")) if "t2" in names else []
        # transaction atomicity: all of a txn's rows or none of them
        assert t1 in ([], [(1,)]), (shim.crash_at, t1)
        assert t2 in ([], [(1,), (2,)]), (shim.crash_at, t2)
        # commit order: s2 committed strictly after s1
        if t2:
            assert t1 == [(1,)], (shim.crash_at, t1, t2)
        db.close()

    from repro.relational.faults import exhaust_crash_points

    points = exhaust_crash_points(
        run, verify, max_points=_crash_max_points()
    )
    assert points, "the workload produced no fault-injectable I/O"
