"""Which program functions are traced, and how spans become layer metrics.

Every span name is ``<layer>.<what>``.  The boundaries are public calls of
each module (plus the two private entry points the session path and the
socket framing go through, named where they are wrapped), so the layer
split needs no timer inside the program.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.core.app import WowApp
from repro.forms.runtime import FormController
from repro.relational import algebra, exprcompile
from repro.relational.database import Database, PreparedStatement
from repro.relational.faults import IOShim
from repro.relational.indexes import BTreeIndex
from repro.relational.plancache import PlanCache
from repro.relational.planner import Planner
from repro.relational.wal import WriteAheadLog
from repro.session import client as session_client
from repro.session import server as session_server
from repro.session.locks import LockManager
from repro.session.manager import SessionManager
from repro.sql import lexer, parser
from repro.windows.manager import WindowManager

from tracing import CHILD, END, NAME, OP, PARENT, START, Tracer, layer_of

#: spans whose calls are database *statements* when not nested in another
DATABASE_SPANS = ("database.execute", "database.prepared", "database.update")

#: layers in call order, for the printed self-time table
LAYERS = (
    "windows", "forms", "socket", "session", "locks", "database", "sql",
    "plancache", "planner", "exprcompile", "pager", "wal",
)


class TimingIO(IOShim):
    """An :class:`IOShim` that records a span around each device call.

    Passed as ``Database(io=...)`` on traced runs; it records only while
    the tracer is enabled, so set-up I/O is not traced.  Writes and fsyncs
    during a run come from WAL appends (no checkpoint runs inside the
    loop), so they are charged to the ``wal`` layer; page reads to the
    ``pager``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def _timed(self, name: str, call: Callable[..., Any], *args: Any) -> Any:
        if not self.tracer.enabled:
            return call(*args)
        span = self.tracer.begin(name)
        try:
            return call(*args)
        finally:
            self.tracer.end(span)

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        return self._timed("pager.pread", super().pread, fd, length, offset)

    def write(self, fd: int, data: bytes) -> int:
        return self._timed("wal.write", super().write, fd, data)

    def fsync(self, fd: int) -> None:
        self._timed("wal.fsync", super().fsync, fd)


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary; :meth:`Tracer.uninstall` undoes it.

    Nothing is recorded until ``tracer.enabled`` is set.
    """
    wrap = tracer.wrap_method
    wrap(WindowManager, "dispatch", "windows.dispatch")
    wrap(WindowManager, "render_frame", "windows.render")
    wrap(FormController, "handle_key", "forms.handle_key")
    wrap(FormController, "refresh", "forms.refresh")
    wrap(FormController, "save", "forms.save")
    wrap(SessionManager, "execute", "session.execute")
    wrap(LockManager, "acquire", "locks.acquire")
    wrap(Database, "execute", "database.execute")
    # The session layer enters the engine here rather than through execute().
    wrap(Database, "_execute_locked", "database.execute")
    wrap(PreparedStatement, "execute", "database.prepared")
    wrap(Database, "update", "database.update")
    wrap(Database, "prepare", "database.prepare")
    wrap(PlanCache, "key", "plancache.key")
    wrap(PlanCache, "lookup", "plancache.lookup")
    wrap(Planner, "plan_select", "planner.plan")
    wrap(Planner, "plan_union", "planner.plan")
    wrap(WriteAheadLog, "commit", "wal.commit")
    tracer.wrap_function(lexer.tokenize, "sql.tokenize")
    tracer.wrap_function(parser.parse_statement, "sql.parse")
    tracer.wrap_function(parser.parse_prepared, "sql.parse")
    tracer.wrap_function(exprcompile.compile_expr, "exprcompile.compile")
    tracer.wrap_function(exprcompile.compile_row_fn, "exprcompile.compile")
    _wrap_remote_execute(tracer)
    # Every frame one side sends the other side reads, through _recv_exact
    # (header, then body), so its requested byte counts are the frame bytes.
    original_recv = session_server._recv_exact

    @functools.wraps(original_recv)
    def counted_recv(sock: Any, count: int, allow_eof: bool) -> Any:
        tracer.count("socket.bytes", count)
        return original_recv(sock, count, allow_eof)

    tracer._set(session_server, "_recv_exact", counted_recv)
    for scan in (algebra.SeqScan, algebra.IndexEqScan, algebra.IndexRangeScan):
        tracer.count_batches(scan, "rows_batched", "executor.rows_examined")
    tracer.count_calls(BTreeIndex, "lookup", "btree.lookups")
    tracer.count_calls(BTreeIndex, "range_scan", "btree.lookups")
    tracer.count_calls(WowApp, "send_key", "windows.keys")


def _wrap_remote_execute(tracer: Tracer) -> None:
    """``RemoteSession.execute`` as the client span the server adopts."""
    cls = session_client.RemoteSession
    original = cls.__dict__["execute"]

    @functools.wraps(original)
    def traced(self: Any, sql: str) -> Any:
        if not tracer.enabled:
            return original(self, sql)
        span = tracer.begin("socket.client")
        tracer.remote_parent = span
        try:
            return original(self, sql)
        finally:
            tracer.remote_parent = None
            tracer.end(span)

    tracer._set(cls, "execute", traced)


def snapshot(db: Database, tracer: Tracer, renderer: Any = None) -> Dict[str, float]:
    """The engine counters and tracer counters the layer ratios use."""
    snap = db.metrics_snapshot()
    pager, plan_cache = snap["pager"], snap["plan_cache"]
    flat: Dict[str, float] = {
        "pager.hits": pager.get("hits", 0),
        "pager.misses": pager.get("misses", 0),
        "segments.hits": snap["segments"].get("seg_hits", 0),
        "segments.misses": snap["segments"].get("seg_misses", 0),
        "plancache.hits": plan_cache["hits"],
        "plancache.misses": plan_cache["misses"],
        "btree.node_visits": snap["btree"]["node_visits"],
        "executor.batch_rows": snap["executor"]["batch_rows"],
        "executor.exprs_compiled": snap["executor"]["exprs_compiled"],
        "wal.commits": snap["wal"].get("commits", 0),
        "wal.fsyncs": snap["wal"].get("fsyncs", 0),
        "wal.bytes": snap["wal"].get("bytes", 0),
        "sessions.lock_waits": snap["sessions"].get("lock_waits", 0),
        "sessions.statements": snap["sessions"].get("statements", 0),
        "windows.cells": renderer.cells_transmitted if renderer is not None else 0,
    }
    flat.update(tracer.counts())
    return flat


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def window_calls(spans: List[list], window_ops: int) -> Dict[str, int]:
    """Outermost calls per span name among the first *window_ops* ops.

    Re-entrant calls count once (see :func:`_nested`); ``statements``
    counts database calls.
    """
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        op = span[OP]
        if op is None or op >= window_ops:
            continue
        if _nested(span):
            continue
        name = span[NAME]
        calls[name] += 1
        if name in DATABASE_SPANS:
            calls["statements"] += 1
    return calls


#: calls that re-enter themselves for one logical call: a planner call for
#: a view inside the statement's, ``execute()`` entering ``_execute_locked``
_REENTRANT = ("planner.plan",) + DATABASE_SPANS


def _nested(span: list) -> bool:
    """True for a re-entrant call inside one of its own kind (counted once).

    A detail form's refresh inside the master's is a refresh of its own.
    """
    parent = span[PARENT]
    if parent is None:
        return False
    name, parent_name = span[NAME], parent[NAME]
    return name in _REENTRANT and (
        name == parent_name
        or (name in DATABASE_SPANS and parent_name in DATABASE_SPANS)
    )


def count_metrics(
    before: Dict[str, float],
    after: Dict[str, float],
    calls: Dict[str, int],
    ops: int,
    user_bytes: float,
) -> Dict[str, float]:
    """Counter-based layer metrics over one window of *ops* operations."""
    d: Dict[str, float] = defaultdict(float)
    for key, value in after.items():
        d[key] = value - before.get(key, 0)
    stmts = calls["statements"]
    return {
        "forms.refreshes_per_action": _ratio(calls["forms.refresh"], ops),
        "windows.cells_per_key": _ratio(d["windows.cells"], d["windows.keys"]),
        "session.lock_waits_per_kstmt": _ratio(
            1000 * d["sessions.lock_waits"], d["sessions.statements"]
        ),
        "socket.bytes_per_op": _ratio(d["socket.bytes"], ops),
        "sql.parses_per_stmt": _ratio(calls["sql.parse"], stmts),
        "sql.tokenize_per_stmt": _ratio(calls["sql.tokenize"], stmts),
        "plancache.hit_ratio": _ratio(
            d["plancache.hits"], d["plancache.hits"] + d["plancache.misses"]
        ),
        "planner.plans_per_stmt": _ratio(calls["planner.plan"], stmts),
        "exprcompile.compiles_per_stmt": _ratio(calls["exprcompile.compile"], stmts),
        "executor.rows_examined_per_row": _ratio(
            d["executor.rows_examined"], d["executor.batch_rows"]
        ),
        "pager.hit_ratio": _ratio(
            d["pager.hits"], d["pager.hits"] + d["pager.misses"]
        ),
        "pager.misses_per_op": _ratio(d["pager.misses"], ops),
        "segments.hit_ratio": _ratio(
            d["segments.hits"], d["segments.hits"] + d["segments.misses"]
        ),
        "btree.node_visits_per_lookup": _ratio(
            d["btree.node_visits"], d["btree.lookups"]
        ),
        "wal.fsyncs_per_commit": _ratio(d["wal.fsyncs"], d["wal.commits"]),
        "wal.bytes_per_user_byte": _ratio(d["wal.bytes"], user_bytes),
    }


def span_metrics(
    spans: List[list], ops: int, wal_commits: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time-based layer metrics over every span of a traced pass, and each
    layer's self milliseconds per operation."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    self_by_layer: Dict[str, float] = defaultdict(float)
    lock_max = 0.0
    op_wall = 0.0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        own = duration - span[CHILD]
        if name == "op":
            op_wall += duration
            self_by_layer["unattributed"] += own
            continue
        self_by_layer[layer_of(name)] += own
        if _nested(span):
            continue
        total[name] += duration
        calls[name] += 1
        if name == "locks.acquire" and duration > lock_max:
            lock_max = duration

    def per_call(*names: str) -> float:
        return 1000 * _ratio(
            sum(total[n] for n in names), sum(calls[n] for n in names)
        )

    def per_op(layer: str) -> float:
        return 1000 * _ratio(self_by_layer[layer], ops)

    metrics = {
        "forms.refresh_ms": per_call("forms.refresh"),
        "forms.save_ms": per_call("forms.save"),
        "windows.render_ms": per_call("windows.render"),
        "session.self_ms": per_op("session"),
        "session.lock_wait_ms": per_op("locks"),
        "session.lock_wait_max_ms": 1000 * lock_max,
        "socket.self_ms": per_op("socket"),
        "sql.parse_ms": per_call("sql.parse"),
        "planner.plan_ms": per_call("planner.plan"),
        "exprcompile.compile_ms": per_call("exprcompile.compile"),
        "database.self_ms": per_op("database"),
        "pager.pread_ms": per_call("pager.pread"),
        "wal.commit_ms": 1000 * _ratio(total["wal.commit"], wal_commits),
        "wal.fsync_ms": per_call("wal.fsync"),
        "unattributed_ms": per_op("unattributed"),
        "unattributed_share": _ratio(self_by_layer["unattributed"], op_wall),
    }
    layer_self = {layer: per_op(layer) for layer in LAYERS}
    return metrics, layer_self
