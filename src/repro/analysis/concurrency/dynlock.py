"""Eraser-style dynamic lockset detector (opt-in via ``WOW_LOCK_CHECK=1``).

The static checkers in :mod:`lockorder` prove discipline over paths the
call graph can see; this module cross-checks the paths that actually ran.
When enabled, :class:`Database` wraps its latch in a :class:`CheckedLock`
and :class:`SessionManager` wraps its :class:`LockManager` in a
:class:`CheckedLockManager`; every acquisition then flows through one
process-wide :class:`LockCheckState` that keeps, per thread, the stack of
held locks *with the Python stack that acquired each one*, and globally
the observed lock-order graph with a first-witness stack per edge.

Checks (each violation is recorded as a structured report — thread,
both stacks, the cycle — and raised as :class:`LockDisciplineError`):

* **latch discipline** — a table-lock/catalog acquisition while this
  thread holds the engine latch (the PR 8 golden rule: lock waits happen
  outside the latch);
* **lockset order** — within one ``begin_lockset`` run, resources must
  arrive catalog-first then sorted ascending (the no-deadlock-by-
  construction argument for single-statement locksets);
* **order-graph inversion** — acquiring mutex B while holding mutex A
  when the observed graph already contains a path B ->* A (a cycle two
  concurrent threads could deadlock on, even if this run got lucky).

Cross-*statement* table-lock inversions are deliberately NOT violations:
2PL transactions acquire locks statement-by-statement in whatever order
the workload dictates — the chaos harness provokes exactly that — and
the runtime wait-for-graph detector is the enforcement there.  The
dynamic checker polices the mutexes and the per-statement lockset, where
deadlock would be a code bug rather than a workload property.

Everything here is stdlib-only (plus :mod:`repro.errors`): the analysis
package must import before any dependency is installed.
"""

from __future__ import annotations

import json
import os
import threading
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import LockDisciplineError
from repro.analysis.concurrency.lockmodel import (
    CATALOG_RESOURCE_VALUE,
    TABLE_LOCKS,
)

_ENGINE_LATCH = "engine_latch"

#: process-wide switch; WOW_LOCK_CHECK=1 at import time, or set_lock_check()
_enabled = os.environ.get("WOW_LOCK_CHECK", "0") not in ("", "0")


def enabled() -> bool:
    return _enabled


def set_lock_check(on: bool) -> None:
    """Flip the detector for Database/SessionManager instances created
    *after* this call (existing instances keep their unwrapped locks)."""
    global _enabled
    _enabled = bool(on)


def _capture_stack(skip: int = 2) -> List[str]:
    """Trimmed frame summaries, innermost last, dynlock frames dropped."""
    frames = traceback.format_stack()[:-skip]
    return [line.rstrip("\n") for line in frames[-12:]]


def _lockset_sort_key(resource: str) -> Tuple[bool, str]:
    """Catalog pseudo-lock first, then table names ascending — must match
    SessionManager._lockset."""
    return (resource != CATALOG_RESOURCE_VALUE, resource)


class LockCheckState:
    """Process-wide observed-order graph + per-thread held stacks."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._tls = threading.local()
        #: (first, then) -> first-witness {thread, stack}
        self.edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.violations: List[Dict[str, Any]] = []
        self.acquisitions = 0
        self.lockset_runs = 0

    # -- per-thread state -------------------------------------------------
    def _held(self) -> List[Tuple[str, List[str]]]:
        if not hasattr(self._tls, "held"):
            self._tls.held = []
        return self._tls.held

    def _lockset(self) -> List[Tuple[str, List[str]]]:
        if not hasattr(self._tls, "lockset"):
            self._tls.lockset = []
        return self._tls.lockset

    # -- mutex events (CheckedLock) ---------------------------------------
    def on_mutex_acquire(self, key: str) -> Optional[str]:
        """Record the acquisition; return a violation message when it
        inverted the observed order (the CheckedLock raises after backing
        the acquisition out, keeping lock state consistent)."""
        stack = _capture_stack(skip=3)
        held = self._held()
        problem: Optional[str] = None
        with self._mutex:
            self.acquisitions += 1
            for prior, prior_stack in held:
                if prior == key:
                    continue
                message = self._add_edge(prior, key, prior_stack, stack)
                if message is not None and problem is None:
                    problem = message
        held.append((key, stack))
        return problem

    def on_mutex_release(self, key: str) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == key:
                del held[i]
                return

    def holds(self, key: str) -> Optional[List[str]]:
        for name, stack in self._held():
            if name == key:
                return stack
        return None

    # -- table-lock events (CheckedLockManager) ---------------------------
    def begin_lockset(self, session_id: int) -> None:
        with self._mutex:
            self.lockset_runs += 1
        self._tls.lockset = []

    def on_resource_acquire(self, session_id: int, resource: str,
                            mode: str) -> None:
        stack = _capture_stack(skip=3)
        latch_stack = self.holds(_ENGINE_LATCH)
        if latch_stack is not None:
            self._violation(
                kind="latch_held_during_lock_wait",
                message=(
                    f"session {session_id} requested table lock "
                    f"{resource!r} ({mode}) while this thread holds the "
                    "engine latch — a lock wait here stalls every session"
                ),
                stacks={"engine_latch": latch_stack, "table_lock": stack},
                cycle=[_ENGINE_LATCH, TABLE_LOCKS, _ENGINE_LATCH],
            )
        lockset = self._lockset()
        if lockset:
            last, last_stack = lockset[-1]
            if (last != resource
                    and _lockset_sort_key(resource) < _lockset_sort_key(last)):
                self._violation(
                    kind="lockset_order_inversion",
                    message=(
                        f"session {session_id} acquired {resource!r} after "
                        f"{last!r} within one lockset — locksets must be "
                        "catalog-first then sorted, or two statements can "
                        "deadlock inside the no-deadlock window"
                    ),
                    stacks={last: last_stack, resource: stack},
                    cycle=[last, resource, last],
                )
        lockset.append((resource, stack))
        # mutex -> resource edges for the observed graph (held CheckedLocks
        # other than the latch; the latch case was flagged above)
        problem: Optional[str] = None
        with self._mutex:
            self.acquisitions += 1
            for prior, prior_stack in self._held():
                if prior != _ENGINE_LATCH:
                    message = self._add_edge(
                        prior, TABLE_LOCKS, prior_stack, stack)
                    if message is not None and problem is None:
                        problem = message
        if problem is not None:
            raise LockDisciplineError(problem)

    # -- order graph ------------------------------------------------------
    def _add_edge(self, first: str, then: str, first_stack: List[str],
                  then_stack: List[str]) -> Optional[str]:
        """Record first->then; when the reverse path already exists,
        record the inversion and return its message so the caller can
        raise outside this mutex.  Caller holds self._mutex."""
        edge = (first, then)
        if edge in self.edges:
            return None
        path = self._find_path(then, first)
        self.edges[edge] = {
            "thread": threading.current_thread().name,
            "stack": then_stack,
            "held_stack": first_stack,
        }
        if path is None:
            return None
        witness = self.edges.get((path[0], path[1]), {})
        message = (
            f"acquired `{then}` while holding `{first}`, but the "
            "observed order graph already contains "
            + " -> ".join(path)
            + " — two threads interleaving these paths can deadlock"
        )
        self._violation_locked(
            kind="order_graph_inversion",
            message=message,
            stacks={
                f"this thread ({first} held here)": first_stack,
                f"this thread ({then} acquired here)": then_stack,
                f"prior witness ({path[0]} -> {path[1]})":
                    witness.get("stack", []),
            },
            cycle=list(path) + [then],
        )
        return message

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """BFS path src ->* dst in the observed edge graph (mutex held)."""
        if src == dst:
            return [src]
        parents: Dict[str, str] = {}
        queue = [src]
        seen: Set[str] = {src}
        while queue:
            cur = queue.pop(0)
            for a, b in self.edges:
                if a != cur or b in seen:
                    continue
                parents[b] = cur
                if b == dst:
                    path = [b]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(b)
                queue.append(b)
        return None

    # -- violations -------------------------------------------------------
    def _violation(self, **report: Any) -> None:
        with self._mutex:
            self._violation_locked(**report)
        raise LockDisciplineError(report["message"])

    def _violation_locked(self, **report: Any) -> None:
        report["thread"] = threading.current_thread().name
        self.violations.append(report)
        self._dump(report)

    def _dump(self, report: Dict[str, Any]) -> None:
        target = os.environ.get("WOW_TELEMETRY_DIR")
        if not target:
            return
        try:
            os.makedirs(target, exist_ok=True)
            with open(os.path.join(target, "lock_violations.jsonl"),
                      "a", encoding="utf-8") as fh:
                fh.write(json.dumps(report) + "\n")
        except OSError:
            pass  # telemetry must never break the engine  # wowlint: allow WOW002

    # -- reporting --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._mutex:
            return {
                "enabled": _enabled,
                "acquisitions": self.acquisitions,
                "lockset_runs": self.lockset_runs,
                "observed_edges": sorted(
                    f"{a} -> {b}" for a, b in self.edges),
                "violations": [dict(v) for v in self.violations],
            }

    def reset(self) -> None:
        with self._mutex:
            self.edges.clear()
            self.violations.clear()
            self.acquisitions = 0
            self.lockset_runs = 0


#: the process-wide detector state
_STATE = LockCheckState()


def state() -> LockCheckState:
    return _STATE


def snapshot() -> Dict[str, Any]:
    return _STATE.snapshot()


def reset() -> None:
    _STATE.reset()


class CheckedLock:
    """An RLock that reports outermost acquire/release to the detector."""

    def __init__(self, key: str, inner: Optional[threading.RLock] = None):
        self.key = key
        self._inner = inner if inner is not None else threading.RLock()
        self._tls = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            depth = getattr(self._tls, "depth", 0)
            problem = None
            if depth == 0:
                problem = _STATE.on_mutex_acquire(self.key)
            self._tls.depth = depth + 1
            if problem is not None:
                # back the acquisition out before raising so lock state
                # stays consistent for the caller's cleanup paths
                self.release()
                raise LockDisciplineError(problem)
        return ok

    def release(self) -> None:
        self._inner.release()
        depth = getattr(self._tls, "depth", 1) - 1
        self._tls.depth = depth
        if depth == 0:
            _STATE.on_mutex_release(self.key)

    def __enter__(self) -> "CheckedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class CheckedLockManager:
    """Delegating wrapper over LockManager that feeds the detector."""

    def __init__(self, inner: Any):
        self._inner = inner

    def begin_lockset(self, session_id: int) -> None:
        _STATE.begin_lockset(session_id)
        self._inner.begin_lockset(session_id)

    def acquire(self, session_id: int, resource: str, mode: str,
                *args: Any, **kwargs: Any) -> None:
        _STATE.on_resource_acquire(session_id, resource, mode)
        self._inner.acquire(session_id, resource, mode, *args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def maybe_wrap_latch(lock: threading.RLock) -> Any:
    """The Database latch, wrapped when the detector is enabled."""
    if _enabled:
        return CheckedLock(_ENGINE_LATCH, lock)
    return lock


def maybe_checked_lock_manager(manager: Any) -> Any:
    if _enabled:
        return CheckedLockManager(manager)
    return manager
