"""The three workloads: inputs from a seed, one closed-loop step, a check.

Each workload builds its data from the seed, reaches a warm state, and
hands the driver one or more *clients*.  A client's ``next_op()`` draws
the next operation from the seed and returns ``(kind, run)``: the kind
decides whether it counts as a read or a write, and ``run()`` performs it
and returns False when the result was wrong.  An exception from the
program counts as a failed operation.  Whatever needs
the database to confirm a result (read-back of writes, totals) runs in
``check()``, after the timed window.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import threading
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.app import WowApp
from repro.relational.database import Database
from repro.relational.faults import IOShim
from repro.session import DatabaseServer, RemoteSession, SessionManager
from repro.workloads.university import build_university

READ_KINDS = {"next", "query", "point", "range", "report"}

#: university size for both university workloads (~10k enrollments)
STUDENTS, COURSES, ENROLLMENTS_PER_STUDENT = 2000, 100, 5


def _canonical(rows: Sequence[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    """Rows as an order-free multiset (reports without ORDER BY)."""
    return sorted((tuple(row) for row in rows), key=repr)


def _storage_facts(db: Database) -> Dict[str, Dict[str, int]]:
    return {
        name: {"heap_pages": pages, "pool_target": pool}
        for name, pages, pool in db.query(
            "SELECT table_name, heap_pages, pool_target FROM _storage"
        )
    }


class Workload:
    """Base: subclasses set :attr:`name` and implement the hooks."""

    name = ""
    #: operations whose counters the per-layer ratios are taken over
    window_ops = 0

    def __init__(self, seed: int, workdir: str, io: Optional[IOShim]) -> None:
        """Build the data in *workdir* (disk workloads open it through *io*)
        and reach a warm state; the driver times this as set-up."""
        self.seed = seed
        self.db: Optional[Database] = None
        #: row-image bytes of the writes this client had acknowledged
        self.user_bytes = 0

    def clients(self) -> List[Any]:
        raise NotImplementedError

    def written_bytes(self) -> int:
        """Row-image bytes of every acknowledged write so far."""
        return sum(client.user_bytes for client in self.clients())

    def check(self) -> List[str]:
        """Problems found after the run; an empty list means correct."""
        raise NotImplementedError

    def facts(self) -> Dict[str, Any]:
        """Sizes and settings worth printing beside the results."""
        raise NotImplementedError

    def renderer(self) -> Any:
        return None

    def start_serving(self) -> None:
        """Untimed step between set-up and the pass (servers, sessions)."""

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


# ---------------------------------------------------------------------------
# forms_master_detail
# ---------------------------------------------------------------------------


class FormsMasterDetail(Workload):
    """One user at a master form over ``senior_students`` linked to a
    detail form over ``enrollments`` (embedded, in memory)."""

    name = "forms_master_detail"
    window_ops = 150

    def __init__(self, seed: int, workdir: str, io: Optional[IOShim]) -> None:
        super().__init__(seed, workdir, io)
        self.db = build_university(
            students=STUDENTS,
            courses=COURSES,
            enrollments_per_student=ENROLLMENTS_PER_STUDENT,
            seed=seed,
        )
        self.app = WowApp(self.db, 100, 40)
        self.master = self.app.open_form("senior_students", x=0, y=0)
        self.detail = self.app.open_form("enrollments", x=40, y=0)
        self.app.link(self.master, self.detail, [("id", "student_id")])
        self.app.wm.raise_window(self.master)
        #: (master id, detail rows shown) after each navigation
        self.visited: List[Tuple[int, int]] = []
        #: master id -> last gpa saved through the form
        self.saved: Dict[int, float] = {}
        self._rng = random.Random(seed * 7 + 1)
        for _ in range(40):  # prepared shapes, plans and screen warm
            self.next_op()[1]()

    def clients(self) -> List[Any]:
        return [self]

    def renderer(self) -> Any:
        return self.app.wm.renderer

    def next_op(self) -> Tuple[str, Callable[[], bool]]:
        rng = self._rng
        choice = rng.random()
        if choice < 0.70:
            return "next", functools.partial(self._navigate, "<DOWN>", None)
        if choice < 0.85:
            major = rng.randint(1, 6)
            return "query", functools.partial(
                self._navigate, f"<F4><TAB><TAB>{major}<ENTER>", major
            )
        gpa = round(rng.uniform(1.5, 4.0), 2)
        return "save", functools.partial(self._save, gpa)

    def _navigate(self, keys: str, major: Optional[int]) -> bool:
        self.app.send_keys(keys)
        row = self.master.controller.current_row
        if row is None:
            return False
        self.visited.append((row[0], self.detail.controller.record_count))
        return major is None or row[2] == major

    def _save(self, gpa: float) -> bool:
        self.app.send_keys(f"<F2><TAB><TAB><TAB>{gpa:.2f}<F2>")
        controller = self.master.controller
        row = controller.current_row
        if controller.message != "1 record(s) updated" or row[3] != gpa:
            return False
        self.saved[row[0]] = gpa
        self.user_bytes += len(json.dumps(list(row)))
        return True

    def check(self) -> List[str]:
        problems = []
        count = self.db.prepare(
            "SELECT COUNT(*) FROM enrollments WHERE student_id = ?"
        )
        expected: Dict[int, int] = {}
        for student_id, shown in self.visited:
            if student_id not in expected:
                expected[student_id] = count.query((student_id,))[0][0]
            if shown != expected[student_id]:
                problems.append(
                    f"detail of student {student_id} showed {shown} rows, "
                    f"table has {expected[student_id]}"
                )
        gpa = self.db.prepare("SELECT gpa FROM students WHERE id = ?")
        for student_id, value in self.saved.items():
            stored = gpa.query((student_id,))[0][0]
            if stored != value:
                problems.append(
                    f"student {student_id} gpa reads {stored}, saved {value}"
                )
        return problems

    def facts(self) -> Dict[str, Any]:
        return {
            "rows": {
                table: self.db.query(f"SELECT COUNT(*) FROM {table}")[0][0]
                for table in ("students", "senior_students", "courses", "enrollments")
            },
            "storage": "in memory",
            "clients": 1,
            "loop": "closed",
            "screen": "100x40",
        }


# ---------------------------------------------------------------------------
# oltp_session_disk
# ---------------------------------------------------------------------------

ACCOUNTS = 30_000
RANGE_ROWS = 100


class _OltpClient:
    """One session on its own thread: 80% point, 15% update, 5% range."""

    def __init__(self, workload: "OltpSessionDisk", index: int) -> None:
        self.workload = workload
        self.session = workload.manager.connect()
        self._rng = random.Random(workload.seed * 1000 + index)
        #: updates the session acknowledged
        self.acked = 0
        self.user_bytes = 0

    def next_op(self) -> Tuple[str, Callable[[], bool]]:
        rng = self._rng
        choice = rng.random()
        if choice < 0.80:
            return "point", functools.partial(self._point, rng.randrange(ACCOUNTS))
        if choice < 0.95:
            return "update", functools.partial(self._update, rng.randrange(ACCOUNTS))
        return "range", functools.partial(
            self._range, rng.randrange(ACCOUNTS - RANGE_ROWS)
        )

    def _point(self, key: int) -> bool:
        rows = self.session.query(f"SELECT bal FROM acct WHERE id = {key}")
        return len(rows) == 1

    def _update(self, key: int) -> bool:
        result = self.session.execute(
            f"UPDATE acct SET bal = bal + 1 WHERE id = {key}"
        )
        if result.rowcount != 1:
            return False
        self.acked += 1
        self.user_bytes += self.workload.row_bytes[key]
        return True

    def _range(self, low: int) -> bool:
        rows = self.session.query(
            f"SELECT id, bal FROM acct WHERE id BETWEEN {low} "
            f"AND {low + RANGE_ROWS - 1}"
        )
        return sorted(row[0] for row in rows) == list(range(low, low + RANGE_ROWS))


class OltpSessionDisk(Workload):
    """Two sessions on two threads over a disk table bigger than the pool."""

    name = "oltp_session_disk"
    window_ops = 2000

    def __init__(self, seed: int, workdir: str, io: Optional[IOShim]) -> None:
        super().__init__(seed, workdir, io)
        rng = random.Random(seed)
        rows = [
            {
                "id": key,
                "bal": rng.randrange(1000),
                "owner": f"owner-{rng.randrange(10**6):06d}",
                "note": f"branch-{rng.randrange(97):02d}-memo-{rng.randrange(10**5):05d}",
            }
            for key in range(ACCOUNTS)
        ]
        self.initial_total = sum(row["bal"] for row in rows)
        self.row_bytes = [len(json.dumps(list(row.values()))) for row in rows]
        self.path = os.path.join(workdir, "oltp")
        self.db = Database(path=self.path, fsync=True, io=io)
        self.db.execute(
            "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL, "
            "owner TEXT, note TEXT)"
        )
        self.db.bulk_insert("acct", rows)
        self.db.checkpoint()
        self.manager = SessionManager(self.db)
        self._clients = [_OltpClient(self, index) for index in range(2)]
        warm = [
            threading.Thread(target=self._warm, args=(client,))
            for client in self._clients
        ]
        for thread in warm:
            thread.start()
        for thread in warm:
            thread.join()

    @staticmethod
    def _warm(client: _OltpClient) -> None:
        for _ in range(150):
            client.next_op()[1]()

    def clients(self) -> List[Any]:
        return self._clients

    def check(self) -> List[str]:
        acked = sum(client.acked for client in self._clients)
        total = self.db.query("SELECT SUM(bal) FROM acct")[0][0]
        if total != self.initial_total + acked:
            return [
                f"SUM(bal) = {total}, expected {self.initial_total} + "
                f"{acked} acknowledged updates"
            ]
        return []

    def facts(self) -> Dict[str, Any]:
        return {
            "rows": {"acct": ACCOUNTS},
            "storage": _storage_facts(self.db).get("acct"),
            "clients": 2,
            "loop": "closed, one thread per session",
            "flush": "fsync=True",
        }

    def close(self) -> None:
        for client in self._clients:
            client.session.close()
        super().close()
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# analytics_socket
# ---------------------------------------------------------------------------


class AnalyticsSocket(Workload):
    """One remote client repeating a fixed report set over loopback."""

    name = "analytics_socket"
    window_ops = 240

    def __init__(self, seed: int, workdir: str, io: Optional[IOShim]) -> None:
        super().__init__(seed, workdir, io)
        self.path = os.path.join(workdir, "analytics")
        self.db = build_university(
            Database(path=self.path, fsync=True, io=io),
            students=STUDENTS,
            courses=COURSES,
            enrollments_per_student=ENROLLMENTS_PER_STUDENT,
            seed=seed,
        )
        self.db.checkpoint()
        rng = random.Random(seed * 31 + 7)
        student = rng.randint(1, STUDENTS)
        windows = sorted(rng.sample(range(1, STUDENTS - 19), 20))
        self.statements = [
            "SELECT dept_id, enrollment_count FROM dept_load ORDER BY dept_id",
            "SELECT student_id, student, course, term, grade FROM transcript "
            f"WHERE student_id = {student}",
            "SELECT major_id, COUNT(*), MIN(gpa), MAX(gpa) FROM students "
            "GROUP BY major_id ORDER BY major_id",
            "SELECT term, grade, COUNT(*) FROM enrollments GROUP BY term, grade",
        ] + [
            "SELECT student_id, course, term, grade FROM transcript "
            f"WHERE student_id BETWEEN {low} AND {low + 19}"
            for low in windows
        ]
        self.expected = self._oracle(student, windows)
        for _ in range(2):  # plans, compiled expressions, segments warm
            for sql in self.statements:
                self.db.execute(sql)
        self._next = 0
        self.server: Optional[DatabaseServer] = None
        self.client: Optional[RemoteSession] = None

    def _oracle(self, student: int, windows: Sequence[int]) -> List[List[Tuple]]:
        """Every report's rows, computed in Python from the base tables."""
        students = {
            row[0]: row
            for row in self.db.query("SELECT id, name, major_id, year, gpa FROM students")
        }
        courses = {
            row[0]: row for row in self.db.query("SELECT id, title, dept_id FROM courses")
        }
        enrollments = self.db.query(
            "SELECT student_id, course_id, term, grade FROM enrollments"
        )
        transcript = [
            (sid, students[sid][1], courses[cid][1], term, grade)
            for sid, cid, term, grade in enrollments
        ]
        load = Counter(courses[cid][2] for _sid, cid, _term, _grade in enrollments)
        by_major: Dict[int, List[float]] = defaultdict(list)
        for _sid, _name, major, _year, gpa in students.values():
            by_major[major].append(gpa)
        reports = [
            sorted(load.items()),
            [row for row in transcript if row[0] == student],
            [
                (major, len(gpas), min(gpas), max(gpas))
                for major, gpas in sorted(by_major.items())
            ],
            [
                (term, grade, n)
                for (term, grade), n in Counter(
                    (term, grade) for _s, _c, term, grade in enrollments
                ).items()
            ],
        ] + [
            [
                (sid, course, term, grade)
                for sid, _name, course, term, grade in transcript
                if low <= sid <= low + 19
            ]
            for low in windows
        ]
        return [_canonical(rows) for rows in reports]

    def start_serving(self) -> None:
        self.server = DatabaseServer(self.db).start()
        self.client = RemoteSession(*self.server.address)
        for sql in self.statements:  # the session path's own first calls
            self.client.execute(sql)

    def clients(self) -> List[Any]:
        return [self]

    def next_op(self) -> Tuple[str, Callable[[], bool]]:
        index = self._next
        self._next = (index + 1) % len(self.statements)
        return "report", functools.partial(self._report, index)

    def _report(self, index: int) -> bool:
        rows = self.client.query(self.statements[index])
        return _canonical(rows) == self.expected[index]

    def check(self) -> List[str]:
        return []  # every result was compared against the oracle as it came

    def facts(self) -> Dict[str, Any]:
        storage = _storage_facts(self.db)
        return {
            "rows": {
                table: self.db.query(f"SELECT COUNT(*) FROM {table}")[0][0]
                for table in ("students", "courses", "enrollments")
            },
            "storage": storage,
            "clients": 1,
            "loop": "closed, over loopback TCP",
            "flush": "fsync=True",
            "statements_per_cycle": len(self.statements),
        }

    def close(self) -> None:
        """Close the client, stop the server, then the database.

        ``DatabaseServer.stop()`` waits out a 5 s accept join (a known
        defect); the driver tears down outside every timed window and
        reports the time on its own.
        """
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        super().close()
        shutil.rmtree(self.path, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (FormsMasterDetail, OltpSessionDisk, AnalyticsSocket)
}
