"""stdlib ``sqlite3`` as the reference engine for result-equivalence tests.

A test loads the same rows into :func:`reference_db` that it loads into a
:class:`~repro.relational.database.Database`, then checks each query with
:func:`assert_matches_sqlite`.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Any, Dict, Iterable, Sequence, Tuple


def reference_db(
    ddl: Iterable[str], tables: Dict[str, Sequence[Tuple[Any, ...]]]
) -> sqlite3.Connection:
    """An in-memory sqlite database built from *ddl*, then loaded with
    ``{table: rows}`` (rows in column order)."""
    conn = sqlite3.connect(":memory:")
    # The engine's LIKE is case-sensitive; sqlite's is not by default.
    conn.execute("PRAGMA case_sensitive_like = ON")
    for statement in ddl:
        conn.execute(statement)
    for name, rows in tables.items():
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            conn.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    return conn


def assert_matches_sqlite(
    db: Any, conn: sqlite3.Connection, sql: str, context: str = ""
) -> None:
    """*sql* returns the same rows on the engine and on sqlite.

    Queries with ORDER BY are compared as ordered lists, so their ORDER BY
    must be a total order; the rest are compared as multisets.
    """
    got = db.query(sql)
    expected = [tuple(row) for row in conn.execute(sql).fetchall()]
    ordered = " ORDER BY " in sql.upper()
    same = got == expected if ordered else Counter(got) == Counter(expected)
    assert same, (
        f"engine and sqlite disagree on {sql} {context}\n"
        f"  engine: {got!r}\n  sqlite: {expected!r}"
    )
