"""Buffer-pool v2 benchmark: prefetch, segment cache, and free-space reuse.

Three gates, one per headline storage feature of the v2 pool:

1. **Cold sequential scan** — a full heap scan through ``scan_pages``
   with read-ahead prefetch vs ``prefetch_pages=0`` (the seed pool's
   page-at-a-time read path).  The OS page cache hides device latency
   on a dev box, so the cold device is modelled with an ``IOShim`` that
   adds a fixed latency to every ``pread`` — the prefetch win is the
   collapsed *number* of reads (one per contiguous run, not one per
   page), which the report also shows raw.  Gate: >= 1.5x shimmed
   wall-clock speedup AND >= 1.5x fewer preads.
2. **Hot analytic scan** — a GROUP BY aggregate over a warm table with
   ``PlannerConfig.segment_cache`` on vs off.  With
   the cache on, repeat scans serve decoded column arrays straight from
   the segment store instead of re-reading and re-decoding every page.
   Gate: >= 2x.
3. **Free-space reuse** — delete half a table, insert the same volume
   back, and require the heap file not to grow: the free-space map must
   route the new rows into the holes the deletes left.  Gate: heap page
   count after == before (measured through the ``_storage`` telemetry
   table).

Run standalone (``python benchmarks/bench_bufferpool.py [--smoke]``);
``--smoke`` shrinks the dataset (still >= 8x the pool size) and loosens
the hot-scan gate to 1.3x so CI noise cannot flake the job.  Results
land in ``benchmarks/results/bufferpool.txt``, machine-readable copies
in ``benchmarks/results/bufferpool.json`` and ``BENCH_bufferpool.json``
at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.relational.database import Database  # noqa: E402
from repro.relational.faults import IOShim  # noqa: E402
from repro.relational.heap import HeapFile  # noqa: E402
from repro.relational.pager import (  # noqa: E402
    DEFAULT_PREFETCH_PAGES,
    FilePager,
    PAGE_SIZE,
)
from repro.relational.planner import PlannerConfig  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Fixed per-pread latency modelling a cold device (spinning disks sit at
# ~100us-10ms per seek; 50us is deliberately conservative).
DEVICE_LATENCY_S = 0.00005

HOT_QUERY = "SELECT grp, COUNT(*), SUM(val) FROM fact GROUP BY grp"


class _SlowDisk(IOShim):
    """IOShim that charges a fixed latency per ``pread`` call.

    Batch reads pay the latency once per call, page-at-a-time reads pay
    it once per page — exactly the trade-off prefetch exists to win.
    The wait busy-spins on ``perf_counter`` because ``time.sleep`` on
    Linux rounds tiny sleeps up to the scheduler tick, which would
    exaggerate the speedup instead of modelling it.
    """

    def __init__(self, latency: float = DEVICE_LATENCY_S) -> None:
        self.latency = latency
        self.preads = 0

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        self.preads += 1
        deadline = time.perf_counter() + self.latency
        while time.perf_counter() < deadline:
            pass
        return super().pread(fd, length, offset)


def _build_heap(path: str, rows: int) -> int:
    """Write a heap of *rows* fixed-size records; return its page count."""
    pager = FilePager(path, pool_size=4096)
    heap = HeapFile(pager)
    for _ in range(rows):
        heap.insert(b"r" * 180)
    heap.flush()
    pager.close()
    return os.path.getsize(path) // PAGE_SIZE


def _cold_scan(path: str, pool_size: int, prefetch: int, shimmed: bool):
    """One cold full scan; returns (ms, preads, rows_seen)."""
    shim = _SlowDisk() if shimmed else None
    pager = FilePager(
        path, pool_size=pool_size, prefetch_pages=prefetch, io=shim
    )
    heap = HeapFile(pager)
    start = time.perf_counter()
    rows = sum(len(live) for _, _, live in heap.scan_pages())
    elapsed = (time.perf_counter() - start) * 1000.0
    preads = shim.preads if shim else pager.stats["misses"]
    pager.close()
    return elapsed, preads, rows


def _best_cold(path, pool_size, prefetch, shimmed, rounds):
    best = (float("inf"), 0, 0)
    for _ in range(rounds):
        result = _cold_scan(path, pool_size, prefetch, shimmed)
        if result[0] < best[0]:
            best = result
    return best


def _build_fact_db(data_dir: str, rows: int) -> Database:
    db = Database(path=data_dir)
    db.execute(
        "CREATE TABLE fact (id INT PRIMARY KEY, grp INT, val INT, pad TEXT)"
    )
    pad = "p" * 40
    for i in range(rows):
        db.insert(
            "fact", {"id": i, "grp": i % 13, "val": i % 997, "pad": pad}
        )
    db.checkpoint()
    return db


def _best_hot(db: Database, segment_cache: bool, rounds: int, reps: int):
    """Best-of-*rounds* mean ms for the hot aggregate; returns (ms, rows)."""
    db.set_planner_config(PlannerConfig(segment_cache=segment_cache))
    rows = db.query(HOT_QUERY)  # warm: plan cached, segments built
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            db.query(HOT_QUERY)
        best = min(best, (time.perf_counter() - start) / reps)
    return best * 1000.0, sorted(rows)


def _heap_pages(db: Database, table: str) -> int:
    return db.execute(
        f"SELECT heap_pages FROM _storage WHERE table_name = '{table}'"
    ).scalar()


def _reuse_probe(db: Database, rows: int):
    """Delete the first half of ``fact``, insert it back, compare pages.

    The reinserted rows reuse the deleted ids so the records are
    byte-identical — otherwise larger id values encode a byte or two
    wider and legitimately pack fewer rows per page, which would read
    as growth the free-space map is not responsible for.
    """
    pages_before = _heap_pages(db, "fact")
    half = rows // 2
    db.execute(f"DELETE FROM fact WHERE id < {half}")
    pad = "p" * 40
    for i in range(half):
        db.insert(
            "fact",
            {"id": i, "grp": i % 13, "val": i % 997, "pad": pad},
        )
    db.checkpoint()
    pages_after = _heap_pages(db, "fact")
    count = db.execute("SELECT COUNT(*) FROM fact").scalar()
    return pages_before, pages_after, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small dataset and a looser hot-scan gate (1.3x) for CI",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        heap_rows, pool_size, fact_rows, rounds, reps = 6_000, 32, 4_000, 3, 2
        cold_gate, hot_gate = 1.5, 1.3
    else:
        heap_rows, pool_size, fact_rows, rounds, reps = 40_000, 128, 20_000, 5, 3
        cold_gate, hot_gate = 1.5, 2.0

    with tempfile.TemporaryDirectory(prefix="bench_bufferpool_") as tmp:
        # --- gate 1: cold sequential scan, prefetch vs page-at-a-time ---
        heap_path = os.path.join(tmp, "cold.heap")
        heap_pages = _build_heap(heap_path, heap_rows)
        assert heap_pages >= 8 * pool_size, (
            f"dataset ({heap_pages} pages) must dwarf the pool ({pool_size})"
        )
        prefetch = DEFAULT_PREFETCH_PAGES
        base_ms, base_preads, base_rows = _best_cold(
            heap_path, pool_size, 0, True, rounds
        )
        pre_ms, pre_preads, pre_rows = _best_cold(
            heap_path, pool_size, prefetch, True, rounds
        )
        raw_base_ms, _, _ = _best_cold(heap_path, pool_size, 0, False, rounds)
        raw_pre_ms, _, _ = _best_cold(
            heap_path, pool_size, prefetch, False, rounds
        )
        assert base_rows == pre_rows == heap_rows, "scan modes disagree on rows"
        cold_speedup = base_ms / pre_ms
        pread_ratio = base_preads / pre_preads

        # --- gates 2 + 3: hot analytic scan, then free-space reuse ---
        db = _build_fact_db(os.path.join(tmp, "db"), fact_rows)
        hot_off_ms, hot_off_rows = _best_hot(db, False, rounds, reps)
        hot_on_ms, hot_on_rows = _best_hot(db, True, rounds, reps)
        assert hot_off_rows == hot_on_rows, "segment modes disagree on result"
        hot_speedup = hot_off_ms / hot_on_ms
        seg_stats = db.metrics_snapshot()["segments"]

        pages_before, pages_after, live_rows = _reuse_probe(db, fact_rows)
        db.close()

    mode = "smoke" if args.smoke else "full"
    lines = [
        "Buffer-pool v2 benchmark (prefetch, segment cache, free-space map)",
        "",
        f"cold heap: {heap_pages} pages, pool {pool_size} "
        f"({heap_pages / pool_size:.0f}x), simulated device latency "
        f"{DEVICE_LATENCY_S * 1e6:.0f} us/pread; fact table: {fact_rows} rows "
        f"(best of {rounds} rounds)",
        "",
        f"cold scan       page-at-a-time  : {base_ms:8.2f} ms "
        f"({base_preads} preads)",
        f"                prefetch={prefetch:<7} : {pre_ms:8.2f} ms "
        f"({pre_preads} preads)",
        f"                speedup         : {cold_speedup:8.2f} x   "
        f"(gate >= {cold_gate}x; {pread_ratio:.0f}x fewer preads)",
        f"                raw (OS-cached) : {raw_base_ms:8.2f} ms -> "
        f"{raw_pre_ms:8.2f} ms",
        "",
        f"hot aggregate   segment cache off: {hot_off_ms:8.2f} ms",
        f"                segment cache on : {hot_on_ms:8.2f} ms",
        f"                speedup          : {hot_speedup:8.2f} x   "
        f"(gate >= {hot_gate}x)",
        "",
        f"segment counters: hits={seg_stats['seg_hits']} "
        f"misses={seg_stats['seg_misses']} builds={seg_stats['seg_builds']} "
        f"rows_served={seg_stats['seg_rows_served']}",
        "",
        f"free-space reuse: {pages_before} pages -> {pages_after} pages "
        f"after delete-half + reinsert-half ({live_rows} live rows; "
        f"gate: no growth)",
        "",
        f"mode: {mode}",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "bufferpool",
        "mode": mode,
        "workload": {
            "heap_rows": heap_rows,
            "heap_pages": heap_pages,
            "pool_size": pool_size,
            "fact_rows": fact_rows,
            "rounds": rounds,
            "reps": reps,
            "device_latency_us": DEVICE_LATENCY_S * 1e6,
        },
        "cold_scan": {
            "base_ms": base_ms,
            "prefetch_ms": pre_ms,
            "base_preads": base_preads,
            "prefetch_preads": pre_preads,
            "raw_base_ms": raw_base_ms,
            "raw_prefetch_ms": raw_pre_ms,
            "speedup": cold_speedup,
            "pread_ratio": pread_ratio,
        },
        "hot_scan": {
            "query": HOT_QUERY,
            "segments_off_ms": hot_off_ms,
            "segments_on_ms": hot_on_ms,
            "speedup": hot_speedup,
            "segment_stats": seg_stats,
        },
        "free_space_reuse": {
            "pages_before": pages_before,
            "pages_after": pages_after,
            "live_rows": live_rows,
        },
        "gates": {"cold": cold_gate, "hot": hot_gate, "reuse": "no growth"},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "bufferpool.txt"), "w") as fh:
        fh.write(text + "\n")
    with open(os.path.join(RESULTS_DIR, "bufferpool.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(REPO_ROOT, "BENCH_bufferpool.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    failures = []
    if cold_speedup < cold_gate:
        failures.append(f"cold-scan speedup {cold_speedup:.2f}x < {cold_gate}x")
    if pread_ratio < cold_gate:
        failures.append(f"pread ratio {pread_ratio:.2f}x < {cold_gate}x")
    if hot_speedup < hot_gate:
        failures.append(f"hot-scan speedup {hot_speedup:.2f}x < {hot_gate}x")
    if pages_after > pages_before:
        failures.append(
            f"heap grew from {pages_before} to {pages_after} pages — "
            "free-space map did not reuse the deleted space"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
