"""Tests of the benchmark itself (not part of tier-1; run explicitly)::

    python3 -m pytest -q perfbench/test_perfbench.py

The counter-based layer metrics of the single-client workloads must repeat
exactly for a fixed seed; the two-session workload's counts depend on
thread interleaving, so its test reports their spread instead.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import driver  # noqa: E402
import run  # noqa: E402

#: per-layer metrics that are ratios of counts (no clock involved)
COUNT_METRICS = (
    "forms.refreshes_per_action",
    "windows.cells_per_key",
    "socket.bytes_per_op",
    "sql.parses_per_stmt",
    "sql.tokenize_per_stmt",
    "plancache.hit_ratio",
    "planner.plans_per_stmt",
    "exprcompile.compiles_per_stmt",
    "executor.rows_examined_per_row",
    "pager.hit_ratio",
    "pager.misses_per_op",
    "segments.hit_ratio",
    "btree.node_visits_per_lookup",
    "wal.fsyncs_per_commit",
    "wal.bytes_per_user_byte",
)


def traced_line(workload: str, seed: int) -> dict:
    """The JSON line of one short traced run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    return {name: line["metrics"][name]["value"] for name in COUNT_METRICS}


@pytest.mark.parametrize("workload", ["forms_master_detail", "analytics_socket"])
def test_single_client_counts_repeat_exactly(workload):
    first = traced_line(workload, 5)
    second = traced_line(workload, 5)
    assert first == second


def test_two_session_counts_spread_is_reported():
    first = traced_line("oltp_session_disk", 5)
    second = traced_line("oltp_session_disk", 5)
    for name in COUNT_METRICS:
        low, high = sorted((first[name], second[name]))
        spread = (high - low) / high if high else 0.0
        print(f"oltp_session_disk {name}: {first[name]:.4f} / {second[name]:.4f}"
              f" (spread {spread:.1%})")
    # Point lookups through the primary key make the plan cache useless and
    # every statement parse: those shares cannot depend on interleaving.
    assert first["plancache.hit_ratio"] < 0.05
    assert first["sql.parses_per_stmt"] >= 1


def test_wrong_detail_rows_fail_the_run(monkeypatch, capsys):
    """A master-detail link that stops re-filtering is caught and exits 1."""
    from repro.forms.linking import FormLink

    monkeypatch.setattr(FormLink, "propagate", lambda self: None)
    status = run.main(["--workload", "forms_master_detail", "--seed", "2",
                       "--seconds", "0.5", "--trace", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert line["correct"] is False and line["failed"] > 0


def test_runs_fail_without_the_program(tmp_path):
    """Given only the benchmark's own files, the command refuses to run."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms_master_detail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == driver.PER_LAYER
