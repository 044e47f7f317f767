"""Tests of the benchmark itself: smoke mode, the tracer, and refusal to run
without the sources.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_mode_runs_every_workload_with_checks():
    from workloads import WORKLOADS
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(line["workload"], line["trace"]) for line in lines} == {
        (name, trace) for name in WORKLOADS for trace in (0, 1)}
    assert all(line["ok"] and line["attempted"] > 0 for line in lines)


def test_tracer_wraps_where_names_are_looked_up_and_restores():
    from run import import_linerig
    from tracer import Tracer
    lr = import_linerig()
    original = lr.sparsity.is_redundant
    G = lr.graphs.Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
    tracer = Tracer()
    tracer.install()
    try:
        # is_hendrickson reaches is_redundant and sparsity_rank through the
        # sparsity module's globals, and is_k_connected through an import
        assert lr.is_hendrickson(G) is True
    finally:
        tracer.uninstall()
    assert lr.sparsity.is_redundant is original
    spans = tracer.spans()
    assert spans["sparsity.is_hendrickson"]["calls"] == 1
    assert spans["sparsity.is_redundant"]["calls"] == 1
    assert spans["sparsity.sparsity_rank"]["calls"] == G.m
    assert spans["connectivity.is_k_connected"]["calls"] == 1
    # self times partition the root span's duration
    total_self = sum(span["self_s"] for span in spans.values())
    assert abs(total_self - spans["sparsity.is_hendrickson"]["total_s"]) < 1e-6
    metrics = tracer.metrics(ops=1)
    assert metrics["sparsity.sparsity_rank.calls"]["value"] == G.m


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "laman-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and "no linerig sources" in proc.stderr
