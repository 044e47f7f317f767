#!/usr/bin/env python3
"""Two sets of benchmark runs of the same code, compared against the bounds.

Run from the root of a checkout:

    python3 bench/compare.py --runs 10

For each workload, set A runs seeds 1..10 and set B seeds 11..20 (one run
after another, set A first). For every end-to-end metric it reports each
set's median and its spread, the distance between the first and third
quartile of the runs (``statistics.quantiles(values, n=4)``) as a share of the
median, and checks that the two sets agree within the bounds in
BENCHMARK.json: each spread within the metric's bound, set B's median within
the bound of set A's in either direction (the table shows it signed, positive
worse), and the same share of failed operations in both sets.

``--overhead`` instead runs each seed untraced and traced and reports traced
ops_per_s as a share of untraced. Every run's output is saved under
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if a == "python3" else a for a in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "wall_s": wall,
            "record": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(spec: dict, set_a: list[dict], set_b: list[dict]) -> tuple[list[str], bool]:
    """Table rows for one workload and whether the two sets agree."""
    rows, ok = [], True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        cells = [name]
        medians = []
        for runs in (set_a, set_b):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            good = s <= bound
            ok &= good
            medians.append(statistics.median(values))
            cells.append(f"{medians[-1]:.4g} ±{s:.3f}{'' if good else ' SPREAD'}")
        worse = sign * (medians[1] - medians[0]) / medians[0]
        good = abs(worse) <= bound
        ok &= good
        cells += [f"{worse:+.3f}{'' if good else ' DIFFERS'}", f"{bound}"]
        rows.append("| " + " | ".join(cells) + " |")
    shares = [{r["result"]["failed"] / r["result"]["attempted"] for r in runs}
              for runs in (set_a, set_b)]
    correct = all(r["result"]["correct"] for r in set_a + set_b)
    ok &= correct and all(len(s) == 1 for s in shares) and shares[0] == shares[1]
    rows.append(f"failed share per set: {[sorted(s) for s in shares]}; all correct: {correct}")
    return rows, ok


def main(argv=None) -> int:
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    all_ok = True
    for workload in names:
        seeds = range(1, 1 + args.runs)
        if args.overhead:
            runs = [run_once(spec, workload, s, t) for s in seeds for t in (0, 1)]
            ratios = [b["record"]["ops_per_s"] / a["record"]["ops_per_s"]
                      for a, b in zip(runs[::2], runs[1::2])]
            print(f"{workload}: traced ops_per_s / untraced = "
                  f"{statistics.median(ratios):.3f} (median of {len(ratios)}; "
                  f"{', '.join(f'{r:.3f}' for r in ratios)})", flush=True)
            (RESULTS / f"overhead-{workload}-{stamp}.json").write_text(json.dumps(runs, indent=1))
            continue
        set_a = [run_once(spec, workload, s, 0) for s in seeds]
        set_b = [run_once(spec, workload, s + args.runs, 0) for s in seeds]
        (RESULTS / f"compare-{workload}-{stamp}.json").write_text(
            json.dumps({"set_a": set_a, "set_b": set_b}, indent=1))
        rows, ok = judge(spec, set_a, set_b)
        all_ok &= ok
        walls = [r["wall_s"] for r in set_a + set_b]
        header = "| metric | set A median ±spread | set B median ±spread | B worse by | bound |"
        print(f"\n### {workload} ({'ok' if ok else 'FAILS'}; run wall "
              f"{min(walls):.1f}-{max(walls):.1f} s)\n\n{header}\n"
              + "|---" * (header.count("|") - 1) + "|\n" + "\n".join(rows), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
