#!/usr/bin/env python3
"""Benchmark of linerig: one workload per run, checked outputs, named metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload laman-sample --seed 1 --seconds 20 --trace 0

The benchmark imports linerig from ``src/`` of the checkout and builds the
workload's inputs from the seed. It runs whole passes over the workload's
operations, at least MIN_PASSES, and stops at the pass boundary nearest to
``--seconds`` of run time, set-ups included; the checks come after. Each pass
follows its own set-ups (import, inputs, one warm-up operation). Every output
is checked. Each operation's time is its median over the passes, after
scaling by the host gauge (see GAUGE_REF_S). The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the machine and the run, with the raw times. With
``--trace 1`` the run wraps linerig's layer functions from outside (see
tracer.py) and reports per-layer metrics instead of end-to-end ones.

``python3 bench/run.py --smoke`` runs every workload briefly on small inputs,
untraced and traced, with all checks, and exits 0 when every output is correct.
"""

import os

# One BLAS thread: with two, `sample laman` used 1.6x the CPU time for no
# wall-time gain on a 2-core machine, and spread further between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Every run makes at least this many passes, so that each operation is timed
# at least this often.
MIN_PASSES = 3
# Each pass follows this many set-ups. One set-up is short and moves with a
# single slow import or collection, so setup_s is the median of all of them.
SETUPS_PER_PASS = 2
# The host is shared: a fixed loop's speed moves by up to a half, in phases
# that can outlast a run. So before every operation and set-up the run times a
# fixed loop (the gauge), and scales operation times by GAUGE_REF_S over the
# median gauge of their pass, set-up times by that over the gauges around
# them. Times are then seconds on a host where the gauge takes GAUGE_REF_S,
# about this machine when quiet. Raw times are in the run record. Over eight
# exact-certify runs this cut the spread of ops_per_s from 0.19 to 0.03.
# Process CPU time does not help: the slow phases come without steal ticks,
# and a one-thread run's CPU time moves with its wall time (cpu_ops_per_s in
# the run record).
GAUGE_LOOPS = 50_000
GAUGE_REF_S = 0.004


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def steal_ticks():
    """Host steal time of all CPUs so far, in clock ticks (None if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def gauge_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment."""
    t0 = time.perf_counter()
    x = 0
    for k in range(GAUGE_LOOPS):
        x += k * k % 7
    return time.perf_counter() - t0


def blas_info(np) -> dict:
    """The BLAS library numpy was built with and its current thread count."""
    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def tail_percentile(ops: int) -> int:
    """The highest whole percentile of ``ops`` per-operation times that has at
    least ten operations beyond it; below twenty operations (smoke runs), 50."""
    return max(50, int(100 * (1 - 10 / ops)))


def import_linerig():
    """Import linerig afresh from this checkout's src/, dropping any copy
    already imported, so every set-up repetition pays the import."""
    if not (SRC / "linerig" / "__init__.py").is_file():
        raise BenchError(f"no linerig sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "linerig" or m.startswith("linerig.")]:
        del sys.modules[name]
    lr = importlib.import_module("linerig")
    importlib.import_module("linerig.cli")
    if Path(lr.__file__).resolve().parent != (SRC / "linerig").resolve():
        raise BenchError(f"imported linerig from {lr.__file__}, not from {SRC}")
    return lr


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """One run: whole passes, each after its own set-up, then the checks.
    Returns (result, run record)."""
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS

    steal0 = steal_ticks()
    run_t0 = time.perf_counter()
    tracer = Tracer() if trace else None
    setup_times: list[float] = []
    latencies: list[list[float]] = []  # per operation, one per pass
    cpu_times: list[list[float]] = []  # the same in process CPU time, for the run record
    outputs: list[tuple[int, object]] = []
    warm_outs: list[object] = []
    gauges: list[list[float]] = []  # per pass
    while True:
        pass_gauges: list[float] = []
        gauges.append(pass_gauges)
        for _ in range(SETUPS_PER_PASS):
            # set-up: import linerig afresh, build the inputs, one warm-up operation
            pass_gauges.append(gauge_s())
            t0 = time.perf_counter()
            lr = import_linerig()
            workload = WORKLOADS[name](seed, lr, smoke)
            try:
                warm_outs.append(workload.warmup.run(lr))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check below
                warm_outs.append(exc)
            setup_times.append(time.perf_counter() - t0)

        ops = workload.ops
        if not latencies:
            latencies = [[] for _ in ops]
            cpu_times = [[] for _ in ops]
        if tracer:
            tracer.install()
        try:
            for k, op in enumerate(ops):
                pass_gauges.append(gauge_s())
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    out = op.run(lr)
                except Exception as exc:  # noqa: BLE001 - an operation that raises has failed
                    out = exc
                latencies[k].append(time.perf_counter() - t0)
                cpu_times[k].append(time.process_time() - c0)
                outputs.append((k, out))
        finally:
            if tracer:
                tracer.uninstall()
        passes = len(gauges)
        # whole passes only; stop at the pass boundary nearest to `seconds` of
        # the run's time so far, set-ups and gauges included
        elapsed = time.perf_counter() - run_t0
        if passes >= min_passes and elapsed + 0.5 * elapsed / passes > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal1 = steal_ticks()
    checks_t0 = time.perf_counter()

    failed, wrong, reasons = 0, 0, []
    checked: dict[int, list] = {}  # op index -> [(output, verdict)] already checked
    for k, out in outputs:
        if isinstance(out, BaseException):
            verdict, is_wrong = f"raised {type(out).__name__}: {out}", False
        else:
            verdict = next((v for o, v in checked.get(k, ()) if o == out), False)
            if verdict is False:
                verdict = ops[k].check(out)
                checked.setdefault(k, []).append((out, verdict))
            is_wrong = verdict is not None
        if verdict is not None:
            failed += 1
            wrong += is_wrong
            reasons.append(f"{ops[k].label}: {verdict}")
    warm = warm_outs[0]
    if isinstance(warm, BaseException):
        verdict = f"raised {type(warm).__name__}: {warm}"
    else:
        verdict = workload.warmup.check(warm)
    if verdict is None and any(o != warm for o in warm_outs):
        verdict = "outputs differ between set-ups"
    if verdict is not None:
        wrong += 1
        reasons.insert(0, f"warm-up {workload.warmup.label}: {verdict}")

    checks_s = time.perf_counter() - checks_t0

    # operations by the median gauge of their pass, set-ups by the gauges
    # taken around them (before each set-up and before the first operation)
    scale = [GAUGE_REF_S / statistics.median(g) for g in gauges]
    setup_scale = [GAUGE_REF_S / statistics.median(g[:SETUPS_PER_PASS + 1]) for g in gauges]
    per_op = [statistics.median(t * f for t, f in zip(times, scale)) for times in latencies]
    tail = tail_percentile(len(ops))
    ops_per_s = len(ops) / sum(per_op)
    if tracer:
        metrics = tracer.metrics(len(outputs))
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_s": {"value": float(np.percentile(per_op, 50)), "unit": "s"},
            "op_tail_s": {"value": float(np.percentile(per_op, tail)), "unit": "s"},
            "setup_s": {"value": statistics.median(
                t * setup_scale[i // SETUPS_PER_PASS] for i, t in enumerate(setup_times)),
                "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": wrong == 0, "attempted": len(outputs), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": passes,
        "ops_per_pass": len(ops), "tail_percentile": tail,
        "timed_s": checks_t0 - run_t0, "checks_s": checks_s,
        "ops_per_s": ops_per_s,
        "raw_ops_per_s": len(ops) / sum(statistics.median(t) for t in latencies),
        "cpu_ops_per_s": len(ops) / sum(statistics.median(t) for t in cpu_times),
        "raw_setup_s_each": setup_times,
        "gauge_s_each_pass": [statistics.median(g) for g in gauges],
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, **blas_info(np),
        "failures": reasons[:10],
    }
    if tracer:
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"run": record, "spans": tracer.spans()}, indent=1, sort_keys=True))
    return result, record


def smoke() -> int:
    """Every workload on small inputs, untraced then traced; 0 when all pass."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(name, 0, 0.0, trace, smoke=True, min_passes=1)
            good = result["correct"] and result["failed"] == 0
            ok &= good
            print(json.dumps({"workload": name, "trace": int(trace), "ok": good,
                              "attempted": result["attempted"], "failures": record["failures"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly with all checks")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            import_linerig()
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        import_linerig()
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
