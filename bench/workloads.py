"""The four workloads: their inputs, operations and correctness checks.

A workload is a fixed list of operations (one pass) plus one warm-up
operation. Each operation drives linerig through a public entry point: the CLI
in-process through ``linerig.cli.main`` with stdin and stdout captured, or the
library for the exact path. Functions are looked up on the package at call
time, so a traced run sees the tracer's wrappers.

Every check compares an output with a computation made apart from linerig
(``oracles``, ``graphgen``, networkx), never with a stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable, Optional

import numpy as np

import graphgen as gg
import oracles

# Relative tolerance on the incidence residual g, which is quadratic in the
# coordinates. Samples are projected to near the float floor, around 1e-16 on
# this scale; the sampler promises 1e-10 relative to its linear scale.
RESIDUAL_TOL = 1e-9
# Agreement of a recovered common point or plane with the constructed one.
COMMON_TOL = 1e-6


@dataclass
class Op:
    """One operation: ``run(linerig)`` returns the raw output and ``check``
    maps that output to None when it is correct, or to the reason it is not."""

    label: str
    run: Callable[[ModuleType], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op


def graph_json(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in edges]})


def cli_op(label: str, argv: list[str], stdin: str, check) -> Op:
    """An operation that runs ``linerig <argv>`` in-process with ``stdin`` as
    its standard input; its output is (exit code, stdout, stderr)."""

    def run(lr: ModuleType):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lr.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def checked(result) -> Optional[str]:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return check(out)

    return Op(label, run, checked)


# ---------------------------------------------------------------------------
# laman-sample: `linerig sample laman` on random Laman graphs


LAMAN_SIZES = range(24, 61, 4)

# POOL_NOTE: laman-sample, hendrickson-analyze and exact-certify draw their
# inputs from a fixed pool, and the seed orders the operations (and, for
# analyze, seeds the program's random embeddings, which does not change its
# work). Their cost per input varies widely between draws: the sampler's by a
# coefficient of variation of 1.1 to 1.4 at every n (retried attempts, 200
# graphs), analyze's and the exact path's pass times by +-10% between seeds
# at fifty inputs a pass. Redrawn inputs would move ops_per_s between seeds
# by more than the bounds. geometry-suites costs the same on any draw, so its
# inputs are drawn from the seed.


def _check_laman_sample(n: int, edges):
    def check(out: str) -> Optional[str]:
        L = np.asarray(json.loads(out)["lines"], dtype=float)
        if L.shape != (n, 4) or not np.all(np.isfinite(L)):
            return f"lines array has shape {L.shape} or non-finite entries"
        worst = float(np.max(np.abs(oracles.incidence_residuals(L, edges))))
        if worst > RESIDUAL_TOL:
            return f"relative incidence residual {worst:.2e} > {RESIDUAL_TOL:.0e}"
        rank = oracles.svd_rank(oracles.line_jacobian(L, edges))
        if rank != 2 * n - 3:
            return f"Jacobian rank {rank} != 2n - 3 = {2 * n - 3}"
        if not oracles.lines_distinct(L):
            return "two lines coincide"
        return None
    return check


def _laman_sample_op(n: int, rng: random.Random, sampler_seed: int) -> Op:
    edges = gg.laman(n, rng)
    return cli_op(f"sample laman n={n}", ["sample", "laman", "-", "--seed", str(sampler_seed)],
                  graph_json(n, edges), _check_laman_sample(n, edges))


def laman_sample(seed: int, lr: ModuleType, smoke: bool) -> Workload:
    """Forty graphs, four at each n in 24, 28, ..., 60, with their sampler
    seeds, from a fixed pool (POOL_NOTE); the seed shuffles their order."""
    pool = random.Random("laman-sample:pool")
    sizes = [24, 28] if smoke else [n for n in LAMAN_SIZES for _ in range(4)]
    ops = [_laman_sample_op(n, pool, k) for k, n in enumerate(sizes)]
    random.Random(f"laman-sample:{seed}").shuffle(ops)
    warm = _laman_sample_op(40, random.Random("laman-sample:warmup"), 0)
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# hendrickson-analyze: `linerig analyze` and `linerig henneberg jj-extract`


ANALYZE_SIZES = (30, 36, 42, 48, 54, 60)
JJ_SIZES = (12, 14, 16, 18)

# What each kind of graph is by construction (see graphgen).
KNOWN = {
    "hendrickson": dict(rigid=True, redundant=True, three_connected=True, hendrickson=True),
    "rigid-not-redundant": dict(rigid=True, redundant=False, three_connected=False,
                                hendrickson=False),
    "glued-on-edge": dict(rigid=True, redundant=True, three_connected=False, hendrickson=False),
}


def _check_analyze(kind: str, n: int, edges):
    reference: dict = {}

    def expected() -> dict:
        # computed once per graph, on the first output to check
        if not reference:
            import networkx as nx
            G = nx.Graph(list(edges))
            G.add_nodes_from(range(n))
            rank, without = oracles.rigidity_ranks(n, edges, np.random.default_rng(n))
            reference.update(
                three_connected=nx.node_connectivity(G) >= 3,
                rigidity_rank=rank,
                redundant=rank == 2 * n - 3 and all(r == rank for r in without))
        return reference

    def check(out: str) -> Optional[str]:
        rep = json.loads(out)
        want = expected()
        problems = []
        if (rep["n"], rep["m"]) != (n, len(edges)):
            problems.append(f"n, m = {rep['n']}, {rep['m']}")
        for key in ("three_connected", "rigidity_rank", "redundant"):
            if rep[key] != want[key]:
                problems.append(f"{key} {rep[key]} != independent {want[key]}")
        if rep["sparsity_rank"] != want["rigidity_rank"]:
            problems.append(f"sparsity_rank {rep['sparsity_rank']} != generic rank "
                            f"{want['rigidity_rank']}")
        if rep["globally_rigid"] != rep["hendrickson"]:
            problems.append(f"globally_rigid {rep['globally_rigid']} != hendrickson "
                            f"{rep['hendrickson']}")
        for key, value in KNOWN[kind].items():
            if rep[key] != value:
                problems.append(f"{key} {rep[key]} but {kind} graphs are {value}")
        return "; ".join(problems) or None

    return check


def _analyze_op(kind: str, n: int, rng: random.Random, k: int) -> Op:
    if kind == "hendrickson":
        edges = gg.hendrickson(n, rng)
    elif kind == "rigid-not-redundant":
        edges = gg.rigid_not_redundant(n, rng, pendant=rng.randint(1, 3))
    else:
        edges = gg.glued_on_edge(n, rng)
    return cli_op(f"analyze {kind} n={n}", ["analyze", "-", "--seed", str(k)],
                  graph_json(n, edges), _check_analyze(kind, n, edges))


def _check_jj(n: int, edges):
    def check(out: str) -> Optional[str]:
        rep = json.loads(out)
        steps = [("ext1", s["u"], s["v"], s["w"]) if s["kind"] == "ext1"
                 else ("edge", s["u"], s["v"]) for s in rep["steps"]]
        relabel = rep["relabel"]
        if sorted(relabel) != list(range(n)):
            return "relabel is not a permutation of the vertices"
        try:
            size, replayed = gg.replay_jj(steps)
        except ValueError as exc:
            return f"steps do not replay from K4: {exc}"
        got = sorted(gg.pair(relabel[u], relabel[v]) for u, v in replayed)
        if size != n or got != list(edges):
            return "replayed steps do not give the input graph"
        return None
    return check


def _jj_op(n: int, rng: random.Random) -> Op:
    edges = gg.hendrickson(n, rng)
    return cli_op(f"jj-extract n={n}", ["henneberg", "jj-extract", "-"],
                  graph_json(n, edges), _check_jj(n, edges))


def hendrickson_analyze(seed: int, lr: ModuleType, smoke: bool) -> Workload:
    """Two graphs of each kind at each n in 30, 36, ..., 60, then jj-extract on
    one Hendrickson graph at each n in 12, 14, 16, 18, from a fixed pool
    (POOL_NOTE); the seed orders them and seeds analyze's embeddings."""
    pool = random.Random("hendrickson-analyze:pool")
    order = random.Random(f"hendrickson-analyze:{seed}")
    ops = [_analyze_op(kind, n, pool, order.randrange(10 ** 6))
           for n in ((12,) if smoke else ANALYZE_SIZES) for kind in KNOWN
           for _ in range(1 if smoke else 2)]
    ops += [_jj_op(n, pool) for n in ((8,) if smoke else JJ_SIZES)]
    order.shuffle(ops)
    warm = _analyze_op("hendrickson", 40, random.Random("hendrickson-analyze:warmup"), 0)
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# exact-certify: exact line realizations and exact pair systems, via the library


EXACT_SIZES = range(40, 86, 5)
PAIR_SIZES = (30, 45, 60, 75, 90)


def _exact_laman_op(lr: ModuleType, n: int, rng: random.Random, k: int) -> Op:
    edges = gg.laman(n, rng)
    G = lr.graphs.Graph(n, tuple(edges))

    def run(lr: ModuleType):
        cfg = lr.sampler.sample_laman_lines_exact(G, seed=k)
        return cfg.coords(), lr.numeric.line_system_dimension(G, cfg, exact=True).to_dict()

    def check(result) -> Optional[str]:
        coords, report = result
        m = len(edges)
        if not (report["certified"] and report["jacobian_rank"] == m == 2 * n - 3):
            return f"report rank {report['jacobian_rank']}, certified {report['certified']}"
        if any(not isinstance(x, (int, Fraction)) for row in coords for x in row):
            return "coordinates are not exact"
        for i, j in edges:
            (ai, bi, ci, di), (aj, bj, cj, dj) = coords[i], coords[j]
            if (ai - aj) * (di - dj) - (bi - bj) * (ci - cj) != 0:
                return f"edge {(i, j)} is not an exact incidence"
        if len({tuple(row) for row in coords}) != n:
            return "two lines coincide"
        full, ranks = oracles.full_rank_mod_primes(*oracles.exact_line_jacobian(coords, edges))
        if not full:
            return f"Jacobian ranks mod {oracles.PRIMES}: {ranks}, want {m}"
        return None

    return Op(f"exact laman n={n}", run, check)


def _exact_pair_op(lr: ModuleType, kind: str, n: int, rng: random.Random) -> Op:
    edges = gg.tree_plus_edge(n, rng) if kind == "tree+edge" else gg.cycle(n, rng)
    orientation = rng.choice((1, -1))
    p, q = gg.congruent_pair(n, rng, orientation)
    G = lr.graphs.Graph(n, tuple(edges))
    p_in = [list(pt) for pt in p]
    q_in = [list(pt) for pt in q]

    def run(lr: ModuleType):
        return lr.numeric.pair_system_dimension(G, p_in, q_in, exact=True).to_dict()

    def check(report) -> Optional[str]:
        m = len(edges)
        rank, dim = report["jacobian_rank"], report["local_dim_estimate"]
        if rank != m or dim != 4 * n - m:
            return f"rank {rank}, local dim {dim}"
        if dim < 2 * n + 4:
            return f"local dim {dim} < 2n + 4"
        full, ranks = oracles.full_rank_mod_primes(*oracles.exact_pair_jacobian(p, q, edges))
        if not full:
            return f"pair Jacobian ranks mod {oracles.PRIMES}: {ranks}, want {m}"
        return None

    return Op(f"exact pair {kind} n={n}", run, check)


def exact_certify(seed: int, lr: ModuleType, smoke: bool) -> Workload:
    """Three Laman graphs at each n in 40, 45, ..., 85, then a tree plus an
    edge and a cycle at each n in 30, 45, ..., 90, from a fixed pool
    (POOL_NOTE); the seed orders them."""
    pool = random.Random("exact-certify:pool")
    sizes = (12,) if smoke else [n for n in EXACT_SIZES for _ in range(3)]
    ops = [_exact_laman_op(lr, n, pool, k) for k, n in enumerate(sizes)]
    ops += [_exact_pair_op(lr, kind, n, pool)
            for n in ((10,) if smoke else PAIR_SIZES) for kind in ("tree+edge", "cycle")]
    random.Random(f"exact-certify:{seed}").shuffle(ops)
    warm = _exact_laman_op(lr, 60, random.Random("exact-certify:warmup"), 0)
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# geometry-suites: three verify suites and `linerig lines common`


def _check_suite(total: int):
    def check(out: str) -> Optional[str]:
        rep = json.loads(out)
        if not rep["ok"] or rep["total"] != total or rep["passed"] != total:
            return f"suite ok={rep['ok']} passed {rep['passed']}/{rep['total']}, want {total}"
        return None
    return check


def _suite_op(suite: str, flag: str, size: int, seed: int, total: int) -> Op:
    return cli_op(f"verify {suite} {flag} {size}",
                  ["verify", suite, flag, str(size), "--seed", str(seed)], "",
                  _check_suite(total))


def _close(got, want) -> bool:
    want = np.asarray(want, dtype=float)
    return got is not None and bool(
        np.max(np.abs(np.asarray(got, dtype=float) - want)) <= COMMON_TOL * max(1.0, np.abs(want).max()))


def _common_op(kind: str, k: int, rng: random.Random) -> Op:
    if kind == "point":
        rows, known = gg.concurrent_lines(k, rng)
    else:
        rows, known = gg.coplanar_lines(k, rng)
    text = json.dumps({"lines": [[float(x) for x in row] for row in rows]})
    key = "common_point" if kind == "point" else "common_plane"

    def check(out: str) -> Optional[str]:
        got = json.loads(out)[key]
        if not _close(got, known):
            return f"{key} {got}, constructed {list(known)}"
        return None

    return cli_op(f"lines common {kind} k={k}", ["lines", "common", "-"], text, check)


def geometry_suites(seed: int, lr: ModuleType, smoke: bool) -> Workload:
    """Four runs each of four-lines with 1000 trials, lemma-3lines with 10
    triples per class and lemma-cong with 30000 trials, with suite seeds drawn
    from the seed, and 28 `lines common` configurations of 4 to 30 lines, half
    with a common point and half with a common plane."""
    rng = random.Random(f"geometry-suites:{seed}")
    scale = 10 if smoke else 1
    ops = []
    for _ in range(1 if smoke else 4):
        ops.append(_suite_op("four-lines", "--trials", 1000 // scale, rng.randrange(10 ** 6),
                             1000 // scale))
        ops.append(_suite_op("lemma-3lines", "--per-class", 10 // scale, rng.randrange(10 ** 6),
                             5 * (10 // scale)))
        ops.append(_suite_op("lemma-cong", "--trials", 30000 // scale, rng.randrange(10 ** 6), 6))
    sizes = (4, 5) if smoke else range(4, 31, 2)
    ops += [_common_op(kind, k, rng) for k in sizes for kind in ("point", "plane")]
    rng.shuffle(ops)
    warm = _suite_op("lemma-cong", "--trials", 20000, 0, 6)
    return Workload(ops, warm)


WORKLOADS = {
    "laman-sample": laman_sample,
    "hendrickson-analyze": hendrickson_analyze,
    "exact-certify": exact_certify,
    "geometry-suites": geometry_suites,
}
