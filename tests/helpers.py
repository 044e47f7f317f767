"""Shared test oracles, independent of the library's own algorithms."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from linerig.graphs import Graph


def brute_sparsity_rank(G: Graph) -> int:
    """Largest subset of edges that keeps every vertex subset V' (|V'| >= 2)
    under the 2|V'| - 3 count, by direct enumeration from the top size down."""
    n, edges = G.n, list(G.edges)
    m = len(edges)
    if n < 2:
        return 0
    checks = []
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k < 2:
            continue
        emask = 0
        for idx, (i, j) in enumerate(edges):
            if (mask >> i) & 1 and (mask >> j) & 1:
                emask |= 1 << idx
        if emask:
            checks.append((emask, 2 * k - 3))

    def sparse(sub: int) -> bool:
        return all((sub & emask).bit_count() <= cap for emask, cap in checks)

    for k in range(min(m, 2 * n - 3), -1, -1):
        for combo in combinations(range(m), k):
            sub = 0
            for c in combo:
                sub |= 1 << c
            if sparse(sub):
                return k
    return 0


def random_graph(rng: random.Random, n_max: int = 7, m_cap_slack: int = 3) -> Graph:
    """Random simple graph with n <= n_max and a size cap that keeps the brute
    oracle enumeration cheap."""
    n = rng.randint(2, n_max)
    all_edges = list(combinations(range(n), 2))
    m = rng.randint(0, min(len(all_edges), 2 * n + m_cap_slack))
    return Graph(n, tuple(sorted(rng.sample(all_edges, m))))


def random_flexible_graph(rng: random.Random, n_min: int = 4, n_max: int = 10) -> Graph:
    """Random spanning tree plus one extra edge: m = n <= 2n - 4, never rigid."""
    n = rng.randint(n_min, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    rest = [e for e in combinations(range(n), 2) if e not in {tuple(sorted(x)) for x in edges}]
    edges.append(rng.choice(rest))
    return Graph.from_edges(n, edges)


def finite_difference_jacobian(func, x0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of a vector-valued function, to cross-check the
    library's analytic Jacobians."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(func(x0), dtype=float)
    J = np.zeros((f0.size, x0.size))
    for k in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[k] += step
        lo[k] -= step
        J[:, k] = (np.asarray(func(hi), dtype=float) - np.asarray(func(lo), dtype=float)) / (2 * step)
    return J
