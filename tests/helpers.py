"""Shared test oracles, independent of the library's own algorithms."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from linerig.errors import DomainError
from linerig.graphs import Edge, Graph
from linerig.lines3d import Line
from linerig.sparsity import SparsityRankResult


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


def reference_sparsity_rank(G: Graph) -> SparsityRankResult:
    """The (2,3)-pebble game with a DFS helper and a parent dict per pulled pebble,
    pulling to either endpoint in turn, every accepted edge directed u -> v and no
    stop at rank 2n - 3: the oracle that sparsity.sparsity_rank must equal."""
    if G.n < 2:
        raise DomainError("sparsity rank needs at least 2 vertices")
    pebbles = [2] * G.n
    out: list[list[int]] = [[] for _ in range(G.n)]
    accepted: list[Edge] = []
    for u, v in G.edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (_pull_pebble(pebbles, out, u, v) or _pull_pebble(pebbles, out, v, u)):
                break
        else:
            pebbles[u] -= 1
            out[u].append(v)
            accepted.append((u, v))
    return SparsityRankResult(len(accepted), tuple(accepted))


def _pull_pebble(pebbles: list[int], out: list[list[int]], root: int, other: int) -> bool:
    """DFS from root along directed edges for a free pebble on a vertex other than `other`.

    Every vertex keeps ``pebbles[v] + len(out[v]) == 2``, so each ``out[v]`` holds at
    most two heads. The search stops at the first free pebble it reaches; the path
    to it is reversed and the pebble moves to root, which keeps the invariant.
    """
    parent = {root: root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in parent:
                continue
            parent[y] = x
            if pebbles[y] and y != other:
                pebbles[y] -= 1
                while y != root:
                    x = parent[y]
                    out[x].remove(y)
                    out[y].append(x)
                    y = x
                pebbles[root] += 1
                return True
            stack.append(y)
    return False


def random_graph(rng: random.Random, n_max: int = 7, m_cap_slack: int = 3) -> Graph:
    """Random simple graph with n <= n_max and a size cap that keeps the brute
    oracle enumeration cheap."""
    n = rng.randint(2, n_max)
    all_edges = list(combinations(range(n), 2))
    m = rng.randint(0, min(len(all_edges), 2 * n + m_cap_slack))
    return Graph(n, tuple(sorted(rng.sample(all_edges, m))))


def random_graph_of_degree(n: int, degree: int, seed: int) -> Graph:
    """Random simple graph on n vertices with n * degree / 2 edges (all of K_n if fewer)."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, tuple(sorted(random.Random(seed).sample(pairs, min(len(pairs), n * degree // 2)))))


def random_flexible_graph(rng: random.Random, n_min: int = 4, n_max: int = 10) -> Graph:
    """Random spanning tree plus one extra edge: m = n <= 2n - 4, never rigid."""
    n = rng.randint(n_min, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    rest = [e for e in combinations(range(n), 2) if e not in {tuple(sorted(x)) for x in edges}]
    edges.append(rng.choice(rest))
    return Graph.from_edges(n, edges)


def glued_on_edge(G1: Graph, G2: Graph, seed: int) -> Graph:
    """G1 and G2 sharing one edge: a random edge of G2 is laid onto one of G1."""
    rng = random.Random(seed)
    (a, b), (c, d) = rng.choice(G1.edges), rng.choice(G2.edges)
    fresh = iter(range(G1.n, G1.n + G2.n - 2))
    label = [a if x == c else b if x == d else next(fresh) for x in range(G2.n)]
    return Graph.from_edges(G1.n + G2.n - 2, G1.edges + tuple((label[i], label[j]) for i, j in G2.edges))


def float_stress_oracle(G: Graph, trials: int = 5, seed: int = 0, tol: float = 1e-8) -> bool:
    """The float stress test that numeric.global_rigidity_oracle is held to: a
    majority vote over every trial, with no early return. Per trial: the rigidity
    matrix of a random integer embedding in floats, its rank by the SVD cut at tol,
    a random combination of the left singular vectors past that rank as the stress,
    and a yes vote when the stress matrix's float rank is n - 3."""
    from linerig.numeric import (_trial_rngs, edge_index, float_rank, random_embedding,
                                 rigidity_matrix)
    if G.n < 4:
        raise DomainError("global rigidity oracle needs at least 4 vertices")
    i, j = edge_index(G)
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    rigid, votes = False, 0
    for rng in _trial_rngs(seed + 1, trials):
        R = rigidity_matrix(G, random_embedding(G.n, rng).astype(float))
        U, s, _ = np.linalg.svd(R, full_matrices=True)
        rank = int(np.count_nonzero(s > tol * s[0] * max(R.shape))) if s.size and s[0] > 0 else 0
        rigid = rigid or rank == 2 * G.n - 3
        if G.m - rank == 0:
            continue
        stress = U[:, rank:] @ rng.normal(size=G.m - rank)
        omega = np.zeros((G.n, G.n))
        np.add.at(omega, (rows, cols), np.concatenate([-stress, -stress, stress, stress]))
        votes += float_rank(omega, tol) == G.n - 3
    if not rigid:
        raise DomainError("global rigidity oracle requires a rigid graph")
    return votes * 2 > trials


# ---------------------------------------------------------------------------
# The common-point / common-plane kernels as they were when they worked on a
# (4, ..., n) copy of the chart array, each configuration's lines contiguous, so
# that every reduction over lines ran along a short trailing axis. Frozen here as
# the oracle that lines3d.common_points / common_planes are held to.


def _rowmajor_scaled(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, cmax, unit) of a (..., n, 4) chart array: cmax is each configuration's
    max |coordinate|, unit the power of two 2**-e with cmax = f * 2**e and
    0.5 <= f < 1, and T the (4, ..., n) copy of X times unit, each coordinate
    contiguous so that the kernels' reductions over the lines of a batch run on
    contiguous rows. Scaled, every coordinate lies within 1, so the kernels'
    squares neither overflow nor underflow; the product is exact, and the kernels
    divide it back out of what they return."""
    cmax = np.abs(X).max(axis=(-2, -1))
    unit = np.ldexp(1.0, -np.frexp(cmax)[1])
    return np.multiply(X.transpose(-1, *range(X.ndim - 1)), unit[..., None], order="C"), cmax, unit


def rowmajor_common_points(X: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares common point of every configuration in a (..., n, 4) chart
    array: a line passes through (x, y, z) iff a = x - c*z and b = y - d*z. For a
    fixed z the best (x, y) are the means of a + c*z and b + d*z, which leaves z in
    closed form over the centered coordinates.

    Returns (points, found, parallel): the (..., 3) points and two (...) masks.
    `parallel` marks directions (c, d) that all agree within tol * max |coord|, a
    common point at infinity; `found` marks the other configurations whose worst
    residual is within tol * max |coord| * (1 + |z|).
    """
    T, cmax, unit = _rowmajor_scaled(np.asarray(X, dtype=float))
    a, b, c, d = T
    mean = T.sum(axis=-1, keepdims=True) / T.shape[-1]
    ac, bc, cc, dc = T - mean
    scale = tol * cmax * unit
    parallel = (T[2:].max(axis=-1) - T[2:].min(axis=-1)).max(axis=0) <= scale
    num = (ac * cc + bc * dc).sum(axis=-1, keepdims=True)
    den = (cc * cc + dc * dc).sum(axis=-1, keepdims=True)
    # den is 0 only where every direction agrees, and num with it; 0.0 - q rather
    # than -q, so that a zero z is +0.0 (nu below likewise)
    z = 0.0 - num / np.where(den > 0, den, 1.0)
    x, y = mean[0] + mean[2] * z, mean[1] + mean[3] * z
    resid = np.maximum(np.abs(x - c * z - a), np.abs(y - d * z - b)).max(axis=-1)
    found = ~parallel & (resid <= scale * (1 + np.abs(z[..., 0])))
    points = np.concatenate([x, y, z], axis=-1)
    points[..., :2] /= unit[..., None]
    return points, found, parallel


def _rowmajor_plane_system(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2n x 3 system lam*c + mu*d = 1, lam*a + mu*b + nu = 0 of one (n, 4) array."""
    A = np.zeros((len(X), 2, 3))
    A[:, 0, :2], A[:, 1, :2], A[:, 1, 2] = X[:, 2:], X[:, :2], 1.0
    return A.reshape(-1, 3), np.tile([1.0, 0.0], len(X))


def rowmajor_common_planes(X: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares common plane z = lam*x + mu*y + nu of every configuration in a
    (..., n, 4) chart array: a line lies in it iff lam*c + mu*d = 1 and
    lam*a + mu*b + nu = 0.

    The best nu is -(lam mean a + mu mean b), and (lam, mu) come from modified
    Gram-Schmidt on the two centered columns. Where those are dependent to within
    1e-10 of the coordinate scale (all lines in one vertical plane, or one line
    repeated), np.linalg.lstsq picks the minimum-norm (lam, mu, nu) of the lines
    times the chart unit instead.

    Returns (planes, found): the (..., 3) rows (lam, mu, nu) and a (...) mask of the
    worst residual within tol * (1 + max |coord| * max |lam, mu| + |nu|).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-2]
    T, cmax, unit = _rowmajor_scaled(X)
    unit = unit[..., None]
    a, b, c, d = T
    am, bm = T[:2].sum(axis=-1, keepdims=True) / n
    u, w = np.concatenate([c, a - am], axis=-1), np.concatenate([d, b - bm], axis=-1)
    r11 = np.sqrt((u * u).sum(axis=-1))[..., None]
    q1 = u / np.where(r11 > 0, r11, 1.0)
    r12 = (q1 * w).sum(axis=-1)[..., None]
    w = w - r12 * q1
    r22 = np.sqrt((w * w).sum(axis=-1))[..., None]
    ok = np.minimum(r11, r22) > 1e-10 * cmax[..., None] * unit
    # the right-hand side (1, ..., 1, 0, ..., 0) with its q1 component removed
    y1 = q1[..., :n].sum(axis=-1)[..., None]
    rhs = -y1 * q1
    rhs[..., :n] += 1.0
    r22 = np.where(ok, r22, 1.0)
    mu = (w / r22 * rhs).sum(axis=-1)[..., None] / r22
    lam = (y1 - r12 * mu) / np.where(ok, r11, 1.0)
    # (lam, mu, nu) of the scaled lines; lam and mu are those of the original lines
    # divided by unit, nu is the same
    sol = np.concatenate([lam, mu, 0.0 - (lam * am + mu * bm)], axis=-1)
    if not ok.all():
        for k in map(tuple, np.argwhere(~ok[..., 0])):
            sol[k] = np.linalg.lstsq(*_rowmajor_plane_system(X[k] * unit[k]), rcond=None)[0]
    lam, mu, nu = sol[..., 0:1], sol[..., 1:2], sol[..., 2:3]
    resid = np.maximum(np.abs(lam * c + mu * d - 1.0), np.abs(lam * a + mu * b + nu)).max(axis=-1)
    sol[..., :2] *= unit
    return sol, resid <= tol * (1 + cmax * np.abs(sol[..., :2]).max(axis=-1) + np.abs(sol[..., 2]))


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


def fraction_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination in Fractions: the oracle that
    numeric.rank_exact's prime-field ranks must equal."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The residual rule of both edge systems and the line-pair predicates, one pair of
# rows at a time, written out here as the references that lines3d.pair_tests,
# edge_residuals and the dimension certificates are held to. An edge between rows
# x and y, with d the max-norm of x - y and big the largest |coordinate| of both,
# passes at tol when its residual g has |g| <= tol * d**2 + ROUNDING * big * d.

ROUNDING = 16 * np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _largest(*rows) -> float:
    return max(abs(float(v)) for row in rows for v in row)


def pair_scale(l1: Line, l2: Line) -> float:
    """The largest |coordinate| of two lines: tol times it bounds the parallel and
    coincide tests."""
    return _largest(l1.as_tuple(), l2.as_tuple())


def edge_measure(g, x, y) -> float:
    """(|g| - ROUNDING * big * d) / d**2 of the residual g of the edge between rows x
    and y (0 where d = 0, and so g = 0): the edge passes at tol when this is <= tol."""
    d = max(abs(float(a) - float(b)) for a, b in zip(x, y))
    return (abs(float(g)) - ROUNDING * _largest(x, y) * d) / max(d * d, _TINY)


def lines_meet(l1: Line, l2: Line, tol: float = 1e-8) -> bool:
    """The residual rule on the incidence of two lines, exact on exact coordinates."""
    x, y = l1.as_tuple(), l2.as_tuple()
    D = [a - b for a, b in zip(x, y)]
    return edge_measure(D[0] * D[3] - D[1] * D[2], x, y) <= tol


def lines_coincident(l1: Line, l2: Line, tol: float = 1e-8) -> bool:
    s = tol * pair_scale(l1, l2)
    return all(abs(float(x) - float(y)) <= s for x, y in zip(l1.as_tuple(), l2.as_tuple()))
