"""The benchmark's own input generators.

Every input is drawn here from a ``random.Random`` the caller seeds, never by
``linerig.generate``, so a change to the library's generators cannot change a
workload. Graphs are plain ``(n, edges)`` pairs with ``edges`` a sorted list
of ``(i, j)``, ``i < j``, so this module needs nothing from linerig.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

Edges = list[tuple[int, int]]


def pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def relabel(n: int, edges, rng: random.Random) -> Edges:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(pair(perm[u], perm[v]) for u, v in edges)


def laman(n: int, rng: random.Random) -> Edges:
    """Laman graph grown from K2 by Henneberg 0- and 1-extensions (even odds)."""
    edges = {(0, 1)}
    for z in range(2, n):
        if z >= 3 and rng.random() < 0.5:
            u, v = rng.choice(sorted(edges))
            w = rng.choice([x for x in range(z) if x not in (u, v)])
            edges.remove((u, v))
            edges |= {pair(u, z), pair(v, z), pair(w, z)}
        else:
            u, v = rng.sample(range(z), 2)
            edges |= {pair(u, z), pair(v, z)}
    return relabel(n, edges, rng)


def jj_steps(n: int, rng: random.Random, edge_odds: float = 0.3) -> list[tuple]:
    """Construction steps from K4: a 1-extension per new vertex, each followed
    by an edge addition with probability ``edge_odds``.

    Steps are ``("ext1", u, v, w)`` (subdivide edge uv by the next vertex and
    join it to w) and ``("edge", u, v)``. Both moves keep a graph globally
    rigid, so the result is a Hendrickson graph (Jackson-Jordan, Connelly).
    """
    edges = set(combinations(range(4), 2))
    steps: list[tuple] = []
    for z in range(4, n):
        u, v = rng.choice(sorted(edges))
        w = rng.choice([x for x in range(z) if x not in (u, v)])
        edges.remove((u, v))
        edges |= {pair(u, z), pair(v, z), pair(w, z)}
        steps.append(("ext1", u, v, w))
        if rng.random() < edge_odds:
            non_edges = [e for e in combinations(range(z + 1), 2) if e not in edges]
            if non_edges:
                e = rng.choice(non_edges)
                edges.add(e)
                steps.append(("edge", *e))
    return steps


def replay_jj(steps) -> tuple[int, Edges]:
    """Apply construction steps to K4; raises ValueError on an invalid step."""
    n = 4
    edges = set(combinations(range(4), 2))
    for step in steps:
        if step[0] == "ext1":
            _, u, v, w = step
            e = pair(u, v)
            if e not in edges or len({u, v, w}) != 3 or not 0 <= w < n:
                raise ValueError(f"invalid 1-extension {step}")
            edges.remove(e)
            edges |= {pair(u, n), pair(v, n), pair(w, n)}
            n += 1
        elif step[0] == "edge":
            _, u, v = step
            e = pair(u, v)
            if u == v or not (0 <= u < n and 0 <= v < n) or e in edges:
                raise ValueError(f"invalid edge addition {step}")
            edges.add(e)
        else:
            raise ValueError(f"unknown step {step}")
    return n, sorted(edges)


def hendrickson(n: int, rng: random.Random) -> Edges:
    """Hendrickson (redundantly rigid, 3-connected) graph grown from K4."""
    _, edges = replay_jj(jj_steps(n, rng))
    return relabel(n, edges, rng)


def rigid_not_redundant(n: int, rng: random.Random, pendant: int) -> Edges:
    """A Hendrickson graph on n - pendant vertices plus ``pendant`` 0-extension
    vertices of degree 2.

    Rigid, since 0-extensions keep rigidity. Not redundant, since deleting an
    edge at a degree-2 vertex leaves it with degree 1. Not 3-connected, since
    deleting the two neighbours of a degree-2 vertex cuts it off.
    """
    core = n - pendant
    _, edges = replay_jj(jj_steps(core, rng))
    edges = set(edges)
    for z in range(core, n):
        u, v = rng.sample(range(core), 2)
        edges |= {pair(u, z), pair(v, z)}
    return relabel(n, edges, rng)


def glued_on_edge(n: int, rng: random.Random) -> Edges:
    """Two Hendrickson graphs identified along one edge.

    Redundantly rigid: without any one edge, each side stays rigid and the two
    rigid sides share two vertices. Only 2-connected: deleting the two shared
    vertices splits the sides.
    """
    n1 = n // 2 + 1
    n2 = n + 2 - n1
    _, left = replay_jj(jj_steps(n1, rng))
    _, right = replay_jj(jj_steps(n2, rng))
    a, b = rng.choice(left)
    c, d = rng.choice(right)
    # right vertex c -> a, d -> b, the others -> n1, n1 + 1, ...
    index = {c: a, d: b}
    for x in range(n2):
        if x not in index:
            index[x] = n1 + len(index) - 2
    edges = set(left) | {pair(index[u], index[v]) for u, v in right}
    return relabel(n, edges, rng)


def tree_plus_edge(n: int, rng: random.Random) -> Edges:
    """Random recursive tree plus one non-edge: m = n, never rigid for n >= 4."""
    edges = {pair(rng.randrange(v), v) for v in range(1, n)}
    non_edges = [e for e in combinations(range(n), 2) if e not in edges]
    edges.add(rng.choice(non_edges))
    return relabel(n, edges, rng)


def cycle(n: int, rng: random.Random) -> Edges:
    return relabel(n, [pair(i, (i + 1) % n) for i in range(n)], rng)


def rational_rotation(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Exactly orthogonal (cos, sin) from a rational tangent half-angle."""
    t = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def congruent_pair(n: int, rng: random.Random, orientation: int, box: int = 100):
    """Integer points p and their image under a rational rigid motion."""
    p = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]
    co, si = rational_rotation(rng)
    tx, ty = rng.randint(-box, box), rng.randint(-box, box)
    q = []
    for x, y in p:
        y = y if orientation == 1 else -y
        q.append((co * x - si * y + tx, si * x + co * y + ty))
    return p, q


def concurrent_lines(k: int, rng: random.Random, box: int = 50):
    """k distinct chart lines through a random integer point P; returns (rows, P)."""
    P = tuple(rng.randint(-box, box) for _ in range(3))
    dirs: set[tuple[int, int]] = set()
    while len(dirs) < k:
        dirs.add((rng.randint(-box, box), rng.randint(-box, box)))
    rows = [[P[0] - c * P[2], P[1] - d * P[2], c, d] for c, d in sorted(dirs)]
    rng.shuffle(rows)
    return rows, P


def coplanar_lines(k: int, rng: random.Random, box: int = 50):
    """k distinct chart lines in a random plane z = lam x + mu y + nu, lam != 0.

    A line (a, b, c, d) lies in the plane iff lam c + mu d = 1 and
    lam a + mu b = -nu; b and d are drawn, a and c solved. Returns (rows, plane).
    """
    lam = 0
    while lam == 0:
        lam = rng.randint(-box // 5, box // 5)
    mu, nu = rng.randint(-box // 5, box // 5), rng.randint(-box, box)
    seen: set[int] = set()
    rows = []
    while len(rows) < k:
        d = rng.randint(-box, box)
        if d in seen:
            continue
        seen.add(d)
        b = rng.randint(-box, box)
        rows.append([(-nu - mu * b) / lam, b, (1 - mu * d) / lam, d])
    return rows, (lam, mu, nu)
