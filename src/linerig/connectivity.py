"""Vertex connectivity by articulation-point sweeps.

For k >= 2, G (with n > k) is k-connected iff removing any k - 2 vertices leaves
a graph that is connected and has no articulation point. Each (k-2)-subset costs
one iterative lowpoint DFS (Hopcroft-Tarjan), so the test makes C(n, k-2) sweeps
of O(n + m); k = 1 needs one sweep's reach count. A vertex of degree below k
decides the test with no sweep: its neighbours separate it from the rest.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError
from .graphs import Graph


def _sweep(adj: list[tuple[int, ...]], removed: tuple[int, ...]) -> tuple[int, bool]:
    """One DFS of G - removed: the number of vertices it reaches, and whether it
    met an articulation point of the component it explored.

    `disc` holds DFS discovery times from 1 (0 unvisited, -1 removed) and `low`
    the lowpoints; the DFS keeps its own stack, so no depth hits a recursion limit.
    The tree edge back to the parent p is not skipped: it can only lower low[v] to
    disc[p], which leaves the articulation test ``low[v] >= disc[p]`` as it is.
    """
    disc = [0] * len(adj)
    for v in removed:
        disc[v] = -1
    root = disc.index(0)
    low = [0] * len(adj)
    disc[root] = low[root] = t = 1
    root_children = 0
    cut = False
    stack = [(root, root, iter(adj[root]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            if not disc[w]:
                t += 1
                disc[w] = low[w] = t
                stack.append((w, v, iter(adj[w])))
                break
            if 0 < disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if v == root:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if p == root:
                root_children += 1
            elif low[v] >= disc[p]:
                cut = True
    return t, cut or root_children > 1


def is_k_connected(G: Graph, k: int) -> bool:
    """True iff G stays connected after removing any set of fewer than k vertices.

    For k >= 2, every (k-2)-subset S must leave G - S connected with no
    articulation point: a disconnecting set of size below k extends to one of size
    exactly k - 1 (at least two nonempty components survive because n > k), and
    such a set is S plus an articulation point of G - S.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if G.n <= k:
        raise DomainError(f"k-connectivity needs n > k (n={G.n}, k={k})")
    adj = [tuple(G.neighbors(v)) for v in range(G.n)]
    if min(map(len, adj)) < k:
        # the neighbours of a vertex of degree below k separate it from the
        # n - 1 - degree >= 1 other vertices
        return False
    if k == 1:
        return _sweep(adj, ())[0] == G.n
    return all(_sweep(adj, S) == (G.n - k + 2, False) for S in combinations(range(G.n), k - 2))
