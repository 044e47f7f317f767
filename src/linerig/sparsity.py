"""(2,3)-sparsity matroid rank and the Laman / redundant / Hendrickson decision chain.

A set of edges is (2,3)-sparse when every sub-vertex-set V' with |V'| >= 2 spans at
most 2|V'| - 3 of them. Sparse sets are the independent sets of a matroid, so a
greedy pass over the canonical edge order with an exact independence test computes
the rank and a lexicographically least maximum independent witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .connectivity import is_k_connected
from .errors import DomainError
from .graphs import Edge, Graph


@dataclass(frozen=True)
class SparsityRankResult:
    rank: int
    witness: tuple[Edge, ...]


def sparsity_rank(G: Graph) -> SparsityRankResult:
    """Matroid rank of the edge set, via the (2,3)-pebble game.

    Every vertex starts with 2 pebbles. An edge is independent iff 4 pebbles can
    be gathered onto its endpoints by pulling free pebbles along directed accepted
    edges (reversing the path); accepting the edge spends one pebble of its tail.
    Independence does not depend on the order of the searches, so the witness is
    exactly the greedy maximum independent subset in canonical edge order.
    """
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


def is_laman(G: Graph) -> bool:
    """m = 2n - 3 and the whole edge set is independent."""
    if G.n < 2:
        raise DomainError("is_laman needs at least 2 vertices")
    return G.m == 2 * G.n - 3 and sparsity_rank(G).rank == G.m


def spanning_laman_subgraph(G: Graph) -> Optional[Graph]:
    """A spanning subgraph with 2n - 3 independent edges, when the rank allows one."""
    if G.n < 2:
        raise DomainError("spanning_laman_subgraph needs at least 2 vertices")
    result = sparsity_rank(G)
    if result.rank != 2 * G.n - 3:
        return None
    return Graph(G.n, result.witness)


def is_redundant(G: Graph) -> bool:
    """Every single-edge deletion still leaves a spanning Laman subgraph.

    A deletion keeps 2n - 3 edges only if there are at least 2n - 2 of them, so
    sparser graphs (the edgeless ones included) are not redundant.
    """
    if G.n < 2:
        raise DomainError("is_redundant needs at least 2 vertices")
    target = 2 * G.n - 3
    return G.m > target and all(sparsity_rank(G.without_edge(*e)).rank == target for e in G.edges)


def is_hendrickson(G: Graph) -> bool:
    """Redundant and 3-vertex-connected."""
    if G.n < 4:
        raise DomainError("is_hendrickson needs at least 4 vertices")
    return is_redundant(G) and is_k_connected(G, 3)
