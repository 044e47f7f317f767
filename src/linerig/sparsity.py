"""(2,3)-sparsity matroid rank and the Laman / redundant / Hendrickson decision chain.

A set of edges is (2,3)-sparse when every sub-vertex-set V' with |V'| >= 2 spans at
most 2|V'| - 3 of them. Sparse sets are the independent sets of a matroid, so a
greedy pass over the canonical edge order with an exact independence test computes
the rank and a lexicographically least maximum independent witness.

The test is the (2,3)-pebble game (Jacobs-Hendrickson 1997; Lee-Streinu 2008),
played in one function. A vertex has at most two out-heads, kept in two flat
int lists (-1 for an empty slot), so a search step reads two slots and a path
reversal overwrites two. Each search for a free pebble marks the vertices it
reaches with an integer stamp in a list and records its tree in another, all
allocated once per game. An accepted edge (u, v), u < v, spends v's pebble and
is directed v -> u, so u keeps its pebbles for its later edges. The game stops
once it has accepted 2n - 3 edges, since no later edge can be independent.
`is_redundant` rejects a graph with a vertex of degree below 3 before any game.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import is_k_connected
from .errors import DomainError
from .graphs import Edge, Graph


@dataclass(frozen=True)
class SparsityRankResult:
    rank: int
    witness: tuple[Edge, ...]


def sparsity_rank(G: Graph) -> SparsityRankResult:
    """Matroid rank of the edge set, via the (2,3)-pebble game.

    Every vertex starts with 2 pebbles and keeps pebbles[v] plus its out-degree
    equal to 2, so its out-heads fit in two slots, ``head0[v]`` and ``head1[v]``.
    An edge (u, v) is independent iff u and then v can be brought to 2 pebbles
    by searches along directed accepted edges, each stopping at the first free
    pebble on a vertex other than the other endpoint, reversing the path and
    moving that pebble to its root. A search that fails reached k vertices, both
    endpoints among them, holding 3 free pebbles in all (a sparse set leaves no
    fewer), so they span 2k - 3 accepted edges and the edge is dependent.
    Independence does not depend on the searches, so the witness is exactly the
    greedy maximum independent subset in canonical edge order.
    """
    n = G.n
    if n < 2:
        raise DomainError("sparsity rank needs at least 2 vertices")
    full = 2 * n - 3
    pebbles = [2] * n
    # the out-heads of x in the order they were added: head0[x], then head1[x];
    # -1 marks an empty slot, and head1[x] is empty whenever head0[x] is
    head0 = [-1] * n
    head1 = [-1] * n
    # seen[x] == stamp marks the vertices the current search has reached, and
    # parent[x] the vertex it reached x from; each search also stamps seen[-1],
    # an extra slot, so that an empty head reads as reached
    seen = [0] * (n + 1)
    parent = [0] * n
    stamp = 0
    accepted: list[Edge] = []
    for u, v in G.edges:
        for root, other in ((u, v), (v, u)):
            while pebbles[root] < 2:
                stamp += 1
                seen[root] = seen[-1] = stamp
                stack = [root]
                while stack:
                    x = stack.pop()
                    y = head0[x]
                    if seen[y] != stamp:
                        seen[y] = stamp
                        parent[y] = x
                        if pebbles[y] and y != other:
                            break
                        stack.append(y)
                    y = head1[x]
                    if seen[y] != stamp:
                        seen[y] = stamp
                        parent[y] = x
                        if pebbles[y] and y != other:
                            break
                        stack.append(y)
                else:
                    break
                # y has a free pebble: reverse the path to it and move the pebble to root
                pebbles[y] -= 1
                while y != root:
                    x = parent[y]
                    if head0[x] == y:
                        head0[x] = head1[x]
                    head1[x] = -1
                    if head0[y] < 0:
                        head0[y] = x
                    else:
                        head1[y] = x
                    y = x
                pebbles[root] += 1
            if pebbles[root] < 2:
                break
        else:
            pebbles[v] -= 1
            if head0[v] < 0:
                head0[v] = u
            else:
                head1[v] = u
            accepted.append((u, v))
            if len(accepted) == full:
                break
    return SparsityRankResult(len(accepted), tuple(accepted))


def is_laman(G: Graph) -> bool:
    """m = 2n - 3 and the whole edge set is independent."""
    if G.n < 2:
        raise DomainError("is_laman needs at least 2 vertices")
    return G.m == 2 * G.n - 3 and sparsity_rank(G).rank == G.m


def is_redundant(G: Graph) -> bool:
    """Every single-edge deletion still leaves a spanning Laman subgraph.

    A deletion keeps 2n - 3 edges only if there are at least 2n - 2 of them, so
    sparser graphs (the edgeless ones included) are not redundant. Nor is a graph
    with a vertex of degree below 3: deleting an edge there leaves that vertex
    with at most one neighbour, which no rigid graph on 3 or more vertices has.
    Otherwise it plays one game per single-edge deletion.
    """
    if G.n < 2:
        raise DomainError("is_redundant needs at least 2 vertices")
    target = 2 * G.n - 3
    if G.m <= target or min(map(G.degree, range(G.n))) < 3:
        return False
    return all(sparsity_rank(G.without_edge(*e)).rank == target for e in G.edges)


def is_hendrickson(G: Graph) -> bool:
    """Redundant and 3-vertex-connected."""
    if G.n < 4:
        raise DomainError("is_hendrickson needs at least 4 vertices")
    return is_redundant(G) and is_k_connected(G, 3)
