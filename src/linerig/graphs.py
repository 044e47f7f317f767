"""Simple undirected graphs on vertices 0..n-1: parsing, serialization, generators.

Two text formats are supported:

* JSON: ``{"n": 4, "edges": [[0, 1], [1, 2]]}``
* edge list: first line ``n m``, then m lines ``i j``

Vertex indices are 0-based everywhere.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, GraphParseError, load_json

Edge = tuple[int, int]

# The largest vertex count a graph file may declare: every analysis allocates in
# proportion to n, so a short file must not name a huge one.
MAX_VERTICES = 10 ** 6
# complete(k) has k(k - 1)/2 edges, 5e11 at the vertex limit: more than this is refused
MAX_COMPLETE_EDGES = 10 ** 6


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. ``edges`` is canonically sorted, each pair (i, j) with i < j.

    ``Graph(n, edges)`` validates its arguments and sorts the edges. The derived
    graphs (``with_edge``, ``without_edge``, ``without_vertex``) skip that check:
    each edits a canonical tuple in a way that keeps it canonical (a deletion, the
    order-preserving relabel of a vertex deletion, one checked edge inserted at its
    ``bisect`` position), so they rely on their source being canonical.

    What depends on the graph alone is a cached property, built on first read and
    immutable: the adjacency sets, the edge set, the read-only endpoint arrays
    ``edge_index`` and the read-only int8 ``signed_gram``, S S^T of the signed
    incidence matrix S, which the float sampler's projection and certificate share.
    None is a field, so equality and hashing ignore them, and every derived graph
    builds its own.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            if not _is_integer(self.n):
                raise DomainError(f"vertex count {self.n!r} is not an integer")
            object.__setattr__(self, "n", int(self.n))
        if self.n < 0:
            raise DomainError("vertex count must be non-negative")
        if not _is_canonical(self.n, self.edges):
            object.__setattr__(self, "edges", _canonical_edges(self.n, self.edges))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from unordered, possibly repeated edge pairs (repeats collapse)."""
        canon: set[Edge] = set()
        for e in edges:
            u, v = _endpoints(e)
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        nbr: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            nbr[i].add(j)
            nbr[j].add(i)
        return tuple(frozenset(s) for s in nbr)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (i, j) of the edges, in canonical edge order."""
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        e.flags.writeable = False
        return e[:, 0], e[:, 1]

    @cached_property
    def signed_gram(self) -> np.ndarray:
        """S S^T, read-only int8, for the m x n signed incidence matrix S of the edges
        (row k holds 1 in column i_k and -1 in column j_k), in O(m^2) from edge_index:
        entry (k, l) is [i_k = i_l] - [i_k = j_l] - [j_k = i_l] + [j_k = j_l], so 2 on
        the diagonal and +1 or -1 where two edges share an endpoint."""
        i, j = self.edge_index
        I, J = i[:, None], j[:, None]
        SS = (I == i).astype(np.int8) - (I == j) - (J == i) + (J == j)
        SS.flags.writeable = False
        return SS

    def with_edge(self, u: int, v: int) -> "Graph":
        """Add the edge uv: two distinct vertices below n, not already joined."""
        u, v = _endpoints((u, v))
        if u == v:
            raise DomainError("cannot add a self-loop")
        e = (u, v) if u < v else (v, u)
        if not (0 <= e[0] and e[1] < self.n):
            raise DomainError(f"edge {e} is not an ordered pair of distinct vertices below n={self.n}")
        k = bisect_left(self.edges, e)
        if self.edges[k:k + 1] == (e,):
            raise DomainError(f"edge {e} already present")
        return Graph._derived(self.n, self.edges[:k] + (e,) + self.edges[k:])

    def without_edge(self, u: int, v: int) -> "Graph":
        e = (u, v) if u < v else (v, u)
        k = bisect_left(self.edges, e)
        if self.edges[k:k + 1] != (e,):
            raise DomainError(f"edge {e} not present")
        return Graph._derived(self.n, self.edges[:k] + self.edges[k + 1:])

    def without_vertex(self, v: int) -> tuple["Graph", list[int]]:
        """Delete vertex v. Returns the compacted graph and the list of surviving old labels."""
        if not (_is_integer(v) and 0 <= v < self.n):
            raise DomainError(f"no vertex {v!r}")
        v = int(v)
        keep = [x for x in range(self.n) if x != v]
        edges = tuple((i - (i > v), j - (j > v)) for i, j in self.edges if i != v != j)
        return Graph._derived(self.n - 1, edges), keep

    @classmethod
    def _derived(cls, n: int, edges: tuple[Edge, ...]) -> "Graph":
        """A graph from canonical edges, without ``__post_init__``'s O(m) check: the
        derivations above build only canonical tuples from a canonical source, and
        _parse_edges sorts the int pairs it has checked."""
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "edges", edges)
        return G

    def relabeled(self, mapping: Sequence[int]) -> "Graph":
        """Apply the vertex relabeling ``old -> mapping[old]`` (a permutation of 0..n-1)."""
        if sorted(mapping) != list(range(self.n)):
            raise DomainError("mapping is not a permutation of the vertex set")
        return Graph.from_edges(self.n, ((mapping[i], mapping[j]) for i, j in self.edges))


def _endpoints(e: object) -> Edge:
    """The two vertices of an edge: a pair of ints that are not bools, numpy
    integers converted to int. Anything else raises DomainError."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise DomainError(f"edge {e!r} is not a pair of vertices") from None
    for x in (u, v):
        if not _is_integer(x):
            raise DomainError(f"edge {e!r}: vertex {x!r} is not an integer")
    return int(u), int(v)


def _is_integer(x: object) -> bool:
    """An int that is not a bool, or a numpy integer: a vertex or a vertex count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_canonical(n: int, edges: object) -> bool:
    """One pass: edges is a strictly increasing tuple of int pairs (i, j) with
    0 <= i < j < n, the form every graph stores."""
    if type(edges) is not tuple:
        return False
    prev = (-1, -1)
    for e in edges:
        if not (type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
                and prev < e and 0 <= e[0] < e[1] < n):
            return False
        prev = e
    return True


def _canonical_edges(n: int, edges: object) -> tuple[Edge, ...]:
    """The sorted tuple of int pairs of any iterable of ordered pairs (i, j),
    0 <= i < j < n, or DomainError naming the first bad or repeated edge."""
    try:
        items = iter(edges)
    except TypeError:
        raise DomainError(f"edges {edges!r} are not an iterable of pairs") from None
    seen: set[Edge] = set()
    for e in items:
        i, j = _endpoints(e)
        if not (0 <= i < j < n):
            raise DomainError(f"edge {e} is not an ordered pair of distinct vertices below n={n}")
        if (i, j) in seen:
            raise DomainError(f"duplicate edge {e}")
        seen.add((i, j))
    return tuple(sorted(seen))


def parse_graph(text: str, fmt: str = "json") -> Graph:
    """Parse graph text in the given format ("json" or "edge-list"). JSON text is
    decoded by errors.load_json; both formats feed one edge loop, and any fault
    raises GraphParseError naming its field or line."""
    if fmt == "json":
        return _parse_json(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise GraphParseError(f"unknown graph format '{fmt}'")


def serialize_graph(G: Graph, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps({"n": G.n, "edges": [list(e) for e in G.edges]}, sort_keys=True, separators=(",", ":"))
    if fmt == "edge-list":
        lines = [f"{G.n} {G.m}"] + [f"{i} {j}" for i, j in G.edges]
        return "\n".join(lines) + "\n"
    raise GraphParseError(f"unknown graph format '{fmt}'")


def _parse_json(text: str) -> Graph:
    data = load_json(text, "graph", GraphParseError)
    if not isinstance(data, dict):
        raise GraphParseError("top-level JSON value must be an object")
    n = data.get("n")
    if not _is_integer(n) or n < 0:
        raise GraphParseError("field 'n': must be a non-negative integer")
    raw = data.get("edges", [])
    if not isinstance(raw, list):
        raise GraphParseError("field 'edges': must be a list")
    return _parse_edges(n, raw, "field 'edges[{}]'".format)


def _parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln] or [""]
    n, m = _int_pair(1, lines[0], "header 'n m'")
    if n < 0 or m < 0:
        raise GraphParseError("line 1: n and m must be non-negative")
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = (_int_pair(k, ln, "edge 'i j'") for k, ln in enumerate(lines[1:], 2))
    return _parse_edges(n, edges, lambda k: f"line {k + 2}")


def _int_pair(k: int, ln: str, what: str) -> list[int]:
    """Line k of an edge list: the `what`, two integers."""
    parts = ln.split()
    if len(parts) != 2:
        raise GraphParseError(f"line {k}: expected {what}")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise GraphParseError(f"line {k}: non-integer {what}: {exc}") from exc


def _parse_edges(n: int, items: Iterable[object], where: Callable[[int], str]) -> Graph:
    """Both formats' edge loop: distinct pairs of Python ints below n, none repeated (both
    decoders give no other integer type); where(k) names item k. n above MAX_VERTICES is
    refused before any edge is read."""
    if n > MAX_VERTICES:
        raise GraphParseError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    edges: set[Edge] = set()
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 2:
            raise GraphParseError(f"{where(k)}: must be a pair [i, j]")
        u, v = item
        if not type(u) is type(v) is int:
            raise GraphParseError(f"{where(k)}: endpoints must be integers, got [{u!r}, {v!r}]")
        if u == v:
            raise GraphParseError(f"{where(k)}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"{where(k)}: endpoint out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise GraphParseError(f"{where(k)}: duplicate edge {list(e)}")
        edges.add(e)
    return Graph._derived(n, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# named generators


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _complete(params: tuple[int, ...], rng: random.Random) -> Graph:
    (k,) = params
    if k < 1:
        raise DomainError("complete(k) needs k >= 1")
    if k * (k - 1) // 2 > MAX_COMPLETE_EDGES:
        raise DomainError(f"complete({k}) has {k * (k - 1) // 2} edges, above the limit of "
                          f"{MAX_COMPLETE_EDGES}")
    return Graph(k, tuple(combinations(range(k), 2)))


def _cycle(params: tuple[int, ...], rng: random.Random) -> Graph:
    (k,) = params
    if k < 3:
        raise DomainError("cycle(k) needs k >= 3")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def _path(params: tuple[int, ...], rng: random.Random) -> Graph:
    (k,) = params
    if k < 1:
        raise DomainError("path(k) needs k >= 1")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def _wheel(params: tuple[int, ...], rng: random.Random) -> Graph:
    # k vertices total: hub 0 plus a (k-1)-cycle on 1..k-1
    (k,) = params
    if k < 4:
        raise DomainError("wheel(k) needs k >= 4")
    rim = [(i, i % (k - 1) + 1) for i in range(1, k)]
    spokes = [(0, i) for i in range(1, k)]
    return Graph.from_edges(k, rim + spokes)


def _laman_random(params: tuple[int, ...], rng: random.Random) -> Graph:
    (k,) = params
    if k < 2:
        raise DomainError("laman_random(k) needs k >= 2")
    n = 2
    edges: set[Edge] = {(0, 1)}
    while n < k:
        z = n
        if n >= 3 and rng.random() < 0.5:
            u, v = rng.choice(sorted(edges))
            w = rng.choice([x for x in range(n) if x not in (u, v)])
            edges.remove((u, v))
            edges |= {_pair(u, z), _pair(v, z), _pair(w, z)}
        else:
            u, v = rng.sample(range(n), 2)
            edges |= {_pair(u, z), _pair(v, z)}
        n += 1
    return Graph(k, tuple(sorted(edges)))


def _nth_non_edge(n: int, edges: set[Edge], index: int) -> Edge:
    """The pair of range(n) at `index` in canonical order among those not in edges,
    in O(n + m): the non-edges (a, b), b > a, are counted for each a, and then only
    row a is scanned."""
    free = list(range(n - 1, -1, -1))
    for a, _ in edges:
        free[a] -= 1
    a = 0
    while index >= free[a]:
        index -= free[a]
        a += 1
    return next(islice(((a, b) for b in range(a + 1, n) if (a, b) not in edges), index, None))


def _hendrickson_random(params: tuple[int, ...], rng: random.Random) -> Graph:
    k, extra = params if len(params) == 2 else (params[0], 1)
    if k < 4:
        raise DomainError("hendrickson_random(k) needs k >= 4")
    if extra < 0:
        raise DomainError("extra edge count must be non-negative")
    n = 4
    edges: set[Edge] = set(combinations(range(4), 2))

    def add_random_edge() -> None:
        # rng.choice(non_edges) would be non_edges[rng._randbelow(len(non_edges))] on
        # the canonical list of non-edges: the same draw, without listing C(n, 2) pairs
        count = n * (n - 1) // 2 - len(edges)
        if count:
            edges.add(_nth_non_edge(n, edges, rng.randrange(count)))

    while n < k:
        z = n
        u, v = rng.choice(sorted(edges))
        w = rng.choice([x for x in range(n) if x not in (u, v)])
        edges.remove((u, v))
        edges |= {_pair(u, z), _pair(v, z), _pair(w, z)}
        n += 1
        if rng.random() < 0.3:
            add_random_edge()
    # each call adds one edge until the graph is complete, and draws nothing after
    for _ in range(min(extra, k * (k - 1) // 2 - len(edges))):
        add_random_edge()
    return Graph(k, tuple(sorted(edges)))


# name: (generator, the parameter counts it takes)
_GENERATORS = {
    "complete": (_complete, (1,)),
    "cycle": (_cycle, (1,)),
    "path": (_path, (1,)),
    "wheel": (_wheel, (1,)),
    "laman_random": (_laman_random, (1,)),
    "hendrickson_random": (_hendrickson_random, (1, 2)),
}


def generate(name: str, params: Sequence[int], seed: int = 0) -> Graph:
    """Build a named catalog graph. Deterministic for fixed (name, params, seed). The
    first parameter, the vertex count, may not exceed MAX_VERTICES."""
    if name not in _GENERATORS:
        raise DomainError(f"unknown generator '{name}' (choose from {sorted(_GENERATORS)})")
    build, counts = _GENERATORS[name]
    if len(params) not in counts:
        raise DomainError(f"generator '{name}' takes {' or '.join(map(str, counts))} "
                          f"parameter(s), got {len(params)}")
    for x in params:
        if not _is_integer(x):
            raise DomainError(f"generator '{name}' takes integer parameters, got {x!r}")
    ptuple = tuple(int(x) for x in params)
    if ptuple[0] > MAX_VERTICES:
        raise DomainError(f"n={ptuple[0]} exceeds the limit of {MAX_VERTICES} vertices")
    rng = random.Random(f"{name}:{ptuple}:{seed}")
    return build(ptuple, rng)


def catalog(n_max: int = 8) -> list[tuple[str, Graph]]:
    """Named small graphs up to n_max vertices: complete graphs, cycles, paths, wheels,
    and random Laman and Hendrickson graphs. The tests sweep it; the hendrickson-oracle
    suite takes its own list, verify.hendrickson_catalog."""
    out: list[tuple[str, Graph]] = []
    for k in range(2, n_max + 1):
        out.append((f"complete({k})", generate("complete", [k])))
    for k in range(3, n_max + 1):
        out.append((f"cycle({k})", generate("cycle", [k])))
    for k in range(2, n_max + 1):
        out.append((f"path({k})", generate("path", [k])))
    for k in range(4, n_max + 1):
        out.append((f"wheel({k})", generate("wheel", [k])))
    for k in range(4, n_max + 1):
        for s in (1, 2):
            out.append((f"laman_random({k},seed={s})", generate("laman_random", [k], seed=s)))
    for k in range(5, n_max + 1):
        out.append((f"hendrickson_random({k},seed=1)", generate("hendrickson_random", [k], seed=1)))
    return out
