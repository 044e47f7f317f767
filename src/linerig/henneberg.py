"""Construction sequences: forward replay and reverse extraction.

Two move languages are supported:

* Laman graphs are grown from K2 by 0-extensions (new degree-2 vertex) and
  1-extensions (subdivide an edge uv with a new vertex z and attach z to a third
  vertex w).
* Hendrickson graphs are grown from K4 by edge additions and 1-extensions.

Extraction peels one move at a time, checking candidate reverse moves against the
target class; the relevant structure theorems guarantee at least one candidate at
every step, so an empty search is raised loudly as a broken invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import ConstructionError, DomainError, StepError
from .graphs import Graph
from .sparsity import is_hendrickson, is_laman


@dataclass(frozen=True)
class Ext0:
    """Add a new vertex adjacent to u and v."""

    u: int
    v: int


@dataclass(frozen=True)
class Ext1:
    """Subdivide edge (u, v) with a new vertex and attach it to w."""

    u: int
    v: int
    w: int


@dataclass(frozen=True)
class EdgeAdd:
    """Add the edge (u, v)."""

    u: int
    v: int


# Annotation-only aliases. Evaluated at import time, typing's cache would keep a
# strong reference to these classes, and through them to the whole package, for
# every fresh import of linerig in the same process.
if TYPE_CHECKING:
    HennebergStep = Union[Ext0, Ext1]
    JJStep = Union[EdgeAdd, Ext1]


def steps_to_json(steps: Iterable[Union[HennebergStep, JJStep]]) -> str:
    items = []
    for s in steps:
        if isinstance(s, Ext0):
            items.append({"kind": "ext0", "u": s.u, "v": s.v})
        elif isinstance(s, Ext1):
            items.append({"kind": "ext1", "u": s.u, "v": s.v, "w": s.w})
        elif isinstance(s, EdgeAdd):
            items.append({"kind": "edge", "u": s.u, "v": s.v})
        else:
            raise StepError(f"unknown step object {s!r}")
    return json.dumps(items, separators=(",", ":"))


_STEP_FIELDS = {"ext0": (Ext0, ("u", "v")), "ext1": (Ext1, ("u", "v", "w")),
                "edge": (EdgeAdd, ("u", "v"))}


def _vertex_field(item: dict, key: str, k: int) -> int:
    """The one validator of a step's vertex fields: a JSON integer (bools do not count)."""
    if key not in item:
        raise StepError(f"step {k}: missing field '{key}'")
    value = item[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise StepError(f"step {k}: field '{key}' must be an integer, got {value!r}")
    return value


def steps_from_json(text: str) -> list[Union[HennebergStep, JJStep]]:
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StepError(f"invalid step JSON: {exc}") from exc
    if not isinstance(items, list):
        raise StepError("step JSON must be a list")
    steps: list[Union[HennebergStep, JJStep]] = []
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "kind" not in item:
            raise StepError(f"step {k}: not an object with a 'kind'")
        kind = item["kind"]
        if not isinstance(kind, str) or kind not in _STEP_FIELDS:
            raise StepError(f"step {k}: unknown kind {kind!r}")
        cls, fields = _STEP_FIELDS[kind]
        steps.append(cls(*(_vertex_field(item, key, k) for key in fields)))
    return steps


def _apply_ext0(G: Graph, step: Ext0, pos: int) -> Graph:
    z = G.n
    if not (0 <= step.u < z and 0 <= step.v < z) or step.u == step.v:
        raise StepError(f"step {pos}: 0-extension attach pair ({step.u}, {step.v}) invalid for n={z}")
    return Graph.from_edges(z + 1, list(G.edges) + [(step.u, z), (step.v, z)])


def _apply_ext1(G: Graph, step: Ext1, pos: int) -> Graph:
    z = G.n
    if not (0 <= step.u < z and 0 <= step.v < z and 0 <= step.w < z):
        raise StepError(f"step {pos}: 1-extension references a missing vertex (n={z})")
    if step.w in (step.u, step.v) or step.u == step.v:
        raise StepError(f"step {pos}: 1-extension vertices ({step.u}, {step.v}, {step.w}) not distinct")
    if not G.has_edge(step.u, step.v):
        raise StepError(f"step {pos}: 1-extension subdivides missing edge ({step.u}, {step.v})")
    edges = [e for e in G.edges if e != (min(step.u, step.v), max(step.u, step.v))]
    edges += [(step.u, z), (step.v, z), (step.w, z)]
    return Graph.from_edges(z + 1, edges)


def apply_henneberg(steps: Sequence[HennebergStep]) -> Graph:
    """Replay 0-/1-extensions starting from K2."""
    G = Graph(2, ((0, 1),))
    for pos, step in enumerate(steps):
        if isinstance(step, Ext0):
            G = _apply_ext0(G, step, pos)
        elif isinstance(step, Ext1):
            G = _apply_ext1(G, step, pos)
        else:
            raise StepError(f"step {pos}: {step!r} is not a Henneberg move")
    return G


def apply_jj(steps: Sequence[JJStep]) -> Graph:
    """Replay edge additions and 1-extensions starting from K4."""
    G = Graph(4, tuple(combinations(range(4), 2)))
    for pos, step in enumerate(steps):
        if isinstance(step, EdgeAdd):
            if not (0 <= step.u < G.n and 0 <= step.v < G.n) or step.u == step.v:
                raise StepError(f"step {pos}: edge addition ({step.u}, {step.v}) invalid for n={G.n}")
            if G.has_edge(step.u, step.v):
                raise StepError(f"step {pos}: edge ({step.u}, {step.v}) already present")
            G = G.with_edge(step.u, step.v)
        elif isinstance(step, Ext1):
            G = _apply_ext1(G, step, pos)
        else:
            raise StepError(f"step {pos}: {step!r} is not an edge addition or 1-extension")
    return G


# ---------------------------------------------------------------------------
# extraction


class _Peeler:
    """Mutable adjacency view of a subgraph of G on original labels."""

    def __init__(self, G: Graph):
        self.adj: dict[int, set[int]] = {v: set(G.neighbors(v)) for v in range(G.n)}

    @property
    def active(self) -> list[int]:
        return sorted(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v)

    def compact(self, drop: int | None = None, add: tuple[int, int] | None = None,
                remove: tuple[int, int] | None = None) -> Graph:
        """The current graph with optional modifications, compacted to 0..n'-1."""
        verts = [v for v in self.adj if v != drop]
        verts.sort()
        index = {v: i for i, v in enumerate(verts)}
        edges = set()
        for u, nbrs in self.adj.items():
            if u == drop:
                continue
            for v in nbrs:
                if v == drop or not u < v:
                    continue
                edges.add((index[u], index[v]))
        if remove is not None:
            a, b = sorted((index[remove[0]], index[remove[1]]))
            edges.discard((a, b))
        if add is not None:
            a, b = sorted((index[add[0]], index[add[1]]))
            edges.add((a, b))
        return Graph(len(verts), tuple(sorted(edges)))

    def drop_vertex(self, v: int) -> None:
        for u in self.adj.pop(v):
            self.adj[u].discard(v)

    def add_edge(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)


def _reduction_candidates(peeler: _Peeler, v: int) -> list[tuple[int, int, int]]:
    """(x, y, w) triples: candidate replacement edge (x, y) plus the remaining neighbor w."""
    nbrs = sorted(peeler.adj[v])
    out = []
    for x, y in combinations(nbrs, 2):
        if y in peeler.adj[x]:
            continue
        (w,) = [z for z in nbrs if z not in (x, y)]
        out.append((x, y, w))
    return out


def extract_henneberg(G: Graph) -> tuple[list[HennebergStep], list[int]]:
    """Peel G down to K2, returning forward steps plus the replay relabeling.

    ``relabel[i]`` is the original vertex that replay vertex i stands for, so
    ``apply_henneberg(steps).relabeled(relabel) == G``.

    Strategy per peel: remove the lowest-indexed degree-2 vertex if one exists,
    otherwise try the lowest-indexed degree-3 vertex's candidate replacement
    edges in lexicographic order, keeping the first that leaves a Laman graph.
    """
    if not is_laman(G):
        raise DomainError("extract_henneberg requires a Laman graph")
    peeler = _Peeler(G)
    peeled: list[tuple[str, int, tuple[int, ...]]] = []
    while len(peeler.adj) > 2:
        deg2 = sorted(v for v, nbrs in peeler.adj.items() if len(nbrs) == 2)
        if deg2:
            v = deg2[0]
            x, y = sorted(peeler.adj[v])
            peeler.drop_vertex(v)
            peeled.append(("ext0", v, (x, y)))
            continue
        done = False
        for v in sorted(x for x, nbrs in peeler.adj.items() if len(nbrs) == 3):
            for x, y, w in _reduction_candidates(peeler, v):
                if is_laman(peeler.compact(drop=v, add=(x, y))):
                    peeler.drop_vertex(v)
                    peeler.add_edge(x, y)
                    peeled.append(("ext1", v, (x, y, w)))
                    done = True
                    break
            if done:
                break
        if not done:
            raise ConstructionError("no admissible reverse extension in a Laman graph; "
                                    "this contradicts the construction theorem")
    base = sorted(peeler.adj)
    if peeler.edge_count != 1:
        raise ConstructionError("peeling a Laman graph did not end at K2")
    relabel = base + [rec[1] for rec in reversed(peeled)]
    pos = {orig: i for i, orig in enumerate(relabel)}
    steps: list[HennebergStep] = []
    for kind, _, data in reversed(peeled):
        if kind == "ext0":
            x, y = data
            steps.append(Ext0(pos[x], pos[y]))
        else:
            x, y, w = data
            steps.append(Ext1(pos[x], pos[y], pos[w]))
    if apply_henneberg(steps).relabeled(relabel) != G:
        raise ConstructionError("replayed extension sequence does not reproduce the input graph")
    return steps, relabel


def extract_jj(G: Graph) -> tuple[list[JJStep], list[int]]:
    """Peel a Hendrickson graph down to K4; same contract as extract_henneberg.

    Each reverse step is found exhaustively: first every single-edge deletion
    that keeps the graph Hendrickson (lexicographic edge order), then every
    degree-3 vertex 1-reduction (lexicographic vertex, then candidate edge).
    """
    if not is_hendrickson(G):
        raise DomainError("extract_jj requires a Hendrickson graph")
    peeler = _Peeler(G)
    peeled: list[tuple[str, int, tuple[int, ...]]] = []
    while not (len(peeler.adj) == 4 and peeler.edge_count == 6):
        moved = False
        for u, v in peeler.edges():
            candidate = peeler.compact(remove=(u, v))
            if candidate.n >= 4 and is_hendrickson(candidate):
                peeler.remove_edge(u, v)
                peeled.append(("edge", -1, (u, v)))
                moved = True
                break
        if moved:
            continue
        for v in sorted(x for x, nbrs in peeler.adj.items() if len(nbrs) == 3):
            for x, y, w in _reduction_candidates(peeler, v):
                candidate = peeler.compact(drop=v, add=(x, y))
                if candidate.n >= 4 and is_hendrickson(candidate):
                    peeler.drop_vertex(v)
                    peeler.add_edge(x, y)
                    peeled.append(("ext1", v, (x, y, w)))
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise ConstructionError("no admissible reverse move in a Hendrickson graph; "
                                    "this contradicts the construction theorem")
    base = sorted(peeler.adj)
    relabel = base + [rec[1] for rec in reversed(peeled) if rec[0] == "ext1"]
    pos = {orig: i for i, orig in enumerate(relabel)}
    steps: list[JJStep] = []
    for kind, _, data in reversed(peeled):
        if kind == "edge":
            u, v = data
            steps.append(EdgeAdd(pos[u], pos[v]))
        else:
            x, y, w = data
            steps.append(Ext1(pos[x], pos[y], pos[w]))
    if apply_jj(steps).relabeled(relabel) != G:
        raise ConstructionError("replayed construction sequence does not reproduce the input graph")
    return steps, relabel
