"""Construction sequences: forward replay and reverse extraction.

Two move languages are supported:

* Laman graphs are grown from K2 by 0-extensions (new degree-2 vertex) and
  1-extensions (subdivide an edge uv with a new vertex z and attach z to a third
  vertex w).
* Hendrickson graphs are grown from K4 by edge additions and 1-extensions.

One replay loop serves both languages, each move a check and a ``Graph`` edit.
One extraction loop peels both on ``Graph`` itself: each reverse move is a
``Graph`` edit (``without_vertex`` then ``with_edge`` for a 1-reduction,
``without_vertex`` for a 0-reduction, ``without_edge`` for an edge deletion),
and a list of labels maps the shrinking graph's vertices back to the input's.
Each language yields its admissible reverse moves in a fixed order and the loop
takes the first; the structure theorems guarantee one at every step, so an
empty search is raised loudly as a broken invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

from .errors import ConstructionError, DomainError, StepError, load_json
from .graphs import Graph, _is_integer
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


_STEP_FIELDS = {"ext0": (Ext0, ("u", "v")), "ext1": (Ext1, ("u", "v", "w")),
                "edge": (EdgeAdd, ("u", "v"))}
_STEP_KINDS = {cls: (kind, fields) for kind, (cls, fields) in _STEP_FIELDS.items()}


def steps_to_json(steps: Iterable[Union[HennebergStep, JJStep]]) -> str:
    items = []
    for s in steps:
        if type(s) not in _STEP_KINDS:
            raise StepError(f"unknown step object {s!r}")
        kind, fields = _STEP_KINDS[type(s)]
        items.append({"kind": kind, **{key: getattr(s, key) for key in fields}})
    return json.dumps(items, separators=(",", ":"))


def _vertex_field(item: dict, key: str, k: int) -> int:
    """The one validator of a step's vertex fields: a JSON integer (bools do not count)."""
    if key not in item:
        raise StepError(f"step {k}: missing field '{key}'")
    value = item[key]
    if not _is_integer(value):
        raise StepError(f"step {k}: field '{key}' must be an integer, got {value!r}")
    return value


def steps_from_json(text: str) -> list[Union[HennebergStep, JJStep]]:
    """Parse [{"kind": "ext0" | "ext1" | "edge", "u": ..., ...}, ...]: the text is
    decoded by errors.load_json, and any fault raises StepError."""
    items = load_json(text, "steps", StepError)
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


_K2 = Graph(2, ((0, 1),))
_K4 = Graph(4, tuple(combinations(range(4), 2)))


def _apply_ext0(G: Graph, step: Ext0, pos: int) -> Graph:
    z = G.n
    if not (0 <= step.u < z and 0 <= step.v < z) or step.u == step.v:
        raise StepError(f"step {pos}: 0-extension attach pair ({step.u}, {step.v}) invalid for n={z}")
    return Graph._derived(z + 1, G.edges).with_edge(step.u, z).with_edge(step.v, z)


def _apply_ext1(G: Graph, step: Ext1, pos: int) -> Graph:
    z = G.n
    if not (0 <= step.u < z and 0 <= step.v < z and 0 <= step.w < z):
        raise StepError(f"step {pos}: 1-extension references a missing vertex (n={z})")
    if step.w in (step.u, step.v) or step.u == step.v:
        raise StepError(f"step {pos}: 1-extension vertices ({step.u}, {step.v}, {step.w}) not distinct")
    if not G.has_edge(step.u, step.v):
        raise StepError(f"step {pos}: 1-extension subdivides missing edge ({step.u}, {step.v})")
    H = Graph._derived(z + 1, G.without_edge(step.u, step.v).edges)
    return H.with_edge(step.u, z).with_edge(step.v, z).with_edge(step.w, z)


def _apply_edge(G: Graph, step: EdgeAdd, pos: int) -> Graph:
    if not (0 <= step.u < G.n and 0 <= step.v < G.n) or step.u == step.v:
        raise StepError(f"step {pos}: edge addition ({step.u}, {step.v}) invalid for n={G.n}")
    if G.has_edge(step.u, step.v):
        raise StepError(f"step {pos}: edge ({step.u}, {step.v}) already present")
    return G.with_edge(step.u, step.v)


def _replay(base: Graph, steps: Sequence, moves: dict, what: str) -> Graph:
    """Apply each step with the move ``moves`` gives its type, starting from base."""
    G = base
    for pos, step in enumerate(steps):
        if type(step) not in moves:
            raise StepError(f"step {pos}: {step!r} is not {what}")
        G = moves[type(step)](G, step, pos)
    return G


def apply_henneberg(steps: Sequence[HennebergStep]) -> Graph:
    """Replay 0-/1-extensions starting from K2."""
    return _replay(_K2, steps, {Ext0: _apply_ext0, Ext1: _apply_ext1}, "a Henneberg move")


def apply_jj(steps: Sequence[JJStep]) -> Graph:
    """Replay edge additions and 1-extensions starting from K4."""
    return _replay(_K4, steps, {EdgeAdd: _apply_edge, Ext1: _apply_ext1},
                   "an edge addition or 1-extension")


# ---------------------------------------------------------------------------
# extraction
#
# A reverse move is (smaller graph, the vertex it removed or None, the forward
# step's class, the forward step's vertices), all on the current graph's labels.


def _one_reductions(G: Graph, accept: Callable[[Graph], bool]) -> Iterator[tuple]:
    """The reverse 1-extensions that ``accept`` keeps: degree-3 vertices v in
    order, then their non-adjacent neighbour pairs (x, y) in lexicographic order,
    each replacing v by the edge xy, with w the neighbour left over."""
    for v in range(G.n):
        if G.degree(v) != 3:
            continue
        nbrs = sorted(G.neighbors(v))
        rest, _ = G.without_vertex(v)
        for x, y in combinations(nbrs, 2):
            if G.has_edge(x, y):
                continue
            candidate = rest.with_edge(x - (x > v), y - (y > v))
            if accept(candidate):
                (w,) = [z for z in nbrs if z not in (x, y)]
                yield candidate, v, Ext1, (x, y, w)


def _henneberg_moves(G: Graph) -> Iterator[tuple]:
    """The lowest degree-2 vertex if there is one, else the 1-reductions to Laman graphs."""
    for v in range(G.n):
        if G.degree(v) == 2:
            yield G.without_vertex(v)[0], v, Ext0, tuple(sorted(G.neighbors(v)))
            return
    yield from _one_reductions(G, is_laman)


def _jj_moves(G: Graph) -> Iterator[tuple]:
    """The edge deletions, then the 1-reductions, that leave a Hendrickson graph."""
    for u, v in G.edges:
        candidate = G.without_edge(u, v)
        if is_hendrickson(candidate):
            yield candidate, None, EdgeAdd, (u, v)
    yield from _one_reductions(G, is_hendrickson)


def _extract(G: Graph, base: Graph, moves: Callable[[Graph], Iterator[tuple]],
             apply: Callable[[Sequence], Graph], what: str) -> tuple[list, list[int]]:
    """Peel G down to base one reverse move at a time, taking the first that
    ``moves`` yields; return the forward steps and the replay relabeling."""
    current, labels = G, list(range(G.n))
    peeled: list[tuple[type, list[int]]] = []  # forward step class, its input labels
    removed: list[int] = []  # input label of each removed vertex, in peel order
    while current.n > base.n:
        move = next(moves(current), None)
        if move is None:
            raise ConstructionError(f"no admissible reverse move in a {what} graph; "
                                    "this contradicts the construction theorem")
        current, v, cls, args = move
        peeled.append((cls, [labels[a] for a in args]))
        if v is not None:
            removed.append(labels.pop(v))
    relabel = labels + removed[::-1]
    pos = {orig: i for i, orig in enumerate(relabel)}
    steps = [cls(*(pos[a] for a in args)) for cls, args in reversed(peeled)]
    if apply(steps).relabeled(relabel) != G:
        raise ConstructionError("replayed construction sequence does not reproduce the input graph")
    return steps, relabel


def extract_henneberg(G: Graph) -> tuple[list[HennebergStep], list[int]]:
    """Peel G down to K2, returning forward steps plus the replay relabeling.

    ``relabel[i]`` is the original vertex that replay vertex i stands for, so
    ``apply_henneberg(steps).relabeled(relabel) == G``.

    Strategy per peel: remove the lowest-indexed degree-2 vertex if one exists,
    otherwise try the degree-3 vertices' candidate replacement edges in vertex,
    then lexicographic order, keeping the first that leaves a Laman graph.
    """
    if not is_laman(G):
        raise DomainError("extract_henneberg requires a Laman graph")
    return _peel_laman(G)


def _peel_laman(G: Graph) -> tuple[list[HennebergStep], list[int]]:
    """extract_henneberg of a graph its caller has tested Laman, with no second test:
    the exact sampler's one pebble game on its input."""
    return _extract(G, _K2, _henneberg_moves, apply_henneberg, "Laman")


def extract_jj(G: Graph) -> tuple[list[JJStep], list[int]]:
    """Peel a Hendrickson graph down to K4; same contract as extract_henneberg.

    Each reverse step is found exhaustively: first every single-edge deletion
    that keeps the graph Hendrickson (lexicographic edge order), then every
    degree-3 vertex 1-reduction (lexicographic vertex, then candidate edge).
    """
    if not is_hendrickson(G):
        raise DomainError("extract_jj requires a Hendrickson graph")
    return _extract(G, _K4, _jj_moves, apply_jj, "Hendrickson")
