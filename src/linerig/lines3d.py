"""Non-horizontal lines in 3-space in the (a, b, c, d) chart, and their incidence geometry.

A chart point (a, b, c, d) stands for the line t -> (a + t*c, b + t*d, t); every
non-horizontal line has exactly one such representation. Two lines intersect, are
parallel, or coincide exactly when the incidence residual

    g = (a1 - a2)(d1 - d2) - (b1 - b2)(c1 - c2)

vanishes. All predicates use the relative tolerance tol * (1 + max |coordinate|),
scaled further by solution magnitudes where products with solved unknowns appear;
coordinates may be ints, Fractions, or floats, and the algebra stays exact for the
exact types.

An incidence residual g is always measured against the scale of its own pair of
lines, 1 + the largest |coordinate| of the two (pair_scale, and edge_scales over
arrays of edges): lines_meet, line_system_dimension and the sampler's Gauss-Newton
projection share this one normalization, so a pair of lines near the origin is held
to the same relative standard as a pair far from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .graphs import Graph

Scalar = Union[int, float, Fraction]
Point3 = tuple[Scalar, Scalar, Scalar]


@dataclass(frozen=True)
class Line:
    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def point_at(self, t: Scalar) -> Point3:
        return (self.a + t * self.c, self.b + t * self.d, t)

    def direction(self) -> Point3:
        return (self.c, self.d, 1)

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    def as_floats(self) -> "Line":
        return Line(float(self.a), float(self.b), float(self.c), float(self.d))


@dataclass(frozen=True)
class LineConfig:
    lines: tuple[Line, ...]

    def __post_init__(self) -> None:
        if len(self.lines) < 1:
            raise DomainError("a line configuration needs at least one line")

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int) -> Line:
        return self.lines[i]

    @property
    def n(self) -> int:
        return len(self.lines)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in ln.as_tuple()] for ln in self.lines], dtype=float)

    def coords(self) -> list[list[Scalar]]:
        return [list(ln.as_tuple()) for ln in self.lines]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "LineConfig":
        return cls(tuple(Line(*row) for row in rows))

    def to_json(self) -> str:
        return json.dumps({"lines": [[float(x) for x in ln.as_tuple()] for ln in self.lines]},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LineConfig":
        """Parse {"lines": [[a, b, c, d], ...]}; any other shape, a non-numeric
        coordinate or a non-finite one raises DomainError."""
        data = json.loads(text)
        rows = data.get("lines") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 4 for r in rows):
            raise DomainError("line-config JSON must be an object holding 4-tuples under 'lines'")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for r in rows for x in r):
            raise DomainError("line-config coordinates must be numbers")
        try:
            floats = [[float(x) for x in r] for r in rows]
        except OverflowError as exc:
            raise DomainError(f"line-config coordinate out of float range: {exc}") from exc
        if not all(math.isfinite(x) for r in floats for x in r):
            raise DomainError("line-config coordinates must be finite")
        return cls.from_rows(floats)


@dataclass(frozen=True)
class Plane:
    """The non-vertical plane z = lam*x + mu*y + nu."""

    lam: float
    mu: float
    nu: float

    def height(self, x: Scalar, y: Scalar) -> float:
        return self.lam * float(x) + self.mu * float(y) + self.nu


@dataclass(frozen=True)
class Concurrency:
    """A common point, or the all-parallel family (a point at infinity)."""

    point: Optional[Point3]
    parallel: bool = False


@dataclass(frozen=True)
class TripleClass:
    tag: str  # concurrent_and_coplanar | concurrent_only | coplanar_only | two_concurrent_mixed | pairwise_skew
    family_dim: int  # dimension of the family of lines meeting all three (2 or 1)
    point: Optional[Point3] = None
    plane: Optional[Plane] = None


def meet_residual(l1: Line, l2: Line) -> Scalar:
    """Zero iff the two lines intersect, are parallel, or coincide."""
    return (l1.a - l2.a) * (l1.d - l2.d) - (l1.b - l2.b) * (l1.c - l2.c)


def _max_coord(*lines: Line) -> float:
    return max(abs(float(x)) for ln in lines for x in ln.as_tuple())


def pair_scale(l1: Line, l2: Line) -> float:
    """Scale of the incidence residual of two lines: 1 + max |coordinate| of both."""
    return 1.0 + _max_coord(l1, l2)


def edge_scales(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """pair_scale of the lines X[i[k]] and X[j[k]] for every k, on an (n, 4) float
    array of chart coordinates."""
    big = np.abs(X).max(axis=1)
    return 1.0 + np.maximum(big[i], big[j])


def lines_meet(l1: Line, l2: Line, tol: float = 1e-8) -> bool:
    return abs(float(meet_residual(l1, l2))) <= tol * pair_scale(l1, l2)


def lines_coincident(l1: Line, l2: Line, tol: float = 1e-8) -> bool:
    s = tol * pair_scale(l1, l2)
    return all(abs(float(x) - float(y)) <= s for x, y in zip(l1.as_tuple(), l2.as_tuple()))


def intersection_graph(L: LineConfig, tol: float = 1e-8) -> Graph:
    """Graph on line indices with an edge for every meeting (or parallel) pair."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    edges = [(i, j) for i, j in combinations(range(L.n), 2) if lines_meet(L[i], L[j], tol)]
    return Graph(L.n, tuple(edges))


def common_point(L: LineConfig, tol: float = 1e-8) -> Optional[Concurrency]:
    """Least-squares common point of all lines, or the all-parallel flag, or None.

    A line passes through (x, y, z) iff a = x - c*z and b = y - d*z, which is
    linear in (x, y, z).
    """
    if L.n < 2:
        raise DomainError("common_point needs at least 2 lines")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    arr = L.as_array()
    cmax = float(np.max(np.abs(arr))) if arr.size else 0.0
    dirs = arr[:, 2:4]
    spread = float(np.max(dirs.max(axis=0) - dirs.min(axis=0)))
    if spread <= tol * (1.0 + cmax):
        return Concurrency(point=None, parallel=True)
    n = L.n
    A = np.zeros((2 * n, 3))
    rhs = np.empty(2 * n)
    A[0::2, 0] = 1.0
    A[0::2, 2] = -arr[:, 2]
    A[1::2, 1] = 1.0
    A[1::2, 2] = -arr[:, 3]
    rhs[0::2] = arr[:, 0]
    rhs[1::2] = arr[:, 1]
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = A @ sol - rhs
    scale = (1.0 + cmax) * (1.0 + abs(float(sol[2])))
    if float(np.max(np.abs(resid))) <= tol * scale:
        return Concurrency(point=(float(sol[0]), float(sol[1]), float(sol[2])))
    return None


def common_plane(L: LineConfig, tol: float = 1e-8) -> Optional[Plane]:
    """Least-squares common non-vertical plane z = lam*x + mu*y + nu, or None.

    A chart line lies in that plane iff 1 = lam*c + mu*d and -nu = lam*a + mu*b.
    Vertical planes are outside the chart and report as None.
    """
    if L.n < 2:
        raise DomainError("common_plane needs at least 2 lines")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    arr = L.as_array()
    cmax = float(np.max(np.abs(arr)))
    n = L.n
    A = np.zeros((2 * n, 3))
    rhs = np.zeros(2 * n)
    A[0::2, 0] = arr[:, 2]
    A[0::2, 1] = arr[:, 3]
    rhs[0::2] = 1.0
    A[1::2, 0] = arr[:, 0]
    A[1::2, 1] = arr[:, 1]
    A[1::2, 2] = 1.0
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = A @ sol - rhs
    scale = (1.0 + cmax) * (1.0 + float(np.max(np.abs(sol))))
    if float(np.max(np.abs(resid))) <= tol * scale:
        return Plane(float(sol[0]), float(sol[1]), float(sol[2]))
    return None


def pair_intersection(l1: Line, l2: Line, tol: float = 1e-8) -> Optional[Point3]:
    """The single intersection point of two meeting, non-parallel chart lines."""
    dc = l1.c - l2.c
    dd = l1.d - l2.d
    scale = pair_scale(l1, l2)
    if max(abs(float(dc)), abs(float(dd))) <= tol * scale:
        return None  # parallel or coincident
    if not lines_meet(l1, l2, tol):
        return None
    if abs(float(dc)) >= abs(float(dd)):
        z = -(l1.a - l2.a) / dc
    else:
        z = -(l1.b - l2.b) / dd
    return l1.point_at(z)


def _triple_coplanar(l1: Line, l2: Line, l3: Line, tol: float = 1e-8) -> bool:
    """Chart-free coplanarity: directions and base-point offsets span at most a plane."""
    p1, p2, p3 = (np.array([float(l.a), float(l.b), 0.0]) for l in (l1, l2, l3))
    rows = np.array([
        [float(l1.c), float(l1.d), 1.0],
        [float(l2.c), float(l2.d), 1.0],
        [float(l3.c), float(l3.d), 1.0],
        p2 - p1,
        p3 - p1,
    ])
    s = np.linalg.svd(rows, compute_uv=False)
    return s[2] <= tol * max(s[0], 1.0)


def classify_triple(l1: Line, l2: Line, l3: Line, tol: float = 1e-8) -> TripleClass:
    """Lemma-style case analysis of three distinct lines.

    Tags concurrent/coplanar combinations (transversal family dimension 2) and the
    mixed or pairwise-skew cases (dimension 1). The coplanarity test is chart-free,
    so triples in a vertical plane classify correctly even though no Plane witness
    exists for them.
    """
    trio = (l1, l2, l3)
    for x, y in combinations(range(3), 2):
        if lines_coincident(trio[x], trio[y], tol):
            raise DomainError(f"lines {x} and {y} coincide")
    meets = [lines_meet(trio[x], trio[y], tol) for x, y in combinations(range(3), 2)]
    hits = sum(meets)
    if hits == 3:
        cfg = LineConfig(trio)
        conc = common_point(cfg, tol)
        coplanar = _triple_coplanar(l1, l2, l3, tol)
        point = conc.point if conc is not None else None
        plane = common_plane(cfg, tol) if coplanar else None
        if conc is not None and coplanar:
            return TripleClass("concurrent_and_coplanar", 2, point, plane)
        if conc is not None:
            return TripleClass("concurrent_only", 2, point, None)
        return TripleClass("coplanar_only", 2, None, plane)
    if hits >= 1:
        pairs = list(combinations(range(3), 2))
        first = pairs[meets.index(True)]
        point = pair_intersection(trio[first[0]], trio[first[1]], tol)
        return TripleClass("two_concurrent_mixed", 1, point, None)
    return TripleClass("pairwise_skew", 1, None, None)


def _cross(u: Point3, v: Point3) -> Point3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _sub(u: Point3, v: Point3) -> Point3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _vec_scale(u: Point3) -> float:
    return max(abs(float(x)) for x in u)


def transversal_detail(l1: Line, l2: Line, l3: Line, s: Scalar,
                       tol: float = 1e-8) -> tuple[Optional[Line], str]:
    """Line through q = l3(s) meeting l1 and l2, with a degeneracy reason code.

    The result is the intersection of the plane spanned by (q, l1) with the plane
    spanned by (q, l2). Codes: "ok", "q-on-line", "planes-coincide", "horizontal",
    "residual".
    """
    q = l3.point_at(s)
    base_scale = 1.0 + max(_max_coord(l1, l2, l3), _vec_scale(q))
    normals = []
    for ln in (l1, l2):
        p = (ln.a, ln.b, 0)
        nvec = _cross(_sub(p, q), ln.direction())
        if _vec_scale(nvec) <= tol * base_scale ** 2:
            return None, "q-on-line"
        normals.append(nvec)
    w = _cross(normals[0], normals[1])
    wscale = max(_vec_scale(normals[0]), _vec_scale(normals[1]))
    if _vec_scale(w) <= tol * wscale ** 2:
        return None, "planes-coincide"
    if abs(float(w[2])) <= tol * _vec_scale(w):
        return None, "horizontal"
    c = w[0] / w[2]
    d = w[1] / w[2]
    line = Line(q[0] - q[2] * c, q[1] - q[2] * d, c, d)
    exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                for v in line.as_tuple())
    for other in (l1, l2, l3):
        if exact:
            if meet_residual(line, other) != 0:
                return None, "residual"
        elif not lines_meet(line.as_floats(), other.as_floats(), max(tol, 1e-9)):
            return None, "residual"
    return line, "ok"


def transversal(l1: Line, l2: Line, l3: Line, s: Scalar, tol: float = 1e-8) -> Optional[Line]:
    line, _ = transversal_detail(l1, l2, l3, s, tol)
    return line


def line_through(p: Point3, q: Point3) -> Optional[Line]:
    """Chart representation of the join of two points; None when horizontal."""
    if all(float(x) == float(y) for x, y in zip(p, q)):
        raise DomainError("line_through needs two distinct points")
    dz = q[2] - p[2]
    if float(dz) == 0.0:
        return None
    c = (q[0] - p[0]) / dz
    d = (q[1] - p[1]) / dz
    return Line(p[0] - c * p[2], p[1] - d * p[2], c, d)
