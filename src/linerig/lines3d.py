"""Non-horizontal lines in 3-space in the (a, b, c, d) chart, and their incidence geometry.

A chart point (a, b, c, d) stands for the line t -> (a + t*c, b + t*d, t); every
non-horizontal line has exactly one such representation. Two lines intersect, are
parallel, or coincide exactly when the incidence residual of their difference D,

    g = incidence(D) = D0*D3 - D1*D2,

vanishes. incidence, the one copy of that formula, takes D coordinates first (a
4-tuple or a (4, ...) array); meet_residual, incidence_form and the suites read it.
Coordinates may be ints, Fractions, or floats; the algebra stays exact for the
exact types, whose quotients are Fractions.

Both edge systems (lines, and pairs of embeddings) hold float residuals to one
scale-free rule, residual_measure: an edge between 4-rows X_i and X_j (line charts,
or points (p, p') side by side), with d = max |X_i - X_j| and big = max |X_i, X_j|,
passes at tol when |g| <= tol * d**2 + 16 eps * big * d. Both terms are quadratic,
as g is, so scaling moves no verdict; a translation by T moves only the rounding
term, which passes skew pairs with |g| / d**2 below about 16 eps T / d. pair_tests
masks pairs of lines that meet (by the rule), are parallel (D2, D3) or coincide (all
of D), the last two within tol * big. A chart scaled by lam, the map (x, y, z) ->
(lam x, lam y, z), keeps every incidence: the other float predicates work in the
chart unit of _scaled and hold each residual to tol times the sizes of its own
factors. Exact lines are decided exactly (== 0): each predicate branches on is_exact,
and intersection_graph takes its candidate pairs mod a prime (modp), then confirms each.

Common points and planes come from one array kernel, point_kernel and
plane_kernel, with boolean masks of where one was found: the batch API. It works
batch-last, on one contiguous (4, n, batch) array (batch_last), so that each sum
or max over the lines of a configuration adds whole rows of the batch instead of
reducing a short trailing axis, which numpy does many times slower. common_point
and common_plane call it on a single LineConfig.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, load_json
from .graphs import Graph
from .modp import prime_residues

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
        return np.array([ln.as_tuple() for ln in self.lines], dtype=float)

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
        """Parse {"lines": [[a, b, c, d], ...]}: the text is decoded by
        errors.load_json, and bad JSON, any other shape, a non-numeric coordinate
        or a non-finite one raises DomainError (number_rows)."""
        data = load_json(text, "line configuration", DomainError)
        return cls.from_rows(number_rows(data.get("lines") if isinstance(data, dict) else None,
                                         4, "line-config 'lines'"))


def number_rows(rows: object, width: int, what: str) -> list[list[float]]:
    """The one validator of coordinate rows read from JSON: rows must be a list of
    `width`-lists of numbers (bools do not count) that are finite as floats.
    Returns them as floats; anything else raises DomainError naming `what`."""
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == width for r in rows):
        raise DomainError(f"{what} must be a list of rows of {width} numbers")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for r in rows for x in r):
        raise DomainError(f"{what} coordinates must be numbers")
    try:
        floats = [[float(x) for x in r] for r in rows]
    except OverflowError as exc:
        raise DomainError(f"{what} coordinate out of float range: {exc}") from exc
    if not all(math.isfinite(x) for r in floats for x in r):
        raise DomainError(f"{what} coordinates must be finite")
    return floats


def check_squares(X: np.ndarray, terms: int, what: Optional[str] = None) -> float:
    """max |X| of the float coordinates X. Raises DomainError, before numpy overflows,
    when a sum of `terms` products of their differences (each <= 2 max |X|) could.
    The message names `what` overflows: by default squared distances of points (rows
    of width 2), or incidences of chart lines."""
    big = float(np.abs(X).max(initial=0.0))
    if big > math.sqrt(np.finfo(float).max / terms) / 2:
        what = what or ("squared distances" if X.shape[-1] == 2 else "line incidences")
        raise DomainError(f"coordinate {big:.3g} is too large: {what} overflow the float range")
    return big


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


def is_exact(v: object) -> bool:
    """True for the exact coordinate types, int and Fraction; bool does not count."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


_FLIP = np.array([1, -1, -1, 1])  # int signs: exact on floats, Python ints on object arrays


def incidence(D):
    """The incidence residual D[0]*D[3] - D[1]*D[2] of chart differences D,
    coordinates first: a 4-sequence, or a (4, ...) array of them."""
    return D[0] * D[3] - D[1] * D[2]


def incidence_form(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """incidence of each chart-difference row of an (m, 4) array D, and its
    gradient (D3, -D2, -D1, D0): the form of the incidence system."""
    return incidence(D.T), D[:, ::-1] * _FLIP


def meet_residual(l1: Line, l2: Line) -> Scalar:
    """Zero iff the two lines intersect, are parallel, or coincide."""
    return incidence((l1.a - l2.a, l1.b - l2.b, l1.c - l2.c, l1.d - l2.d))


# the least positive float: np.maximum(s, _TINY) is s wherever s > 0, and turns
# an exact 0 into a divisor that leaves the 0 it divides as 0
_TINY = np.finfo(float).smallest_subnormal
_ROUNDING = 16 * np.finfo(float).eps  # the residual rule's rounding allowance


def residual_measure(g, d, big):
    """(|g| - 16 eps * big * d) / d**2 of residuals g: an edge passes the residual
    rule at tol when this is <= tol (0 where d = 0, and so g = 0)."""
    return (np.abs(g) - _ROUNDING * big * d) / np.maximum(d * d, _TINY)


def _edge_norms(X: np.ndarray, i, j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D = X[i] - X[j] coordinates first, max |D| and max |X[i], X[j]|, of (n, 4) rows."""
    T = np.ascontiguousarray(X.T)
    D = T.take(i, axis=1) - T.take(j, axis=1)
    big = np.abs(T).max(axis=0)
    return D, np.abs(D).max(axis=0), np.maximum(big.take(i), big.take(j))


def edge_residuals(g, X: np.ndarray, i, j) -> np.ndarray:
    """residual_measure of residuals g of the edges (X[i], X[j]) of an (n, 4) float array."""
    return residual_measure(g, *_edge_norms(X, i, j)[1:])


# masks over pairs of lines: they meet (intersect, are parallel or coincide), their
# directions agree, all their coordinates agree
PairTests = NamedTuple("PairTests", [("meet", np.ndarray), ("parallel", np.ndarray),
                                     ("coincide", np.ndarray)])


def pair_tests(X, i, j, tol: float = 1e-8) -> PairTests:
    """The line-pair predicates of the lines X[i[k]] and X[j[k]] of an (n, 4) chart
    array, taken as floats: the residual rule on the incidence, and the larger
    |direction difference| and the largest |coordinate difference| within tol * big.
    Coordinates whose incidence could overflow raise DomainError (check_squares)."""
    X = np.asarray(X, dtype=float)
    check_squares(X, 2)  # the incidence sums two products of differences
    D, d, big = _edge_norms(X, i, j)
    s = tol * big
    return PairTests(residual_measure(incidence(D), d, big) <= tol,
                     np.maximum(np.abs(D[2]), np.abs(D[3])) <= s, d <= s)


def intersection_graph(L: LineConfig, tol: float = 1e-8) -> Graph:
    """Graph on line indices with an edge for every meeting (or parallel) pair: by
    pair_tests at tol on float lines, exactly on exact ones (_exact_meets)."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    i, j = np.triu_indices(L.n, 1)
    meet = _exact_meets(L, i, j) if _exact_lines(*L) else pair_tests(L.as_array(), i, j, tol).meet
    return Graph(L.n, tuple(zip(i[meet].tolist(), j[meet].tolist())))


def _exact_meets(L: LineConfig, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """meet_residual(L[i[k]], L[j[k]]) == 0 of exact lines. Each pair's incidence is
    taken mod the first prime p of prime_residues' intersection_graph stream, which
    divides no denominator: an exact 0 is 0 mod p, so the pairs at 0 mod p hold every
    meeting pair, and each one is confirmed exactly."""
    flat = [x for ln in L for x in ln.as_tuple()]
    p, R = next(prime_residues(flat, random.Random("intersection_graph")))
    X = R.reshape(L.n, 4)
    meet = incidence(((X.take(i, axis=0) - X.take(j, axis=0)) % p).T) % p == 0
    for k in meet.nonzero()[0].tolist():
        meet[k] = meet_residual(L[i[k]], L[j[k]]) == 0
    return meet


def batch_last(X: np.ndarray) -> np.ndarray:
    """The (4, n, batch) view of a (..., n, 4) chart array, its leading axes
    flattened into the batch: coordinate k of line i of configuration j is
    V[k, i, j]."""
    X = np.asarray(X, dtype=float)
    return X.reshape(-1, *X.shape[-2:]).transpose(2, 1, 0)


def _scaled(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, cmax, unit) of a (4, n, batch) chart array: cmax is each configuration's
    max |coordinate|, unit the power of two 2**-e with cmax = f * 2**e and
    0.5 <= f < 1, and T the contiguous (4, n, batch) copy of V times unit. Scaled,
    every coordinate lies within 1, so the float predicates' squares neither
    overflow nor underflow; the product is exact, and they divide it back out of
    what they return."""
    cmax = np.abs(V).max(axis=(0, 1))
    unit = np.ldexp(1.0, -np.frexp(cmax)[1])
    return np.multiply(V, unit, order="C"), cmax, unit


def _line_sum(A: np.ndarray) -> np.ndarray:
    """A summed over axis -2, its lines, one line after another. In a batch numpy
    adds whole rows of the batch in line order; a batch of one has its lines
    contiguous, where numpy's sum goes pairwise from 8 terms on, so that case
    takes the last partial sum of the running sum instead: a configuration gets
    the same bits alone as in any batch."""
    if A.shape[-1] != 1:
        return A.sum(axis=-2)
    return np.add.accumulate(A, axis=-2)[..., -1, :]


def point_kernel(V: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares common point of every configuration in a (4, n, batch) chart
    array (see batch_last): a line passes through (x, y, z) iff a = x - c*z and
    b = y - d*z. For a fixed z the best (x, y) are the means of a + c*z and
    b + d*z, which leaves z in closed form over the centered coordinates.

    Returns (points, found, parallel): the (3, batch) points and two (batch,)
    masks. `parallel` marks directions (c, d) that all agree within
    tol * max |coord|, a common point at infinity; `found` marks the other
    configurations whose worst residual, a - x + c*z or b - y + d*z, is within
    tol * max |coord| * (1 + |z|).
    """
    T, cmax, unit = _scaled(V)
    _, n, batch = T.shape
    mean = _line_sum(T) / n
    C = T - mean[:, None]
    D = C[2:]
    scale = tol * cmax * unit
    parallel = (T[2:].max(axis=1) - T[2:].min(axis=1)).max(axis=0) <= scale
    # the centered directions D are all 0 only where every direction agrees, and
    # the numerator with them; 0.0 - q rather than -q, so that a zero z is +0.0
    # (nu below likewise)
    z = 0.0 - (_line_sum((C[:2] * D).reshape(2 * n, batch))
               / np.maximum(_line_sum((D * D).reshape(2 * n, batch)), _TINY))
    # line i misses (x, y, z) = mean[:2] + mean[2:] * z by C[:2, i] + D[:, i] * z
    miss = D * z
    miss += C[:2]
    resid = np.abs(miss, out=miss).max(axis=(0, 1))
    found = ~parallel & (resid <= scale * (1 + np.abs(z)))
    return np.concatenate([(mean[:2] + mean[2:] * z) / unit, z[None]]), found, parallel


def _plane_system(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2n x 3 system lam*c + mu*d = 1, lam*a + mu*b + nu = 0 of one (n, 4) array."""
    A = np.zeros((len(X), 2, 3))
    A[:, 0, :2], A[:, 1, :2], A[:, 1, 2] = X[:, 2:], X[:, :2], 1.0
    return A.reshape(-1, 3), np.tile([1.0, 0.0], len(X))


def _plane_solution(T: np.ndarray, cmax: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """The (3, batch) least-squares (lam, mu, nu) of the scaled lines T = V * unit
    (see _scaled): lam and mu are those of V divided by unit, nu is the same."""
    _, n, batch = T.shape
    mean = _line_sum(T[:2]) / n
    # the columns u = (c, a - mean a) and w = (d, b - mean b) of the system in
    # (lam, mu)
    u, w = np.concatenate([T[2:], T[:2] - mean[:, None]], axis=1)
    r11 = np.sqrt(_line_sum(u * u))
    q1 = u / np.maximum(r11, _TINY)
    r12 = _line_sum(q1 * w)
    w -= r12 * q1
    r22 = np.sqrt(_line_sum(w * w))
    ok = np.minimum(r11, r22) > 1e-10 * cmax * unit
    # the right-hand side (1, ..., 1, 0, ..., 0) with its q1 component removed
    y1 = _line_sum(q1[:n])
    rhs = -y1 * q1
    rhs[:n] += 1.0
    r22 = np.where(ok, r22, 1.0)
    mu = _line_sum(w / r22 * rhs) / r22
    lam = (y1 - r12 * mu) / np.where(ok, r11, 1.0)
    sol = np.array([lam, mu, 0.0 - (lam * mean[0] + mu * mean[1])])
    if not ok.all():
        for k in np.flatnonzero(~ok):
            sol[:, k] = np.linalg.lstsq(*_plane_system(T[:, :, k].T), rcond=None)[0]
    return sol


def plane_kernel(V: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares common plane z = lam*x + mu*y + nu of every configuration in a
    (4, n, batch) chart array (see batch_last): a line lies in it iff
    lam*c + mu*d = 1 and lam*a + mu*b + nu = 0.

    The best nu is -(lam mean a + mu mean b), and (lam, mu) come from modified
    Gram-Schmidt on the two centered columns. Where those are dependent to within
    1e-10 of max |coord| (all lines in one vertical plane, or one line repeated),
    np.linalg.lstsq picks the minimum-norm (lam, mu, nu) of the lines in their
    chart unit (see _scaled) instead.

    Returns (planes, found): the (3, batch) rows lam, mu, nu and a (batch,) mask of
    the worst residual within tol * (1 + max |coord| * max |lam, mu| + |nu|).
    """
    T, cmax, unit = _scaled(V)
    sol = _plane_solution(T, cmax, unit)
    # rows (lam*a + mu*b, lam*c + mu*d) of every line, less (-nu, 1)
    resid = (T.reshape(2, 2, *T.shape[1:]) * sol[:2, None]).sum(axis=1)
    resid[0] += sol[2]
    resid[1] -= 1.0
    sol[:2] *= unit
    bound = tol * (1 + cmax * np.abs(sol[:2]).max(axis=0) + np.abs(sol[2]))
    return sol, np.abs(resid).max(axis=(0, 1)) <= bound


def _checked_array(L: LineConfig, tol: float, name: str) -> np.ndarray:
    """L as a (4, n, 1) batch_last array."""
    if L.n < 2:
        raise DomainError(f"{name} needs at least 2 lines")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return batch_last(L.as_array())


def common_point(L: LineConfig, tol: float = 1e-8) -> Optional[Concurrency]:
    """Least-squares common point of all lines, or the all-parallel flag, or None
    (point_kernel on one configuration)."""
    points, found, parallel = point_kernel(_checked_array(L, tol, "common_point"), tol)
    if parallel[0]:
        return Concurrency(point=None, parallel=True)
    if found[0]:
        return Concurrency(point=tuple(points[:, 0].tolist()))
    return None


def common_plane(L: LineConfig, tol: float = 1e-8) -> Optional[Plane]:
    """Least-squares common non-vertical plane z = lam*x + mu*y + nu, or None
    (plane_kernel on one configuration). Vertical planes are outside the chart
    and report as None."""
    plane, found = plane_kernel(_checked_array(L, tol, "common_plane"), tol)
    return Plane(*plane[:, 0].tolist()) if found[0] else None


def _exact_lines(*lines: Line) -> bool:
    return all(is_exact(x) for ln in lines for x in ln.as_tuple())


def pair_intersection(l1: Line, l2: Line, tol: float = 1e-8) -> Optional[Point3]:
    """The single intersection point of two meeting, non-parallel chart lines: the
    meet and parallel tests are == 0 on exact lines, pair_tests' on float ones."""
    dc, dd = l1.c - l2.c, l1.d - l2.d
    if _exact_lines(l1, l2):
        apart = meet_residual(l1, l2) != 0 or dc == dd == 0
    else:
        meet, parallel, _ = pair_tests(LineConfig((l1, l2)).as_array(), [0], [1], tol)
        apart = parallel[0] or not meet[0]
    if apart:
        return None  # skew, parallel or coincident
    num, den = (l1.a - l2.a, dc) if abs(dc) >= abs(dd) else (l1.b - l2.b, dd)
    return l1.point_at(_ratio(-num, den))


def _dependent(rows) -> bool:
    """Whether three exact 3-vectors are linearly dependent."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0


def _triple_coplanar(l1: Line, l2: Line, l3: Line, tol: float = 1e-8) -> bool:
    """Chart-free coplanarity: the directions and base-point offsets of the lines
    span at most a plane. Exact lines: every 3 x 3 minor of those five rows is 0;
    float lines: with x and y in the chart unit (see _scaled), their third singular
    value is within tol of the largest."""
    rows = [ln.direction() for ln in (l1, l2, l3)] + [(l.a - l1.a, l.b - l1.b, 0) for l in (l2, l3)]
    if _exact_lines(l1, l2, l3):
        return all(map(_dependent, combinations(rows, 3)))
    unit = _scaled(batch_last(LineConfig((l1, l2, l3)).as_array()))[2][0]
    s = np.linalg.svd(np.array(rows, dtype=float) * [unit, unit, 1.0], compute_uv=False)
    return s[2] <= tol * s[0]


# the pairs (0, 1), (0, 2), (1, 2) of a triple, and their index arrays
_TRIPLE_PAIRS = list(combinations(range(3), 2))
_TRIPLE_INDEX = np.array(_TRIPLE_PAIRS).T


def classify_triple(l1: Line, l2: Line, l3: Line, tol: float = 1e-8) -> TripleClass:
    """Lemma-style case analysis of three distinct lines.

    Tags concurrent/coplanar combinations (transversal family dimension 2) and the
    mixed or pairwise-skew cases (dimension 1). The coplanarity test is chart-free,
    so triples in a vertical plane classify correctly even though no Plane witness
    exists for them. Exact lines are decided exactly: pairs meet when their
    meet_residual is 0 and coincide when equal, and three meeting lines are
    concurrent when the intersection point of a pair lies on all three (its exact
    coordinates are the point witness), or when no pair has one: all three are
    parallel. Float lines take pair_tests and common_point.
    """
    trio = (l1, l2, l3)
    cfg = LineConfig(trio)
    exact = _exact_lines(*trio)
    if exact:
        meet = [meet_residual(trio[x], trio[y]) == 0 for x, y in _TRIPLE_PAIRS]
        coincide = [trio[x] == trio[y] for x, y in _TRIPLE_PAIRS]
    else:
        tests = pair_tests(cfg.as_array(), *_TRIPLE_INDEX, tol)
        meet, coincide = tests.meet.tolist(), tests.coincide.tolist()
    if any(coincide):
        raise DomainError("lines %d and %d coincide" % _TRIPLE_PAIRS[coincide.index(True)])
    hits = sum(meet)
    if hits == 3:
        if exact:
            # where the first non-parallel pair meets; no such pair: all three are parallel
            P = next(filter(None, (pair_intersection(trio[x], trio[y]) for x, y in _TRIPLE_PAIRS)),
                     None)
            concurrent = P is None or all(ln.point_at(P[2]) == P for ln in trio)
            point = P if concurrent else None
        else:
            conc = common_point(cfg, tol)
            concurrent = conc is not None
            point = conc.point if concurrent else None
        coplanar = _triple_coplanar(l1, l2, l3, tol)
        plane = common_plane(cfg, tol) if coplanar else None
        if concurrent and coplanar:
            return TripleClass("concurrent_and_coplanar", 2, point, plane)
        if concurrent:
            return TripleClass("concurrent_only", 2, point, None)
        return TripleClass("coplanar_only", 2, None, plane)
    if hits >= 1:
        x, y = _TRIPLE_PAIRS[meet.index(True)]
        point = pair_intersection(trio[x], trio[y], tol)
        return TripleClass("two_concurrent_mixed", 1, point, None)
    return TripleClass("pairwise_skew", 1, None, None)


def _cross(u: Point3, v: Point3) -> Point3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _sub(u: Point3, v: Point3) -> Point3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _ratio(x: Scalar, y: Scalar) -> Scalar:
    """x / y, a Fraction when both are exact: ints stay exact through a division."""
    return Fraction(x, y) if is_exact(x) and is_exact(y) else x / y


def _vec_scale(u: Point3) -> float:
    return max(abs(float(x)) for x in u)


def transversal_detail(l1: Line, l2: Line, l3: Line, s: Scalar,
                       tol: float = 1e-8) -> tuple[Optional[Line], str]:
    """Line through q = l3(s) meeting l1 and l2, with a degeneracy reason code.

    The result is the intersection of the plane spanned by (q, l1) with the plane
    spanned by (q, l2). Codes: "ok", "q-on-line", "planes-coincide", "horizontal",
    "residual". When the lines and s are all exact, the planes are intersected in
    their own arithmetic (ints stay ints), the line is exact, and each code is
    decided by a zero: a normal, w = n1 x n2, w[2] or a meet_residual. Otherwise
    they are held in the chart unit (see _scaled): a normal to tol * |offset| *
    |direction|, w to tol * |n1| * |n2|, w[2] to tol * |w|, and the line, divided
    back out, to pair_tests at tol; check_squares on q keeps w finite.
    """
    exact = _exact_lines(l1, l2, l3) and is_exact(s)
    trio = (l1, l2, l3)
    if not exact:  # the float lines in their chart unit
        T, _, unit = _scaled(batch_last(LineConfig(trio).as_array()))
        l1, l2, l3 = (Line(*row) for row in T[..., 0].T.tolist())
    q = l3.point_at(s)
    offsets = [_sub((ln.a, ln.b, 0), q) for ln in (l1, l2)]
    normals = [_cross(o, ln.direction()) for o, ln in zip(offsets, (l1, l2))]
    w = _cross(*normals)
    if exact:
        failed = (not all(map(any, normals)), not any(w), w[2] == 0)
    else:
        # in the unit a normal is at most 4 m and w 32 m**2, m = max(1, |q|): 8 terms
        # of check_squares keep w finite. Directions (c, d, 1) have size 1 in the unit.
        check_squares(np.array(q, dtype=float), 8)
        sizes = [_vec_scale(v) for v in normals]
        failed = (any(size <= tol * _vec_scale(o) for size, o in zip(sizes, offsets)),
                  _vec_scale(w) <= tol * sizes[0] * sizes[1], abs(w[2]) <= tol * _vec_scale(w))
    for bad, code in zip(failed, ("q-on-line", "planes-coincide", "horizontal")):
        if bad:
            return None, code
    c, d = _ratio(w[0], w[2]), _ratio(w[1], w[2])
    line = Line(q[0] - q[2] * c, q[1] - q[2] * d, c, d)
    if exact:
        if any(meet_residual(line, other) != 0 for other in (l1, l2, l3)):
            return None, "residual"
    else:
        line = Line(*(x / unit.item() for x in line.as_tuple()))
        if not pair_tests(LineConfig((line, *trio)).as_array(), [0, 0, 0], [1, 2, 3], tol).meet.all():
            return None, "residual"
    return line, "ok"


def transversal(l1: Line, l2: Line, l3: Line, s: Scalar, tol: float = 1e-8) -> Optional[Line]:
    return transversal_detail(l1, l2, l3, s, tol)[0]


def line_through(p: Point3, q: Point3) -> Optional[Line]:
    """Chart representation of the join of two points; None when horizontal. The
    points are compared with ==, exactly on exact input."""
    if tuple(p) == tuple(q):
        raise DomainError("line_through needs two distinct points")
    dz = q[2] - p[2]
    if dz == 0:
        return None
    c, d = _ratio(q[0] - p[0], dz), _ratio(q[1] - p[1], dz)
    return Line(p[0] - c * p[2], p[1] - d * p[2], c, d)
