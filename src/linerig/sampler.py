"""Randomized generation of line configurations and embedding pairs for the
verification suites.

The float sampler draws a random integer start and projects it onto a Laman
graph's incidence system with Gauss-Newton, then proves full Jacobian row rank with
line_system_dimension's Cholesky test on J J^T (an attempt that the test does not
pass is retried, and its log line says whether the SVD found rank m or less). A
projected random start lands at a smooth point of a full-dimensional component,
which is what the paper's *generic* realization asks for; no Henneberg sequence is
replayed. One (n, 4) float array goes from the draw through the projection, the
coincidence test and the certificate; only a certified draw becomes a LineConfig.

The projection takes least-norm steps delta = J^T (J J^T)^-1 g without forming the
m x 4n Jacobian J: by numeric's edge-system identity J J^T is (S S^T) o (grad grad^T)
(numeric.normal_matrix) and J^T y is S^T (y o grad), for the m x 4 incidence gradients
grad of D = X[i] - X[j] and the graph's signed incidence matrix S, whose S S^T
(numeric.signed_gram) is built once per projection.
Only a singular J J^T makes it build J, for lstsq. It returns as soon as every edge
passes the residual rule (lines3d.residual_measure), which pair_tests and
line_system_dimension apply too, and gives up as soon as two steps in a row fail to
lower the largest |g|.

The exact sampler constructs its configuration line by line in exact arithmetic
(int draws, Fraction quotients), replaying the graph's extension sequence: the
base edge becomes two lines through a common point, a 0-extension joins random
points of (or passes through the intersection of) the two attach lines, and a
1-extension takes a transversal to the three lines involved, so every incidence
holds exactly. The lines3d predicates route each draw by exact tests, and a
candidate is kept when its meet_residual with each attach line is 0 and it
equals no line placed.

Both samplers run one attempt loop, which certifies each draw with
line_system_dimension (at tolerance 1e-8, or exactly, which requires every residual
to be exactly 0) and returns a LineSample whose log holds one line per attempt, or
raises SampleError carrying that log.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .elekes_sharir import PlanarMotion
from .errors import ConvergenceError, DomainError, SampleError
from .graphs import MAX_VERTICES, Graph
from .henneberg import Ext0, Ext1, extract_henneberg
from .lines3d import (Line, LineConfig, _edge_norms, _triple_coplanar, check_squares,
                      incidence_form, line_through, meet_residual, pair_intersection,
                      pair_tests, residual_measure, transversal_detail)
from .numeric import (DimensionReport, edge_index, edge_system, line_system_dimension,
                      normal_matrix, signed_gram, signed_incidence)
from .sparsity import is_laman

_BOX = 40  # coordinate box for integer draws
MAX_RETRIES = 32  # attempts of a Laman sampler before it raises SampleError
PROJECT_TOL = 1e-10  # the float Laman sampler's projection tolerance


@dataclass(frozen=True)
class LineSample:
    """A certified sample; log holds one line per attempt, the last one certified."""

    config: LineConfig
    report: DimensionReport
    attempts: int
    log: list[str]


def _rand_nonzero(rng: random.Random, box: int = _BOX) -> int:
    x = 0
    while x == 0:
        x = rng.randint(-box, box)
    return x


def _join(p, q) -> Optional[Line]:
    """line_through(p, q), or None when p and q are equal."""
    return None if p == q else line_through(p, q)


def _through(P, rng: random.Random) -> Optional[Line]:
    """The join of P with P + a random nonzero integer offset."""
    return line_through(P, tuple(x + _rand_nonzero(rng) for x in P))


def _base_pair(rng: random.Random) -> list[Line]:
    O = tuple(rng.randint(-_BOX, _BOX) for _ in range(3))
    lines: list[Line] = []
    while len(lines) < 2:
        c, d = rng.randint(-_BOX, _BOX), rng.randint(-_BOX, _BOX)
        cand = Line(O[0] - c * O[2], O[1] - d * O[2], c, d)
        if cand not in lines:
            lines.append(cand)
    return lines


def _extend0(lines: list[Line], u: int, v: int, rng: random.Random) -> Optional[Line]:
    """Candidate line meeting lines u and v.

    When the attach lines intersect, every such line either lies in their common
    plane or passes through their common point; both channels are 2-parameter
    families, so one is chosen at random. Skew attach lines take the generic
    two-point join.
    """
    lu, lv = lines[u], lines[v]
    if meet_residual(lu, lv) == 0 and rng.random() < 0.5:
        P = pair_intersection(lu, lv)
        if P is not None:
            return _through(P, rng)
        # parallel attach pair: fall through to the two-point join
    return _join(lu.point_at(rng.randint(-_BOX, _BOX)), lv.point_at(rng.randint(-_BOX, _BOX)))


def _extend1(lines: list[Line], u: int, v: int, w: int, rng: random.Random) -> Optional[Line]:
    """Candidate line meeting lines u, v, w (u and v meet: their edge was subdivided).

    The family of such lines depends on the triple's geometry, so the draw is
    routed: through the common point when the triple is concurrent, an in-plane
    join when it is coplanar, and the plane-intersection transversal otherwise.
    The lines are exact, so every routing test is decided exactly.
    """
    lu, lv, lw = lines[u], lines[v], lines[w]
    P = pair_intersection(lu, lv)
    if P is not None and lw.point_at(P[2])[:2] == P[:2]:
        return _through(P, rng)
    if _triple_coplanar(lu, lv, lw):
        return _join(lw.point_at(rng.randint(-_BOX, _BOX)), lu.point_at(rng.randint(-_BOX, _BOX)))
    return transversal_detail(lu, lv, lw, rng.randint(-_BOX, _BOX))[0]


def _construct(G: Graph, steps, relabel, rng: random.Random) -> Optional[LineConfig]:
    """Replay the extension steps, keeping the first of each step's 16 candidates that
    meets its attach lines exactly and is none of the lines placed; None if none is."""
    lines = _base_pair(rng)
    for step in steps:
        if isinstance(step, Ext0):
            extend, attach = _extend0, (step.u, step.v)
        elif isinstance(step, Ext1):
            extend, attach = _extend1, (step.u, step.v, step.w)
        else:
            raise DomainError(f"unexpected step {step!r}")
        for _ in range(16):
            cand = extend(lines, *attach, rng)
            if cand is not None and cand not in lines and \
                    all(meet_residual(cand, lines[k]) == 0 for k in attach):
                break
        else:
            return None
        lines.append(cand)
    # undo the extraction relabeling: replay vertex i realizes original vertex relabel[i]
    by_original = [None] * G.n
    for i, orig in enumerate(relabel):
        by_original[orig] = lines[i]
    return LineConfig(tuple(by_original))


def _least_norm_step(X: np.ndarray, i: np.ndarray, j: np.ndarray, S: np.ndarray,
                     SS: np.ndarray, g: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """delta = J^T (J J^T)^-1 g, the shortest step that zeroes the linearized residual,
    as an (n, 4) array, from the signed incidence matrix S of the edges (i, j) and
    SS = S S^T (the module docstring); lstsq on J, built then, when J J^T is singular."""
    try:
        y = np.linalg.solve(normal_matrix(SS, grad), g)
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(edge_system(X, i, j, incidence_form)[1], g, rcond=None)
        return delta.reshape(X.shape)
    return S.T @ (y[:, None] * grad)


def gauss_newton_project(G: Graph, x0: Union[LineConfig, np.ndarray], tol: float = 1e-12,
                         max_iter: int = 50) -> Union[LineConfig, np.ndarray]:
    """Project a nearby configuration, a LineConfig or an (n, 4) float array, onto the
    incidence system of G; the projection is returned as the same kind.

    Least-norm Gauss-Newton steps. Returns once every edge passes the residual rule
    at tol (lines3d.residual_measure), whose rounding term passes the float floor.
    Raises ConvergenceError, carrying the largest measure at the step of least
    max |g|, when two steps in a row fail to lower that max |g| (from a random start
    the measures swing while lines travel far) or max_iter steps do not reach tol.
    Raises DomainError when the start's J J^T could overflow.
    """
    config = isinstance(x0, LineConfig)
    X = x0.as_array() if config else np.array(x0, dtype=float)
    if X.shape[1:] != (4,):
        raise DomainError("coordinates must be rows of 4 numbers")
    if len(X) != G.n:
        raise DomainError(f"configuration has {len(X)} lines for a graph on {G.n} vertices")
    i, j = edge_index(G)
    # a diagonal entry of J J^T sums eight products of coordinate differences
    check_squares(X, 8, "normal-matrix entries")
    S, SS = signed_incidence(i, j, G.n), signed_gram(i, j)
    best, measure, stalls = np.inf, np.inf, 0
    for step in range(max_iter + 1):
        D, d, big = _edge_norms(X, i, j)
        g, grad = incidence_form(D.T)
        worst = float(np.max(residual_measure(g, d, big), initial=0.0))
        if worst <= tol:
            return LineConfig.from_rows(X.tolist()) if config else X
        size = float(np.abs(g).max())
        if size < best:
            best, measure, stalls = size, worst, 0
        else:
            stalls += 1
            if stalls == 2 or not np.isfinite(worst):
                raise ConvergenceError(
                    f"Gauss-Newton stalled at residual {measure:.2e} after {step} steps, "
                    f"above tol {tol:.1e}", measure)
        if step < max_iter:
            X = X - _least_norm_step(X, i, j, S, SS, g, grad)
    raise ConvergenceError(
        f"Gauss-Newton did not reach tol {tol:.1e} in {max_iter} steps "
        f"(residual {measure:.2e})", measure)


def _certified_sample(G: Graph, draw: Callable[[int], Union[LineConfig, np.ndarray, str]],
                      exact: bool, seed: int) -> LineSample:
    """The Laman samplers' attempt loop of MAX_RETRIES attempts. Attempt k's draw(k) is
    a configuration, a LineConfig or an (n, 4) float array, or the reason none was
    drawn; line_system_dimension certifies a configuration, exactly or at tolerance
    1e-8, and only a certified array becomes a LineConfig. Logs one line per attempt,
    with the reason an attempt failed: its rank, or that rank m was not proved."""
    log: list[str] = []
    for attempt in range(1, MAX_RETRIES + 1):
        drawn = draw(attempt)
        if not isinstance(drawn, str):
            report = line_system_dimension(G, drawn, tol=1e-8, exact=exact)
            if report.certified:
                log.append(f"attempt {attempt}: certified, rank {report.jacobian_rank}")
                if isinstance(drawn, np.ndarray):
                    drawn = LineConfig.from_rows(drawn.tolist())
                return LineSample(drawn, report, attempt, log)
            drawn = (f"rank {G.m} not proved (Cholesky at the cut failed)"
                     if report.jacobian_rank == G.m else f"rank {report.jacobian_rank} < {G.m}")
        log.append(f"attempt {attempt}: {drawn}")
    raise SampleError(f"no certified sample for seed {seed} in {MAX_RETRIES} attempts", log)


def sample_laman_lines_info(G: Graph, seed: int = 0) -> LineSample:
    """Certified generic configuration realizing a Laman graph.

    Each attempt draws integer coordinates in [-40, 40] from a generator seeded by
    (seed, attempt) and projects them onto the incidence system with Gauss-Newton
    until every edge passes the residual rule at PROJECT_TOL. The projection is
    kept when no two lines coincide within 1e-8 of their largest |coordinate|
    (pair_tests) and the float Jacobian has proved full row rank; any other attempt is
    retried with a fresh draw. A negative seed raises DomainError.
    """
    if seed < 0:
        raise DomainError("seed must be at least 0")
    if not is_laman(G):
        raise DomainError("sample_laman_lines requires a Laman graph")

    def draw(attempt: int) -> Union[np.ndarray, str]:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, attempt])))
        start = rng.integers(-_BOX, _BOX, size=(G.n, 4), endpoint=True).astype(float)
        try:
            projected = gauss_newton_project(G, start, tol=PROJECT_TOL, max_iter=80)
        except ConvergenceError as exc:
            return f"no convergence: {exc}"
        if pair_tests(projected, *np.triu_indices(G.n, 1), 1e-8).coincide.any():
            return "two lines coincide"
        return projected

    return _certified_sample(G, draw, False, seed)


def sample_laman_lines(G: Graph, seed: int = 0) -> LineConfig:
    return sample_laman_lines_info(G, seed).config


def sample_laman_lines_exact_info(G: Graph, seed: int = 0) -> LineSample:
    """Certified exact rational configuration realizing a Laman graph.

    Each attempt constructs a configuration along the graph's extension sequence in
    exact arithmetic, from a generator seeded by (seed, attempt), and keeps it
    when its exact certificate holds: every residual exactly 0 and full Jacobian
    rank (constructed points sit on strata with extra incidences, which in principle
    can underreport rank).
    """
    if not is_laman(G):
        raise DomainError("sample_laman_lines_exact requires a Laman graph")
    steps, relabel = extract_henneberg(G)

    def draw(attempt: int) -> Union[LineConfig, str]:
        rng = random.Random(f"laman-lines-exact:{seed}:{attempt}")
        cfg = _construct(G, steps, relabel, rng)
        return "construction failed" if cfg is None else cfg

    return _certified_sample(G, draw, True, seed)


def sample_laman_lines_exact(G: Graph, seed: int = 0) -> LineConfig:
    """The configuration of sample_laman_lines_exact_info's certified sample."""
    return sample_laman_lines_exact_info(G, seed).config


# ---------------------------------------------------------------------------
# complete-graph families


# A family: `head` shared parameters, then two per line; `row` maps (*head, s, t) to
# the line's chart row (a, b, c, d), affine in each parameter separately.
_Family = NamedTuple("_Family", [("head", int), ("row", Callable)])
_FAMILIES = {
    "concurrent": _Family(3, lambda x, y, z, c, d: (x - c * z, y - d * z, c, d)),
    "parallel": _Family(2, lambda c0, d0, a, b: (a, b, c0, d0)),
    "coplanar": _Family(3, lambda k, mu, nu, b, d: (k * (-nu - mu * b), b, k * (1 - mu * d), d)),
}


def _family(kind: str) -> _Family:
    if kind not in _FAMILIES:
        raise DomainError(f"unknown family kind '{kind}'")
    return _FAMILIES[kind]


def _chart(n: int, kind: str, params) -> tuple[_Family, list, list]:
    """The family of `kind`, its head and its n per-line (s, t) blocks."""
    fam, params = _family(kind), list(params)
    h = fam.head
    if len(params) != 2 * n + h:
        raise DomainError(f"{kind} family needs 2n+{h} parameters, got {len(params)}")
    return fam, params[:h], list(zip(params[h::2], params[h + 1::2]))


def knn_config(n: int, kind: str, params) -> LineConfig:
    """Map family parameters to a configuration realizing the complete graph.

    One table, _FAMILIES, holds the three charts, which knn_jacobian differentiates:
    concurrent: (x, y, z, c_1, d_1, ..., c_n, d_n)      -> lines through (x, y, z)
    parallel:   (c0, d0, a_1, b_1, ..., a_n, b_n)        -> common direction (c0, d0, 1)
    coplanar:   (kappa, mu, nu, b_1, d_1, ..., b_n, d_n) -> lines in z = lam x + mu y + nu
                with lam = 1/kappa: (kappa(-nu - mu b), b, kappa(1 - mu d), d)
    """
    fam, head, blocks = _chart(n, kind, params)
    return LineConfig.from_rows([fam.row(*head, s, t) for s, t in blocks])


def knn_jacobian(n: int, kind: str, params) -> np.ndarray:
    """4n x p Jacobian of the family parametrization at `params`, an object array
    that is exact on int and Fraction parameters. A chart row is affine in each
    parameter separately, so its gradient column q is the unit difference
    row(params + e_q) - row(params), exactly."""
    fam, head, blocks = _chart(n, kind, params)
    h = fam.head
    J = np.zeros((4 * n, h + 2 * n), dtype=object)
    for k, (s, t) in enumerate(blocks):
        args = [*head, s, t]
        base = fam.row(*args)
        for q, col in enumerate([*range(h), h + 2 * k, h + 2 * k + 1]):
            moved = fam.row(*args[:q], args[q] + 1, *args[q + 1:])
            J[4 * k:4 * k + 4, col] = [x - y for x, y in zip(moved, base)]
    return J


def sample_knn_params(n: int, kind: str, rng: random.Random) -> list[Fraction]:
    """Generic integer parameters for a family (the coplanar kappa is 1/lam), drawn
    from the smallest box [-B, B], B >= 40, that holds n distinct per-line blocks:
    distinct d for coplanar, distinct pairs otherwise."""
    if n < 1:
        raise DomainError("need at least one line")
    if n > MAX_VERTICES:
        raise DomainError(f"n={n} exceeds the limit of {MAX_VERTICES} lines")
    if kind == "coplanar":
        box = max(_BOX, n // 2)
        head = [Fraction(1, _rand_nonzero(rng, box)), rng.randint(-box, box),
                rng.randint(-box, box)]
        b_of: dict[int, int] = {}  # d -> b, in draw order
        while len(b_of) < n:
            d = rng.randint(-box, box)
            if d not in b_of:
                b_of[d] = rng.randint(-box, box)
        blocks = [(b, d) for d, b in b_of.items()]
    else:
        box = max(_BOX, (math.isqrt(n - 1) + 1) // 2)
        head = [rng.randint(-box, box) for _ in range(_family(kind).head)]
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < n:
            pairs.add((rng.randint(-box, box), rng.randint(-box, box)))
        blocks = sorted(pairs)
    return [Fraction(v) for v in head + [v for block in blocks for v in block]]


def sample_knn(n: int, kind: str, seed: int = 0) -> LineConfig:
    """Random configuration realizing the complete graph, of the requested family."""
    rng = random.Random(f"knn:{kind}:{n}:{seed}")
    return knn_config(n, kind, sample_knn_params(n, kind, rng))


# ---------------------------------------------------------------------------
# congruent embedding pairs


def _rational_rotation(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Exactly orthogonal (cos, sin) from the tangent half-angle parametrization."""
    t = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


def sample_congruent_pair(G: Graph, orientation: int = 1, seed: int = 0, exact: bool = False):
    """Random integer embedding p and its image p' under a random rigid motion, the
    points and translation drawn from [-100, 100].

    The rotation part is exactly orthogonal (rational cos/sin), so in exact mode
    the two embeddings have exactly equal edge lengths. Returns a pair of
    (n, 2) float arrays, or nested Fractions when exact.
    """
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 or -1")
    rng = random.Random(f"congruent:{G.n}:{orientation}:{seed}")
    pts = [(Fraction(rng.randint(-100, 100)), Fraction(rng.randint(-100, 100)))
           for _ in range(G.n)]
    co, si = _rational_rotation(rng)
    tx, ty = Fraction(rng.randint(-100, 100)), Fraction(rng.randint(-100, 100))
    motion = PlanarMotion(((co, -orientation * si), (si, orientation * co)), (tx, ty))
    moved = [motion.apply(p) for p in pts]
    if exact:
        return [list(p) for p in pts], [list(q) for q in moved]
    return (np.array(pts, dtype=float), np.array(moved, dtype=float))
