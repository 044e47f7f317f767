"""Randomized generation of line configurations and embedding pairs for the
verification suites.

The float sampler draws a random integer start and projects it onto a Laman
graph's incidence system with Gauss-Newton, then certifies full Jacobian rank. A
projected random start lands at a smooth point of a full-dimensional component,
which is what the paper's *generic* realization asks for; no Henneberg sequence is
replayed.

The projection measures each edge's residual against its own pair scale, 1 + the
largest |coordinate| of its two lines (lines3d.edge_scales, the normalization of
lines_meet and line_system_dimension). It returns as soon as every edge is within
the requested tolerance, and gives up as soon as two steps in a row fail to improve
on the best residual: at that point it sits at the float floor, and more steps only
cost time.

The exact sampler constructs its configuration line by line in Fraction
arithmetic, replaying the graph's extension sequence: the base edge becomes two
lines through a common point, a 0-extension joins random points of (or passes
through the intersection of) the two attach lines, and a 1-extension takes a
transversal to the three lines involved. All random draws are integers, so every
incidence holds exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, SampleError
from .graphs import Graph
from .henneberg import Ext0, Ext1, extract_henneberg
from .lines3d import (Line, LineConfig, _triple_coplanar, edge_scales, is_exact,
                      line_through, meet_residual, pair_intersection, transversal_detail)
from .numeric import (DimensionReport, edge_index, edge_system, incidence_form,
                      line_residuals, line_system_dimension, line_system_jacobian)
from .sparsity import is_laman

_BOX = 40  # coordinate box for integer draws


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


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_BOX, _BOX))


def _fresh(line: Line, placed: np.ndarray, tol: float) -> bool:
    """lines_coincident(line, other, tol) is false for every row of `placed`, the
    float coordinates of the lines placed so far, in one array operation."""
    x = np.array([float(v) for v in line.as_tuple()])
    s = tol * (1.0 + np.maximum(np.abs(x).max(), np.abs(placed).max(axis=1)))
    return not np.any(np.all(np.abs(placed - x) <= s[:, None], axis=1))


def _join(p, q) -> Optional[Line]:
    """line_through(p, q), or None when p and q agree as floats."""
    if all(float(a) == float(b) for a, b in zip(p, q)):
        return None
    return line_through(p, q)


def _through(P, rng: random.Random) -> Optional[Line]:
    """The join of P with P + a random nonzero integer offset."""
    return line_through(P, tuple(x + _rand_nonzero(rng) for x in P))


def _base_pair(rng: random.Random) -> list[Line]:
    O = tuple(_rand_fraction(rng) for _ in range(3))
    lines: list[Line] = []
    while len(lines) < 2:
        c, d = _rand_fraction(rng), _rand_fraction(rng)
        cand = Line(O[0] - c * O[2], O[1] - d * O[2], c, d)
        if cand not in lines:
            lines.append(cand)
    return lines


def _extend0(lines: list[Line], u: int, v: int, rng: random.Random,
             tol: float) -> Optional[Line]:
    """Candidate line meeting lines u and v.

    When the attach lines intersect, every such line either lies in their common
    plane or passes through their common point; both channels are 2-parameter
    families, so one is chosen at random. Skew attach lines take the generic
    two-point join.
    """
    lu, lv = lines[u], lines[v]
    if meet_residual(lu, lv) == 0 and rng.random() < 0.5:
        P = pair_intersection(lu, lv, tol)
        if P is not None:
            return _through(P, rng)
        # parallel attach pair: fall through to the two-point join
    return _join(lu.point_at(_rand_fraction(rng)), lv.point_at(_rand_fraction(rng)))


def _extend1(lines: list[Line], u: int, v: int, w: int, rng: random.Random,
             tol: float) -> Optional[Line]:
    """Candidate line meeting lines u, v, w (u and v meet: their edge was subdivided).

    The family of such lines depends on the triple's geometry, so the draw is
    routed: through the common point when the triple is concurrent, an in-plane
    join when it is coplanar, and the plane-intersection transversal otherwise.
    """
    lu, lv, lw = lines[u], lines[v], lines[w]
    P = pair_intersection(lu, lv, 1e-9)
    if P is not None and lw.point_at(P[2])[:2] == P[:2]:
        return _through(P, rng)
    if _triple_coplanar(lu.as_floats(), lv.as_floats(), lw.as_floats(), 1e-9):
        return _join(lw.point_at(_rand_fraction(rng)), lu.point_at(_rand_fraction(rng)))
    return transversal_detail(lu, lv, lw, _rand_fraction(rng), tol)[0]


def _construct(G: Graph, steps, relabel, rng: random.Random, tol: float,
               step_retries: int = 16) -> Optional[LineConfig]:
    """Replay the extension steps, keeping each step's first candidate that meets
    its attach lines exactly and coincides with no line placed so far."""
    lines = _base_pair(rng)
    placed = np.zeros((G.n, 4))
    placed[:2] = [[float(x) for x in ln.as_tuple()] for ln in lines]
    for step in steps:
        if isinstance(step, Ext0):
            extend, attach = _extend0, (step.u, step.v)
        elif isinstance(step, Ext1):
            extend, attach = _extend1, (step.u, step.v, step.w)
        else:
            raise DomainError(f"unexpected step {step!r}")
        for _ in range(step_retries):
            cand = extend(lines, *attach, rng, tol)
            if cand is not None and all(meet_residual(cand, lines[k]) == 0 for k in attach) \
                    and _fresh(cand, placed[:len(lines)], tol):
                break
        else:
            return None
        placed[len(lines)] = [float(x) for x in cand.as_tuple()]
        lines.append(cand)
    # undo the extraction relabeling: replay vertex i realizes original vertex relabel[i]
    by_original = [None] * G.n
    for i, orig in enumerate(relabel):
        by_original[orig] = lines[i]
    return LineConfig(tuple(by_original))


def _least_norm_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """delta = J^T (J J^T)^-1 r, the shortest step that zeroes the linearized residual."""
    try:
        return J.T @ np.linalg.solve(J @ J.T, r)
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(J, r, rcond=None)
        return delta


def gauss_newton_project(G: Graph, x0: LineConfig, tol: float = 1e-12,
                         max_iter: int = 50) -> LineConfig:
    """Project a nearby configuration onto the incidence system of G.

    Least-norm Gauss-Newton steps through the analytic Jacobian. Each edge's
    residual is taken relative to its own pair scale (lines3d.edge_scales). Returns
    as soon as every edge is within tol. Raises ConvergenceError, carrying the best
    residual reached, when two steps in a row fail to improve on it (a stall at the
    float floor, which lies above tol) or when max_iter steps did not reach tol.
    """
    if x0.n != G.n:
        raise DomainError(f"configuration has {x0.n} lines for a graph on {G.n} vertices")
    i, j = edge_index(G)
    X = x0.as_array()
    best, stalls = np.inf, 0
    for step in range(max_iter + 1):
        g, J = edge_system(X, i, j, incidence_form)
        worst = float(np.max(np.abs(g) / edge_scales(X, i, j), initial=0.0))
        if worst <= tol:
            return LineConfig.from_rows(X.tolist())
        if worst < best:
            best, stalls = worst, 0
        else:
            stalls += 1
            if stalls == 2 or not np.isfinite(worst):
                raise ConvergenceError(
                    f"Gauss-Newton stalled at residual {best:.2e} after {step} steps, "
                    f"above tol {tol:.1e}", best)
        if step < max_iter:
            X = X - _least_norm_step(J, g).reshape(X.shape)
    raise ConvergenceError(
        f"Gauss-Newton did not reach tol {tol:.1e} in {max_iter} steps "
        f"(residual {best:.2e})", best)


def _distinct(X: np.ndarray, tol: float) -> bool:
    """No two rows of X agree to within tol in every coordinate."""
    diff = np.abs(X[:, None, :] - X[None, :, :]).max(axis=2)
    np.fill_diagonal(diff, np.inf)
    return bool(diff.min() > tol)


def sample_laman_lines_info(G: Graph, seed: int = 0, max_retries: int = 32,
                            tol: float = 1e-10) -> LineSample:
    """Certified generic configuration realizing a Laman graph.

    Each attempt draws integer coordinates in [-40, 40] from a generator seeded by
    (seed, attempt) and projects them onto the incidence system with Gauss-Newton
    to tol, which leaves every edge's residual within tol of its pair scale. The
    projection is kept when no two lines coincide within 1e-8 of the configuration's
    scale (1 + max |coordinate|) and the Jacobian has full rank; any other attempt
    is retried with a fresh draw. The returned sample's log records every attempt,
    as SampleError.log does when all of them fail.
    """
    if not is_laman(G):
        raise DomainError("sample_laman_lines requires a Laman graph")
    log: list[str] = []
    for attempt in range(1, max_retries + 1):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed & 0xFFFFFFFF, attempt])))
        start = rng.integers(-_BOX, _BOX, size=(G.n, 4), endpoint=True)
        try:
            projected = gauss_newton_project(G, LineConfig.from_rows(start.tolist()),
                                             tol=tol, max_iter=80)
        except ConvergenceError as exc:
            log.append(f"attempt {attempt}: no convergence: {exc}")
            continue
        X = projected.as_array()
        scale = 1.0 + float(np.max(np.abs(X)))
        if not _distinct(X, 1e-8 * scale):
            log.append(f"attempt {attempt}: two lines coincide")
            continue
        report = line_system_dimension(G, projected, tol=1e-8)
        if not report.certified:
            log.append(f"attempt {attempt}: rank {report.jacobian_rank} < {G.m}")
            continue
        log.append(f"attempt {attempt}: certified, rank {report.jacobian_rank}")
        return LineSample(projected, report, attempt, log)
    raise SampleError(f"no certified sample for seed {seed} in {max_retries} attempts", log)


def sample_laman_lines(G: Graph, seed: int = 0, max_retries: int = 32,
                       tol: float = 1e-10) -> LineConfig:
    return sample_laman_lines_info(G, seed, max_retries, tol).config


def sample_laman_lines_exact(G: Graph, seed: int = 0, max_retries: int = 32) -> LineConfig:
    """Exact rational configuration realizing a Laman graph with certified rank.

    Constructs the configuration along the graph's extension sequence in Fraction
    arithmetic, so all residuals are exactly zero; a draw is kept only when the
    exact Jacobian rank is full (constructed points sit on strata with extra
    incidences, which in principle can underreport rank). If construction keeps
    failing, falls back to the concurrent family (all lines through one random
    integer point), which realizes every edge exactly and generically has full
    rank for any rigid graph: it is the transform image of a rotation-congruent
    embedding pair, and the incidence system there is linearly conjugate to the
    equal-lengths pair system.
    """
    if not is_laman(G):
        raise DomainError("sample_laman_lines_exact requires a Laman graph")
    from .numeric import rank_exact  # local import avoids a cycle at module load
    steps, relabel = extract_henneberg(G)
    for attempt in range(1, max_retries + 1):
        rng = random.Random(f"laman-lines-exact:{seed}:{attempt}")
        if attempt <= max_retries // 2:
            cfg = _construct(G, steps, relabel, rng, tol=1e-8)
        else:
            O = tuple(_rand_fraction(rng) for _ in range(3))
            dirs: set[tuple[int, int]] = set()
            while len(dirs) < G.n:
                dirs.add((rng.randint(-_BOX, _BOX), rng.randint(-_BOX, _BOX)))
            rows = [(O[0] - c * O[2], O[1] - d * O[2], Fraction(c), Fraction(d))
                    for c, d in sorted(dirs)]
            cfg = LineConfig.from_rows(rows)
        if cfg is None:
            continue
        if all(r == 0 for r in line_residuals(G, cfg)) and \
                rank_exact(line_system_jacobian(G, cfg)) == G.m:
            return cfg
    raise SampleError(f"no exact certified sample for seed {seed}", [])


# ---------------------------------------------------------------------------
# complete-graph families


def knn_config(n: int, kind: str, params) -> LineConfig:
    """Map family parameters to a configuration realizing the complete graph.

    concurrent: (x, y, z, c_1, d_1, ..., c_n, d_n)      -> lines through (x, y, z)
    parallel:   (c0, d0, a_1, b_1, ..., a_n, b_n)        -> common direction (c0, d0, 1)
    coplanar:   (lam, mu, nu, b_1, d_1, ..., b_n, d_n)   -> lines in z = lam x + mu y + nu
    """
    params = list(params)
    if kind == "concurrent":
        if len(params) != 2 * n + 3:
            raise DomainError(f"concurrent family needs 2n+3 parameters, got {len(params)}")
        x, y, z = params[:3]
        rows = []
        for k in range(n):
            c, d = params[3 + 2 * k], params[4 + 2 * k]
            rows.append((x - c * z, y - d * z, c, d))
        return LineConfig.from_rows(rows)
    if kind == "parallel":
        if len(params) != 2 * n + 2:
            raise DomainError(f"parallel family needs 2n+2 parameters, got {len(params)}")
        c0, d0 = params[:2]
        rows = [(params[2 + 2 * k], params[3 + 2 * k], c0, d0) for k in range(n)]
        return LineConfig.from_rows(rows)
    if kind == "coplanar":
        if len(params) != 2 * n + 3:
            raise DomainError(f"coplanar family needs 2n+3 parameters, got {len(params)}")
        lam, mu, nu = params[:3]
        if float(lam) == 0.0:
            raise DomainError("coplanar chart needs lam != 0")
        rows = []
        for k in range(n):
            b, d = params[3 + 2 * k], params[4 + 2 * k]
            rows.append(((-nu - mu * b) / lam, b, (1 - mu * d) / lam, d))
        return LineConfig.from_rows(rows)
    raise DomainError(f"unknown family kind '{kind}'")


def knn_jacobian(n: int, kind: str, params) -> np.ndarray:
    """Analytic 4n x p Jacobian of the family parametrization at `params`."""
    params = list(params)
    exact = all(map(is_exact, params))
    dtype = object if exact else float
    if kind == "concurrent":
        x, y, z = params[:3]
        J = np.zeros((4 * n, 2 * n + 3), dtype=dtype)
        for k in range(n):
            c, d = params[3 + 2 * k], params[4 + 2 * k]
            J[4 * k + 0, 0] = 1
            J[4 * k + 0, 2] = -c
            J[4 * k + 0, 3 + 2 * k] = -z
            J[4 * k + 1, 1] = 1
            J[4 * k + 1, 2] = -d
            J[4 * k + 1, 4 + 2 * k] = -z
            J[4 * k + 2, 3 + 2 * k] = 1
            J[4 * k + 3, 4 + 2 * k] = 1
        return J
    if kind == "parallel":
        J = np.zeros((4 * n, 2 * n + 2), dtype=dtype)
        for k in range(n):
            J[4 * k + 0, 2 + 2 * k] = 1
            J[4 * k + 1, 3 + 2 * k] = 1
            J[4 * k + 2, 0] = 1
            J[4 * k + 3, 1] = 1
        return J
    if kind == "coplanar":
        lam, mu, nu = params[:3]
        if float(lam) == 0.0:
            raise DomainError("coplanar chart needs lam != 0")
        J = np.zeros((4 * n, 2 * n + 3), dtype=dtype)
        lam2 = lam * lam
        for k in range(n):
            b, d = params[3 + 2 * k], params[4 + 2 * k]
            J[4 * k + 0, 0] = (nu + mu * b) / lam2
            J[4 * k + 0, 1] = -b / lam
            J[4 * k + 0, 2] = -1 / lam if exact else -1.0 / lam
            J[4 * k + 0, 3 + 2 * k] = -mu / lam
            J[4 * k + 1, 3 + 2 * k] = 1
            J[4 * k + 2, 0] = (mu * d - 1) / lam2
            J[4 * k + 2, 1] = -d / lam
            J[4 * k + 2, 4 + 2 * k] = -mu / lam
            J[4 * k + 3, 4 + 2 * k] = 1
        return J
    raise DomainError(f"unknown family kind '{kind}'")


def sample_knn_params(n: int, kind: str, rng: random.Random, exact: bool = True) -> list:
    """Generic integer parameters for a family (distinct per-line blocks)."""
    one = Fraction(1) if exact else 1
    if kind == "concurrent":
        head = [one * rng.randint(-_BOX, _BOX) for _ in range(3)]
        blocks: set[tuple[int, int]] = set()
        while len(blocks) < n:
            blocks.add((rng.randint(-_BOX, _BOX), rng.randint(-_BOX, _BOX)))
        tail = [one * v for pair in sorted(blocks) for v in pair]
        return head + tail
    if kind == "parallel":
        head = [one * rng.randint(-_BOX, _BOX) for _ in range(2)]
        blocks = set()
        while len(blocks) < n:
            blocks.add((rng.randint(-_BOX, _BOX), rng.randint(-_BOX, _BOX)))
        tail = [one * v for pair in sorted(blocks) for v in pair]
        return head + tail
    if kind == "coplanar":
        head = [one * _rand_nonzero(rng), one * rng.randint(-_BOX, _BOX), one * rng.randint(-_BOX, _BOX)]
        seen: set[int] = set()
        tail = []
        while len(seen) < n:
            d = rng.randint(-_BOX, _BOX)
            if d in seen:
                continue
            seen.add(d)
            tail += [one * rng.randint(-_BOX, _BOX), one * d]
        return head + tail
    raise DomainError(f"unknown family kind '{kind}'")


def sample_knn(n: int, kind: str, seed: int = 0) -> LineConfig:
    """Random configuration realizing the complete graph, of the requested family."""
    if n < 1:
        raise DomainError("need at least one line")
    rng = random.Random(f"knn:{kind}:{n}:{seed}")
    return knn_config(n, kind, sample_knn_params(n, kind, rng, exact=True))


# ---------------------------------------------------------------------------
# congruent embedding pairs


def _rational_rotation(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Exactly orthogonal (cos, sin) from the tangent half-angle parametrization."""
    t = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


def sample_congruent_pair(G: Graph, orientation: int = 1, seed: int = 0,
                          exact: bool = False, box: int = 100):
    """Random integer embedding p and its image p' under a random rigid motion.

    The rotation part is exactly orthogonal (rational cos/sin), so in exact mode
    the two embeddings have exactly equal edge lengths. Returns a pair of
    (n, 2) float arrays, or nested Fractions when exact.
    """
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 or -1")
    rng = random.Random(f"congruent:{G.n}:{orientation}:{seed}")
    pts = [(Fraction(rng.randint(-box, box)), Fraction(rng.randint(-box, box)))
           for _ in range(G.n)]
    co, si = _rational_rotation(rng)
    tx, ty = Fraction(rng.randint(-box, box)), Fraction(rng.randint(-box, box))
    moved = []
    for x, y in pts:
        if orientation == -1:
            y = -y
        moved.append((co * x - si * y + tx, si * x + co * y + ty))
    if exact:
        return [list(p) for p in pts], [list(q) for q in moved]
    return (np.array(pts, dtype=float), np.array(moved, dtype=float))
