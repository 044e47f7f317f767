"""Randomized generation of line configurations and embedding pairs for the
verification suites.

The constructive sampler realizes a Laman graph line by line, replaying its
extension sequence geometrically: the base edge becomes two lines through a
common point, a 0-extension joins random points of (or passes through the
intersection of) the two attach lines, and a 1-extension takes a transversal to
the three lines involved. Constructed configurations sit on special strata
(every subdivided edge is still satisfied), so a random perturbation followed by
a Gauss-Newton projection back onto the incidence system is applied before rank
certification.

The projection measures each edge's residual against its own pair scale, 1 + the
largest |coordinate| of its two lines (lines3d.edge_scales, the normalization of
lines_meet and line_system_dimension). It returns as soon as every edge is within
the requested tolerance, and gives up as soon as two steps in a row fail to improve
on the best residual: at that point it sits at the float floor, and more steps only
cost time.

All random draws are integers, so constructions can be replayed in exact rational
arithmetic.
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
from .lines3d import (Line, LineConfig, _triple_coplanar, edge_scales, line_through,
                      lines_coincident, lines_meet, meet_residual, pair_intersection,
                      pair_scale, transversal_detail)
from .numeric import (DimensionReport, edge_index, line_residuals, line_system_dimension,
                      line_system_float, line_system_jacobian)
from .sparsity import is_laman

_BOX = 40  # coordinate box for integer draws during construction


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


def _fresh(line: Line, existing: list[Line], tol: float) -> bool:
    return all(not lines_coincident(line, other, tol) for other in existing)


def _base_pair(rng: random.Random, exact: bool) -> list[Line]:
    one = Fraction(1) if exact else 1
    O = (one * rng.randint(-_BOX, _BOX), one * rng.randint(-_BOX, _BOX), one * rng.randint(-_BOX, _BOX))
    lines: list[Line] = []
    while len(lines) < 2:
        c = one * rng.randint(-_BOX, _BOX)
        d = one * rng.randint(-_BOX, _BOX)
        cand = Line(O[0] - c * O[2], O[1] - d * O[2], c, d)
        if _fresh(cand, lines, 1e-12):
            lines.append(cand)
    return lines


def _extend0(lines: list[Line], u: int, v: int, rng: random.Random, exact: bool,
             tol: float) -> Optional[Line]:
    """New line meeting lines u and v.

    When the attach lines intersect, every such line either lies in their common
    plane or passes through their common point; both channels are 2-parameter
    families, so one is chosen at random. Skew attach lines take the generic
    two-point join.
    """
    lu, lv = lines[u], lines[v]
    one = Fraction(1) if exact else 1
    meet = (meet_residual(lu, lv) == 0) if exact else lines_meet(lu, lv, 1e-9)
    if meet and rng.random() < 0.5:
        P = pair_intersection(lu, lv, tol)
        if P is not None:
            q = (P[0] + one * _rand_nonzero(rng), P[1] + one * _rand_nonzero(rng),
                 P[2] + one * _rand_nonzero(rng))
            cand = line_through(P, q)
            if cand is not None and _fresh(cand, lines, tol) and _meets_all(cand, (lu, lv), exact):
                return cand
            return None
        # parallel attach pair: fall through to the two-point join
    tu = one * rng.randint(-_BOX, _BOX)
    tv = one * rng.randint(-_BOX, _BOX)
    p, q = lu.point_at(tu), lv.point_at(tv)
    if all(float(a) == float(b) for a, b in zip(p, q)):
        return None
    cand = line_through(p, q)
    if cand is not None and _fresh(cand, lines, tol) and _meets_all(cand, (lu, lv), exact):
        return cand
    return None


def _point_on_line(line: Line, p, tol: float) -> bool:
    x, y, z = (float(v) for v in p)
    scale = 1.0 + max(abs(float(line.a)), abs(float(line.b)), abs(float(line.c)),
                      abs(float(line.d)), abs(x), abs(y), abs(z))
    return (abs(x - (float(line.a) + z * float(line.c))) <= tol * scale
            and abs(y - (float(line.b) + z * float(line.d))) <= tol * scale)


def _extend1(lines: list[Line], u: int, v: int, w: int, rng: random.Random, exact: bool,
             tol: float) -> Optional[Line]:
    """New line meeting lines u, v, w (u and v meet: their edge was subdivided).

    The family of such lines depends on the triple's geometry, so the draw is
    routed: through the common point when the triple is concurrent, an in-plane
    join when it is coplanar, and the plane-intersection transversal otherwise.
    """
    lu, lv, lw = lines[u], lines[v], lines[w]
    one = Fraction(1) if exact else 1
    P = pair_intersection(lu, lv, 1e-9)
    if P is not None and _point_on_line(lw, P, 1e-9):
        # concurrent triple: any fresh non-horizontal line through P
        q = (P[0] + one * _rand_nonzero(rng), P[1] + one * _rand_nonzero(rng),
             P[2] + one * _rand_nonzero(rng))
        cand = line_through(P, q)
    elif _triple_coplanar(lu.as_floats(), lv.as_floats(), lw.as_floats(), 1e-9):
        # coplanar triple: join a point of l_w with a point of l_u
        p = lw.point_at(one * rng.randint(-_BOX, _BOX))
        q = lu.point_at(one * rng.randint(-_BOX, _BOX))
        if all(float(a) == float(b) for a, b in zip(p, q)):
            return None
        cand = line_through(p, q)
    else:
        s = one * rng.randint(-_BOX, _BOX)
        cand, _ = transversal_detail(lu, lv, lw, s, tol)
    if cand is None or not _fresh(cand, lines, tol):
        return None
    if not _meets_all(cand, (lu, lv, lw), exact):
        return None
    return cand


def _meets_all(cand: Line, required, exact: bool) -> bool:
    for other in required:
        if exact:
            if meet_residual(cand, other) != 0:
                return False
        elif abs(float(meet_residual(cand, other))) > 1e-7 * pair_scale(cand.as_floats(), other.as_floats()):
            return False
    return True


def _construct(G: Graph, steps, relabel, rng: random.Random, exact: bool,
               tol: float, step_retries: int = 16) -> Optional[LineConfig]:
    lines = _base_pair(rng, exact)
    for step in steps:
        cand = None
        for _ in range(step_retries):
            if isinstance(step, Ext0):
                cand = _extend0(lines, step.u, step.v, rng, exact, tol)
            elif isinstance(step, Ext1):
                cand = _extend1(lines, step.u, step.v, step.w, rng, exact, tol)
            else:
                raise DomainError(f"unexpected step {step!r}")
            if cand is not None:
                break
        if cand is None:
            return None
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
        g, J = line_system_float(X, i, j)
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


def sample_laman_lines_info(G: Graph, seed: int = 0, max_retries: int = 32,
                            tol: float = 1e-10) -> LineSample:
    """Constructive sample of a certified configuration realizing a Laman graph.

    Construct along the extension sequence, perturb, project back with
    Gauss-Newton to tol, then certify full Jacobian rank; rank-deficient or
    degenerate draws are retried with fresh randomness. The returned sample's log
    records every attempt, as SampleError.log does when all of them fail.
    """
    if not is_laman(G):
        raise DomainError("sample_laman_lines requires a Laman graph")
    steps, relabel = extract_henneberg(G)
    log: list[str] = []
    for attempt in range(1, max_retries + 1):
        rng = random.Random(f"laman-lines:{seed}:{attempt}")
        built = _construct(G, steps, relabel, rng, exact=False, tol=1e-8)
        if built is None:
            log.append(f"attempt {attempt}: degenerate construction")
            continue
        arr = built.as_array()
        scale = 1.0 + float(np.max(np.abs(arr)))
        noise = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed & 0xFFFFFFFF, attempt])))
        perturbed = arr + noise.normal(size=arr.shape) * 1e-3 * scale
        try:
            projected = gauss_newton_project(G, LineConfig.from_rows(perturbed.tolist()),
                                             tol=tol, max_iter=80)
        except ConvergenceError as exc:
            log.append(f"attempt {attempt}: no convergence: {exc}")
            continue
        report = line_system_dimension(G, projected, tol=1e-8)
        if not report.certified:
            log.append(f"attempt {attempt}: rank {report.jacobian_rank} < {G.m}")
            continue
        res = line_residuals(G, projected)
        worst = max((abs(float(r)) for r in res), default=0.0)
        if worst > tol * scale:
            log.append(f"attempt {attempt}: residual {worst:.2e} above {tol:.1e}")
            continue
        log.append(f"attempt {attempt}: certified, rank {report.jacobian_rank}")
        return LineSample(projected, report, attempt, log)
    raise SampleError(f"no certified sample for seed {seed} in {max_retries} attempts", log)


def sample_laman_lines(G: Graph, seed: int = 0, max_retries: int = 32,
                       tol: float = 1e-10) -> LineConfig:
    return sample_laman_lines_info(G, seed, max_retries, tol).config


def sample_laman_lines_exact(G: Graph, seed: int = 0, max_retries: int = 32) -> LineConfig:
    """Exact rational configuration realizing a Laman graph with certified rank.

    Runs the same constructive replay as the floating sampler but in Fraction
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
            cfg = _construct(G, steps, relabel, rng, exact=True, tol=1e-8)
        else:
            O = tuple(Fraction(rng.randint(-_BOX, _BOX)) for _ in range(3))
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
    exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in params)
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
