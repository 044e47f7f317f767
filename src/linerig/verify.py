"""Named verification suites driving the samplers and rank machinery.

Every suite returns a SuiteReport whose failures name the seed and instance
needed to replay them. Suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .connectivity import is_k_connected
from .elekes_sharir import phi, reflection_at, rotation_at, to_line
from .errors import DomainError, SampleError
from .graphs import Graph, _nth_non_edge, generate
from .lines3d import (Line, Plane, _dependent, batch_last, classify_triple, incidence,
                      line_through, meet_residual, plane_kernel, point_kernel, transversal)
from .numeric import pair_system_dimension, rank_exact, rigidity, transversal_family_dimension
from .sampler import (knn_jacobian, sample_congruent_pair, sample_knn_params,
                      sample_laman_lines_exact_info, sample_laman_lines_info)
from .sparsity import is_redundant


@dataclass
class SuiteReport:
    name: str
    total: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.total

    def record(self, ok: bool, **detail) -> None:
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(detail)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "total": self.total,
            "passed": self.passed,
            "ok": self.ok,
            "failures": self.failures,
            "info": self.info,
        }


# four-lines and lemma-cong draw all their trials at once (four-lines peaks at 876 MB
# at 10^6), so a larger count is refused before any draw, not met by a MemoryError
MAX_TRIALS = 10 ** 6


def _at_least(value: int, least: int, name: str, most: float = math.inf) -> None:
    """A suite's size argument must leave it something to check, and fit in memory."""
    if value < least:
        raise DomainError(f"{name} must be at least {least}")
    if value > most:
        raise DomainError(f"{name}={value} exceeds the limit of {most}")


# ---------------------------------------------------------------------------
# theorem-main: Laman graphs realize with certified local dimension 2n + 3


def theorem_main(seeds: int = 50, n_max: int = 10, seed: int = 0) -> SuiteReport:
    _at_least(seeds, 1, "seeds")
    _at_least(n_max, 2, "n_max")
    rep = SuiteReport("theorem-main")
    attempts = certified = 0
    for k in range(seeds):
        rng = random.Random(f"theorem-main:{seed}:{k}")
        n = rng.randint(2, n_max)
        G = generate("laman_random", [n], seed=seed * 1000 + k)
        inst = {"instance": k, "n": n, "seed": seed * 1000 + k}
        sample = None
        try:
            sample = sample_laman_lines_info(G, seed=seed * 1000 + k)
            attempts += sample.attempts
            certified += 1
            float_ok = sample.report.certified and sample.report.local_dim_estimate == 2 * n + 3
            exact_rank = sample_laman_lines_exact_info(G, seed=seed * 1000 + k).report.jacobian_rank
            exact_ok = exact_rank == 2 * n - 3 == sample.report.jacobian_rank
            rep.record(float_ok and exact_ok, **inst,
                       float_rank=sample.report.jacobian_rank, exact_rank=exact_rank)
        except SampleError as exc:
            if sample is None:  # the rate is the float sampler's alone
                attempts += len(exc.log)
            rep.record(False, **inst, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - suite reports, never crashes
            rep.record(False, **inst, error=str(exc))
    rep.info["sampler_retries"] = attempts - certified
    rep.info["certification_rate"] = round(certified / attempts, 4) if attempts else 1.0
    return rep


# ---------------------------------------------------------------------------
# theorem-mainnec: flexible graphs have pair systems of dimension >= 2n + 4


def _random_tree_plus_edge(n: int, rng: random.Random) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    # rng.choice on the canonical list of the C(n - 1, 2) non-edges, unlisted: the same draw
    edges.append(_nth_non_edge(n, set(edges), rng.randrange((n - 1) * (n - 2) // 2)))
    return Graph.from_edges(n, edges)


def theorem_mainnec(count: int = 20, seed: int = 0) -> SuiteReport:
    _at_least(count, 1, "count")
    rep = SuiteReport("theorem-mainnec")
    for k in range(count):
        rng = random.Random(f"mainnec:{seed}:{k}")
        n = rng.randint(4, 10)
        G = generate("cycle", [n]) if k % 2 == 0 else _random_tree_plus_edge(n, rng)
        inst = {"instance": k, "n": n, "kind": "cycle" if k % 2 == 0 else "tree+edge"}
        try:
            p, pp = sample_congruent_pair(G, orientation=1 if k % 2 else -1,
                                          seed=seed * 1000 + k, exact=True)
            report = pair_system_dimension(G, p, pp, exact=True)
            rep.record(report.local_dim_estimate >= 2 * n + 4, **inst,
                       local_dim=report.local_dim_estimate, rank=report.jacobian_rank)
        except Exception as exc:  # noqa: BLE001
            rep.record(False, **inst, error=str(exc))
    return rep


# ---------------------------------------------------------------------------
# lemma-complete: the three complete-graph families have full-rank parametrizations


def lemma_complete(n_max: int = 10, seeds: int = 20, seed: int = 0) -> SuiteReport:
    _at_least(n_max, 2, "n_max")
    _at_least(seeds, 1, "seeds")
    rep = SuiteReport("lemma-complete")
    expected = {"concurrent": lambda n: 2 * n + 3,
                "parallel": lambda n: 2 * n + 2,
                "coplanar": lambda n: 2 * n + 3}
    for kind, cols in expected.items():
        for n in range(2, n_max + 1):
            for k in range(seeds):
                rng = random.Random(f"lemma-complete:{kind}:{n}:{seed}:{k}")
                params = sample_knn_params(n, kind, rng)
                rank = rank_exact(knn_jacobian(n, kind, params))
                rep.record(rank == cols(n), kind=kind, n=n, instance=k,
                           rank=rank, expected=cols(n))
    return rep


# ---------------------------------------------------------------------------
# lemma-3lines: transversal family dimension matches the triple classification


def _lines_through(P, dirs) -> tuple[Line, ...]:
    """The lines through the point P with the directions (c, d, 1) of dirs."""
    return tuple(Line(P[0] - c * P[2], P[1] - d * P[2], c, d) for c, d in dirs)


def _meets(l1: Line, l2: Line) -> bool:
    return meet_residual(l1, l2) == 0


def _concurrent(rng: random.Random):
    P = tuple(rng.randint(-10, 10) for _ in range(3))
    dirs = set()
    while len(dirs) < 3:
        dirs.add((rng.randint(-10, 10), rng.randint(-10, 10)))
    return _lines_through(P, sorted(dirs)), P


def _pencil(rng: random.Random):
    P = tuple(rng.randint(-10, 10) for _ in range(3))
    mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
    # P moved onto the plane z = x + mu*y + nu, which holds the directions (1 - mu*d, d, 1)
    P = (P[2] - mu * P[1] - nu, P[1], P[2])
    return _lines_through(P, [(1 - mu * d, d) for d in rng.sample(range(-8, 9), 3)]), P


def _coplanar(rng: random.Random):
    mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
    ds = rng.sample(range(-8, 9), 3)
    bs = [rng.randint(-10, 10) for _ in range(3)]
    return tuple(Line(-nu - mu * b, b, 1 - mu * d, d) for b, d in zip(bs, ds)), None


def _two_concurrent(rng: random.Random):
    P = tuple(rng.randint(-10, 10) for _ in range(3))
    grid = [(c, d) for c in range(-6, 7) for d in range(-6, 7)]
    l1, l2 = _lines_through(P, rng.sample(grid, 2))
    return (l1, l2, Line(*(rng.randint(-15, 15) for _ in range(4)))), P


def _random_lines(rng: random.Random):
    return tuple(Line(*(rng.randint(-15, 15) for _ in range(4))) for _ in range(3)), None


# class -> (draw, in_class, dimension of its transversal family). draw makes
# integer lines and returns them with their construction point; in_class keeps
# the draws in the class by an exact integer test:
# - concurrent lines share a plane too when their direction points (c, d) are collinear;
# - the coplanar lines, y - d*z = b in their plane named by its (y, z), share a
#   point when the rows (1, d, b) are dependent;
# - a third line meeting both lines through P makes the three meet pairwise;
# - lines with meet_residual 0 are not skew.
_TRIPLES = {
    "concurrent_only": (_concurrent, lambda L: not _dependent([(1, l.c, l.d) for l in L]), 2),
    "concurrent_and_coplanar": (_pencil, lambda L: True, 2),
    "coplanar_only": (_coplanar, lambda L: not _dependent([(1, l.d, l.b) for l in L]), 2),
    "two_concurrent_mixed": (_two_concurrent,
                             lambda L: not (_meets(L[2], L[0]) and _meets(L[2], L[1])), 1),
    "pairwise_skew": (_random_lines, lambda L: not any(_meets(*p) for p in combinations(L, 2)), 1),
}


def _family_member(lines: tuple[Line, ...], P, tag: str, rng: random.Random) -> Optional[Line]:
    """A random exact line meeting all three; None for a degenerate draw, or for a
    member in the plane of a concurrent-and-coplanar triple, where the family's two
    branches meet (a singular point, where the rank test sees no manifold dimension)."""
    if tag in ("concurrent_only", "concurrent_and_coplanar"):
        offset = [rng.randint(-9, 9) for _ in range(3)]
        if offset[2] == 0 or (tag == "concurrent_and_coplanar" and
                              _dependent([lines[0].direction(), lines[1].direction(), offset])):
            return None
        c, d = (Fraction(x, offset[2]) for x in offset[:2])
        return _lines_through(P, [(c, d)])[0]
    if tag == "coplanar_only":
        p = lines[0].point_at(rng.randint(-9, 9))
        q = lines[1].point_at(rng.randint(-9, 9))
        return None if p == q else line_through(p, q)
    return transversal(lines[0], lines[1], lines[2], rng.randint(-15, 15))


def lemma_3lines(per_class: int = 100, seed: int = 0) -> SuiteReport:
    """Each class of triple is built from integers: its table entry redraws until an
    exact integer test puts the draw in the class. classify_triple then runs once on
    the triple, and five exact members of its transversal family (the first five
    of at most 400 draws that are not None and none of the three lines) must each
    have the class's family dimension. A wrong tag or a DomainError is a failure."""
    _at_least(per_class, 1, "per_class")
    rep = SuiteReport("lemma-3lines")
    for tag, (draw, in_class, want_dim) in _TRIPLES.items():
        for k in range(per_class):
            rng = random.Random(f"3lines:{tag}:{seed}:{k}")
            lines, P = draw(rng)
            while not in_class(lines):
                lines, P = draw(rng)
            try:
                tc = classify_triple(*lines)
            except DomainError as exc:
                rep.record(False, cls=tag, instance=k, error=str(exc))
                continue
            draws = (_family_member(lines, P, tag, rng) for _ in range(400))
            members = list(islice((m for m in draws if m is not None and m not in lines), 5))
            dims = {transversal_family_dimension(*lines, m) for m in members}
            ok = tc.tag == tag and tc.family_dim == want_dim and members and dims == {want_dim}
            rep.record(ok, cls=tag, instance=k, classified=tc.tag,
                       family_dims=sorted(dims), expected=want_dim)
    return rep


# ---------------------------------------------------------------------------
# four-lines: pairwise-intersecting quadruples are concurrent or coplanar


def _distinct(rng: np.random.Generator, high: int, shape: tuple[int, int]) -> np.ndarray:
    """Integers in [0, high) of the given (rows, k) shape, distinct along each row:
    a row with a repeat is drawn again."""
    x = rng.integers(0, high, size=shape)
    redo = np.arange(shape[0])
    while redo.size:
        ordered = np.sort(x[redo], axis=1)
        redo = redo[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
        x[redo] = rng.integers(0, high, size=(redo.size, shape[1]))
    return x


def _concurrent4(rng: np.random.Generator, m: int) -> tuple[list, int]:
    """m quadruples of lines through a point P, with distinct directions (c, d) in
    [-20, 20]^2."""
    P = rng.integers(-20, 21, size=(3, 1, m))
    c, d = np.divmod(_distinct(rng, 41 * 41, (m, 4)).T, 41)
    c, d = c - 20, d - 20
    return [P[0] - c * P[2], P[1] - d * P[2], c, d], 1


def _coplanar4(rng: np.random.Generator, m: int) -> tuple[list, np.ndarray]:
    """m quadruples of lines (-(nu + mu*b)/lam, b, (1 - mu*d)/lam, d) of the plane
    z = lam*x + mu*y + nu, with distinct d and distinct b in [-12, 12], times
    q = |lam|, so that a zero numerator divides back to +0.0, as float(Fraction(0)) is."""
    lam = rng.integers(-6, 6, size=m)
    lam[lam >= 0] += 1  # nonzero, in [-6, 6]
    mu, nu = rng.integers(-6, 7, size=(2, m))
    d = _distinct(rng, 25, (m, 4)).T - 12
    b = _distinct(rng, 25, (m, 4)).T - 12
    s, q = np.sign(lam), np.abs(lam)
    return [s * (-nu - mu * b), q * b, s * (1 - mu * d), q * d], q


def _pencil4(rng: np.random.Generator, m: int) -> tuple[list, int]:
    """m quadruples concurrent and coplanar at once: the lines through (x0, y0, z0)
    of the plane z = x + mu*y + nu, with distinct d in [-8, 8]."""
    mu, nu = rng.integers(-5, 6, size=(2, m))
    y0, z0 = rng.integers(-8, 9, size=(2, m))
    x0 = z0 - mu * y0 - nu
    d = _distinct(rng, 17, (m, 4)).T - 8
    return [x0 - (1 - mu * d) * z0, y0 - d * z0, 1 - mu * d, d], 1


# mode -> draw(rng, m): the (4, 4, m) chart rows of m quadruples and their q
_QUADRUPLES = {"concurrent": _concurrent4, "coplanar": _coplanar4, "pencil": _pencil4}


def four_line_quadruples(trials: int, seed: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The four-lines suite's trials: each trial's mode, its four lines as a
    (4, 4, trials) int64 batch_last array of chart coordinates times the trial's
    denominator q, and the (trials,) q (1 unless the mode is coplanar). Trial k is
    a pencil if k % 10 == 9, else concurrent if k is even, else coplanar; one
    np.random.default_rng(seed) draws all trials of each mode at once."""
    modes = ["pencil" if k % 10 == 9 else ("concurrent" if k % 2 == 0 else "coplanar")
             for k in range(trials)]
    rng = np.random.default_rng(seed)
    V = np.empty((4, 4, trials), dtype=np.int64)
    q = np.ones(trials, dtype=np.int64)
    kinds = np.array(modes)
    for mode, draw in _QUADRUPLES.items():
        at = np.flatnonzero(kinds == mode)
        V[:, :, at], q[at] = draw(rng, len(at))
    return modes, V, q


def pairwise_incident(V: np.ndarray) -> np.ndarray:
    """Whether all lines of each configuration of an integer batch_last array
    meet pairwise: the incidence residual of all C(n, 2) pairs is 0, in exact
    int64 arithmetic. Scaling a configuration by q scales each residual by q**2,
    so the answer is that of the configuration divided by q."""
    i, j = np.triu_indices(V.shape[1], 1)
    return (incidence(V[:, i] - V[:, j]) == 0).all(axis=0)


def four_lines(trials: int = 10000, seed: int = 0, tol: float = 1e-8) -> SuiteReport:
    _at_least(trials, 1, "trials", MAX_TRIALS)
    _at_least(seed, 0, "seed")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rep = SuiteReport("four-lines")
    modes, V, q = four_line_quadruples(trials, seed)
    exact_zero = pairwise_incident(V).tolist()
    # one correctly rounded division, as float(Fraction(p, q)) is
    X = V / q
    _, point_found, parallel = point_kernel(X, tol)
    _, plane_found = plane_kernel(X, tol)
    point_ok = (point_found | parallel).tolist()
    plane_ok = plane_found.tolist()
    for k, mode in enumerate(modes):
        rep.record(exact_zero[k] and (point_ok[k] or plane_ok[k]), instance=k, mode=mode,
                   exact_zero=exact_zero[k], common_point=point_ok[k], common_plane=plane_ok[k])
    return rep


# ---------------------------------------------------------------------------
# lemma-cong: distance <-> incidence, and motion recovery from images


def _rotate(P: np.ndarray, co: np.ndarray, si: np.ndarray) -> np.ndarray:
    """The (2, ...) points P turned about the origin by the angle of (co, si)."""
    return np.array([co * P[0] - si * P[1], si * P[0] + co * P[1]])


# trials a block: a (2, 4, block) float array of 4096 trials takes 256 KiB, so each
# elementwise step reads from L2 (2-core Xeon, 2 MiB L2 a core: lemma_cong(30000)
# 100 -> 57 ms against one block of all trials; 8192 tied, 1024 and 2048 slower)
_BLOCK = 4096


def _blocks(total: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK trials that cover range(total)."""
    return [slice(s, min(s + _BLOCK, total)) for s in range(0, total, _BLOCK)]


def _trials(arrays, s) -> list[np.ndarray]:
    """The trials s, a slice or an index array, of batch_last arrays."""
    return [x[..., s] for x in arrays]


def _incidence_gap(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4 * g(to_line(a, b), to_line(c, d)), each to_line taken on the arrays, and
    |b-d|^2 - |a-c|^2, of the (4, 2, ...) integer points (a, b, c, d). Exact in
    float64 for |coordinate| <= 1000: g is a quarter-integer of magnitude at most
    8e6, far below 2**53."""
    a, b, c, d = pts
    D = [x - y for x, y in zip(to_line(a, b).as_tuple(), to_line(c, d).as_tuple())]
    g4 = 4 * incidence(D)
    return g4, ((b - d) ** 2).sum(axis=0) - ((a - c) ** 2).sum(axis=0)


def _distance_incidence(rng: np.random.Generator, trials: int, rep: SuiteReport) -> None:
    """4 * g(to_line(a,b), to_line(c,d)) == |b-d|^2 - |a-c|^2 identically, so the
    incidence residual vanishes exactly iff the distances agree: checked exactly
    on integer inputs, batched, and spot-checked through the module transform phi
    of the embeddings (a, c) and (b, d)."""
    pts = rng.integers(-1000, 1001, size=(4, 2, trials))
    holds = True
    for s in _blocks(trials):
        g4, dist_gap = _incidence_gap(pts[..., s])
        holds &= bool(np.all(g4 == dist_gap))
    rep.record(holds, part="distance-incidence", trials=trials)
    ks = rng.integers(0, trials, size=50)
    agree = all(
        4 * meet_residual(*phi(pts[0::2, :, k].tolist(), pts[1::2, :, k].tolist()).lines) == g
        for k, g in zip(ks, _incidence_gap(pts[..., ks])[0]))
    rep.record(agree, part="distance-incidence-module-agreement", trials=50)


def _rotation_recovery(rng: np.random.Generator, A: np.ndarray, rep: SuiteReport) -> None:
    """Rotated images: the lines are concurrent, and the rotation_at of their common
    point takes A to the images to 1e-9."""
    theta = rng.uniform(0.25, 2 * math.pi - 0.25, size=A.shape[2])
    center = rng.uniform(-5, 5, size=(2, 1, A.shape[2]))
    worst = []
    for s in _blocks(A.shape[2]):
        Ab, th, cb = _trials((A, theta, center), s)
        B = _rotate(Ab - cb, np.cos(th), np.sin(th)) + cb
        sol = point_kernel(np.array(to_line(Ab, B).as_tuple()))[0]
        worst.append(np.max(np.abs(np.array(rotation_at(sol).apply(Ab)) - B)))
    worst = float(np.max(worst))
    rep.record(worst <= 1e-9, part="rotation-recovery", trials=A.shape[2], worst=worst)


def _reflect(A: np.ndarray, phi_ang: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (2, n, batch) points A reflected in the line at angle phi_ang / 2
    through the origin, then moved by t."""
    co, si = np.cos(phi_ang), np.sin(phi_ang)
    return np.array([co * A[0] + si * A[1], si * A[0] - co * A[1]]) + t


def _reflection_recovery(rng: np.random.Generator, A: np.ndarray,
                         rep: SuiteReport) -> tuple[np.ndarray, np.ndarray]:
    """Reflected images: the lines are coplanar, and the reflection_at of their
    common plane takes A to the images to 1e-9. Returns the draws that _reflect
    turns into the images."""
    phi_ang = rng.uniform(0, 2 * math.pi, size=A.shape[2])
    t = rng.uniform(-5, 5, size=(2, 1, A.shape[2]))
    worst = []
    for s in _blocks(A.shape[2]):
        Ab, ph, tb = _trials((A, phi_ang, t), s)
        B = _reflect(Ab, ph, tb)
        h = reflection_at(Plane(*plane_kernel(np.array(to_line(Ab, B).as_tuple()))[0]))
        worst.append(np.max(np.abs(np.array(h.apply(Ab)) - B)))
    worst = float(np.max(worst))
    rep.record(worst <= 1e-9, part="reflection-recovery", trials=A.shape[2], worst=worst)
    return phi_ang, t


def _collinear(ts, base, direction, theta, center) -> tuple[np.ndarray, np.ndarray]:
    """The points base + ts * direction and their images under the rotation by
    theta about center."""
    A4 = base + ts * direction
    return A4, _rotate(A4 - center, np.cos(theta), np.sin(theta)) + center


def _collinear_preimages(rng: np.random.Generator, r: int, nb: int,
                         rep: SuiteReport) -> tuple[np.ndarray, ...]:
    """Collinear points and their rotated images: the lines are concurrent and
    coplanar at once, and the images collinear. Returns the draws that _collinear
    turns into the points and images."""
    draws = (rng.uniform(-5, 5, size=(r, nb)),
             rng.uniform(-4, 4, size=(2, 1, nb)),
             rng.uniform(-2, 2, size=(2, 1, nb)) + 0.25,
             rng.uniform(0.3, 2 * math.pi - 0.3, size=nb),
             rng.uniform(-5, 5, size=(2, 1, nb)))
    bad = 0
    for s in _blocks(nb):
        A4, B4 = _collinear(*_trials(draws, s))
        X4 = np.array(to_line(A4, B4).as_tuple())
        conc_ok = point_kernel(X4)[1]
        plane_ok = plane_kernel(X4)[1]
        db = B4 - B4[:, :1]
        cross = np.abs(db[0] * db[1, 1:2] - db[1] * db[0, 1:2]).max(axis=0)
        coll_ok = cross <= 1e-8 * np.abs(B4).max(axis=(0, 1)) ** 2
        bad += int(np.sum(~(conc_ok & plane_ok & coll_ok)))
    rep.record(bad == 0, part="collinear-preimages", trials=nb, failures=bad)
    return draws


def _phi_stack(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The (batch, n, 4) charts of phi(P[:, :, k], Q[:, :, k]) of (2, n, batch)
    point arrays."""
    return np.array([phi(P[:, :, k].T.tolist(), Q[:, :, k].T.tolist()).as_array()
                     for k in range(P.shape[2])])


def lemma_cong(trials: int = 100000, seed: int = 0) -> SuiteReport:
    """Distance <-> incidence, and motion recovery from images. Every array is
    batch_last: (coordinate, point or line, trial). The generator draws each part's
    values for all trials at once; the checks run over blocks of _BLOCK trials,
    and a spot check rebuilds the images of its trials from the draws."""
    _at_least(trials, 1, "trials", MAX_TRIALS)
    _at_least(seed, 0, "seed")
    rep = SuiteReport("lemma-cong")
    rng = np.random.default_rng(seed)
    _distance_incidence(rng, trials, rep)
    r = 4
    A = rng.uniform(-10, 10, size=(2, r, trials))
    _rotation_recovery(rng, A, rep)
    reflection = _reflection_recovery(rng, A, rep)
    collinear = _collinear_preimages(rng, r, trials, rep)
    # subsample through the module predicates: one stack of collinear preimages,
    # one of reflections, each configuration built by phi
    V = batch_last(_phi_stack(*_collinear(*_trials(collinear, rng.integers(0, trials, size=50)))))
    module_ok = bool(np.all(point_kernel(V)[1] & plane_kernel(V)[1]))
    ks = rng.integers(0, trials, size=20)
    Ak = A[..., ks]
    Bk = _reflect(Ak, *_trials(reflection, ks))
    planes, found = plane_kernel(batch_last(_phi_stack(Ak, Bk)))
    for k, (plane, ok) in enumerate(zip(planes.T.tolist(), found.tolist())):
        if not ok:
            module_ok = False
            continue
        h = reflection_at(Plane(*plane))
        module_ok &= bool(np.max(np.abs(np.array(h.apply(Ak[:, :, k])) - Bk[:, :, k])) <= 1e-8)
    rep.record(module_ok, part="module-predicate-agreement", trials=70)
    return rep


# ---------------------------------------------------------------------------
# hendrickson-oracle: combinatorial test vs randomized stress test


def hendrickson_catalog(n_max: int = 8) -> list[tuple[str, Graph]]:
    cases: list[tuple[str, Graph]] = []
    for k in range(4, n_max + 1):
        cases.append((f"complete({k})", generate("complete", [k])))
    for k in range(4, n_max + 1):
        cases.append((f"wheel({k})", generate("wheel", [k])))
    for k in range(4, n_max + 1):
        for s in (1, 2):
            cases.append((f"laman_random({k},seed={s})", generate("laman_random", [k], seed=s)))
    for k in range(5, n_max + 1):
        for s in (1, 2):
            cases.append((f"hendrickson_random({k},seed={s})",
                          generate("hendrickson_random", [k], seed=s)))
    # redundantly rigid but only 2-connected: two K4 sharing an edge
    cases.append(("two-K4-shared-edge", Graph.from_edges(6, [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])))
    return cases


def hendrickson_oracle(n_max: int = 8, seed: int = 0) -> SuiteReport:
    _at_least(n_max, 4, "n_max")
    rep = SuiteReport("hendrickson-oracle")
    for name, G in hendrickson_catalog(n_max):
        redundant = is_redundant(G)
        # is_hendrickson's own definition, on the redundancy already decided
        combinatorial = redundant and is_k_connected(G, 3)
        # the stress matrix's own verdict, read whether or not the stress is redundant
        r = rigidity(G, seed)
        if r.globally_rigid is None:
            # n >= 4 on the catalog, so G is flexible: never redundant, never Hendrickson
            rep.record(combinatorial is False, graph=name, note="flexible")
            continue
        rep.record(r.globally_rigid == combinatorial and r.redundant == redundant,
                   graph=name, combinatorial=combinatorial, oracle=r.globally_rigid,
                   redundant=redundant, stress_redundant=r.redundant, prime=r.prime)
    return rep


SUITES = {
    "theorem-main": theorem_main,
    "theorem-mainnec": theorem_mainnec,
    "lemma-complete": lemma_complete,
    "lemma-3lines": lemma_3lines,
    "lemma-cong": lemma_cong,
    "four-lines": four_lines,
    "hendrickson-oracle": hendrickson_oracle,
}
