"""Named verification suites driving the samplers and rank machinery.

Every suite returns a SuiteReport whose failures name the seed and instance
needed to replay them. Suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elekes_sharir import phi, reflection_at, to_line
from .errors import SampleError
from .graphs import Graph, generate
from .lines3d import (Line, LineConfig, classify_triple, common_plane, common_point,
                      line_through, meet_residual, transversal)
from .numeric import (global_rigidity_oracle, is_rigid_numeric, line_system_jacobian,
                      pair_system_dimension, rank_exact, transversal_family_dimension)
from .sampler import (knn_jacobian, sample_congruent_pair, sample_knn_params,
                      sample_laman_lines_exact, sample_laman_lines_info)
from .sparsity import is_hendrickson


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


# ---------------------------------------------------------------------------
# theorem-main: Laman graphs realize with certified local dimension 2n + 3


def theorem_main(seeds: int = 50, n_max: int = 10, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("theorem-main")
    attempts = certified = 0
    for k in range(seeds):
        rng = random.Random(f"theorem-main:{seed}:{k}")
        n = rng.randint(2, n_max)
        G = generate("laman_random", [n], seed=seed * 1000 + k)
        inst = {"instance": k, "n": n, "seed": seed * 1000 + k}
        try:
            sample = sample_laman_lines_info(G, seed=seed * 1000 + k)
            attempts += sample.attempts
            certified += 1
            float_ok = sample.report.certified and sample.report.local_dim_estimate == 2 * n + 3
            exact_cfg = sample_laman_lines_exact(G, seed=seed * 1000 + k)
            exact_rank = rank_exact(line_system_jacobian(G, exact_cfg))
            exact_ok = exact_rank == 2 * n - 3 == sample.report.jacobian_rank
            rep.record(float_ok and exact_ok, **inst,
                       float_rank=sample.report.jacobian_rank, exact_rank=exact_rank)
        except SampleError as exc:
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
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
    edges.append(rng.choice(non_edges))
    return Graph.from_edges(n, edges)


def theorem_mainnec(count: int = 20, seed: int = 0) -> SuiteReport:
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
    rep = SuiteReport("lemma-complete")
    expected = {"concurrent": lambda n: 2 * n + 3,
                "parallel": lambda n: 2 * n + 2,
                "coplanar": lambda n: 2 * n + 3}
    for kind, cols in expected.items():
        for n in range(2, n_max + 1):
            for k in range(seeds):
                rng = random.Random(f"lemma-complete:{kind}:{n}:{seed}:{k}")
                params = sample_knn_params(n, kind, rng, exact=True)
                rank = rank_exact(knn_jacobian(n, kind, params))
                rep.record(rank == cols(n), kind=kind, n=n, instance=k,
                           rank=rank, expected=cols(n))
    return rep


# ---------------------------------------------------------------------------
# lemma-3lines: transversal family dimension matches the triple classification


def _concurrent_triple(rng: random.Random, coplanar: bool) -> tuple[Line, Line, Line]:
    while True:
        P = tuple(rng.randint(-10, 10) for _ in range(3))
        if coplanar:
            mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
            # force P onto the plane z = x + mu*y + nu by solving for x
            x0 = P[2] - mu * P[1] - nu
            P = (x0, P[1], P[2])
            ds = rng.sample(range(-8, 9), 3)
            lines = tuple(Line(P[0] - (1 - mu * d) * P[2], P[1] - d * P[2], 1 - mu * d, d)
                          for d in ds)
            return lines
        dirs = set()
        while len(dirs) < 3:
            dirs.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        lines = tuple(Line(P[0] - c * P[2], P[1] - d * P[2], c, d) for c, d in sorted(dirs))
        tc = classify_triple(*lines)
        if tc.tag == "concurrent_only":
            return lines


def _coplanar_triple(rng: random.Random) -> tuple[Line, Line, Line]:
    while True:
        mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
        ds = rng.sample(range(-8, 9), 3)
        bs = [rng.randint(-10, 10) for _ in range(3)]
        lines = tuple(Line(-nu - mu * b, b, 1 - mu * d, d) for b, d in zip(bs, ds))
        if classify_triple(*lines).tag == "coplanar_only":
            return lines


def _skew_triple(rng: random.Random) -> tuple[Line, Line, Line]:
    while True:
        lines = tuple(Line(*(rng.randint(-15, 15) for _ in range(4))) for _ in range(3))
        try:
            if classify_triple(*lines).tag == "pairwise_skew":
                return lines
        except Exception:  # noqa: BLE001 - coincident draws simply retry
            continue


def _mixed_triple(rng: random.Random) -> tuple[Line, Line, Line]:
    while True:
        P = tuple(rng.randint(-10, 10) for _ in range(3))
        (c1, d1), (c2, d2) = rng.sample([(c, d) for c in range(-6, 7) for d in range(-6, 7)], 2)
        l1 = Line(P[0] - c1 * P[2], P[1] - d1 * P[2], c1, d1)
        l2 = Line(P[0] - c2 * P[2], P[1] - d2 * P[2], c2, d2)
        l3 = Line(*(rng.randint(-15, 15) for _ in range(4)))
        try:
            if classify_triple(l1, l2, l3).tag == "two_concurrent_mixed":
                return (l1, l2, l3)
        except Exception:  # noqa: BLE001
            continue


def _family_members(lines: tuple[Line, Line, Line], tag: str, rng: random.Random,
                    count: int = 5) -> list[Line]:
    """Sample smooth members of the family of lines meeting all three.

    Members coinciding with an input line are rejected, as are members on the
    intersection of the two family branches in the concurrent-and-coplanar case
    (those are genuine singular points of the family, where the rank test does
    not see a manifold dimension).
    """
    from .lines3d import _triple_coplanar, lines_coincident

    members: list[Line] = []
    tc = classify_triple(*lines)
    guard = 0
    while len(members) < count and guard < 400:
        guard += 1
        if tag in ("concurrent_only", "concurrent_and_coplanar"):
            P = tc.point
            offset = [rng.randint(-9, 9) for _ in range(3)]
            if offset[2] == 0:
                continue
            q = (P[0] + offset[0], P[1] + offset[1], P[2] + offset[2])
            member = line_through(P, q)
            if member is not None and tag == "concurrent_and_coplanar" and \
                    _triple_coplanar(member.as_floats(), lines[0].as_floats(), lines[1].as_floats()):
                continue
        elif tag == "coplanar_only":
            p = lines[0].point_at(rng.randint(-9, 9))
            q = lines[1].point_at(rng.randint(-9, 9))
            member = None if all(float(a) == float(b) for a, b in zip(p, q)) else line_through(p, q)
        else:
            member = transversal(lines[0], lines[1], lines[2], Fraction(rng.randint(-15, 15)))
        if member is None:
            continue
        member = member.as_floats()
        if any(lines_coincident(member, ln.as_floats()) for ln in lines):
            continue
        members.append(member)
    return members


def lemma_3lines(per_class: int = 100, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("lemma-3lines")
    makers = {
        "concurrent_only": (lambda rng: _concurrent_triple(rng, False), 2),
        "concurrent_and_coplanar": (lambda rng: _concurrent_triple(rng, True), 2),
        "coplanar_only": (_coplanar_triple, 2),
        "two_concurrent_mixed": (_mixed_triple, 1),
        "pairwise_skew": (_skew_triple, 1),
    }
    for tag, (maker, want_dim) in makers.items():
        for k in range(per_class):
            rng = random.Random(f"3lines:{tag}:{seed}:{k}")
            lines = maker(rng)
            tc = classify_triple(*lines)
            members = _family_members(lines, tag, rng)
            dims = {transversal_family_dimension(lines[0].as_floats(), lines[1].as_floats(),
                                                 lines[2].as_floats(), m) for m in members}
            ok = tc.tag == tag and tc.family_dim == want_dim and members and dims == {want_dim}
            rep.record(ok, cls=tag, instance=k, classified=tc.tag,
                       family_dims=sorted(dims), expected=want_dim)
    return rep


# ---------------------------------------------------------------------------
# four-lines: pairwise-intersecting quadruples are concurrent or coplanar


def four_lines(trials: int = 10000, seed: int = 0, tol: float = 1e-8) -> SuiteReport:
    rep = SuiteReport("four-lines")
    for k in range(trials):
        rng = random.Random(f"four-lines:{seed}:{k}")
        mode = "pencil" if k % 10 == 9 else ("concurrent" if k % 2 == 0 else "coplanar")
        if mode == "concurrent":
            P = tuple(rng.randint(-20, 20) for _ in range(3))
            dirs = set()
            while len(dirs) < 4:
                dirs.add((rng.randint(-20, 20), rng.randint(-20, 20)))
            rows = [(P[0] - c * P[2], P[1] - d * P[2], c, d) for c, d in sorted(dirs)]
        elif mode == "coplanar":
            lam = 0
            while lam == 0:
                lam = rng.randint(-6, 6)
            mu, nu = rng.randint(-6, 6), rng.randint(-6, 6)
            ds = rng.sample(range(-12, 13), 4)
            bs = rng.sample(range(-12, 13), 4)
            rows = [(Fraction(-nu - mu * b, lam), b, Fraction(1 - mu * d, lam), d)
                    for b, d in zip(bs, ds)]
        else:  # pencil: concurrent and coplanar at once
            mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
            y0, z0 = rng.randint(-8, 8), rng.randint(-8, 8)
            x0 = z0 - mu * y0 - nu
            ds = rng.sample(range(-8, 9), 4)
            rows = [(x0 - (1 - mu * d) * z0, y0 - d * z0, 1 - mu * d, d) for d in ds]
        cfg = LineConfig.from_rows(rows)
        exact_zero = all(
            meet_residual(cfg[i], cfg[j]) == 0 for i in range(4) for j in range(i + 1, 4))
        cp = common_point(cfg, tol)
        pl = common_plane(cfg, tol)
        point_ok = cp is not None and (cp.parallel or cp.point is not None)
        ok = exact_zero and (point_ok or pl is not None)
        rep.record(ok, instance=k, mode=mode, exact_zero=exact_zero,
                   common_point=point_ok, common_plane=pl is not None)
    return rep


# ---------------------------------------------------------------------------
# lemma-cong: distance <-> incidence, and motion recovery from images


def _batched_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve per batch item via QR (normal equations would square
    the condition number, which costs real accuracy at the tails of 1e5 draws)."""
    Q, R = np.linalg.qr(A)
    return np.linalg.solve(R, Q.transpose(0, 2, 1) @ b[..., None])[..., 0]


def lemma_cong(trials: int = 100000, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("lemma-cong")
    rng = np.random.default_rng(seed)

    # (1) distance <-> incidence, exact on integer inputs:
    #     4 * g(to_line(a,b), to_line(c,d)) == |b-d|^2 - |a-c|^2 identically,
    #     so the incidence residual vanishes exactly iff the distances agree.
    pts = rng.integers(-1000, 1001, size=(trials, 4, 2)).astype(np.int64)
    a, b, c, d = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    ua, va = a + b, np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
    uc, vc = c + d, np.stack([c[:, 1] - d[:, 1], d[:, 0] - c[:, 0]], axis=1)
    g4 = (ua[:, 0] - uc[:, 0]) * (va[:, 1] - vc[:, 1]) - (ua[:, 1] - uc[:, 1]) * (va[:, 0] - vc[:, 0])
    dist_gap = ((b - d) ** 2).sum(axis=1) - ((a - c) ** 2).sum(axis=1)
    exact_equiv = bool(np.all(g4 == dist_gap))
    rep.record(exact_equiv, part="distance-incidence", trials=trials)
    # spot-check the batched formula against the module transform
    agree = all(
        4 * meet_residual(to_line(pts[k, 0].tolist(), pts[k, 1].tolist()),
                          to_line(pts[k, 2].tolist(), pts[k, 3].tolist())) == g4[k]
        for k in rng.integers(0, trials, size=50))
    rep.record(agree, part="distance-incidence-module-agreement", trials=50)

    # (2) rotations: concurrent images recover the rotation to 1e-9
    nb = trials
    r = 4
    A = rng.uniform(-10, 10, size=(nb, r, 2))
    theta = rng.uniform(0.25, 2 * math.pi - 0.25, size=nb)
    co, si = np.cos(theta), np.sin(theta)
    center = rng.uniform(-5, 5, size=(nb, 1, 2))
    rel = A - center
    B = np.stack([co[:, None] * rel[..., 0] - si[:, None] * rel[..., 1],
                  si[:, None] * rel[..., 0] + co[:, None] * rel[..., 1]], axis=-1) + center
    u = 0.5 * (A + B)
    v = 0.5 * np.stack([A[..., 1] - B[..., 1], B[..., 0] - A[..., 0]], axis=-1)
    # common point of the lines (x - c z = a, y - d z = b)
    M = np.zeros((nb, 2 * r, 3))
    rhs = np.zeros((nb, 2 * r))
    M[:, 0::2, 0] = 1.0
    M[:, 0::2, 2] = -v[..., 0]
    M[:, 1::2, 1] = 1.0
    M[:, 1::2, 2] = -v[..., 1]
    rhs[:, 0::2] = u[..., 0]
    rhs[:, 1::2] = u[..., 1]
    sol = _batched_solve(M, rhs)
    tsol = sol[:, 2]
    denom = tsol ** 2 + 1.0
    co2, si2 = (tsol ** 2 - 1.0) / denom, 2.0 * tsol / denom
    relA = A - sol[:, None, 0:2]
    Brec = np.stack([co2[:, None] * relA[..., 0] - si2[:, None] * relA[..., 1],
                     si2[:, None] * relA[..., 0] + co2[:, None] * relA[..., 1]],
                    axis=-1) + sol[:, None, 0:2]
    worst_rot = float(np.max(np.abs(Brec - B)))
    rep.record(worst_rot <= 1e-9, part="rotation-recovery", trials=trials, worst=worst_rot)

    # (3) reflections: coplanar images recover the reversing motion to 1e-9
    phi_ang = rng.uniform(0, 2 * math.pi, size=nb)
    co, si = np.cos(phi_ang), np.sin(phi_ang)
    t = rng.uniform(-5, 5, size=(nb, 1, 2))
    B = np.stack([co[:, None] * A[..., 0] + si[:, None] * A[..., 1],
                  si[:, None] * A[..., 0] - co[:, None] * A[..., 1]], axis=-1) + t
    u = 0.5 * (A + B)
    v = 0.5 * np.stack([A[..., 1] - B[..., 1], B[..., 0] - A[..., 0]], axis=-1)
    M = np.zeros((nb, 2 * r, 3))
    rhs = np.zeros((nb, 2 * r))
    M[:, 0::2, 0] = v[..., 0]
    M[:, 0::2, 1] = v[..., 1]
    rhs[:, 0::2] = 1.0
    M[:, 1::2, 0] = u[..., 0]
    M[:, 1::2, 1] = u[..., 1]
    M[:, 1::2, 2] = 1.0
    sol = _batched_solve(M, rhs)
    wnorm = np.hypot(sol[:, 0], sol[:, 1])
    e1 = sol[:, 0:2] / wnorm[:, None]
    e2 = np.stack([-e1[:, 1], e1[:, 0]], axis=-1)
    proj = (A * e1[:, None, :]).sum(axis=-1) + (sol[:, 2] / wnorm)[:, None]
    Brec = A - 2.0 * proj[..., None] * e1[:, None, :] - (2.0 / wnorm)[:, None, None] * e2[:, None, :]
    worst_ref = float(np.max(np.abs(Brec - B)))
    rep.record(worst_ref <= 1e-9, part="reflection-recovery", trials=trials, worst=worst_ref)

    # (4) collinear preimages: transform image concurrent AND coplanar, image collinear
    ts = rng.uniform(-5, 5, size=(nb, r))
    base = rng.uniform(-4, 4, size=(nb, 1, 2))
    direction = rng.uniform(-2, 2, size=(nb, 1, 2)) + 0.25
    A4 = base + ts[..., None] * direction
    theta = rng.uniform(0.3, 2 * math.pi - 0.3, size=nb)
    co, si = np.cos(theta), np.sin(theta)
    center = rng.uniform(-5, 5, size=(nb, 1, 2))
    rel = A4 - center
    B4 = np.stack([co[:, None] * rel[..., 0] - si[:, None] * rel[..., 1],
                   si[:, None] * rel[..., 0] + co[:, None] * rel[..., 1]], axis=-1) + center
    u = 0.5 * (A4 + B4)
    v = 0.5 * np.stack([A4[..., 1] - B4[..., 1], B4[..., 0] - A4[..., 0]], axis=-1)
    scale4 = 1.0 + np.maximum(np.abs(u).max(axis=(1, 2)), np.abs(v).max(axis=(1, 2)))
    M = np.zeros((nb, 2 * r, 3))
    rhs = np.zeros((nb, 2 * r))
    M[:, 0::2, 0] = 1.0
    M[:, 0::2, 2] = -v[..., 0]
    M[:, 1::2, 1] = 1.0
    M[:, 1::2, 2] = -v[..., 1]
    rhs[:, 0::2] = u[..., 0]
    rhs[:, 1::2] = u[..., 1]
    sol = _batched_solve(M, rhs)
    res_pt = np.abs((M @ sol[..., None])[..., 0] - rhs).max(axis=1)
    conc_ok = res_pt <= 1e-8 * scale4 * (1.0 + np.abs(sol[:, 2]))
    M = np.zeros((nb, 2 * r, 3))
    rhs = np.zeros((nb, 2 * r))
    M[:, 0::2, 0] = v[..., 0]
    M[:, 0::2, 1] = v[..., 1]
    rhs[:, 0::2] = 1.0
    M[:, 1::2, 0] = u[..., 0]
    M[:, 1::2, 1] = u[..., 1]
    M[:, 1::2, 2] = 1.0
    sol = _batched_solve(M, rhs)
    res_pl = np.abs((M @ sol[..., None])[..., 0] - rhs).max(axis=1)
    plane_ok = res_pl <= 1e-8 * scale4 * (1.0 + np.abs(sol).max(axis=1))
    db = B4 - B4[:, :1]
    cross = np.abs(db[..., 0] * db[:, 1:2, 1] - db[..., 1] * db[:, 1:2, 0]).max(axis=1)
    coll_ok = cross <= 1e-8 * (1.0 + np.abs(B4).max(axis=(1, 2))) ** 2
    bad = int(np.sum(~(conc_ok & plane_ok & coll_ok)))
    rep.record(bad == 0, part="collinear-preimages", trials=trials, failures=bad)
    # subsample through the module predicates
    module_ok = True
    for k in rng.integers(0, nb, size=50):
        L = phi(A4[k].tolist(), B4[k].tolist())
        cp = common_point(L)
        pl = common_plane(L)
        module_ok &= cp is not None and cp.point is not None and pl is not None
    for k in rng.integers(0, nb, size=20):
        L = phi(A[k].tolist(), B[k].tolist())
        pl = common_plane(L)
        if pl is None:
            module_ok = False
            continue
        h = reflection_at(pl)
        module_ok &= bool(np.max(np.abs(np.array(h.apply(A[k].tolist())) - B[k])) <= 1e-8)
    rep.record(bool(module_ok), part="module-predicate-agreement", trials=70)
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


def hendrickson_oracle(n_max: int = 8, trials: int = 5, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("hendrickson-oracle")
    for name, G in hendrickson_catalog(n_max):
        combinatorial = is_hendrickson(G)
        if not is_rigid_numeric(G, trials=trials, seed=seed):
            # flexible graphs are outside the oracle's domain; they are also
            # never redundant, so the combinatorial test must say no
            rep.record(combinatorial is False, graph=name, note="flexible")
            continue
        oracle = global_rigidity_oracle(G, trials=trials, seed=seed)
        rep.record(oracle == combinatorial, graph=name,
                   combinatorial=combinatorial, oracle=oracle)
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
