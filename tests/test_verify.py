import random
from fractions import Fraction

import numpy as np
import pytest

from linerig.errors import DomainError
from linerig.lines3d import (Line, LineConfig, classify_triple, common_planes, common_points,
                             meet_residual)
from linerig.verify import (_TRIPLES, SuiteReport, four_line_quadruples, four_lines,
                            lemma_3lines, lemma_complete, lemma_cong, pairwise_incident,
                            theorem_main, theorem_mainnec)


def _fraction_four_lines(trials, seed=0, tol=1e-8):
    """four-lines as it was built trial by trial: Fraction coordinates, the six
    meet_residual tests on each quadruple, float charts through as_array."""
    rep = SuiteReport("four-lines")
    cases, charts = [], []
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
        else:
            mu, nu = rng.randint(-5, 5), rng.randint(-5, 5)
            y0, z0 = rng.randint(-8, 8), rng.randint(-8, 8)
            x0 = z0 - mu * y0 - nu
            ds = rng.sample(range(-8, 9), 4)
            rows = [(x0 - (1 - mu * d) * z0, y0 - d * z0, 1 - mu * d, d) for d in ds]
        cfg = LineConfig.from_rows(rows)
        exact_zero = all(
            meet_residual(cfg[i], cfg[j]) == 0 for i in range(4) for j in range(i + 1, 4))
        cases.append((mode, exact_zero))
        charts.append([[float(x) for x in row] for row in cfg.coords()])
    X = np.array(charts).reshape(trials, 4, 4)
    _, point_found, parallel = common_points(X, tol)
    _, plane_found = common_planes(X, tol)
    for k, (mode, exact_zero) in enumerate(cases):
        point_ok = bool(point_found[k] or parallel[k])
        plane_ok = bool(plane_found[k])
        rep.record(exact_zero and (point_ok or plane_ok), instance=k, mode=mode,
                   exact_zero=exact_zero, common_point=point_ok, common_plane=plane_ok)
    return rep, X


@pytest.mark.parametrize("seed", [0, 5, 123456])
def test_four_lines_equals_the_fraction_path(seed):
    want, charts = _fraction_four_lines(500, seed)
    assert four_lines(500, seed).to_dict() == want.to_dict()
    # the one division gives the Fraction path's charts, bit for bit
    _, V, q = four_line_quadruples(500, seed)
    assert (V / q).transpose(2, 1, 0).tobytes() == charts.tobytes()
    # a looser tolerance changes nothing on either path
    assert four_lines(500, seed, tol=1e-5).to_dict() == _fraction_four_lines(500, seed, 1e-5)[0].to_dict()


def _fraction_lines(V, q, k):
    return [Line(*(Fraction(int(x), int(q[k])) for x in V[:, i, k])) for i in range(V.shape[1])]


@pytest.mark.parametrize("seed", [0, 5, 123456])
def test_pairwise_incident_equals_meet_residual(seed):
    """The int64 flags are meet_residual == 0 over all six pairs, on the suite's
    trials (all incident) and on the same trials with one coordinate moved
    (mostly not)."""
    _, V, q = four_line_quadruples(500, seed)
    moved = V.copy()
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 500, size=250)
    moved[rng.integers(0, 4, size=250), rng.integers(0, 4, size=250), picks] += rng.integers(1, 4, size=250)
    for W in (V, moved):
        flags = pairwise_incident(W)
        for k in range(500):
            lines = _fraction_lines(W, q, k)
            want = all(meet_residual(lines[i], lines[j]) == 0 for i in range(4) for j in range(i + 1, 4))
            assert flags[k] == want, k
    assert pairwise_incident(V).all() and not pairwise_incident(moved)[picks].all()


@pytest.mark.parametrize("suite, kwargs", [
    (lemma_cong, {"trials": 0}), (lemma_cong, {"trials": -3}), (four_lines, {"trials": -2}),
    (lemma_3lines, {"per_class": -1}), (lemma_complete, {"n_max": -1}),
    (lemma_complete, {"seeds": 0}), (theorem_main, {"seeds": 0}), (theorem_main, {"n_max": 1}),
    (theorem_mainnec, {"count": 0}),
])
def test_suites_reject_sizes_that_leave_nothing_to_check(suite, kwargs):
    with pytest.raises(DomainError, match="must be at least"):
        suite(**kwargs)


@pytest.mark.parametrize("seed", range(4))
def test_lemma_3lines_classifies_each_triple_once(monkeypatch, seed):
    import linerig.verify as verify
    calls = []
    classify = verify.classify_triple
    monkeypatch.setattr(verify, "classify_triple",
                        lambda *lines: calls.append(lines) or classify(*lines))
    rep = lemma_3lines(per_class=10, seed=seed)
    # five classes of ten triples, none of them redrawn at these seeds
    assert rep.to_dict() == {"failures": [], "info": {}, "ok": True, "passed": 50,
                             "suite": "lemma-3lines", "total": 50}
    assert len(calls) == 50


@pytest.mark.parametrize("tag", sorted(_TRIPLES))
def test_lemma_3lines_in_class_tests_agree_with_classify_triple(tag):
    """Each table entry's exact test keeps a draw iff classify_triple puts it in the
    class, on 1000 draws. Every pencil draw is in class; a mixed draw seldom leaves
    it, so each one is also tried with its third line moved through the point P."""
    draw, in_class, _ = _TRIPLES[tag]
    rng = random.Random(f"in-class:{tag}")
    triples = [draw(rng) for _ in range(1000)]
    if tag == "two_concurrent_mixed":
        triples += [((l1, l2, Line(P[0] - 5 * P[2], P[1] + 3 * P[2], 5, -3)), P)
                    for (l1, l2, _), P in triples]
    kept = []
    for lines, _ in triples:
        try:
            seen = classify_triple(*lines).tag
        except DomainError:
            seen = None
        kept.append(in_class(lines))
        assert kept[-1] == (seen == tag), lines
    assert all(kept) == (tag == "concurrent_and_coplanar")


def test_lemma_3lines_members_are_none_of_the_three_lines(monkeypatch):
    """Five members a triple, none of them one of its lines: coplanar draws join a
    point of line 0 to a point of line 1, which is line 0 when the second point is
    where the two lines meet."""
    import linerig.verify as verify
    seen = []
    dim = verify.transversal_family_dimension
    monkeypatch.setattr(verify, "transversal_family_dimension",
                        lambda *lines: seen.append(lines) or dim(*lines))
    assert lemma_3lines(per_class=10, seed=0).ok
    assert len(seen) == 250 and not any(m in lines for *lines, m in seen)


@pytest.mark.parametrize("fault", ["wrong tag", "DomainError"])
def test_lemma_3lines_reports_a_faulty_classifier(monkeypatch, fault):
    """A classifier that calls every coplanar_only triple concurrent_only, or raises
    DomainError on it, fails exactly those instances and says how. The call budget
    turns a suite that redraws until the classifier agrees into a failure, not a
    hang; pytest.fail raises a BaseException, which no `except Exception` swallows."""
    import dataclasses

    import linerig.verify as verify
    calls = []
    classify = verify.classify_triple

    def faulty(*lines):
        calls.append(lines)
        if len(calls) > 50:
            pytest.fail("classify_triple called more than once per triple")
        tc = classify(*lines)
        if tc.tag != "coplanar_only":
            return tc
        if fault == "DomainError":
            raise DomainError("lines 0 and 1 coincide")
        return dataclasses.replace(tc, tag="concurrent_only")

    monkeypatch.setattr(verify, "classify_triple", faulty)
    rep = lemma_3lines(per_class=10, seed=0).to_dict()
    assert rep["ok"] is False and (rep["total"], rep["passed"]) == (50, 40)
    assert [(f["cls"], f["instance"]) for f in rep["failures"]] == \
        [("coplanar_only", k) for k in range(10)]
    want = {"error": "lines 0 and 1 coincide"} if fault == "DomainError" \
        else {"classified": "concurrent_only"}
    assert all(want.items() <= f.items() for f in rep["failures"])


def test_theorem_main_ranks_each_exact_sample_once(monkeypatch):
    import linerig.numeric as numeric
    import linerig.sampler as sampler
    import linerig.verify as verify
    calls = []
    rank_exact = numeric.rank_exact

    def counted(*args, **kwargs):
        calls.append(1)
        return rank_exact(*args, **kwargs)

    # every module that holds the name, so that a direct call is counted too
    for module in (numeric, sampler, verify):
        if hasattr(module, "rank_exact"):
            monkeypatch.setattr(module, "rank_exact", counted)
    rep = theorem_main(seeds=8, n_max=30, seed=1)
    assert rep.ok and len(calls) == 8
