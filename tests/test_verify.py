import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from linerig.elekes_sharir import PlanarMotion, Rotation, reflection_at, rotation_at, to_line
from linerig.errors import DomainError
from linerig.graphs import Graph
from linerig.lines3d import (Line, LineConfig, batch_last, classify_triple, meet_residual,
                             pair_intersection, plane_kernel, point_kernel)
from linerig.verify import (_TRIPLES, SuiteReport, _random_tree_plus_edge, four_line_quadruples,
                            four_lines, lemma_3lines, lemma_complete, lemma_cong,
                            pairwise_incident, theorem_main, theorem_mainnec)


def _fraction_lines(V, q, k):
    return [Line(*(Fraction(int(x), int(q[k])) for x in V[:, i, k])) for i in range(V.shape[1])]


def _fraction_four_lines(trials, seed=0, tol=1e-8):
    """four-lines trial by trial on the suite's draw: each quadruple's integer rows
    rebuilt in Fractions, the six meet_residual tests on it, float charts by
    float(Fraction) through point_kernel and plane_kernel."""
    modes, V, q = four_line_quadruples(trials, seed)
    rep = SuiteReport("four-lines")
    cases, charts = [], []
    for k, mode in enumerate(modes):
        lines = _fraction_lines(V, q, k)
        exact_zero = all(meet_residual(a, b) == 0 for a, b in combinations(lines, 2))
        cases.append((mode, exact_zero))
        charts.append([[float(x) for x in row] for row in LineConfig(tuple(lines)).coords()])
    X = np.array(charts).reshape(trials, 4, 4)
    _, point_found, parallel = point_kernel(batch_last(X), tol)
    _, plane_found = plane_kernel(batch_last(X), tol)
    for k, (mode, exact_zero) in enumerate(cases):
        point_ok = bool(point_found[k] or parallel[k])
        plane_ok = bool(plane_found[k])
        rep.record(exact_zero and (point_ok or plane_ok), instance=k, mode=mode,
                   exact_zero=exact_zero, common_point=point_ok, common_plane=plane_ok)
    return rep, X


@pytest.mark.parametrize("seed", [0, 5, 123456])
def test_four_lines_equals_the_fraction_path(seed):
    want, charts = _fraction_four_lines(500, seed)
    assert want.ok and four_lines(500, seed).to_dict() == want.to_dict()
    # the one division gives the Fraction path's charts, bit for bit
    _, V, q = four_line_quadruples(500, seed)
    assert (V / q).transpose(2, 1, 0).tobytes() == charts.tobytes()
    # a looser tolerance changes nothing on either path
    assert four_lines(500, seed, tol=1e-5).to_dict() == _fraction_four_lines(500, seed, 1e-5)[0].to_dict()


def _integers(values, low, high):
    return all(Fraction(v).denominator == 1 and low <= v <= high for v in values)


@pytest.mark.parametrize("seed", [0, 5, 123456])
def test_four_line_quadruples_draw(seed):
    """Each trial's mode and draw, read back exactly from its lines: concurrent
    lines through an integer point P in [-20, 20]^3 with distinct directions in
    [-20, 20]^2; coplanar lines of the plane z = lam*x + mu*y + nu, lam != 0 and
    q == |lam|, with distinct d and distinct b in [-12, 12]; a pencil through
    (x0, y0, z0) in the plane z = x + mu*y + nu with distinct d in [-8, 8]. No
    quadruple holds a line twice."""
    modes, V, q = four_line_quadruples(1000, seed)
    assert modes == ["pencil" if k % 10 == 9 else ("concurrent" if k % 2 == 0 else "coplanar")
                     for k in range(1000)]
    assert V.shape == (4, 4, 1000) and V.dtype == q.dtype == np.int64 and q.shape == (1000,)
    for k, mode in enumerate(modes):
        lines = _fraction_lines(V, q, k)
        a, b, c, d = zip(*(ln.as_tuple() for ln in lines))
        assert len(set(lines)) == 4, k
        if mode == "coplanar":
            # the plane through lines 0 and 1, whose d differ
            det = c[0] * d[1] - c[1] * d[0]
            lam, mu = (d[1] - d[0]) / det, (c[0] - c[1]) / det
            nu = -(lam * a[0] + mu * b[0])
            assert _integers((lam, mu, nu), -6, 6) and lam != 0 and q[k] == abs(lam), k
            assert all(lam * ln.c + mu * ln.d == 1 and lam * ln.a + mu * ln.b + nu == 0
                       for ln in lines), k
            assert len(set(d)) == len(set(b)) == 4 and _integers(d + b, -12, 12), k
            continue
        assert q[k] == 1
        P = pair_intersection(lines[0], lines[1])
        assert all(ln.point_at(P[2]) == P for ln in lines), k
        if mode == "concurrent":
            assert _integers(P, -20, 20) and _integers(c + d, -20, 20), k
            assert len(set(zip(c, d))) == 4, k
        else:
            mu = (c[1] - c[0]) / (d[0] - d[1])
            nu = P[2] - P[0] - mu * P[1]
            assert _integers((mu, nu), -5, 5) and _integers(P[1:], -8, 8), k
            assert all(ln.c == 1 - mu * ln.d for ln in lines), k
            assert len(set(d)) == 4 and _integers(d, -8, 8), k


def test_four_line_quadruples_repeat_for_a_seed():
    first, again, other = (four_line_quadruples(1000, s) for s in (11, 11, 12))
    assert first[0] == again[0]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first[1:], again[1:]))
    assert first[1].tobytes() != other[1].tobytes()


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
    """One exact-certificate rank (numeric._residue_rank, from the coordinates'
    residues) per sample, and no rank_exact of a built Jacobian."""
    import linerig.numeric as numeric
    import linerig.verify as verify
    calls = []
    residue_rank = numeric._residue_rank

    def counted(*args, **kwargs):
        calls.append(1)
        return residue_rank(*args, **kwargs)

    def built(*args, **kwargs):
        raise AssertionError("rank_exact called on a certificate's Jacobian")

    monkeypatch.setattr(numeric, "_residue_rank", counted)
    # every module that holds the name, so that a direct call fails too
    for module in (numeric, verify):
        monkeypatch.setattr(module, "rank_exact", built)
    rep = theorem_main(seeds=8, n_max=30, seed=1)
    assert rep.ok and len(calls) == 8


def test_random_tree_plus_edge_draws_rng_choice_of_the_non_edges():
    """The extra edge is rng.choice on the listed non-edges, the same _randbelow
    draw: the same graph, and the rng left in the same state, for n = 4-10."""
    def listed(n, rng):
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges.append(rng.choice([(u, v) for u in range(n) for v in range(u + 1, n)
                                 if (u, v) not in edges]))
        return Graph.from_edges(n, edges)

    for n in range(4, 11):
        for seed in range(50):
            got, want = random.Random(seed), random.Random(seed)
            assert _random_tree_plus_edge(n, got) == listed(n, want), (n, seed)
            assert got.getstate() == want.getstate(), (n, seed)


def _rotation_t_off(point):
    rot = rotation_at(point)
    return dataclasses.replace(rot, t=rot.t * (1 + 1e-6))


def _reflection_translation_negated(plane):
    h = reflection_at(plane)
    return dataclasses.replace(h, translation=tuple(-x for x in h.translation))


def _to_line_cd_swapped(a, b):
    line = to_line(a, b)
    return Line(line.a, line.b, line.d, line.c)


@pytest.mark.parametrize("name, perturbed, parts", [
    ("rotation_at", _rotation_t_off, {"rotation-recovery"}),
    ("reflection_at", _reflection_translation_negated,
     {"reflection-recovery", "module-predicate-agreement"}),
    ("to_line", _to_line_cd_swapped,
     {"distance-incidence", "distance-incidence-module-agreement", "rotation-recovery",
      "reflection-recovery", "collinear-preimages"}),
])
def test_lemma_cong_checks_the_library_formulas(monkeypatch, name, perturbed, parts):
    """lemma-cong recovers motions through elekes_sharir's own rotation_at and
    reflection_at, and takes its incidences through to_line: a perturbed copy of
    either fails the parts that read it."""
    import linerig.verify as verify
    monkeypatch.setattr(verify, name, perturbed)
    rep = lemma_cong(5000, 0)
    assert not rep.ok and {f["part"] for f in rep.failures} == parts


def _first_coordinate_off(apply):
    def perturbed(self, p):
        x, y = apply(self, p)
        return x * (1 + 1e-6), y
    return perturbed


@pytest.mark.parametrize("motion, parts", [
    (Rotation, {"rotation-recovery"}),
    (PlanarMotion, {"reflection-recovery", "module-predicate-agreement"}),
])
def test_lemma_cong_applies_the_library_motions(monkeypatch, motion, parts):
    """lemma-cong takes the images of the motions it recovers from their own apply:
    a perturbed Rotation.apply or PlanarMotion.apply fails exactly the parts that
    recover that kind of motion."""
    monkeypatch.setattr(motion, "apply", _first_coordinate_off(motion.apply))
    rep = lemma_cong(5000, 0)
    assert not rep.ok and {f["part"] for f in rep.failures} == parts


def _cong_records(monkeypatch, trials, seed, block=None):
    """repr of every record call of lemma_cong(trials, seed), worst included, with
    the block size patched to block."""
    import linerig.verify as verify
    calls = []
    record = SuiteReport.record
    monkeypatch.setattr(SuiteReport, "record",
                        lambda self, ok, **detail: calls.append(repr((ok, detail))) or
                        record(self, ok, **detail))
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK", block)
    rep = lemma_cong(trials, seed)
    monkeypatch.undo()
    assert len(calls) == 6 and rep.ok
    return calls


@pytest.mark.parametrize("trials", [1, 2, 4095, 4096, 4097, 8193])
def test_lemma_cong_does_not_depend_on_the_block_size(monkeypatch, trials):
    """The blocks cover every trial once, in order, and every record, worst
    included, is the same with blocks of 1 and 7 trials and with one block of all
    trials as with the default; blocks of 1 (slow) at one seed."""
    import linerig.verify as verify
    for block in (1, 7, verify._BLOCK, trials):
        monkeypatch.setattr(verify, "_BLOCK", block)
        assert [k for s in verify._blocks(trials) for k in range(trials)[s]] == list(range(trials))
    monkeypatch.undo()
    for seed in (0, 1, 2):
        want = _cong_records(monkeypatch, trials, seed, block=trials)
        blocks = (None, 7, 1) if seed == 0 else (None, 7)
        assert all(_cong_records(monkeypatch, trials, seed, b) == want for b in blocks), seed


def test_lemma_cong_keeps_a_fault_of_its_first_block(monkeypatch):
    """A wrong first trial fails each part although the later blocks pass: the
    incidence residual of trial 0 off by one, and the first line of trial 0 moved
    in the first block of each recovery part."""
    import linerig.verify as verify
    calls = []
    incidence, to_line = verify.incidence, verify.to_line

    def off_by_one(D):
        g = incidence(D)
        if not calls:
            g[0] += 1
        calls.append("incidence")
        return g

    def moved(a, b):
        line = to_line(a, b)
        if np.ndim(line.a) == 2:  # a recovery part's (n, block) lines, not _incidence_gap's
            calls.append("to_line")
            if calls.count("to_line") in (1, 4, 7):  # three blocks a part
                for x in line.as_tuple():
                    x[0, 0] += 0.5
        return line

    monkeypatch.setattr(verify, "_BLOCK", 7)
    monkeypatch.setattr(verify, "incidence", off_by_one)
    monkeypatch.setattr(verify, "to_line", moved)
    failures = {f["part"]: f for f in lemma_cong(15, 0).failures}
    assert calls.count("to_line") == 9
    assert set(failures) == {"distance-incidence", "rotation-recovery", "reflection-recovery",
                             "collinear-preimages"}
    assert failures["rotation-recovery"]["worst"] > 1e-9 < failures["reflection-recovery"]["worst"]
    assert failures["collinear-preimages"]["failures"] == 1
