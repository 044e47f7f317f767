import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from helpers import (ROUNDING, lines_coincident, lines_meet, pair_scale,
                     rowmajor_common_planes, rowmajor_common_points)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linerig import verify
from linerig.errors import DomainError
from linerig.lines3d import (Line, LineConfig, Plane, TripleClass, _triple_coplanar, batch_last,
                             classify_triple, common_plane, common_point, incidence,
                             incidence_form, intersection_graph, is_exact, line_through,
                             meet_residual, pair_intersection, pair_tests, plane_kernel,
                             point_kernel, transversal, transversal_detail)


def test_meet_residual_examples():
    assert meet_residual(Line(0, 0, 0, 0), Line(0, 0, 1, 0)) == 0
    assert meet_residual(Line(0, 0, 0, 0), Line(1, 0, 0, 1)) == 1
    line = Line(3, -2, 5, 7)
    assert meet_residual(line, line) == 0


def test_meet_residual_symmetric_exactly():
    rng = random.Random(0)
    for _ in range(200):
        l1 = Line(*(rng.uniform(-5, 5) for _ in range(4)))
        l2 = Line(*(rng.uniform(-5, 5) for _ in range(4)))
        assert meet_residual(l1, l2) == meet_residual(l2, l1)


def test_intersection_graph_origin_pencil():
    cfg = LineConfig((Line(0, 0, 0, 0), Line(0, 0, 1, 0), Line(0, 0, 2, 5)))
    assert intersection_graph(cfg).edges == ((0, 1), (0, 2), (1, 2))


def test_intersection_graph_skew_pair():
    cfg = LineConfig((Line(0, 0, 0, 0), Line(1, 0, 0, 1)))
    assert intersection_graph(cfg).m == 0


def test_close_skew_lines_do_not_meet():
    """Lines 1e-5 * (1, 0, 0, 1) apart have |g| = d**2: skew at any scale, though
    |g| = 1e-10 lies far below tol."""
    for base in ((0, 0, 0, 0), (3, -2, 5, 7)):
        X = np.array([base, np.add(base, np.multiply(1e-5, (1, 0, 0, 1)))], dtype=float)
        assert [t.tolist() for t in pair_tests(X, [0], [1])] == [[False]] * 3
        assert intersection_graph(LineConfig.from_rows(X.tolist())).m == 0


def test_parallel_lines_meet():
    l1, l2 = Line(0, 0, 2, 3), Line(5, 5, 2, 3)
    assert lines_meet(l1, l2)
    tests = pair_tests(LineConfig((l1, l2)).as_array(), [0], [1])
    assert tests.meet[0] and tests.parallel[0] and not tests.coincide[0]
    assert intersection_graph(LineConfig((l1, l2))).edges == ((0, 1),)


def test_incidence_on_tuples_and_arrays():
    """One formula, coordinates first: on a 4-tuple, on a (4, ...) array, and as
    incidence_form's value on (m, 4) rows."""
    assert incidence((1, 2, 3, 4)) == 1 * 4 - 2 * 3
    assert incidence((Fraction(1, 2), 0, 0, Fraction(2, 3))) == Fraction(1, 3)
    D = np.random.default_rng(0).integers(-9, 10, size=(4, 5, 3))
    assert np.array_equal(incidence(D), D[0] * D[3] - D[1] * D[2])
    g, grad = incidence_form(D[:, :, 0].T)
    assert np.array_equal(g, incidence(D[:, :, 0]))
    assert np.array_equal(grad, D[::-1, :, 0].T * [1, -1, -1, 1])


def test_common_point_examples():
    cfg = LineConfig((Line(0, 0, 0, 0), Line(0, 0, 1, 0)))
    res = common_point(cfg)
    assert res is not None and res.point is not None
    assert max(abs(v) for v in res.point) < 1e-9
    # translates of one direction: the parallel-family flag
    par = LineConfig((Line(0, 0, 2, 3), Line(4, 1, 2, 3), Line(-2, 2, 2, 3)))
    res = common_point(par)
    assert res is not None and res.parallel and res.point is None
    # a skew pair has no common point
    assert common_point(LineConfig((Line(0, 0, 0, 0), Line(1, 0, 0, 1)))) is None


def test_common_plane_examples():
    # two meeting lines span a plane
    l1 = Line(1, 2, 1, 1)
    l2 = Line(1, 2, 2, -1)  # same point at z=0
    pl = common_plane(LineConfig((l1, l2)))
    assert pl is not None
    for line in (l1, l2):
        for t in (-2.0, 0.0, 3.0):
            x, y, z = line.point_at(t)
            assert abs(pl.height(x, y) - z) < 1e-8
    assert common_plane(LineConfig((Line(0, 0, 0, 0), Line(1, 0, 0, 1)))) is None


def test_pair_intersection():
    p = pair_intersection(Line(0, 0, 0, 0), Line(0, 0, 1, 0))
    assert p == (0, 0, 0)
    assert pair_intersection(Line(0, 0, 2, 3), Line(4, 1, 2, 3)) is None  # parallel
    assert pair_intersection(Line(0, 0, 0, 0), Line(1, 0, 0, 1)) is None  # skew


def test_classify_triple_cases():
    pencil = (Line(0, 0, 0, 0), Line(0, 0, 1, 0), Line(0, 0, 2, 5))
    tc = classify_triple(*pencil)
    assert tc.tag == "concurrent_only" and tc.family_dim == 2
    # three lines in the plane z = x with no common point
    coplanar = (Line(0, 0, 1, 0), Line(0, 5, 1, 2), Line(0, -3, 1, 7))
    tc = classify_triple(*coplanar)
    assert tc.tag == "coplanar_only" and tc.family_dim == 2 and tc.plane is not None
    skew = (Line(0, 0, 0, 0), Line(1, 0, 0, 1), Line(7, 3, 2, 9))
    tc = classify_triple(*skew)
    assert tc.tag == "pairwise_skew" and tc.family_dim == 1
    mixed = (Line(0, 0, 0, 0), Line(0, 0, 1, 0), Line(9, 4, 3, 1))
    tc = classify_triple(*mixed)
    assert tc.tag == "two_concurrent_mixed" and tc.family_dim == 1
    # three parallel lines, not in one plane: concurrent at infinity, no point
    parallel = (Line(0, 0, 1, 2), Line(1, 0, 1, 2), Line(0, 1, 1, 2))
    for trio in (parallel, _float_copy(parallel)):
        assert classify_triple(*trio) == TripleClass("concurrent_only", 2, None, None)
    repeated = (Line(1, 2, 3, 4), Line(1, 2, 3, 4), Line(0, 0, 0, 0))
    for trio in (repeated, _float_copy(repeated)):
        with pytest.raises(DomainError, match="lines 0 and 1 coincide"):
            classify_triple(*trio)
        with pytest.raises(DomainError, match="lines 1 and 2 coincide"):
            classify_triple(trio[2], *trio[:2])


def test_classify_triple_decides_exact_triples_exactly():
    """200 exact triples through a rational point, with directions from
    [-1e9, 1e9], so coordinates near 1e13: the float tests called most of them
    two_concurrent_mixed or pairwise_skew. The point witness is the exact point."""
    rng = random.Random(0)
    for _ in range(200):
        P = tuple(Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 100)) for _ in range(3))
        trio = [Line(P[0] - c * P[2], P[1] - d * P[2], c, d)
                for c, d in ((rng.randint(-10 ** 9, 10 ** 9), rng.randint(-10 ** 9, 10 ** 9))
                             for _ in range(3))]
        assert classify_triple(*trio) == TripleClass("concurrent_only", 2, P, None)


def test_transversal_concurrent_triple():
    trio = (Line(0, 0, 1, 0), Line(0, 0, 0, 1), Line(0, 0, 1, 1))
    for s in (2, -3, 5):
        tv = transversal(*trio, s)
        assert tv is not None
        for line in trio:
            assert lines_meet(tv, line, 1e-9)


def test_transversal_skew_triple_exact_residuals():
    rng = random.Random(2)
    found = 0
    while found < 50:
        trio = tuple(Line(*(Fraction(rng.randint(-15, 15)) for _ in range(4)))
                     for _ in range(3))
        if any(meet_residual(a, b) == 0 for a, b in combinations(trio, 2)):
            continue
        tv = transversal(*trio, Fraction(rng.randint(-10, 10)))
        if tv is None:
            continue
        for line in trio:
            assert meet_residual(tv, line) == 0
        found += 1


def test_transversal_degenerate_reports_reason():
    # coplanar triple: the two spanned planes coincide
    trio = (Line(0, 0, 1, 0), Line(0, 5, 1, 2), Line(0, -3, 1, 7))
    line, code = transversal_detail(*trio, 4)
    assert line is None and code == "planes-coincide"
    # s placing q on the first line
    l3 = Line(0, 0, 1, 1)
    line, code = transversal_detail(Line(0, 0, 0, 0), Line(5, 5, 1, 0), l3, 0)
    assert line is None and code == "q-on-line"


_INT_LINES = st.builds(Line, *[st.integers(-15, 15)] * 4)


@settings(max_examples=300)
@given(st.tuples(_INT_LINES, _INT_LINES, _INT_LINES), st.integers(-10, 10))
def test_exact_predicates_decide_as_their_float_copies(trio, s):
    """On small integer lines the exact branch (== 0) of each predicate the
    constructions use decides as its float branch (tol) does on the float copy."""
    floats = tuple(Line(*map(float, ln.as_tuple())) for ln in trio)
    point, fpoint = pair_intersection(*trio[:2]), pair_intersection(*floats[:2])
    assert (point is None) == (fpoint is None)
    if point is not None:
        assert list(map(float, point)) == pytest.approx(fpoint, rel=1e-12, abs=1e-12)
    assert _triple_coplanar(*trio) == _triple_coplanar(*floats)
    assert transversal_detail(*trio, s)[1] == transversal_detail(*floats, float(s))[1]
    assert _tag(trio) == _tag(floats)


def _float_copy(trio, lam=1.0):
    """The float lines of trio with every chart coordinate times lam."""
    return tuple(Line(*(float(x) * lam for x in ln.as_tuple())) for ln in trio)


def _tag(trio):
    try:
        return classify_triple(*trio).tag
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.tuples(*[st.integers(-9, 9)] * 3), st.tuples(_INT_LINES, _INT_LINES, _INT_LINES),
       st.sampled_from(["through P", "in a plane", "both"]))
def test_classify_triple_decides_meeting_lines_as_its_float_copy(P, trio, build):
    """Small integer lines moved through a common point P, into the plane
    z = x + y + P[2], or both (through P, parallel to z = x + y) classify alike
    exact and as their float copy."""
    if build != "through P":  # directions (c, d, 1) with c + d = 1, parallel to z = x + y
        trio = tuple(Line(ln.a, ln.b, 1 - ln.d, ln.d) for ln in trio)
    if build == "in a plane":  # offsets with a + b = -P[2]: in the plane z = x + y + P[2]
        trio = tuple(Line(ln.a, -P[2] - ln.a, ln.c, ln.d) for ln in trio)
    else:  # (a, b) moved so that the lines pass through P
        trio = tuple(Line(P[0] - ln.c * P[2], P[1] - ln.d * P[2], ln.c, ln.d) for ln in trio)
    assert _tag(trio) == _tag(_float_copy(trio))


def test_line_through_examples():
    assert line_through((0, 0, 0), (0, 0, 1)) == Line(0, 0, 0, 0)
    assert line_through((1, 0, 0), (1, 1, 1)) == Line(1, 0, 0, 1)
    assert line_through((0, 0, 1), (1, 0, 1)) is None
    with pytest.raises(DomainError):
        line_through((1, 2, 3), (1, 2, 3))
    # exact points a tiny distance apart: a steep line, and a horizontal one
    tiny = Fraction(1, 10 ** 400)
    assert line_through((1, 0, 0), (2, 0, tiny)) == Line(1, 0, 10 ** 400, 0)
    assert line_through((0, 0, 0), (tiny, 0, 0)) is None


def test_exact_inputs_divide_exactly():
    third = Fraction(1, 3)
    line = line_through((0, 0, 0), (1, 1, 3))
    assert line == Line(0, 0, third, third) and all(map(is_exact, line.as_tuple()))
    assert line_through((0.0, 0, 0), (1, 1, 3)).c == 1 / 3
    trio = (Line(0, 0, 1, 0), Line(1, 0, 0, 1), Line(0, 1, 2, 3))
    for s in (-2, 5):
        tv = transversal(*trio, s)
        assert all(map(is_exact, tv.as_tuple()))
        assert all(meet_residual(tv, line) == 0 for line in trio)
        assert tv == transversal(*trio, Fraction(s))
        assert all(type(x) is float for x in transversal(*trio, float(s)).as_tuple())


def test_config_json_round_trip():
    cfg = LineConfig((Line(0.5, -1.25, 3.0, 4.0), Line(1, 2, 3, 4)))
    again = LineConfig.from_json(cfg.to_json())
    assert again.as_array().tolist() == cfg.as_array().tolist()


def test_edge_residuals_match_the_scalar_reference():
    """edge_residuals is edge_measure on every pair, bit for bit, over lines whose
    magnitudes span six decades."""
    from helpers import edge_measure

    from linerig.lines3d import edge_residuals
    rng = random.Random(17)
    cfg = LineConfig.from_rows([[rng.uniform(-10, 10) * 10 ** rng.randint(0, 6) for _ in range(4)]
                                for _ in range(6)])
    pairs = list(combinations(range(6), 2))
    i, j = (np.array(v) for v in zip(*pairs))
    X = cfg.as_array()
    g = incidence((X[i] - X[j]).T)
    assert edge_residuals(g, X, i, j).tolist() == [edge_measure(r, X[a], X[b])
                                                   for r, (a, b) in zip(g.tolist(), pairs)]


TOL = 1e-8
# multiples of a threshold by which a line is moved off it
_STEPS = (0.0, 0.5, 0.9, 1.1, 2.0)


@st.composite
def _line_pairs(draw):
    """Two lines with Fraction or float coordinates of magnitude 1e-3 to 1e6: any
    two, or the first moved by multiples (see _STEPS) of a threshold: tol * its
    largest |coordinate| in every coordinate (coincide) or in its direction only
    (parallel), or tol * d**2 in its residual from a line meeting it (meet), d the
    largest coordinate difference of the two."""
    unit = Fraction(10) ** draw(st.integers(-3, 3))
    ints = st.integers(-1000, 1000)
    base = [draw(ints) * unit for _ in range(4)]

    def step(threshold):
        return draw(st.sampled_from(_STEPS)) * draw(st.sampled_from((-1, 1))) * threshold

    s = Fraction(TOL) * max(map(abs, base))
    mode = draw(st.sampled_from(("any", "coincide", "parallel", "meet")))
    if mode == "any":
        other = [draw(ints) * unit for _ in range(4)]
    elif mode == "coincide":
        other = [x + step(s) for x in base]
    elif mode == "parallel":
        other = [x * Fraction(draw(st.integers(-4, 4)), 4) for x in base[:2]]
        other += [x + step(s) for x in base[2:]]
    else:
        # through base's point at height t, then a or b moved so that the
        # residual is a multiple of tol * d**2
        t, c, d = (draw(ints) * unit for _ in range(3))
        other = [base[0] + (base[2] - c) * t, base[1] + (base[3] - d) * t, c, d]
        s = Fraction(TOL) * max(abs(x - y) for x, y in zip(base, other)) ** 2
        if base[3] != d:
            other[0] += step(s) / (d - base[3])
        elif base[2] != c:
            other[1] += step(s) / (base[2] - c)
    if draw(st.booleans()):
        return Line(*base), Line(*other)
    return Line(*map(float, base)), Line(*map(float, other))


def _exact_ratios(l1: Line, l2: Line) -> list[Fraction]:
    """The meet test's measure over tol, and the larger |direction difference| and
    the largest |coordinate difference| over tol * pair_scale, in exact arithmetic
    (0 where the lines are equal)."""
    D = [Fraction(x) - Fraction(y) for x, y in zip(l1.as_tuple(), l2.as_tuple())]
    d, big = max(map(abs, D)), Fraction(pair_scale(l1, l2))
    if not d:
        return [Fraction(0)] * 3
    return [(abs(incidence(D)) - Fraction(ROUNDING) * big * d) / (Fraction(TOL) * d * d),
            max(map(abs, D[2:])) / (Fraction(TOL) * big), d / (Fraction(TOL) * big)]


@settings(max_examples=300)
@given(_line_pairs())
def test_pair_tests_agree_with_the_scalar_references(pair):
    """pair_tests and intersection_graph give lines_meet and lines_coincident, and
    the parallel test pair_intersection made, on float pairs bit for bit and on
    Fraction pairs (whose scalar residual is exact) away from the thresholds."""
    l1, l2 = pair
    if is_exact(l1.a):
        assume(all(abs(r - 1) > Fraction(1, 10 ** 6) for r in _exact_ratios(l1, l2)))
    parallel = max(abs(float(l1.c - l2.c)), abs(float(l1.d - l2.d))) <= TOL * pair_scale(l1, l2)
    for x, y in (pair, pair[::-1]):
        cfg = LineConfig((x, y))
        tests = pair_tests(cfg.as_array(), [0], [1], TOL)
        assert [bool(t[0]) for t in tests] == [lines_meet(x, y, TOL), parallel,
                                               lines_coincident(x, y, TOL)]
        assert intersection_graph(cfg, TOL).edges == (((0, 1),) if lines_meet(x, y, TOL) else ())


def test_intersection_graph_matches_lines_meet_on_every_pair():
    rng = np.random.default_rng(4)
    X = rng.integers(-5, 6, size=(12, 4)) * 10.0 ** rng.integers(-2, 3, size=(12, 1))
    X[6:] = X[:6] + rng.choice(_STEPS, size=(6, 4)) * TOL * (1 + np.abs(X[:6]).max(axis=1, keepdims=True))
    cfg = LineConfig.from_rows(X.tolist())
    want = tuple((i, j) for i, j in combinations(range(12), 2) if lines_meet(cfg[i], cfg[j], TOL))
    assert intersection_graph(cfg, TOL).edges == want


def test_exact_intersection_graphs_equal_the_exact_meets():
    """On exact lines intersection_graph is the set of pairs with meet_residual == 0,
    found mod a prime and confirmed exactly: on exact samples (far more pairs meet
    there than G's edges), on a pair whose incidence is that prime, which is 0 mod it
    but not 0, and past a prime that divides a denominator."""
    from linerig.graphs import generate
    from linerig.modp import random_prime
    from linerig.sampler import sample_laman_lines_exact
    for n in (12, 60, 200):
        G = generate("laman_random", [n], seed=1)
        cfg = sample_laman_lines_exact(G, seed=1)
        want = tuple((a, b) for a, b in combinations(range(n), 2)
                     if meet_residual(cfg[a], cfg[b]) == 0)
        assert intersection_graph(cfg).edges == want and set(G.edges) <= set(want)
    p = random_prime(random.Random("intersection_graph"))
    assert meet_residual(Line(0, 0, 0, 0), Line(p, 0, 0, 1)) == p
    assert intersection_graph(LineConfig((Line(0, 0, 0, 0), Line(p, 0, 0, 1)))).m == 0
    lines = (Line(Fraction(1, p), 0, 0, 0), Line(0, 0, 1, 0), Line(Fraction(1, p), 5, 0, 0),
             Line(1, 0, 0, 1))
    assert intersection_graph(LineConfig(lines)).edges == ((0, 1), (0, 2))


@pytest.mark.parametrize("text", [
    '{"lines": [[0, 1, "x", 2]]}', '{"lines": [[0, 1, true, 2]]}', '[[0, 1, 2, 3]]',
    '{"lines": [[0, 1, 2]]}', '{"lines": [[NaN, 1, 2, 3]]}', '{"lines": [[Infinity, 1, 2, 3]]}',
    '{"lines": [[1' + '0' * 400 + ', 1, 2, 3]]}', '{"lines": []}', '{"other": []}',
], ids=["string", "bool", "list", "triple", "nan", "inf", "huge-int", "empty", "no-lines"])
def test_config_json_rejects_malformed(text):
    with pytest.raises(DomainError):
        LineConfig.from_json(text)


# ---------------------------------------------------------------------------
# the common point / plane array kernel against per-configuration lstsq


def _lstsq_point(X, tol=1e-8):
    """Per-configuration reference: (point or None, found, parallel) by lstsq on
    the 2n x 3 system x - c*z = a, y - d*z = b."""
    cmax = float(np.max(np.abs(X)))
    dirs = X[:, 2:4]
    if float(np.max(dirs.max(axis=0) - dirs.min(axis=0))) <= tol * cmax:
        return None, False, True
    n = X.shape[0]
    A = np.zeros((2 * n, 3))
    rhs = np.empty(2 * n)
    A[0::2, 0] = 1.0
    A[0::2, 2] = -X[:, 2]
    A[1::2, 1] = 1.0
    A[1::2, 2] = -X[:, 3]
    rhs[0::2] = X[:, 0]
    rhs[1::2] = X[:, 1]
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    resid = float(np.max(np.abs(A @ sol - rhs)))
    return sol, resid <= tol * cmax * (1 + abs(float(sol[2]))), False


def _lstsq_plane(X, tol=1e-8):
    """Per-configuration reference: (lam, mu, nu) and found, by minimum-norm lstsq
    on the 2n x 3 system lam*c + mu*d = 1, lam*a + mu*b + nu = 0 of the lines
    times the chart unit, the power of two 2**-e with max |coord| = f * 2**e and
    0.5 <= f < 1."""
    cmax = float(np.max(np.abs(X)))
    unit = np.ldexp(1.0, -np.frexp(cmax)[1])
    X = X * unit
    n = X.shape[0]
    A = np.zeros((2 * n, 3))
    rhs = np.zeros(2 * n)
    A[0::2, 0] = X[:, 2]
    A[0::2, 1] = X[:, 3]
    rhs[0::2] = 1.0
    A[1::2, 0] = X[:, 0]
    A[1::2, 1] = X[:, 1]
    A[1::2, 2] = 1.0
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    resid = float(np.max(np.abs(A @ sol - rhs)))
    sol[:2] *= unit
    return sol, resid <= tol * (1 + cmax * float(np.max(np.abs(sol[:2]))) + abs(float(sol[2])))


def _batch(kind, size, n, rng):
    """`size` configurations of n lines of one kind, as a (size, n, 4) array."""
    X = rng.uniform(-10, 10, size=(size, n, 4))
    if kind in ("concurrent", "near-parallel-concurrent"):
        if kind == "near-parallel-concurrent":
            X[..., 2:] = X[:, :1, 2:] + rng.uniform(-1e-3, 1e-3, size=(size, n, 2))
        P = rng.uniform(-5, 5, size=(size, 1, 3))
        X[..., 0] = P[..., 0] - X[..., 2] * P[..., 2]
        X[..., 1] = P[..., 1] - X[..., 3] * P[..., 2]
    elif kind == "coplanar":
        lam, mu, nu = rng.uniform(0.5, 3, size=(3, size, 1)) * rng.choice([-1, 1], size=(3, size, 1))
        X[..., 2] = (1 - mu * X[..., 3]) / lam
        X[..., 0] = -(nu + mu * X[..., 1]) / lam
    elif kind == "near-concurrent":  # residual between tol*cmax and that times 1+|z|
        P = rng.uniform(50, 100, size=(size, 1, 3)) * rng.choice([-1, 1], size=(size, 1, 3))
        X[..., 0] = P[..., 0] - X[..., 2] * P[..., 2]
        X[..., 1] = P[..., 1] - X[..., 3] * P[..., 2]
        scale = np.abs(X).max(axis=(1, 2), keepdims=True)
        X[..., :2] += rng.uniform(-20e-8, 20e-8, size=(size, n, 2)) * scale
    elif kind == "near-coplanar":  # the same, with 1 + cmax*max|lam, mu| + |nu|
        lam, mu = rng.uniform(0.5, 3, size=(2, size, 1))
        nu = rng.uniform(20, 40, size=(size, 1))
        X[..., 2] = (1 - mu * X[..., 3]) / lam
        X[..., 0] = -(nu + mu * X[..., 1]) / lam
        scale = np.abs(X).max(axis=(1, 2), keepdims=True)
        X[..., 0] += rng.uniform(-20e-8, 20e-8, size=(size, n)) * scale[..., 0]
    elif kind == "duplicate":
        X[:] = X[:, :1]
    elif kind == "vertical-plane":  # every line in the plane y = k*x + m
        k, m = rng.uniform(-3, 3, size=(2, size, 1))
        X[..., 3] = k * X[..., 2]
        X[..., 1] = k * X[..., 0] + m
    elif kind == "vertical-plane-x":  # every line in the plane x = a
        X[..., 2] = 0.0
        X[..., 0] = X[:, :1, 0]
    elif kind == "near-parallel":  # inside the parallel threshold
        X[..., 2:] = X[:, :1, 2:] + rng.uniform(-1e-10, 1e-10, size=(size, n, 2))
    elif kind == "near-parallel-open":  # outside it
        X[..., 2:] = X[:, :1, 2:] + rng.uniform(-1e-3, 1e-3, size=(size, n, 2))
    return X


KINDS = ("generic", "concurrent", "coplanar", "near-concurrent", "near-coplanar", "duplicate",
         "vertical-plane", "vertical-plane-x", "near-parallel", "near-parallel-open",
         "near-parallel-concurrent")


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_common_kernel_matches_lstsq_reference(n):
    rng = np.random.default_rng(n)
    X = np.concatenate([_batch(kind, 40, n, rng) for kind in KINDS])
    X = X[rng.permutation(len(X))]
    points, point_found, parallel = point_kernel(batch_last(X))
    planes, plane_found = plane_kernel(batch_last(X))
    for k in range(len(X)):
        sol, found, par = _lstsq_point(X[k])
        assert (bool(point_found[k]), bool(parallel[k])) == (found, par), k
        if not par:
            assert np.abs(points[:, k] - sol).max() <= 1e-9 * (1.0 + np.abs(sol).max()), k
        sol, found = _lstsq_plane(X[k])
        assert bool(plane_found[k]) == found, k
        assert np.abs(planes[:, k] - sol).max() <= 1e-9 * (1.0 + np.abs(sol).max()), k


@pytest.mark.parametrize("batch", [1, 7, 50])
@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_batch_last_kernels_match_the_row_major_oracle(n, batch):
    """The (4, n, batch) kernels give the masks of the row-major kernels they
    replaced, and values within 1e-12 of them (relative to 1 + the largest
    |value|), compared in the kernels' (3, batch) layout; points are compared
    where the lines are not all parallel."""
    rng = np.random.default_rng(10 * n + batch)
    for kind in KINDS:
        X = _batch(kind, batch, n, rng)
        points, point_found, parallel = point_kernel(batch_last(X))
        planes, plane_found = plane_kernel(batch_last(X))
        want_points, want_point_found, want_parallel = rowmajor_common_points(X)
        want_planes, want_plane_found = rowmajor_common_planes(X)
        assert np.array_equal(point_found, want_point_found), kind
        assert np.array_equal(parallel, want_parallel), kind
        assert np.array_equal(plane_found, want_plane_found), kind
        pairs = ((points[:, ~parallel], want_points[~parallel].T), (planes, want_planes.T))
        for got, want in pairs:
            gap = np.abs(got - want).max(axis=0, initial=0.0)
            assert np.all(gap <= 1e-12 * (1.0 + np.abs(want).max(axis=0, initial=0.0))), kind


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=60)
@given(st.data(), st.integers(2, 12), st.integers(2, 9))
def test_kernel_on_a_batch_equals_the_kernel_on_each_item(data, n, size):
    """Bit for bit, whatever the batch around a configuration: numpy sums the
    lines of a lone configuration in the order it sums those of a batch."""
    kind = data.draw(st.sampled_from(KINDS + ("drawn",)))
    if kind == "drawn":
        X = data.draw(hnp.arrays(float, (size, n, 4), elements=st.floats(-1e3, 1e3, width=32)))
    else:
        X = _batch(kind, size, n, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    points, planes = point_kernel(batch_last(X)), plane_kernel(batch_last(X))
    for k in range(size):
        one = batch_last(X[k])
        assert _bits(*point_kernel(one)) == _bits(*(a[..., k:k + 1] for a in points)), k
        assert _bits(*plane_kernel(one)) == _bits(*(a[..., k:k + 1] for a in planes)), k


def test_kernels_read_batch_last_arrays():
    """point_kernel and plane_kernel take the (4, n, batch) layout of batch_last,
    a strided view of the (batch, n, 4) rows; a contiguous copy of it gives the
    same bits as the view."""
    X = _batch("concurrent", 6, 5, np.random.default_rng(8))
    X0 = X.copy()
    V = batch_last(X)
    assert V.shape == (4, 5, 6) and np.shares_memory(V, X)
    C = np.ascontiguousarray(V)
    assert _bits(*point_kernel(V)) == _bits(*point_kernel(C))
    assert _bits(*plane_kernel(V)) == _bits(*plane_kernel(C))
    for view in (V, C):
        assert np.array_equal(view, batch_last(X0))  # the kernels do not write to their input
    # an empty batch has empty answers
    points, found, parallel = point_kernel(batch_last(np.zeros((0, 3, 4))))
    assert points.shape == (3, 0) and found.shape == parallel.shape == (0,)
    planes, found = plane_kernel(batch_last(np.zeros((2, 0, 3, 4))))
    assert planes.shape == (3, 0) and found.shape == (0,)


def test_common_point_kernel_near_parallel_matches_exact_least_squares():
    """Directions 1e-6 apart: the kernel's closed-form z stays at the float floor
    of the exact rational least-squares point."""
    rng = np.random.default_rng(5)
    X = _batch("generic", 50, 4, rng)
    X[..., 2:] = X[:, :1, 2:] + rng.uniform(-1e-6, 1e-6, size=(50, 4, 2))
    points, _, parallel = point_kernel(batch_last(X))
    assert not parallel.any()
    for k in range(len(X)):
        a, b, c, d = ([Fraction(v) for v in X[k, :, col]] for col in range(4))
        mean = [sum(v) / 4 for v in (a, b, c, d)]
        num = sum((ai - mean[0]) * (ci - mean[2]) + (bi - mean[1]) * (di - mean[3])
                  for ai, bi, ci, di in zip(a, b, c, d))
        den = sum((ci - mean[2]) ** 2 + (di - mean[3]) ** 2 for ci, di in zip(c, d))
        z = -num / den
        exact = np.array([float(mean[0] + mean[2] * z), float(mean[1] + mean[3] * z), float(z)])
        assert np.abs(points[:, k] - exact).max() <= 1e-12 * (1.0 + np.abs(exact).max()), k


def test_common_wrappers_read_the_kernel():
    """common_point and common_plane give, bit for bit, the kernel's answer for
    their configuration inside a batch."""
    rng = np.random.default_rng(3)
    X = np.array([[0.0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 2, 5]])
    cfg = LineConfig.from_rows(X.tolist())
    points, found, _ = point_kernel(batch_last(np.stack([X, rng.normal(size=X.shape)])))
    assert found[0] and common_point(cfg).point == tuple(points[:, 0].tolist())
    Y = np.array([[1.0, 2, 1, 1], [1, 2, 2, -1]])
    planes, found = plane_kernel(batch_last(np.stack([rng.normal(size=Y.shape), Y])))
    assert found[1]
    assert common_plane(LineConfig.from_rows(Y.tolist())) == Plane(*planes[:, 1].tolist())
    with pytest.raises(DomainError):
        common_point(LineConfig.from_rows([[0, 0, 0, 0]]))
    with pytest.raises(DomainError):
        common_plane(cfg, tol=0)


# the kinds whose verdicts are not on a threshold
_DECIDED_KINDS = tuple(kind for kind in KINDS if kind not in ("near-concurrent", "near-coplanar"))


@settings(max_examples=60, deadline=None)
@given(st.integers(-12, 12), st.integers(0, 2 ** 32 - 1))
def test_float_predicates_decide_alike_at_every_chart_scale(k, seed):
    """Every chart coordinate times lam = 10**k is the affine map (x, y, z) ->
    (lam x, lam y, z), which moves no incidence: the kernels' masks are those at
    lam = 1, a float copy of each lemma-3lines draw keeps its class, and a float
    copy of a skew integer triple gets the exact path's transversal code."""
    lam = 10.0 ** k
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    X = np.concatenate([_batch(kind, 4, n, rng) for kind in _DECIDED_KINDS])
    for kernel in (point_kernel, plane_kernel):
        for want, got in zip(kernel(batch_last(X))[1:], kernel(batch_last(X * lam))[1:]):
            assert np.array_equal(want, got), kernel.__name__
    r = random.Random(seed)
    for tag, (draw, in_class, _) in verify._TRIPLES.items():
        lines, _ = draw(r)
        while not in_class(lines):
            lines, _ = draw(r)
        assert classify_triple(*_float_copy(lines, lam)).tag == tag
    for _ in range(5):
        trio = tuple(Line(*(r.randint(-15, 15) for _ in range(4))) for _ in range(3))
        if not any(meet_residual(a, b) == 0 for a, b in combinations(trio, 2)):
            s = r.randint(-10, 10)
            assert transversal_detail(*_float_copy(trio, lam), float(s))[1] == \
                transversal_detail(*trio, s)[1]


def test_is_exact():
    assert is_exact(3) and is_exact(Fraction(1, 3))
    assert not is_exact(True) and not is_exact(0.5) and not is_exact(np.int64(2))
