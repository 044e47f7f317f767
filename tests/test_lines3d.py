import random
from fractions import Fraction
from itertools import combinations

import pytest

from linerig.errors import DomainError
from linerig.lines3d import (Line, LineConfig, classify_triple, common_plane,
                             common_point, intersection_graph, line_through,
                             lines_meet, meet_residual, pair_intersection,
                             transversal, transversal_detail)


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


def test_parallel_lines_meet():
    assert lines_meet(Line(0, 0, 2, 3), Line(5, 5, 2, 3))


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
    with pytest.raises(DomainError, match="coincide"):
        classify_triple(Line(1, 2, 3, 4), Line(1, 2, 3, 4), Line(0, 0, 0, 0))


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


def test_line_through_examples():
    assert line_through((0, 0, 0), (0, 0, 1)) == Line(0, 0, 0, 0)
    assert line_through((1, 0, 0), (1, 1, 1)) == Line(1, 0, 0, 1)
    assert line_through((0, 0, 1), (1, 0, 1)) is None
    with pytest.raises(DomainError):
        line_through((1, 2, 3), (1, 2, 3))


def test_config_json_round_trip():
    cfg = LineConfig((Line(0.5, -1.25, 3.0, 4.0), Line(1, 2, 3, 4)))
    again = LineConfig.from_json(cfg.to_json())
    assert again.as_array().tolist() == cfg.as_array().tolist()


def test_edge_scales_match_pair_scale():
    import numpy as np
    from linerig.lines3d import edge_scales, pair_scale
    rng = random.Random(17)
    cfg = LineConfig.from_rows([[rng.uniform(-10, 10) * 10 ** rng.randint(0, 6) for _ in range(4)]
                                for _ in range(6)])
    pairs = list(combinations(range(6), 2))
    i, j = (np.array(v) for v in zip(*pairs))
    assert edge_scales(cfg.as_array(), i, j).tolist() == [pair_scale(cfg[a], cfg[b]) for a, b in pairs]


@pytest.mark.parametrize("text", [
    '{"lines": [[0, 1, "x", 2]]}', '{"lines": [[0, 1, true, 2]]}', '[[0, 1, 2, 3]]',
    '{"lines": [[0, 1, 2]]}', '{"lines": [[NaN, 1, 2, 3]]}', '{"lines": [[Infinity, 1, 2, 3]]}',
    '{"lines": [[1' + '0' * 400 + ', 1, 2, 3]]}', '{"lines": []}', '{"other": []}',
], ids=["string", "bool", "list", "triple", "nan", "inf", "huge-int", "empty", "no-lines"])
def test_config_json_rejects_malformed(text):
    with pytest.raises(DomainError):
        LineConfig.from_json(text)
