import math
import random
from fractions import Fraction

import numpy as np
import pytest

from linerig.elekes_sharir import (PlanarMotion, Rotation, from_line, parse_pair_file, phi,
                                   recover_motion, reflection_at, rotation_at,
                                   serialize_pair_file, to_line)
from linerig.errors import CongruenceError, DomainError
from linerig.graphs import generate
from linerig.lines3d import Line, common_plane, common_point, meet_residual
from linerig.sampler import sample_congruent_pair


def test_to_line_examples():
    assert to_line((0, 0), (2, 0)) == Line(1.0, 0.0, 0.0, 1.0)
    assert to_line((3, 4), (3, 4)) == Line(3.0, 4.0, 0.0, 0.0)
    assert to_line((1, 0), (-1, 0)) == Line(0.0, 0.0, 0.0, -1.0)


def test_to_line_rotation_point_convention():
    # quarter turn about (1, 1) maps (0,0) to (2,0); its line carries (1, 1, cot(pi/4))
    line = to_line((0, 0), (2, 0))
    x, y, z = line.point_at(1.0)
    assert (x, y, z) == (1.0, 1.0, 1.0)
    rot = rotation_at((x, y, z))
    assert abs(rot.theta - math.pi / 2) < 1e-12
    image = rot.apply((0, 0))
    assert abs(image[0] - 2) < 1e-12 and abs(image[1]) < 1e-12


def test_to_line_on_arrays_matches_to_line_per_pair():
    """to_line on (2, n, batch) float and int point arrays is to_line on each pair,
    bit for bit: the float pairs give its floats, the int pairs the floats of its
    exact Fractions."""
    rng = np.random.default_rng(4)
    for A, B in (rng.uniform(-10, 10, size=(2, 2, 3, 5)),
                 rng.integers(-1000, 1001, size=(2, 2, 3, 5))):
        X = np.array(to_line(A, B).as_tuple())
        assert X.shape == (4, 3, 5) and X.dtype == float
        for k in np.ndindex(3, 5):
            line = to_line(A[(slice(None), *k)].tolist(), B[(slice(None), *k)].tolist())
            assert tuple(X[(slice(None), *k)]) == tuple(map(float, line.as_tuple()))


def test_motions_apply_to_arrays_as_to_each_point():
    """Rotation.apply and PlanarMotion.apply on a (2, n, batch) point array are their
    images of each point, bit for bit, and Fraction points have Fraction images."""
    rng = np.random.default_rng(9)
    P = rng.uniform(-10, 10, size=(2, 4, 6))
    c, s = math.cos(0.7), math.sin(0.7)
    motions = (rotation_at((1.5, -2.0, 0.3)), PlanarMotion(((c, s), (s, -c)), (2.0, -1.0)))
    for motion in motions:
        image = np.array(motion.apply(P))
        assert image.shape == P.shape
        for k in np.ndindex(4, 6):
            assert tuple(image[(slice(None), *k)]) == motion.apply(tuple(P[(slice(None), *k)]))
    # a batch of rotations, as rotation_at gives for a (3, batch) array of points
    rots = rotation_at(rng.uniform(-3, 3, size=(3, 6)))
    image = np.array(rots.apply(P))
    for i, j in np.ndindex(4, 6):
        one = rotation_at((rots.center[0][j], rots.center[1][j], rots.t[j]))
        assert tuple(image[:, i, j]) == one.apply(tuple(P[:, i, j]))
    F = Fraction
    exact = (Rotation((F(1, 2), F(-3)), F(2, 7)),
             PlanarMotion(((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))), (F(1), F(-2, 3))))
    for motion in exact:
        image = motion.apply((F(7, 3), F(-1, 4)))
        assert all(type(x) is F for x in image)
    # a quarter turn about (1, 1), and the reflection in y = 0 moved by (2, 0)
    assert Rotation((F(1), F(1)), F(1)).apply((F(0), F(0))) == (2, 0)
    assert PlanarMotion(((1, 0), (0, -1)), (F(2), F(0))).apply((F(1), F(3))) == (3, -3)


def test_from_line_examples():
    assert from_line(Line(1, 0, 0, 1)) == ((0, 0), (2, 0))
    assert from_line(Line(3, 4, 0, 0)) == ((3, 4), (3, 4))


def test_round_trip_random():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-100, 100, size=(5000, 4))
    worst = 0.0
    for ax, ay, bx, by in pts:
        line = to_line((ax, ay), (bx, by))
        (a, b) = from_line(line)
        worst = max(worst, abs(a[0] - ax), abs(a[1] - ay), abs(b[0] - bx), abs(b[1] - by))
    assert worst <= 1e-12 * 100


def test_rotation_at_examples():
    rot = rotation_at((0, 0, 0))
    assert abs(rot.theta - math.pi) < 1e-12
    img = rot.apply((2, 1))
    assert abs(img[0] + 2) < 1e-12 and abs(img[1] + 1) < 1e-12
    rot = rotation_at((1, 1, 1))
    assert abs(rot.theta - math.pi / 2) < 1e-12


def test_rotation_consistency_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = rng.uniform(-10, 10, 2)
        b = rng.uniform(-10, 10, 2)
        t = rng.uniform(-8, 8)
        point = to_line(a, b).point_at(t)
        img = rotation_at(point).apply(a)
        assert max(abs(img[0] - b[0]), abs(img[1] - b[1])) <= 1e-9


def test_phi_examples():
    p = [(0, 0), (1, 2), (-3, 4)]
    vert = phi(p, p)
    assert all(line.c == 0 and line.d == 0 for line in vert.lines)
    # rotation image: lines concurrent at the rotation's parameter point
    theta = 1.1
    c, s = math.cos(theta), math.sin(theta)
    q = [(c * x - s * y + 3, s * x + c * y - 2) for x, y in p]
    res = common_point(phi(p, q))
    assert res is not None and res.point is not None
    # reflection across the x-axis: lines (x_i, 0, y_i, 0)
    refl = phi(p, [(x, -y) for x, y in p])
    for (x, y), line in zip(p, refl.lines):
        assert line == Line(x, 0.0, y, 0.0)


def test_phi_size_mismatch():
    with pytest.raises(DomainError):
        phi([(0, 0)], [(0, 0), (1, 1)])


def test_no_intersection_rule():
    rng = random.Random(5)
    for _ in range(300):
        a = (rng.randint(-50, 50), rng.randint(-50, 50))
        b = (rng.randint(-50, 50), rng.randint(-50, 50))
        c = (rng.randint(-50, 50), rng.randint(-50, 50))
        if b == c:
            continue
        assert meet_residual(to_line(a, b), to_line(a, c)) != 0


def test_distance_incidence_equivalence_integer_exact():
    rng = random.Random(6)
    for _ in range(2000):
        a, b, c, d = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(4)]
        g = meet_residual(to_line(a, b), to_line(c, d))
        same = (a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2 == (b[0] - d[0]) ** 2 + (b[1] - d[1]) ** 2
        assert (g == 0) == same


def test_recover_motion_rotation_matches_rotation_at():
    rng = np.random.default_rng(2)
    A = rng.uniform(-10, 10, (6, 2))
    theta = 0.77
    c, s = math.cos(theta), math.sin(theta)
    center = np.array([1.5, -2.0])
    B = (A - center) @ np.array([[c, s], [-s, c]]) + center
    motion = recover_motion(A, B, orientation=1)
    assert motion.orientation == 1
    assert np.max(np.abs(np.array(motion.apply(A.T)).T - B)) <= 1e-9
    point = common_point(phi(A.tolist(), B.tolist())).point
    rot = rotation_at(point)
    assert np.max(np.abs(np.array(rot.apply(A.T)).T - B)) <= 1e-9
    assert abs(rot.theta - theta) < 1e-9


def test_recover_motion_reflection():
    rng = np.random.default_rng(3)
    A = rng.uniform(-10, 10, (5, 2))
    B = np.column_stack([A[:, 0] + 2, -A[:, 1]])
    motion = recover_motion(A, B, orientation=-1)
    assert motion.orientation == -1
    assert np.max(np.abs(np.array(motion.apply(A.T)).T - B)) <= 1e-9


def test_recover_motion_translation_limit():
    A = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    B = A + np.array([3.0, -4.0])
    motion = recover_motion(A, B, orientation=1)
    assert np.allclose(motion.matrix, np.eye(2))
    assert motion.translation == (3.0, -4.0)
    # translations transform to parallel lines
    res = common_point(phi(A.tolist(), B.tolist()))
    assert res is not None and res.parallel


def test_recover_motion_collinear_both_orientations():
    A = [(float(t), float(2 * t)) for t in range(5)]
    theta = 0.4
    c, s = math.cos(theta), math.sin(theta)
    B = [(c * x - s * y + 1, s * x + c * y - 2) for x, y in A]
    for orientation in (1, -1):
        motion = recover_motion(A, B, orientation=orientation)
        assert np.max(np.abs(np.array(motion.apply(np.transpose(A))).T - np.array(B))) <= 1e-9


def test_recover_motion_rejects_non_congruent():
    with pytest.raises(CongruenceError) as err:
        recover_motion([(0, 0), (1, 0)], [(0, 0), (5, 0)])
    assert err.value.pair == (0, 1)


def test_recover_motion_is_scale_free():
    """Congruence is held to tol * max |coordinate|, with no 1 + in it: triangles
    with sides (1, 3, sqrt 10) and (5, 1, sqrt 26) are told apart, and
    sample_congruent_pair's pairs recover, at every scale from 1e-14 to 1e8."""
    A, B = np.array([(0, 0), (1, 0), (0, 3)]), np.array([(0, 0), (5, 0), (0, 1)])
    G = generate("cycle", [6])
    pairs = [(o, *sample_congruent_pair(G, orientation=o, seed=s)) for o in (1, -1) for s in (0, 1)]
    for scale in (10.0 ** k for k in range(-14, 9)):
        with pytest.raises(CongruenceError) as err:
            recover_motion(A * scale, B * scale)
        assert err.value.pair == (0, 1)
        for orientation, p, q in pairs:
            motion = recover_motion(p * scale, q * scale, orientation=orientation)
            assert motion.orientation == orientation
            assert np.abs(np.array(motion.apply(p.T * scale)).T - q * scale).max() <= 1e-9 * scale


def test_recover_motion_reports_the_first_violating_pair():
    # B is A turned a quarter, but for point 3, turned about point 0 instead: the
    # pairs (1, 3) and (2, 3) violate, and (1, 3) comes first in order
    A = [(0, 0), (4, 0), (0, 3), (4, 3)]
    B = [(0, 0), (0, 4), (-3, 0), (5, 0)]
    with pytest.raises(CongruenceError) as err:
        recover_motion(A, B)
    assert err.value.pair == (1, 3)
    assert str(err.value) == "points 1 and 3 have distances 3 vs 6.40312"


def test_reflection_at_plane():
    # glide along the x-axis: plane z = y
    from linerig.lines3d import Plane
    motion = reflection_at(Plane(0.0, 1.0, 0.0))
    assert motion.orientation == -1
    P = np.array([(0, 1), (0, 1)])  # the points (0, 0) and (1, 1), coordinates first
    image = np.array(motion.apply(P))
    assert np.allclose(image, [(2, 3), (0, -1)])
    lines = phi(P.T.tolist(), image.T.tolist())
    pl = common_plane(lines)
    assert pl is not None and abs(pl.mu - 1) < 1e-9 and abs(pl.lam) < 1e-9


def test_both_predicates_succeed_only_for_collinear_preimages():
    # non-collinear rotation pairs: concurrent but not coplanar; reflections: the reverse
    rng = np.random.default_rng(4)
    for _ in range(50):
        A = rng.uniform(-10, 10, (4, 2))
        db = A - A[0]
        if abs(db[1, 0] * db[2, 1] - db[1, 1] * db[2, 0]) < 1.0:
            continue  # nearly collinear draw, skip
        theta = rng.uniform(0.3, 5.9)
        c, s = math.cos(theta), math.sin(theta)
        center = rng.uniform(-3, 3, 2)
        B = (A - center) @ np.array([[c, s], [-s, c]]) + center
        img = phi(A.tolist(), B.tolist())
        assert common_point(img).point is not None
        assert common_plane(img) is None
        Brev = np.column_stack([A[:, 0], -A[:, 1]]) + rng.uniform(-3, 3, 2)
        img = phi(A.tolist(), Brev.tolist())
        assert common_plane(img) is not None
        assert common_point(img) is None


def test_pair_file_round_trip():
    p = [(0.5, 1.0), (2.0, -3.0)]
    q = [(1.0, 1.0), (0.0, 0)]
    text = serialize_pair_file(p, q)
    p2, q2 = parse_pair_file(text)
    assert p2 == [(0.5, 1.0), (2.0, -3.0)] and q2 == [(1.0, 1.0), (0.0, 0.0)]
