"""Transform between ordered planar point pairs and non-horizontal lines in 3-space.

The pair (a, b) maps to the locus of plane rotations sending a to b: with
u = (a + b)/2 and v = rot90ccw(b - a)/2, that locus is the line
t -> (u + t v, t), i.e. the chart point (u_x, u_y, v_x, v_y). The height t of a
point on the line is cot(theta/2) of the rotation it represents. The key
algebraic identity (exact in exact arithmetic) is

    g(to_line(a, b), to_line(c, d)) = (|b - d|^2 - |a - c|^2) / 4,

so equal-distance constraints on point pairs correspond to line incidences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import CongruenceError, DomainError, load_json
from .lines3d import Line, LineConfig, Plane, Point3, check_squares, is_exact, number_rows

Scalar = Union[int, float, Fraction]
Point2 = tuple[Scalar, Scalar]


class PointPair(NamedTuple):
    a: Point2
    b: Point2


def to_line(a: Sequence[Scalar], b: Sequence[Scalar]) -> Line:
    """Line of all rotations mapping a to b (a vertical line when a == b).
    Coordinates-first (2, ...) point arrays a and b give a Line of (...) float
    arrays, the lines of the pairs (a[:, k], b[:, k]); on (2, n, batch) point arrays
    np.array(line.as_tuple()) is the (4, n, batch) layout of lines3d.point_kernel
    and plane_kernel."""
    ax, ay = a
    bx, by = b
    half = Fraction(1, 2) if is_exact(ax + ay + bx + by) else 0.5
    return Line((ax + bx) * half, (ay + by) * half, (ay - by) * half, (bx - ax) * half)


def from_line(line: Line) -> PointPair:
    """Exact inverse of to_line."""
    a = (line.a - line.d, line.b + line.c)
    b = (line.a + line.d, line.b - line.c)
    return PointPair(a, b)


@dataclass(frozen=True)
class Rotation:
    """Plane rotation stored as center plus t = cot(theta/2)."""

    center: Point2
    t: Scalar

    @property
    def theta(self) -> float:
        # 2*atan2(1, t) sweeps (0, 2*pi) as t runs from +inf to -inf
        return 2.0 * math.atan2(1.0, float(self.t))

    def cos_sin(self) -> tuple[Scalar, Scalar]:
        t = self.t
        denom = t * t + 1
        return (t * t - 1) / denom, 2 * t / denom

    def apply(self, p: Point2) -> Point2:
        """The image of the point p = (x, y), or of a coordinates-first (2, ...)
        array of points, as the pair (x', y') in the same layout."""
        co, si = self.cos_sin()
        cx, cy = self.center
        dx, dy = p[0] - cx, p[1] - cy
        return cx + co * dx - si * dy, cy + si * dx + co * dy


def rotation_at(point: Point3) -> Rotation:
    """The rotation represented by a point of the transform's 3-space. A
    coordinates-first (3, ...) array of points gives a Rotation of arrays, whose
    cos_sin and apply are taken elementwise; Rotation.theta stays scalar."""
    x, y, z = point
    return Rotation(center=(x, y), t=z)


@dataclass(frozen=True)
class PlanarMotion:
    """Rigid motion p -> M p + t with M orthogonal; orientation is sign(det M)."""

    matrix: tuple[tuple[float, float], tuple[float, float]]
    translation: tuple[float, float]

    @property
    def orientation(self) -> int:
        (m00, m01), (m10, m11) = self.matrix
        return 1 if m00 * m11 - m01 * m10 > 0 else -1

    def apply(self, p: Point2) -> Point2:
        """The image of the point p = (x, y), or of a coordinates-first (2, ...)
        array of points, as the pair (x', y') in the same layout."""
        (m00, m01), (m10, m11) = self.matrix
        tx, ty = self.translation
        return m00 * p[0] + m01 * p[1] + tx, m10 * p[0] + m11 * p[1] + ty


def reflection_at(plane: Plane) -> PlanarMotion:
    """The orientation-reversing motion carried by a common non-vertical plane.

    If every line to_line(a_i, b_i) lies in z = lam*x + mu*y + nu, then with
    w = (lam, mu), e1 = w/|w|, e2 = rot90ccw(e1), the glide reflection

        p -> p - 2*(p.e1 + nu/|w|) e1 - (2/|w|) e2

    maps each a_i to b_i. A Plane of coordinates-first arrays (lam, mu and nu each
    of one shape) gives a PlanarMotion whose matrix and translation entries are
    arrays of that shape, whose apply is taken elementwise; PlanarMotion.orientation
    stays scalar.
    """
    lam, mu, nu = plane.lam, plane.mu, plane.nu
    norm = np.hypot(lam, mu)
    if np.any(norm == 0.0):
        raise DomainError("a horizontal plane carries no planar motion")
    e1x, e1y = lam / norm, mu / norm
    off = -2.0 * e1x * e1y
    # translation -2(nu/|w|) e1 - (2/|w|) e2, e2 = (-e1y, e1x): each product once, for batches
    glide, step = -2.0 * (nu / norm), 2.0 / norm
    m = ((1.0 - 2.0 * e1x * e1x, off), (off, 1.0 - 2.0 * e1y * e1y))
    return PlanarMotion(m, (glide * e1x + step * e1y, glide * e1y - step * e1x))


def phi(p: Sequence[Sequence[Scalar]], p_prime: Sequence[Sequence[Scalar]]) -> LineConfig:
    """Componentwise transform of a pair of embeddings into a line configuration."""
    if len(p) != len(p_prime):
        raise DomainError(f"embedding sizes differ: {len(p)} vs {len(p_prime)}")
    if len(p) == 0:
        raise DomainError("empty embeddings")
    return LineConfig(tuple(to_line(a, b) for a, b in zip(p, p_prime)))


def recover_motion(A: Sequence[Sequence[Scalar]], B: Sequence[Sequence[Scalar]],
                   orientation: int = 1, tol: float = 1e-8) -> PlanarMotion:
    """Least-squares rigid motion of the requested orientation taking A to B.

    Inputs must be congruent, each distance within tol * max |coordinate|; the
    first violating pair of indices, in lexicographic order, is reported otherwise.
    Orientation-constrained orthogonal fit on centered coordinates, translations
    included (a pure translation yields the identity matrix part).
    """
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 or -1")
    pa = np.asarray(A, dtype=float)
    pb = np.asarray(B, dtype=float)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[1] != 2:
        raise DomainError("point lists must be equal-length sequences of planar points")
    if pa.shape[0] < 2:
        raise DomainError("need at least 2 points")
    # H below sums a product of centered coordinates over every point
    scale = check_squares(np.concatenate([pa, pb]), max(2, len(pa)))
    i, j = np.triu_indices(pa.shape[0], 1)
    da = np.linalg.norm(pa[i] - pa[j], axis=1)
    db = np.linalg.norm(pb[i] - pb[j], axis=1)
    bad = np.flatnonzero(np.abs(da - db) > tol * scale)
    if bad.size:
        k = bad[0]
        raise CongruenceError(f"points {i[k]} and {j[k]} have distances {da[k]:.6g} vs "
                              f"{db[k]:.6g}", (int(i[k]), int(j[k])))
    ca = pa.mean(axis=0)
    cb = pb.mean(axis=0)
    H = (pb - cb).T @ (pa - ca)
    U, _, Vt = np.linalg.svd(H)
    sign = orientation * round(float(np.linalg.det(U @ Vt)))
    M = U @ np.diag([1.0, float(sign)]) @ Vt
    t = cb - M @ ca
    return PlanarMotion(((M[0, 0], M[0, 1]), (M[1, 0], M[1, 1])), (float(t[0]), float(t[1])))


# ---------------------------------------------------------------------------
# file formats


def parse_pair_file(text: str) -> tuple[list[Point2], list[Point2]]:
    """Parse {"p": [[x, y], ...], "p_prime": [[x, y], ...]}: the text is decoded
    by errors.load_json and the point lists go through lines3d.number_rows, so
    bad JSON and malformed lists raise DomainError."""
    data = load_json(text, "pair file", DomainError)
    if not isinstance(data, dict):
        raise DomainError("pair file must be an object holding 'p' and 'p_prime'")
    p, pp = (number_rows(data.get(key), 2, f"pair-file '{key}'") for key in ("p", "p_prime"))
    return [(x, y) for x, y in p], [(x, y) for x, y in pp]


def serialize_pair_file(p: Sequence[Sequence[Scalar]], p_prime: Sequence[Sequence[Scalar]]) -> str:
    return json.dumps({
        "p": [[float(q[0]), float(q[1])] for q in p],
        "p_prime": [[float(q[0]), float(q[1])] for q in p_prime],
    }, separators=(",", ":"))
