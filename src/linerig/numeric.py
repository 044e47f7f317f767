"""Rigidity matrices, constraint Jacobians, rank computation, and dimension reports.

Floating ranks use singular-value thresholding: values below
tol * sigma_max * max(rows, cols) count as zero. Certified reports can be
reproduced exactly: on integer or rational inputs every Jacobian here has exact
entries, and rank_exact recomputes the rank over two random ~61-bit prime fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .graphs import Graph
from .lines3d import Line, LineConfig, edge_scales

Scalar = Union[int, float, Fraction]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DimensionReport:
    """Local dimension certificate at one sampled configuration."""

    ambient_dim: int
    constraint_count: int
    jacobian_rank: int
    tol: float
    certified: bool
    local_dim_estimate: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.jacobian_rank <= min(self.constraint_count, self.ambient_dim):
            raise DomainError("jacobian rank outside [0, min(constraints, ambient)]")
        object.__setattr__(self, "local_dim_estimate", self.ambient_dim - self.jacobian_rank)

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "constraint_count": self.constraint_count,
            "jacobian_rank": self.jacobian_rank,
            "local_dim_estimate": self.local_dim_estimate,
            "tol": self.tol,
            "certified": self.certified,
        }


def float_rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numeric rank by SVD thresholding."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0] * max(M.shape)))


# ---------------------------------------------------------------------------
# exact rank over random prime fields

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set is exact for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int = 2 ** 60, hi: int = 2 ** 61) -> int:
    while True:
        candidate = rng.randrange(lo, hi) | 1
        if _is_prime(candidate):
            return candidate


def _rank_mod_p(rows: list[list[int]], p: int) -> Optional[int]:
    """Gaussian elimination rank over F_p; None when a denominator hits 0 mod p."""
    work = []
    for row in rows:
        reduced = []
        for x in row:
            if isinstance(x, Fraction):
                den = x.denominator % p
                if den == 0:
                    return None
                reduced.append(x.numerator * pow(den, -1, p) % p)
            else:
                reduced.append(x % p)
        work.append(reduced)
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
        if rank == len(work):
            break
    return rank


def _as_exact_rows(M) -> list[list[Union[int, Fraction]]]:
    if isinstance(M, np.ndarray):
        M = M.tolist()
    rows = []
    for row in M:
        out = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise DomainError(f"exact rank needs integer or rational entries, got {type(x).__name__}")
            out.append(x)
        rows.append(out)
    return rows


def rank_exact(M, seed: int = 0) -> int:
    """Exact rank of an integer (or rational) matrix.

    Computes the rank modulo independently drawn random primes near 2^61 until two
    agree. The rank mod p can only drop below the rational rank, and it drops only
    when p divides a fixed nonzero minor, so for desk-scale integer matrices the
    chance that two random 61-bit primes both lie among that minor's at most
    ~bit-length many prime factors is far below 1e-30.
    """
    rows = _as_exact_rows(M)
    if not rows or not rows[0]:
        return 0
    rng = random.Random(f"rank_exact:{seed}")
    results: list[int] = []
    for _ in range(64):
        p = _random_prime(rng)
        r = _rank_mod_p(rows, p)
        if r is None:
            continue
        results.append(r)
        best = max(results)
        if results.count(best) >= 2:
            return best
    raise DomainError("exact rank did not stabilize; matrix entries may be malformed")


# ---------------------------------------------------------------------------
# edge function and rigidity matrix


def _embedding_rows(p) -> list[list[Scalar]]:
    if isinstance(p, np.ndarray):
        p = p.tolist()
    return [list(row) for row in p]


def edge_function(G: Graph, p) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    rows = _embedding_rows(p)
    if len(rows) != G.n:
        raise DomainError(f"embedding has {len(rows)} points for a graph on {G.n} vertices")
    vals = []
    for i, j in G.edges:
        dx = rows[i][0] - rows[j][0]
        dy = rows[i][1] - rows[j][1]
        vals.append(dx * dx + dy * dy)
    exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in vals)
    return np.array(vals, dtype=object if exact else float)


def rigidity_matrix(G: Graph, p) -> np.ndarray:
    """m x 2n Jacobian of the edge function: row (i,j) holds 2(p_i - p_j) at slot i
    and the negation at slot j."""
    rows = _embedding_rows(p)
    if len(rows) != G.n:
        raise DomainError(f"embedding has {len(rows)} points for a graph on {G.n} vertices")
    exact = all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
                for row in rows for x in row)
    J = np.zeros((G.m, 2 * G.n), dtype=object if exact else float)
    for k, (i, j) in enumerate(G.edges):
        dx = rows[i][0] - rows[j][0]
        dy = rows[i][1] - rows[j][1]
        J[k, 2 * i] = 2 * dx
        J[k, 2 * i + 1] = 2 * dy
        J[k, 2 * j] = -2 * dx
        J[k, 2 * j + 1] = -2 * dy
    return J


def random_embedding(n: int, rng: np.random.Generator, box: int = 10 ** 4) -> np.ndarray:
    """Integer coordinates in [-box, box], enabling exact-rank replays."""
    return rng.integers(-box, box + 1, size=(n, 2)).astype(np.int64)


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(trials)]


def rigidity_rank(G: Graph, trials: int = 5, seed: int = 0) -> int:
    """Max rigidity-matrix rank over random integer embeddings."""
    if G.n < 2:
        raise DomainError("rigidity rank needs at least 2 vertices")
    if trials < 1:
        raise DomainError("trials must be positive")
    if G.m == 0:
        return 0
    best = 0
    for rng in _trial_rngs(seed, trials):
        J = rigidity_matrix(G, random_embedding(G.n, rng))
        best = max(best, float_rank(J.astype(float)))
    return best


def is_rigid_numeric(G: Graph, trials: int = 5, seed: int = 0) -> bool:
    return rigidity_rank(G, trials, seed) == 2 * G.n - 3


# ---------------------------------------------------------------------------
# line system (incidence constraints of a graph on a line configuration)


def line_residuals(G: Graph, x: LineConfig) -> list[Scalar]:
    if x.n != G.n:
        raise DomainError(f"configuration has {x.n} lines for a graph on {G.n} vertices")
    out = []
    for i, j in G.edges:
        li, lj = x[i], x[j]
        out.append((li.a - lj.a) * (li.d - lj.d) - (li.b - lj.b) * (li.c - lj.c))
    return out


def edge_index(G: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j) of G's edges, in canonical edge order."""
    e = np.array(G.edges, dtype=np.intp).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def line_system_float(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Incidence residuals g and their m x 4n Jacobian at the (n, 4) float array X,
    for the edges (i[k], j[k]); the array form of line_residuals and
    line_system_jacobian."""
    D = X[i] - X[j]
    g = D[:, 0] * D[:, 3] - D[:, 1] * D[:, 2]
    grad = np.stack([D[:, 3], -D[:, 2], -D[:, 1], D[:, 0]], axis=1)
    rows = np.arange(len(i))[:, None]
    slots = np.arange(4)
    J = np.zeros((len(i), 4 * X.shape[0]))
    J[rows, 4 * i[:, None] + slots] = grad
    J[rows, 4 * j[:, None] + slots] = -grad
    return g, J


def line_system_jacobian(G: Graph, x: LineConfig) -> np.ndarray:
    """m x 4n Jacobian of the incidence residuals in the chart coordinates."""
    if x.n != G.n:
        raise DomainError(f"configuration has {x.n} lines for a graph on {G.n} vertices")
    coords = x.coords()
    exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                for row in coords for v in row)
    if not exact:
        return line_system_float(x.as_array(), *edge_index(G))[1]
    J = np.zeros((G.m, 4 * G.n), dtype=object)
    for k, (i, j) in enumerate(G.edges):
        ai, bi, ci, di = coords[i]
        aj, bj, cj, dj = coords[j]
        grad = (di - dj, -(ci - cj), -(bi - bj), ai - aj)
        for t in range(4):
            J[k, 4 * i + t] = grad[t]
            J[k, 4 * j + t] = -grad[t]
    return J


def line_system_dimension(G: Graph, x: LineConfig, tol: float = DEFAULT_TOL,
                          exact: bool = False) -> DimensionReport:
    """Rank certificate for the incidence system at x (which must satisfy it).

    certified means full row rank m; when m = 2n - 3 that pins the local dimension
    of the realization space at exactly 2n + 3 (the rank gives the upper bound, and
    the concurrent family through any point gives the matching lower bound).
    """
    residuals = line_residuals(G, x)
    if G.m:
        g = np.array([float(r) for r in residuals])
        rel = np.abs(g) / edge_scales(x.as_array(), *edge_index(G))
        k = int(np.argmax(rel))
        if not rel[k] <= tol:
            raise DomainError(
                f"configuration violates the incidence system: edge {G.edges[k]} has "
                f"relative residual {rel[k]:.3e} > tol {tol:.1e}")
    J = line_system_jacobian(G, x)
    if exact:
        if J.dtype != object:
            raise DomainError("exact mode needs integer or rational line coordinates")
        rank = rank_exact(J)
    else:
        rank = float_rank(J.astype(float), tol)
    return DimensionReport(4 * G.n, G.m, rank, tol, rank == G.m)


# ---------------------------------------------------------------------------
# pair system (two embeddings with equal edge lengths)


def pair_system_jacobian(G: Graph, p, p_prime) -> np.ndarray:
    """m x 4n Jacobian of (p, p') -> f(p) - f(p')."""
    Jp = rigidity_matrix(G, p)
    Jq = rigidity_matrix(G, p_prime)
    exact = Jp.dtype == object and Jq.dtype == object
    J = np.zeros((G.m, 4 * G.n), dtype=object if exact else float)
    J[:, : 2 * G.n] = Jp
    J[:, 2 * G.n:] = -Jq
    return J


def pair_system_dimension(G: Graph, p, p_prime, tol: float = DEFAULT_TOL,
                          exact: bool = False) -> DimensionReport:
    """Rank certificate for the equal-edge-lengths system at a pair of embeddings."""
    fp = edge_function(G, p)
    fq = edge_function(G, p_prime)
    if G.m:
        scale = 1.0 + max(abs(float(v)) for v in list(fp) + list(fq))
        gap = max(abs(float(a) - float(b)) for a, b in zip(fp, fq))
        if gap > tol * scale:
            raise DomainError(f"edge lengths differ by relative {gap / scale:.3e} > tol {tol:.1e}")
    J = pair_system_jacobian(G, p, p_prime)
    if exact:
        rank = rank_exact(J)
    else:
        rank = float_rank(J.astype(float), tol)
    return DimensionReport(4 * G.n, G.m, rank, tol, rank == G.m)


# ---------------------------------------------------------------------------
# transversal families (lines meeting three fixed lines)


def transversal_family_dimension(l1: Line, l2: Line, l3: Line, member: Line,
                                 tol: float = DEFAULT_TOL) -> int:
    """Local dimension at `member` of the family of lines meeting l1, l2, l3.

    The family is cut out of the 4-dimensional chart by the three incidence
    residuals; its local dimension at a smooth member is 4 minus the rank of the
    3 x 4 Jacobian with respect to the member's coordinates.
    """
    rows = []
    for other in (l1, l2, l3):
        rows.append([
            float(member.d) - float(other.d),
            -(float(member.c) - float(other.c)),
            -(float(member.b) - float(other.b)),
            float(member.a) - float(other.a),
        ])
    return 4 - float_rank(np.array(rows), tol)


# ---------------------------------------------------------------------------
# global rigidity oracle (random stress matrix rank)


def global_rigidity_oracle(G: Graph, trials: int = 5, seed: int = 0,
                           tol: float = DEFAULT_TOL) -> bool:
    """Randomized stress test: true iff a generic equilibrium stress matrix has
    rank n - 3 in a majority of trials.

    Per trial: random integer embedding, random element of the left null space of
    the rigidity matrix as the stress, assembled into the n x n stress matrix.
    Minimally rigid graphs carry no nonzero stress and report rank 0.
    """
    if G.n < 4:
        raise DomainError("global rigidity oracle needs at least 4 vertices")
    if trials < 1:
        raise DomainError("trials must be positive")
    if not is_rigid_numeric(G, trials=max(trials, 3), seed=seed):
        raise DomainError("global rigidity oracle requires a rigid graph")
    votes = 0
    for rng in _trial_rngs(seed + 1, trials):
        p = random_embedding(G.n, rng)
        R = rigidity_matrix(G, p).astype(float)
        U, s, _ = np.linalg.svd(R, full_matrices=True)
        rank = int(np.sum(s > tol * s[0] * max(R.shape))) if s.size and s[0] > 0 else 0
        null_dim = G.m - rank
        if null_dim == 0:
            continue
        stress = U[:, rank:] @ rng.normal(size=null_dim)
        omega = np.zeros((G.n, G.n))
        for k, (i, j) in enumerate(G.edges):
            omega[i, j] -= stress[k]
            omega[j, i] -= stress[k]
            omega[i, i] += stress[k]
            omega[j, j] += stress[k]
        if float_rank(omega, tol) == G.n - 3:
            votes += 1
    return votes * 2 > trials


# ---------------------------------------------------------------------------
# finite differences (test oracle, kept with the Jacobians it checks)


def finite_difference_jacobian(func, x0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of a vector-valued function; used to cross-check the
    analytic Jacobians."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(func(x0), dtype=float)
    J = np.zeros((f0.size, x0.size))
    for k in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[k] += step
        lo[k] -= step
        J[:, k] = (np.asarray(func(hi), dtype=float) - np.asarray(func(lo), dtype=float)) / (2 * step)
    return J
