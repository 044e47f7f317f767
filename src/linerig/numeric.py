"""Rigidity matrices, constraint Jacobians, rank computation, and dimension reports.

Every constraint system here is an edge system, built by one kernel, edge_system:
edge k = (i, j) contributes g_k = form(D) for D = X[i] - X[j], the difference of its
endpoints' coordinate rows, and Jacobian row k holds the form's gradient in the
columns of vertex i and its negation in those of vertex j. Two quadratic forms
cover the library: length_form (|D|^2, gradient 2D) on (n, 2) points gives the
edge function, the rigidity matrix R and the pair system [R(p), -R(p')];
lines3d.incidence_form (D0*D3 - D1*D2, gradient (D3, -D2, -D1, D0)) on (n, 4) line
charts gives the incidence system. The kernel runs unchanged on float arrays and on
object arrays of ints and Fractions, exact when every coordinate passes
lines3d.is_exact. Row k of J is the face-splitting (row-wise Kronecker) product
s_k (x) grad_k of row k of the signed incidence matrix S (1 in column i, -1 in column
j) and the form's gradient, so for every edge system

    J J^T = (S S^T) o (grad grad^T)  and  J^T y = S^T (y o grad),

with o the entrywise product, and S = signed_incidence(i, j, n) depends on the graph
only. Neither product forms J: normal_matrix takes J J^T this way, with
S S^T = G.signed_gram, cached on the graph with its endpoint arrays G.edge_index, so
the float sampler's Gauss-Newton steps and the float certificate share one array per
graph.

Each dimension report gives its system once: its rows X, the residual of the row
differences D (the incidence, or |D_p|^2 - |D_p'|^2 of a pair), the form's gradient
rows at D, and a map from rows to the Jacobian. One tail, _certify, checks the
residuals and takes the rank, float or exact. A float report is certified by a proof:
_proved_sigma's one Cholesky factorization of J J^T - (c + alpha) I, with
sqrt(alpha) = tol * max(rows, cols) * sqrt(||J J^T||_inf) and c a bound on every
rounding error, shows sigma_min(J) >= sqrt(alpha), and the report's sigma_kept is
that proved lower bound. Only where the factorization fails does _float_rank's SVD
cut run (singular values at or below tol * sigma_max * max(rows, cols) count as
zero); its rank and margin fill the report, which is then not certified. Exact
residuals must be zero in rationals, and exact ranks take one
path, _residue_rank, which states their error bound. For each prime p in
[2^30, 2^31) of modp.prime_residues' stream, which skips a prime that divides a
denominator, an integer polynomial map (the Jacobian map, or rank_exact's identity)
of the exact values' residues is the exact matrix mod p, and _eliminate, one int64
row reduction, ranks it; the loop stops at the first full rank or once two primes
agree on the largest rank seen. An exact report so never builds its Jacobian, and
names the primes its eliminations ran on. rigidity(G, seed) ranks R(P)^T at one
random embedding P through _residue_rank and draws one random stress; its
RigidityResult carries the rank, the prime and the stress, reads redundancy off the
stress's support and ranks its stress matrix for global rigidity only when that
verdict is read, so cli.analyze_graph can let Hendrickson's theorem settle it.
rigidity_rank, global_rigidity_oracle and verify's hendrickson_oracle read it too.
Both eliminations run in fill-reducing orders, as _eliminate's cost is its fill: R^T
with its vertex rows in the reverse of a minimum-degree peel (_peel_order) and its
edge columns by their later, then earlier, endpoint in that order, and the stress
matrix with its rows and columns in ascending degree. A permutation changes no rank,
and the stress is written back in G.edges order.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .graphs import Graph
from .lines3d import (Line, LineConfig, check_squares, edge_residuals, incidence, incidence_form,
                      is_exact)
from .modp import prime_residues

Scalar = Union[int, float, Fraction]
Form = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
Cut = tuple[int, Optional[float], Optional[float]]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DimensionReport:
    """Local dimension certificate at one sampled configuration. certified means full
    row rank, proved. A certified float report's sigma_kept is the Cholesky test's
    proved lower bound on sigma_min(J), not sigma_min itself, and sigma_dropped is
    None. An uncertified float report carries the SVD cut's margin: the last singular
    value kept and the first one dropped (None where there is none). Both are None in
    exact mode, where primes names the primes whose eliminations ran, in order (None
    in float mode)."""

    ambient_dim: int
    constraint_count: int
    jacobian_rank: int
    tol: float
    certified: bool
    sigma_kept: Optional[float] = None
    sigma_dropped: Optional[float] = None
    primes: Optional[tuple[int, ...]] = None
    local_dim_estimate: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.jacobian_rank <= min(self.constraint_count, self.ambient_dim):
            raise DomainError("jacobian rank outside [0, min(constraints, ambient)]")
        object.__setattr__(self, "local_dim_estimate", self.ambient_dim - self.jacobian_rank)

    def to_dict(self) -> dict:
        return asdict(self)


def _float_rank(M, tol: float) -> Cut:
    """The threshold rule on M's descending singular values s: (rank, last value
    kept, first value dropped)."""
    M = np.asarray(M, dtype=float)
    s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    rank = int(np.count_nonzero(s > tol * s[0] * max(M.shape))) if s.size and s[0] > 0 else 0
    return (rank, float(s[rank - 1]) if rank else None,
            float(s[rank]) if rank < s.size else None)


def float_rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numeric rank by SVD thresholding."""
    return _float_rank(M, tol)[0]


# ---------------------------------------------------------------------------
# exact rank over random prime fields

def _eliminate(M: np.ndarray, p: int) -> int:
    """Row-reduce the int64 residues mod p in M in place and return its rank r. Each
    pivot clears its column in the rows below it that are nonzero there, over every
    column from its own on, so M ends in echelon form: rows r.. are zero, and each row
    above has its pivot at its first nonzero entry.

    The update is fraction-free: a row b below the pivot row a becomes
    a_c * b - b_c * a mod p, with no inverse. Each row so ends as a unit multiple of the
    row that the normalized update b - (b_c / a_c) * a leaves, and the rank, the pivots
    and the kernel are the normalized elimination's: back-substitution (_random_stress)
    solves the same pivot entries from the same free ones. It is summed as
    a_c * b + b_c * (p - a), whose two products, of residues below p < 2^31, are each
    below 2^62: the sum fits in int64, and it is never negative, so the reduction
    mod p takes no sign fix-up (the difference, of either sign, made eliminations of
    dense 400 x 400 stress matrices about 1.5x slower)."""
    rank = 0
    for c in range(M.shape[1]):
        nz = M[rank:, c].nonzero()[0]
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            # the row swapped down to piv is 0 in column c, as nz[0] is its first
            M[[rank, piv]] = M[[piv, rank]]
        below = rank + nz[1:]
        if below.size:
            block = M[below, c:]
            M[below, c:] = (block * M[rank, c] + block[:, :1] * (p - M[rank, c:])) % p
        rank += 1
        if rank == len(M):
            break
    return rank


def rank_exact(M, seed: int = 0) -> int:
    """Exact rank of a matrix of integer (or rational) entries, by _residue_rank of the
    identity form on them: the rows must be of equal length, and every entry must pass
    lines3d.is_exact."""
    try:
        X = np.array(M, dtype=object)
        if X.size and X.ndim != 2:
            raise ValueError
    except (TypeError, ValueError):
        raise DomainError("exact rank needs a matrix: rows of equal length") from None
    bad = sorted({type(x).__name__ for x in X.flat if not is_exact(x)})
    if bad:
        raise DomainError(f"exact rank needs integer or rational entries, got {', '.join(bad)}")
    return _residue_rank(X, lambda R: R, min(X.shape), seed)[0] if X.size else 0


def _residue_rank(X: np.ndarray, jacobian: Callable[[np.ndarray], np.ndarray],
                  full: int, seed: int = 0) -> tuple[int, tuple[int, ...], np.ndarray]:
    """The rank over Q of J = jacobian(X), at most full, for an array X of ints and
    Fractions, the primes whose eliminations ran, in order, and the last one's echelon
    form of J mod primes[-1]. J is never built: every entry of it is an integer
    polynomial in X, so for each prime p of prime_residues' rank_exact:{seed} stream,
    jacobian(X mod p) mod p is J mod p, whose rank _eliminate finds. The loop stops at
    the first full rank, or once two primes agree on the largest rank seen, so the last
    rank is the one returned. Callers: rank_exact, _certify and rigidity.

    Neither answer can be too large: p divides no denominator, so a minor that vanishes
    over Q vanishes mod p, and the rank mod p never exceeds the rational rank. A full
    rank is therefore always exact. The rank mod p drops only when p divides every
    nonzero minor of the rational rank's size, and once a prime gives the rational rank
    no smaller rank can be returned, so a deficient answer is wrong only if the first
    two primes both divide one fixed such minor. The draws are uniform over the 5.07e7
    primes in [2^30, 2^31), and a minor of b bits (Hadamard's bound, each row cleared of
    denominators) has at most b / 30 of them as factors. For the 797 x 1600 line
    Jacobian of the exact sample of laman_random(400, seed 1) (coordinates with
    numerators of up to 345 bits and denominators of up to 312), b is about 1.44e5: at
    most 4800 such factors, so a wrong deficient answer has probability below
    (4800 / 5.07e7)^2 < 1e-8.
    """
    ranks: list[int] = []
    primes: list[int] = []
    stream = random.Random(f"rank_exact:{seed}")
    for p, R in islice(prime_residues(X.ravel().tolist(), stream), 64):
        M = jacobian(R.reshape(X.shape)) % p
        ranks.append(_eliminate(M, p))
        primes.append(p)
        if ranks[-1] == full or ranks.count(max(ranks)) >= 2:
            return ranks[-1], tuple(primes), M
    raise DomainError("exact rank did not stabilize; matrix entries may be malformed")


# ---------------------------------------------------------------------------
# the edge-system kernel


def length_form(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared length |D|^2 of each row of D and its gradient 2D."""
    return (D * D).sum(axis=1), 2 * D


def edge_system(X: np.ndarray, i: np.ndarray, j: np.ndarray, form: Form
                ) -> tuple[np.ndarray, np.ndarray]:
    """Values g and the m x (w n) Jacobian J of the edge constraints
    g[k] = form(X[i[k]] - X[j[k]]) on the (n, w) coordinate array X.

    Row k holds the form's gradient in the w columns of vertex i[k] and its
    negation in those of vertex j[k]. X may be float, or an object array of ints
    and Fractions, in which case g and J are exact.
    """
    D = X.take(i, axis=0) - X.take(j, axis=0)
    g, grad = form(D)
    m, w = D.shape
    J = np.zeros((m, w * X.shape[0]), dtype=X.dtype)
    rows = np.arange(m)[:, None]
    slots = np.arange(w)
    J[rows, w * i[:, None] + slots] = grad
    J[rows, w * j[:, None] + slots] = -grad
    return g, J


def signed_incidence(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """The m x n signed incidence matrix S of the edges (i[k], j[k]) on n vertices:
    row k holds 1 in column i[k] and -1 in column j[k]."""
    S = np.zeros((len(i), n))
    rows = np.arange(len(i))
    S[rows, i] = 1.0
    S[rows, j] = -1.0
    return S


def normal_matrix(SS: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """J J^T = (S S^T) o (grad grad^T) of the edge system whose graph has the signed
    gram SS = G.signed_gram and the m x w gradient rows grad (the module
    docstring). Each entry is SS's 0, +-1 or 2 times a rounded w-term dot product."""
    return SS * (grad @ grad.T)


def _coordinates(rows, width: int) -> np.ndarray:
    """rows as an (n, width) array: an (n, width) float array as it is, else of objects
    (Python ints and Fractions) when every entry is exact (lines3d.is_exact), of floats
    otherwise. Float coordinates whose forms could overflow raise DomainError: both
    forms, a squared length and the incidence, sum two products of coordinate
    differences (check_squares)."""
    if isinstance(rows, np.ndarray) and rows.dtype == float and rows.shape[1:] == (width,):
        check_squares(rows, 2)
        return rows
    rows = rows.tolist() if isinstance(rows, np.ndarray) else [list(r) for r in rows]
    try:
        exact = all(is_exact(x) for r in rows for x in r)
        X = np.array(rows, dtype=object if exact else float).reshape(len(rows), width)
    except (TypeError, ValueError):
        raise DomainError(f"coordinates must be rows of {width} numbers") from None
    if not exact:
        check_squares(X, 2)
    return X


# ---------------------------------------------------------------------------
# edge function and rigidity matrix


def _embedding(G: Graph, p) -> np.ndarray:
    if len(p) != G.n:
        raise DomainError(f"embedding has {len(p)} points for a graph on {G.n} vertices")
    return _coordinates(p, 2)


def edge_function(G: Graph, p) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    return edge_system(_embedding(G, p), *G.edge_index, length_form)[0]


def rigidity_matrix(G: Graph, p) -> np.ndarray:
    """m x 2n Jacobian of the edge function: row (i,j) holds 2(p_i - p_j) at slot i
    and the negation at slot j."""
    return edge_system(_embedding(G, p), *G.edge_index, length_form)[1]


def random_embedding(n: int, rng: np.random.Generator, box: int = 10 ** 4) -> np.ndarray:
    """Integer coordinates in [-box, box], enabling exact-rank replays."""
    return rng.integers(-box, box + 1, size=(n, 2)).astype(np.int64)


# ---------------------------------------------------------------------------
# line system (incidence constraints of a graph on a line configuration)


def _line_arrays(G: Graph, x: Union[LineConfig, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(x) != G.n:
        raise DomainError(f"configuration has {len(x)} lines for a graph on {G.n} vertices")
    return (_coordinates(x if isinstance(x, np.ndarray) else x.coords(), 4), *G.edge_index)


def line_residuals(G: Graph, x: Union[LineConfig, np.ndarray]) -> list[Scalar]:
    return edge_system(*_line_arrays(G, x), incidence_form)[0].tolist()


def line_system_jacobian(G: Graph, x: Union[LineConfig, np.ndarray]) -> np.ndarray:
    """m x 4n Jacobian of the incidence residuals in the chart coordinates."""
    return edge_system(*_line_arrays(G, x), incidence_form)[1]


def line_system_dimension(G: Graph, x: Union[LineConfig, np.ndarray],
                          tol: float = DEFAULT_TOL, exact: bool = False) -> DimensionReport:
    """Rank certificate for the incidence system at x, a LineConfig or an (n, 4) array
    of chart rows (which must satisfy it); a float array is taken as it is.

    certified means full row rank m; when m = 2n - 3 that pins the local dimension
    of the realization space at exactly 2n + 3 (the rank gives the upper bound, and
    the concurrent family through any point gives the matching lower bound).
    """
    X, i, j = _line_arrays(G, x)
    return _certify(G, X, lambda D: incidence(D.T), lambda D: incidence_form(D)[1],
                    lambda R: edge_system(R, i, j, incidence_form)[1],
                    "configuration violates the incidence system", tol, exact)


# ---------------------------------------------------------------------------
# pair system (two embeddings with equal edge lengths)


def _pair_rows(G: Graph, p, p_prime) -> np.ndarray:
    """Rows (p_i, p'_i) of the pair system; float when either embedding is."""
    P, Q = _embedding(G, p), _embedding(G, p_prime)
    X = np.hstack([P, Q])
    return X if P.dtype == Q.dtype else X.astype(float)


def _pair_jacobian(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """[R(p), -R(p')] on the pair rows X = (p, p')."""
    return np.hstack([edge_system(X[:, :2], i, j, length_form)[1],
                      -edge_system(X[:, 2:], i, j, length_form)[1]])


def pair_system_jacobian(G: Graph, p, p_prime) -> np.ndarray:
    """m x 4n Jacobian of (p, p') -> f(p) - f(p')."""
    return _pair_jacobian(_pair_rows(G, p, p_prime), *G.edge_index)


def pair_system_dimension(G: Graph, p, p_prime, tol: float = DEFAULT_TOL,
                          exact: bool = False) -> DimensionReport:
    """Rank certificate for the equal-edge-lengths system at a pair of embeddings."""
    X, (i, j) = _pair_rows(G, p, p_prime), G.edge_index
    return _certify(G, X, lambda D: (D[:, :2] ** 2).sum(axis=1) - (D[:, 2:] ** 2).sum(axis=1),
                    lambda D: np.hstack([2 * D[:, :2], -2 * D[:, 2:]]),
                    lambda R: _pair_jacobian(R, i, j), "edge lengths differ", tol, exact)


_U = 2.0 ** -53  # the unit roundoff of round to nearest
_ETA = float(np.finfo(float).smallest_subnormal)  # 2^-1074, the underflow unit


def _proved_sigma(grad: np.ndarray, G: Graph, tol: float) -> Optional[float]:
    """A proved lower bound sqrt(alpha) on sigma_min(J) for the m x (w n) Jacobian J
    of the edge system of G's edges (i, j) and float gradient rows grad, or None where
    the test below does not pass. J has full row rank m wherever it returns.

    The test factors A - (c + alpha) I, for A = J J^T scaled by 2^(2e), once with
    np.linalg.cholesky. grad is first scaled by 2^e, e = -frexp(max |grad|)[1], which
    is exact but where it underflows; then max |grad| lies in [1/2, 1), and no entry
    of A exceeds 8 in magnitude, so none can overflow. A is
    normal_matrix(G.signed_gram, grad), the identity
    J J^T = (S S^T) o (grad grad^T); J @ J.T is never formed, and S S^T is the
    graph's cached array, the one the sampler's projection read.
    sqrt(alpha) = tol * max(m, w n) * sqrt(||A||_inf), where ||A||_inf >= sigma_max^2
    (A is symmetric), so the cut is tol * sigma_max * max(m, w n) up to that bound.

    Theorem (Rump, "Verification of positive definiteness", BIT 46 (2006); Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3). If the
    floating-point Cholesky factorization of a symmetric float N x N matrix B runs to
    completion with factor R, then R^T R = B + dB with
    |dB| <= gamma |R^T| |R| + tau 11^T entrywise, for gamma = gamma_{N+2} =
    (N + 2) u / (1 - (N + 2) u) and tau = 6 (N + max_i B_ii) eta. The bound holds for
    any order of the inner products, blocked LAPACK and FMA included; N + 2 rather
    than N + 1 covers a division done as a multiplication by a rounded reciprocal,
    and tau the underflows: at most N products of eta / 2 each in an entry, and one
    quotient's eta / 2 times a diagonal entry of R. As ||R||_F^2 = trace(B + dB),
    ||dB||_2 <= gamma / (1 - gamma) (trace B + N tau) + N tau. B + dB is positive
    semidefinite, so lambda_min(B) >= -||dB||_2.

    The rounding model: IEEE double, round to nearest, u = 2^-53, eta = 2^-1074; a
    sum or difference is (a o b)(1 + d), a product or quotient
    (a o b)(1 + d) + f, with |d| <= u and |f| <= eta / 2. grad is a signed
    permutation of D = X[i] - X[j] times 1 or 2, and D is the rounded difference of
    float coordinates or the rounded exact difference of exact ones: each entry of
    the scaled grad is off the exact scaled gradient's by at most u |exact entry| +
    eps, with eps = 2^max(e, 0) eta. The test's own rounding splits into three terms,
    each
    bounding a symmetric error's 2-norm by its infinity-norm:
    - forming A: an entry (k, l) is SS_kl times a 4-term dot product, so it is off
      the exact entry by at most |SS_kl| (8 u a_k . a_l + 32 eps), a = |grad|
      (gamma_4 for the dot product and 2u for its inputs, each times 1 + O(u), sum
      to below 7 u). Summed over a row, with sum_l |SS_kl| a_l <= W[i_k] + W[j_k]
      for the vertex sums W = |S|^T a, and sum_l |SS_kl| = deg i_k + deg j_k <= 2m:
      8 u rho + 64 m eps, with rho = max_k a_k . (W[i_k] + W[j_k]);
    - the shift of the diagonal, rounded once per entry: u max_k A_kk;
    - the factorization: the theorem with N = m, trace B <= (1 + u) trace A and
      max B_ii <= max A_kk, so tau = 6 (m + max_k A_kk) eta, and
      gamma / (1 - gamma) = (m + 2) u / (1 - 2 (m + 2) u).
    c is their sum; the lower triangle, which is all the factorization reads, is
    the matrix it bounds. The shift is (c + alpha)(1 + 2^-40), whose last factor
    covers the rounding of c's and the shift's own evaluation (the constants above
    carry slack for the rounded degree sums in rho), and alpha is the square of the
    float sqrt(alpha). So a completed factorization gives
    lambda_min(J J^T) >= 2^(-2e) alpha, and sigma_min(J) >= 2^-e sqrt(alpha),
    which is exact unless it is subnormal, where None is returned instead.
    """
    m, n, (i, j) = len(grad), G.n, G.edge_index
    big = float(np.abs(grad).max(initial=0.0))
    if not big > 0:
        return None
    e = -math.frexp(big)[1]
    grad = np.ldexp(grad, e)
    A = normal_matrix(G.signed_gram, grad)
    diag = A.diagonal()
    a_max, trace = float(diag.max()), math.fsum(diag)
    root = tol * max(m, grad.shape[1] * n) * math.sqrt(float(np.abs(A).sum(axis=1).max()))
    if not (root > 0 and root * root >= np.finfo(float).tiny):
        return None
    a = np.abs(grad)
    W = np.zeros((n, a.shape[1]))
    np.add.at(W, i, a)
    np.add.at(W, j, a)
    rho = float(((W[i] + W[j]) * a).sum(axis=1).max())
    eps = math.ldexp(_ETA, max(e, 0))
    gamma = (m + 2) * _U / (1 - 2 * (m + 2) * _U)  # gamma_{m+2} / (1 - gamma_{m+2})
    tau = 6 * (m + a_max) * _ETA
    c = _U * a_max + gamma * ((1 + _U) * trace + m * tau) + m * tau + 8 * _U * rho + 64 * m * eps
    shift = (c + root * root) * (1 + 2.0 ** -40)
    if not math.isfinite(shift):
        return None
    A.flat[::m + 1] -= shift
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    sigma = math.ldexp(root, -e)
    return sigma if sigma >= np.finfo(float).tiny else None


def _certify(G: Graph, X: np.ndarray, residual: Callable[[np.ndarray], np.ndarray],
             gradient: Callable[[np.ndarray], np.ndarray],
             jacobian: Callable[[np.ndarray], np.ndarray], violation: str, tol: float,
             exact: bool) -> DimensionReport:
    """The reports' one tail. The residuals residual(D) of the edges' row differences
    D = X[i] - X[j] must vanish: in rationals in exact mode, by edge_residuals' rule
    otherwise. Then the rank of J = jacobian(X) is compared with m: over Q by
    _residue_rank, from X's residues, in exact mode. In float mode _proved_sigma's
    Cholesky test on the m x w gradient rows gradient(D) proves full row rank, and
    the report carries its bound as sigma_kept; where the test does not pass,
    _float_rank's cut on J gives the rank and its margin, and the report is not
    certified."""
    if exact and X.dtype != object:
        raise DomainError("exact mode needs integer or rational coordinates")
    i, j = G.edge_index
    D = X.take(i, axis=0) - X.take(j, axis=0)
    g = residual(D)
    if exact:
        for edge, r in zip(G.edges, g):
            if r != 0:
                raise DomainError(f"{violation}: edge {edge} has nonzero residual {r}")
        rank, primes, _ = _residue_rank(X, jacobian, min(G.m, X.size))
        return DimensionReport(X.size, G.m, rank, tol, rank == G.m, primes=primes)
    rel = edge_residuals(g.astype(float, copy=False), X.astype(float, copy=False), i, j)
    if not G.m:
        return DimensionReport(X.size, 0, 0, tol, True)
    k = int(np.argmax(rel))
    if not rel[k] <= tol:
        raise DomainError(f"{violation}: edge {G.edges[k]} has relative residual "
                          f"{rel[k]:.3e} > tol {tol:.1e}")
    sigma = _proved_sigma(gradient(D).astype(float, copy=False), G, tol)
    if sigma is not None:
        return DimensionReport(X.size, G.m, G.m, tol, True, sigma)
    rank, kept, dropped = _float_rank(jacobian(X), tol)
    return DimensionReport(X.size, G.m, rank, tol, False, kept, dropped)


# ---------------------------------------------------------------------------
# transversal families (lines meeting three fixed lines)


def transversal_family_dimension(l1: Line, l2: Line, l3: Line, member: Line) -> int:
    """Local dimension at `member` of the family of lines meeting l1, l2, l3.

    The family is cut out of the 4-dimensional chart by the three incidence
    residuals; its local dimension at a smooth member is 4 minus the rank of the
    3 x 4 Jacobian with respect to the member's coordinates: the member's columns
    of the edge system on the edges member-l1, member-l2, member-l3, which are
    incidence_form's gradients at the three differences.
    """
    X = np.array([ln.as_tuple() for ln in (member, l1, l2, l3)], dtype=float)
    return 4 - float_rank(incidence_form(X[:1] - X[1:])[1], DEFAULT_TOL)


# ---------------------------------------------------------------------------
# rigidity rank, global rigidity and redundancy (R^T ranked by _residue_rank at one
# embedding)


def _random_stress(M: np.ndarray, rank: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random w with M w = 0 mod p, for M in echelon form with `rank`
    nonzero rows: each free coordinate drawn uniformly mod p, each pivot one solved
    from the last row up, with products reduced below 2^31."""
    w = rng.integers(p, size=M.shape[1])
    for row in M[rank - 1::-1]:
        c = row.nonzero()[0][0]
        w[c] = -((row[c + 1:] * w[c + 1:] % p).sum() % p) * pow(int(row[c]), -1, p) % p
    return w


@dataclass(frozen=True, eq=False)
class RigidityResult:
    """What one random equilibrium stress decides about G (rigidity()). rank is the
    rank of R(P)^T over Q at one random integer embedding P; prime, the deciding prime,
    and stress, one uniformly random stress w mod prime, are None for n < 4 or a rank
    below 2n - 3. Each verdict reads w: redundant its support, and globally_rigid its
    stress matrix, ranked the first time it is read."""

    graph: Graph = field(repr=False)
    rank: int
    prime: Optional[int]
    stress: Optional[np.ndarray]

    @property
    def redundant(self) -> bool:
        """w is nonzero on every edge (False where there is no stress). An edge is a
        coloop of the rigidity matroid exactly when every stress vanishes on it
        (Jackson-Jordan, JCTB 94 (2005)), and w_e != 0 puts row e in the mod-p span of
        the other rows, so the rank of R(G - e) at P over Q is at least 2n - 3: True is
        always right, and it is False whenever m = 2n - 3, where w = 0. False is wrong
        only for a special P, p or w; for w, with probability at most 1/p per edge."""
        return self.stress is not None and bool(self.stress.all())

    @cached_property
    def globally_rigid(self) -> Optional[bool]:
        """w's n x n stress matrix has rank n - 3 mod prime (None where there is no
        stress). True is always right, as w then lifts to a rational stress of the same
        rank (Connelly, DCG 33 (2005); Gortler-Healy-Thurston, Amer. J. Math. 132
        (2010)). False is wrong only for a special P, p or w. The test does not read
        redundant, which a globally rigid graph always is (Hendrickson, SIAM J. Comput.
        21 (1992))."""
        G, p, w = self.graph, self.prime, self.stress
        if w is None:
            return None
        i, j = G.edge_index
        # rows and columns in ascending degree (a stable argsort), a static minimum-degree
        # order: the sparsest rows pivot first, while they add little fill
        order = np.argsort([G.degree(v) for v in range(G.n)], kind="stable")
        pos = np.argsort(order)
        i, j = pos[i], pos[j]
        rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
        omega = np.zeros((G.n, G.n), dtype=np.int64)
        np.add.at(omega, (rows, cols), np.concatenate([-w, -w, w, w]))
        return _eliminate(omega % p, p) == G.n - 3


def _peel_order(G: Graph) -> np.ndarray:
    """G's vertices in the reverse of a minimum-degree peel, which deletes a vertex of
    least degree in what is left (ties to the smaller label) until none is left."""
    degree = [G.degree(v) for v in range(G.n)]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    peeled = [False] * G.n
    peel = []
    while heap:
        d, v = heapq.heappop(heap)
        if peeled[v] or d != degree[v]:
            continue
        peeled[v] = True
        peel.append(v)
        for u in G.neighbors(v):
            if not peeled[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return np.array(peel[::-1], dtype=np.intp)


def rigidity(G: Graph, seed: int = 0) -> RigidityResult:
    """The rigidity rank at one random integer embedding P, the deciding prime p and one
    uniformly random stress w mod p; P and then w's free entries come from one
    default_rng(seed) stream.

    _residue_rank ranks R(P)^T over Q, up to min(m, 2n - 3), which no embedding exceeds.
    A rank below the generic one makes P, uniform on [-2^30, 2^30]^2n, a zero of a
    nonzero minor of degree at most 2n - 3: by the Schwartz-Zippel lemma, probability at
    most (2n - 3) / (2^31 + 1), about 1.5e-6 at n = 1600. At rank 2n - 3, w solves
    R^T w = 0 mod p = primes[-1] on the deciding echelon form, that of R^T with its rows
    and columns permuted, and is written back in G.edges order.
    """
    if G.n < 2:
        raise DomainError("rigidity rank needs at least 2 vertices")
    if seed < 0:
        raise DomainError("seed must be at least 0")
    n, m = G.n, G.m
    # vertex rows in the reverse of a minimum-degree peel, close to a construction order,
    # edge columns by later, then earlier, endpoint in it: the order that kept fill least
    order = _peel_order(G)
    pos = np.argsort(order)
    i, j = (pos[e] for e in G.edge_index)
    cols = np.lexsort((np.minimum(i, j), np.maximum(i, j)))
    i, j = i[cols], j[cols]
    rng = np.random.default_rng(seed)
    rank, primes, M = _residue_rank(
        random_embedding(n, rng, 2 ** 30),
        lambda P: np.ascontiguousarray(edge_system(P[order], i, j, length_form)[1].T),
        min(m, 2 * n - 3), seed)
    if n < 4 or rank < 2 * n - 3:
        return RigidityResult(G, rank, None, None)
    w = np.empty(m, dtype=np.int64)
    w[cols] = _random_stress(M, rank, primes[-1], rng)
    return RigidityResult(G, rank, primes[-1], w)


def rigidity_rank(G: Graph, seed: int = 0) -> int:
    """rigidity()'s rank: the generic rank of the rigidity matrix unless its embedding
    is special (a lower bound always)."""
    return rigidity(G, seed).rank


def global_rigidity_oracle(G: Graph, seed: int = 0) -> bool:
    """rigidity()'s global-rigidity verdict; DomainError where it takes G for flexible."""
    if G.n < 4:
        raise DomainError("global rigidity oracle needs at least 4 vertices")
    verdict = rigidity(G, seed).globally_rigid
    if verdict is None:
        raise DomainError("global rigidity oracle requires a rigid graph")
    return verdict
