"""Computations the benchmark checks linerig's outputs against.

Each one is written here from its definition, with numpy only: none of them
calls into linerig, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Floating ranks follow the package's documented convention: singular values
# at or below RANK_TOL * sigma_max * max(rows, cols) count as zero.
RANK_TOL = 1e-8

# Two fixed primes below 2**31, so that a product of two residues fits in int64.
PRIMES = (2147483647, 2147483629)


def svd_rank(M: np.ndarray, tol: float = RANK_TOL) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0] * max(M.shape)))


def edge_index(edges) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def incidence_residuals(L: np.ndarray, edges) -> np.ndarray:
    """g(l_i, l_j) = (a_i - a_j)(d_i - d_j) - (b_i - b_j)(c_i - c_j) per edge,
    divided by (1 + the largest |coordinate| of the two lines)^2, since g is
    quadratic in the coordinates."""
    i, j = edge_index(edges)
    D = L[i] - L[j]
    g = D[:, 0] * D[:, 3] - D[:, 1] * D[:, 2]
    scale = 1.0 + np.maximum(np.abs(L[i]).max(axis=1), np.abs(L[j]).max(axis=1))
    return g / scale ** 2


def line_jacobian(L: np.ndarray, edges) -> np.ndarray:
    """m x 4n Jacobian of the incidence residuals g in the (a, b, c, d) chart."""
    i, j = edge_index(edges)
    D = L[i] - L[j]
    grad = np.stack([D[:, 3], -D[:, 2], -D[:, 1], D[:, 0]], axis=1)
    J = np.zeros((len(i), 4 * L.shape[0]))
    rows = np.arange(len(i))
    for t in range(4):
        J[rows, 4 * i + t] = grad[:, t]
        J[rows, 4 * j + t] = -grad[:, t]
    return J


def lines_distinct(L: np.ndarray, rel: float = 1e-8) -> bool:
    """No two rows of L agree to within rel * (1 + max |coordinate|)."""
    diff = np.abs(L[:, None, :] - L[None, :, :]).max(axis=2)
    np.fill_diagonal(diff, np.inf)
    return bool(diff.min() > rel * (1.0 + np.abs(L).max()))


def rigidity_matrix(P: np.ndarray, edges) -> np.ndarray:
    """m x 2n Jacobian of the squared edge lengths at the points P (n x 2)."""
    i, j = edge_index(edges)
    D = P[i] - P[j]
    R = np.zeros((len(i), 2 * P.shape[0]))
    rows = np.arange(len(i))
    for t in range(2):
        R[rows, 2 * i + t] = 2 * D[:, t]
        R[rows, 2 * j + t] = -2 * D[:, t]
    return R


def rigidity_ranks(n: int, edges, rng: np.random.Generator,
                   embeddings: int = 3) -> tuple[int, list[int]]:
    """Generic rigidity rank of the graph, and of the graph without each edge.

    A rank at one random real embedding can only fall short of the generic
    rank, so each is the largest over a few embeddings. Singular values count
    as zero below numpy's matrix_rank tolerance (sigma_max * max(m, 2n) * eps):
    an exact dependency leaves a singular value near eps * sigma_max, while a
    merely ill-conditioned random embedding stays far above that.
    """
    mats = [rigidity_matrix(rng.standard_normal((n, 2)), edges) for _ in range(embeddings)]
    rank = max(int(np.linalg.matrix_rank(R)) for R in mats)
    keep = np.ones(len(edges), dtype=bool)
    without = []
    for k in range(len(edges)):
        keep[k] = False
        best = 0
        for R in mats:
            best = max(best, int(np.linalg.matrix_rank(R[keep])))
            if best == rank:
                break
        without.append(best)
        keep[k] = True
    return rank, without


def residues_mod_p(shape, entries, p: int) -> np.ndarray | None:
    """The matrix with the given (row, col, rational) entries, zero elsewhere,
    as int64 residues mod p; None when some denominator vanishes mod p."""
    out = np.zeros(shape, dtype=np.int64)
    for r, c, x in entries:
        x = Fraction(x)
        den = x.denominator % p
        if den == 0:
            return None
        out[r, c] = x.numerator % p * pow(den, -1, p) % p
    return out


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank over F_p by row reduction in int64 (entries in [0, p), p < 2**31)."""
    M = M.copy() % p
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(M[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            M[[rank, piv]] = M[[piv, rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        below = rank + 1 + np.nonzero(M[rank + 1:, c])[0]
        if below.size:
            M[below] = (M[below] - M[below, c:c + 1] * M[rank]) % p
        rank += 1
    return rank


def exact_line_jacobian(coords, edges) -> tuple[tuple[int, int], list]:
    """Shape and nonzero entries of the m x 4n incidence Jacobian over Q."""
    entries = []
    for r, (i, j) in enumerate(edges):
        ai, bi, ci, di = coords[i]
        aj, bj, cj, dj = coords[j]
        for t, v in enumerate((di - dj, cj - ci, bj - bi, ai - aj)):
            if v:
                entries += [(r, 4 * i + t, v), (r, 4 * j + t, -v)]
    return (len(edges), 4 * len(coords)), entries


def exact_pair_jacobian(p, q, edges) -> tuple[tuple[int, int], list]:
    """Shape and nonzero entries of the m x 4n Jacobian of
    (p, q) -> |p_i - p_j|^2 - |q_i - q_j|^2 over Q."""
    n = len(p)
    entries = []
    for r, (i, j) in enumerate(edges):
        for t in range(2):
            dp = 2 * (Fraction(p[i][t]) - Fraction(p[j][t]))
            dq = 2 * (Fraction(q[i][t]) - Fraction(q[j][t]))
            entries += [(r, 2 * i + t, dp), (r, 2 * j + t, -dp),
                        (r, 2 * n + 2 * i + t, -dq), (r, 2 * n + 2 * j + t, dq)]
    return (len(edges), 4 * n), entries


def full_rank_mod_primes(shape, entries) -> tuple[bool, list[int]]:
    """Whether the rows are independent mod one of PRIMES, with the ranks found.

    A full row rank mod p proves full row rank over Q, since a minor that is
    nonzero mod p is nonzero. A prime at which a denominator vanishes is skipped.
    """
    ranks = []
    for p in PRIMES:
        M = residues_mod_p(shape, entries, p)
        if M is not None:
            ranks.append(rank_mod_p(M, p))
    return bool(ranks) and max(ranks) == shape[0], ranks
