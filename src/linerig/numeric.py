"""Rigidity matrices, constraint Jacobians, rank computation, and dimension reports.

Every constraint system here is an edge system, built by one kernel, edge_system:
edge k = (i, j) contributes g_k = form(D) for D = X[i] - X[j], the difference of its
endpoints' coordinate rows, and Jacobian row k holds the form's gradient in the
columns of vertex i and its negation in those of vertex j. Two quadratic forms
cover the library: length_form (|D|^2, gradient 2D) on (n, 2) points gives the
edge function, the rigidity matrix R and the pair system [R(p), -R(p')];
lines3d.incidence_form (D0*D3 - D1*D2, gradient (D3, -D2, -D1, D0)) on (n, 4) line
charts gives the incidence system. The kernel runs unchanged on float arrays and on object
arrays of ints and Fractions; coordinates are exact, and so are g and J, when every
one of them passes lines3d.is_exact.

Floating ranks use singular-value thresholding: values below
tol * sigma_max * max(rows, cols) count as zero, and float dimension reports carry
the margin of that cut. rank_exact computes a rank mod random primes below 2^31, by
int64 row reduction, so certified reports on exact inputs can be reproduced exactly: a
rank mod p never exceeds the rational rank, so one prime that gives full rank
min(rows, cols) proves it, and a rank-deficient matrix needs two primes that agree on
the largest rank seen.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, compress
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import DomainError
from .graphs import Graph
from .lines3d import Line, LineConfig, check_squares, edge_scales, incidence_form, is_exact

Scalar = Union[int, float, Fraction]
Form = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
Cut = tuple[int, Optional[float], Optional[float]]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DimensionReport:
    """Local dimension certificate at one sampled configuration. A float rank's
    margin is the last singular value kept and the first one dropped (None where
    there is none, and in exact mode)."""

    ambient_dim: int
    constraint_count: int
    jacobian_rank: int
    tol: float
    certified: bool
    sigma_kept: Optional[float] = None
    sigma_dropped: Optional[float] = None
    local_dim_estimate: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.jacobian_rank <= min(self.constraint_count, self.ambient_dim):
            raise DomainError("jacobian rank outside [0, min(constraints, ambient)]")
        object.__setattr__(self, "local_dim_estimate", self.ambient_dim - self.jacobian_rank)

    def to_dict(self) -> dict:
        return asdict(self)


def _rank_cut(s: np.ndarray, shape: tuple[int, ...], tol: float) -> Cut:
    """The threshold rule on the descending singular values s of a matrix of the
    given shape: (rank, last value kept, first value dropped)."""
    rank = int(np.count_nonzero(s > tol * s[0] * max(shape))) if s.size and s[0] > 0 else 0
    return (rank, float(s[rank - 1]) if rank else None,
            float(s[rank]) if rank < s.size else None)


def _float_rank(M, tol: float) -> Cut:
    M = np.asarray(M, dtype=float)
    return _rank_cut(np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0), M.shape, tol)


def float_rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numeric rank by SVD thresholding."""
    return _float_rank(M, tol)[0]


# ---------------------------------------------------------------------------
# exact rank over random prime fields

# Miller-Rabin with these witnesses is exact below 3.2e9, which covers every
# prime _random_prime draws
_MR_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
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


def _random_prime(rng: random.Random) -> int:
    """A prime in [2^30, 2^31): the product of two residues fits in int64."""
    while True:
        candidate = rng.randrange(2 ** 30, 2 ** 31) | 1
        if _is_prime(candidate):
            return candidate


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^-1 mod p of each unit in the int64 array a, as a^(p - 2) by repeated squaring
    (Fermat); every product of two residues fits in int64 when p < 2^31."""
    out, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def _rank_mod_p(rows: list[list[int]], p: int) -> Optional[int]:
    """Rank over F_p of int and Fraction entries (as _as_exact_rows admits them),
    by row reduction of their residues in int64; None when a denominator is 0 mod p.
    Each nonzero entry is reduced once; each pivot clears its column in one update of
    the rows below it that are nonzero there, over the columns from the pivot's on."""
    ncols = len(rows[0])
    ri, ci, vals = [], [], []
    for r, row in enumerate(rows):
        cols = list(compress(range(ncols), row))
        ri += [r] * len(cols)
        ci += cols
        vals += map(row.__getitem__, cols)
    # an int is its own numerator, over denominator 1
    den = np.array([x.denominator % p for x in vals], dtype=np.int64)
    if not den.all():
        return None
    M = np.zeros((len(rows), ncols), dtype=np.int64)
    num = np.array([x.numerator % p for x in vals], dtype=np.int64)
    M[ri, ci] = num * _inverse_mod(den, p) % p
    rank = 0
    for c in range(ncols):
        nz = M[rank:, c].nonzero()[0]
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            # the row swapped down to piv is 0 in column c, as nz[0] is its first
            M[[rank, piv]] = M[[piv, rank]]
        prow = M[rank, c:] * pow(int(M[rank, c]), -1, p) % p
        below = rank + nz[1:]
        if below.size:
            block = M[below, c:]
            M[below, c:] = (block - block[:, :1] * prow) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


def _as_exact_rows(M) -> list[list[Union[int, Fraction]]]:
    rows = M.tolist() if isinstance(M, np.ndarray) else M
    # type, not isinstance, so that a bool is not taken for an int
    bad = set(map(type, chain.from_iterable(rows))) - {int, Fraction}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise DomainError(f"exact rank needs integer or rational entries, got {names}")
    return rows


def rank_exact(M, seed: int = 0) -> int:
    """Exact rank of an integer (or rational) matrix.

    Computes the rank modulo independently drawn random primes below 2^31, by int64
    row reduction, skipping any prime that divides a denominator. When every
    denominator is a unit mod p, a minor that vanishes over Q vanishes mod p too, so
    the rank mod p never exceeds the rational rank. Hence the first prime whose rank
    is the full min(rows, cols) proves full rank: that answer is always exact. Below
    that, primes are drawn until two agree on the largest rank seen. The rank mod p
    drops only when p divides every nonzero minor of the rational rank's size, and
    once a prime gives the rational rank no smaller rank can be returned, so a
    deficient answer is wrong only if the first two primes not skipped both divide
    one fixed such minor. The draws are uniform over the 5.07e7 primes in [2^30, 2^31),
    and a minor of b bits (Hadamard's bound, each row cleared of denominators) has at
    most b / 30 of them as factors. For the 797 x 1600 line Jacobian of the exact
    sample of laman_random(400, seed 1) (coordinates with numerators of up to 345 bits
    and denominators of up to 312), b is about 1.44e5: at most 4800 such factors, so
    a wrong deficient answer has probability below (4800 / 5.07e7)^2 < 1e-8.
    """
    rows = _as_exact_rows(M)
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    rng = random.Random(f"rank_exact:{seed}")
    results: list[int] = []
    for _ in range(64):
        p = _random_prime(rng)
        r = _rank_mod_p(rows, p)
        if r is None:
            continue
        if r == full:
            return r
        results.append(r)
        best = max(results)
        if results.count(best) >= 2:
            return best
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
    D = X[i] - X[j]
    g, grad = form(D)
    m, w = D.shape
    J = np.zeros((m, w * X.shape[0]), dtype=X.dtype)
    rows = np.arange(m)[:, None]
    slots = np.arange(w)
    J[rows, w * i[:, None] + slots] = grad
    J[rows, w * j[:, None] + slots] = -grad
    return g, J


def edge_index(G: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j) of G's edges, in canonical edge order."""
    e = np.array(G.edges, dtype=np.intp).reshape(-1, 2)
    return e[:, 0], e[:, 1]


def _coordinates(rows, width: int) -> np.ndarray:
    """rows as an (n, width) array: of objects (Python ints and Fractions) when every
    entry is exact (lines3d.is_exact), of floats otherwise. Float coordinates whose
    forms could overflow raise DomainError: both forms, a squared length and the
    incidence, sum two products of coordinate differences (check_squares)."""
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


def _embedding_system(G: Graph, p) -> tuple[np.ndarray, np.ndarray]:
    if len(p) != G.n:
        raise DomainError(f"embedding has {len(p)} points for a graph on {G.n} vertices")
    return edge_system(_coordinates(p, 2), *edge_index(G), length_form)


def edge_function(G: Graph, p) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    return _embedding_system(G, p)[0]


def rigidity_matrix(G: Graph, p) -> np.ndarray:
    """m x 2n Jacobian of the edge function: row (i,j) holds 2(p_i - p_j) at slot i
    and the negation at slot j."""
    return _embedding_system(G, p)[1]


def random_embedding(n: int, rng: np.random.Generator, box: int = 10 ** 4) -> np.ndarray:
    """Integer coordinates in [-box, box], enabling exact-rank replays."""
    return rng.integers(-box, box + 1, size=(n, 2)).astype(np.int64)


def _trial_rngs(seed: int, trials: int, offset: int = 0) -> Iterator[np.random.Generator]:
    """SeedSequence(seed + offset).spawn(trials)'s generators, each spawned when it
    is taken. A trial count below 1 or a negative seed raises DomainError."""
    if trials < 1:
        raise DomainError("trials must be positive")
    if seed < 0:
        raise DomainError("seed must be at least 0")
    root = np.random.SeedSequence(seed + offset)
    return (np.random.Generator(np.random.PCG64(root.spawn(1)[0])) for _ in range(trials))


def rigidity_rank(G: Graph, trials: int = 5, seed: int = 0, exact: bool = False) -> int:
    """Max rigidity-matrix rank over random integer embeddings; with exact=True
    every rank is rank_exact's, over the same embeddings. Returns at the first
    trial that reaches min(m, 2n - 3), a rank no embedding exceeds; each trial
    draws from its own generator, so the trials run are those of the full loop."""
    if G.n < 2:
        raise DomainError("rigidity rank needs at least 2 vertices")
    cap, best = min(G.m, 2 * G.n - 3), 0
    for rng in _trial_rngs(seed, trials):
        if best == cap:
            break
        P = random_embedding(G.n, rng)
        best = max(best, rank_exact(rigidity_matrix(G, P)) if exact
                   else float_rank(rigidity_matrix(G, P.astype(float))))
    return best


# ---------------------------------------------------------------------------
# line system (incidence constraints of a graph on a line configuration)


def _line_arrays(G: Graph, x: LineConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if x.n != G.n:
        raise DomainError(f"configuration has {x.n} lines for a graph on {G.n} vertices")
    return (_coordinates(x.coords(), 4), *edge_index(G))


def line_residuals(G: Graph, x: LineConfig) -> list[Scalar]:
    return edge_system(*_line_arrays(G, x), incidence_form)[0].tolist()


def line_system_jacobian(G: Graph, x: LineConfig) -> np.ndarray:
    """m x 4n Jacobian of the incidence residuals in the chart coordinates."""
    return edge_system(*_line_arrays(G, x), incidence_form)[1]


def line_system_dimension(G: Graph, x: LineConfig, tol: float = DEFAULT_TOL,
                          exact: bool = False) -> DimensionReport:
    """Rank certificate for the incidence system at x (which must satisfy it).

    certified means full row rank m; when m = 2n - 3 that pins the local dimension
    of the realization space at exactly 2n + 3 (the rank gives the upper bound, and
    the concurrent family through any point gives the matching lower bound).
    """
    X, i, j = _line_arrays(G, x)
    g, J = edge_system(X, i, j, incidence_form)
    return _certify(G, g, "configuration violates the incidence system", J, tol, exact,
                    lambda: edge_scales(X.astype(float), i, j))


# ---------------------------------------------------------------------------
# pair system (two embeddings with equal edge lengths)


def _pair_system(G: Graph, p, p_prime) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lengths f(p), f(p') and the m x 4n Jacobian [R(p), -R(p')]; float when
    either embedding is."""
    (fp, Jp), (fq, Jq) = _embedding_system(G, p), _embedding_system(G, p_prime)
    if Jp.dtype != Jq.dtype:
        fp, Jp, fq, Jq = (a.astype(float) for a in (fp, Jp, fq, Jq))
    return fp, fq, np.hstack([Jp, -Jq])


def pair_system_jacobian(G: Graph, p, p_prime) -> np.ndarray:
    """m x 4n Jacobian of (p, p') -> f(p) - f(p')."""
    return _pair_system(G, p, p_prime)[2]


def pair_system_dimension(G: Graph, p, p_prime, tol: float = DEFAULT_TOL,
                          exact: bool = False) -> DimensionReport:
    """Rank certificate for the equal-edge-lengths system at a pair of embeddings."""
    fp, fq, J = _pair_system(G, p, p_prime)
    return _certify(G, fp - fq, "edge lengths differ", J, tol, exact,
                    lambda: 1.0 + np.abs(np.hstack([fp, fq]).astype(float)).max(initial=0.0))


def _certify(G: Graph, g: np.ndarray, violation: str, J: np.ndarray, tol: float,
             exact: bool, scale: Callable[[], np.ndarray]) -> DimensionReport:
    """The dimension reports' shared tail: the residuals g must vanish, exactly in exact
    mode and within tol of scale() otherwise; then J's rank is compared with m."""
    if exact:
        if J.dtype != object:
            raise DomainError("exact mode needs integer or rational coordinates")
        for edge, r in zip(G.edges, g):
            if r != 0:
                raise DomainError(f"{violation}: edge {edge} has nonzero residual {r}")
        rank, kept, dropped = rank_exact(J), None, None
    else:
        rel = np.abs(g.astype(float)) / scale()
        if G.m:
            k = int(np.argmax(rel))
            if not rel[k] <= tol:
                raise DomainError(f"{violation}: edge {G.edges[k]} has relative residual "
                                  f"{rel[k]:.3e} > tol {tol:.1e}")
        rank, kept, dropped = _float_rank(J, tol)
    return DimensionReport(J.shape[1], G.m, rank, tol, rank == G.m, kept, dropped)


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
# global rigidity oracle (random stress matrix rank)


def global_rigidity_oracle(G: Graph, trials: int = 5, seed: int = 0,
                           tol: float = DEFAULT_TOL) -> bool:
    """Randomized stress test: true iff a generic equilibrium stress matrix has
    rank n - 3 in a majority of trials.

    Per trial: random integer embedding, random element of the left null space of
    the rigidity matrix as the stress, assembled into the n x n stress matrix
    sum_k stress_k (e_i - e_j)(e_i - e_j)^T. Minimally rigid graphs carry no
    nonzero stress and report rank 0. Raises DomainError when no trial's rigidity
    matrix reaches rank 2n - 3, the graph being then not rigid. Returns once a
    trial has shown rigidity and the remaining trials cannot change the
    majority; each trial draws from its own generator, so stopping early changes
    no other trial's draw.
    """
    if G.n < 4:
        raise DomainError("global rigidity oracle needs at least 4 vertices")
    i, j = edge_index(G)
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    rigid, votes = False, 0
    for left, rng in zip(range(trials - 1, -1, -1), _trial_rngs(seed, trials, 1)):
        R = rigidity_matrix(G, random_embedding(G.n, rng).astype(float))
        U, s, _ = np.linalg.svd(R, full_matrices=True)
        rank = _rank_cut(s, R.shape, tol)[0]
        rigid = rigid or rank == 2 * G.n - 3
        null_dim = G.m - rank
        if null_dim > 0:
            stress = U[:, rank:] @ rng.normal(size=null_dim)
            omega = np.zeros((G.n, G.n))
            np.add.at(omega, (rows, cols), np.concatenate([-stress, -stress, stress, stress]))
            votes += float_rank(omega, tol) == G.n - 3
        if rigid and (votes * 2 > trials or (votes + left) * 2 <= trials):
            break
    if not rigid:
        raise DomainError("global rigidity oracle requires a rigid graph")
    return votes * 2 > trials
