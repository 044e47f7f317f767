import math
import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import finite_difference_jacobian, fraction_rank, random_graph
from hypothesis import given, settings
from hypothesis import strategies as st

import linerig.numeric as numeric

from linerig.errors import DomainError
from linerig.graphs import Graph, catalog, generate
from linerig.lines3d import Line, LineConfig, intersection_graph, meet_residual
from linerig.modp import random_prime
from linerig.numeric import (DimensionReport, edge_function, edge_system,
                             global_rigidity_oracle, incidence_form,
                             line_residuals, line_system_dimension, line_system_jacobian,
                             pair_system_dimension, pair_system_jacobian, rank_exact,
                             rigidity_matrix, rigidity_rank)
from linerig.sampler import sample_congruent_pair, sample_laman_lines, sample_laman_lines_exact
from linerig.sparsity import sparsity_rank

K2 = generate("complete", [2])
C4 = generate("cycle", [4])
K4 = generate("complete", [4])


def test_edge_function_examples():
    assert edge_function(K2, [(0, 0), (3, 4)]).tolist() == [25]
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert edge_function(C4, square).tolist() == [1, 1, 1, 1]


def test_edge_function_motion_invariance():
    rng = np.random.default_rng(0)
    G = generate("laman_random", [6], seed=1)
    p = rng.uniform(-5, 5, (6, 2))
    theta = 0.83
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    q = p @ R.T + np.array([2.5, -1.0])
    f1 = edge_function(G, p).astype(float)
    f2 = edge_function(G, q).astype(float)
    assert np.max(np.abs(f1 - f2)) <= 1e-12 * (1 + np.max(np.abs(f1)))


def test_rigidity_matrix_matches_finite_differences():
    rng = np.random.default_rng(1)
    G = generate("laman_random", [5], seed=2)
    p0 = rng.uniform(-3, 3, (5, 2))

    def f(vec):
        return edge_function(G, vec.reshape(5, 2)).astype(float)

    J = rigidity_matrix(G, p0).astype(float)
    J_fd = finite_difference_jacobian(f, p0.reshape(-1))
    assert np.max(np.abs(J - J_fd)) <= 1e-5 * (1 + np.max(np.abs(J)))


def test_line_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    G = generate("laman_random", [5], seed=3)
    x0 = rng.uniform(-3, 3, (5, 4))

    def f(vec):
        cfg = LineConfig.from_rows(vec.reshape(5, 4).tolist())
        from linerig.numeric import line_residuals
        return np.array([float(v) for v in line_residuals(G, cfg)])

    J = line_system_jacobian(G, LineConfig.from_rows(x0.tolist())).astype(float)
    J_fd = finite_difference_jacobian(f, x0.reshape(-1))
    assert np.max(np.abs(J - J_fd)) <= 1e-5 * (1 + np.max(np.abs(J)))


def test_rigidity_rank_examples():
    assert rigidity_rank(K2) == 1
    assert rigidity_rank(C4) == 4
    assert rigidity_rank(generate("complete", [3])) == 2 * 3 - 3
    assert rigidity_rank(C4) != 2 * 4 - 3
    assert rigidity_rank(K4) == 2 * 4 - 3
    for n in (4, 7, 10):
        G = generate("laman_random", [n], seed=n)
        assert rigidity_rank(G) == 2 * n - 3


def test_combinatorial_rank_equals_numeric_rank():
    rng = random.Random(11)
    for name, G in catalog(8):
        if G.n < 2:
            continue
        assert sparsity_rank(G).rank == rigidity_rank(G), name
    for _ in range(30):
        G = random_graph(rng, n_max=8, m_cap_slack=8)
        assert sparsity_rank(G).rank == rigidity_rank(G)


def test_rank_exact_basics():
    assert rank_exact(np.eye(5, dtype=int).tolist()) == 5
    assert rank_exact([[0, 0], [0, 0]]) == 0
    outer = [[2 * j for j in range(1, 5)], [4 * j for j in range(1, 5)]]
    assert rank_exact(outer) == 1
    with pytest.raises(DomainError):
        rank_exact([[0.5, 1.0]])
    with pytest.raises(DomainError, match="bool"):
        rank_exact([[1, True]])
    with pytest.raises(DomainError, match="int64"):
        rank_exact([[np.int64(1), np.int64(2)], [np.int64(3), np.int64(4)]])
    with pytest.raises(DomainError, match="float"):
        rank_exact(np.eye(2))
    assert rank_exact(np.eye(3, dtype=np.int64)) == 3
    assert rank_exact(np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object)) == 1
    # ragged rows and a vector are not matrices; an empty matrix has rank 0
    for bad in ([[1, 2], [3]], [[1], [2, 3]], [1, 2, 3]):
        with pytest.raises(DomainError, match="matrix"):
            rank_exact(bad)
    for empty in ([], [[]], np.zeros((0, 3), int)):
        assert rank_exact(empty) == 0


def test_rank_exact_matches_float_rank_on_random_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(-9, 10, size=(rng.integers(1, 8), rng.integers(1, 8)))
        r = np.linalg.matrix_rank(M.astype(float))
        assert rank_exact(M.tolist()) == r


_ENTRIES = (st.integers(-4, 4) | st.integers(-2 ** 80, 2 ** 80)
            | st.fractions(-4, 4, max_denominator=9))


# entries past the int64 kernel's own range: at or above 2^31 (a residue's bound)
# and 2^63 (int64's) in absolute value, and Fractions with large denominators
_WIDE_ENTRIES = (st.integers(-4, 4)
                 | st.integers(2 ** 31, 2 ** 33) | st.integers(-2 ** 33, -2 ** 31)
                 | st.integers(2 ** 63, 2 ** 66) | st.integers(-2 ** 66, -2 ** 63)
                 | st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 31, 2 ** 70)))


def _matrices(rows, cols, entries=_ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _exact_matrices(draw, entries=_ENTRIES):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        return draw(_matrices(rows, cols, entries))
    # a product A B of inner size k has rank at most k
    k = draw(st.integers(1, 3))
    A, B = draw(_matrices(rows, k, entries)), draw(_matrices(k, cols, entries))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@settings(max_examples=150)
@given(M=_exact_matrices(), seed=st.integers(0, 3))
def test_rank_exact_matches_fraction_elimination(M, seed):
    assert rank_exact(M, seed=seed) == fraction_rank(M)


@settings(max_examples=150)
@given(M=_exact_matrices(_WIDE_ENTRIES), seed=st.integers(0, 3))
def test_rank_exact_matches_fraction_elimination_on_wide_entries(M, seed):
    assert rank_exact(M, seed=seed) == fraction_rank(M)


def _count_eliminations(monkeypatch) -> list:
    """Patch numeric._eliminate to record each call's result."""
    results, inner = [], numeric._eliminate

    def counted(M, p):
        results.append(inner(M, p))
        return results[-1]

    monkeypatch.setattr(numeric, "_eliminate", counted)
    return results


def test_full_rank_takes_one_prime_and_deficient_rank_two(monkeypatch):
    results = _count_eliminations(monkeypatch)
    assert rank_exact(np.eye(6, dtype=int).tolist()) == 6 and results == [6]
    G = generate("laman_random", [8], seed=1)
    J = line_system_jacobian(G, sample_laman_lines_exact(G, seed=1))
    results.clear()
    assert rank_exact(J) == G.m == 2 * G.n - 3 and results == [G.m]
    results.clear()
    outer = [[i * j for j in range(1, 6)] for i in range(1, 5)]
    assert rank_exact(outer) == 1 and len(results) >= 2 and set(results) == {1}


def test_rank_exact_survives_a_prime_that_divides_a_pivot(monkeypatch):
    p = random_prime(random.Random("rank_exact:0"))
    results = _count_eliminations(monkeypatch)
    # column 0's only nonzero entry is p, so the first prime sees rank 1
    assert rank_exact([[p, 1], [0, 1]]) == 2 and results == [1, 2]
    results.clear()
    assert rank_exact([[p, 1, 1], [0, 1, 1], [0, 0, 0]]) == 2 and results == [1, 2, 2]


def test_rank_exact_skips_a_prime_that_divides_a_denominator(monkeypatch):
    """The stream's first prime p divides a denominator, so no elimination runs mod p
    and it is missing from _residue_rank's primes. The echelon form it returns is the
    last elimination's, with as many nonzero rows as the rank."""
    stream = random.Random("rank_exact:0")
    p, q, r = (random_prime(stream) for _ in range(3))
    results = _count_eliminations(monkeypatch)
    returned, inner = [], numeric._residue_rank
    monkeypatch.setattr(numeric, "_residue_rank",
                        lambda *args: returned.append(inner(*args)) or returned[-1])
    assert rank_exact([[Fraction(1, p), 1], [1, 2]]) == 2
    assert results == [2] and [ret[:2] for ret in returned] == [(2, (q,))]
    results.clear()
    assert rank_exact([[Fraction(1, p), Fraction(2, p)], [3, 6]]) == 1
    assert results == [1, 1] and returned[-1][:2] == (1, (q, r))
    for rank, _, M in returned:
        assert M.shape == (2, 2) and M[:rank].any(axis=1).all() and not M[rank:].any()


def test_prime_residues_invert_only_denominators_other_than_one(monkeypatch):
    """Each residue is numerator / denominator mod p, and values whose denominators
    are all 1 (ints, or Fractions over 1) are reduced with no inverse_mod call."""
    from linerig import modp
    ints = [3, -7, 2 ** 40 + 1, 0, Fraction(-9)]
    for values in (ints, ints + [Fraction(-5, 12)]):
        for (p, res), _ in zip(modp.prime_residues(values, random.Random(1)), range(3)):
            assert res.tolist() == [x.numerator * pow(x.denominator, -1, p) % p for x in values]
    monkeypatch.setattr(modp, "inverse_mod", None)
    p, res = next(modp.prime_residues(ints, random.Random(1)))
    assert res.tolist() == [int(x) % p for x in ints]


def test_eliminate_ranks_as_rank_exact_and_leaves_the_left_kernel():
    """_eliminate on A^T mod p: the rank is rank_exact's, and it leaves an echelon form
    with A^T's row space, each pivot its row's first nonzero: the form from which
    rigidity() back-substitutes a vector of A's left kernel."""
    rng = np.random.default_rng(28)
    for trial in range(60):
        p = random_prime(random.Random(trial))
        m, k = (int(x) for x in rng.integers(1, 13, size=2))
        if trial % 3 == 0:
            # residues anywhere in [0, p), a fifth of them p - 1, the last row a repeat
            A = rng.integers(p, size=(m, k))
            A[rng.random((m, k)) < 0.2] = p - 1
            A[-1] = A[0]
        else:
            # a product of rank at most r over Z; its negative entries reduce to p - 1, p - 2
            r = int(rng.integers(0, min(m, k) + 1))
            A = rng.integers(-2, 3, size=(m, r)) @ rng.integers(-2, 3, size=(r, k))
        M = (A % p).T.copy()
        rank = numeric._eliminate(M, p)
        assert rank == rank_exact(A.tolist()) and not M[rank:].any()
        pivots = [int(row.nonzero()[0][0]) for row in M[:rank]]
        assert pivots == sorted(set(pivots))
        assert numeric._eliminate(np.vstack([M[:rank], (A % p).T]), p) == rank


def test_eliminate_stays_exact_where_its_products_reach_2_62():
    """At p = 2^31 - 1 with most residues p - 1 (entries -1 of a 0/+-1 matrix), the
    fraction-free update's two products are near (p - 1)^2 and (p - 1) * p, about 2^62
    each: no int64 sum overflows, so the rank is rank_exact's and the echelon rows
    still span A^T's rows."""
    p = 2 ** 31 - 1
    rng = np.random.default_rng(31)
    near_p = entries = 0
    for trial in range(40):
        m, k = (int(x) for x in rng.integers(1, 15, size=2))
        if trial % 2:
            A = rng.choice([-1, -1, -1, 0, 1], size=(m, k))
        else:
            # rank at most r, every nonzero entry negative: residues p - 1, p - 2, ...
            r = int(rng.integers(0, min(m, k) + 1))
            A = -(rng.integers(0, 2, size=(m, r)) @ rng.integers(0, 2, size=(r, k)))
        M = (A % p).T.copy()
        near_p, entries = near_p + int((M >= p - 3).sum()), entries + M.size
        rank = numeric._eliminate(M, p)
        assert rank == rank_exact(A.tolist()) and not M[rank:].any()
        assert numeric._eliminate(np.vstack([M[:rank], (A % p).T]), p) == rank
    assert near_p > entries / 3


def test_fraction_free_elimination_leaves_the_normalized_ones_stress():
    """Each echelon row of the fraction-free kernel is a unit multiple of the row that
    the normalized kernel (helpers.normalized_eliminate) leaves, so _random_stress
    solves the same stress from the same draws: on R(P)^T mod p of rigid graphs and on
    wide random matrices of deficient rank."""
    from helpers import normalized_eliminate
    from linerig.numeric import _random_stress, edge_index, length_form, random_embedding
    rng = np.random.default_rng(7)
    matrices = []
    for G in (K4, generate("wheel", [6]), generate("complete", [7]),
              generate("hendrickson_random", [12, 3], seed=2)):
        i, j = edge_index(G)
        P = random_embedding(G.n, rng, 2 ** 30).astype(object)
        matrices.append(edge_system(P, i, j, length_form)[1].T)
    matrices += [rng.integers(-3, 4, size=(6, 2)) @ rng.integers(-3, 4, size=(2, 11)),
                 rng.integers(-3, 4, size=(5, 12))]
    for trial, A in enumerate(matrices):
        p = random_prime(random.Random(trial)) if trial % 2 else 2 ** 31 - 1
        X = (np.array(A, dtype=object) % p).astype(np.int64)
        Y = X.copy()
        rank = numeric._eliminate(X, p)
        assert rank == normalized_eliminate(Y, p) and rank < X.shape[1]
        for x, y in zip(X[:rank].astype(object), Y[:rank].astype(object)):
            c = int(y.nonzero()[0][0])
            assert x[c] and not ((x * y[c] - y * x[c]) % p).any()
        for seed in range(3):
            w = _random_stress(X, rank, p, np.random.default_rng(seed))
            assert (w == _random_stress(Y, rank, p, np.random.default_rng(seed))).all()
            assert w.any() and not (np.array(A, dtype=object) @ w.astype(object) % p).any()


def test_line_system_dimension_k2():
    cfg = LineConfig((Line(0, 0, 0, 0), Line(0, 0, 1, 0)))
    rep = line_system_dimension(K2, cfg)
    assert rep.jacobian_rank == 1 and rep.local_dim_estimate == 7 and rep.certified


def test_line_system_dimension_laman_sample():
    G = K4.without_edge(0, 1)
    cfg = sample_laman_lines(G, seed=5)
    rep = line_system_dimension(G, cfg)
    assert rep.certified and rep.jacobian_rank == 5 and rep.local_dim_estimate == 11


def test_line_system_dimension_flags_deficiency():
    G = generate("laman_random", [5], seed=3)
    # pencil inside a plane: transform preimages are collinear, so the rank drops
    mu, nu = 2, 1
    y0, z0 = 2, 3
    x0 = z0 - mu * y0 - nu
    rows = [(x0 - (1 - mu * d) * z0, y0 - d * z0, 1 - mu * d, d) for d in range(5)]
    rep = line_system_dimension(G, LineConfig.from_rows(rows))
    assert not rep.certified and rep.jacobian_rank < G.m
    # coincident lines: the Jacobian vanishes outright
    rep0 = line_system_dimension(G, LineConfig.from_rows([(1, 2, 3, 4)] * 5))
    assert rep0.jacobian_rank == 0 and not rep0.certified


def test_line_system_dimension_checks_residuals():
    cfg = LineConfig((Line(0, 0, 0, 0), Line(1, 0, 0, 1)))
    with pytest.raises(DomainError, match=r"edge \(0, 1\)"):
        line_system_dimension(K2, cfg)


def test_pair_system_dimension_examples():
    # rigid graph at a congruent pair: local dimension 2n + 3
    G = generate("laman_random", [6], seed=4)
    p, q = sample_congruent_pair(G, orientation=1, seed=0)
    rep = pair_system_dimension(G, p, q)
    assert rep.jacobian_rank == 9 and rep.local_dim_estimate == 15
    # flexible C4: local dimension at least 2n + 4
    p, q = sample_congruent_pair(C4, orientation=-1, seed=1)
    rep = pair_system_dimension(C4, p, q)
    assert rep.local_dim_estimate >= 12
    # K2: one constraint in 8 variables
    p, q = sample_congruent_pair(K2, orientation=1, seed=2)
    rep = pair_system_dimension(K2, p, q)
    assert rep.local_dim_estimate == 7


def test_pair_system_checks_equal_lengths():
    G = generate("complete", [3])
    p = [(0, 0), (1, 0), (0, 1)]
    q = [(0, 0), (5, 0), (0, 1)]
    with pytest.raises(DomainError, match="lengths differ"):
        pair_system_dimension(G, p, q)


def test_pair_system_exact_mode():
    G = generate("laman_random", [5], seed=9)
    p, q = sample_congruent_pair(G, orientation=1, seed=3, exact=True)
    rep = pair_system_dimension(G, p, q, exact=True)
    assert rep.jacobian_rank == 7 and rep.certified


def test_exact_mode_rejects_inexact_coordinates():
    # one float coordinate makes a configuration float, and one float embedding makes
    # its pair float; each still certifies in float mode
    lines = LineConfig.from_rows([[0, 0, 0, 0], [1.0, 0, 1, 0]])
    exact_p, float_p = [[0, 0], [1, 0]], [[0.0, 0.0], [1.0, 0.0]]
    for certify, args in ((line_system_dimension, (lines,)),
                          (pair_system_dimension, (float_p, float_p)),
                          (pair_system_dimension, (exact_p, float_p))):
        assert certify(K2, *args).certified
        with pytest.raises(DomainError, match="exact mode needs integer or rational coordinates"):
            certify(K2, *args, exact=True)


def test_exact_certificates_require_exact_zeros():
    # both points are within the float tolerance of the system, but not on it
    near = LineConfig.from_rows([[0, 0, 0, 0], [Fraction(1, 10 ** 12), 0, 0, 1]])
    p, q = [[0, 0], [1, 0]], [[0, 0], [1 + Fraction(1, 10 ** 12), 0]]
    assert line_system_dimension(K2, near).certified
    assert pair_system_dimension(K2, p, q).certified
    with pytest.raises(DomainError, match=r"incidence system: edge \(0, 1\) has nonzero residual"):
        line_system_dimension(K2, near, exact=True)
    with pytest.raises(DomainError, match=r"lengths differ: edge \(0, 1\) has nonzero residual"):
        pair_system_dimension(K2, p, q, exact=True)
    # points exactly on the systems still certify
    G = generate("laman_random", [7], seed=4)
    assert line_system_dimension(G, sample_laman_lines_exact(G, seed=4), exact=True).certified
    for orientation in (1, -1):
        p, q = sample_congruent_pair(G, orientation=orientation, seed=6, exact=True)
        assert pair_system_dimension(G, p, q, exact=True).certified


def test_exact_reports_rank_from_coordinate_residues_as_rank_exact_does():
    """Exact reports rank J mod p from the coordinates' residues, without building J.
    Each rank equals rank_exact of the built object Jacobian, under rank_exact's rules
    and prime stream: one prime proves full rank, a deficient rank takes two that
    agree, and a prime that divides a denominator is skipped. primes names the ones
    whose eliminations ran."""
    stream = random.Random("rank_exact:0")
    first, second = random_prime(stream), random_prime(stream)
    shift = Fraction(1, first)  # a translation by it moves no incidence and leaves J

    def cases():
        for n, seed in ((6, 0), (12, 1), (40, 2)):
            G = generate("laman_random", [n], seed=seed)
            cfg = sample_laman_lines_exact(G, seed=seed)
            moved = LineConfig.from_rows([(a + shift, b, c, d) for a, b, c, d in cfg.coords()])
            yield G, (cfg,), (first,)
            yield G, (moved,), (second,)
            for orientation in (1, -1):
                p, q = sample_congruent_pair(G, orientation=orientation, seed=seed, exact=True)
                yield G, (p, q), (first,)
                yield G, ([[x + shift, y] for x, y in p], q), (second,)
        # K5 on five concurrent lines, through (1, 2, 3): m = 10 and rank 2n - 3 = 7
        K5 = generate("complete", [5])
        dirs = [(0, 1), (1, 0), (2, -1), (-3, 5), (4, 4)]
        yield K5, (LineConfig.from_rows([(1 - 3 * c, 2 - 3 * d, c, d) for c, d in dirs]),), \
            (first, second)

    for G, args, primes in cases():
        certify, jacobian = ((line_system_dimension, line_system_jacobian) if len(args) == 1
                             else (pair_system_dimension, pair_system_jacobian))
        rep = certify(G, *args, exact=True)
        assert rep.jacobian_rank == rank_exact(jacobian(G, *args))
        assert rep.primes == primes and rep.certified == (rep.jacobian_rank == G.m)
        assert rep.ambient_dim == 4 * G.n and rep.sigma_kept is rep.sigma_dropped is None
    assert rep.jacobian_rank == 7 and G.m == 10


def _verdict(certify) -> object:
    """A dimension report's (rank, certified), or "violated" where the residuals fail."""
    try:
        rep = certify()
    except DomainError:
        return "violated"
    return rep.jacobian_rank, rep.certified


_SCALES = [10.0 ** k for k in range(-9, 13)]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["sample", "random lines", "congruent pair", "random pair"]))
def test_verdicts_do_not_depend_on_the_coordinate_scale(n, seed, kind):
    """line_system_dimension, intersection_graph and pair_system_dimension give the
    same verdict on lam * X as on X, for lam = 1e-9 to 1e12: samples and congruent
    pairs certify at full rank, random lines and random pairs never do."""
    G = generate("laman_random", [n], seed=seed)
    rng = np.random.default_rng(seed)
    if kind.endswith("pair"):
        P, Q = (sample_congruent_pair(G, orientation=1 - 2 * (seed % 2), seed=seed)
                if kind == "congruent pair" else rng.integers(-100, 101, size=(2, n, 2)))
        verdicts = {_verdict(lambda: pair_system_dimension(G, lam * P, lam * Q))
                    for lam in _SCALES}
        assert verdicts == ({(G.m, True)} if kind == "congruent pair" else {"violated"})
        return
    X = (sample_laman_lines(G, seed=seed).as_array() if kind == "sample"
         else rng.integers(-40, 41, size=(n, 4)))
    verdicts = set()
    for lam in _SCALES:
        cfg = LineConfig.from_rows((lam * X).tolist())
        verdicts.add((_verdict(lambda: line_system_dimension(G, cfg)), intersection_graph(cfg).edges))
    ((verdict, meets),) = verdicts
    if kind == "sample":
        assert verdict == (G.m, True) and set(G.edges) <= set(meets)
    else:
        assert verdict == "violated"


def test_a_translated_sample_keeps_its_certificate():
    """Adding T to every chart coordinate leaves each difference D, and so each
    incidence, as it is: the certified sample of laman_random(12, seed 1) keeps its
    certificate and its intersection graph, and twelve random lines stay off the
    system and meet in no pair, for T up to 1e12; only the rounding term grows."""
    G = generate("laman_random", [12], seed=1)
    X = sample_laman_lines(G, seed=1).as_array()
    R = np.random.default_rng(0).integers(-40, 41, size=(12, 4))
    want = intersection_graph(LineConfig.from_rows(X.tolist())).edges
    assert set(G.edges) <= set(want)
    for T in (10.0 ** k for k in range(13)):
        cfg, rand = (LineConfig.from_rows((Y + T).tolist()) for Y in (X, R))
        assert _verdict(lambda: line_system_dimension(G, cfg)) == (G.m, True)
        assert intersection_graph(cfg).edges == want
        assert _verdict(lambda: line_system_dimension(G, rand)) == "violated"
        assert intersection_graph(rand).m == 0


def test_dimension_report_invariants():
    with pytest.raises(DomainError):
        DimensionReport(ambient_dim=8, constraint_count=2, jacobian_rank=3, tol=1e-8,
                        certified=False)
    rep = DimensionReport(ambient_dim=8, constraint_count=2, jacobian_rank=2, tol=1e-8,
                          certified=True)
    assert rep.to_dict()["local_dim_estimate"] == 6


def test_global_rigidity_oracle_examples():
    assert global_rigidity_oracle(K4)
    assert global_rigidity_oracle(generate("wheel", [5]))
    # minimally rigid graphs carry no stress: never globally rigid
    G = generate("laman_random", [6], seed=5)
    assert not global_rigidity_oracle(G)
    with pytest.raises(DomainError):
        global_rigidity_oracle(C4)


def test_stress_oracle_agrees_with_hendrickson_and_the_float_vote():
    """On the catalog, graphs glued on an edge, and Hendrickson graphs with one or
    two edges deleted: the exact oracle equals is_hendrickson and the float majority
    vote on every rigid graph, so it never says True on a rigid graph that is not
    Hendrickson. Both oracles refuse every flexible graph: a cycle and Laman graphs
    with an edge deleted."""
    from helpers import float_stress_oracle, glued_on_edge
    from linerig.sparsity import is_hendrickson
    from linerig.verify import hendrickson_catalog
    graphs = [G for _, G in hendrickson_catalog(8)]
    graphs += [glued_on_edge(generate("hendrickson_random", [n, 4], seed=n), generate("complete", [k]), n)
               for n, k in ((6, 4), (8, 5), (10, 4))]
    for n in (7, 9, 12):
        H = generate("hendrickson_random", [n, 3], seed=n)
        for d in (1, 2):
            gone = random.Random(n * d).sample(H.edges, d)
            graphs.append(Graph(H.n, tuple(e for e in H.edges if e not in gone)))
    graphs += [generate("cycle", [6])] + [Graph(n, generate("laman_random", [n], seed=n).edges[1:])
                                          for n in (5, 8)]
    kinds = {"hendrickson": 0, "rigid, not hendrickson": 0, "flexible": 0}
    for G in graphs:
        rigid = sparsity_rank(G).rank == 2 * G.n - 3
        for seed in range(3):
            if not rigid:
                for oracle in (global_rigidity_oracle, float_stress_oracle):
                    with pytest.raises(DomainError, match="rigid graph"):
                        oracle(G, seed=seed)
                kinds["flexible"] += 1
                continue
            verdict = global_rigidity_oracle(G, seed=seed)
            assert verdict == is_hendrickson(G) == float_stress_oracle(G, seed=seed), (G, seed)
            kinds["hendrickson" if verdict else "rigid, not hendrickson"] += 1
    assert kinds == {"hendrickson": 63, "rigid, not hendrickson": 51, "flexible": 9}


def test_pair_jacobian_structure():
    G = K2
    J = pair_system_jacobian(G, [(0, 0), (1, 0)], [(0, 0), (1, 0)])
    assert J.shape == (1, 8)
    assert J.tolist()[0][:4] == [-2, 0, 2, 0]
    assert J.tolist()[0][4:] == [2, 0, -2, 0]


# ---------------------------------------------------------------------------
# the edge-system kernel against references written apart from it


def _central_difference(g, x):
    """m x len(x) matrix of (g(x + e_k) - g(x - e_k)) / 2 in Fraction arithmetic:
    the exact Jacobian of a quadratic g."""
    x = [Fraction(v) for v in x]
    cols = []
    for k in range(len(x)):
        hi, lo = list(x), list(x)
        hi[k] += 1
        lo[k] -= 1
        cols.append([(a - b) / 2 for a, b in zip(g(hi), g(lo))])
    return [list(row) for row in zip(*cols)]


def _squared_lengths(G, x):
    """|p_i - p_j|^2 per edge, for points flattened as x = (x_0, y_0, x_1, ...)."""
    return [(x[2 * i] - x[2 * j]) ** 2 + (x[2 * i + 1] - x[2 * j + 1]) ** 2 for i, j in G.edges]


def _meets(G, x):
    return [meet_residual(Line(*x[4 * i:4 * i + 4]), Line(*x[4 * j:4 * j + 4])) for i, j in G.edges]


def _draw(rng, rows, width, exact):
    if exact:
        return [[rng.choice([rng.randint(-30, 30), Fraction(rng.randint(-99, 99), rng.randint(1, 9))])
                 for _ in range(width)] for _ in range(rows)]
    return [[rng.uniform(-30, 30) for _ in range(width)] for _ in range(rows)]


def _assert_matches(J, want, exact):
    assert (J.dtype == object) == exact
    if exact:
        assert J.tolist() == want
    else:
        assert J.tolist() == [[float(v) for v in row] for row in want]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_edge_systems_match_references(exact):
    rng = random.Random(16 + exact)
    G = generate("laman_random", [9], seed=16)
    n = G.n
    # line system: residuals are meet_residual, columns the exact central differences
    rows = _draw(rng, n, 4, exact)
    cfg = LineConfig.from_rows(rows)
    assert line_residuals(G, cfg) == [meet_residual(cfg[i], cfg[j]) for i, j in G.edges]
    want = _central_difference(lambda x: _meets(G, x), [v for row in rows for v in row])
    _assert_matches(line_system_jacobian(G, cfg), want, exact)
    # rigidity system: squared lengths and their exact derivatives
    p = _draw(rng, n, 2, exact)
    xp = [v for pt in p for v in pt]
    fp = edge_function(G, p)
    assert (fp.dtype == object) == exact and fp.tolist() == _squared_lengths(G, xp)
    _assert_matches(rigidity_matrix(G, p), _central_difference(lambda x: _squared_lengths(G, x), xp),
                    exact)
    # pair system: f(p) - f(p') in the variables (p, p')
    q = _draw(rng, n, 2, exact)
    pq = xp + [v for pt in q for v in pt]

    def pair(x):
        return [a - b for a, b in zip(_squared_lengths(G, x[:2 * n]), _squared_lengths(G, x[2 * n:]))]

    _assert_matches(pair_system_jacobian(G, p, q), _central_difference(pair, pq), exact)


def test_edge_system_on_mixed_and_empty_inputs():
    # one float coordinate makes the whole system float
    assert edge_function(K2, [(0, Fraction(1, 3)), (1.5, 2)]).dtype == float
    # numpy integer arrays are exact
    J = rigidity_matrix(K2, np.array([[0, 0], [3, 4]]))
    assert J.dtype == object and J.tolist() == [[-6, -8, 6, 8]]
    # a pair of one exact and one float embedding is float, as its parts are
    assert pair_system_jacobian(K2, [(0, 0), (3, 4)], [(0.0, 0.0), (5.0, 0.0)]).dtype == float
    g, J = edge_system(np.zeros((3, 4)), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                       incidence_form)
    assert g.shape == (0,) and J.shape == (0, 12)
    with pytest.raises(DomainError, match="rows of 2 numbers"):
        rigidity_matrix(K2, [(0, 0, 1), (3, 4, 1)])


def test_float_reports_carry_their_margin():
    G = generate("laman_random", [5], seed=3)
    mu, nu, y0, z0 = 2, 1, 2, 3
    x0 = z0 - mu * y0 - nu
    pencil = LineConfig.from_rows([(x0 - (1 - mu * d) * z0, y0 - d * z0, 1 - mu * d, d)
                                   for d in range(5)])
    rep = line_system_dimension(G, pencil)
    s = np.linalg.svd(line_system_jacobian(G, pencil).astype(float), compute_uv=False)
    cut = rep.tol * s[0] * 4 * G.n
    r = rep.jacobian_rank
    assert rep.sigma_kept == s[r - 1] > cut >= rep.sigma_dropped == s[r]
    # full row rank: nothing is dropped
    G4 = K4.without_edge(0, 1)
    sample = sample_laman_lines(G4, seed=5)
    full = line_system_dimension(G4, sample)
    assert full.certified and full.sigma_kept > 0 and full.sigma_dropped is None
    # a certified margin is the Cholesky test's proved lower bound on sigma_min
    s = np.linalg.svd(line_system_jacobian(G4, sample).astype(float), compute_uv=False)
    assert full.sigma_kept <= s[-1]
    assert set(full.to_dict()) >= {"sigma_kept", "sigma_dropped"} and full.primes is None
    # exact mode has no singular values
    p, q = sample_congruent_pair(K4, orientation=1, seed=3, exact=True)
    exact = pair_system_dimension(K4, p, q, exact=True)
    assert exact.sigma_kept is None and exact.sigma_dropped is None
    assert line_system_dimension(G, LineConfig.from_rows([(1, 2, 3, 4)] * 5)).sigma_kept is None


def _svd_sigma_min(G, args) -> float:
    jacobian = line_system_jacobian if len(args) == 1 else pair_system_jacobian
    return np.linalg.svd(jacobian(G, *args).astype(float), compute_uv=False)[-1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10 ** 6), k=st.integers(-60, 60),
       kind=st.sampled_from(["float sample", "exact sample", "congruent pair",
                             "exact congruent pair", "translated sample"]))
def test_certified_margins_are_lower_bounds_on_sigma_min(n, seed, k, kind):
    """Every certified float report, of a line or a pair system, has sigma_kept <=
    sigma_min(J) from an SVD: on float and exact (Fraction) samples and congruent pairs,
    scaled by 2^k, and on float samples translated by 10^(k / 6)."""
    G = generate("laman_random", [n], seed=seed)
    if kind.endswith("pair"):
        p, q = sample_congruent_pair(G, orientation=1 - 2 * (seed % 2), seed=seed,
                                     exact=kind.startswith("exact"))
        if kind.startswith("exact"):
            args = tuple([[x * Fraction(2) ** k for x in r] for r in e] for e in (p, q))
        else:
            args = (np.ldexp(p, k), np.ldexp(q, k))
        rep = pair_system_dimension(G, *args)
    else:
        if kind == "exact sample":
            rows = [[x * Fraction(2) ** k for x in r]
                    for r in sample_laman_lines_exact(G, seed=seed).coords()]
        else:
            X = sample_laman_lines(G, seed=seed).as_array()
            rows = (X + 10.0 ** (k / 6) if kind == "translated sample" else np.ldexp(X, k)).tolist()
        args = (LineConfig.from_rows(rows),)
        rep = line_system_dimension(G, *args)
    if rep.certified:
        assert rep.jacobian_rank == G.m and rep.sigma_dropped is None
        assert 0 < rep.sigma_kept <= _svd_sigma_min(G, args)
    else:
        assert kind in ("exact sample", "translated sample")


def test_a_perturbed_pencil_is_not_certified():
    """The pencil of test_float_reports_carry_their_margin has rank 4 of 7. Moved by
    delta along a fixed direction E with J E = 0, its incidences move by delta^2 only,
    and sigma_min(J) grows like 3.4 delta, below the cut at delta = 1e-12 and at
    delta = 1e-6. Neither is certified, and each report is the SVD's. At 1e-6,
    sigma_min^2 lies above the test's rounding shift c (sigma_min is 0.37 of the cut),
    so a test whose shift dropped alpha would certify it."""
    G = generate("laman_random", [5], seed=3)
    P = np.array([(-2 - 3 * (1 - 2 * d), 2 - 3 * d, 1 - 2 * d, d) for d in range(5)], float)
    J0 = line_system_jacobian(G, LineConfig.from_rows(P.tolist())).astype(float)
    v = (np.arange(20) * 3 % 7 - 3).astype(float)
    E = (v - np.linalg.pinv(J0) @ (J0 @ v)).reshape(5, 4)
    for delta in (1e-12, 1e-6):
        cfg = LineConfig.from_rows((P + delta * E).tolist())
        rep = line_system_dimension(G, cfg)
        s = np.linalg.svd(line_system_jacobian(G, cfg).astype(float), compute_uv=False)
        r = rep.jacobian_rank
        assert 2 * delta < s[-1] < 0.5 * rep.tol * s[0] * 4 * G.n
        assert not rep.certified and r < G.m
        assert rep.sigma_kept == s[r - 1] and rep.sigma_dropped == s[r]


def test_equal_lines_are_not_certified():
    """Lines 0 and 1 of the path 0-1-2 are equal, as at the start of the projection's
    lstsq fallback test, and line 2 meets them: edge (0, 1) has a zero gradient, so
    J J^T has a zero row and no shift leaves it positive definite. The report is the
    SVD's: rank 1 of 2."""
    G = Graph(3, ((0, 1), (1, 2)))
    cfg = LineConfig.from_rows([[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 7, 1]])
    rep = line_system_dimension(G, cfg)
    assert not rep.certified and rep.jacobian_rank == 1
    assert rep.sigma_kept == math.sqrt(50) and rep.sigma_dropped == 0


def test_certificates_survive_extreme_scales():
    """A certified line sample and a certified congruent pair, scaled by 2^500, 2^-500
    and to a largest coordinate of 1e153 (where J J^T's unscaled row sums would
    overflow), still certify: the test scales the gradients by a power of two, so
    sigma_kept scales exactly by 2^k, and by the factor to within rounding."""
    G = generate("laman_random", [12], seed=1)
    X = sample_laman_lines(G, seed=1).as_array()
    p, q = sample_congruent_pair(G, orientation=-1, seed=1)
    cases = ((lambda t: line_system_dimension(G, LineConfig.from_rows(t(X).tolist())), X),
             (lambda t: pair_system_dimension(G, t(p), t(q)), np.hstack([p, q])))
    for certify, rows in cases:
        base = certify(lambda Y: Y)
        assert base.certified
        for k in (500, -500):
            rep = certify(lambda Y: np.ldexp(Y, k))
            assert rep.certified and rep.sigma_kept == math.ldexp(base.sigma_kept, k)
        lam = 1e153 / np.abs(rows).max()
        rep = certify(lambda Y: Y * lam)
        assert rep.certified and rep.sigma_kept == pytest.approx(base.sigma_kept * lam, rel=1e-9)


def test_rigidity_rank_exact_matches_float_rank(monkeypatch):
    """rigidity_rank, a rank mod p, equals rank_exact of the rigidity matrices of the
    embeddings it drew, and the float SVD rank over every trial."""
    from helpers import full_rigidity_rank
    drawn = []

    def recorded(n, rng, *args):
        drawn.append(random_embedding(n, rng, *args))
        return drawn[-1]

    random_embedding = numeric.random_embedding
    monkeypatch.setattr(numeric, "random_embedding", recorded)
    for G, seed, want in ((generate("laman_random", [6], seed=0), 0, 9),
                          (generate("laman_random", [9], seed=4), 4, 15), (C4, 0, 4)):
        drawn.clear()
        assert rigidity_rank(G, seed=seed) == want and drawn
        assert max(rank_exact(rigidity_matrix(G, P)) for P in drawn) == want
        assert full_rigidity_rank(G, seed=seed) == want


def test_global_rigidity_oracle_checks_rigidity_with_its_own_trials(monkeypatch):
    import linerig.numeric as numeric
    calls = []
    monkeypatch.setattr(numeric, "rigidity_rank", lambda *a, **k: calls.append(a))
    assert global_rigidity_oracle(K4)
    assert calls == []
    with pytest.raises(DomainError, match="rigid graph"):
        global_rigidity_oracle(generate("cycle", [6]))
    with pytest.raises(DomainError, match="rigid graph"):
        global_rigidity_oracle(Graph(5, ()))


def test_hendrickson_oracle_takes_one_rigidity_pass_per_graph(monkeypatch):
    import linerig.verify as verify
    from linerig.sparsity import is_hendrickson, is_redundant
    passes, records = [], []

    def counted(G, *args, **kwargs):
        passes.append(G)
        return numeric.rigidity(G, *args, **kwargs)

    # the catalog's graphs are all rigid; two flexible ones exercise the other verdict
    catalog = verify.hendrickson_catalog(7) + [
        ("cycle(6)", generate("cycle", [6])),
        ("K4-minus-edge-plus-pendant",
         Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))]
    monkeypatch.setattr(verify, "hendrickson_catalog", lambda n_max: catalog)
    monkeypatch.setattr(verify, "rigidity", counted)
    monkeypatch.setattr(verify.SuiteReport, "record",
                        lambda self, ok, **detail: records.append((ok, detail)))
    verify.hendrickson_oracle(n_max=7, seed=2)
    assert passes == [G for _, G in catalog]
    # the verdicts of the rigidity rank and the oracle, each on its own
    flexible = []
    for (name, G), (ok, detail) in zip(catalog, records, strict=True):
        assert ok and detail["graph"] == name
        if rigidity_rank(G, seed=2) != 2 * G.n - 3:
            flexible.append(name)
            assert detail == {"graph": name, "note": "flexible"}
        else:
            assert detail["combinatorial"] == is_hendrickson(G)
            assert detail["oracle"] == global_rigidity_oracle(G, seed=2)
            assert detail["redundant"] == detail["stress_redundant"] == is_redundant(G)
    assert flexible == ["cycle(6)", "K4-minus-edge-plus-pendant"]


def test_hendrickson_oracle_fails_a_stress_redundancy_that_disagrees(monkeypatch):
    """The suite records the stress-support redundancy beside is_redundant and fails
    each rigid graph where the two differ, naming the prime its stress lives mod."""
    from types import SimpleNamespace
    import linerig.verify as verify
    from linerig.sparsity import is_redundant

    def flipped(G, seed):
        r = numeric.rigidity(G, seed)
        return SimpleNamespace(prime=r.prime, globally_rigid=r.globally_rigid,
                               redundant=not r.redundant)

    monkeypatch.setattr(verify, "rigidity", flipped)
    rep = verify.hendrickson_oracle(n_max=6)
    catalog = verify.hendrickson_catalog(6)
    assert rep.total == len(catalog) and rep.passed == 0
    for (name, G), failure in zip(catalog, rep.failures, strict=True):
        assert failure["graph"] == name
        assert failure["redundant"] == is_redundant(G) != failure["stress_redundant"]
        assert failure["prime"] == numeric.rigidity(G, 0).prime and 2 ** 30 <= failure["prime"] < 2 ** 31


@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seeds_are_domain_errors(seed):
    """numpy's generators take no negative seed; each entry point that seeds one
    says so as a DomainError."""
    from linerig.cli import analyze_graph
    from linerig.sampler import sample_laman_lines_info
    from linerig.verify import four_lines, hendrickson_oracle, lemma_cong
    calls = [lambda: rigidity_rank(K4, seed=seed),
             lambda: global_rigidity_oracle(K4, seed=seed),
             lambda: lemma_cong(10, seed=seed), lambda: four_lines(10, seed=seed),
             lambda: analyze_graph(K4, seed=seed), lambda: hendrickson_oracle(seed=seed),
             lambda: sample_laman_lines_info(K4.without_edge(0, 1), seed=seed)]
    for call in calls:
        with pytest.raises(DomainError, match="seed must be at least 0"):
            call()
    assert rigidity_rank(K4, seed=0) == 5 and global_rigidity_oracle(K4, seed=0)


def test_early_exits_give_the_full_loops_outputs(monkeypatch):
    """analyze and verify hendrickson-oracle read one embedding, ranked mod primes
    until _residue_rank's rule stops, and one stress; their outputs equal those of the
    float references over five embeddings each, the largest SVD rank and, where it is
    2n - 3, the majority vote, with redundancy from is_redundant's deletion games and
    3-connectivity from is_k_connected's sweep. analyze, which runs one of its two
    global-rigidity tests where Hendrickson's theorem settles it, is held to the report
    assembled from those references (helpers.analysis_report); the suite to its own run
    on them."""
    from types import SimpleNamespace
    from helpers import analysis_report, float_stress_oracle, full_rigidity_rank, glued_on_edge
    from linerig.sparsity import is_redundant
    import linerig.cli as cli
    import linerig.verify as verify
    graphs = [G for _, G in verify.hendrickson_catalog(8)]
    graphs += [generate("hendrickson_random", [n, 6], seed=n) for n in (9, 14, 20)]
    graphs += [glued_on_edge(generate("hendrickson_random", [n, 4], seed=n), generate("complete", [4]), n)
               for n in (6, 10)]
    graphs += [generate("cycle", [6]), Graph(5, ()), generate("path", [3])]
    seeds = (0, 3, 7)

    def full_loops(G, seed):
        rank = full_rigidity_rank(G, 5, seed)
        rigid = G.n >= 4 and rank == 2 * G.n - 3
        return SimpleNamespace(rank=rank, prime=None, redundant=is_redundant(G),
                               globally_rigid=float_stress_oracle(G, 5, seed) if rigid else None)

    assert ([cli.analyze_graph(G, seed=seed).to_dict() for G in graphs for seed in seeds]
            == [analysis_report(G, seed, r.rank, r.globally_rigid, r.redundant)
                for G in graphs for seed in seeds for r in [full_loops(G, seed)]])
    suites = [verify.hendrickson_oracle(n_max=8, seed=seed).to_dict() for seed in (0, 2)]
    monkeypatch.setattr(verify, "rigidity", full_loops)
    assert suites == [verify.hendrickson_oracle(n_max=8, seed=seed).to_dict() for seed in (0, 2)]


def test_early_exits_skip_the_decided_trials(monkeypatch):
    import linerig.numeric as numeric
    drawn = []

    def counted(n, rng, *args):
        drawn.append(n)
        return random_embedding(n, rng, *args)

    random_embedding = numeric.random_embedding
    monkeypatch.setattr(numeric, "random_embedding", counted)
    W = generate("wheel", [6])
    assert rigidity_rank(W) == 2 * W.n - 3 and len(drawn) == 1
    drawn.clear()
    # the one embedding decides the stress verdict, either way
    assert global_rigidity_oracle(W) and len(drawn) == 1
    drawn.clear()
    assert not global_rigidity_oracle(generate("laman_random", [8], seed=1)) and len(drawn) == 1


def test_each_reader_ranks_the_stress_matrix_only_where_it_reads_it(monkeypatch):
    """rigidity() eliminates R^T only; the n x n stress matrix is eliminated the first
    time globally_rigid is read, and never again. rigidity_rank reads the rank alone,
    and global_rigidity_oracle ranks exactly one stress matrix."""
    shapes, eliminate = [], numeric._eliminate
    monkeypatch.setattr(numeric, "_eliminate",
                        lambda M, p: shapes.append(M.shape) or eliminate(M, p))
    for G, verdict in ((generate("wheel", [6]), True), (generate("laman_random", [8], seed=1), False),
                       (generate("hendrickson_random", [12, 3], seed=2), True)):
        shapes.clear()
        assert rigidity_rank(G) == 2 * G.n - 3 and shapes == [(2 * G.n, G.m)]
        shapes.clear()
        assert global_rigidity_oracle(G) is verdict and shapes == [(2 * G.n, G.m), (G.n, G.n)]
        shapes.clear()
        r = numeric.rigidity(G)
        assert shapes == [(2 * G.n, G.m)]
        assert r.globally_rigid is verdict and shapes == [(2 * G.n, G.m), (G.n, G.n)]
        # the second read is the cached verdict
        assert r.globally_rigid is verdict and shapes == [(2 * G.n, G.m), (G.n, G.n)]
    shapes.clear()
    r = numeric.rigidity(generate("cycle", [6]))
    assert r.globally_rigid is None and r.stress is None and shapes == [(12, 6)]


def test_the_stress_is_an_equilibrium_stress_of_the_deciding_embedding(monkeypatch):
    """The stress matrix that rigidity() ranks belongs to an equilibrium stress of its
    one embedding P mod the deciding prime p = primes[-1], the prime of the elimination
    before it: symmetric, with zero row sums and Omega P = 0 mod p. It is ranked with
    its rows and columns in ascending degree order (a stable argsort), so the matrix
    handed to _eliminate is Omega[order][:, order], the stress matrix of r.stress, and
    Omega[order][:, order] P[order] = 0 mod p. It is 0 on minimally rigid graphs and
    nonzero on redundant ones."""
    from helpers import stress_matrix
    embeddings, reduced, primes = [], [], []

    def recorded(n, rng, *args):
        embeddings.append(random_embedding(n, rng, *args))
        return embeddings[-1]

    def eliminate(M, p):
        reduced.append((M.copy(), p))
        return eliminate_(M, p)

    def residue_rank(*args):
        ranked = residue_rank_(*args)
        primes.append(ranked[1])
        return ranked

    random_embedding, eliminate_ = numeric.random_embedding, numeric._eliminate
    residue_rank_ = numeric._residue_rank
    monkeypatch.setattr(numeric, "random_embedding", recorded)
    monkeypatch.setattr(numeric, "_eliminate", eliminate)
    monkeypatch.setattr(numeric, "_residue_rank", residue_rank)
    graphs = [K4, generate("wheel", [5]), generate("wheel", [8]), generate("complete", [7]),
              generate("hendrickson_random", [12, 3], seed=2), generate("laman_random", [9], seed=1)]
    for G in graphs:
        for seed in range(3):
            embeddings.clear()
            r = numeric.rigidity(G, seed)
            assert r.globally_rigid is not None
            (omega, p), P = reduced[-1], embeddings[-1]
            assert len(embeddings) == 1 and p == primes[-1][-1] == reduced[-2][1] == r.prime
            assert P.shape == (G.n, 2) and np.abs(P).max() <= 2 ** 30
            assert omega.shape == (G.n, G.n) and (omega == omega.T).all()
            assert not (omega.sum(axis=1) % p).any()
            order = np.argsort([G.degree(v) for v in range(G.n)], kind="stable")
            assert (omega == stress_matrix(G, r.stress)[order][:, order] % p).all()
            assert not (omega.astype(object) @ P[order].astype(object) % p).any()
            assert omega.any() == (G.m > 2 * G.n - 3)


def _ordering_cases() -> list[Graph]:
    """The hendrickson-oracle catalog, graphs glued on an edge or at a vertex, graphs
    with pendant vertices, K_{3,3}, path(5) and an edgeless graph."""
    from helpers import glued_at_vertex, glued_on_edge, with_pendants
    from linerig.verify import hendrickson_catalog
    graphs = [G for _, G in hendrickson_catalog(8)]
    graphs += [glued_on_edge(generate("hendrickson_random", [n, 4], seed=n),
                             generate("complete", [4]), n) for n in (6, 10)]
    graphs += [glued_at_vertex(generate("hendrickson_random", [a, 2], seed=a),
                               generate("hendrickson_random", [b, 2], seed=b), a + b)
               for a, b in ((4, 4), (5, 7))]
    graphs += [with_pendants(generate("hendrickson_random", [10, 4], seed=1), 2, 1),
               with_pendants(generate("complete", [5]), 1, 0)]
    graphs += [Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),
               generate("path", [5]), Graph(5, ())]
    return graphs


def _ordered_and_natural(G: Graph, seed: int) -> tuple[tuple, tuple]:
    from helpers import natural_order_rigidity
    r = numeric.rigidity(G, seed)
    return (r.rank, r.prime, r.redundant, r.globally_rigid), natural_order_rigidity(G, seed)


def test_the_ordered_eliminations_decide_as_the_natural_order():
    """rigidity() ranks R^T and the stress matrix with rows and columns permuted. The
    rank and the deciding prime are those of the natural order (helpers'
    natural_order_rigidity), and so are both verdicts on every case here."""
    for G in _ordering_cases():
        for seed in range(3):
            ordered, natural = _ordered_and_natural(G, seed)
            assert ordered == natural, (G, seed)


@st.composite
def _graphs_up_to_12(draw) -> Graph:
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, tuple(sorted(draw(st.sets(st.sampled_from(pairs))))))


@settings(max_examples=150, deadline=None)
@given(G=_graphs_up_to_12(), seed=st.integers(0, 2))
def test_the_ordered_eliminations_decide_as_the_natural_order_on_small_graphs(G, seed):
    ordered, natural = _ordered_and_natural(G, seed)
    assert ordered == natural


def test_the_stress_is_in_edge_order():
    """rigidity() solves its stress on R^T with permuted edge columns and writes it back
    in G.edges order: R(P)^T w = 0 mod p with R built in G.edges order, at the one
    embedding P of default_rng(seed)'s stream."""
    checked = 0
    for G in _ordering_cases():
        for seed in range(3):
            r = numeric.rigidity(G, seed)
            if r.stress is None:
                continue
            P = numeric.random_embedding(G.n, np.random.default_rng(seed), 2 ** 30)
            R = rigidity_matrix(G, P)
            assert r.stress.shape == (G.m,)
            assert not (R.T @ r.stress.astype(object) % r.prime).any(), (G, seed)
            checked += r.stress.any()
    assert checked > 30


def test_a_stress_that_vanishes_on_an_edge_never_reads_redundant(monkeypatch):
    """The redundancy verdict errs one way only. A stress drawn with a free coordinate
    of 0 is still an equilibrium stress mod p, and zero on that edge: the verdict is
    then False, on redundant graphs too, and never True."""
    from linerig.sparsity import is_redundant
    zeroed = []

    class ZeroAt:
        """rng, but its stress draw is 0 at coordinate c."""

        def __init__(self, rng, c):
            self.rng, self.c = rng, c

        def integers(self, *args, **kwargs):
            w = self.rng.integers(*args, **kwargs)
            w[self.c] = 0
            return w

    def zero_free(M, rank, p, rng):
        pivots = {int(row.nonzero()[0][0]) for row in M[:rank]}
        free = sorted(set(range(M.shape[1])) - pivots)
        if not free:
            return random_stress(M, rank, p, rng)
        w = random_stress(M, rank, p, ZeroAt(rng, free[0]))
        assert w[free[0]] == 0 and not (M.astype(object) @ w.astype(object) % p).any()
        zeroed.append(w)
        return w

    random_stress = numeric._random_stress
    graphs = [K4, generate("wheel", [5]), generate("complete", [7]),
              generate("hendrickson_random", [12, 3], seed=2),
              generate("laman_random", [9], seed=1)]
    redundant = [G for G in graphs if is_redundant(G)]
    assert len(redundant) == 4 and all(numeric.rigidity(G, 0).redundant for G in redundant)
    monkeypatch.setattr(numeric, "_random_stress", zero_free)
    for G in graphs:
        for seed in range(3):
            assert numeric.rigidity(G, seed).redundant is False
    assert len(zeroed) == 3 * len(redundant)


def test_flexible_graphs_with_2n_3_edges_stop_after_two_trials(monkeypatch):
    """Two Hendrickson graphs glued at a vertex have m >= 2n - 3 edges and rank
    2n - 4: no prime reaches min(m, 2n - 3), so rigidity() draws one embedding and
    stops after exactly two eliminations of R^T, mod two primes that agree on
    2n - 4, with no global verdict and redundancy False, and the oracle refuses the
    graph."""
    from helpers import glued_at_vertex
    drawn, eliminated = [], []

    def counted(n, rng, *args):
        drawn.append(n)
        return random_embedding(n, rng, *args)

    def eliminate(M, p):
        eliminated.append(M.shape)
        return eliminate_(M, p)

    random_embedding, eliminate_ = numeric.random_embedding, numeric._eliminate
    monkeypatch.setattr(numeric, "random_embedding", counted)
    monkeypatch.setattr(numeric, "_eliminate", eliminate)
    for a, b in ((4, 4), (5, 7), (9, 12), (20, 30)):
        G = glued_at_vertex(generate("hendrickson_random", [a, 2], seed=a),
                            generate("hendrickson_random", [b, 2], seed=b), a + b)
        assert G.m >= 2 * G.n - 3 and sparsity_rank(G).rank == 2 * G.n - 4
        for seed in range(3):
            drawn.clear()
            eliminated.clear()
            r = numeric.rigidity(G, seed)
            assert (r.rank, r.prime, r.stress, r.globally_rigid, r.redundant) == (
                2 * G.n - 4, None, None, None, False)
            assert len(drawn) == 1 and eliminated == [(2 * G.n, G.m)] * 2
            with pytest.raises(DomainError, match="rigid graph"):
                global_rigidity_oracle(G, seed=seed)
