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
    """Patch numeric._rank_mod_p to record each call's result."""
    results, inner = [], numeric._rank_mod_p

    def counted(rows, p):
        results.append(inner(rows, p))
        return results[-1]

    monkeypatch.setattr(numeric, "_rank_mod_p", counted)
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
    p = numeric._random_prime(random.Random("rank_exact:0"))
    results = _count_eliminations(monkeypatch)
    # column 0's only nonzero entry is p, so the first prime sees rank 1
    assert rank_exact([[p, 1], [0, 1]]) == 2 and results == [1, 2]
    results.clear()
    assert rank_exact([[p, 1, 1], [0, 1, 1], [0, 0, 0]]) == 2 and results == [1, 2, 2]


def test_rank_exact_skips_a_prime_that_divides_a_denominator(monkeypatch):
    p = numeric._random_prime(random.Random("rank_exact:0"))
    results = _count_eliminations(monkeypatch)
    assert rank_exact([[Fraction(1, p), 1], [1, 2]]) == 2
    assert results[0] is None and results[1:] == [2]
    results.clear()
    assert rank_exact([[Fraction(1, p), Fraction(2, p)], [3, 6]]) == 1
    assert results[0] is None and len(results) >= 3


def test_eliminate_ranks_as_rank_exact_and_leaves_the_left_kernel():
    """_eliminate on [A | I] mod p: the rank of A's columns is rank_exact's, and the
    rows of the I block from the rank on are m - rank independent vectors that
    annihilate A mod p."""
    rng = np.random.default_rng(28)
    for trial in range(60):
        p = numeric._random_prime(random.Random(trial))
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
        M = np.hstack([A % p, np.eye(m, dtype=np.int64)])
        rank = numeric._eliminate(M, p, k)
        assert rank == rank_exact(A.tolist())
        K = M[rank:, k:]
        assert len(K) == m - rank and not M[rank:, :k].any()
        assert not (K.astype(object) @ (A % p).astype(object) % p).any()
        assert numeric._eliminate(K.copy(), p, m) == m - rank


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
    full = line_system_dimension(G4, sample_laman_lines(G4, seed=5))
    assert full.certified and full.sigma_kept > 0 and full.sigma_dropped is None
    assert set(full.to_dict()) >= {"sigma_kept", "sigma_dropped"}
    # exact mode has no singular values
    p, q = sample_congruent_pair(K4, orientation=1, seed=3, exact=True)
    exact = pair_system_dimension(K4, p, q, exact=True)
    assert exact.sigma_kept is None and exact.sigma_dropped is None
    assert line_system_dimension(G, LineConfig.from_rows([(1, 2, 3, 4)] * 5)).sigma_kept is None


def test_rigidity_rank_exact_matches_float_rank():
    for n, seed in ((6, 0), (9, 4)):
        G = generate("laman_random", [n], seed=seed)
        assert rigidity_rank(G, seed=seed, exact=True) == rigidity_rank(G, seed=seed) == 2 * n - 3
    assert rigidity_rank(C4, exact=True) == 4


def test_global_rigidity_oracle_checks_rigidity_with_its_own_trials(monkeypatch):
    import linerig.numeric as numeric
    calls = []
    monkeypatch.setattr(numeric, "rigidity_rank", lambda *a, **k: calls.append(a))
    assert global_rigidity_oracle(K4, trials=1)
    assert calls == []
    with pytest.raises(DomainError, match="rigid graph"):
        global_rigidity_oracle(generate("cycle", [6]), trials=1)
    with pytest.raises(DomainError, match="rigid graph"):
        global_rigidity_oracle(Graph(5, ()))


def test_hendrickson_oracle_takes_one_rigidity_pass_per_graph(monkeypatch):
    import linerig.verify as verify
    from linerig.numeric import global_rigidity_oracle
    from linerig.sparsity import is_hendrickson
    passes, records = [], []

    def counted(G, *args, **kwargs):
        passes.append(G)
        return global_rigidity_oracle(G, *args, **kwargs)

    # the catalog's graphs are all rigid; two flexible ones exercise the other verdict
    catalog = verify.hendrickson_catalog(7) + [
        ("cycle(6)", generate("cycle", [6])),
        ("K4-minus-edge-plus-pendant",
         Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))]
    monkeypatch.setattr(verify, "hendrickson_catalog", lambda n_max: catalog)
    monkeypatch.setattr(verify, "global_rigidity_oracle", counted)
    monkeypatch.setattr(verify.SuiteReport, "record",
                        lambda self, ok, **detail: records.append((ok, detail)))
    verify.hendrickson_oracle(n_max=7, trials=3, seed=2)
    assert passes == [G for _, G in catalog]
    # the verdicts of the two-pass suite: the rigidity rank first, then the oracle
    flexible = []
    for (name, G), (ok, detail) in zip(catalog, records, strict=True):
        assert ok and detail["graph"] == name
        if rigidity_rank(G, trials=3, seed=2) != 2 * G.n - 3:
            flexible.append(name)
            assert detail == {"graph": name, "note": "flexible"}
        else:
            assert detail["combinatorial"] == is_hendrickson(G)
            assert detail["oracle"] == global_rigidity_oracle(G, trials=3, seed=2)
    assert flexible == ["cycle(6)", "K4-minus-edge-plus-pendant"]


def test_hendrickson_oracle_rejects_zero_trials():
    from linerig.verify import hendrickson_oracle
    with pytest.raises(DomainError, match="trials"):
        hendrickson_oracle(n_max=5, trials=0)


@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seeds_are_domain_errors(seed):
    """numpy's generators take no negative seed; each entry point that seeds one
    says so as a DomainError, also where the oracle seeds with seed + 1."""
    from linerig.cli import analyze_graph
    from linerig.verify import four_lines, hendrickson_oracle, lemma_cong
    calls = [lambda: rigidity_rank(K4, seed=seed),
             lambda: global_rigidity_oracle(K4, seed=seed),
             lambda: lemma_cong(10, seed=seed), lambda: four_lines(10, seed=seed),
             lambda: analyze_graph(K4, seed=seed), lambda: hendrickson_oracle(seed=seed)]
    for call in calls:
        with pytest.raises(DomainError, match="seed must be at least 0"):
            call()
    assert rigidity_rank(K4, seed=0) == 5 and global_rigidity_oracle(K4, seed=0)


def test_trial_generators_are_spawned_one_at_a_time(monkeypatch):
    from linerig.numeric import _trial_rngs
    for seed, k in ((0, 1), (0, 6), (41, 4)):
        want = [np.random.Generator(np.random.PCG64(s)).bit_generator.state
                for s in np.random.SeedSequence(seed).spawn(k)]
        assert [rng.bit_generator.state for rng in _trial_rngs(seed, k)] == want
    spawned = []

    class Counting(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    # K4 reaches rank 5 on its first trial; the loop takes at most one more generator
    assert rigidity_rank(K4, trials=1000) == 5 and sum(spawned) <= 2


def _full_rigidity_rank(G, trials=5, seed=0, exact=False):
    """rigidity_rank as the maximum over every trial, with no early return."""
    from linerig.numeric import _trial_rngs, float_rank, random_embedding, rigidity_matrix
    if G.m == 0:
        return 0
    embeddings = (random_embedding(G.n, rng) for rng in _trial_rngs(seed, trials))
    if exact:
        return max(rank_exact(rigidity_matrix(G, P)) for P in embeddings)
    return max(float_rank(rigidity_matrix(G, P.astype(float))) for P in embeddings)


def test_early_exits_give_the_full_loops_outputs(monkeypatch):
    """analyze and verify hendrickson-oracle stop their numeric passes once the
    answer is decided; their outputs equal those of the loops over every trial,
    with the float majority vote in place of the exact stress test."""
    from helpers import float_stress_oracle, glued_on_edge
    import linerig.cli as cli
    import linerig.verify as verify
    graphs = [G for _, G in verify.hendrickson_catalog(8)]
    graphs += [generate("hendrickson_random", [n, 6], seed=n) for n in (9, 14, 20)]
    graphs += [glued_on_edge(generate("hendrickson_random", [n, 4], seed=n), generate("complete", [4]), n)
               for n in (6, 10)]
    graphs += [generate("cycle", [6]), Graph(5, ()), generate("path", [3])]

    def outputs():
        analyzed = [cli.analyze_graph(G, seed=seed, trials=trials).to_dict()
                    for G in graphs for seed, trials in ((0, 5), (3, 4), (7, 1))]
        analyzed += [cli.analyze_graph(G, seed=1, exact=True).to_dict() for G in graphs[:6]]
        suites = [verify.hendrickson_oracle(n_max=8, trials=trials, seed=seed).to_dict()
                  for seed, trials in ((0, 5), (2, 3))]
        return analyzed, suites

    early = outputs()
    monkeypatch.setattr(cli, "rigidity_rank", _full_rigidity_rank)
    monkeypatch.setattr(cli, "global_rigidity_oracle", float_stress_oracle)
    monkeypatch.setattr(verify, "global_rigidity_oracle", float_stress_oracle)
    assert early == outputs()


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
    # the first trial whose rigidity matrix has rank 2n - 3 decides, either way
    assert global_rigidity_oracle(W) and len(drawn) == 1
    drawn.clear()
    assert not global_rigidity_oracle(generate("laman_random", [8], seed=1)) and len(drawn) == 1
