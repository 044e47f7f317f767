import math
import random

import numpy as np
import pytest
from helpers import random_graph

from linerig.errors import DomainError
from linerig.graphs import catalog, generate
from linerig.lines3d import Line, LineConfig
from linerig.numeric import (DimensionReport, edge_function, finite_difference_jacobian,
                             global_rigidity_oracle, is_rigid_numeric,
                             line_system_dimension, line_system_jacobian,
                             pair_system_dimension, pair_system_jacobian, rank_exact,
                             rigidity_matrix, rigidity_rank)
from linerig.sampler import sample_congruent_pair, sample_laman_lines
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
    assert is_rigid_numeric(generate("complete", [3]))
    assert not is_rigid_numeric(C4)
    assert is_rigid_numeric(K4)
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


def test_rank_exact_matches_float_rank_on_random_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(-9, 10, size=(rng.integers(1, 8), rng.integers(1, 8)))
        r = np.linalg.matrix_rank(M.astype(float))
        assert rank_exact(M.tolist()) == r


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


def test_pair_jacobian_structure():
    G = K2
    J = pair_system_jacobian(G, [(0, 0), (1, 0)], [(0, 0), (1, 0)])
    assert J.shape == (1, 8)
    assert J.tolist()[0][:4] == [-2, 0, 2, 0]
    assert J.tolist()[0][4:] == [2, 0, -2, 0]


def test_line_system_float_matches_exact_loop():
    # the loop over edges in exact arithmetic is the reference for the array kernel
    from linerig.numeric import edge_index, line_residuals, line_system_float
    rng = random.Random(16)
    G = generate("laman_random", [9], seed=16)
    cfg = LineConfig.from_rows([[rng.randint(-50, 50) for _ in range(4)] for _ in range(9)])
    g, J = line_system_float(cfg.as_array(), *edge_index(G))
    assert g.tolist() == [float(r) for r in line_residuals(G, cfg)]
    assert J.tolist() == line_system_jacobian(G, cfg).astype(float).tolist()
