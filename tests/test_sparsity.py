import random
from itertools import combinations

import pytest
from helpers import (brute_sparsity_rank, glued_on_edge, random_graph, random_graph_of_degree,
                     reference_sparsity_rank)
from hypothesis import given, settings
from hypothesis import strategies as st

from linerig import sparsity
from linerig.errors import DomainError
from linerig.graphs import Graph, catalog, generate
from linerig.henneberg import Ext0, Ext1, apply_henneberg, extract_henneberg
from linerig.numeric import rigidity_rank
from linerig.sparsity import is_hendrickson, is_laman, is_redundant, sparsity_rank

K2 = generate("complete", [2])
K3 = generate("complete", [3])
K4 = generate("complete", [4])
C4 = generate("cycle", [4])
W5 = generate("wheel", [5])


def test_rank_examples():
    assert sparsity_rank(K2).rank == 1
    assert sparsity_rank(K2).witness == ((0, 1),)
    assert sparsity_rank(C4).rank == 4  # all of C4 is sparse
    assert sparsity_rank(K4).rank == 5  # 2n - 3


def test_witness_is_sparse_and_lexicographic():
    res = sparsity_rank(K4)
    assert brute_sparsity_rank(Graph(4, res.witness)) == len(res.witness)
    # greedy over canonical order keeps the first five edges of K4
    assert res.witness == K4.edges[:5]


@settings(max_examples=60)
@given(n=st.integers(2, 80), density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
def test_game_matches_the_reference_game(n, density, seed):
    pairs = list(combinations(range(n), 2))
    G = Graph(n, tuple(sorted(random.Random(seed).sample(pairs, round(density * len(pairs))))))
    assert sparsity_rank(G) == reference_sparsity_rank(G)


def test_game_matches_the_reference_game_on_every_single_edge_deletion():
    # dense redundant graphs reach the late searches where few pebbles are free,
    # which the uniform densities above rarely do
    graphs = [generate("hendrickson_random", [n, n // 4]) for n in (30, 45, 60)]
    graphs.append(glued_on_edge(generate("hendrickson_random", [24, 6], seed=1),
                                generate("hendrickson_random", [20, 5], seed=2), seed=0))
    for G in graphs:
        for e in G.edges:
            H = G.without_edge(*e)
            assert sparsity_rank(H) == reference_sparsity_rank(H), (G.n, e)


def test_complete_graph_witness_is_the_edges_at_0_and_1():
    for n in range(2, 41):
        G = generate("complete", [n])
        res = sparsity_rank(G)
        assert res.witness == tuple(e for e in G.edges if e[0] in (0, 1))
        assert res == reference_sparsity_rank(G)


def test_rank_domain():
    with pytest.raises(DomainError):
        sparsity_rank(Graph(1))


def test_is_laman_examples():
    assert is_laman(K2)
    assert is_laman(K3)
    assert not is_laman(K4)
    assert not is_laman(C4)


def test_spanning_laman_examples():
    # a spanning Laman subgraph exists when the sparsity rank is 2n - 3: the witness
    result = sparsity_rank(K4)
    sub = Graph(4, result.witness)
    assert result.rank == 5 and sub.m == 5 and is_laman(sub)
    assert sparsity_rank(C4).rank < 2 * 4 - 3
    assert Graph(2, sparsity_rank(K2).witness) == K2


def test_redundant_examples():
    assert not is_redundant(generate("laman_random", [6], seed=1))
    assert is_redundant(K4)
    assert is_redundant(W5)
    # brute-force cross-check for the wheel: delete each edge, look for a
    # spanning sparse subset of full size
    for e in W5.edges:
        assert brute_sparsity_rank(W5.without_edge(*e)) == 2 * W5.n - 3


def test_redundancy_plays_one_game_per_edge_unless_a_degree_is_below_3(monkeypatch):
    calls = []

    def counted(G):
        calls.append(G)
        return sparsity_rank(G)

    monkeypatch.setattr(sparsity, "sparsity_rank", counted)
    G = generate("hendrickson_random", [12, 4], seed=3)
    assert is_redundant(G) and len(calls) == G.m
    assert is_hendrickson(W5) and len(calls) == G.m + W5.m
    calls.clear()
    # a 0-extension: one new vertex joined to two old ones
    H = Graph.from_edges(G.n + 1, G.edges + ((0, G.n), (1, G.n)))
    assert H.m > 2 * H.n - 3
    assert not is_redundant(H) and calls == []


def test_edgeless_graphs_are_not_redundant():
    for n in range(2, 7):
        assert not is_redundant(Graph(n))


def test_hendrickson_examples():
    assert is_hendrickson(K4)
    assert is_hendrickson(W5)
    assert not is_hendrickson(generate("laman_random", [6], seed=2))
    with pytest.raises(DomainError):
        is_hendrickson(K3)


def test_oracle_agreement_catalog():
    for name, G in catalog(7):
        if G.n < 2:
            continue
        assert sparsity_rank(G).rank == brute_sparsity_rank(G), name


def test_oracle_agreement_random():
    rng = random.Random(12)
    for _ in range(60):
        G = random_graph(rng)
        assert sparsity_rank(G).rank == brute_sparsity_rank(G), G


def test_monotone_under_edge_addition():
    rng = random.Random(7)
    for _ in range(40):
        G = random_graph(rng, n_max=6)
        non_edges = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
                     if not G.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        before = sparsity_rank(G).rank
        after = sparsity_rank(G.with_edge(u, v)).rank
        assert before <= after <= before + 1


def test_extensions_preserve_laman():
    rng = random.Random(3)
    for trial in range(20):
        G = generate("laman_random", [rng.randint(2, 8)], seed=trial)
        steps, _ = extract_henneberg(G)
        H = apply_henneberg(steps)
        u, v = rng.sample(range(H.n), 2)
        assert is_laman(apply_henneberg(steps + [Ext0(u, v)]))
        if H.n >= 3:
            e = rng.choice(H.edges)
            w = rng.choice([x for x in range(H.n) if x not in e])
            assert is_laman(apply_henneberg(steps + [Ext1(e[0], e[1], w)]))


@settings(max_examples=30)
@given(n=st.integers(20, 60), degree=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_rank_and_witness_match_generic_rigidity_up_to_60(n, degree, seed):
    G = random_graph_of_degree(n, degree, seed)
    res = sparsity_rank(G)
    assert res.rank == rigidity_rank(G)
    assert rigidity_rank(Graph(n, res.witness)) == len(res.witness)


@settings(max_examples=40)
@given(n=st.integers(4, 7), degree=st.integers(2, 6), seed=st.integers(0, 10**6))
def test_witness_is_the_greedy_basis(n, degree, seed):
    G = random_graph_of_degree(n, degree, seed)
    greedy: list = []
    for e in G.edges:
        if brute_sparsity_rank(Graph(n, tuple(greedy) + (e,))) == len(greedy) + 1:
            greedy.append(e)
    assert sparsity_rank(G).witness == tuple(greedy)


@settings(max_examples=15)
@given(n=st.integers(8, 30), extra=st.integers(0, 12), drop=st.integers(0, 3), pendant=st.integers(0, 2),
       seed=st.integers(0, 10**6))
def test_redundant_matches_numeric_deletions(n, extra, drop, pendant, seed):
    G = generate("hendrickson_random", [n, extra], seed=seed)
    rng = random.Random(seed)
    for e in rng.sample(G.edges, drop):
        G = G.without_edge(*e)
    for _ in range(pendant):
        # a 0-extension: a degree-2 vertex on two old ones
        G = Graph.from_edges(G.n + 1, G.edges + tuple((x, G.n) for x in rng.sample(range(G.n), 2)))
    target = 2 * G.n - 3
    numeric = rigidity_rank(G) == target and all(
        rigidity_rank(G.without_edge(*e)) == target for e in G.edges)
    assert is_redundant(G) == numeric
