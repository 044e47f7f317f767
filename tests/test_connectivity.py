import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (glued_at_vertex, glued_on_edge, random_graph, random_graph_of_degree,
                     with_pendants)

import linerig.connectivity as connectivity
from linerig.connectivity import is_k_connected
from linerig.errors import DomainError
from linerig.graphs import Graph, generate


def test_examples():
    assert is_k_connected(generate("complete", [4]), 3)
    assert not is_k_connected(generate("cycle", [4]), 3)
    assert is_k_connected(generate("wheel", [5]), 3)


def test_domain():
    with pytest.raises(DomainError):
        is_k_connected(generate("complete", [3]), 3)
    with pytest.raises(DomainError):
        is_k_connected(generate("complete", [4]), 0)


def test_monotone_in_k():
    rng = random.Random(4)
    for _ in range(30):
        G = random_graph(rng, n_max=8)
        for k in range(2, G.n):
            if is_k_connected(G, k):
                assert is_k_connected(G, k - 1)


def test_disconnected_graph():
    G = Graph(4, ((0, 1), (2, 3)))
    assert not is_k_connected(G, 1)


def test_agreement_with_networkx():
    rng = random.Random(9)
    for _ in range(60):
        G = random_graph(rng, n_max=8)
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges)
        conn = nx.node_connectivity(H)
        for k in range(1, G.n):
            assert is_k_connected(G, k) == (conn >= k), (G, k, conn)


@st.composite
def _graphs_up_to_60(draw) -> Graph:
    kind = draw(st.sampled_from(["random", "hendrickson", "glued", "pendants"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        return random_graph_of_degree(draw(st.integers(20, 60)), draw(st.integers(4, 12)), seed)
    first = generate("hendrickson_random", [draw(st.integers(4, 30)), draw(st.integers(0, 40))], seed=seed)
    if kind == "hendrickson":
        return first
    if kind == "pendants":
        return with_pendants(first, draw(st.integers(1, 60 - first.n)), seed)
    second = generate("hendrickson_random", [draw(st.integers(4, 32 - first.n // 2)), 2], seed=seed + 1)
    return glued_on_edge(first, second, seed)


@settings(max_examples=60)
@given(G=_graphs_up_to_60())
def test_agreement_with_networkx_up_to_60(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    conn = nx.node_connectivity(H)
    for k in range(1, min(4, G.n - 1) + 1):
        assert is_k_connected(G, k) == (conn >= k), (G, k, conn)


def test_a_vertex_of_degree_below_k_decides_with_no_sweep(monkeypatch):
    """With n > k and a vertex of degree below k, G is not k-connected (the vertex's
    neighbours cut it off), as networkx agrees, and no articulation-point sweep runs:
    on dense random graphs and complete graphs with one vertex's edges thinned, for
    k = 1 to 4."""
    sweeps = []
    sweep = connectivity._sweep
    monkeypatch.setattr(connectivity, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    rng = random.Random(12)
    cases = 0
    for k in range(1, 5):
        for n in range(k + 1, 13):
            for base in (generate("complete", [n]), random_graph_of_degree(n, n - 2, n * k)):
                v = rng.randrange(n)
                at_v = [e for e in base.edges if v in e]
                keep = rng.randrange(min(k, len(at_v) + 1))
                G = Graph.from_edges(n, [e for e in base.edges if v not in e]
                                     + rng.sample(at_v, keep))
                assert G.degree(v) < k
                H = nx.Graph(G.edges)
                H.add_nodes_from(range(n))
                assert is_k_connected(G, k) is False and nx.node_connectivity(H) < k
                cases += 1
    assert cases == 2 * sum(12 - k for k in range(1, 5)) and not sweeps
    assert is_k_connected(generate("wheel", [6]), 3) and len(sweeps) == 6


def test_long_cycle_and_path_need_no_recursion():
    assert is_k_connected(generate("cycle", [3000]), 2)
    assert not is_k_connected(generate("path", [3000]), 2)
    assert is_k_connected(generate("path", [3000]), 1)
    # the path's ends have degree 1, so its 2-connectivity takes no sweep; two long
    # cycles sharing a vertex have degree 2 everywhere, and a sweep finds the cut
    C = generate("cycle", [1500])
    assert not is_k_connected(glued_at_vertex(C, C, 0), 2)
