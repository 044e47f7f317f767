import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import glued_on_edge, random_graph, random_graph_of_degree

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


def _with_pendants(G: Graph, count: int, seed: int) -> Graph:
    """G plus `count` new vertices, each joined to two vertices already there."""
    rng = random.Random(seed)
    edges = list(G.edges)
    for z in range(G.n, G.n + count):
        edges += [(x, z) for x in rng.sample(range(z), 2)]
    return Graph.from_edges(G.n + count, edges)


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
        return _with_pendants(first, draw(st.integers(1, 60 - first.n)), seed)
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


def test_long_cycle_and_path_need_no_recursion():
    assert is_k_connected(generate("cycle", [3000]), 2)
    assert not is_k_connected(generate("path", [3000]), 2)
    assert is_k_connected(generate("path", [3000]), 1)
