import json
import re
import sys

import numpy as np
import pytest

from linerig.errors import DomainError, GraphParseError
from linerig.graphs import Graph, catalog, generate, parse_graph, serialize_graph
from linerig.sparsity import is_hendrickson, is_laman


def test_parse_json_k4():
    G = parse_graph('{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0],[0,2],[1,3]]}')
    assert G == generate("complete", [4])


def test_parse_json_k2():
    assert parse_graph('{"n":2,"edges":[[0,1]]}') == Graph(2, ((0, 1),))


def test_parse_duplicate_edge_rejected():
    with pytest.raises(GraphParseError, match=r"edges\[1\]"):
        parse_graph('{"n":3,"edges":[[0,1],[0,1]]}')
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph('{"n":3,"edges":[[0,1],[1,0]]}')


def test_parse_errors_name_field_or_line():
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_graph('{"n":3,"edges":[[1,1]]}')
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph('{"n":2,"edges":[[0,5]]}')
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("3 2\n0 1\n1 5\n", fmt="edge-list")
    with pytest.raises(GraphParseError, match="invalid JSON"):
        parse_graph("{not json")


@pytest.mark.parametrize("edges, message", [
    ([[1, 1]], "self-loop at vertex 1"),
    ([[0, 3]], "endpoint out of range for n=3"),
    ([[0, 1], [2, 1], [1, 0]], "duplicate edge [0, 1]"),
], ids=["self-loop", "out-of-range", "duplicate"])
def test_both_formats_share_one_edge_loop(edges, message):
    k = len(edges) - 1
    with pytest.raises(GraphParseError, match=re.escape(f"field 'edges[{k}]': {message}")):
        parse_graph(json.dumps({"n": 3, "edges": edges}))
    listing = "\n".join([f"3 {len(edges)}", *(f"{i} {j}" for i, j in edges)])
    with pytest.raises(GraphParseError, match=re.escape(f"line {k + 2}: {message}")):
        parse_graph(listing, fmt="edge-list")


@pytest.mark.parametrize("text", [
    "{not json", "[" * 50000 + "]" * 50000,
    pytest.param('{"n":3,"edges":[[0,%s]]}' % ("9" * 5000), marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no digit limit")),
], ids=["bad-json", "deep", "digits"])
def test_each_reader_raises_its_own_error_on_bad_json(text):
    """Bad JSON, nesting past the recursion limit and an integer past the digit
    limit all raise the format's error class, never a bare ValueError."""
    from linerig.elekes_sharir import parse_pair_file
    from linerig.errors import StepError
    from linerig.henneberg import steps_from_json
    from linerig.lines3d import LineConfig
    readers = [(parse_graph, GraphParseError, "graph"), (steps_from_json, StepError, "steps"),
               (LineConfig.from_json, DomainError, "line configuration"),
               (parse_pair_file, DomainError, "pair file")]
    for read, error, what in readers:
        with pytest.raises(error, match=f"invalid JSON in {what}"):
            read(text)


def test_unordered_endpoints_normalize():
    assert parse_graph('{"n":3,"edges":[[2,0]]}').edges == ((0, 2),)


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
def test_round_trip(fmt):
    for _, G in catalog(7):
        assert parse_graph(serialize_graph(G, fmt), fmt) == G


def test_graph_invariants():
    with pytest.raises(DomainError):
        Graph(3, ((0, 0),))
    with pytest.raises(DomainError):
        Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(DomainError):
        Graph(2, ((0, 2),))


def test_edges_are_stored_as_a_tuple_of_int_pairs():
    K2 = Graph(3, ((0, 1),))
    for edges in ([(0, 1)], [[0, 1]], ((np.int64(0), np.int32(1)),), np.array([[0, 1]])):
        G = Graph(3, edges)
        assert G == K2 and hash(G) == hash(K2)
        assert type(G.edges) is tuple and all(type(x) is int for x in G.edges[0])
    assert Graph(3, [(1, 2), (0, 1)]).edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("edges", [((0, 1.0),), ((True, 2),), ((0, np.True_),), ((0, "1"),),
                                   ((0, 1, 2),), ((0,),), (0, 1), None])
def test_malformed_edges_raise_domain_error(edges):
    with pytest.raises(DomainError):
        Graph(3, edges)


def test_from_edges_rejects_non_integer_vertices():
    for edges in ([(0, 1.7)], [(0, 1.0)], [(True, 2)], [(0, 1, 2)]):
        with pytest.raises(DomainError):
            Graph.from_edges(3, edges)
    assert Graph.from_edges(3, [(np.int64(2), 0), [0, 2]]).edges == ((0, 2),)


def test_without_edge_drops_exactly_that_edge():
    G = generate("wheel", [6])
    for k, (u, v) in enumerate(G.edges):
        assert G.without_edge(v, u).edges == G.edges[:k] + G.edges[k + 1:]
    with pytest.raises(DomainError, match="not present"):
        G.without_edge(1, 3)
    with pytest.raises(DomainError, match="not present"):
        G.without_edge(4, 9)


def test_generate_counts():
    K4 = generate("complete", [4])
    assert K4.n == 4 and K4.m == 6
    W5 = generate("wheel", [5])
    assert W5.n == 5 and W5.m == 8
    C4 = generate("cycle", [4])
    assert C4.n == 4 and C4.m == 4
    P5 = generate("path", [5])
    assert P5.m == 4


def test_generate_unknown_name():
    with pytest.raises(DomainError, match="unknown generator"):
        generate("petersen", [10])
    with pytest.raises(DomainError):
        generate("cycle", [2])


def test_generate_deterministic():
    for name, params in [("laman_random", [9]), ("hendrickson_random", [7])]:
        assert generate(name, params, seed=5) == generate(name, params, seed=5)
        assert generate(name, params, seed=5) != generate(name, params, seed=6)


def test_random_generators_hit_their_class():
    for k in range(2, 13):
        assert is_laman(generate("laman_random", [k], seed=k))
    for k in range(4, 10):
        assert is_hendrickson(generate("hendrickson_random", [k], seed=k))


@pytest.mark.parametrize("n", [3.0, True, "3", None])
def test_vertex_count_must_be_an_integer(n):
    with pytest.raises(DomainError, match="vertex count"):
        Graph(n, ((0, 1),))
    with pytest.raises(DomainError, match="vertex count"):
        Graph(n, ())


def test_vertex_count_takes_numpy_integers():
    G = Graph(np.int64(3), ((0, 1),))
    assert type(G.n) is int and G == Graph(3, ((0, 1),))


@pytest.mark.parametrize("name, params", [
    ("complete", []), ("complete", [3, 4]), ("laman_random", [5, 1]),
    ("hendrickson_random", []), ("hendrickson_random", [5, 1, 2]),
])
def test_generate_checks_parameter_count(name, params):
    with pytest.raises(DomainError, match="parameter"):
        generate(name, params)


@pytest.mark.parametrize("name, params", [
    ("complete", [3.7]), ("complete", [4.0]), ("cycle", ["5"]), ("path", [True]),
    ("hendrickson_random", [8, None]), ("wheel", [np.float64(5)]),
])
def test_generate_rejects_non_integer_parameters(name, params):
    with pytest.raises(DomainError, match="integer parameters"):
        generate(name, params)


def test_generate_takes_numpy_integers():
    assert generate("cycle", [np.int64(5)]) == generate("cycle", [5])


def test_without_vertex_relabels():
    G = generate("wheel", [5])
    H, keep = G.without_vertex(0)
    assert H.n == 4 and keep == [1, 2, 3, 4]
    assert H.m == 4  # the rim cycle


def test_relabeled_permutation():
    G = Graph(3, ((0, 1), (1, 2)))
    assert G.relabeled([2, 1, 0]).edges == ((0, 1), (1, 2))
    assert G.relabeled([1, 2, 0]).edges == ((0, 2), (1, 2))
