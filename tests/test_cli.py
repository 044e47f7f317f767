import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linerig
from linerig.cli import build_parser, main
from linerig.graphs import MAX_COMPLETE_EDGES, MAX_VERTICES, generate, parse_graph, serialize_graph
from linerig.verify import MAX_TRIALS, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_analyze_k4(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "complete", "4")
    assert code == 0
    path = tmp_path / "k4.json"
    path.write_text(out)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["hendrickson"] is True and rep["globally_rigid"] is True
    assert rep["laman"] is False and rep["sparsity_rank"] == 5


def test_analyze_cycle_not_rigid(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(serialize_graph(generate("cycle", [4])))
    code, out, _ = run(capsys, "analyze", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["rigid"] is False and rep["globally_rigid"] is None


def test_analyze_edgeless_graph_is_not_redundant(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"n":5,"edges":[]}')
    code, out, _ = run(capsys, "analyze", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["rigid"] is False
    assert rep["redundant"] is False and rep["hendrickson"] is False and rep["laman"] is False


def test_analyze_laman_random(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(generate("laman_random", [8], seed=1)))
    code, out, _ = run(capsys, "analyze", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["laman"] is True and rep["globally_rigid"] is False
    # flag consistency
    if rep["hendrickson"]:
        assert rep["redundant"] and rep["three_connected"]


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n":3,"edges":[[0,0]]}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "self-loop" in err


@pytest.mark.parametrize("text", ['{"n":100000000000,"edges":[]}', "100000000000 0\n"],
                         ids=["json", "edge-list"])
def test_analyze_refuses_a_vertex_count_above_the_limit(tmp_path, capsys, text):
    path = tmp_path / "huge"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == f"error: n=100000000000 exceeds the limit of {MAX_VERTICES} vertices\n"


@pytest.mark.parametrize("argv", [("gen", "path"), ("sample", "knn", "concurrent")],
                         ids=["gen", "sample knn"])
def test_a_vertex_count_argument_above_the_limit_is_an_error(capsys, argv):
    # refused before anything of that size is allocated
    code, out, err = run(capsys, *argv, "100000000000")
    assert code == 2 and out == ""
    assert err.startswith(f"error: n=100000000000 exceeds the limit of {MAX_VERTICES} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("gen", "complete", "100000"),
     f"complete(100000) has 4999950000 edges, above the limit of {MAX_COMPLETE_EDGES}"),
    (("gen", "complete", "1415"), f"complete(1415) has 1000405 edges, above the limit of {MAX_COMPLETE_EDGES}"),
    (("verify", "lemma-cong", "--trials", "1000000000"),
     f"trials=1000000000 exceeds the limit of {MAX_TRIALS}"),
    (("verify", "four-lines", "--trials", "100000000000"),
     f"trials=100000000000 exceeds the limit of {MAX_TRIALS}"),
], ids=["gen complete", "gen complete past the cap", "lemma-cong", "four-lines"])
def test_sizes_that_memory_cannot_hold_are_errors(capsys, argv, message):
    # refused before anything of that size is allocated, not a MemoryError traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.json")
    assert code == 2 and "error" in err


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "four-lines", "--trials", "50")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["total"] == 50
    code, _, _ = run(capsys, "verify", "lemma-complete", "--n-max", "4", "--seeds", "2",
                     "--format", "text")
    assert code == 0


def test_unknown_suite_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "no-such-suite")
    assert code == 2


def test_verify_dispatch_covers_every_suite(capsys):
    small = {
        "theorem-main": ["--seeds", "2", "--n-max", "5"],
        "theorem-mainnec": ["--count", "2"],
        "lemma-complete": ["--n-max", "3", "--seeds", "1"],
        "lemma-3lines": ["--per-class", "2"],
        "lemma-cong": ["--trials", "200"],
        "four-lines": ["--trials", "20"],
        "hendrickson-oracle": ["--n-max", "5"],
    }
    for suite, flags in small.items():
        code, out, _ = run(capsys, "verify", suite, *flags)
        rep = json.loads(out)
        assert code == 0 and rep["ok"] is True, (suite, rep)


@pytest.mark.parametrize("argv", [
    ["lemma-cong", "--trials", "0"], ["lemma-cong", "--trials", "-3"],
    ["four-lines", "--trials", "-2"], ["four-lines", "--trials", "0"],
    ["lemma-3lines", "--per-class", "-1"], ["lemma-complete", "--n-max", "-1"],
    ["lemma-complete", "--seeds", "0"], ["theorem-main", "--seeds", "0"],
    ["theorem-main", "--n-max", "1"], ["theorem-mainnec", "--count", "0"],
    ["hendrickson-oracle", "--n-max", "3"],
], ids=" ".join)
def test_verify_size_leaving_nothing_to_check_exit_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "must be at least" in err


def test_lines_graph_and_common(tmp_path, capsys):
    code, out, _ = run(capsys, "sample", "knn", "concurrent", "4", "--seed", "3")
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    code, out, _ = run(capsys, "lines", "graph", str(cfg_path))
    assert code == 0
    G = parse_graph(out)
    assert G.m == 6
    code, out, _ = run(capsys, "lines", "common", str(cfg_path))
    rep = json.loads(out)
    assert code == 0 and rep["common_point"] is not None
    code, out, _ = run(capsys, "lines", "classify", str(cfg_path))
    assert code == 2  # classify needs exactly 3 lines


def test_lines_meet(capsys):
    code, out, _ = run(capsys, "lines", "meet", "0", "0", "0", "0", "1", "0", "0", "1")
    assert code == 0 and json.loads(out)["residual"] == 1.0


def test_lines_meet_overflow_is_an_error(capsys):
    # finite coordinates whose residual, quadratic in them, overflows to -inf
    code, out, err = run(capsys, "lines", "meet", "1e200", "0", "0", "0", "0", "0", "1e200", "1e200")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("lines, s", [
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 2, 3, 4]], "1e200"),
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 2, 3, 4]], "1e100"),
    ([[1e300, 0, 1, 0], [0, 0, 0, 1], [1, 2, 3, 4]], "0"),
])
def test_lines_transversal_overflow_is_an_error(tmp_path, capsys, lines, s):
    # on the lines in their chart unit w is quadratic in q = l3(s): q near 1e200
    # overflows, q near 1e100 fits and gives the line through q and the origin
    # within rounding of |q|; the 1e300 line gives a line whose incidences overflow
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"lines": lines}))
    code, out, err = run(capsys, "lines", "transversal", str(path), s)
    if s == "1e100":
        rep = json.loads(out)
        a, b, c, d = rep["line"]
        assert code == 0 and rep["reason"] == "ok"
        assert max(abs(a), abs(b)) <= 1e-14 * 1e100 and [c, d] == pytest.approx([3, 4], rel=1e-12)
        return
    assert code == 2 and out == "" and err.startswith("error: coordinate")
    assert err.endswith("too large: line incidences overflow the float range\n")


@pytest.mark.parametrize("lines, s, reason", [
    ([[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]], "0.5", "ok"),
    ([[0, 0, 0, 0], [5, 5, 1, 0], [0, 0, 1, 1]], "0", "q-on-line"),
    # a coplanar triple: the planes through q and each line are their plane
    ([[0, 0, 1, 0], [0, 5, 1, 2], [0, -3, 1, 7]], "4", "planes-coincide"),
    # l1 and l2 meet at the origin, and q = (1, 2, 0) lies at its height
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 2, 3, 4]], "0", "horizontal"),
])
def test_lines_transversal_reports_its_reason(tmp_path, capsys, lines, s, reason):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"lines": lines}))
    code, out, _ = run(capsys, "lines", "transversal", str(path), s)
    rep = json.loads(out)
    assert code == 0 and rep["reason"] == reason and (rep["line"] is None) == (reason != "ok")


def test_es_overflow_is_an_error(tmp_path, capsys):
    # a congruent pair (the two point lists are equal) whose squared distances
    # overflow the float range
    ppath = tmp_path / "pairs.json"
    ppath.write_text('{"p":[[1e300,0],[0,1e300],[1,1]],"p_prime":[[1e300,0],[0,1e300],[1,1]]}')
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("complete", [3])))
    for argv in (("es", "recover", str(ppath)), ("es", "dim", str(gpath), str(ppath))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "overflow" in err
        # points: the message names their squared distances, byte for byte
        assert err == ("error: coordinate 1e+300 is too large: squared distances overflow "
                       "the float range\n")
    # at 1e150 the squares still fit, and both commands answer
    ppath.write_text(ppath.read_text().replace("e300", "e150"))
    code, out, _ = run(capsys, "es", "recover", str(ppath))
    assert code == 0 and json.loads(out)["orientation"] == 1
    code, out, _ = run(capsys, "es", "dim", str(gpath), str(ppath))
    assert code == 0 and json.loads(out)["certified"] is True


@pytest.mark.parametrize("argv", [
    ["gen", "complete"], ["gen", "complete", "3", "4"], ["gen", "hendrickson_random", "5", "1", "2"],
])
def test_gen_wrong_parameter_count_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["lines", "meet", "1", "2", "3", "4", "5", "6", "7", "nan"],
    ["lines", "meet", "1", "2", "3", "4", "5", "6", "7", "1e400"],
    ["es", "rotation", "nan", "0", "inf"],
    ["es", "rotation", "0", "0", "x"],
])
def test_non_finite_float_positionals_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "not a finite number" in err


def test_transversal_parameter_must_be_finite(tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"lines": [[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]]}))
    code, out, _ = run(capsys, "lines", "transversal", str(path), "0.5")
    assert code == 0 and "line" in json.loads(out)
    for s in ("nan", "inf"):
        code, out, err = run(capsys, "lines", "transversal", str(path), s)
        assert code == 2 and out == "" and "not a finite number" in err


def test_lines_dim_certificate(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("laman_random", [5], seed=6)))
    code, out, _ = run(capsys, "sample", "laman", str(gpath), "--seed", "1")
    assert code == 0
    cpath = tmp_path / "cfg.json"
    cpath.write_text(out)
    code, out, _ = run(capsys, "lines", "dim", str(gpath), str(cpath))
    rep = json.loads(out)
    assert code == 0 and rep["certified"] and rep["local_dim_estimate"] == 13
    assert "jacobian" not in rep
    code, out, _ = run(capsys, "lines", "dim", str(gpath), str(cpath), "--dump-jacobian")
    rep = json.loads(out)
    assert code == 0 and len(rep["jacobian"]) == 7


def test_es_dim_certificate(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("laman_random", [5], seed=6)))
    code, out, _ = run(capsys, "sample", "pair", str(gpath), "--seed", "2")
    assert code == 0
    ppath = tmp_path / "pairs.json"
    ppath.write_text(out)
    code, out, _ = run(capsys, "es", "dim", str(gpath), str(ppath))
    rep = json.loads(out)
    assert code == 0 and rep["jacobian_rank"] == 7 and rep["local_dim_estimate"] == 13


def test_sample_laman_and_project(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("laman_random", [6], seed=2)))
    code, out, _ = run(capsys, "sample", "laman", str(gpath), "--seed", "4")
    assert code == 0
    cpath = tmp_path / "lines.json"
    cpath.write_text(out)
    code, out, _ = run(capsys, "sample", "project", str(gpath), str(cpath))
    assert code == 0 and json.loads(out)["lines"]


def test_henneberg_cli_round_trip(tmp_path, capsys):
    G = generate("laman_random", [7], seed=3)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(G))
    code, out, _ = run(capsys, "henneberg", "extract", str(gpath))
    assert code == 0
    payload = json.loads(out)
    spath = tmp_path / "steps.json"
    spath.write_text(json.dumps(payload["steps"]))
    code, out, _ = run(capsys, "henneberg", "apply", str(spath))
    assert code == 0
    replay = parse_graph(out)
    assert replay.relabeled(payload["relabel"]) == G


def test_henneberg_leaves_look_their_function_up_when_run(monkeypatch, capsys):
    import linerig.cli as cli
    calls = []

    def counted(G, _fn=cli.extract_jj):
        calls.append(G)
        return _fn(G)

    monkeypatch.setattr(cli, "extract_jj", counted)
    G = generate("hendrickson_random", [8], seed=1)
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(G)))
    code, out, _ = run(capsys, "henneberg", "jj-extract", "-")
    assert code == 0 and calls == [G] and json.loads(out)["steps"]


def test_es_cli_round_trip(tmp_path, capsys):
    pairs = {"p": [[0, 0], [1, 0], [0, 1]], "p_prime": [[0, 0], [0, 1], [-1, 0]]}
    ppath = tmp_path / "pairs.json"
    ppath.write_text(json.dumps(pairs))
    code, out, _ = run(capsys, "es", "map", str(ppath))
    assert code == 0
    cpath = tmp_path / "cfg.json"
    cpath.write_text(out)
    code, out, _ = run(capsys, "es", "invert", str(cpath))
    assert code == 0
    back = json.loads(out)
    assert back["p"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    code, out, _ = run(capsys, "es", "rotation", "0", "0", "1")
    assert code == 0 and abs(json.loads(out)["theta"] - 1.5707963267948966) < 1e-12
    code, out, _ = run(capsys, "es", "recover", str(ppath), "--orientation", "1")
    assert code == 0 and json.loads(out)["orientation"] == 1


def test_output_is_byte_deterministic(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("wheel", [6])))
    _, out1, _ = run(capsys, "analyze", str(gpath), "--seed", "9")
    _, out2, _ = run(capsys, "analyze", str(gpath), "--seed", "9")
    assert out1 == out2
    lpath = tmp_path / "l.json"
    lpath.write_text(serialize_graph(generate("laman_random", [6], seed=2)))
    _, s1, _ = run(capsys, "sample", "laman", str(lpath), "--seed", "9")
    _, s2, _ = run(capsys, "sample", "laman", str(lpath), "--seed", "9")
    assert s1 == s2


def test_analyze_exact_flag(tmp_path, capsys):
    # the rigidity rank is a rank mod p already: analyze takes no --exact, and its
    # report has no second rank
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("wheel", [5])))
    code, out, err = run(capsys, "analyze", str(gpath), "--exact")
    assert code == 2 and out == "" and "unrecognized arguments: --exact" in err
    code, out, _ = run(capsys, "analyze", str(gpath))
    rep = json.loads(out)
    assert code == 0 and rep["rigidity_rank"] == 7 and "rigidity_rank_exact" not in rep


def test_suite_reports_serialize(capsys):
    import json as _json
    from linerig.verify import four_lines
    rep = four_lines(trials=10)
    text = _json.dumps(rep.to_dict(), sort_keys=True)
    assert _json.loads(text)["suite"] == "four-lines"


@pytest.mark.parametrize("text", [
    '{"lines": [[0, 1, "x", 2]]}',
    '[[0, 1, 2, 3]]',
    '{"lines": [[0, 1, 2, 3], [NaN, 1, 2, 3]]}',
])
def test_malformed_line_config_exit_2(tmp_path, capsys, text):
    cpath = tmp_path / "lines.json"
    cpath.write_text(text)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("complete", [2])))
    for argv in (("lines", "common", str(cpath)), ("sample", "project", str(gpath), str(cpath))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("text, point, parallel, plane", [
    # one line twice: every plane through it fits; lstsq picks the one of minimum
    # norm on the line in its chart unit, (1, 2, 3, 4) / 8
    ('{"lines":[[1,2,3,4],[1,2,3,4]]}', None, True,
     [0.12219451371571073, 0.15835411471321698, -0.4389027431421448]),
    # two lines through the origin in the vertical plane y = 0
    ('{"lines":[[0,0,1,0],[0,0,2,0]]}', [0.0, 0.0, 0.0], False, None),
    # two parallel lines in the vertical plane y = 0
    ('{"lines":[[0,0,1,0],[1,0,1,0]]}', None, True, None),
], ids=["duplicate", "vertical-pencil", "vertical-parallel"])
def test_lines_common_degenerate(tmp_path, capsys, text, point, parallel, plane):
    cpath = tmp_path / "lines.json"
    cpath.write_text(text)
    code, out, _ = run(capsys, "lines", "common", str(cpath))
    rep = json.loads(out)
    assert code == 0
    assert rep["common_point"] == point and rep["parallel_family"] is parallel
    if plane is None:
        assert rep["common_plane"] is None
    else:
        assert rep["common_plane"] == pytest.approx(plane, rel=1e-12, abs=1e-12)


def test_analyze_runs_each_check_once(monkeypatch):
    """One game for the rank (laman derives from it), redundancy read off the stress
    with no deletion games, and at most one run of each global-rigidity test, ordered
    by Hendrickson's theorem: a globally rigid graph makes no 3-connectivity sweep, and
    a rigid graph that is not redundant ranks no n x n stress matrix, 3-connected or
    not."""
    from helpers import glued_on_edge
    import linerig.cli as cli
    import linerig.numeric as numeric
    import linerig.sparsity as sparsity
    from linerig.graphs import Graph
    calls = {"is_redundant": 0, "is_k_connected": 0, "sparsity_rank": 0}
    for module in (cli, sparsity):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    shapes, eliminate = [], numeric._eliminate
    monkeypatch.setattr(numeric, "_eliminate",
                        lambda M, p: shapes.append(M.shape) or eliminate(M, p))
    cases = [
        # globally rigid: the stress matrix's True settles three_connected
        (generate("wheel", [6]), 0, 1, dict(globally_rigid=True, three_connected=True)),
        # rigid, not redundant: non-redundancy settles globally_rigid
        (generate("laman_random", [8], seed=1), 1, 0,
         dict(globally_rigid=False, three_connected=False, laman=True, redundant=False)),
        # K_{3,3}: Laman and 3-connected, so its stress is 0 and the sweep says True
        (Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]), 1, 0,
         dict(globally_rigid=False, three_connected=True, laman=True, redundant=False)),
        # redundant, only 2-connected: the stress matrix says False, so the sweep runs
        (glued_on_edge(generate("hendrickson_random", [8, 4], seed=1), generate("complete", [4]), 1),
         1, 1, dict(globally_rigid=False, three_connected=False, redundant=True)),
    ]
    for G, sweeps, stress_matrices, want in cases:
        calls.update(dict.fromkeys(calls, 0))
        shapes.clear()
        rep = cli.analyze_graph(G)
        assert calls == {"is_redundant": 0, "is_k_connected": sweeps, "sparsity_rank": 1}
        assert shapes.count((G.n, G.n)) == stress_matrices
        assert {key: getattr(rep, key) for key in want} == want
        assert rep.hendrickson is want["globally_rigid"]


def test_analyze_redundancy_equals_the_deletion_games():
    """analyze's redundant, read off the support of one stress, equals is_redundant's
    m deletion games: on Hendrickson graphs and on them with 1-3 edges deleted, on
    Laman graphs with 1-3 edges added, on two graphs glued on an edge (redundant, only
    2-connected) or at a vertex (flexible with m >= 2n - 3), on complete graphs and
    wheels, and on the hendrickson-oracle catalog."""
    import random
    from itertools import combinations
    from helpers import glued_at_vertex, glued_on_edge
    from linerig.cli import analyze_graph
    from linerig.graphs import Graph
    from linerig.sparsity import is_redundant
    from linerig.verify import hendrickson_catalog
    fixed = [G for _, G in hendrickson_catalog(8)]
    fixed += [generate(name, [k]) for name in ("complete", "wheel") for k in range(4, 10)]
    kinds = {True: 0, False: 0}
    for seed in range(3):
        rng = random.Random(seed)
        graphs = list(fixed)
        for n in (6, 11, 17):
            H = generate("hendrickson_random", [n, n // 3], seed=seed)
            graphs += [H] + [Graph.from_edges(n, rng.sample(H.edges, H.m - d)) for d in (1, 2, 3)]
            L = generate("laman_random", [n], seed=seed)
            non_edges = [e for e in combinations(range(n), 2) if e not in L.edges]
            graphs += [Graph.from_edges(n, L.edges + tuple(rng.sample(non_edges, a)))
                       for a in (1, 2, 3)]
            glued = glued_on_edge(H, generate("complete", [4]), seed)
            flexible = glued_at_vertex(H, generate("hendrickson_random", [5, 2], seed=seed), seed)
            assert flexible.m >= 2 * flexible.n - 3
            graphs += [glued, flexible]
            rep = analyze_graph(glued, seed)
            assert rep.redundant and rep.three_connected is False
        for G in graphs:
            redundant = is_redundant(G)
            assert analyze_graph(G, seed).redundant is redundant, (seed, G)
            kinds[redundant] += 1
    assert min(kinds.values()) >= 50


def _direct_report(G, seed) -> dict:
    """analyze's report from rigidity()'s verdicts, its stress matrix ranked on every
    rigid graph, and the 3-connectivity sweep, which helpers.analysis_report always
    runs."""
    from helpers import analysis_report
    from linerig.numeric import rigidity
    r = rigidity(G, seed)
    return analysis_report(G, seed, r.rank, r.globally_rigid, r.redundant)


def test_theorem_ordered_verdicts_equal_the_direct_ones():
    """analyze runs one global-rigidity test where Hendrickson's theorem settles the
    other; its report equals the one both tests give, on every kind of graph the order
    tells apart: globally rigid, redundant and only 2-connected, rigid and not
    redundant (with vertices of degree 2, with edges added to a Laman graph, or
    3-connected), flexible, and n < 4."""
    import random
    from itertools import combinations
    from helpers import glued_at_vertex, glued_on_edge, with_pendants
    from linerig.cli import analyze_graph
    from linerig.graphs import Graph
    from linerig.verify import hendrickson_catalog
    fixed = [G for _, G in hendrickson_catalog(8)]
    # K_{3,3}: Laman and 3-connected, so rigid, not redundant and not globally rigid
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    fixed += [generate("complete", [3]), generate("complete", [4]), generate("path", [5]),
              Graph(6, ()), k33]
    kinds = set()
    for seed in range(3):
        rng = random.Random(seed)
        graphs = list(fixed)
        for n in (6, 11, 17):
            H = generate("hendrickson_random", [n, n // 3], seed=seed)
            L = generate("laman_random", [n], seed=seed)
            non_edges = [e for e in combinations(range(n), 2) if e not in L.edges]
            graphs += [glued_on_edge(H, generate("complete", [4]), seed),
                       glued_at_vertex(H, generate("wheel", [5]), seed)]
            graphs += [with_pendants(base, k, seed) for base in (L, H) for k in (1, 2, 3)]
            graphs += [Graph.from_edges(n, L.edges + tuple(rng.sample(non_edges, k)))
                       for k in (1, 2, 3)]
        for G in graphs:
            rep = analyze_graph(G, seed).to_dict()
            assert rep == _direct_report(G, seed), (seed, G)
            kinds.add((rep["rigid"], rep["redundant"], rep["three_connected"],
                       rep["globally_rigid"]))
    # every branch of the order: n < 4, flexible, globally rigid, redundant and not
    # 3-connected, rigid and not redundant, 3-connected and not redundant
    assert {(True, False, None, None), (False, False, False, None), (True, True, True, True),
            (True, True, False, False), (True, False, False, False),
            (True, False, True, False)} <= kinds


@st.composite
def _small_graphs(draw):
    from itertools import combinations
    from linerig.graphs import Graph
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.floats(0.0, 1.0))
    return Graph.from_edges(n, [e for e, u in zip(pairs, draw(st.lists(
        st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))) if u < keep])


@settings(max_examples=120, deadline=None)
@given(G=_small_graphs(), seed=st.integers(0, 2 ** 16))
def test_theorem_ordered_verdicts_equal_the_direct_ones_on_random_graphs(G, seed):
    from linerig.cli import analyze_graph
    assert analyze_graph(G, seed).to_dict() == _direct_report(G, seed)


def test_analyze_eliminates_the_stress_matrix_only_where_it_decides(monkeypatch):
    """_eliminate's calls: R^T, 2n x m, then the n x n stress matrix on a globally rigid
    graph; on a rigid graph with a vertex of degree 2, R^T alone, as its
    non-redundancy settles global rigidity."""
    from helpers import with_pendants
    import linerig.numeric as numeric
    from linerig.cli import analyze_graph
    shapes, eliminate = [], numeric._eliminate
    monkeypatch.setattr(numeric, "_eliminate",
                        lambda M, p: shapes.append(M.shape) or eliminate(M, p))
    rep = analyze_graph(generate("wheel", [6]))
    assert shapes == [(12, 10), (6, 6)] and rep.globally_rigid is True
    H = generate("hendrickson_random", [10, 4], seed=1)
    for G in (generate("laman_random", [8], seed=1), with_pendants(H, 1, 1)):
        shapes.clear()
        rep = analyze_graph(G)
        assert rep.rigid and min(map(G.degree, range(G.n))) == 2
        assert shapes == [(2 * G.n, G.m)] and rep.globally_rigid is False


def test_verify_passes_each_suite_its_own_flags(monkeypatch, capsys):
    """Each verify leaf takes its own suite's options and passes the suite every
    parameter: a given option's value, else the suite's default."""
    import functools
    from linerig.verify import SuiteReport
    cases = {
        "theorem-main": (["--seed", "3", "--n-max", "6"], {"seeds": 50, "n_max": 6, "seed": 3}),
        "theorem-mainnec": (["--count", "5"], {"count": 5, "seed": 0}),
        "lemma-complete": (["--seeds", "2", "--seed", "3"], {"n_max": 10, "seeds": 2, "seed": 3}),
        "lemma-3lines": (["--per-class", "7", "--seed", "3"], {"per_class": 7, "seed": 3}),
        "lemma-cong": (["--trials", "4"], {"trials": 4, "seed": 0}),
        "four-lines": (["--tol", "1e-7", "--seed", "3"], {"trials": 10000, "seed": 3, "tol": 1e-7}),
        "hendrickson-oracle": (["--n-max", "6"], {"n_max": 6, "seed": 0}),
    }
    assert set(cases) == set(SUITES)
    for name, (flags, want) in cases.items():
        got = {}

        @functools.wraps(SUITES[name])
        def spy(**kwargs):
            got.update(kwargs)
            return SuiteReport(name)

        monkeypatch.setitem(SUITES, name, spy)
        code, _, _ = run(capsys, "verify", name, *flags)
        assert code == 0 and got == want, name


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_takes_no_option_of_another_suite(capsys, suite):
    """An option that only other suites read is a usage error, before the suite runs."""
    own = set(_LEAF_OPTIONS[f"verify {suite}"].split())
    others = {option for leaf, options in _LEAF_OPTIONS.items() if leaf.startswith("verify ")
              for option in options.split()} - own
    assert others
    for option in sorted(others):
        code, out, err = run(capsys, "verify", suite, option, "1")
        assert code == 2 and out == "" and f"unrecognized arguments: {option} 1" in err, option


def test_verify_four_lines_reads_tol(capsys):
    code, _, err = run(capsys, "verify", "four-lines", "--trials", "5", "--tol", "0")
    assert code == 2 and "tolerance" in err
    code, out, _ = run(capsys, "verify", "four-lines", "--trials", "5", "--tol", "1e-6")
    assert code == 0 and json.loads(out)["passed"] == 5


@pytest.mark.parametrize("name", ["theorem-main", "theorem-mainnec", "lemma-complete",
                                  "lemma-3lines", "lemma-cong", "four-lines",
                                  "hendrickson-oracle"])
def test_verify_without_options_runs_the_suites_defaults(capsys, name):
    from linerig.verify import SUITES
    code, out, _ = run(capsys, "verify", name)
    want = json.dumps(SUITES[name]().to_dict(), sort_keys=True, separators=(",", ":"))
    assert code == 0 and out == want + "\n"


def test_analyze_takes_one_rigidity_rank_pass(monkeypatch):
    """One mod-p elimination of R^T per prime, plus one of the stress matrix on a
    rigid graph: wheel(6) decides both answers on its first prime, and cycle(6),
    independent, reaches its full rank m on its first."""
    import linerig.cli as cli
    import linerig.numeric as numeric
    calls = []

    def counted(M, p):
        calls.append(M.shape)
        return eliminate(M, p)

    eliminate = numeric._eliminate
    monkeypatch.setattr(numeric, "_eliminate", counted)
    rep = cli.analyze_graph(generate("wheel", [6]))
    assert calls == [(12, 10), (6, 6)]
    assert rep.rigid and rep.globally_rigid is True and rep.rigidity_rank == 9
    calls.clear()
    rep = cli.analyze_graph(generate("cycle", [6]))
    assert calls == [(12, 6)]
    assert not rep.rigid and rep.globally_rigid is None and rep.rigidity_rank == 6


@pytest.mark.parametrize("bad", ["NaN", "1e400", "true", '"1"'])
def test_malformed_pair_file_exit_2(tmp_path, capsys, bad):
    ppath = tmp_path / "pairs.json"
    ppath.write_text('{"p":[[%s,1],[2,3]],"p_prime":[[0,1],[2,3]]}' % bad)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("complete", [2])))
    for argv in (("es", "map", str(ppath)), ("es", "recover", str(ppath)),
                 ("es", "dim", str(gpath), str(ppath))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


# `lines dim` / `es dim --dump-jacobian` on K4 minus an edge, as printed before the
# one edge-system kernel, less the keys the float reports gained since: the two
# margin keys and a null `primes`.
_DUMP_GRAPH = '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[2,3]]}'
_DUMP_LINES = ('{"lines":[[-0.09999999999999998,2.15,0.3,-1.7],[-1.7000000000000002,-2.05,1.1,0.4],'
               '[1.7,-5.65,-0.6,2.2],[-4.5,0.55,2.5,-0.9]]}')
_DUMP_PAIRS = '{"p":[[0,0],[1.5,0],[0,1],[1,1.25]],"p_prime":[[2,0],[2,1.5],[1,0],[0.75,1]]}'
_LINES_DIM = (
    '{"ambient_dim":16,"certified":true,"constraint_count":5,"jacobian":[[-2.1,0.8,-4.199999999999999,'
    '1.6,2.1,-0.8,4.199999999999999,-1.6,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],[-3.9000000000000004,'
    '-0.8999999999999999,-7.800000000000001,-1.7999999999999998,0.0,0.0,0.0,0.0,3.9000000000000004,'
    '0.8999999999999999,7.800000000000001,1.7999999999999998,0.0,0.0,0.0,0.0],[-0.7999999999999999,2.2,'
    '-1.5999999999999999,4.4,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.7999999999999999,-2.2,1.5999999999999999,'
    '-4.4],[0.0,0.0,0.0,0.0,-1.8000000000000003,-1.7000000000000002,-3.6000000000000005,'
    '-3.4000000000000004,1.8000000000000003,1.7000000000000002,3.6000000000000005,3.4000000000000004,'
    '0.0,0.0,0.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,3.1,3.1,6.2,6.2,-3.1,-3.1,-6.2,-6.2]],'
    '"jacobian_rank":5,"local_dim_estimate":11,"tol":1e-08}\n')
_ES_DIM = (
    '{"ambient_dim":16,"certified":true,"constraint_count":5,"jacobian":[[-3.0,0.0,3.0,-0.0,0.0,0.0,'
    '0.0,0.0,-0.0,3.0,0.0,-3.0,-0.0,-0.0,-0.0,-0.0],[0.0,-2.0,0.0,0.0,-0.0,2.0,0.0,0.0,-2.0,-0.0,-0.0,'
    '-0.0,2.0,0.0,-0.0,-0.0],[-2.0,-2.5,0.0,0.0,0.0,0.0,2.0,2.5,-2.5,2.0,-0.0,-0.0,-0.0,-0.0,2.5,-2.0],'
    '[0.0,0.0,3.0,-2.0,-3.0,2.0,0.0,0.0,-0.0,-0.0,-2.0,-3.0,2.0,3.0,-0.0,-0.0],[0.0,0.0,0.0,0.0,-2.0,'
    '-0.5,2.0,0.5,-0.0,-0.0,-0.0,-0.0,-0.5,2.0,0.5,-2.0]],"jacobian_rank":5,"local_dim_estimate":11,'
    '"tol":1e-08}\n')


def test_dump_jacobian_bytes_are_unchanged(tmp_path, capsys):
    import re
    for name, text in (("g", _DUMP_GRAPH), ("l", _DUMP_LINES), ("p", _DUMP_PAIRS)):
        (tmp_path / f"{name}.json").write_text(text)
    margin = re.compile(r'"primes":null,"sigma_dropped":null,"sigma_kept":[0-9.e+-]+,')
    for argv, want in ((("lines", "dim", "g.json", "l.json"), _LINES_DIM),
                       (("es", "dim", "g.json", "p.json"), _ES_DIM)):
        code, out, _ = run(capsys, *argv[:2], *(str(tmp_path / f) for f in argv[2:]),
                           "--dump-jacobian")
        assert code == 0 and margin.search(out)
        assert margin.sub("", out) == want


@pytest.mark.parametrize("steps", [
    '[{"kind":"ext0","u":0,"v":1e400}]',
    '[{"kind":"ext0","u":true,"v":1}]',
    '[{"kind":"ext0","u":0,"v":1.7}]',
])
def test_malformed_steps_exit_2(tmp_path, capsys, steps):
    spath = tmp_path / "steps.json"
    spath.write_text(steps)
    for cmd in ("apply", "jj-apply"):
        code, out, err = run(capsys, "henneberg", cmd, str(spath))
        assert code == 2 and out == "" and err.startswith("error:")


def test_lines_common_at_huge_coordinates(tmp_path, capsys):
    # the squares of these coordinates overflow the float range. In the chart unit
    # 2**-666 the base points are about (0.33, 0), (0, 0.65) and (0, 0), not
    # collinear, so no plane holds the lines
    cpath = tmp_path / "lines.json"
    cpath.write_text('{"lines":[[1e200,2,3,4],[1,2e200,3,5],[1,2,3e150,4]]}')
    code, out, err = run(capsys, "lines", "common", str(cpath))
    rep = json.loads(out)
    assert code == 0 and err == ""
    assert rep["common_point"] is None and rep["parallel_family"] is True
    assert rep["common_plane"] is None
    # lines of the plane z = x + 2y + 3 scaled by 1e200 lie in z = (x + 2y) / 1e200 + 3
    lines = [[-3, 0, 1, 0], [-1, -1, -1, 1], [1, -2, 3, -1]]
    cpath.write_text(json.dumps({"lines": [[x * 1e200 for x in row] for row in lines]}))
    code, out, err = run(capsys, "lines", "common", str(cpath))
    plane = json.loads(out)["common_plane"]
    assert code == 0 and plane == pytest.approx([1e-200, 2e-200, 3], rel=1e-12)


def test_line_overflow_names_the_incidences(tmp_path, capsys):
    # chart lines square no distance: the error names what overflows
    cpath = tmp_path / "lines.json"
    cpath.write_text('{"lines":[[1e200,0,0,1e200],[0,0,0,0],[1,2,3,4]]}')
    code, out, err = run(capsys, "lines", "graph", str(cpath))
    assert code == 2 and out == ""
    assert err == ("error: coordinate 1e+200 is too large: line incidences overflow "
                   "the float range\n")


@pytest.mark.parametrize("cmd", ["lines graph", "lines classify", "lines dim", "sample project"])
def test_incidence_overflow_is_an_error(tmp_path, capsys, cmd):
    # the incidence of the first two lines, quadratic in them, overflows the float range
    cpath = tmp_path / "lines.json"
    cpath.write_text('{"lines":[[1e200,0,0,1e200],[0,0,0,0],[1,2,3,4]]}')
    gpath = tmp_path / "triangle.json"
    gpath.write_text(serialize_graph(generate("complete", [3])))
    graph = [str(gpath)] if cmd in ("lines dim", "sample project") else []
    argv = [*cmd.split(), *graph, str(cpath)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "overflow" in err
    # at 1e150 the products fit: graph and classify answer, dim finds the lines off
    # the triangle's incidence system, and the projection reaches it, scale-free
    # like the residual rule, so that dim certifies what it prints
    cpath.write_text(cpath.read_text().replace("e200", "e150"))
    code, out, err = run(capsys, *argv)
    if cmd == "sample project":
        assert code == 0 and err == ""
        cpath.write_text(out)
        code, out, err = run(capsys, "lines", "dim", str(gpath), str(cpath))
        rep = json.loads(out)
        assert code == 0 and err == "" and rep["certified"] and rep["jacobian_rank"] == 3
    elif graph:
        assert code == 2 and "residual" in err and "overflow" not in err
    else:
        assert code == 0 and err == "" and json.loads(out)


def test_projection_overflow_names_the_normal_matrix(tmp_path, capsys):
    # at +-4.6e153 the incidences fit the float range, but the diagonal of the
    # projection's J J^T, eight products of differences, does not
    row_signs = [[1, 1, -1, 1], [1, 1, 1, 1], [1, -1, -1, 1], [-1, -1, 1, -1]]
    cpath = tmp_path / "lines.json"
    cpath.write_text(json.dumps({"lines": [[s * 4.6e153 for s in r] for r in row_signs]}))
    gpath = tmp_path / "g.json"
    gpath.write_text(_SAMPLE_GRAPH)
    code, out, err = run(capsys, "lines", "graph", str(cpath))
    assert code == 0 and err == ""
    code, out, err = run(capsys, "sample", "project", str(gpath), str(cpath))
    assert code == 2 and out == ""
    assert err == ("error: coordinate 4.6e+153 is too large: normal-matrix entries overflow "
                   "the float range\n")


# `sample laman` on K4 minus an edge with --seed 1: the projection of the random
# integer start drawn for (seed 1, attempt 1)
_SAMPLE_GRAPH = '{"n":4,"edges":[[0,2],[0,3],[1,2],[1,3],[2,3]]}'
_SAMPLE_LINES = (
    '{"lines":[[19.87086865002665,-14.938015115197686,4.925605556138427,-1.2066443848776534],'
    '[14.157875269501389,-4.964426872371278,4.910790913868758,-25.27531795802036],'
    '[23.797778842985334,11.251413715175534,0.10437978881899268,-33.36046071986353],'
    '[9.173477237486626,-13.348971727606564,18.059223741173824,-3.157576937238459]]}\n')
# the same sample when each step formed the dense Jacobian J and J J^T: the steps
# from the m x 4 incidence gradients round differently in the last digits only
_SAMPLE_LINES_DENSE = (
    '{"lines":[[19.870868650026647,-14.938015115197688,4.925605556138426,-1.2066443848776531],'
    '[14.15787526950139,-4.964426872371278,4.910790913868759,-25.275317958020356],'
    '[23.79777884298533,11.251413715175534,0.10437978881899473,-33.36046071986353],'
    '[9.173477237486626,-13.348971727606566,18.059223741173824,-3.157576937238459]]}\n')


def test_sample_laman_bytes_are_pinned(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(_SAMPLE_GRAPH)
    code, out, _ = run(capsys, "sample", "laman", str(gpath), "--seed", "1")
    assert code == 0 and out == _SAMPLE_LINES
    new, dense = (json.loads(text)["lines"] for text in (_SAMPLE_LINES, _SAMPLE_LINES_DENSE))
    assert all(abs(a - b) <= 1e-13 * abs(b)
               for row, ref in zip(new, dense) for a, b in zip(row, ref))


# Reader robustness: every subcommand that reads input, fed random JSON documents,
# some shaped like the file it expects, ends with exit 0 or an `error:` line and
# exit 2; RuntimeWarnings count as failures (pyproject's filterwarnings).
_LEAF = (st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3)
         | st.floats(allow_nan=True, allow_infinity=True))
_NUM = st.integers(-3, 8) | st.floats(-50, 50) | _LEAF
_ANY = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)


def _rows(width: int):
    return st.lists(st.lists(_NUM, min_size=width - 1, max_size=width + 1) | _ANY, max_size=6)


_DOCS = {
    "graph": st.fixed_dictionaries({"n": st.integers(-1, 7) | _LEAF}, optional={
        "edges": st.lists(st.lists(st.integers(-1, 7) | _LEAF, max_size=3) | _ANY, max_size=9)}),
    "lines": st.fixed_dictionaries({}, optional={"lines": _rows(4) | _ANY}),
    "pairs": st.fixed_dictionaries({}, optional={"p": _rows(2) | _ANY, "p_prime": _rows(2) | _ANY}),
    "steps": st.lists(st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["ext0", "ext1", "edge"]) | _LEAF,
        "u": st.integers(-1, 6) | _LEAF, "v": st.integers(-1, 6) | _LEAF,
        "w": st.integers(-1, 6) | _LEAF}) | _ANY, max_size=5),
}
# Every leaf that reads a file, and its positionals: a key of _DOCS is a drawn file,
# anything else is passed as it stands.
_READERS = [
    (("analyze",), ("graph",)),
    (("lines", "graph"), ("lines",)),
    (("lines", "common"), ("lines",)),
    (("lines", "classify"), ("lines",)),
    (("lines", "transversal"), ("lines", "0")),
    (("lines", "dim"), ("graph", "lines")),
    (("sample", "laman"), ("graph",)),
    (("sample", "pair"), ("graph",)),
    (("sample", "project"), ("graph", "lines")),
    (("henneberg", "extract"), ("graph",)),
    (("henneberg", "apply"), ("steps",)),
    (("henneberg", "jj-extract"), ("graph",)),
    (("henneberg", "jj-apply"), ("steps",)),
    (("es", "map"), ("pairs",)),
    (("es", "invert"), ("lines",)),
    (("es", "recover"), ("pairs",)),
    (("es", "dim"), ("graph", "pairs")),
]


@settings(max_examples=150, deadline=None)
@given(reader=st.sampled_from(_READERS), data=st.data())
def test_readers_exit_0_or_2_on_random_json(reader, data):
    import contextlib
    import io
    import tempfile
    command, kinds = reader
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, kind in enumerate(kinds):
            if kind not in _DOCS:
                paths.append(kind)
                continue
            doc = data.draw(_DOCS[kind] | _ANY, label=kind)
            path = f"{tmp}/{k}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            paths.append(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, *paths])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


# Three kinds of bad file that every reading leaf must end in an `error:` line and
# exit 2: bytes that are not UTF-8, JSON nested 50000 deep (an object and an array),
# and a 5000-digit integer, past Python's digit limit. The integer sits where an
# accepted parse would be rejected anyway (an edge endpoint, a line coordinate, a
# step vertex, a point coordinate), so a Python without the limit allocates nothing.
_DIGITS = b"9" * 5000
_BAD_FILES = {
    "not-utf8": dict.fromkeys(_DOCS, b"\xff\xfe"),
    "deep-object": dict.fromkeys(_DOCS, b'{"a":' * 50000 + b"0" + b"}" * 50000),
    "deep-array": dict.fromkeys(_DOCS, b"[" * 50000 + b"]" * 50000),
    "digits": {
        "graph": b'{"n":3,"edges":[[0,%s]]}' % _DIGITS,
        "lines": b'{"lines":[[%s,0,0,0],[0,0,1,0],[0,1,0,0]]}' % _DIGITS,
        "steps": b'[{"kind":"ext0","u":%s,"v":1}]' % _DIGITS,
        "pairs": b'{"p":[[%s,0],[1,0],[0,1]],"p_prime":[[0,0],[1,0],[0,1]]}' % _DIGITS,
    },
}
_GOOD_FILES = {"graph": b'{"n":3,"edges":[[0,1],[1,2],[0,2]]}',
               "lines": b'{"lines":[[0,0,0,0],[1,0,0,0],[0,1,0,0]]}',
               "steps": b"[]", "pairs": b'{"p":[[0,0],[1,0]],"p_prime":[[0,0],[1,0]]}'}


@pytest.mark.parametrize("reader", _READERS, ids=lambda r: " ".join(r[0]))
def test_every_reader_rejects_undecodable_files(tmp_path, capsys, reader):
    command, kinds = reader
    files = [k for k, kind in enumerate(kinds) if kind in _DOCS]
    for bad in files:
        for case, docs in _BAD_FILES.items():
            argv = list(command)
            for k, kind in enumerate(kinds):
                if kind not in _DOCS:
                    argv.append(kind)
                    continue
                path = tmp_path / f"{k}.json"
                path.write_bytes(docs[kind] if k == bad else _GOOD_FILES[kind])
                argv.append(str(path))
            code, out, err = run(capsys, *argv)
            where = (case, kinds[bad])
            assert code == 2 and out == "", where
            assert err.startswith("error:") and "Traceback" not in err, where
            assert err.count("\n") == 1, where


def test_readers_cover_every_leaf_that_reads_a_file():
    reading = {leaf for leaf, argv in _LEAF_ARGV.items() if ".json" in argv}
    assert {" ".join(command) for command, _ in _READERS} == reading and len(reading) == 17


def test_stdin_that_is_not_utf8_is_an_error():
    src = str(Path(linerig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8:strict")
    bad = subprocess.run([sys.executable, "-m", "linerig", "analyze", "-"], input=b"\xff\xfe",
                         capture_output=True, env=env, timeout=60)
    assert bad.returncode == 2 and bad.stdout == b""
    assert bad.stderr.startswith(b"error: -: not UTF-8 text") and b"Traceback" not in bad.stderr


# Each leaf's options: its own, then the common ones it reads (39 of those in all).
# A verify leaf's own options are its suite's parameters, in signature order.
_LEAF_OPTIONS = {
    "analyze": "--seed --format",
    "verify theorem-main": "--seeds --n-max --seed --format",
    "verify theorem-mainnec": "--count --seed --format",
    "verify lemma-complete": "--n-max --seeds --seed --format",
    "verify lemma-3lines": "--per-class --seed --format",
    "verify lemma-cong": "--trials --seed --format",
    "verify four-lines": "--trials --seed --tol --format",
    "verify hendrickson-oracle": "--n-max --seed --format",
    "gen": "--seed",
    "lines graph": "--tol",
    "lines meet": "--format",
    "lines common": "--tol --format",
    "lines classify": "--tol --format",
    "lines transversal": "--tol --format",
    "lines dim": "--dump-jacobian --tol --format",
    "sample laman": "--seed",
    "sample knn": "--seed",
    "sample pair": "--orientation --seed",
    "sample project": "--tol",
    "henneberg extract": "--format",
    "henneberg apply": "",
    "henneberg jj-extract": "--format",
    "henneberg jj-apply": "",
    "es map": "",
    "es invert": "",
    "es rotation": "--format",
    "es recover": "--orientation --tol --format",
    "es dim": "--dump-jacobian --tol --format",
}
# A command line per leaf that parses: every positional filled in, no option given.
_LEAF_ARGV = {
    "analyze": "g.json", **{f"verify {suite}": "" for suite in SUITES}, "gen": "complete 4",
    "lines graph": "l.json", "lines meet": "0 0 0 0 1 0 0 1", "lines common": "l.json",
    "lines classify": "l.json", "lines transversal": "l.json 0.5", "lines dim": "g.json l.json",
    "sample laman": "g.json", "sample knn": "concurrent 4", "sample pair": "g.json",
    "sample project": "g.json l.json", "henneberg extract": "g.json", "henneberg apply": "s.json",
    "henneberg jj-extract": "g.json", "henneberg jj-apply": "s.json", "es map": "p.json",
    "es invert": "l.json", "es rotation": "0 0 1", "es recover": "p.json",
    "es dim": "g.json p.json",
}


def _leaves(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, (*path, name))
            return
    yield " ".join(path), parser


def test_each_leaf_takes_only_the_options_it_reads():
    got = {name: " ".join(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
           for name, p in _leaves(build_parser())}
    assert got == _LEAF_OPTIONS and set(_LEAF_ARGV) == set(got)
    common = {"--seed", "--tol", "--format"}
    assert sum(len(common & set(opts.split())) for opts in got.values()) == 39


def test_a_named_leaf_builds_only_its_own_parser():
    leaves = [name for name, _ in _leaves(build_parser(["sample", "laman", "g.json"]))]
    assert leaves == ["sample laman"]


@pytest.mark.parametrize("argv", [
    *([*leaf.split(), *tail] for leaf in sorted(_LEAF_ARGV)
      for tail in (["-h"], [*_LEAF_ARGV[leaf].split(), "--exact"], [])),
    [], ["--version"], ["sample"], ["sample", "nope"], ["nope"], ["verify"], ["verify", "-h"],
], ids=" ".join)
def test_main_parses_as_the_whole_tree(capsys, argv):
    # main builds the named leaf alone; help, usage lines and errors stay the whole tree's
    try:
        want = build_parser().parse_args(argv)
    except SystemExit as exc:
        want = (0 if exc.code in (0, None) else 2, *capsys.readouterr())
        assert run(capsys, *argv) == want
    else:  # main would go on to read the leaf's input files
        assert build_parser(argv).parse_args(argv) == want


@pytest.mark.parametrize("leaf", sorted(_LEAF_ARGV))
def test_exact_is_a_usage_error_except_on_analyze(capsys, leaf):
    """--exact is a usage error on every leaf, analyze now included: its rigidity
    rank is a rank mod p, so there is no float rank left to confirm. (The name dates
    from when analyze took --exact.)"""
    argv = [*leaf.split(), *_LEAF_ARGV[leaf].split()]
    build_parser().parse_args(argv)
    # a usage error, raised before any file is read
    code, out, err = run(capsys, *argv, "--exact")
    assert code == 2 and out == "" and "unrecognized arguments: --exact" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_tol_must_be_positive_and_finite_on_every_leaf(tmp_path, capsys, bad):
    path = tmp_path / "k4.json"
    path.write_text(serialize_graph(generate("complete", [4])))
    # analyze's stress test is exact: it takes no tolerance, and --tol is a usage error
    code, out, err = run(capsys, "analyze", str(path), "--tol", "1e-8")
    assert code == 2 and out == "" and "unrecognized arguments: --tol 1e-8" in err
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and json.loads(out)["globally_rigid"] is True and "tol" not in json.loads(out)
    leaves = [leaf for leaf, opts in _LEAF_OPTIONS.items() if "--tol" in opts.split()]
    for leaf in leaves:
        # a usage error, raised before any file is read
        code, out, err = run(capsys, *leaf.split(), *_LEAF_ARGV[leaf].split(), "--tol", bad)
        assert code == 2 and out == "" and "argument --tol" in err, leaf


@pytest.mark.parametrize("bad", ["-3", "-1", "x", "1.5"])
def test_seed_must_be_a_non_negative_integer_on_every_leaf(tmp_path, capsys, bad):
    """numpy's generators reject a negative seed with a ValueError; the option
    rejects it first, on every leaf and every verify suite."""
    path = tmp_path / "k4.json"
    path.write_text(serialize_graph(generate("complete", [4])))
    leaves = [leaf for leaf, opts in _LEAF_OPTIONS.items() if "--seed" in opts.split()]
    assert leaves == ["analyze", *(f"verify {suite}" for suite in SUITES), "gen",
                      "sample laman", "sample knn", "sample pair"]
    argvs = [[*leaf.split(), *_LEAF_ARGV[leaf].split()] for leaf in leaves]
    argvs += [["analyze", str(path)]]
    for argv in argvs:
        # a usage error, raised before any file is read or any suite runs
        code, out, err = run(capsys, *argv, "--seed", bad)
        assert code == 2 and out == "" and "argument --seed" in err, argv
    assert run(capsys, "verify", "lemma-cong", "--trials", "3", "--seed", "0")[0] == 0


def test_module_entry_point_pipes_and_exit_codes():
    # python -m linerig in a child process: __main__ passes main's code to the exit status
    src = str(Path(linerig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "linerig"]
    gen = subprocess.Popen(cmd + ["gen", "wheel", "6"], stdout=subprocess.PIPE, env=env)
    analyze = subprocess.run(cmd + ["analyze", "-"], stdin=gen.stdout, capture_output=True,
                             text=True, env=env, timeout=60)
    gen.stdout.close()
    assert gen.wait(timeout=60) == 0
    assert analyze.returncode == 0 and analyze.stderr == ""
    assert json.loads(analyze.stdout)["n"] == 6
    bad = subprocess.run(cmd + ["analyze", "-"], input='{"n": 3, "edges": [[0, 5]]}',
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "out of range" in bad.stderr
