import json

import pytest

from linerig.cli import main
from linerig.graphs import generate, parse_graph, serialize_graph


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
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(generate("wheel", [5])))
    code, out, _ = run(capsys, "analyze", str(gpath), "--exact")
    rep = json.loads(out)
    assert code == 0 and rep["rigidity_rank_exact"] == rep["rigidity_rank"] == 7


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
