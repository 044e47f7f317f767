import random

import pytest

from linerig.errors import DomainError, StepError
from linerig.graphs import Graph, generate
from linerig.henneberg import (EdgeAdd, Ext0, Ext1, apply_henneberg, apply_jj,
                               extract_henneberg, extract_jj, steps_from_json,
                               steps_to_json)
from linerig.sparsity import is_hendrickson, is_laman


def test_apply_henneberg_examples():
    assert apply_henneberg([]) == Graph(2, ((0, 1),))
    assert apply_henneberg([Ext0(0, 1)]) == generate("complete", [3])
    G = apply_henneberg([Ext0(0, 1), Ext1(0, 1, 2)])
    assert G.edges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert is_laman(G)


def test_apply_henneberg_step_errors_name_position():
    with pytest.raises(StepError, match="step 0"):
        apply_henneberg([Ext0(0, 5)])
    with pytest.raises(StepError, match="step 2"):
        # after two 0-extensions the edge (2, 3) does not exist
        apply_henneberg([Ext0(0, 1), Ext0(0, 1), Ext1(2, 3, 0)])


def test_prefix_of_henneberg_sequence_is_laman():
    G = generate("laman_random", [10], seed=4)
    steps, _ = extract_henneberg(G)
    for k in range(len(steps) + 1):
        assert is_laman(apply_henneberg(steps[:k]))


def test_extract_henneberg_examples():
    steps, relabel = extract_henneberg(generate("complete", [3]))
    assert steps == [Ext0(0, 1)]
    k4e = generate("complete", [4]).without_edge(0, 1)
    steps, relabel = extract_henneberg(k4e)
    assert len(steps) == 2
    assert apply_henneberg(steps).relabeled(relabel) == k4e


def test_extract_henneberg_round_trip_random():
    for trial in range(40):
        n = random.Random(trial).randint(2, 12)
        G = generate("laman_random", [n], seed=trial)
        steps, relabel = extract_henneberg(G)
        assert len(steps) == n - 2
        assert apply_henneberg(steps).relabeled(relabel) == G


def test_extract_henneberg_rejects_non_laman():
    with pytest.raises(DomainError):
        extract_henneberg(generate("cycle", [4]))


def test_apply_jj_examples():
    assert apply_jj([]) == generate("complete", [4])
    G = apply_jj([Ext1(0, 1, 2)])
    assert G.n == 5 and is_hendrickson(G)
    with pytest.raises(StepError, match="step 0"):
        apply_jj([EdgeAdd(0, 1)])  # already present in K4


def test_prefix_of_jj_sequence_is_hendrickson():
    G = generate("hendrickson_random", [8], seed=6)
    steps, _ = extract_jj(G)
    for k in range(len(steps) + 1):
        assert is_hendrickson(apply_jj(steps[:k]))


def test_extract_jj_examples():
    assert extract_jj(generate("complete", [4]))[0] == []
    W5 = generate("wheel", [5])
    steps, relabel = extract_jj(W5)
    assert steps and apply_jj(steps).relabeled(relabel) == W5
    K5 = generate("complete", [5])
    steps, relabel = extract_jj(K5)
    assert len(steps) >= 1 and apply_jj(steps).relabeled(relabel) == K5


def test_extract_jj_round_trip_catalog():
    cases = [generate("complete", [k]) for k in range(4, 9)]
    cases += [generate("wheel", [k]) for k in range(4, 9)]
    cases += [generate("hendrickson_random", [k], seed=s) for k in range(5, 9) for s in (1, 2)]
    for G in cases:
        steps, relabel = extract_jj(G)
        assert apply_jj(steps).relabeled(relabel) == G


def test_extract_jj_rejects_non_hendrickson():
    with pytest.raises(DomainError):
        extract_jj(generate("laman_random", [6], seed=0))


def test_step_json_round_trip():
    steps = [Ext0(0, 1), Ext1(0, 1, 2), EdgeAdd(0, 3)]
    text = steps_to_json(steps)
    assert steps_from_json(text) == steps
    assert '"kind":"ext0"' in text and '"kind":"edge"' in text
    with pytest.raises(StepError, match="step 0"):
        steps_from_json('[{"kind":"warp","u":0,"v":1}]')


def test_fresh_import_releases_the_previous_copy():
    import gc
    import importlib
    import sys
    import weakref

    def ours():
        return [k for k in sys.modules if k == "linerig" or k.startswith("linerig.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("linerig.cli")
        old = weakref.ref(sys.modules["linerig.henneberg"].Ext0)
        for k in ours():
            del sys.modules[k]
        importlib.import_module("linerig.cli")
        gc.collect()
        assert old() is None
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


@pytest.mark.parametrize("field, match", [
    ('"u":0,"v":1e400', "field 'v' must be an integer"),
    ('"u":true,"v":1', "field 'u' must be an integer"),
    ('"u":0,"v":1.7', "field 'v' must be an integer"),
    ('"u":0,"v":"1"', "field 'v' must be an integer"),
    ('"u":0', "missing field 'v'"),
])
def test_step_json_fields_must_be_integers(field, match):
    with pytest.raises(StepError, match=match):
        steps_from_json('[{"kind":"ext1","w":2,%s}]' % field)
    with pytest.raises(StepError, match="unknown kind"):
        steps_from_json('[{"kind":["ext0"],"u":0,"v":1}]')


# Steps and relabel recorded from the extractors before they were rebuilt on
# Graph: a change in the order candidates are tried changes these bytes.
PINNED = [
    (extract_henneberg, ("laman_random", [20], 3),
     '[{"kind":"ext0","u":0,"v":1},{"kind":"ext0","u":2,"v":1},{"kind":"ext0","u":3,"v":0},'
     '{"kind":"ext0","u":2,"v":4},{"kind":"ext0","u":3,"v":0},{"kind":"ext0","u":6,"v":5},'
     '{"kind":"ext0","u":5,"v":7},{"kind":"ext0","u":3,"v":8},{"kind":"ext0","u":8,"v":9},'
     '{"kind":"ext0","u":6,"v":10},{"kind":"ext0","u":11,"v":9},{"kind":"ext0","u":6,"v":11},'
     '{"kind":"ext0","u":13,"v":12},{"kind":"ext1","u":8,"v":9,"w":14},'
     '{"kind":"ext0","u":2,"v":5},{"kind":"ext1","u":0,"v":4,"w":16},'
     '{"kind":"ext1","u":2,"v":1,"w":0},{"kind":"ext0","u":15,"v":13}]',
     [4, 18, 1, 0, 14, 8, 3, 11, 2, 7, 16, 6, 15, 12, 13, 10, 17, 9, 5, 19]),
    (extract_jj, ("hendrickson_random", [14], 1),
     '[{"kind":"ext1","u":2,"v":3,"w":0},{"kind":"ext1","u":0,"v":1,"w":4},'
     '{"kind":"ext1","u":0,"v":3,"w":4},{"kind":"ext1","u":0,"v":5,"w":6},'
     '{"kind":"ext1","u":1,"v":5,"w":7},{"kind":"ext1","u":8,"v":5,"w":3},'
     '{"kind":"ext1","u":1,"v":2,"w":9},{"kind":"ext1","u":1,"v":8,"w":10},'
     '{"kind":"ext1","u":10,"v":2,"w":11},{"kind":"ext1","u":11,"v":8,"w":7},'
     '{"kind":"edge","u":13,"v":12},{"kind":"edge","u":13,"v":10}]',
     [1, 8, 12, 13, 2, 11, 9, 7, 10, 5, 3, 6, 4, 0]),
    (extract_jj, ("wheel", [7], 0),
     '[{"kind":"ext1","u":1,"v":3,"w":0},{"kind":"ext1","u":4,"v":3,"w":0},'
     '{"kind":"ext1","u":5,"v":3,"w":0}]',
     [0, 4, 5, 6, 3, 2, 1]),
]


@pytest.mark.parametrize("extract, graph, text, relabel", PINNED,
                         ids=["laman_random(20,3)", "hendrickson_random(14,1)", "wheel(7)"])
def test_extraction_bytes_are_pinned(extract, graph, text, relabel):
    name, params, seed = graph
    steps, got = extract(generate(name, params, seed=seed))
    assert steps_to_json(steps) == text
    assert got == relabel


@pytest.mark.parametrize("step", [(0, 1), {"kind": "ext0", "u": 0, "v": 1}, None])
def test_steps_to_json_rejects_non_steps(step):
    with pytest.raises(StepError, match="unknown step object"):
        steps_to_json([Ext0(0, 1), step])
