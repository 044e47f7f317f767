"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random

from helpers import brute_sparsity_rank, random_graph

from linerig.graphs import catalog, generate
from linerig.henneberg import apply_henneberg, apply_jj, extract_henneberg, extract_jj
from linerig.sparsity import sparsity_rank
from linerig.verify import (four_lines, hendrickson_catalog, hendrickson_oracle,
                            lemma_3lines, lemma_complete, lemma_cong, theorem_main,
                            theorem_mainnec)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_sparsity_oracle_equivalence():
    mismatches = []
    checked = 0
    for name, G in catalog(7):
        if G.n < 2:
            continue
        checked += 1
        if sparsity_rank(G).rank != brute_sparsity_rank(G):
            mismatches.append(name)
    rng = random.Random(2024)
    for k in range(200):
        G = random_graph(rng)
        checked += 1
        if sparsity_rank(G).rank != brute_sparsity_rank(G):
            mismatches.append(f"random-{k}")
    _report(1, "sparsity-oracle", not mismatches, f"{checked} graphs, exact equality")


def test_criterion_2_laman_realizations_certify_dimension():
    rep = theorem_main(seeds=50, n_max=10, seed=7)
    detail = (f"{rep.passed}/{rep.total} certified, float and exact ranks both 2n-3, "
              f"certification rate {rep.info['certification_rate']}")
    _report(2, "laman-dimension-2n+3", rep.ok, detail)


def test_criterion_3_flexible_pairs_are_rank_deficient():
    rep = theorem_mainnec(count=20, seed=7)
    _report(3, "flexible-dimension>=2n+4", rep.ok,
            f"{rep.passed}/{rep.total} exact rank deficiencies confirmed")


def test_criterion_4_family_parametrizations_full_rank():
    rep = lemma_complete(n_max=10, seeds=20, seed=7)
    _report(4, "family-parametrizations", rep.ok,
            f"{rep.passed}/{rep.total} exact full-column-rank checks (n = 2..10)")


def test_criterion_5_transversal_family_dimensions():
    rep = lemma_3lines(per_class=100, seed=7)
    _report(5, "transversal-family-dim", rep.ok,
            f"{rep.passed}/{rep.total} triples across 5 classes match (2 vs 1)")


def test_criterion_6_four_line_base_case():
    rep = four_lines(trials=10000, seed=7)
    _report(6, "four-lines", rep.ok,
            f"{rep.passed}/{rep.total} quadruples, residuals exactly zero, "
            "common point or plane recovered")


def test_criterion_7_distance_incidence_and_motion_recovery():
    rep = lemma_cong(trials=100000, seed=7)
    parts = {f["part"]: True for f in rep.failures}
    _report(7, "distance-incidence+motions", rep.ok,
            f"{rep.passed}/{rep.total} sub-suites at 100000 instances each"
            + (f"; failing parts: {sorted(parts)}" if parts else ""))


def test_criterion_8_hendrickson_oracle_agreement():
    rep = hendrickson_oracle(n_max=8, seed=7)
    _report(8, "hendrickson-vs-oracle", rep.ok,
            f"{rep.passed}/{rep.total} catalog graphs, zero disagreements")


def test_criterion_9_round_trips():
    bad = []
    rng = random.Random(9)
    for k in range(100):
        n = rng.randint(2, 12)
        G = generate("laman_random", [n], seed=k)
        steps, relabel = extract_henneberg(G)
        if apply_henneberg(steps).relabeled(relabel) != G:
            bad.append(f"henneberg-{k}")
    jj_cases = [(name, G) for name, G in hendrickson_catalog(8)
                if name != "two-K4-shared-edge"]
    from linerig.sparsity import is_hendrickson
    count = 0
    for name, G in jj_cases:
        if G.n < 4 or not is_hendrickson(G):
            continue
        count += 1
        steps, relabel = extract_jj(G)
        if apply_jj(steps).relabeled(relabel) != G:
            bad.append(f"jj-{name}")
    _report(9, "construction-round-trips", not bad,
            f"100 extension replays (n <= 12) + {count} catalog replays, exact")
