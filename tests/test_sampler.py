import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linerig.errors import ConvergenceError, DomainError
from linerig.graphs import generate
from linerig.lines3d import LineConfig, common_plane, common_point, intersection_graph
from linerig.numeric import (edge_function, line_residuals, line_system_dimension,
                             line_system_jacobian, rank_exact)
from linerig.sampler import (gauss_newton_project, knn_jacobian, sample_congruent_pair,
                             sample_knn, sample_knn_params, sample_laman_lines,
                             sample_laman_lines_exact, sample_laman_lines_info)


def test_sample_k2():
    K2 = generate("complete", [2])
    cfg = sample_laman_lines(K2, seed=0)
    res = line_residuals(K2, cfg)
    scale = 1.0 + np.max(np.abs(cfg.as_array()))
    assert abs(float(res[0])) <= 1e-10 * scale


def test_sample_k4_minus_edge_certified():
    G = generate("complete", [4]).without_edge(0, 1)
    info = sample_laman_lines_info(G, seed=1)
    assert info.report.certified
    worst = max(abs(float(r)) for r in line_residuals(G, info.config))
    assert worst <= 1e-10 * (1.0 + np.max(np.abs(info.config.as_array())))


def test_sample_laman_random_10():
    G = generate("laman_random", [10], seed=2)
    cfg = sample_laman_lines(G, seed=2)
    worst = max(abs(float(r)) for r in line_residuals(G, cfg))
    assert worst <= 1e-10 * (1.0 + np.max(np.abs(cfg.as_array())))
    assert set(G.edges) <= set(intersection_graph(cfg, 1e-6).edges)


def test_sample_rejects_non_laman():
    with pytest.raises(DomainError):
        sample_laman_lines(generate("cycle", [4]))


def test_sample_exact_is_exactly_on_the_variety():
    for seed in range(5):
        n = random.Random(seed).randint(2, 9)
        G = generate("laman_random", [n], seed=seed)
        cfg = sample_laman_lines_exact(G, seed=seed)
        assert all(isinstance(v, Fraction) for row in cfg.coords() for v in row)
        assert all(r == 0 for r in line_residuals(G, cfg))
        assert rank_exact(line_system_jacobian(G, cfg)) == 2 * n - 3


def test_sample_knn_kinds():
    for n in (1, 3, 6):
        cfg = sample_knn(n, "concurrent", seed=3)
        assert intersection_graph(cfg).m == n * (n - 1) // 2
        if n >= 2:
            assert common_point(cfg).point is not None
    par = sample_knn(3, "parallel", seed=4)
    assert common_point(par).parallel
    cop = sample_knn(5, "coplanar", seed=5)
    assert common_plane(cop) is not None
    assert common_point(cop) is None  # generic coplanar draw has no common point


def test_knn_jacobian_full_column_rank():
    expected = {"concurrent": lambda n: 2 * n + 3, "parallel": lambda n: 2 * n + 2,
                "coplanar": lambda n: 2 * n + 3}
    rng = random.Random(6)
    for kind, cols in expected.items():
        for n in (2, 4, 8):
            params = sample_knn_params(n, kind, rng, exact=True)
            assert rank_exact(knn_jacobian(n, kind, params)) == cols(n)


def test_congruent_pair_modes():
    G = generate("laman_random", [5], seed=7)
    p, q = sample_congruent_pair(G, orientation=1, seed=8, exact=True)
    assert edge_function(G, p).tolist() == edge_function(G, q).tolist()
    # orientation +1 transforms to a concurrent image
    from linerig.elekes_sharir import phi
    pf = [[float(x) for x in row] for row in p]
    qf = [[float(x) for x in row] for row in q]
    assert common_point(phi(pf, qf)).point is not None
    # orientation -1 transforms to a coplanar image
    p, q = sample_congruent_pair(G, orientation=-1, seed=9)
    assert common_plane(phi(p.tolist(), q.tolist())) is not None


def test_congruent_pair_collinear_points():
    # collinear preimages: the image is concurrent AND coplanar
    import math
    from linerig.elekes_sharir import phi
    A = [(float(t), float(3 * t)) for t in range(4)]
    theta = 0.9
    c, s = math.cos(theta), math.sin(theta)
    B = [(c * x - s * y + 1, s * x + c * y) for x, y in A]
    img = phi(A, B)
    assert common_point(img).point is not None and common_plane(img) is not None


def test_gauss_newton_fixed_point():
    G = generate("complete", [4]).without_edge(0, 1)
    cfg = sample_laman_lines(G, seed=10)
    again = gauss_newton_project(G, cfg, tol=1e-10)
    assert np.max(np.abs(again.as_array() - cfg.as_array())) <= 1e-9 * (
        1 + np.max(np.abs(cfg.as_array())))


def test_gauss_newton_converges_from_small_perturbation():
    G = generate("laman_random", [7], seed=11)
    cfg = sample_laman_lines(G, seed=11)
    rng = np.random.default_rng(0)
    noisy = cfg.as_array() + rng.normal(size=(7, 4)) * 1e-3
    out = gauss_newton_project(G, LineConfig.from_rows(noisy.tolist()), tol=1e-12)
    worst = max(abs(float(r)) for r in line_residuals(G, out))
    assert worst <= 1e-10 * (1 + np.max(np.abs(out.as_array())))


def test_gauss_newton_nonconvergence_is_an_error():
    G = generate("laman_random", [6], seed=12)
    wild = LineConfig.from_rows((np.arange(24, dtype=float) ** 3).reshape(6, 4).tolist())
    with pytest.raises(ConvergenceError) as err:
        gauss_newton_project(G, wild, tol=1e-12, max_iter=1)
    assert err.value.residual > 0


def test_sampler_deterministic_per_seed():
    G = generate("laman_random", [8], seed=1)
    a = sample_laman_lines(G, seed=3).as_array()
    b = sample_laman_lines(G, seed=3).as_array()
    assert (a == b).all()
    c = sample_laman_lines(G, seed=4).as_array()
    assert not (a == c).all()


def test_certification_rate_reported():
    from linerig.verify import theorem_main
    rep = theorem_main(seeds=10, n_max=8, seed=123)
    assert rep.ok
    assert "certification_rate" in rep.info and rep.info["certification_rate"] >= 0.95


def _perturbed_sample(n: int, seed: int) -> tuple:
    G = generate("laman_random", [n], seed=seed)
    cfg = sample_laman_lines(G, seed=seed)
    noisy = cfg.as_array() + np.random.default_rng(seed).normal(size=(n, 4)) * 1e-3
    return G, LineConfig.from_rows(noisy.tolist())


def _per_edge_residual(G, cfg) -> float:
    X = cfg.as_array()
    return max(abs(float(r)) / (1.0 + max(np.abs(X[i]).max(), np.abs(X[j]).max()))
               for r, (i, j) in zip(line_residuals(G, cfg), G.edges))


def test_gauss_newton_stalls_at_float_floor_quickly(monkeypatch):
    G, noisy = _perturbed_sample(10, 13)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    with pytest.raises(ConvergenceError) as err:
        gauss_newton_project(G, noisy, tol=1e-20, max_iter=500)
    assert "stalled" in str(err.value) and f"{err.value.residual:.2e}" in str(err.value)
    assert 0 < err.value.residual < 1e-12
    assert len(solves) <= 20


def test_gauss_newton_max_iter_reason_names_residual():
    G, noisy = _perturbed_sample(10, 14)
    with pytest.raises(ConvergenceError) as err:
        gauss_newton_project(G, noisy, tol=1e-10, max_iter=1)
    assert "in 1 steps" in str(err.value) and f"{err.value.residual:.2e}" in str(err.value)


def test_gauss_newton_per_edge_residual_with_mixed_scales():
    # lines through one point: steep ones have base coordinates near 1e6, nearly
    # vertical ones stay within a few units of the origin
    G = generate("laman_random", [10], seed=15)
    rng = np.random.default_rng(15)
    z = 5e3
    cd = np.concatenate([rng.uniform(-200, 200, (5, 2)), rng.uniform(-1e-3, 1e-3, (5, 2))])
    X = np.column_stack([1.0 - cd[:, 0] * z, 2.0 - cd[:, 1] * z, cd])
    assert np.abs(X).max() > 1e5 and np.abs(X[5:]).max() < 10
    noisy = X + rng.normal(size=X.shape) * 1e-2
    out = gauss_newton_project(G, LineConfig.from_rows(noisy.tolist()), tol=1e-10)
    assert _per_edge_residual(G, out) <= 1e-10


def test_sampler_first_attempt_at_n40_to_60():
    first = 0
    for n in (40, 45, 50, 55, 60):
        for seed in (0, 1):
            G = generate("laman_random", [n], seed=seed)
            info = sample_laman_lines_info(G, seed=seed)
            first += info.attempts == 1
            assert line_system_dimension(G, info.config, tol=1e-8).certified
    assert first >= 8


def _replace_first_projection(monkeypatch, first) -> None:
    """Route the sampler's first projection to `first`, which makes it retry."""
    import linerig.sampler as sampler
    project, calls = sampler.gauss_newton_project, []

    def patched(G, x0, **kwargs):
        calls.append(1)
        return (first if len(calls) == 1 else project)(G, x0, **kwargs)

    monkeypatch.setattr(sampler, "gauss_newton_project", patched)


def _stall(G, x0, **kwargs):
    raise ConvergenceError("forced stall", 1.0)


def test_line_sample_keeps_attempt_log(monkeypatch):
    _replace_first_projection(monkeypatch, _stall)
    G = generate("laman_random", [40], seed=5)
    info = sample_laman_lines_info(G, seed=5)
    assert info.attempts > 1
    assert len(info.log) == info.attempts
    assert "certified" in info.log[-1]
    assert all("certified" not in entry for entry in info.log[:-1])


def test_certification_rate_is_certified_per_attempt(monkeypatch):
    from linerig.verify import theorem_main
    _replace_first_projection(monkeypatch, _stall)
    rep = theorem_main(seeds=4, n_max=30, seed=10)
    assert rep.ok and rep.info["sampler_retries"] > 0
    assert rep.info["certification_rate"] == round(4 / (4 + rep.info["sampler_retries"]), 4)


def test_sampler_first_attempt_at_n100():
    for seed in range(5):
        G = generate("laman_random", [100], seed=seed)
        info = sample_laman_lines_info(G, seed=seed)
        assert info.attempts == 1, info.log


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 30), graph_seed=st.integers(0, 10**6), seed=st.integers(0, 10**6))
def test_sample_is_certified_within_tolerance_and_distinct(n, graph_seed, seed):
    G = generate("laman_random", [n], seed=graph_seed)
    info = sample_laman_lines_info(G, seed=seed)
    assert info.report.certified and info.report.jacobian_rank == 2 * n - 3
    assert _per_edge_residual(G, info.config) <= 1e-10
    X = info.config.as_array()
    gap = min(np.abs(X[i] - X[j]).max() for i in range(n) for j in range(i + 1, n))
    assert gap > 1e-8 * (1.0 + np.abs(X).max())


def test_coincident_projection_is_retried(monkeypatch):
    # every line on the first one: K2's one incidence holds
    _replace_first_projection(
        monkeypatch, lambda G, x0, **kwargs: LineConfig.from_rows([x0.coords()[0]] * G.n))
    info = sample_laman_lines_info(generate("complete", [2]), seed=0)
    assert info.log[0] == "attempt 1: two lines coincide" and info.attempts == 2


# sample_laman_lines_exact(laman_random(6, seed 2), seed=2), as constructed before
# the duplicate-line test was batched; the n = 30 draw below is held by its digest
_EXACT_PIN = [
    ["-3261/11", "3803/11", "9/11", "1/11"], ["-8715/29", "9473/29", "27/29", "18/29"],
    ["-251", "295", "-4/9", "3/2"], ["-16107/16", "211/16", "1315/64", "597/64"],
    ["633", "-911", "-25", "35"], ["-742", "-136", "30", "4"]]


def _exact_rows(n: int, seed: int) -> list:
    cfg = sample_laman_lines_exact(generate("laman_random", [n], seed=seed), seed=seed)
    return [[str(x) for x in row] for row in cfg.coords()]


def test_sample_exact_output_is_pinned():
    import hashlib
    assert _exact_rows(6, 2) == _EXACT_PIN
    digest = hashlib.sha256(repr(_exact_rows(30, 1)).encode()).hexdigest()
    assert digest == "8ce4f1b99102d8473a64f5ae715946c23bdfc21fb3be627138eb60517a3901e5"


def test_fresh_matches_lines_coincident():
    from linerig.lines3d import Line, lines_coincident
    from linerig.sampler import _fresh
    rng = np.random.default_rng(3)
    for _ in range(400):
        k = int(rng.integers(1, 6))
        # rows of different magnitudes, so that each pair's own scale matters
        placed = rng.integers(-300, 301, size=(k, 4)) * 10.0 ** rng.integers(-2, 3, size=(k, 1))
        row = placed[rng.integers(k)]
        # a copy of one placed line, moved by amounts around the tolerance
        step = rng.choice([0.0, 0.5, 0.9, 1.1, 2.0], size=4) * rng.choice([-1, 1], size=4)
        line = Line(*(row + step * 1e-8 * (1.0 + np.abs(row).max())).tolist())
        want = all(not lines_coincident(line, Line(*other), 1e-8) for other in placed.tolist())
        assert _fresh(line, placed, 1e-8) == want
