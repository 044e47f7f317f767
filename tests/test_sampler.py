import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_least_norm_step
from linerig.errors import ConvergenceError, DomainError, SampleError
from linerig.graphs import Graph, generate
from linerig.lines3d import (LineConfig, common_plane, common_point, incidence_form,
                             intersection_graph, is_exact)
from linerig.numeric import (edge_function, edge_index, edge_system, line_residuals,
                             line_system_dimension, line_system_jacobian, normal_matrix,
                             rank_exact, signed_gram, signed_incidence)
from linerig.sampler import (gauss_newton_project, knn_config, knn_jacobian,
                             sample_congruent_pair, sample_knn, sample_knn_params,
                             sample_laman_lines, sample_laman_lines_exact,
                             sample_laman_lines_exact_info, sample_laman_lines_info)


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
        assert all(is_exact(v) for row in cfg.coords() for v in row)
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


def test_coplanar_sample_lies_in_its_chart_plane():
    # the coplanar head is (kappa, mu, nu): the plane z = lam x + mu y + nu, lam = 1/kappa
    for n, seed in ((2, 0), (5, 5), (9, 1)):
        rng = random.Random(f"knn:coplanar:{n}:{seed}")  # sample_knn's generator
        kappa, mu, nu = sample_knn_params(n, "coplanar", rng)[:3]
        plane = common_plane(sample_knn(n, "coplanar", seed=seed))
        assert (plane.lam, plane.mu, plane.nu) == pytest.approx(
            (float(1 / kappa), float(mu), float(nu)), rel=1e-9, abs=1e-9)


# sample_knn's exact rows for two (n, seed) pairs of each family
_KNN_PIN = {
    ("concurrent", 3, 1): [["-367", "281", "-33", "28"], ["-247", "381", "-21", "38"],
                           ["-77", "391", "-4", "39"]],
    ("concurrent", 5, 2): [["-37", "12", "-38", "7"], ["-18", "9", "-19", "4"],
                           ["12", "31", "11", "26"], ["33", "34", "32", "29"],
                           ["34", "-7", "33", "-12"]],
    ("parallel", 3, 0): [["-35", "-4", "7", "6"], ["4", "-10", "7", "6"], ["34", "5", "7", "6"]],
    ("parallel", 4, 5): [["-40", "-19", "30", "-14"], ["-8", "-36", "30", "-14"],
                         ["34", "-32", "30", "-14"], ["40", "37", "30", "-14"]],
    ("coplanar", 3, 3): [["557/28", "32", "-67/4", "-26"], ["-559/28", "-30", "-85/4", "-33"],
                         ["53/28", "4", "-31/4", "-12"]],
    ("coplanar", 4, 1): [["-119/9", "-14", "685/18", "38"], ["-272/9", "-31", "667/18", "37"],
                         ["52/9", "5", "-71/18", "-4"], ["151/9", "16", "-557/18", "-31"]],
}


def test_sample_knn_output_is_pinned():
    for (kind, n, seed), rows in _KNN_PIN.items():
        cfg = sample_knn(n, kind, seed=seed)
        assert [[str(x) for x in row] for row in cfg.coords()] == rows, (kind, n, seed)
        assert all(type(x) is Fraction for row in cfg.coords() for x in row)


def test_sample_knn_params_beyond_the_default_box():
    # more lines than [-40, 40] has distinct blocks: 81 values of d, 81^2 pairs
    for kind, n, h in (("coplanar", 82, 3), ("parallel", 6562, 2), ("concurrent", 6562, 3)):
        params = sample_knn_params(n, kind, random.Random(0))
        blocks = list(zip(params[h::2], params[h + 1::2]))
        assert len(params) == h + 2 * n and len(set(blocks)) == n
        if kind == "coplanar":
            assert len({d for _, d in blocks}) == n
    assert len(set(sample_knn(82, "coplanar").lines)) == 82


def test_knn_jacobian_columns_are_unit_differences():
    # every chart coordinate is affine in each parameter separately, so a step h in
    # parameter i changes the rows by exactly h times the gradient column i
    rng = random.Random(16)
    for kind in ("concurrent", "parallel", "coplanar"):
        for n in (1, 3):
            params = sample_knn_params(n, kind, rng)
            J = knn_jacobian(n, kind, params)
            base = [x for row in knn_config(n, kind, params).coords() for x in row]
            for i in range(len(params)):
                for h in (1, 2, Fraction(-1, 3)):
                    moved = params[:i] + [params[i] + h] + params[i + 1:]
                    rows = knn_config(n, kind, moved).coords()
                    step = [(x - y) / h for x, y in zip((x for r in rows for x in r), base)]
                    assert step == J[:, i].tolist(), (kind, n, i, h)


def test_knn_family_rejects_unknown_kind_and_wrong_length():
    with pytest.raises(DomainError, match="unknown family kind"):
        sample_knn(3, "skew")
    for fn in (knn_config, knn_jacobian):
        with pytest.raises(DomainError, match="parallel family needs 2n\\+2 parameters, got 7"):
            fn(3, "parallel", [0] * 7)


def test_knn_jacobian_full_column_rank():
    expected = {"concurrent": lambda n: 2 * n + 3, "parallel": lambda n: 2 * n + 2,
                "coplanar": lambda n: 2 * n + 3}
    rng = random.Random(6)
    for kind, cols in expected.items():
        for n in (2, 4, 8):
            params = sample_knn_params(n, kind, rng)
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


def test_projection_and_certificate_take_a_float_array_bit_for_bit():
    """gauss_newton_project of an (n, 4) float array is an array with the bits of its
    projection of the same LineConfig, and line_system_dimension reports the same on
    either kind, the array taken as it is."""
    import linerig.numeric as numeric
    G = generate("laman_random", [30], seed=1)
    start = np.random.default_rng(1).integers(-40, 41, size=(30, 4)).astype(float)
    kept = start.copy()
    out = gauss_newton_project(G, start, tol=1e-10, max_iter=80)
    ref = gauss_newton_project(G, LineConfig.from_rows(start.tolist()), tol=1e-10, max_iter=80)
    assert isinstance(out, np.ndarray) and out.tobytes() == ref.as_array().tobytes()
    assert start.tobytes() == kept.tobytes()
    report = line_system_dimension(G, out)
    assert report.certified and report.to_dict() == line_system_dimension(G, ref).to_dict()
    assert numeric._line_arrays(G, out)[0] is out
    for bad, message in ((out[:, :3], "rows of 4 numbers"), (out[:-1], "29 lines"),
                         (out * 1e160, "too large")):
        with pytest.raises(DomainError, match=message):
            line_system_dimension(G, bad)
        with pytest.raises(DomainError, match=message if bad.shape[1] < 4 else "."):
            gauss_newton_project(G, bad)


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


def test_seeds_that_agree_below_2_32_draw_apart():
    """The float sampler seeds each attempt with the whole seed: seeds 0 and 2^32
    (equal in their low 32 bits) draw different samples, and both certify."""
    G = generate("laman_random", [8], seed=1)
    a, b = (sample_laman_lines_info(G, seed=seed) for seed in (0, 2 ** 32))
    assert a.report.certified and b.report.certified
    assert not (a.config.as_array() == b.config.as_array()).all()


def test_certification_rate_reported():
    from linerig.verify import theorem_main
    rep = theorem_main(seeds=10, n_max=8, seed=123)
    assert rep.ok
    # instance 4 (laman_random(8, seed 123004)) stalls on its first attempt: two
    # of its lines close in on each other at a residual measure of 0.34, short of
    # a realization. Its second attempt certifies.
    assert rep.info == {"sampler_retries": 1, "certification_rate": round(10 / 11, 4)}


def _perturbed_sample(n: int, seed: int) -> tuple:
    G = generate("laman_random", [n], seed=seed)
    cfg = sample_laman_lines(G, seed=seed)
    noisy = cfg.as_array() + np.random.default_rng(seed).normal(size=(n, 4)) * 1e-3
    return G, LineConfig.from_rows(noisy.tolist())


def _per_edge_residual(G, cfg) -> float:
    """The largest edge_measure (the residual rule, written out in helpers)."""
    from helpers import edge_measure
    X = cfg.as_array()
    return max(edge_measure(r, X[i], X[j]) for r, (i, j) in zip(line_residuals(G, cfg), G.edges))


def test_gauss_newton_stalls_at_float_floor_quickly(monkeypatch):
    """At tol 1e-20 the projection returns at the float floor, where the residual
    rule's rounding term holds every edge, within 20 steps; steps that do not move
    the lines stall it after two."""
    import linerig.sampler as sampler
    G, noisy = _perturbed_sample(10, 13)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    out = gauss_newton_project(G, noisy, tol=1e-20, max_iter=500)
    assert _per_edge_residual(G, out) <= 1e-20
    assert 0 < len(solves) <= 20
    monkeypatch.setattr(sampler, "_least_norm_step", lambda X, *rest: np.zeros_like(X))
    with pytest.raises(ConvergenceError) as err:
        gauss_newton_project(G, noisy, tol=1e-20, max_iter=500)
    assert "stalled" in str(err.value) and "after 2 steps" in str(err.value)
    assert f"{err.value.residual:.2e}" in str(err.value)
    assert err.value.residual == _per_edge_residual(G, noisy) > 1e-6


# ---------------------------------------------------------------------------
# the least-norm step from the m x 4 incidence gradients, against the dense Jacobian


def _dense_step(X, i, j, S, SS, g, grad):
    """The projection's step taken by the reference: J built by edge_system, then
    J^T (J J^T)^-1 g, or lstsq when J J^T is singular."""
    return dense_least_norm_step(edge_system(X, i, j, incidence_form)[1], g).reshape(X.shape)


_COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@settings(max_examples=80)
@given(st.integers(2, 30), st.data())
def test_normal_matrix_and_adjoint_equal_the_dense_jacobians(n, data):
    """signed_gram(i, j) is S S^T, normal_matrix's (S S^T) o (grad grad^T) is J J^T
    and S^T (y o grad) is J^T y for the dense edge_system Jacobian J and the signed
    incidence matrix S, on graphs with isolated vertices and with no edges, each
    entry within 1e-12 of the sum of its products' sizes (|J| |J|^T, |J|^T |y|)."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)))
    i, j = edge_index(Graph(n, tuple(edges)))
    X = np.array(data.draw(st.lists(st.lists(_COORD, min_size=4, max_size=4),
                                    min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_COORD, min_size=len(edges), max_size=len(edges))))
    g, J = edge_system(X, i, j, incidence_form)
    g_rows, grad = incidence_form(X[i] - X[j])
    assert g_rows.tolist() == g.tolist()
    A = np.abs(J)
    S = signed_incidence(i, j, n)
    assert S.shape == (len(edges), n) and np.all(np.abs(S @ S.T).diagonal() == 2)
    assert np.array_equal(signed_gram(i, j), S @ S.T)
    assert np.all(np.abs(normal_matrix(signed_gram(i, j), grad) - J @ J.T) <= 1e-12 * (A @ A.T))
    adjoint = S.T @ (y[:, None] * grad)
    assert np.all(np.abs(adjoint.ravel() - J.T @ y) <= 1e-12 * (A.T @ np.abs(y)))


def test_singular_normal_matrix_falls_back_to_lstsq(monkeypatch):
    """Lines 0 and 1 of the path 0-1-2 are equal, so edge (0, 1) has a zero gradient
    and J J^T a zero row: the first step is lstsq's, on the J that edge_system builds
    then, and the projection ends where the dense reference's does."""
    import linerig.sampler as sampler
    G = Graph(3, ((0, 1), (1, 2)))
    start = LineConfig.from_rows([[1, 2, 3, 4], [1, 2, 3, 4], [5, -2, 7, 1]])
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(a[0].shape) or lstsq(*a, **k))
    out = gauss_newton_project(G, start, tol=1e-12).as_array()
    assert calls == [(2, 12)]
    monkeypatch.setattr(sampler, "_least_norm_step", _dense_step)
    ref = gauss_newton_project(G, start, tol=1e-12).as_array()
    assert len(calls) == 2
    assert np.abs(out - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


def test_projection_overflow_guard_bounds_the_normal_matrix(monkeypatch):
    """A start at +-4.6e153 (incidences fit, J J^T's diagonal does not) raises
    DomainError, with no overflow warning; a certified sample scaled to just below
    the bound of sqrt(max float / 8) / 2 returns at step 0, with no solve."""
    G = generate("complete", [4]).without_edge(0, 1)
    signs = np.array([[1, 1, -1, 1], [1, 1, 1, 1], [1, -1, -1, 1], [-1, -1, 1, -1]])
    with pytest.raises(DomainError, match="normal-matrix entries overflow"):
        gauss_newton_project(G, LineConfig.from_rows((signs * 4.6e153).tolist()))
    X = sample_laman_lines(G, seed=10).as_array()
    bound = np.sqrt(np.finfo(float).max / 8) / 2
    scaled = LineConfig.from_rows((X * (0.999 * bound / np.abs(X).max())).tolist())
    monkeypatch.setattr(np.linalg, "solve", lambda *a: pytest.fail("a step was taken"))
    assert gauss_newton_project(G, scaled, tol=1e-10) == scaled


def test_projection_takes_the_reference_steps_on_the_benchmark_pool(monkeypatch):
    """On the laman-sample benchmark's 40 graphs (n = 24-60), samples projected with
    the dense reference steps take as many attempts, and agree within 1e-13 of their
    largest |coordinate|."""
    import importlib.util
    from pathlib import Path
    import linerig.sampler as sampler
    path = Path(__file__).resolve().parents[1] / "bench" / "graphgen.py"
    spec = importlib.util.spec_from_file_location("graphgen", path)
    gg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gg)
    pool = random.Random("laman-sample:pool")  # bench/workloads.laman_sample's pool
    graphs = [Graph(n, tuple(gg.laman(n, pool))) for n in range(24, 61, 4) for _ in range(4)]
    new = [sample_laman_lines_info(G, k) for k, G in enumerate(graphs)]
    monkeypatch.setattr(sampler, "_least_norm_step", _dense_step)
    for k, (G, info) in enumerate(zip(graphs, new)):
        ref = sample_laman_lines_info(G, k)
        X, R = info.config.as_array(), ref.config.as_array()
        assert info.attempts == ref.attempts, k
        assert np.abs(X - R).max() <= 1e-13 * np.abs(R).max(), k


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
        monkeypatch, lambda G, x0, **kwargs: np.repeat(x0[:1], G.n, axis=0))
    info = sample_laman_lines_info(generate("complete", [2]), seed=0)
    assert info.log[0] == "attempt 1: two lines coincide" and info.attempts == 2


def test_retries_log_why_the_rank_was_not_certified(monkeypatch):
    """A draw that the Cholesky test does not pass, at the SVD's full rank, logs that
    rank m was not proved; a draw of lower rank (a pencil of lines in one plane, rank
    4 of 7) logs its rank. Each sampler then retries and certifies."""
    G = generate("laman_random", [5], seed=3)
    cholesky, calls = np.linalg.cholesky, []

    def fail_first(A):
        calls.append(len(A))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced")
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", fail_first)
    info = sample_laman_lines_info(G, seed=3)
    assert info.log[0] == "attempt 1: rank 7 not proved (Cholesky at the cut failed)"
    assert info.attempts == 2 and info.report.certified and calls == [7, 7]
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    pencil = LineConfig.from_rows([(-2 - 3 * (1 - 2 * d), 2 - 3 * d, 1 - 2 * d, d)
                                   for d in range(5)])
    _replace_first_projection(monkeypatch, lambda G, x0, **kwargs: pencil.as_array())
    info = sample_laman_lines_info(G, seed=3)
    assert info.log[0] == "attempt 1: rank 4 < 7" and info.report.certified


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


# sha256 of the Fraction rows p + p' of sample_congruent_pair(laman_random(12, seed 1))
_CONGRUENT_PIN = {
    (1, 0): "0ba3646a17450d684de5f4538fbd6864002272379b7daec1670dfee70e37d3ae",
    (1, 1): "aa9f4b46cf39cc6996ee8052f8b35d1b4ba7120b2807caabc92c72071e2f3e34",
    (-1, 0): "4b90787c62a997cc713e27743839dc4cffd6d74fbf7e57fd5ed70c9ca94422a6",
    (-1, 1): "c9cb0bff3086dd95432dad8fcac0ddd973ca45f5e70786da11f2087e5da128d0",
}


def test_congruent_pair_output_is_pinned():
    import hashlib
    G = generate("laman_random", [12], seed=1)
    for (orientation, seed), want in _CONGRUENT_PIN.items():
        p, q = sample_congruent_pair(G, orientation=orientation, seed=seed, exact=True)
        assert all(type(x) is Fraction for row in p + q for x in row)
        rows = [[str(x) for x in row] for row in p + q]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == want, (orientation, seed)
        pf, qf = sample_congruent_pair(G, orientation=orientation, seed=seed)
        assert pf.tolist() == [[float(x) for x in row] for row in p]
        assert qf.tolist() == [[float(x) for x in row] for row in q]


def test_fresh_matches_lines_coincident():
    """pair_tests' coincide mask of a new float line against every placed one, the
    float duplicate test, is lines_coincident on each pair."""
    from helpers import lines_coincident

    from linerig.lines3d import Line, pair_tests
    rng = np.random.default_rng(3)
    for _ in range(400):
        k = int(rng.integers(1, 6))
        # rows of different magnitudes, so that each pair's own scale matters
        placed = rng.integers(-300, 301, size=(k, 4)) * 10.0 ** rng.integers(-2, 3, size=(k, 1))
        row = placed[rng.integers(k)]
        # a copy of one placed line, moved by amounts around the tolerance
        step = rng.choice([0.0, 0.5, 0.9, 1.1, 2.0], size=4) * rng.choice([-1, 1], size=4)
        line = Line(*(row + step * 1e-8 * np.abs(row).max()).tolist())
        want = all(not lines_coincident(line, Line(*other), 1e-8) for other in placed.tolist())
        X = np.vstack([placed, line.as_tuple()])
        assert (not pair_tests(X, np.full(k, k), np.arange(k), 1e-8).coincide.any()) == want


def test_coincidence_is_held_to_each_pairs_own_scale(monkeypatch):
    """Lines 0 and 1, near the origin, are 1e-6 apart: far outside 1e-8 of their own
    scale, but inside 1e-8 of the configuration's, 1 + 1e3 with line 2. The float
    sampler keeps them apart and certifies the projection on its first attempt."""
    from linerig.graphs import Graph
    from linerig.lines3d import pair_tests
    rows = [[0.0, 0.0, 0.3, 0.2], [0.0, 0.0, 0.3 + 1e-6, 0.2], [0.0, 0.0, 1e3, 5.0],
            [0.0, 0.0, -7.0, 40.0]]
    X = np.array(rows)
    assert not pair_tests(X, *np.triu_indices(4, 1), 1e-8).coincide.any()
    assert np.abs(X[0] - X[1]).max() <= 1e-8 * (1.0 + np.abs(X).max())
    _replace_first_projection(monkeypatch, lambda G, x0, **kwargs: np.array(rows))
    # K4 less the edge (0, 1): lines 0 and 1 need not meet, all four pass through the origin
    info = sample_laman_lines_info(Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert info.attempts == 1 and info.config.as_array().tolist() == rows


def test_exact_sampler_logs_every_failed_attempt(monkeypatch):
    from linerig import sampler
    monkeypatch.setattr(sampler, "_construct", lambda *args, **kwargs: None)
    monkeypatch.setattr(sampler, "MAX_RETRIES", 5)
    G = generate("laman_random", [6], seed=1)
    with pytest.raises(SampleError) as err:
        sampler.sample_laman_lines_exact(G, seed=0)
    assert err.value.log == [f"attempt {k}: construction failed" for k in range(1, 6)]


@pytest.mark.parametrize("bad", ["placed line", "skew line"])
def test_construction_redraws_a_candidate_it_must_not_keep(monkeypatch, bad):
    """The exact construction keeps a candidate only when it meets its attach lines
    exactly and equals no placed line: a copy of attach line 0 (which meets both
    attach lines) and a line skew to it are each redrawn."""
    import linerig.sampler as sampler
    from linerig.henneberg import extract_henneberg
    from linerig.lines3d import Line, meet_residual
    extend0, calls = sampler._extend0, []

    def bad_first(lines, u, v, rng):
        calls.append(u)
        if len(calls) > 1:
            return extend0(lines, u, v, rng)
        a, b, c, d = lines[u].as_tuple()
        return lines[u] if bad == "placed line" else Line(a + 1, b, c, d + 1)

    monkeypatch.setattr(sampler, "_extend0", bad_first)
    G = generate("complete", [3])
    cfg = sampler._construct(G, *extract_henneberg(G), random.Random(0))
    assert len(calls) == 2 and len(set(cfg.lines)) == 3
    assert all(meet_residual(cfg[i], cfg[j]) == 0 for i, j in G.edges)


def test_exact_sampler_certifies_within_three_attempts_up_to_n60():
    for n in range(2, 61):
        for seed in range(4):
            G = generate("laman_random", [n], seed=seed)
            info = sample_laman_lines_exact_info(G, seed=seed)
            assert info.attempts <= 3 and len(info.log) == info.attempts, info.log
            assert info.log[-1] == f"attempt {info.attempts}: certified, rank {2 * n - 3}"
            assert info.report.certified and info.report.sigma_kept is None


@pytest.mark.parametrize("n, seed", [(300, 0), (400, 1), (400, 2)])
def test_exact_sampler_certifies_within_three_attempts_at_n300_and_n400(n, seed):
    G = generate("laman_random", [n], seed=seed)
    info = sample_laman_lines_exact_info(G, seed=seed)
    assert info.attempts <= 3 and info.report.certified, info.log


def test_exact_sampler_runs_no_float_test(monkeypatch):
    """Every routing and acceptance test of the exact sampler is exact: with
    pair_tests, the SVD and Fraction's float conversion all made to raise, it
    still certifies laman_random(60) on its first attempt."""
    import linerig.lines3d
    import linerig.sampler

    G = generate("laman_random", [60])

    def refuse(*args, **kwargs):
        raise AssertionError("a float test on the exact path")

    for module in (linerig.lines3d, linerig.sampler):
        monkeypatch.setattr(module, "pair_tests", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(Fraction, "__float__", refuse)
    info = sample_laman_lines_exact_info(G)
    assert info.attempts == 1 and info.report.certified, info.log
