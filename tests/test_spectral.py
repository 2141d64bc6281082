import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricciflow.spectral
from ricciflow import (
    FlowMatrix,
    GraphError,
    MeasuredGraph,
    NumericalFailure,
    build_flow_matrix,
    build_named_graph,
    classify_convergence,
    classify_tree_uniform,
    curvature_bounds,
    eigendecompose,
    flow_coefficients,
    forman_edge,
    forman_flow_exact,
    inverse_curvature,
    jacobi_eigh,
)
from ricciflow.spectral import (
    BIG_DEGREE_CASE,
    CONSTANT_METRIC,
    DIVERGENT,
    EIGEN_GAP_TOL,
    JACOBI_OFFDIAG_TOL,
    K13_CASE,
    PATH_CASE,
    VANISHING,
    _perron_eigh,
    _round_robin,
)
from conftest import (
    exact_inertia,
    line_graph_adjacency,
    random_connected_graph,
    random_metric,
    random_tree,
    reference_jacobi_sweeps,
    strict_measured_metrics,
)


def formula_flow_matrix(g):
    """F entry by entry, as ``build_flow_matrix`` states it: m2(e_j) / m1(x)
    for edges meeting at x, -(m2/m1(u) + m2/m1(v)) on the diagonal."""
    m1 = dict(zip(g.vertices, g.m1.tolist()))
    m2 = g.m2.tolist()
    f = np.zeros((g.n_edges, g.n_edges))
    for i, (u, v) in enumerate(g.edges):
        for j, e in enumerate(g.edges):
            shared = {u, v} & set(e)
            if i == j:
                f[i, j] = -(m2[i] / m1[u] + m2[i] / m1[v])
            elif shared:
                (x,) = shared
                f[i, j] = m2[j] / m1[x]
    return f


def lognormal_measures(rng, g, sigma):
    m1 = np.exp(rng.normal(0.0, sigma, g.n_vertices))
    m2 = np.exp(rng.normal(0.0, sigma, g.n_edges))
    return MeasuredGraph(g.vertices, g.edges, m1, m2)


class TestFlowMatrix:
    def test_uniform_p3(self):
        g = build_named_graph("path", 2)
        fm = build_flow_matrix(g)
        assert np.allclose(fm.F, [[-2.0, 1.0], [1.0, -2.0]])

    def test_star_is_minus3I_plus_J(self):
        for n in (3, 5, 8):
            g = build_named_graph("star", n)
            fm = build_flow_matrix(g)
            assert np.allclose(fm.F, -3.0 * np.eye(n) + np.ones((n, n)))

    def test_normalized_path_entries(self):
        a = [2.0, 3.0, 5.0]
        g = build_named_graph("path", 3, "normalized_deg1", m2_values=a)
        fm = build_flow_matrix(g)
        assert fm.Ftilde[0, 0] == pytest.approx(-1.0 - a[0] / (a[0] + a[1]))
        assert fm.Ftilde[1, 1] == pytest.approx(
            -(a[1] / (a[0] + a[1]) + a[1] / (a[1] + a[2]))
        )
        assert fm.Ftilde[0, 1] == pytest.approx(
            math.sqrt(a[0] * a[1]) / (a[0] + a[1])
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_structure(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        fm = build_flow_matrix(g)
        assert np.max(np.abs(fm.Ftilde - fm.Ftilde.T)) < 1e-12
        b = line_graph_adjacency(g)
        off = fm.F - np.diag(np.diag(fm.F))
        assert np.all((off > 0) == (b > 0))
        assert np.array_equal(fm.F, formula_flow_matrix(g))
        assert np.array_equal(fm.sqrt_m2, np.sqrt(g.m2))

    @pytest.mark.parametrize("sigma", [None, 3.0], ids=["uniform", "lognormal3"])
    def test_random_graph_entries_match_formula(self, sigma):
        # one incidence product must give every entry bit for bit
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)) if n > 2 else 0)
            if sigma is not None:
                g = lognormal_measures(rng, g, sigma)
            assert np.array_equal(build_flow_matrix(g).F, formula_flow_matrix(g))

    @pytest.mark.parametrize(
        "family, n", [("path", 30), ("star", 12), ("cycle", 9), ("complete", 7)]
    )
    def test_named_graph_entries_match_formula(self, family, n):
        g = build_named_graph(family, n)
        assert np.array_equal(build_flow_matrix(g).F, formula_flow_matrix(g))
        g = lognormal_measures(np.random.default_rng(n), g, 3.0)
        assert np.array_equal(build_flow_matrix(g).F, formula_flow_matrix(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_tree_is_line_graph_shift(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = random_tree(rng, 8)
        fm = build_flow_matrix(g)
        assert np.array_equal(fm.F + 2.0 * np.eye(g.n_edges), line_graph_adjacency(g))


class TestEigendecompose:
    def test_p3_eigenvalues(self):
        g = build_named_graph("path", 2)
        sd = eigendecompose(build_flow_matrix(g))
        assert np.allclose(sd.eigenvalues, [-3.0, -1.0])

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    def test_path_lambda_max(self, n):
        g = build_named_graph("path", n)
        sd = eigendecompose(build_flow_matrix(g))
        assert sd.lambda_max == pytest.approx(
            -2.0 + 2.0 * math.cos(math.pi / (n + 1)), abs=1e-10
        )

    def test_star_perron(self):
        g = build_named_graph("star", 6)
        sd = eigendecompose(build_flow_matrix(g))
        assert sd.lambda_max == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(sd.perron_vector, 1.0 / math.sqrt(6.0), atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lapack_and_perron(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        fm = build_flow_matrix(g)
        sd = eigendecompose(fm)
        ref = np.linalg.eigvalsh(fm.Ftilde)
        assert np.allclose(sd.eigenvalues, ref, atol=1e-10)
        for i in range(g.n_edges):
            res = fm.Ftilde @ sd.eigenvectors[:, i] - sd.eigenvalues[i] * sd.eigenvectors[:, i]
            assert np.max(np.abs(res)) < 1e-9
        assert sd.eigenvalues[-1] - sd.eigenvalues[-2] > 1e-10
        assert np.all(sd.perron_vector > 0)

    def test_jacobi_orthonormal(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(12, 12))
        m = m + m.T
        w, v = jacobi_eigh(m)
        assert np.max(np.abs(v.T @ v - np.eye(12))) < 1e-12
        assert np.all(np.diff(w) >= 0)

    def test_sweep_limit_raises(self):
        m = np.random.default_rng(12).normal(size=(6, 6))
        m = m + m.T
        jacobi_eigh(m)  # converges with the default sweep limit
        with pytest.raises(NumericalFailure, match="did not converge in 1 sweeps"):
            jacobi_eigh(m, max_sweeps=1)

    @pytest.mark.parametrize(
        "diag, message",
        [([1.0, 1.0], "top eigenvalue gap"), ([1.0, 0.0], "nonpositive entries")],
        ids=["repeated_top_eigenvalue", "zero_perron_entry"],
    )
    def test_rejects_a_matrix_of_no_connected_graph(self, diag, message):
        ftilde = np.diag(diag)
        fm = FlowMatrix(F=ftilde, sqrt_m2=np.ones(2), Ftilde=ftilde)
        with pytest.raises(NumericalFailure, match=message):
            eigendecompose(fm)

    def test_overflowing_eigenvalue_raises(self):
        # every entry of this 65-star's flow matrix is finite, but lambda_max,
        # about 6.3e308, is not
        m1 = np.array([1e-307] + [1.0] * 65)
        g = MeasuredGraph(tuple(range(66)), tuple((0, i) for i in range(1, 66)), m1, np.ones(65))
        with pytest.raises(NumericalFailure, match="eigenvalue overflows"):
            classify_convergence(g)

    def test_perron_sign_flip(self):
        # Jacobi returns this matrix's top eigenvector as (-1, 1)/sqrt(2), whose
        # largest-magnitude entry (the first, on a tie) is negative
        a = np.array([[0.0, -1.0], [-1.0, 0.0]])
        w_raw, raw = jacobi_eigh(a)
        assert raw[0, -1] < 0 and abs(raw[0, -1]) == abs(raw[1, -1])
        w, p = _perron_eigh(a)
        top = p[:, -1]
        assert top[np.argmax(np.abs(top))] > 0
        assert np.array_equal(top, -raw[:, -1]) and np.array_equal(p[:, :-1], raw[:, :-1])
        assert np.array_equal(w, w_raw) and w == pytest.approx([-1.0, 1.0])


def _symmetric_matrices(n, rng):
    """A dense, a sparse (exact zeros) and a repeated-spectrum matrix of order n."""
    dense = rng.normal(size=(n, n))
    sparse = np.where(rng.random((n, n)) < 0.5, 0.0, dense)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    twice = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]  # each eigenvalue twice
    repeated = (q * twice) @ q.T
    return [0.5 * (x + x.T) for x in (dense, np.triu(sparse) + np.triu(sparse, 1).T, repeated)]


def _flow_matrices():
    rng = np.random.default_rng(50)
    for n in range(1, 51):
        yield build_flow_matrix(build_named_graph("path", n)).Ftilde
    yield build_flow_matrix(build_named_graph("star", 3)).Ftilde
    yield build_flow_matrix(build_named_graph("complete", 6)).Ftilde
    edges = random_tree(rng, 51).edges
    m2 = rng.uniform(0.5, 2.0, len(edges))
    m1 = np.zeros(51)
    np.add.at(m1, np.array(edges).ravel(), np.repeat(m2, 2))  # Deg = 1 at every vertex
    yield build_flow_matrix(MeasuredGraph(tuple(range(51)), edges, m1, m2)).Ftilde


class TestJacobiMatchesScalarLoops:
    """The whole-row rotations give the scalar reference's bits exactly."""

    @staticmethod
    def _assert_identical(monkeypatch, m):
        w, v = jacobi_eigh(m)
        with monkeypatch.context() as patch:
            patch.setattr(ricciflow.spectral, "_jacobi_sweeps", reference_jacobi_sweeps)
            w_ref, v_ref = jacobi_eigh(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20, 33, 60])
    def test_random_symmetric(self, monkeypatch, n):
        for m in _symmetric_matrices(n, np.random.default_rng(n)):
            self._assert_identical(monkeypatch, m)

    def test_exactly_repeated_eigenvalues(self, monkeypatch):
        self._assert_identical(monkeypatch, np.kron(np.eye(3), [[2.0, 1.0], [1.0, 2.0]]))
        self._assert_identical(monkeypatch, np.ones((5, 5)))

    def test_flow_matrices(self, monkeypatch):
        for m in _flow_matrices():
            self._assert_identical(monkeypatch, m)

    def test_overflowing_angle(self, monkeypatch):
        # theta = 1e300 / 2e-12 overflows, so t = 0: no warning, no rotation
        m = np.array([[0.0, 1e-12], [1e-12, 1e300]])
        self._assert_identical(monkeypatch, m)
        w, v = jacobi_eigh(m)
        assert w.tolist() == [0.0, 1e300] and np.array_equal(v, np.eye(2))


def test_round_robin_rounds_cover_every_pair_once():
    for n in range(1, 62):
        p, q = _round_robin(n)
        assert p.shape == q.shape == (n - 1 + n % 2, n // 2)
        pairs = []
        for rp, rq in zip(p.tolist(), q.tolist()):
            assert len(set(rp + rq)) == 2 * len(rp)  # disjoint within a round
            assert all(0 <= i < j < n for i, j in zip(rp, rq))
            pairs += zip(rp, rq)
        assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of order at most 24 with exact zeros among their
    entries; a block repeated k times on the diagonal and permuted, so for
    k > 1 every eigenvalue repeats exactly."""
    k = draw(st.sampled_from([1, 1, 2, 3]))
    b = draw(st.integers(1, 24 // k))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=b * b, max_size=b * b)
    block = np.triu(np.reshape(draw(entries), (b, b)))
    m = np.kron(np.eye(k), block + np.triu(block, 1).T)
    perm = draw(st.permutations(range(k * b)))
    return m[np.ix_(perm, perm)]


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_jacobi_matches_lapack(m):
    w, v = jacobi_eigh(m)
    assert np.max(np.abs(w - np.linalg.eigvalsh(m))) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(len(m)))) <= 1e-12


class TestFlowCoefficients:
    def test_perron_initial_condition(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 6, 1, uniform_measures=False)
        fm = build_flow_matrix(g)
        sd = eigendecompose(fm)
        w0 = sd.perron_vector / fm.sqrt_m2
        coeff = flow_coefficients(sd, fm, w0)
        assert np.max(np.abs(coeff[:-1])) < 1e-12
        assert np.allclose(coeff[-1], w0)

    def test_star3_average(self):
        g = build_named_graph("star", 3)
        fm = build_flow_matrix(g)
        sd = eigendecompose(fm)
        w0 = np.array([1.0, 2.0, 3.0])
        coeff = flow_coefficients(sd, fm, w0)
        assert np.allclose(coeff[-1], np.mean(w0))

    @pytest.mark.parametrize("seed", range(5))
    def test_top_coefficient_positive(self, seed):
        rng = np.random.default_rng(80 + seed)
        g = random_connected_graph(rng, 6, 2, uniform_measures=False)
        fm = build_flow_matrix(g)
        sd = eigendecompose(fm)
        coeff = flow_coefficients(sd, fm, rng.uniform(0.2, 3.0, g.n_edges))
        assert np.all(coeff[-1] > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_solves_ode(self, seed):
        rng = np.random.default_rng(90 + seed)
        g = random_connected_graph(rng, 6, 2, uniform_measures=False)
        fm = build_flow_matrix(g)
        sd = eigendecompose(fm)
        w0 = rng.uniform(0.5, 2.0, g.n_edges)
        coeff = flow_coefficients(sd, fm, w0)
        for t in (0.0, 0.3, 1.1):
            w = np.exp(sd.eigenvalues * t) @ coeff
            dw = (sd.eigenvalues * np.exp(sd.eigenvalues * t)) @ coeff
            assert np.max(np.abs(dw - fm.F @ w)) < 1e-8
        assert np.allclose(np.exp(sd.eigenvalues * 0.0) @ coeff, w0)


class TestClassify:
    def test_path_vanishing(self):
        g = build_named_graph("path", 5)
        rep = classify_convergence(g)
        assert rep.classification == VANISHING
        assert rep.limiting_curvature == pytest.approx(
            2.0 * (1.0 - math.cos(math.pi / 6.0)), abs=1e-10
        )

    def test_star3_constant(self):
        g = build_named_graph("star", 3)
        rep = classify_convergence(g)
        assert rep.classification == CONSTANT_METRIC
        assert rep.limiting_curvature == pytest.approx(0.0, abs=1e-10)

    def test_star6_divergent(self):
        g = build_named_graph("star", 6)
        rep = classify_convergence(g)
        assert rep.classification == DIVERGENT
        assert rep.limiting_curvature == pytest.approx(-3.0, abs=1e-10)

    def test_star3_with_a_lighter_centre_diverges(self):
        # lambda_max = +1e-10 lies far past the eigensolve's error bound, so its
        # sign is the exact one
        m1 = np.array([0.9999999999, 1.0, 1.0, 1.0])
        g = MeasuredGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)), m1, np.ones(3))
        rep = classify_convergence(g)
        assert rep.classification == DIVERGENT == exact_class(g)
        assert rep.lambda_max == pytest.approx(1e-10, rel=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_report_invariants(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        rep = classify_convergence(g)
        vals = rep.limiting_normalized_metric
        assert np.all(vals > 0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-10)
        lower, upper = rep.bounds
        assert lower - 1e-12 <= rep.limiting_curvature <= upper + 1e-12

    def test_limit_independent_of_initial_metric(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 7, 3, uniform_measures=False)
        rep1 = classify_convergence(g)
        rep2 = classify_convergence(g)
        for k in range(g.n_edges):
            assert rep1.limiting_normalized_metric[k] == pytest.approx(
                rep2.limiting_normalized_metric[k], abs=1e-12
            )


class TestBounds:
    def test_uniform_p3(self):
        g = build_named_graph("path", 2)
        assert curvature_bounds(g) == pytest.approx((1.0, 2.0))

    def test_star3_brackets_zero(self):
        lower, upper = curvature_bounds(build_named_graph("star", 3))
        assert lower <= 0.0 <= upper

    def test_single_edge(self):
        g = build_named_graph("path", 1)
        assert curvature_bounds(g) == pytest.approx((2.0, 2.0))
        rep = classify_convergence(g)
        assert rep.limiting_curvature == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gerschgorin_holds(self, seed):
        rng = np.random.default_rng(30 + seed)
        g = random_connected_graph(rng, 8, 3, uniform_measures=False)
        sd = eigendecompose(build_flow_matrix(g))
        lower, upper = curvature_bounds(g)
        assert lower - 1e-12 <= -sd.lambda_max <= upper + 1e-12


class TestInverse:
    def test_star3_flat(self):
        g = build_named_graph("star", 3)
        kappa = np.zeros(g.n_edges)
        res = inverse_curvature(g, kappa)
        assert res.metric is not None
        w = res.metric.vector(g)
        assert np.allclose(w / w[0], 1.0)

    def test_p3_unit_curvature(self):
        g = build_named_graph("path", 2)
        kappa = np.ones(g.n_edges)
        res = inverse_curvature(g, kappa)
        assert res.metric is not None
        w = res.metric.vector(g)
        assert np.allclose(w / w[0], 1.0)

    def test_p3_flat_unsolvable(self):
        g = build_named_graph("path", 2)
        kappa = np.zeros(g.n_edges)
        res = inverse_curvature(g, kappa)
        assert res.metric is None
        assert res.lambda_max == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_on_trees(self, seed):
        rng = np.random.default_rng(60 + seed)
        g = random_tree(rng, 7, uniform_measures=False)
        w = random_metric(rng, g)
        kappa = np.array([forman_edge(g, w, (u, v)) for u, v in g.edges])
        res = inverse_curvature(g, kappa, tol=1e-8)
        assert res.metric is not None
        assert abs(res.lambda_max) < 1e-9
        for i, (u, v) in enumerate(g.edges):
            assert forman_edge(g, res.metric, (u, v)) == pytest.approx(
                kappa[i], abs=1e-7
            )

    @pytest.mark.parametrize("kappa", [[0.0, 0.0], [0.0] * 4, [[0.0, 0.0, 0.0]]])
    def test_rejects_wrong_length_target(self, kappa):
        g = build_named_graph("star", 3)
        with pytest.raises(GraphError, match="3 values"):
            inverse_curvature(g, kappa)


class TestTreeClassification:
    def test_cases(self):
        assert classify_tree_uniform(build_named_graph("path", 10)) == PATH_CASE
        assert classify_tree_uniform(build_named_graph("star", 3)) == K13_CASE
        assert classify_tree_uniform(build_named_graph("star", 5)) == BIG_DEGREE_CASE

    def test_star3_with_extra_pendant(self):
        # K_{1,3} with one extra edge on a leaf: line graph contains the paw
        from ricciflow import MeasuredGraph

        edges = ((0, 1), (0, 2), (0, 3), (3, 4))
        g = MeasuredGraph(
            tuple(range(5)),
            edges,
            [1.0] * 5,
            [1.0] * len(edges),
        )
        assert classify_tree_uniform(g) == BIG_DEGREE_CASE
        b = line_graph_adjacency(g)
        w, _ = jacobi_eigh(b)
        assert w[-1] > 2.17

    def test_errors(self):
        # outside its domain, a tree with m1 = m2 = 1, there is no tree case
        assert classify_tree_uniform(build_named_graph("cycle", 4)) is None
        g = build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0, 2.0, 3.0])
        assert classify_tree_uniform(g) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_lambda_sign(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, int(rng.integers(2, 10)))
        case = classify_tree_uniform(g)
        lam = eigendecompose(build_flow_matrix(g)).lambda_max
        if case == PATH_CASE:
            assert lam < -1e-9
        elif case == K13_CASE:
            assert abs(lam) <= 1e-9
        else:
            assert lam > 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_degree_bound_on_line_graph(self, seed):
        rng = np.random.default_rng(20 + seed)
        g = random_tree(rng, 9)
        b = line_graph_adjacency(g)
        w, _ = jacobi_eigh(b)
        assert w[-1] >= max(g.degree(x) for x in g.vertices) - 1 - 1e-10


def exact_class(g):
    """The flow's long-time class read from the exact inertia of Ftilde."""
    positive, zero, _ = exact_inertia(g)
    return DIVERGENT if positive else CONSTANT_METRIC if zero else VANISHING


class TestExactInertia:
    def test_tree_trichotomy_holds_exactly(self):
        # every tree of 1-13 edges under uniform measure, 5446 in all
        limit = {PATH_CASE: VANISHING, K13_CASE: CONSTANT_METRIC, BIG_DEGREE_CASE: DIVERGENT}
        count = 0
        for n in range(2, 15):
            for tree in nx.nonisomorphic_trees(n):
                g = MeasuredGraph(tuple(range(n)), tuple(tree.edges()), np.ones(n), np.ones(n - 1))
                assert exact_class(g) == limit[classify_tree_uniform(g)], g.edges
                count += 1
        assert count == 5446

    @pytest.mark.parametrize("seed", range(10))
    def test_float_class_is_exact_off_the_zero_band(self, seed):
        # classify_convergence decides the class by the float lambda_max; past
        # the eigensolve's error bound JACOBI_OFFDIAG_TOL * rho its sign must be
        # the exact one, and lambda_max lies in an exactly certified bracket of
        # relative width 1e-10
        rng = np.random.default_rng(140 + seed)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n, int(rng.integers(0, 4)), uniform_measures=False)
            report = classify_convergence(g)
            lam = report.lambda_max
            half = 5e-11 * max(1.0, abs(lam))
            assert exact_inertia(g, lam - half)[0] == 1 and exact_inertia(g, lam + half)[0] == 0
            rho = np.max(np.abs(eigendecompose(build_flow_matrix(g)).eigenvalues))
            if abs(lam) > JACOBI_OFFDIAG_TOL * rho:
                assert report.classification == exact_class(g)


class TestPerronStructure:
    # on a connected graph F is essentially nonnegative and irreducible, so
    # its top eigenvalue is simple with a positive eigenvector, and the
    # linear flow keeps every weight positive
    @settings(max_examples=40, deadline=None)
    @given(strict_measured_metrics())
    def test_perron_vector_and_flow_are_positive(self, case):
        g, w = case
        sd = eigendecompose(build_flow_matrix(g))
        if g.n_edges > 1:
            assert sd.eigenvalues[-1] - sd.eigenvalues[-2] > EIGEN_GAP_TOL
        assert np.all(sd.perron_vector > 0)
        limit = classify_convergence(g).limiting_normalized_metric
        assert np.all(limit > 0)
        assert abs(limit.sum() - 1.0) <= 1e-12
        traj = forman_flow_exact(g, w, [0.0, 0.5, 2.0])
        assert all(np.all(omega > 0) for _, _, omega, _ in traj.segments)
