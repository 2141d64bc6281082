import math

import numpy as np
import pytest

from ricciflow import (
    DegenerateMetric,
    EpsilonTooLarge,
    MetricAssignment,
    build_named_graph,
    deg_measure,
    default_epsilon,
    edge_key,
    forman_edge,
    forman_vector,
    is_tree,
    kernel,
    lly_edge,
    lly_limit_estimate,
    lly_vector,
    wasserstein,
)
from conftest import random_connected_graph, random_metric, random_tree


class TestForman:
    def test_unweighted_reduction(self):
        # uniform measures, unit weights: F(e) = 4 - d(u) - d(v)
        g = build_named_graph("path", 3)
        w = MetricAssignment.uniform(g)
        assert forman_edge(g, w, g.edges[1]) == pytest.approx(0.0)  # interior
        assert forman_edge(g, w, g.edges[0]) == pytest.approx(1.0)  # pendant

    def test_star_zero(self):
        g = build_named_graph("star", 3)
        w = MetricAssignment.uniform(g)
        for e in g.edges:
            assert forman_edge(g, w, e) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        w = random_metric(rng, g)
        scaled = MetricAssignment.from_vector(g, 3.7 * w.vector(g))
        for e in g.edges:
            assert forman_edge(g, scaled, e) == pytest.approx(forman_edge(g, w, e))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_closed_form(self, seed):
        # m2/m1(u) + m2/m1(v) - sum over the other edges e' at x in {u, v}
        # of (m2(e')/m1(x)) * (omega(e')/omega(e)), summed edge by edge
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 10))
        g = random_connected_graph(rng, n, int(rng.integers(0, 6)), uniform_measures=False)
        w = random_metric(rng, g, 0.1, 10.0)
        weight = {k: w.vector(g)[i] for k, i in g.edge_index.items()}
        for u, v in g.edges:
            k = edge_key(u, v)
            terms = [g.m2[k] / g.m1[u], g.m2[k] / g.m1[v]]
            for x in (u, v):
                for a, b in g.edges:
                    other = edge_key(a, b)
                    if x in other and other != k:
                        terms.append(-(g.m2[other] / g.m1[x]) * (weight[other] / weight[k]))
            scale = sum(abs(t) for t in terms)
            assert abs(forman_edge(g, w, (u, v)) - sum(terms)) <= 1e-12 * scale


class TestCurvatureVectors:
    @pytest.mark.parametrize("seed", range(4))
    def test_arrays_in_edge_order_equal_edge_values(self, seed):
        rng = np.random.default_rng(900 + seed)
        if seed % 2:
            g = random_tree(rng, 7, uniform_measures=False)
        else:
            g = random_connected_graph(rng, 7, 3, uniform_measures=False)
        # a detour has at least two edges of weight >= 1, so every edge is strict
        w = random_metric(rng, g, 1.0, 1.9)
        for vector, edge in ((forman_vector, forman_edge), (lly_vector, lly_edge)):
            values = vector(g, w)
            assert isinstance(values, np.ndarray) and values.dtype == np.float64
            assert values.shape == (g.n_edges,)
            expected = np.array([edge(g, w, e) for e in g.edges])
            assert values.tobytes() == expected.tobytes(), vector.__name__


class TestKernel:
    def test_p3_interior(self):
        g = build_named_graph("path", 2)
        k = kernel(g, 1, 0.25)
        assert k.masses[1] == pytest.approx(0.5)
        assert k.masses[0] == pytest.approx(0.25)
        assert k.masses[2] == pytest.approx(0.25)

    def test_small_epsilon_is_nearly_point_mass(self):
        g = build_named_graph("star", 4)
        k = kernel(g, 0, 1e-9)
        assert k.masses[0] == pytest.approx(1.0, abs=1e-8)

    def test_normalized_measures_half(self):
        g = build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0, 2.0, 3.0])
        for x in g.vertices:
            assert kernel(g, x, 0.5).masses[x] == pytest.approx(0.5)

    def test_epsilon_too_large(self):
        g = build_named_graph("star", 3)
        with pytest.raises(EpsilonTooLarge):
            kernel(g, 0, 0.5)  # Deg(center) = 3

    @pytest.mark.parametrize("seed", range(4))
    def test_masses_valid(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        for x in g.vertices:
            k = kernel(g, x, 0.9 / deg_measure(g, x))
            assert sum(k.masses.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= m <= 1.0 for m in k.masses.values())


class TestWasserstein:
    def test_identical_kernels(self):
        g = build_named_graph("cycle", 4)
        w = MetricAssignment.uniform(g)
        k = kernel(g, 0, 0.1)
        assert wasserstein(g, w, k, k) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        from ricciflow import ProbabilityKernel

        g = build_named_graph("path", 3)
        w = MetricAssignment.from_vector(g, [1.0, 2.0, 0.5])
        mu = ProbabilityKernel(0, 1e-6, {0: 1.0})
        nu = ProbabilityKernel(3, 1e-6, {3: 1.0})
        assert wasserstein(g, w, mu, nu) == pytest.approx(3.5)

    def test_consistency_with_lly(self):
        g = build_named_graph("path", 2)
        w = MetricAssignment.uniform(g)
        e = g.edges[0]
        eps = 0.1
        kap = lly_edge(g, w, e)
        wd = wasserstein(g, w, kernel(g, e[0], eps), kernel(g, e[1], eps))
        assert wd == pytest.approx(1.0 * (1.0 - eps * kap))


class TestLLY:
    def test_triangle(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.uniform(g)
        for e in g.edges:
            assert lly_edge(g, w, e) == pytest.approx(3.0, abs=1e-9)

    def test_five_cycle(self):
        g = build_named_graph("cycle", 5)
        w = MetricAssignment.uniform(g)
        for e in g.edges:
            assert lly_edge(g, w, e) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_equality_with_forman(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, int(rng.integers(2, 9)), uniform_measures=False)
        w = random_metric(rng, g)
        for e in g.edges:
            assert abs(lly_edge(g, w, e) - forman_edge(g, w, e)) < 1e-8

    def test_degenerate_metric_rejected(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        with pytest.raises(DegenerateMetric):
            lly_edge(g, w, g.edges[2])

    def test_vector_names_degenerate_edges(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        with pytest.raises(DegenerateMetric, match=r"edges \['2-0'\]$"):
            lly_vector(g, w)
        with pytest.raises(DegenerateMetric):
            lly_edge(g, w, (0, 2))
        # only the edge's own strictness matters to lly_edge
        assert math.isfinite(lly_edge(g, w, g.edges[0]))

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda rng: build_named_graph("cycle", 5),
            lambda rng: build_named_graph("complete", 5),
            lambda rng: random_connected_graph(rng, 7, 3, uniform_measures=False),
            lambda rng: random_connected_graph(rng, 8, 5, uniform_measures=False),
        ],
        ids=["cycle5", "complete5", "chorded7", "chorded8"],
    )
    def test_vector_equals_edge_lp(self, make_graph):
        rng = np.random.default_rng(11)
        g = make_graph(rng)
        # a detour has at least two edges of weight >= 1, so every edge is strict
        w = random_metric(rng, g, 1.0, 1.9)
        values = lly_vector(g, w)
        for i, (u, v) in enumerate(g.edges):
            assert values[i] == lly_edge(g, w, (u, v))

    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_invariance(self, seed):
        rng = np.random.default_rng(40 + seed)
        g = build_named_graph("cycle", 5)
        w = random_metric(rng, g, 0.9, 1.1)
        scaled = MetricAssignment.from_vector(g, 0.37 * w.vector(g))
        for e in g.edges:
            assert lly_edge(g, scaled, e) == pytest.approx(lly_edge(g, w, e), abs=1e-9)


class TestLLYLimitOracle:
    def test_tree_matches_forman(self):
        rng = np.random.default_rng(7)
        g = random_tree(rng, 6, uniform_measures=False)
        w = random_metric(rng, g)
        for e in g.edges:
            est = lly_limit_estimate(g, w, e)
            assert abs(est - forman_edge(g, w, e)) < 1e-6

    def test_triangle_at_fixed_epsilon(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.uniform(g)
        assert lly_limit_estimate(g, w, g.edges[0], 0.05) == pytest.approx(
            3.0, abs=1e-6
        )

    def test_estimate_stable_under_halving(self):
        g = build_named_graph("cycle", 5)
        w = MetricAssignment.uniform(g)
        eps = default_epsilon(g)
        e = g.edges[2]
        a = lly_limit_estimate(g, w, e, eps)
        b = lly_limit_estimate(g, w, e, eps / 2)
        assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_domination_and_agreement(self, seed):
        rng = np.random.default_rng(70 + seed)
        g = random_connected_graph(rng, 6, 2, uniform_measures=False)
        w = random_metric(rng, g, 0.9, 1.1)
        from ricciflow import surgery_scan

        if surgery_scan(g, w):
            pytest.skip("degenerate random metric")
        for e in g.edges:
            kap = lly_edge(g, w, e)
            assert kap >= forman_edge(g, w, e) - 1e-8
            assert abs(kap - lly_limit_estimate(g, w, e)) < 1e-6
