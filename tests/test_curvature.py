import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricciflow.curvature
from ricciflow import (
    MeasuredGraph,
    MetricAssignment,
    NumericalFailure,
    build_named_graph,
    deg_measure,
    default_epsilon,
    forman_edge,
    forman_vector,
    is_tree,
    kernel,
    lly_edge,
    lly_limit_estimate,
    lly_vector,
    surgery_scan,
    wasserstein,
)
from conftest import (
    count_linprog,
    distance_matrix,
    draw_chorded_tree,
    draw_measured_metric,
    random_connected_graph,
    random_metric,
    random_tree,
    reference_lly_limit_estimate,
    reference_lly_vector,
    strict_measured_metrics,
)


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
        weight = w.vector(g)
        for u, v in g.edges:
            k = g.position(u, v)
            m2 = g.m2[k]
            terms = [m2 / g.m1[u], m2 / g.m1[v]]
            for x in (u, v):
                for a, b in g.edges:
                    other = g.position(a, b)
                    if x in (a, b) and other != k:
                        m2_other = g.m2[other]
                        terms.append(-(m2_other / g.m1[x]) * (weight[other] / weight[k]))
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


class TestScaleInvariance:
    # every curvature is invariant under omega -> s omega; the LPs and the
    # Forman products must be too, far outside the solver's absolute tolerances
    @pytest.mark.parametrize("k", [-20, -5, 5, 30, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_power_of_two_scaling(self, seed, k):
        rng = np.random.default_rng(1100 + seed)
        g = random_connected_graph(rng, 6, 3, uniform_measures=False)
        # a detour has at least two edges of weight >= 1, so every edge is strict
        w = random_metric(rng, g, 1.0, 1.9)
        scaled = MetricAssignment.from_vector(g, 2.0**k * w.vector(g))
        assert forman_vector(g, scaled).tobytes() == forman_vector(g, w).tobytes()
        assert np.allclose(lly_vector(g, scaled), lly_vector(g, w), rtol=0, atol=1e-9)
        assert np.allclose(
            lly_limit_estimate(g, scaled), lly_limit_estimate(g, w), rtol=0, atol=1e-9
        )


class TestKernel:
    def test_p3_interior(self):
        g = build_named_graph("path", 2)
        positions, masses = kernel(g, 1, 0.25)
        assert positions.tolist() == [1, 0, 2]  # x first, then its neighbors
        assert masses == pytest.approx([0.5, 0.25, 0.25])

    def test_small_epsilon_is_nearly_point_mass(self):
        g = build_named_graph("star", 4)
        _, masses = kernel(g, 0, 1e-9)
        assert masses[0] == pytest.approx(1.0, abs=1e-8)

    def test_normalized_measures_half(self):
        g = build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0, 2.0, 3.0])
        for x in g.vertices:
            assert kernel(g, x, 0.5)[1][0] == pytest.approx(0.5)

    def test_epsilon_too_large(self):
        g = build_named_graph("star", 3)
        with pytest.raises(ValueError):
            kernel(g, 0, 0.5)  # Deg(center) = 3

    @pytest.mark.parametrize(
        "m1, m2", [([3e-308, 1e9, 1e9, 1e9], 1.8), ([1e10] * 4, 1e-300)], ids=["inf", "zero"]
    )
    def test_degree_past_float_range_has_no_default_epsilon(self, m1, m2):
        # Deg(0) = 3 * 1.8 / 3e-308 overflows; Deg(x) <= 3e-310 has no finite 1/(4 Deg)
        edges = ((0, 1), (0, 2), (0, 3))
        g = MeasuredGraph((0, 1, 2, 3), edges, m1, [m2] * 3)
        with pytest.raises(NumericalFailure, match=r"^default epsilon 1/\(4 max Deg\) is (0|inf)$"):
            default_epsilon(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_masses_valid(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 2, uniform_measures=False)
        for x in g.vertices:
            _, masses = kernel(g, x, 0.9 / deg_measure(g, x))
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= m <= 1.0 for m in masses)


class TestWasserstein:
    def test_identical_kernels(self):
        g = build_named_graph("cycle", 4)
        d = distance_matrix(g, MetricAssignment.uniform(g))
        k = kernel(g, 0, 0.1)
        assert wasserstein(d, k, k) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        g = build_named_graph("path", 3)
        d = distance_matrix(g, MetricAssignment.from_vector(g, [1.0, 2.0, 0.5]))
        mu = (np.array([0]), np.array([1.0]))
        nu = (np.array([3]), np.array([1.0]))
        assert wasserstein(d, mu, nu) == pytest.approx(3.5)

    def test_consistency_with_lly(self):
        g = build_named_graph("path", 2)
        w = MetricAssignment.uniform(g)
        e = g.edges[0]
        eps = 0.1
        kap = lly_edge(g, w, e)
        d = distance_matrix(g, w)
        wd = wasserstein(d, kernel(g, e[0], eps), kernel(g, e[1], eps))
        assert wd == pytest.approx(1.0 * (1.0 - eps * kap))


class TestLLY:
    def test_curvature_past_float_range_is_a_failure(self):
        # at d(0-1) = 1e-320 the optimum over d overflows
        g = build_named_graph("cycle", 4)
        w = MetricAssignment.from_vector(g, [1e-320, 1.0, 1.0, 1.0])
        with pytest.raises(NumericalFailure, match=r"^Lin-Lu-Yau LP of edge 0-1 failed: its optimum"):
            lly_edge(g, w, (0, 1))
        with pytest.raises(NumericalFailure, match=r"^Forman curvature of edge 0-1 overflows$"):
            forman_vector(g, w)

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

    def test_non_strict_edge_is_its_vector_entry(self):
        # 2-0 is no shorter than its detour; lly_edge still reads it from the
        # one distance matrix lly_vector reads, bit for bit
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        values = lly_vector(g, w)
        for i, (u, v) in enumerate(g.edges):
            assert values[i] == lly_edge(g, w, (u, v)) == lly_edge(g, w, (v, u))

    def test_non_strict_metric_reads_the_path_metric(self):
        # the last chord, as long as every weight together, is longer than
        # its detours, and spread weights may leave more edges so; the
        # curvature reads them at their path distances, as the transport
        # estimate and the whole-graph LP do
        for seed in range(4):
            rng = np.random.default_rng(60 + seed)
            g = random_connected_graph(rng, 7, 4, uniform_measures=False)
            values = rng.uniform(0.1, 5.0, g.n_edges)
            values[-1] = values.sum()
            w = MetricAssignment.from_vector(g, values)
            assert g.n_edges - 1 in [i for i, _ in surgery_scan(g, w)]
            kappa = lly_vector(g, w)
            estimate = lly_limit_estimate(g, w)
            assert np.all(np.abs(kappa - estimate) <= 1e-6 * (1.0 + np.abs(kappa)))
            assert np.allclose(kappa, reference_lly_vector(g, w), rtol=0, atol=1e-10)

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
            assert values[i] == lly_edge(g, w, (v, u))

    def test_failed_solve_names_the_lp(self, monkeypatch):
        # both LP kinds share one failure check, and an edge is named in its
        # stored orientation
        failed = types.SimpleNamespace(success=False, message="no optimum", fun=None)
        monkeypatch.setattr(ricciflow.curvature, "linprog", lambda *a, **k: failed)
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.uniform(g)
        with pytest.raises(NumericalFailure, match=r"^Lin-Lu-Yau LP of edge 0-1 failed: no optimum$"):
            lly_edge(g, w, (1, 0))
        with pytest.raises(NumericalFailure, match=r"^transport LP failed: no optimum$"):
            lly_limit_estimate(g, w)

    def test_infinite_optimum_is_a_failure(self, monkeypatch):
        # HiGHS can report an optimal status with an infinite cost
        infinite = types.SimpleNamespace(success=True, message="Optimal", fun=math.inf)
        monkeypatch.setattr(ricciflow.curvature, "linprog", lambda *a, **k: infinite)
        g = build_named_graph("cycle", 3)
        with pytest.raises(NumericalFailure, match=r"^Lin-Lu-Yau LP of edge 0-1 failed: Optimal$"):
            lly_edge(g, MetricAssignment.uniform(g), (0, 1))

    def test_lps_are_local_to_the_edge(self, monkeypatch):
        # one LP per edge, over B1(x) u B1(y) whatever the size of the graph
        g = build_named_graph("cycle", 40)
        calls = count_linprog(monkeypatch)
        lly_vector(g, MetricAssignment.uniform(g))
        assert len(calls) == g.n_edges
        for (x, y), call in zip(g.edges, calls):
            ball = {x, y} | {z for z, _ in g.adjacency[x] + g.adjacency[y]}
            rows, cols = call["A_ub"].shape
            assert rows <= (g.degree(x) + 1) * (g.degree(y) + 1)
            assert cols == len(call["c"]) == len(ball)

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
        est = lly_limit_estimate(g, w)
        assert np.all(np.abs(est - forman_vector(g, w)) < 1e-6)

    def test_triangle_at_fixed_epsilon(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.uniform(g)
        assert lly_limit_estimate(g, w, 0.05)[0] == pytest.approx(3.0, abs=1e-6)

    def test_estimate_stable_under_halving(self):
        g = build_named_graph("cycle", 5)
        w = MetricAssignment.uniform(g)
        eps = default_epsilon(g)
        a = lly_limit_estimate(g, w, eps)[2]
        b = lly_limit_estimate(g, w, eps / 2)[2]
        assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_domination_and_agreement(self, seed):
        rng = np.random.default_rng(70 + seed)
        g = random_connected_graph(rng, 6, 2, uniform_measures=False)
        w = random_metric(rng, g, 0.9, 1.1)
        from ricciflow import surgery_scan

        if surgery_scan(g, w):
            pytest.skip("degenerate random metric")
        estimate = lly_limit_estimate(g, w)
        for i, e in enumerate(g.edges):
            kap = lly_edge(g, w, e)
            assert kap >= forman_edge(g, w, e) - 1e-8
            assert abs(kap - estimate[i]) < 1e-6


@st.composite
def wheels_with_bridged_tails(draw):
    """A wheel, optionally joined by a bridge to a tree plus random chords.

    The wheel's hub 0 neighbours every rim vertex 1..k, so the ends of each
    spoke and rim edge share neighbours; the bridge joins a random vertex of
    the wheel to one of the tail.  Measured by ``draw_measured_metric``.
    """
    k = draw(st.integers(3, 8))
    edges = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    m = draw(st.integers(0, 5))
    if m:
        tail = draw_chorded_tree(draw, m, 4)
        edges.append((draw(st.integers(0, k)), k + 1 + draw(st.integers(0, m - 1))))
        edges += [(u + k + 1, v + k + 1) for u, v in tail]
    return draw_measured_metric(draw, k + 1 + m, edges)


class TestCurvatureProperties:
    @settings(max_examples=40, deadline=None)
    @given(strict_measured_metrics())
    def test_lly_dominates_forman_with_equality_on_trees(self, case):
        g, w = case
        lly, forman = lly_vector(g, w), forman_vector(g, w)
        assert np.all(lly >= forman - 1e-8)
        if is_tree(g):
            assert np.allclose(lly, forman, rtol=0, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(strict_measured_metrics(), st.integers(-60, 60))
    def test_curvatures_are_scale_free_under_powers_of_two(self, case, k):
        # both read omega through _unit_scale, so omega 2**k poses the same LPs
        g, w = case
        scaled = MetricAssignment.from_vector(g, 2.0**k * w.vector(g))
        assert np.array_equal(lly_vector(g, scaled), lly_vector(g, w))
        assert np.array_equal(forman_vector(g, scaled), forman_vector(g, w))

    @settings(max_examples=20, deadline=None)
    @given(strict_measured_metrics())
    def test_transport_estimate_agrees_with_lp(self, case):
        g, w = case
        lly = lly_vector(g, w)
        for eps in (default_epsilon(g), default_epsilon(g) / 2):
            assert np.allclose(lly_limit_estimate(g, w, eps), lly, rtol=0, atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(strict_measured_metrics())
    def test_transport_estimate_vector_equals_per_edge_reference(self, case):
        g, w = case
        for eps in (default_epsilon(g), default_epsilon(g) / 2):
            reference = [reference_lly_limit_estimate(g, w, e, eps) for e in g.edges]
            assert np.array_equal(lly_limit_estimate(g, w, eps), reference)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(wheels_with_bridged_tails(), strict_measured_metrics()))
    def test_local_lps_agree_with_whole_graph_lp(self, case):
        g, w = case
        assert np.allclose(lly_vector(g, w), reference_lly_vector(g, w), rtol=0, atol=1e-10)
