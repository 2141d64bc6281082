"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces its tolerance and a
wall-clock budget, and prints one PASS/FAIL line (straight to the real
stdout so the summary survives pytest capture).
"""

import math
import sys
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest
from scipy.linalg import expm

from ricciflow import (
    MeasuredGraph,
    MetricAssignment,
    build_flow_matrix,
    build_named_graph,
    classify_convergence,
    classify_tree_uniform,
    eigendecompose,
    forman_edge,
    forman_flow_exact,
    inverse_curvature,
    jacobi_eigh,
    lly_edge,
    lly_flow_integrate,
    lly_limit_estimate,
    surgery_scan,
)
from ricciflow.spectral import BIG_DEGREE_CASE, K13_CASE, PATH_CASE
from ricciflow.cli import figure2_graph, figure2_initial_metric
from conftest import (
    build_measured,
    line_graph_adjacency,
    normalized_flow_state,
    random_connected_graph,
    random_metric,
    random_tree,
    trajectory_samples,
)


def _emit(line):
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _emit(f"criterion {num:2d} FAIL: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    _emit(
        f"criterion {num:2d} {status}: {description} "
        f"({elapsed:.2f}s, limit {limit_seconds:g}s)"
    )
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over {limit_seconds}s"


def horizon(sd):
    """t* = 40/gap when the spectral gap is positive, else 40/|lambda_max|."""
    if len(sd.eigenvalues) > 1:
        gap = sd.eigenvalues[-1] - sd.eigenvalues[-2]
        if gap > 0:
            return 40.0 / gap
    return 40.0 / abs(sd.lambda_max)


def measured_from_nx(tree):
    vertices = tuple(sorted(tree.nodes))
    edges = tuple((u, v) for u, v in tree.edges)
    return MeasuredGraph(
        vertices,
        edges,
        [1.0] * len(vertices),
        [1.0] * len(edges),
    )


def tree_with_paw_motif(rng):
    """Random tree containing a degree-3 vertex adjacent to a pendant chain
    of length >= 2: center 0 has exactly the neighbors 1 (chain 1-2),
    3 (leaf), and 4; the random part grows only below vertex 4."""
    n_extra = int(rng.integers(1, 7))
    edges = [(0, 1), (1, 2), (0, 3), (0, 4)]
    next_id = 5
    attach_points = [4]
    for _ in range(n_extra):
        base = int(rng.choice(attach_points))
        edges.append((base, next_id))
        attach_points.append(next_id)
        next_id += 1
    vertices = tuple(range(next_id))
    return MeasuredGraph(
        vertices,
        tuple(edges),
        [1.0] * len(vertices),
        [1.0] * len(edges),
    )


def normalized_deg1_graph(rng, family, n):
    a = rng.uniform(0.2, 5.0, n)
    return build_named_graph(family, n, "normalized_deg1", m2_values=list(a))


class TestAcceptance:
    def test_01_path_eigenvalue_law(self):
        with criterion(1, "uniform path limiting curvature 2(1-cos(pi/(n+1)))", 1.0):
            for n in range(1, 51):
                g = build_named_graph("path", n)
                sd = eigendecompose(build_flow_matrix(g))
                expect = 2.0 * (1.0 - math.cos(math.pi / (n + 1)))
                assert abs(-sd.lambda_max - expect) < 1e-9

    def test_02_star_law(self):
        with criterion(2, "star lambda_max = n-3 and K13 flow limit mean(w0)", 1.0):
            for n in range(2, 21):
                g = build_named_graph("star", n)
                sd = eigendecompose(build_flow_matrix(g))
                assert abs(sd.lambda_max - (n - 3)) < 1e-9
            g = build_named_graph("star", 3)
            w0 = MetricAssignment.from_vector(g, [0.7, 1.9, 2.8])
            sd = eigendecompose(build_flow_matrix(g))
            traj = forman_flow_exact(g, w0, [horizon(sd)])
            _, omega, _ = trajectory_samples(traj)[-1]
            target = sum(w0.vector(g)) / 3.0
            for v in omega:
                assert abs(v - target) < 1e-6

    def test_03_tree_trichotomy_exhaustive(self):
        with criterion(3, "trichotomy on all trees with <= 9 edges", 30.0):
            count = 0
            for order in range(2, 11):
                for t in nx.nonisomorphic_trees(order):
                    g = measured_from_nx(t)
                    case = classify_tree_uniform(g)
                    lam = eigendecompose(build_flow_matrix(g)).lambda_max
                    if case == PATH_CASE:
                        assert lam < -1e-9
                    elif case == K13_CASE:
                        assert abs(lam) <= 1e-9
                    else:
                        assert case == BIG_DEGREE_CASE and lam > 1e-9
                    degrees = sorted(g.degree(x) for x in g.vertices)
                    if degrees[-1] <= 2:
                        assert case == PATH_CASE
                    elif degrees == [1, 1, 1, 3]:
                        assert case == K13_CASE
                    count += 1
            assert count == 200  # orders 2..10

    def test_04_paw_bound(self):
        with criterion(4, "lambda_max(B) > 2.17 on 200 paw-motif trees", 10.0):
            rng = np.random.default_rng(1234)
            for _ in range(200):
                g = tree_with_paw_motif(rng)
                deg = {x: g.degree(x) for x in g.vertices}
                assert deg[0] == 3 and deg[1] == 2 and deg[2] == 1
                w, _ = jacobi_eigh(line_graph_adjacency(g))
                assert w[-1] > 2.17

    def test_05_tree_curvature_equality(self):
        with criterion(5, "|lly - forman| < 1e-8 on 100 random weighted trees", 30.0):
            rng = np.random.default_rng(42)
            for _ in range(100):
                g = random_tree(rng, int(rng.integers(2, 14)), uniform_measures=False)
                w = random_metric(rng, g)
                for e in g.edges:
                    assert abs(lly_edge(g, w, e) - forman_edge(g, w, e)) < 1e-8

    def test_06_domination_and_transport_oracle(self):
        with criterion(6, "lly >= forman - 1e-8 and transport oracle on 50 cyclic graphs", 120.0):
            rng = np.random.default_rng(7)
            done = 0
            while done < 50:
                n = int(rng.integers(4, 11))
                g = random_connected_graph(
                    rng, n, int(rng.integers(1, 4)), uniform_measures=False
                )
                w = random_metric(rng, g, 0.9, 1.1)
                if surgery_scan(g, w):
                    continue
                estimate = lly_limit_estimate(g, w)
                for i, e in enumerate(g.edges):
                    kap = lly_edge(g, w, e)
                    assert kap >= forman_edge(g, w, e) - 1e-8
                    assert abs(kap - estimate[i]) < 1e-6
                done += 1

    def test_07_exact_vs_numerical_flow(self):
        with criterion(7, "forman_flow_exact vs lly_flow_integrate on 20 trees", 120.0):
            rng = np.random.default_rng(99)
            done = 0
            while done < 20:
                g = random_tree(rng, int(rng.integers(2, 9)), uniform_measures=False)
                # keep the growth rate bounded so weights stay around O(100)
                # at t=5 and the absolute sup-norm comparison is meaningful
                # at double precision
                if eigendecompose(build_flow_matrix(g)).lambda_max > 1.0:
                    continue
                done += 1
                w0 = random_metric(rng, g)
                traj = lly_flow_integrate(g, w0, 5.0, 1e-3)
                exact = forman_flow_exact(g, w0, traj.times[1:])
                sup = 0.0
                for (_, omega, _), (_, we, _) in zip(
                    trajectory_samples(traj)[1:], trajectory_samples(exact)
                ):
                    for k in range(g.n_edges):
                        sup = max(sup, abs(omega[k] - we[k]))
                assert sup < 1e-6

    def test_08_long_time_limits(self):
        with criterion(8, "curvature -> -lambda_max, metric -> Perron shape (20 graphs)", 60.0):
            rng = np.random.default_rng(5)
            for _ in range(20):
                g = random_connected_graph(
                    rng, int(rng.integers(4, 9)), int(rng.integers(0, 3)),
                    uniform_measures=False,
                )
                w0 = random_metric(rng, g)
                fm = build_flow_matrix(g)
                sd = eigendecompose(fm)
                shape = normalized_flow_state(g, w0, horizon(sd)).vector(g)
                kappa = -(fm.F @ shape) / shape
                assert np.max(np.abs(kappa + sd.lambda_max)) < 1e-6
                report = classify_convergence(g)
                limit = report.limiting_normalized_metric
                assert np.max(np.abs(shape - limit)) < 1e-6

    def test_09_initial_condition_independence(self):
        with criterion(9, "limiting normalized metric independent of omega0 (10 graphs)", 10.0):
            rng = np.random.default_rng(17)
            for _ in range(10):
                g = random_connected_graph(
                    rng, int(rng.integers(4, 9)), int(rng.integers(0, 3)),
                    uniform_measures=False,
                )
                sd = eigendecompose(build_flow_matrix(g))
                t_star = horizon(sd)
                w0a = random_metric(rng, g)
                w0b = random_metric(rng, g)
                ra = classify_convergence(g).limiting_normalized_metric
                rb = classify_convergence(g).limiting_normalized_metric
                for k in range(g.n_edges):
                    assert abs(ra[k] - rb[k]) < 1e-8
                sa = normalized_flow_state(g, w0a, t_star).vector(g)
                sb = normalized_flow_state(g, w0b, t_star).vector(g)
                assert np.max(np.abs(sa - sb)) < 1e-8

    def test_10_figure2_symmetry(self):
        with criterion(10, "perturbed tree flow: symmetric edges share limits", 30.0):
            g = figure2_graph()
            fm = build_flow_matrix(g)
            sd = eigendecompose(fm)
            t_star = horizon(sd)
            for delta in (0.0, 0.01, 0.02, 0.03):
                w0 = figure2_initial_metric(g, delta)
                vec = normalized_flow_state(g, w0, t_star).vector(g)
                weight = dict(zip(g.edges, vec))
                assert abs(
                    weight[1, 5] - weight[2, 5]
                ) < 1e-6
                assert abs(
                    weight[6, 7] - weight[6, 8]
                ) < 1e-6
                kappa = -(fm.F @ vec) / vec
                assert np.max(kappa) - np.min(kappa) < 1e-6
                assert np.all(kappa < 0)

    def test_11_degree_one_families_negative_definite(self):
        with criterion(11, "Deg=1 paths and stars have lambda_max(Ftilde) < 0", 5.0):
            rng = np.random.default_rng(23)
            for family in ("path", "star"):
                for _ in range(15):
                    n = int(rng.integers(2, 31))
                    g = normalized_deg1_graph(rng, family, n)
                    sd = eigendecompose(build_flow_matrix(g))
                    assert sd.lambda_max < 0

    def test_12_inverse_round_trip(self):
        with criterion(12, "Forman curvature round trip through inverse problem", 10.0):
            rng = np.random.default_rng(31)
            for _ in range(10):
                g = random_tree(rng, int(rng.integers(3, 10)), uniform_measures=False)
                w = random_metric(rng, g)
                kappa = np.array([forman_edge(g, w, (u, v)) for u, v in g.edges])
                res = inverse_curvature(g, kappa, tol=1e-8)
                assert res.metric is not None
                assert abs(res.lambda_max) < 1e-9
                for i, (u, v) in enumerate(g.edges):
                    assert abs(
                        forman_edge(g, res.metric, (u, v)) - kappa[i]
                    ) < 1e-7

    def test_13_perron_and_positivity(self):
        with criterion(13, "simple top eigenvalue, positive Perron vector, positive flow", 30.0):
            rng = np.random.default_rng(101)
            for _ in range(100):
                g = random_connected_graph(
                    rng, int(rng.integers(3, 9)), int(rng.integers(0, 3)),
                    uniform_measures=False,
                )
                fm = build_flow_matrix(g)
                sd = eigendecompose(fm)  # raises if the gap or positivity fails
                if g.n_edges > 1:
                    assert sd.eigenvalues[-1] - sd.eigenvalues[-2] > 1e-10
                assert np.all(sd.perron_vector > 0)
                w0 = random_metric(rng, g).vector(g)
                for t in (0.1, 1.0, 5.0):
                    # independent route: dense matrix exponential
                    assert np.all(expm(t * fm.F) @ w0 > 0)
