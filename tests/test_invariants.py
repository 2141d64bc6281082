"""The paper's curvature and spectral invariants on every small graph.

Every connected graph on 2-6 vertices in networkx's atlas (Read & Wilson,
*An Atlas of Graphs*), 142 in all, is checked twice: once with uniform
measures and metric, and once with m1 and m2 drawn from [0.5, 2) and
omega = 1 + 0.2 * rand, from a generator seeded by the atlas index.  The
set is exhaustive, so no sample can miss a counterexample.  On the same
graphs, scaling m1 or m2 by a power of two must leave the Forman flow's
class and limit as they are, bit for bit.

The Lin-Lu-Yau flow exists on every graph, so every connected non-tree
graph on 3-5 vertices, 23 in all, flows to its end under four seeded
initial metrics.
"""

import networkx as nx
import numpy as np
import pytest

from ricciflow import (
    MeasuredGraph,
    MetricAssignment,
    build_flow_matrix,
    classify_convergence,
    eigendecompose,
    forman_vector,
    is_tree,
    lly_flow_integrate,
    lly_vector,
)
from ricciflow.cli import _flow_times
from ricciflow.spectral import EIGEN_GAP_TOL

ATLAS = [
    (i, h)
    for i, h in enumerate(nx.graph_atlas_g())
    if 2 <= h.number_of_nodes() <= 6 and nx.is_connected(h)
]
NON_TREES = [(i, h) for i, h in ATLAS if h.number_of_nodes() <= 5 and not nx.is_tree(h)]


def atlas_case(index, h, measures):
    """(graph, omega) of atlas graph ``index`` under the given measures."""
    n, edges = h.number_of_nodes(), tuple(h.edges())
    if measures == "uniform":
        g = MeasuredGraph(tuple(range(n)), edges, np.ones(n), np.ones(len(edges)))
        return g, MetricAssignment.uniform(g)
    rng = np.random.default_rng(index)
    m1, m2 = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, len(edges))
    g = MeasuredGraph(tuple(range(n)), edges, m1, m2)
    return g, MetricAssignment.from_vector(g, 1.0 + 0.2 * rng.random(len(edges)))


def test_atlas_is_every_connected_graph_on_2_to_6_vertices():
    assert len(ATLAS) == 142
    assert len(NON_TREES) == 23


@pytest.mark.parametrize("measures", ["uniform", "random"])
@pytest.mark.parametrize("index, h", ATLAS, ids=[f"G{i}" for i, _ in ATLAS])
def test_invariants(index, h, measures):
    g, omega = atlas_case(index, h, measures)
    forman, lly = forman_vector(g, omega), lly_vector(g, omega)
    # Lin-Lu-Yau dominates Forman, with equality on trees
    assert np.all(lly >= forman - 1e-12 * np.maximum(1.0, np.abs(forman)))
    if is_tree(g):
        assert np.all(np.abs(lly - forman) <= 1e-12)
    # both curvatures are scale-free, bit for bit under a power of two
    scaled = MetricAssignment.from_vector(g, 8.0 * omega.vector(g))
    assert forman_vector(g, scaled).tobytes() == forman.tobytes()
    assert lly_vector(g, scaled).tobytes() == lly.tobytes()
    # a connected graph's flow matrix has a simple top eigenvalue and a
    # positive Perron vector
    sd = eigendecompose(build_flow_matrix(g))
    if g.n_edges > 1:
        assert sd.eigenvalues[-1] - sd.eigenvalues[-2] > EIGEN_GAP_TOL
    assert np.all(sd.perron_vector > 0)


@pytest.mark.parametrize("measures", ["uniform", "random"])
@pytest.mark.parametrize("index, h", ATLAS, ids=[f"G{i}" for i, _ in ATLAS])
def test_forman_limit_is_free_of_the_measure_scale(index, h, measures):
    # m1 -> c m1 scales F by 1/c and m2 -> c m2 scales it by c, so the class
    # and the limiting normalized metric stay, and lambda_max scales exactly
    g, _ = atlas_case(index, h, measures)
    base = classify_convergence(g)
    for j in (-60, -40, 40, 60):
        c = 2.0**j
        for m1, m2, factor in ((c * g.m1, g.m2, 1 / c), (g.m1, c * g.m2, c)):
            report = classify_convergence(MeasuredGraph(g.vertices, g.edges, m1, m2))
            assert report.classification == base.classification, (j, factor)
            assert report.lambda_max == base.lambda_max * factor, (j, factor)
            limit = report.limiting_normalized_metric
            assert limit.tobytes() == base.limiting_normalized_metric.tobytes(), (j, factor)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("index, h", NON_TREES, ids=[f"G{i}" for i, _ in NON_TREES])
def test_lly_flow_runs_to_its_end(index, h, seed):
    # steps of 0.5 make RK4 stages that leave an edge longer than its
    # detour; the curvature reads them on the path metric, and surgery
    # cuts only accepted states
    g, _ = atlas_case(index, h, "uniform")
    omega0 = 0.5 + 1.5 * np.random.default_rng(seed).random(g.n_edges)
    times = _flow_times(3.0, 0.5)
    traj = lly_flow_integrate(g, MetricAssignment.from_vector(g, omega0), times)
    assert traj.times == times.tolist()
