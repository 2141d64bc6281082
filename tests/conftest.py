"""Shared helpers: deterministic random graph generators, trajectory samples."""

import numpy as np
import pytest

from ricciflow import MeasuredGraph, MetricAssignment, edge_key, jacobi_eigh

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def _warm_jacobi():
    # compile the JIT kernel outside any timed assertion
    jacobi_eigh(np.array([[2.0, 1.0], [1.0, 3.0]]))


def tree_edges_from_pruefer(seq, n):
    """Decode a Pruefer sequence into the edge list of a labeled tree on n nodes."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_tree(rng, n_vertices, uniform_measures=True):
    if n_vertices == 1:
        raise ValueError("need at least one edge")
    if n_vertices == 2:
        edges = [(0, 1)]
    else:
        seq = [int(rng.integers(0, n_vertices)) for _ in range(n_vertices - 2)]
        edges = tree_edges_from_pruefer(seq, n_vertices)
    return build_measured(rng, n_vertices, edges, uniform=uniform_measures)


def random_connected_graph(rng, n_vertices, extra_edges, uniform_measures=True):
    """Random tree plus extra chords (guaranteed cycles when extra_edges > 0)."""
    if n_vertices == 2:
        edges = [(0, 1)]
    else:
        seq = [int(rng.integers(0, n_vertices)) for _ in range(n_vertices - 2)]
        edges = tree_edges_from_pruefer(seq, n_vertices)
    present = {frozenset(e) for e in edges}
    candidates = [
        (i, j)
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if frozenset((i, j)) not in present
    ]
    rng.shuffle(candidates)
    edges = edges + candidates[:extra_edges]
    return build_measured(rng, n_vertices, edges, uniform=uniform_measures)


def build_measured(rng, n_vertices, edges, uniform=True):
    vertices = tuple(range(n_vertices))
    if uniform:
        m1 = {x: 1.0 for x in vertices}
        m2 = {edge_key(u, v): 1.0 for u, v in edges}
    else:
        m1 = {x: float(rng.uniform(0.5, 2.0)) for x in vertices}
        m2 = {edge_key(u, v): float(rng.uniform(0.5, 2.0)) for u, v in edges}
    return MeasuredGraph(vertices, tuple(edges), m1, m2)


def random_metric(rng, g, low=0.5, high=2.0):
    return MetricAssignment.from_vector(g, rng.uniform(low, high, g.n_edges))


def trajectory_samples(traj):
    """(t, omega row, kappa row) per sample, read from the trajectory segments."""
    return [sample for segment in traj.segments for sample in zip(*segment)]
