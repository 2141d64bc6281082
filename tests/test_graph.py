import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciflow import (
    DisconnectedAfterSurgery,
    GraphError,
    GraphParseError,
    MeasuredGraph,
    MetricAssignment,
    apply_surgery,
    build_named_graph,
    deg_measure,
    edge_key,
    is_tree,
    line_graph_adjacency,
    parse_graph_text,
    shortest_distance,
    surgery_scan,
)
from ricciflow.graph import SURGERY_TOL
from conftest import random_connected_graph, random_metric, random_tree


def brute_force_distance(g, omega, u, v, excluded_edge=None):
    """Oracle: exhaustive enumeration of simple paths."""
    skip = edge_key(*excluded_edge) if excluded_edge else None
    best = math.inf
    if u == v:
        return 0.0

    def walk(x, seen, acc):
        nonlocal best
        if acc >= best:
            return
        if x == v:
            best = acc
            return
        for y, _ in g.adjacency[x]:
            k = edge_key(x, y)
            if k == skip or y in seen:
                continue
            walk(y, seen | {y}, acc + omega.values[g.edge_index[k]])

    walk(u, {u}, 0.0)
    return best


class TestConstruction:
    def test_path_uniform(self):
        g = build_named_graph("path", 2)
        assert g.n_vertices == 3 and g.n_edges == 2
        assert all(v == 1.0 for v in g.m1.values())
        assert all(v == 1.0 for v in g.m2.values())

    def test_star_center_degree(self):
        g = build_named_graph("star", 3)
        assert g.degree(0) == 3

    def test_star_normalized_measures(self):
        a = [2.0, 3.0, 5.0]
        g = build_named_graph("star", 3, "normalized_deg1", m2_values=a)
        assert g.m1[0] == sum(a)
        for i, leaf in enumerate((1, 2, 3)):
            assert g.m1[leaf] == a[i]
        for x in g.vertices:
            assert deg_measure(g, x) == pytest.approx(1.0)

    def test_invalid_n(self):
        with pytest.raises(GraphError):
            build_named_graph("path", 0)
        with pytest.raises(GraphError):
            build_named_graph("cycle", 2)

    def test_wrong_m2_count(self):
        with pytest.raises(GraphError):
            build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0])

    def test_rejects_loop_and_parallel(self):
        with pytest.raises(GraphError):
            MeasuredGraph((0, 1), ((0, 0),), {0: 1, 1: 1}, {edge_key(0, 0): 1})
        with pytest.raises(GraphError):
            MeasuredGraph(
                (0, 1),
                ((0, 1), (1, 0)),
                {0: 1, 1: 1},
                {edge_key(0, 1): 1},
            )

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            MeasuredGraph(
                (0, 1, 2, 3),
                ((0, 1), (2, 3)),
                {i: 1.0 for i in range(4)},
                {edge_key(0, 1): 1.0, edge_key(2, 3): 1.0},
            )

    def test_rejects_edgeless(self):
        # one vertex and no edge is connected, but no curvature is defined
        with pytest.raises(GraphError, match="at least one edge"):
            MeasuredGraph(("a",), (), {"a": 1.0}, {})

    def test_rejects_nonpositive_measures(self):
        with pytest.raises(GraphError):
            MeasuredGraph((0, 1), ((0, 1),), {0: 0.0, 1: 1.0}, {edge_key(0, 1): 1.0})
        with pytest.raises(GraphError):
            MetricAssignment(((0, 1),), [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_measures(self, bad):
        with pytest.raises(GraphError, match="finite"):
            MeasuredGraph((0, 1), ((0, 1),), {0: bad, 1: 1.0}, {edge_key(0, 1): 1.0})
        with pytest.raises(GraphError, match="finite"):
            MeasuredGraph((0, 1), ((0, 1),), {0: 1.0, 1: 1.0}, {edge_key(0, 1): bad})
        with pytest.raises(GraphError, match="finite"):
            build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0, bad, 1.0])


class TestMetricAssignment:
    def test_rejects_wrong_length(self):
        g = build_named_graph("path", 3)
        for vec in ([1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]]):
            with pytest.raises(GraphError, match="length"):
                MetricAssignment.from_vector(g, vec)

    def test_rejects_graph_with_other_edges(self):
        g = build_named_graph("cycle", 4)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        assert w.vector(g).tolist() == [1.0, 1.0, 1.0, 3.5]
        for other in (g.without_edge(*g.edges[3]), build_named_graph("path", 4)):
            with pytest.raises(GraphError, match="another edge tuple"):
                w.vector(other)

    def test_values_are_a_read_only_copy(self):
        g = build_named_graph("path", 3)
        vec = np.array([1.0, 2.0, 3.0])
        w = MetricAssignment.from_vector(g, vec)
        vec[0] = 5.0
        assert w.vector(g).dtype == float and w.vector(g).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            w.values[0] = 5.0
        assert w.values.tolist() == [1.0, 2.0, 3.0]

    def test_nonpositive_and_nan_weights(self):
        g = build_named_graph("path", 2)
        with pytest.raises(GraphError, match="must be positive"):
            MetricAssignment.from_vector(g, [1.0, -2.0])
        # the check is omega <= 0, which nan passes
        assert math.isnan(MetricAssignment.from_vector(g, [1.0, math.nan]).values[1])


class TestDegMeasure:
    def test_uniform_p3_interior(self):
        g = build_named_graph("path", 2)
        assert deg_measure(g, 1) == pytest.approx(2.0)

    def test_uniform_star_center(self):
        g = build_named_graph("star", 3)
        assert deg_measure(g, 0) == pytest.approx(3.0)

    def test_unknown_vertex(self):
        g = build_named_graph("path", 2)
        with pytest.raises(GraphError):
            deg_measure(g, "nope")


class TestShortestDistance:
    def test_weighted_path(self):
        g = build_named_graph("path", 2)
        w = MetricAssignment.from_vector(g, [1.0, 2.0])
        assert shortest_distance(g, w, 0, 2) == pytest.approx(3.0)

    def test_triangle_excluded(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        u, v = g.edges[2]
        assert shortest_distance(g, w, u, v, excluded_edge=(u, v)) == pytest.approx(2.0)

    def test_identity(self):
        g = build_named_graph("cycle", 5)
        w = MetricAssignment.uniform(g)
        assert shortest_distance(g, w, 2, 2) == 0.0

    def test_unreachable_after_exclusion(self):
        g = build_named_graph("path", 2)
        w = MetricAssignment.uniform(g)
        assert shortest_distance(g, w, 0, 2, excluded_edge=(0, 1)) == math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 3)
        w = random_metric(rng, g)
        for excluded in [None, *g.edges]:
            for u in g.vertices:
                for v in g.vertices:
                    assert shortest_distance(
                        g, w, u, v, excluded_edge=excluded
                    ) == pytest.approx(
                        brute_force_distance(g, w, u, v, excluded_edge=excluded)
                    )

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_connected_graph(rng, 6, 2)
        w = random_metric(rng, g)
        d = {
            (u, v): shortest_distance(g, w, u, v)
            for u in g.vertices
            for v in g.vertices
        }
        for u, v, x in itertools.product(g.vertices, repeat=3):
            assert d[u, v] == pytest.approx(d[v, u])
            assert d[u, v] <= d[u, x] + d[x, v] + 1e-12
        for u in g.vertices:
            assert d[u, u] == 0.0


def scan_oracle(g, w):
    """Edges e with w(e) >= (shortest path avoiding e) - SURGERY_TOL, by enumeration."""
    return [
        e
        for e, we in zip(g.edges, w.values)
        if we >= brute_force_distance(g, w, *e, excluded_edge=e) - SURGERY_TOL
    ]


# weights in [0.2, 5]; the grid values make exact ties between paths likely
WEIGHTS = st.one_of(st.floats(0.2, 5.0), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))


@st.composite
def weighted_graphs(draw):
    """Random tree on up to 8 vertices plus random chords, with weights."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    chords = [(i, j) for j in range(n) for i in range(j) if (i, j) not in edges]
    if chords:
        edges += draw(st.lists(st.sampled_from(chords), unique=True, max_size=10))
    g = MeasuredGraph(
        tuple(range(n)),
        tuple(edges),
        dict.fromkeys(range(n), 1.0),
        {edge_key(u, v): 1.0 for u, v in edges},
    )
    w = draw(st.lists(WEIGHTS, min_size=len(edges), max_size=len(edges)))
    return g, MetricAssignment.from_vector(g, w)


class TestSurgery:
    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_scan_matches_exact_detours(self, case):
        g, w = case
        assert surgery_scan(g, w) == scan_oracle(g, w)

    @pytest.mark.parametrize(
        "n, weights, n_bad",
        [
            (4, [1.0, 1.0, 1.0, 3.0], 1),
            (6, [1.0] * 6, 0),
            (3, [1.0, 1.0, 2.0], 1),
            (4, [1.0, 1.0, 1.0, 3.0 - 0.5 * SURGERY_TOL], 1),
            (4, [1.0, 1.0, 1.0, 3.0 - 2.0 * SURGERY_TOL], 0),
        ],
    )
    def test_scan_matches_exact_detours_at_ties(self, n, weights, n_bad):
        g = build_named_graph("cycle", n)
        w = MetricAssignment.from_vector(g, weights)
        assert surgery_scan(g, w) == scan_oracle(g, w)
        assert len(surgery_scan(g, w)) == n_bad

    def test_triangle_violation(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        bad = surgery_scan(g, w)
        assert bad == [g.edges[2]]
        # oracle: exhaustive path enumeration
        u, v = g.edges[2]
        assert brute_force_distance(g, w, u, v, excluded_edge=(u, v)) <= 2.0

    def test_triangle_ok(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 1.5])
        assert surgery_scan(g, w) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_tree_never_degenerate(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, 8)
        w = random_metric(rng, g)
        assert surgery_scan(g, w) == []

    def test_apply_surgery_triangle(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        g2, w2, events = apply_surgery(g, w)
        assert g2.n_edges == 2 and is_tree(g2)
        assert len(events) == 1
        assert events[0].removed_edge == g.edges[2]
        assert events[0].edge_weight >= events[0].alternative_distance
        assert surgery_scan(g2, w2) == []

    def test_apply_surgery_tree_noop(self):
        g = build_named_graph("path", 4)
        w = MetricAssignment.uniform(g)
        g2, w2, events = apply_surgery(g, w)
        assert g2 is g and events == []

    def test_square_becomes_path(self):
        g = build_named_graph("cycle", 4)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.0])
        g2, w2, events = apply_surgery(g, w)
        assert len(events) == 1 and is_tree(g2)
        assert events[0].removed_edge == g.edges[3]

    @pytest.mark.parametrize("seed", range(5))
    def test_post_surgery_scan_empty(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_connected_graph(rng, 6, 4)
        w = random_metric(rng, g, 0.5, 4.0)
        try:
            g2, w2, _ = apply_surgery(g, w)
        except DisconnectedAfterSurgery:
            return
        assert surgery_scan(g2, w2) == []


class TestLineGraph:
    def test_path_line_graph_is_path(self):
        g = build_named_graph("path", 4)
        b = line_graph_adjacency(g)
        expect = np.zeros((4, 4))
        for i in range(3):
            expect[i, i + 1] = expect[i + 1, i] = 1.0
        assert np.array_equal(b, expect)

    def test_star_line_graph_is_complete(self):
        g = build_named_graph("star", 4)
        b = line_graph_adjacency(g)
        assert np.array_equal(b, np.ones((4, 4)) - np.eye(4))

    def test_single_edge(self):
        g = build_named_graph("path", 1)
        assert np.array_equal(line_graph_adjacency(g), np.zeros((1, 1)))

    def test_ends_follow_edge_order(self):
        g = MeasuredGraph(
            ("x", "y", "z"), (("z", "x"), ("x", "y")), dict.fromkeys("xyz", 1.0),
            {edge_key("z", "x"): 1.0, edge_key("x", "y"): 1.0},
        )
        assert g.ends.tolist() == [[2, 0], [0, 1]] and g.ends.dtype == np.intp

    @pytest.mark.parametrize("seed", range(3))
    def test_row_sums(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_connected_graph(rng, 7, 2)
        b = line_graph_adjacency(g)
        assert np.array_equal(b, b.T)
        assert np.all(np.diag(b) == 0)
        for i, (u, v) in enumerate(g.edges):
            assert b[i].sum() == g.degree(u) + g.degree(v) - 2


class TestIsTree:
    def test_cases(self):
        assert is_tree(build_named_graph("path", 2))
        assert not is_tree(build_named_graph("cycle", 3))
        assert is_tree(build_named_graph("star", 6))


class TestGraphFile:
    GOOD = """
# tiny path
graph 3 2
vertex a 1.0
vertex b 1.0
vertex c 2.0
edge a b 1.0 0.5
edge b c 3.0 0.25
"""

    def test_round_trip(self):
        g, w0 = parse_graph_text(self.GOOD)
        assert g.vertices == ("a", "b", "c")
        assert g.m1["c"] == 2.0
        assert g.m2_of("b", "c") == 3.0
        assert w0.vector(g)[0] == 0.5

    def test_no_omega0(self):
        text = "graph 2 1\nvertex x 1\nvertex y 1\nedge x y 1\n"
        g, w0 = parse_graph_text(text)
        assert w0 is None

    def test_empty(self):
        with pytest.raises(GraphParseError):
            parse_graph_text("")

    def test_bad_header(self):
        with pytest.raises(GraphParseError):
            parse_graph_text("graf 1 0")

    def test_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_graph_text("graph 3 1\nvertex a 1\nvertex b 1\nedge a b 1\n")

    @pytest.mark.parametrize(
        "vertex_a, edge",
        [
            ("vertex a nan", "edge a b 1"),
            ("vertex a inf", "edge a b 1"),
            ("vertex a 1", "edge a b inf"),
            ("vertex a 1", "edge a b nan 1"),
            ("vertex a 1", "edge a b 1 nan"),
            ("vertex a 1", "edge a b 1 -inf"),
        ],
    )
    def test_rejects_nonfinite_values(self, vertex_a, edge):
        text = f"graph 2 1\n{vertex_a}\nvertex b 1\n{edge}\n"
        with pytest.raises(GraphParseError, match="finite"):
            parse_graph_text(text)
