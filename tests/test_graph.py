import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ricciflow import (
    GraphError,
    MeasuredGraph,
    MetricAssignment,
    apply_surgery,
    build_named_graph,
    deg_measure,
    is_tree,
    load_graph,
    parse_graph_text,
    shortest_distance,
    surgery_scan,
)
from ricciflow.graph import SURGERY_TOL
from conftest import (
    distance_matrix,
    line_graph_adjacency,
    random_connected_graph,
    random_metric,
    random_tree,
)


def brute_force_distance(g, omega, u, v, excluded_edge=None):
    """Oracle: exhaustive enumeration of simple paths."""
    skip = g.position(*excluded_edge) if excluded_edge else None
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
        for y, j in g.adjacency[x]:
            if j == skip or y in seen:
                continue
            walk(y, seen | {y}, acc + omega.values[j])

    walk(u, {u}, 0.0)
    return best


class TestConstruction:
    def test_path_uniform(self):
        g = build_named_graph("path", 2)
        assert g.n_vertices == 3 and g.n_edges == 2
        assert all(v == 1.0 for v in g.m1)
        assert all(v == 1.0 for v in g.m2)

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

    def test_unknown_measure_mode(self):
        with pytest.raises(GraphError, match="unknown measure mode 'bogus'"):
            build_named_graph("path", 2, measure_mode="bogus")

    def test_position_of_a_non_edge(self):
        g = build_named_graph("path", 2)
        assert g.position(2, 1) == 1
        with pytest.raises(GraphError, match=r"\(0, 2\) is not an edge"):
            g.position(0, 2)

    def test_rejects_loop_and_parallel(self):
        with pytest.raises(GraphError):
            MeasuredGraph((0, 1), ((0, 0),), [1, 1], [1])
        with pytest.raises(GraphError):
            MeasuredGraph(
                (0, 1),
                ((0, 1), (1, 0)),
                [1, 1],
                [1, 1],
            )

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            MeasuredGraph(
                (0, 1, 2, 3),
                ((0, 1), (2, 3)),
                [1.0] * 4,
                [1.0, 1.0],
            )

    def test_rejects_edgeless(self):
        # one vertex and no edge is connected, but no curvature is defined
        with pytest.raises(GraphError, match="at least one edge"):
            MeasuredGraph(("a",), (), [1.0], [])

    def test_rejects_nonpositive_measures(self):
        with pytest.raises(GraphError):
            MeasuredGraph((0, 1), ((0, 1),), [0.0, 1.0], [1.0])
        with pytest.raises(GraphError):
            MetricAssignment(((0, 1),), [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_measures(self, bad):
        with pytest.raises(GraphError, match="finite"):
            MeasuredGraph((0, 1), ((0, 1),), [bad, 1.0], [1.0])
        with pytest.raises(GraphError, match="finite"):
            MeasuredGraph((0, 1), ((0, 1),), [1.0, 1.0], [bad])
        with pytest.raises(GraphError, match="finite"):
            build_named_graph("star", 3, "normalized_deg1", m2_values=[1.0, bad, 1.0])

    def test_measures_are_read_only_arrays_in_order(self):
        vertices, edges = ("a", "b", "c"), (("a", "b"), ("b", "c"))
        wrong = [([1.0, 2.0], [1.0, 1.0]), ([1.0] * 3, [1.0]), ([1.0] * 3, [[1.0, 1.0]])]
        for m1, m2 in wrong:
            with pytest.raises(GraphError, match="length"):
                MeasuredGraph(vertices, edges, m1, m2)
        m1 = np.array([1.0, 2.0, 3.0])
        g = MeasuredGraph(vertices, edges, m1, [4, 5])
        m1[0] = 9.0
        assert g.m1.tolist() == [1.0, 2.0, 3.0] and g.m2.tolist() == [4.0, 5.0]
        assert g.m2.dtype == float
        for arr in (g.m1, g.m2):
            with pytest.raises(ValueError):
                arr[0] = 7.0
        assert g.m1.tolist() == [1.0, 2.0, 3.0] and g.m2.tolist() == [4.0, 5.0]


TRIANGLE_WITH_PENDANT = MeasuredGraph(
    (0, 1, 2, 3), ((0, 1), (1, 2), (2, 0), (2, 3)), [1.0] * 4, [1.0] * 4
)


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
        for other in (g.without_edge(3), build_named_graph("path", 4)):
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
        for bad in (-2.0, 0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(GraphError, match=r"omega\(1, 2\) must be positive and finite"):
                MetricAssignment.from_vector(g, [1.0, bad])

    def test_infinite_pendant_weight(self):
        # a bridge with an infinite weight has no unit scale
        with pytest.raises(GraphError, match=r"omega\(2, 3\) must be positive and finite"):
            MetricAssignment.from_vector(TRIANGLE_WITH_PENDANT, [1.0, 1.0, 1.0, math.inf])


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

    def test_identity(self):
        g = build_named_graph("cycle", 5)
        w = MetricAssignment.uniform(g)
        assert shortest_distance(g, w, 2, 2) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7, 3)
        w = random_metric(rng, g)
        for u in g.vertices:
            for v in g.vertices:
                assert shortest_distance(g, w, u, v) == pytest.approx(
                    brute_force_distance(g, w, u, v)
                )

    def test_path_past_float_range_is_inf(self):
        g = build_named_graph("cycle", 4)
        w = MetricAssignment.from_vector(g, [1e308] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning
            d = distance_matrix(g, w)
        assert d[0, 1] == 1e308 and d[0, 2] == math.inf

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


def scanned_edges(g, w):
    """The edges ``surgery_scan`` reports, in its order."""
    return [g.edges[i] for i, _ in surgery_scan(g, w)]


def detour_margins(g, w):
    """(shortest path avoiding e) - w(e) for every edge e, by enumeration."""
    return [
        brute_force_distance(g, w, *e, excluded_edge=e) - we
        for e, we in zip(g.edges, w.values.tolist())
    ]


def scan_oracle(g, w):
    """Edges e with w(e) (1 + SURGERY_TOL) >= (shortest path avoiding e), by enumeration."""
    return [
        e
        for e, we in zip(g.edges, w.values)
        if we * (1.0 + SURGERY_TOL) >= brute_force_distance(g, w, *e, excluded_edge=e)
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
        [1.0] * n,
        [1.0] * len(edges),
    )
    w = draw(st.lists(WEIGHTS, min_size=len(edges), max_size=len(edges)))
    return g, MetricAssignment.from_vector(g, w)


@st.composite
def tiny_weighted_graphs(draw):
    """``weighted_graphs`` with up to two weights redrawn from [1e-300, SURGERY_TOL)."""
    g, w = draw(weighted_graphs())
    values = w.values.copy()
    for i in draw(st.lists(st.integers(0, g.n_edges - 1), max_size=2)):
        values[i] = draw(st.floats(1e-300, SURGERY_TOL, exclude_max=True))
    return g, MetricAssignment.from_vector(g, values)


@st.composite
def wide_weighted_graphs(draw):
    """``weighted_graphs`` with weights spread over 2**0 to 2**61, or to 2**1001."""
    g, _ = draw(weighted_graphs())
    exponents = st.integers(0, 60) | st.integers(0, 1000)
    w = [math.ldexp(draw(st.floats(1.0, 2.0)), draw(exponents)) for _ in g.edges]
    return g, MetricAssignment.from_vector(g, w)


class TestSurgery:
    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_scan_matches_exact_detours(self, case):
        g, w = case
        assert scanned_edges(g, w) == scan_oracle(g, w)

    @settings(max_examples=80, deadline=None)
    @given(tiny_weighted_graphs())
    def test_scan_detours_match_exact_paths(self, case):
        # even with weights far below SURGERY_TOL the scan flags exactly the
        # exact detours' edges, and each d_alt it reports is the shortest
        # path avoiding its edge
        g, w = case
        assert scanned_edges(g, w) == scan_oracle(g, w)
        for i, alt in surgery_scan(g, w):
            e = g.edges[i]
            assert alt == pytest.approx(brute_force_distance(g, w, *e, excluded_edge=e), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(wide_weighted_graphs())
    def test_scan_never_flags_a_bridge(self, case):
        # a detour back through an edge can round to the edge's own weight
        # once max omega + min omega rounds to max omega; the scan confirms
        # each edge on the graph without it, so at every spread no bridge
        # is flagged
        g, w = case
        for i, _ in surgery_scan(g, w):
            g.without_edge(i)  # GraphError if the edge is a bridge

    @pytest.mark.parametrize(
        "bridge, absorbs_unit", [(1e15, False), (1e16, True), (1e300, True)]
    )
    def test_huge_bridge_weight(self, bridge, absorbs_unit):
        # from 1e16 on, the detour bridge + 1 + 1 back through the triangle
        # rounds to the bridge's own weight, yet the bridge has no detour,
        # and the triangle's edges are judged against their own weights
        assert (bridge + 1.0 == bridge) == absorbs_unit
        w = MetricAssignment.from_vector(TRIANGLE_WITH_PENDANT, [1.0, 1.0, 1.0, bridge])
        assert surgery_scan(TRIANGLE_WITH_PENDANT, w) == []

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(), st.sampled_from([2.0**-900, 1e-200, 1.0, 1e200]))
    def test_scan_is_scale_free(self, case, scale):
        # strictness is 1-homogeneous: at every scale the scan flags the same
        # edges, with d_alt scaled along, exactly for a power of two; margins
        # within rounding of the tolerance, SURGERY_TOL times the edge's
        # weight, may flip between scales and are skipped
        g, w = case
        margins = zip(detour_margins(g, w), (SURGERY_TOL * w.values).tolist())
        assume(not any(tol / 2 < m < 2 * tol for m, tol in margins))
        base = surgery_scan(g, w)
        scaled = surgery_scan(g, MetricAssignment.from_vector(g, w.values * scale))
        assert [i for i, _ in scaled] == [i for i, _ in base]
        for (_, alt), (_, alt_scaled) in zip(base, scaled):
            assert alt_scaled == pytest.approx(alt * scale, rel=1e-12)
            if scale == 2.0**-900:
                assert alt_scaled == math.ldexp(alt, -900)

    @pytest.mark.parametrize(
        "n, weights, n_bad",
        [
            (4, [1.0, 1.0, 1.0, 3.0], 1),
            (6, [1.0] * 6, 0),
            (3, [1.0, 1.0, 2.0], 1),
            (4, [1.0, 1.0, 1.0, 3.0 - 0.5 * SURGERY_TOL], 1),
            # the tolerance is SURGERY_TOL times the edge's weight, about
            # 3 SURGERY_TOL here: a margin of 2 SURGERY_TOL is flagged, 4 is not
            (4, [1.0, 1.0, 1.0, 3.0 - 4.0 * SURGERY_TOL], 0),
        ],
    )
    def test_scan_matches_exact_detours_at_ties(self, n, weights, n_bad):
        g = build_named_graph("cycle", n)
        w = MetricAssignment.from_vector(g, weights)
        assert scanned_edges(g, w) == scan_oracle(g, w)
        assert len(surgery_scan(g, w)) == n_bad

    def test_triangle_violation(self):
        g = build_named_graph("cycle", 3)
        w = MetricAssignment.from_vector(g, [1.0, 1.0, 2.0])
        bad = scanned_edges(g, w)
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
        g2, w2, _ = apply_surgery(g, w)
        assert surgery_scan(g2, w2) == []
        # every cut edge had a detour, so all vertices stay reachable
        assert g2.vertices == g.vertices
        assert np.isfinite(distance_matrix(g2, w2)).all()


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
            ("x", "y", "z"), (("z", "x"), ("x", "y")), [1.0] * 3, [1.0, 1.0],
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
        assert g.m1[g.vertex_index["c"]] == 2.0
        assert g.m2[g.position("b", "c")] == 3.0
        assert w0.vector(g)[0] == 0.5

    def test_no_omega0(self):
        text = "graph 2 1\nvertex x 1\nvertex y 1\nedge x y 1\n"
        g, w0 = parse_graph_text(text)
        assert w0 is None

    def test_empty(self):
        with pytest.raises(GraphError):
            parse_graph_text("")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bytes.graph"
        path.write_bytes(b"graph 2 1\nvertex \xff 1\n")
        with pytest.raises(GraphError, match="not UTF-8 text at byte 17"):
            load_graph(path)

    def test_bad_header(self):
        with pytest.raises(GraphError):
            parse_graph_text("graf 1 0")

    def test_count_mismatch(self):
        with pytest.raises(GraphError):
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
        with pytest.raises(GraphError, match="finite"):
            parse_graph_text(text)
