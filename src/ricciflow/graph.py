"""Measured weighted graphs: data model, path distances, surgery, line graphs.

A measured graph carries a positive vertex measure m1 and a positive,
symmetric edge measure m2.  The evolving quantity is a separate metric
(edge weight) assignment omega; distances between vertices are shortest
omega-weighted path lengths.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

SURGERY_TOL = 1e-9

PATH = "path"
STAR = "star"
CYCLE = "cycle"
COMPLETE = "complete"


class GraphError(ValueError):
    """Invalid graph construction or query."""


class GraphParseError(GraphError):
    """Malformed graph file."""


class DisconnectedAfterSurgery(GraphError):
    """Surgery removed enough edges to disconnect the graph."""


def edge_key(u, v):
    """Canonical hashable key for an undirected edge."""
    return frozenset((u, v))


@dataclass(frozen=True)
class MeasuredGraph:
    """Simple connected graph with vertex measure m1 and edge measure m2.

    The order of ``edges`` fixes the edge indices used by every
    matrix-valued operation in the package.
    """

    vertices: tuple
    edges: tuple  # tuple of (u, v) pairs
    m1: dict  # vertex -> positive measure
    m2: dict  # edge_key -> positive measure

    def __post_init__(self):
        seen = set()
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u!r}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex")
            k = edge_key(u, v)
            if k in seen:
                raise GraphError(f"parallel edge ({u!r}, {v!r})")
            seen.add(k)
        for x in self.vertices:
            if self.m1.get(x, 0.0) <= 0.0:
                raise GraphError(f"m1({x!r}) must be positive")
        for k in seen:
            if self.m2.get(k, 0.0) <= 0.0:
                raise GraphError(f"m2{tuple(k)} must be positive")
        if not _is_connected(self.vertices, self.edges):
            raise GraphError("graph must be connected")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @cached_property
    def edge_index(self):
        """Map edge_key -> position in the edge ordering."""
        return {edge_key(u, v): i for i, (u, v) in enumerate(self.edges)}

    @cached_property
    def adjacency(self):
        """Map vertex -> list of (neighbor, edge index)."""
        adj = {x: [] for x in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def check_vertex(self, x):
        if x not in self.m1:
            raise GraphError(f"unknown vertex {x!r}")

    def degree(self, x):
        self.check_vertex(x)
        return len(self.adjacency[x])

    def m2_of(self, u, v):
        k = edge_key(u, v)
        if k not in self.m2:
            raise GraphError(f"({u!r}, {v!r}) is not an edge")
        return self.m2[k]

    def incident_edges(self, x):
        """Edge indices incident to x."""
        self.check_vertex(x)
        return [i for _, i in self.adjacency[x]]

    def without_edge(self, u, v):
        """Copy of the graph with one edge removed (may raise if disconnected)."""
        k = edge_key(u, v)
        if k not in self.m2:
            raise GraphError(f"({u!r}, {v!r}) is not an edge")
        edges = tuple(e for e in self.edges if edge_key(*e) != k)
        m2 = {kk: m for kk, m in self.m2.items() if kk != k}
        return MeasuredGraph(self.vertices, edges, dict(self.m1), m2)


@dataclass(frozen=True)
class MetricAssignment:
    """Positive weight omega per edge, keyed like m2."""

    weights: dict  # edge_key -> positive weight

    def __post_init__(self):
        for k, w in self.weights.items():
            if w <= 0.0:
                raise GraphError(f"omega{tuple(k)} must be positive")

    @classmethod
    def uniform(cls, g, value=1.0):
        return cls({edge_key(u, v): float(value) for u, v in g.edges})

    @classmethod
    def from_vector(cls, g, vec):
        if len(vec) != g.n_edges:
            raise GraphError("weight vector length does not match edge count")
        return cls({edge_key(u, v): float(vec[i]) for i, (u, v) in enumerate(g.edges)})

    def weight(self, u, v):
        return self.weights[edge_key(u, v)]

    def vector(self, g):
        import numpy as np

        return np.array([self.weights[edge_key(u, v)] for u, v in g.edges])

    def restricted_to(self, g):
        """Weights for the edges of g only (used after surgery)."""
        return MetricAssignment(
            {edge_key(u, v): self.weights[edge_key(u, v)] for u, v in g.edges}
        )


@dataclass(frozen=True)
class SurgeryEvent:
    """Record of one edge removal during a flow."""

    time: float
    removed_edge: tuple
    edge_weight: float
    alternative_distance: float


def _is_connected(vertices, edges):
    if not vertices:
        return False
    adj = {x: [] for x in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vertices)


def build_named_graph(family, n, measure_mode="uniform", m2_values=None):
    """Construct a standard graph family with one of the two measure choices.

    path(n)/star(n) take the number of edges (n >= 1); cycle(n)/complete(n)
    take the number of vertices (n >= 3).  In ``normalized_deg1`` mode the
    given m2 values (one per edge, in edge order) determine
    m1(x) = sum of incident m2, so Deg(x) = 1 everywhere.
    """
    if family == PATH:
        if n < 1:
            raise GraphError("path needs at least 1 edge")
        vertices = tuple(range(n + 1))
        edges = tuple((i, i + 1) for i in range(n))
    elif family == STAR:
        if n < 1:
            raise GraphError("star needs at least 1 edge")
        vertices = tuple(range(n + 1))
        edges = tuple((0, i) for i in range(1, n + 1))
    elif family == CYCLE:
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        vertices = tuple(range(n))
        edges = tuple((i, (i + 1) % n) for i in range(n))
    elif family == COMPLETE:
        if n < 3:
            raise GraphError("complete graph needs at least 3 vertices")
        vertices = tuple(range(n))
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    else:
        raise GraphError(f"unknown graph family {family!r}")

    if measure_mode == "uniform":
        if m2_values is not None:
            raise GraphError("uniform mode takes no m2 values")
        m1 = {x: 1.0 for x in vertices}
        m2 = {edge_key(u, v): 1.0 for u, v in edges}
    elif measure_mode == "normalized_deg1":
        if m2_values is None or len(m2_values) != len(edges):
            raise GraphError(
                f"normalized_deg1 mode needs exactly {len(edges)} m2 values"
            )
        m2 = {edge_key(u, v): float(a) for (u, v), a in zip(edges, m2_values)}
        m1 = dict.fromkeys(vertices, 0.0)
        for u, v in edges:
            m1[u] += m2[edge_key(u, v)]
            m1[v] += m2[edge_key(u, v)]
    else:
        raise GraphError(f"unknown measure mode {measure_mode!r}")
    return MeasuredGraph(vertices, edges, m1, m2)


def deg_measure(g, x):
    """Deg(x) = sum of incident m2 over m1(x)."""
    g.check_vertex(x)
    return sum(g.m2_of(x, y) for y, _ in g.adjacency[x]) / g.m1[x]


def shortest_distance(g, omega, u, v, excluded_edge=None):
    """Shortest omega-weighted path length; math.inf if unreachable.

    ``excluded_edge`` removes one edge from consideration, used for the
    surgery check (the best alternative route between the edge endpoints).
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return 0.0
    skip = edge_key(*excluded_edge) if excluded_edge is not None else None
    dist = {u: 0.0}
    heap = [(0.0, 0, u)]
    tie = 1
    while heap:
        d, _, x = heapq.heappop(heap)
        if x == v:
            return d
        if d > dist.get(x, math.inf):
            continue
        for y, _ in g.adjacency[x]:
            k = edge_key(x, y)
            if k == skip:
                continue
            nd = d + omega.weights[k]
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                heapq.heappush(heap, (nd, tie, y))
                tie += 1
    return math.inf


def is_tree(g):
    """True iff the (connected) graph has |E| = |V| - 1."""
    return g.n_edges == g.n_vertices - 1


def surgery_scan(g, omega, tol=SURGERY_TOL):
    """Edges that are no longer the strict unique shortest path.

    Returns every edge (x, y) with omega(e) >= d_alt - tol, where d_alt is
    the shortest path between x and y avoiding e.  Trees never have an
    alternative path, so the scan is empty by construction.
    """
    if is_tree(g):
        return []
    bad = []
    for u, v in g.edges:
        w = omega.weights[edge_key(u, v)]
        alt = shortest_distance(g, omega, u, v, excluded_edge=(u, v))
        if w >= alt - tol:
            bad.append((u, v))
    return bad


def apply_surgery(g, omega, t=0.0, tol=SURGERY_TOL):
    """Remove degenerate edges one at a time until the metric is clean.

    Edges are removed in ascending edge-index order with a full re-scan
    after each removal.  Raises DisconnectedAfterSurgery when a removal
    would disconnect the graph.
    """
    events = []
    while True:
        bad = surgery_scan(g, omega, tol=tol)
        if not bad:
            break
        u, v = bad[0]
        alt = shortest_distance(g, omega, u, v, excluded_edge=(u, v))
        events.append(
            SurgeryEvent(
                time=t,
                removed_edge=(u, v),
                edge_weight=omega.weights[edge_key(u, v)],
                alternative_distance=alt,
            )
        )
        try:
            g = g.without_edge(u, v)
        except GraphError as exc:
            raise DisconnectedAfterSurgery(
                f"removing edge ({u!r}, {v!r}) at t={t} disconnects the graph"
            ) from exc
        omega = omega.restricted_to(g)
    return g, omega, events


def line_graph_adjacency(g):
    """Dense 0/1 adjacency matrix B of the line graph of g.

    B[i, j] = 1 iff edges e_i != e_j share a vertex.
    """
    import numpy as np

    n = g.n_edges
    b = np.zeros((n, n))
    for x in g.vertices:
        idx = g.incident_edges(x)
        for a in idx:
            for c in idx:
                if a != c:
                    b[a, c] = 1.0
    return b


def parse_graph_text(text):
    """Parse the line-oriented graph format.

    Header ``graph <nv> <ne>``, then ``vertex <id> <m1>`` lines, then
    ``edge <u> <v> <m2> [<omega0>]`` lines.  ``#`` starts a comment.
    Returns (MeasuredGraph, MetricAssignment or None).  Edge order in the
    file fixes matrix indices.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise GraphParseError(f"bad header line: {lines[0]!r}")
    try:
        nv, ne = int(head[1]), int(head[2])
    except ValueError as exc:
        raise GraphParseError(f"bad header counts: {lines[0]!r}") from exc

    vertices, edges = [], []
    m1, m2, w0 = {}, {}, {}
    has_w0 = False
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GraphParseError(f"bad vertex line: {line!r}")
            vid = parts[1]
            try:
                m1[vid] = float(parts[2])
            except ValueError as exc:
                raise GraphParseError(f"bad vertex measure: {line!r}") from exc
            vertices.append(vid)
        elif parts[0] == "edge":
            if len(parts) not in (4, 5):
                raise GraphParseError(f"bad edge line: {line!r}")
            u, v = parts[1], parts[2]
            try:
                m2[edge_key(u, v)] = float(parts[3])
                if len(parts) == 5:
                    w0[edge_key(u, v)] = float(parts[4])
                    has_w0 = True
            except ValueError as exc:
                raise GraphParseError(f"bad edge values: {line!r}") from exc
            edges.append((u, v))
        else:
            raise GraphParseError(f"unexpected line: {line!r}")

    if len(vertices) != nv:
        raise GraphParseError(f"header says {nv} vertices, found {len(vertices)}")
    if len(edges) != ne:
        raise GraphParseError(f"header says {ne} edges, found {len(edges)}")
    try:
        g = MeasuredGraph(tuple(vertices), tuple(edges), m1, m2)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc
    omega0 = None
    if has_w0:
        if len(w0) != ne:
            raise GraphParseError("omega0 given for some edges but not all")
        omega0 = MetricAssignment(w0)
    return g, omega0


def load_graph(path):
    """Read a graph file from disk; see parse_graph_text."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
