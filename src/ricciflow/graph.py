"""Measured weighted graphs: data model, path distances, surgery, line graphs.

A measured graph carries a positive vertex measure m1 and a positive,
symmetric edge measure m2.  The evolving quantity is a separate metric
(edge weight) assignment omega, an array in the order of ``edges`` like
every per-edge value in the package; distances between vertices are shortest
omega-weighted path lengths, all read from one matrix (``distance_matrix``).
An edge e = (x, y) is strict while omega(e) < d_alt - SURGERY_TOL, with
d_alt the shortest x-y path avoiding e; ``surgery_scan`` is the one test of
that rule, for surgery and for the Lin-Lu-Yau curvature alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """Simple connected graph, with at least one edge, vertex measure m1 and
    edge measure m2.

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
            if not 0.0 < self.m1.get(x, 0.0) < math.inf:
                raise GraphError(f"m1({x!r}) must be positive and finite")
        for k in seen:
            if not 0.0 < self.m2.get(k, 0.0) < math.inf:
                raise GraphError(f"m2{tuple(k)} must be positive and finite")
        if not self.edges:
            raise GraphError("graph must have at least one edge")
        if not _is_connected(self.vertices, self.edges):
            raise GraphError("graph must be connected")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @cached_property
    def vertex_index(self):
        """Map vertex -> position in the vertex ordering."""
        return {x: i for i, x in enumerate(self.vertices)}

    @cached_property
    def edge_index(self):
        """Map edge_key -> position in the edge ordering."""
        return {edge_key(u, v): i for i, (u, v) in enumerate(self.edges)}

    @cached_property
    def ends(self):
        """(n_edges, 2) endpoint vertex indices, one row per edge in order."""
        vid = self.vertex_index
        return np.array([(vid[u], vid[v]) for u, v in self.edges], dtype=np.intp)

    @cached_property
    def incidence(self):
        """(n_vertices, n_edges) 0/1 matrix: entry [x, i] is 1 iff x ends e_i."""
        inc = np.zeros((self.n_vertices, self.n_edges))
        inc[self.ends, np.arange(self.n_edges)[:, None]] = 1.0
        return inc

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

    def without_edge(self, u, v):
        """Copy of the graph with one edge removed (may raise if disconnected)."""
        k = edge_key(u, v)
        if k not in self.m2:
            raise GraphError(f"({u!r}, {v!r}) is not an edge")
        edges = tuple(e for e in self.edges if edge_key(*e) != k)
        m2 = {kk: m for kk, m in self.m2.items() if kk != k}
        return MeasuredGraph(self.vertices, edges, dict(self.m1), m2)


@dataclass(frozen=True, eq=False)
class MetricAssignment:
    """Positive weight omega per edge, as a read-only array in edge order.

    ``values[i]`` is the weight of ``edges[i]``; ``edges`` is the edge tuple
    of the graph the metric was built for.
    """

    edges: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.edges),):
            raise GraphError("weight vector length does not match edge count")
        bad = np.flatnonzero(values <= 0.0)  # nan passes
        if bad.size:
            k = edge_key(*self.edges[bad[0]])
            raise GraphError(f"omega{tuple(k)} must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, g):
        return cls(g.edges, np.ones(g.n_edges))

    @classmethod
    def from_vector(cls, g, vec):
        return cls(g.edges, vec)

    def vector(self, g):
        """The weights, in the order of ``g.edges``; g must have this metric's edges."""
        if g.edges != self.edges:
            raise GraphError("metric was built for another edge tuple")
        return self.values


@dataclass(frozen=True)
class SurgeryEvent:
    """Record of one edge removal during a flow."""

    time: float
    removed_edge: tuple
    edge_weight: float
    alternative_distance: float


def _is_connected(vertices, edges):
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


def distance_matrix(g, omega, excluded_edge=None):
    """All-pairs shortest omega-path lengths (Floyd-Warshall).

    Rows and columns follow ``g.vertices``; unreachable pairs are math.inf.
    ``excluded_edge`` removes one edge from consideration.
    """
    keep = np.ones(g.n_edges, dtype=bool)
    if excluded_edge is not None:
        # a pair that is not an edge excludes nothing
        keep[g.edge_index.get(edge_key(*excluded_edge), [])] = False
    a, b = g.ends[keep].T
    d = np.full((g.n_vertices, g.n_vertices), math.inf)
    np.fill_diagonal(d, 0.0)
    d[a, b] = d[b, a] = omega.vector(g)[keep]
    for z in range(g.n_vertices):
        np.minimum(d, d[:, z, None] + d[None, z, :], out=d)
    return d


def shortest_distance(g, omega, u, v, excluded_edge=None):
    """One entry of ``distance_matrix``; math.inf if unreachable."""
    g.check_vertex(u)
    g.check_vertex(v)
    vid = g.vertex_index
    return float(distance_matrix(g, omega, excluded_edge)[vid[u], vid[v]])


def is_tree(g):
    """True iff the (connected) graph has |E| = |V| - 1."""
    return g.n_edges == g.n_vertices - 1


def surgery_scan(g, omega):
    """Edges that are no longer the strict unique shortest path.

    Returns every edge e = (x, y) with omega(e) >= d_alt - SURGERY_TOL, the
    detour d_alt read off one distance matrix D of the whole graph as
    min over z ~ x, z != y of omega(xz) + D(z, y).  A term whose D(z, y)
    runs back through e is at least omega(e) + 2 min omega, so while
    min omega > SURGERY_TOL / 2 the result equals the one for the exact
    shortest path avoiding e.  Trees have no detour: their scan is empty.
    """
    if is_tree(g):
        return []
    w, d, vid = omega.vector(g), distance_matrix(g, omega), g.vertex_index
    bad = []
    for i, (u, v) in enumerate(g.edges):
        detours = [w[j] + d[vid[z], vid[v]] for z, j in g.adjacency[u] if z != v]
        if w[i] >= min(detours, default=math.inf) - SURGERY_TOL:
            bad.append((u, v))
    return bad


def apply_surgery(g, omega, t=0.0):
    """Remove degenerate edges one at a time until the metric is clean.

    Edges are removed in ascending edge-index order with a full re-scan
    after each removal.  Raises DisconnectedAfterSurgery when a removal
    would disconnect the graph.
    """
    events = []
    while True:
        bad = surgery_scan(g, omega)
        if not bad:
            break
        u, v = bad[0]
        w, i = omega.vector(g), g.edge_index[edge_key(u, v)]
        alt = shortest_distance(g, omega, u, v, excluded_edge=(u, v))
        events.append(
            SurgeryEvent(
                time=t,
                removed_edge=(u, v),
                edge_weight=float(w[i]),
                alternative_distance=alt,
            )
        )
        try:
            g = g.without_edge(u, v)
        except GraphError as exc:
            raise DisconnectedAfterSurgery(
                f"removing edge ({u!r}, {v!r}) at t={t} disconnects the graph"
            ) from exc
        omega = MetricAssignment.from_vector(g, np.delete(w, i))
    return g, omega, events


def line_graph_adjacency(g):
    """Dense 0/1 adjacency matrix B of the line graph of g.

    B[i, j] = 1 iff edges e_i != e_j share a vertex.
    """
    b = g.incidence.T @ g.incidence  # a simple graph's edges share at most one vertex
    np.fill_diagonal(b, 0.0)
    return b


def _parse_finite(token, what, line):
    try:
        x = float(token)
    except ValueError as exc:
        raise GraphParseError(f"bad {what}: {line!r}") from exc
    if not math.isfinite(x):
        raise GraphParseError(f"{what} must be finite: {line!r}")
    return x


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
    m1, m2, w0 = {}, {}, []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GraphParseError(f"bad vertex line: {line!r}")
            vid = parts[1]
            m1[vid] = _parse_finite(parts[2], "vertex measure", line)
            vertices.append(vid)
        elif parts[0] == "edge":
            if len(parts) not in (4, 5):
                raise GraphParseError(f"bad edge line: {line!r}")
            u, v = parts[1], parts[2]
            m2[edge_key(u, v)] = _parse_finite(parts[3], "edge measure", line)
            if len(parts) == 5:
                w0.append(_parse_finite(parts[4], "edge omega0", line))
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
    if not w0:
        return g, None
    if len(w0) != ne:
        raise GraphParseError("omega0 given for some edges but not all")
    return g, MetricAssignment.from_vector(g, w0)


def load_graph(path):
    """Read a graph file from disk; see parse_graph_text."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
