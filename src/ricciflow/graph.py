"""Measured weighted graphs: data model, path distances, surgery.

A measured graph is addressed by position: its vertex measure m1 is an
array in ``vertices`` order, and its edge measure m2, like the metric omega
and every per-edge value in the package, an array in ``edges`` order.
An edge is the ordered pair (u, v) it was given as; ``position`` finds it
from either end and ``edge_id`` is its one text form.  Distances are
shortest omega-weighted path lengths, all read from the one Floyd-Warshall
matrix of ``_path_lengths``.  An edge e = (x, y) is strict while
omega(e) (1 + SURGERY_TOL) < d_alt, with d_alt the shortest x-y path
avoiding e: like curvature, the rule is scale-free.  ``_unit_detours``,
the one test of it, reads omega at unit scale, divided exactly by the power
of two ``_unit_scale`` picks, and only surgery runs it (``surgery_scan``
and ``apply_surgery``): curvature reads the path metric whether or not an
edge is strict.  ``surgery_scan`` returns each failing edge's index with
its exact d_alt; a bridge has no detour, so surgery never disconnects a
graph.
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
    """Invalid graph construction, query, file or command-line option: a bad input."""


class NumericalFailure(RuntimeError):
    """A valid input whose answer floating point cannot reach."""


def edge_id(u, v):
    """Text id ``u-v`` of the edge (u, v) in output files."""
    return f"{u}-{v}"


@dataclass(frozen=True, eq=False)
class MeasuredGraph:
    """Simple connected graph, with at least one edge, vertex measure m1 and
    edge measure m2.

    ``m1[k]`` is the measure of ``vertices[k]`` and ``m2[i]`` that of
    ``edges[i]``, read-only, positive and finite.  The order of ``edges``
    fixes the edge indices used by every matrix-valued operation.
    """

    vertices: tuple
    edges: tuple  # tuple of (u, v) pairs
    m1: np.ndarray  # in vertex order
    m2: np.ndarray  # in edge order

    def __post_init__(self):
        vid = self.vertex_index
        if len(vid) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise GraphError(f"loop at vertex {u!r}")
            if u not in vid or v not in vid:
                raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex")
            if self.edge_index[u, v] != i:  # a later edge has the same ends
                raise GraphError(f"parallel edge ({u!r}, {v!r})")
        m1, m2 = np.array(self.m1, dtype=float), np.array(self.m2, dtype=float)
        if m1.shape != (len(self.vertices),) or m2.shape != (len(self.edges),):
            raise GraphError("m1 or m2 length does not match vertex or edge count")
        for x, m in zip(self.vertices, m1.tolist()):
            if not 0.0 < m < math.inf:
                raise GraphError(f"m1({x!r}) must be positive and finite")
        for e, m in zip(self.edges, m2.tolist()):
            if not 0.0 < m < math.inf:
                raise GraphError(f"m2{tuple(e)} must be positive and finite")
        m1.flags.writeable = m2.flags.writeable = False
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        if not self.edges:
            raise GraphError("graph must have at least one edge")
        if not self._is_connected():
            raise GraphError("graph must be connected")

    def _is_connected(self):
        seen, stack = {self.vertices[0]}, [self.vertices[0]]
        while stack:
            for y, _ in self.adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self.vertices)

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
        """Map (u, v) and (v, u) -> position of the edge (u, v) in ``edges``."""
        index = {}
        for i, (u, v) in enumerate(self.edges):
            index[u, v] = index[v, u] = i
        return index

    @cached_property
    def ends(self):
        """(n_edges, 2) endpoint vertex indices, one row per edge in order."""
        vid = self.vertex_index
        return np.array([(vid[u], vid[v]) for u, v in self.edges], dtype=np.intp)

    @cached_property
    def adjacency(self):
        """Map vertex -> list of (neighbor, edge index)."""
        adj = {x: [] for x in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def check_vertex(self, x):
        if x not in self.vertex_index:
            raise GraphError(f"unknown vertex {x!r}")

    def position(self, u, v):
        """Index of the edge (u, v) in ``edges``; GraphError if it is not one."""
        i = self.edge_index.get((u, v))
        if i is None:
            raise GraphError(f"({u!r}, {v!r}) is not an edge")
        return i

    def degree(self, x):
        self.check_vertex(x)
        return len(self.adjacency[x])

    def without_edge(self, i):
        """Copy of the graph without ``edges[i]`` (GraphError if disconnected)."""
        edges = self.edges[:i] + self.edges[i + 1 :]
        return MeasuredGraph(self.vertices, edges, self.m1, np.delete(self.m2, i))


@dataclass(frozen=True, eq=False)
class MetricAssignment:
    """Positive, finite weight omega per edge, as a read-only array in edge order.

    ``values[i]`` is the weight of ``edges[i]``; ``edges`` is the edge tuple
    of the graph the metric was built for.
    """

    edges: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.edges),):
            raise GraphError("weight vector length does not match edge count")
        bad = np.flatnonzero(~((values > 0.0) & (values < np.inf)))  # nan fails both
        if bad.size:
            raise GraphError(
                f"omega{tuple(self.edges[bad[0]])} must be positive and finite"
            )
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
        m1, m2 = [1.0] * len(vertices), [1.0] * len(edges)
    elif measure_mode == "normalized_deg1":
        if m2_values is None or len(m2_values) != len(edges):
            raise GraphError(
                f"normalized_deg1 mode needs exactly {len(edges)} m2 values"
            )
        # every family numbers its vertices 0, 1, ..., so a vertex is its index
        m2 = [float(a) for a in m2_values]
        m1 = [0.0] * len(vertices)
        for (u, v), a in zip(edges, m2):
            m1[u] += a
            m1[v] += a
    else:
        raise GraphError(f"unknown measure mode {measure_mode!r}")
    return MeasuredGraph(vertices, edges, m1, m2)


def deg_measure(g, x):
    """Deg(x) = sum of incident m2 over m1(x)."""
    g.check_vertex(x)
    # Python floats: a measure ratio past the float range is inf, not a warning
    m2 = g.m2[[j for _, j in g.adjacency[x]]].tolist()
    return sum(m2) / float(g.m1[g.vertex_index[x]])


def _unit_scale(x):
    """(x / 2**k, k), k = floor(log2(max x)): exact, the largest in [1, 2);
    NumericalFailure if an entry has no exact image, its span past the float range."""
    k = math.frexp(float(np.max(x)))[1] - 1
    scaled = np.ldexp(x, -k)
    if not np.array_equal(np.ldexp(scaled, k), x):
        lo, hi = np.min(x[x > 0]), np.max(x)
        raise NumericalFailure(f"values span {lo:g} to {hi:g}, too far apart to scale exactly")
    return scaled, k


def _path_lengths(g, w):
    # all-pairs shortest path lengths (Floyd-Warshall) of the weights w in edge
    # order, rows and columns in vertex order; an inf weight is no edge
    a, b = g.ends.T
    d = np.full((g.n_vertices, g.n_vertices), math.inf)
    np.fill_diagonal(d, 0.0)
    d[a, b] = d[b, a] = w
    with np.errstate(over="ignore"):  # a path longer than the float range is inf
        for z in range(g.n_vertices):
            np.minimum(d, d[:, z, None] + d[None, z, :], out=d)
    return d


def shortest_distance(g, omega, u, v):
    """Shortest omega-path length from u to v; math.inf if unreachable."""
    g.check_vertex(u)
    g.check_vertex(v)
    vid = g.vertex_index
    return float(_path_lengths(g, omega.vector(g))[vid[u], vid[v]])


def is_tree(g):
    """True iff the (connected) graph has |E| = |V| - 1."""
    return g.n_edges == g.n_vertices - 1


def surgery_scan(g, omega):
    """Edges that are no longer the strict unique shortest path.

    Returns ``(i, d_alt)`` in edge order for every edge e_i = (x, y) with
    omega(e_i) (1 + SURGERY_TOL) >= d_alt, d_alt found at unit scale by
    ``_unit_detours`` and scaled back exactly.  Trees have none.
    """
    if is_tree(g):
        return []
    k, bad = _unit_detours(g, omega)
    with np.errstate(over="ignore"):  # a detour past the float range is inf
        return [(i, float(np.ldexp(alt, k))) for i, alt in bad]


def _unit_detours(g, omega):
    """(k, bad): omega = w 2**k with w at unit scale, and ``(i, d_alt)``
    at the scale of w for each edge that is not strict.

    The distance matrix d of w finds the candidates, as min over z ~ x,
    z != y of w(xz) + d(z, y) is at most d_alt; each is confirmed on the
    graph without e_i, so no detour runs back through it.
    """
    w, k = _unit_scale(omega.vector(g))
    d = _path_lengths(g, w)
    (a, b), n, edges = g.ends.T, g.n_vertices, np.arange(g.n_edges)
    step = np.full((n, n), math.inf)
    step[a, b] = step[b, a] = w
    detours = step[a] + d[b]  # [i, z] = omega(a_i z) + D(z, b_i)
    detours[edges, b] = math.inf  # z = b_i is the edge itself
    reach = w * (1.0 + SURGERY_TOL)
    bad = []
    for i in np.flatnonzero(reach >= detours.min(axis=1)).tolist():
        alt = _path_lengths(g, np.where(edges == i, math.inf, w))[a[i], b[i]]
        if reach[i] >= alt:
            bad.append((i, alt))
    return k, bad


def apply_surgery(g, omega, t=0.0):
    """Remove degenerate edges one at a time until the metric is clean.

    Edges are removed in ascending edge-index order, each with the detour
    its scan found, and the graph is re-scanned after each removal.  A
    flagged edge has a detour, so no removal disconnects the graph.
    """
    events = []
    while bad := surgery_scan(g, omega):
        i, alt = bad[0]
        w = omega.vector(g)
        events.append(SurgeryEvent(t, g.edges[i], float(w[i]), alt))
        g = g.without_edge(i)
        omega = MetricAssignment.from_vector(g, np.delete(w, i))
    return g, omega, events


def _parse_finite(token, what, line):
    try:
        x = float(token)
    except ValueError as exc:
        raise GraphError(f"bad {what}: {line!r}") from exc
    if not math.isfinite(x):
        raise GraphError(f"{what} must be finite: {line!r}")
    return x


def parse_graph_text(text):
    """Parse the line-oriented graph format.

    Header ``graph <nv> <ne>``, then ``vertex <id> <m1>`` lines, then
    ``edge <u> <v> <m2> [<omega0>]`` lines.  ``#`` starts a comment.  A
    vertex id holds no ``,``, ``"`` or ``-``, so edge ids fit unquoted CSV
    fields and no two edges share one.
    Returns (MeasuredGraph, MetricAssignment or None).  Edge order in the
    file fixes matrix indices.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise GraphError(f"bad header line: {lines[0]!r}")
    try:
        nv, ne = int(head[1]), int(head[2])
    except ValueError as exc:
        raise GraphError(f"bad header counts: {lines[0]!r}") from exc

    vertices, edges = [], []
    m1, m2, w0 = [], [], []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GraphError(f"bad vertex line: {line!r}")
            if any(c in parts[1] for c in ',"-'):
                raise GraphError(f"vertex id holds ',', '\"' or '-': {line!r}")
            m1.append(_parse_finite(parts[2], "vertex measure", line))
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) not in (4, 5):
                raise GraphError(f"bad edge line: {line!r}")
            m2.append(_parse_finite(parts[3], "edge measure", line))
            if len(parts) == 5:
                w0.append(_parse_finite(parts[4], "edge omega0", line))
            edges.append((parts[1], parts[2]))
        else:
            raise GraphError(f"unexpected line: {line!r}")

    if len(vertices) != nv:
        raise GraphError(f"header says {nv} vertices, found {len(vertices)}")
    if len(edges) != ne:
        raise GraphError(f"header says {ne} edges, found {len(edges)}")
    g = MeasuredGraph(tuple(vertices), tuple(edges), m1, m2)
    if not w0:
        return g, None
    if len(w0) != ne:
        raise GraphError("omega0 given for some edges but not all")
    return g, MetricAssignment.from_vector(g, w0)


def load_graph(path):
    """Read a UTF-8 graph file from disk; see parse_graph_text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_graph_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GraphError(f"not UTF-8 text at byte {exc.start}: {path}") from exc
