"""Edge curvatures: weighted Forman (graph and cell-complex forms) and Lin-Lu-Yau.

Lin-Lu-Yau curvature comes in two independent routes: an exact linear
program over Lipschitz potentials (``lly_edge``) and a finite-laziness
transport estimate (``lly_limit_estimate``) built from Wasserstein
distances between lazy random-walk kernels.  The two agree to solver
precision for sufficiently lazy kernels, which the tests exploit.

Both routes solve their LPs with ``scipy.optimize.linprog`` (HiGHS).  It is
imported on first use, so the Forman and spectral commands start on numpy
alone, and then bound as the module global ``linprog``: the Lin-Lu-Yau LP
and ``wasserstein`` look that global up at call time, never a local copy, so a
tracer that replaces module-level bindings of ``linprog`` sees every solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph import (
    GraphError,
    MeasuredGraph,
    MetricAssignment,
    deg_measure,
    distance_matrix,
    edge_key,
    shortest_distance,
    surgery_scan,
)

KERNEL_MASS_TOL = 1e-12


def __getattr__(name):
    # PEP 562 hook: the first lookup of ``linprog`` imports scipy.optimize
    # and binds the solver as a module global; later lookups find the global.
    if name == "linprog":
        global linprog
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_module = sys.modules[__name__]


class EpsilonTooLarge(ValueError):
    """Laziness parameter too large for a positive self-mass."""


class DegenerateMetric(ValueError):
    """An edge is not the strict unique shortest path between its endpoints."""


@dataclass(frozen=True)
class ProbabilityKernel:
    """Lazy transition kernel seated at one vertex.

    Mass 1 - eps * Deg(x) stays at x; each neighbor y receives
    eps * m2(x, y) / m1(x).
    """

    base_vertex: object
    epsilon: float
    masses: dict  # vertex -> nonnegative mass

    def __post_init__(self):
        total = sum(self.masses.values())
        if abs(total - 1.0) > KERNEL_MASS_TOL:
            raise ValueError(f"kernel masses sum to {total}, expected 1")


@dataclass(frozen=True)
class TwoCellComplex:
    """A graph together with weighted 2-cells (cycles with positive measure)."""

    base: MeasuredGraph
    cells: tuple  # tuple of (cycle vertex tuple, m3)

    def __post_init__(self):
        seen = set()
        for cycle, m3 in self.cells:
            if len(cycle) < 3:
                raise GraphError(f"cycle {cycle!r} too short")
            if len(set(cycle)) != len(cycle):
                raise GraphError(f"cycle {cycle!r} revisits a vertex")
            if m3 <= 0.0:
                raise GraphError(f"cell measure on {cycle!r} must be positive")
            for a, b in _cycle_edges(cycle):
                if edge_key(a, b) not in self.base.m2:
                    raise GraphError(f"cycle {cycle!r} uses non-edge ({a!r}, {b!r})")
            canon = _canonical_cycle(cycle)
            if canon in seen:
                raise GraphError(f"duplicate cell {cycle!r}")
            seen.add(canon)


@dataclass(frozen=True)
class CurvatureVector:
    """Per-edge curvature values with a tag naming the notion used."""

    values: dict  # edge_key -> curvature
    kind: str  # "forman" or "lly"

    def vector(self, g):
        return np.array([self.values[edge_key(u, v)] for u, v in g.edges])


def _cycle_edges(cycle):
    n = len(cycle)
    for i in range(n):
        yield cycle[i], cycle[(i + 1) % n]


def _canonical_cycle(cycle):
    # identify rotations and reflections
    n = len(cycle)
    variants = []
    for seq in (cycle, tuple(reversed(cycle))):
        for k in range(n):
            variants.append(tuple(seq[(k + i) % n] for i in range(n)))
    return min(variants)


def laplacian_apply(g, f, x):
    """Weighted graph Laplacian of the vertex function f at x."""
    g.check_vertex(x)
    return sum(
        g.m2_of(x, y) * (f[y] - f[x]) for y, _ in g.adjacency[x]
    ) / g.m1[x]


def forman_edge(g, omega, e):
    """Weighted Forman curvature of the edge e = (u, v), face-free form."""
    u, v = e
    k = edge_key(u, v)
    if k not in g.m2:
        raise GraphError(f"({u!r}, {v!r}) is not an edge")
    w_e = omega.weights[k]
    val = g.m2[k] / g.m1[u] + g.m2[k] / g.m1[v]
    for x in (u, v):
        for y, _ in g.adjacency[x]:
            ku = edge_key(x, y)
            if ku == k:
                continue
            val -= (g.m2[ku] / g.m1[x]) * (omega.weights[ku] / w_e)
    return val


def forman_vector(g, omega):
    """Forman curvature of every edge."""
    return CurvatureVector(
        {edge_key(u, v): forman_edge(g, omega, (u, v)) for u, v in g.edges},
        kind="forman",
    )


def forman_cell_edge(complex_, omega, e):
    """Weighted Forman curvature of an edge in a 2-cell complex.

    With an empty cell set this reduces exactly to forman_edge on the base
    graph.
    """
    g = complex_.base
    if not complex_.cells:
        # face sums vanish; reuse the graph form so the reduction is exact
        return forman_edge(g, omega, e)
    u, v = e
    k = edge_key(u, v)
    if k not in g.m2:
        raise GraphError(f"({u!r}, {v!r}) is not an edge")
    w_e = omega.weights[k]
    m2e = g.m2[k]

    faces_e = 0.0
    cells_with_e = []
    for cycle, m3 in complex_.cells:
        keys = {edge_key(a, b) for a, b in _cycle_edges(cycle)}
        if k in keys:
            faces_e += m3
            cells_with_e.append((keys, m3))

    val = m2e / g.m1[u] + m2e / g.m1[v] + faces_e / m2e
    for other in g.edges:
        ko = edge_key(*other)
        if ko == k:
            continue
        shared_vertex_sum = 0.0
        for x in (u, v):
            if x in ko:
                shared_vertex_sum += g.m2[ko] / g.m1[x]
        shared_face_sum = sum(m3 for keys, m3 in cells_with_e if ko in keys)
        term = abs(shared_vertex_sum - shared_face_sum / m2e)
        if term != 0.0:
            val -= (omega.weights[ko] / w_e) * term
    return val


def kernel(g, x, eps):
    """Lazy transition kernel at x; requires eps < 1 / Deg(x)."""
    g.check_vertex(x)
    if eps <= 0.0:
        raise EpsilonTooLarge("epsilon must be positive")
    deg = deg_measure(g, x)
    if eps * deg >= 1.0:
        raise EpsilonTooLarge(
            f"epsilon {eps} >= 1/Deg({x!r}) = {1.0 / deg}"
        )
    masses = {x: 1.0 - eps * deg}
    for y, _ in g.adjacency[x]:
        masses[y] = eps * g.m2_of(x, y) / g.m1[x]
    return ProbabilityKernel(base_vertex=x, epsilon=eps, masses=masses)


def wasserstein(g, omega, mu, nu):
    """Exact optimal transport cost between two kernels under d_omega."""
    src = [a for a, m in mu.masses.items() if m > 0.0]
    dst = [b for b, m in nu.masses.items() if m > 0.0]
    ns, nd = len(src), len(dst)
    vid = g.vertex_index
    d = distance_matrix(g, omega)
    c = d[np.ix_([vid[a] for a in src], [vid[b] for b in dst])].reshape(-1)
    a_eq = np.zeros((ns + nd, ns * nd))
    for i in range(ns):
        a_eq[i, i * nd : (i + 1) * nd] = 1.0
    for j in range(nd):
        a_eq[ns + j, j::nd] = 1.0
    b_eq = np.array([mu.masses[a] for a in src] + [nu.masses[b] for b in dst])

    res = _module.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _lly_lp(g, omega, x, y):
    # Curvature of the strict edge (x, y), whose distance d is omega(x, y):
    # minimizes (Lap f(x) - Lap f(y)) / d over potentials f with
    # f(y) - f(x) = d and |f(a) - f(b)| <= omega(a, b) on every edge, after
    # gauge-fixing f(x) = 0.  Edge-wise Lipschitz bounds are equivalent to
    # 1-Lipschitz for the path metric, which keeps the LP small.
    d = omega.weights[edge_key(x, y)]
    vid = g.vertex_index
    nv = len(vid)

    # objective: (Lap f(x) - Lap f(y)) / d, linear in f
    c = np.zeros(nv)
    for base, sign in ((x, 1.0), (y, -1.0)):
        inv_m1 = sign / (g.m1[base] * d)
        for z, _ in g.adjacency[base]:
            m2v = g.m2_of(base, z)
            c[vid[z]] += m2v * inv_m1
            c[vid[base]] -= m2v * inv_m1

    ne = g.n_edges
    a_ub = np.zeros((2 * ne, nv))
    b_ub = np.zeros(2 * ne)
    for i, (a, b) in enumerate(g.edges):
        w = omega.weights[edge_key(a, b)]
        a_ub[2 * i, vid[a]] = 1.0
        a_ub[2 * i, vid[b]] = -1.0
        b_ub[2 * i] = w
        a_ub[2 * i + 1, vid[a]] = -1.0
        a_ub[2 * i + 1, vid[b]] = 1.0
        b_ub[2 * i + 1] = w

    bounds = [(None, None)] * nv
    bounds[vid[x]] = (0.0, 0.0)  # gauge
    bounds[vid[y]] = (d, d)  # gradient normalization

    res = _module.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"Lin-Lu-Yau LP failed: {res.message}")
    return float(res.fun)


def lly_edge(g, omega, e):
    """Exact Lin-Lu-Yau curvature of the edge e via the limit-free LP.

    The edge must be strict, omega(e) < d_alt - SURGERY_TOL with d_alt the
    shortest path avoiding e, as ``surgery_scan`` decides; otherwise
    DegenerateMetric is raised.  Other degenerate edges do not matter.
    """
    x, y = e
    k = edge_key(x, y)
    if k not in g.m2:
        raise GraphError(f"({x!r}, {y!r}) is not an edge")
    if k in {edge_key(*b) for b in surgery_scan(g, omega)}:
        raise DegenerateMetric(f"edge ({x!r}, {y!r}) is not the strict shortest path")
    return _lly_lp(g, omega, x, y)


def lly_vector(g, omega):
    """Lin-Lu-Yau curvature of every edge (one LP per edge).

    One ``surgery_scan`` checks every edge first; DegenerateMetric names
    each edge that is not strict.
    """
    bad = [f"{u}-{v}" for u, v in surgery_scan(g, omega)]
    if bad:
        raise DegenerateMetric(f"metric is degenerate on edges {bad}")
    return CurvatureVector(
        {edge_key(u, v): _lly_lp(g, omega, u, v) for u, v in g.edges},
        kind="lly",
    )


def default_epsilon(g):
    """Laziness used for transport-oracle runs: 1 / (4 max Deg)."""
    return 1.0 / (4.0 * max(deg_measure(g, x) for x in g.vertices))


def lly_limit_estimate(g, omega, e, eps=None):
    """Transport-based curvature estimate (1 - W/d) / eps.

    Serves as the independent oracle for lly_edge; exact for eps in the
    lazy regime (eps <= 1 / (2 max Deg)).
    """
    x, y = e
    if eps is None:
        eps = default_epsilon(g)
    mu = kernel(g, x, eps)
    nu = kernel(g, y, eps)
    d = shortest_distance(g, omega, x, y)
    w = wasserstein(g, omega, mu, nu)
    return (1.0 - w / d) / eps
