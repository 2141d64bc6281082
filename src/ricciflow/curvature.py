"""Edge curvatures: weighted Forman and Lin-Lu-Yau.

Graph Forman curvature is one formula, ``forman_kappa``: the curvature
table, the Forman flow and the Lin-Lu-Yau flow on trees all read it.
``forman_vector`` and ``lly_vector`` return one value per edge as an array
in the order of ``g.edges``; ``forman_edge`` and ``lly_edge`` return one.

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

import sys
from dataclasses import dataclass

import numpy as np

from .graph import (
    deg_measure,
    distance_matrix,
    edge_key,
    shortest_distance,
    surgery_scan,
)
from .spectral import build_flow_matrix

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


def forman_kappa(f, w):
    """kappa = -(F w) / w with F the Forman flow generator; an exact zero is +0.

    ``w`` is one weight vector or a ``(samples, edges)`` array, one sample
    per row.  Each row is a column vector to matmul, which makes numpy call
    one gemv per row, so a whole trajectory's rows come out bit for bit as
    one call per sample would give them (``w @ F.T`` would use gemm, which
    rounds differently).
    """
    return (f @ -w[..., None])[..., 0] / w


def forman_edge(g, omega, e):
    """Weighted Forman curvature of the edge e = (u, v), face-free form."""
    g.m2_of(*e)  # GraphError unless e is an edge
    return float(forman_vector(g, omega)[g.edge_index[edge_key(*e)]])


def forman_vector(g, omega):
    """Forman curvature of every edge, in edge order, from one flow matrix."""
    return forman_kappa(build_flow_matrix(g).F, omega.vector(g))


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


def _lipschitz_rows(g, w):
    # (A_ub, b_ub) of |f(a) - f(b)| <= w(ab) for every edge ab, as the rows
    # f(a) - f(b) <= w and f(b) - f(a) <= w interleaved in edge order
    ne, nv = g.n_edges, g.n_vertices
    a, b = g.ends.T
    rows = np.arange(ne)
    a_ub = np.zeros((ne, 2, nv))
    a_ub[rows, 0, a] = a_ub[rows, 1, b] = 1.0
    a_ub[rows, 0, b] = a_ub[rows, 1, a] = -1.0
    return a_ub.reshape(2 * ne, nv), np.repeat(w, 2)


def _lly_lp(g, a_ub, b_ub, x, y, d):
    # Curvature of the strict edge (x, y), whose distance d is omega(x, y):
    # minimizes (Lap f(x) - Lap f(y)) / d over potentials f with
    # f(y) - f(x) = d and the metric's Lipschitz rows a_ub f <= b_ub, after
    # gauge-fixing f(x) = 0.  Edge-wise Lipschitz bounds are equivalent to
    # 1-Lipschitz for the path metric, which keeps the LP small.
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
    g.m2_of(x, y)  # GraphError unless e is an edge
    if k in {edge_key(*b) for b in surgery_scan(g, omega)}:
        raise DegenerateMetric(f"edge ({x!r}, {y!r}) is not the strict shortest path")
    w = omega.vector(g)
    return _lly_lp(g, *_lipschitz_rows(g, w), x, y, float(w[g.edge_index[k]]))


def lly_vector(g, omega):
    """Lin-Lu-Yau curvature of every edge, in edge order (one LP per edge).

    One ``surgery_scan`` checks every edge first; DegenerateMetric names
    each edge that is not strict.  The LPs share one set of Lipschitz
    constraints and differ only in objective and fixed bounds.
    """
    bad = [f"{u}-{v}" for u, v in surgery_scan(g, omega)]
    if bad:
        raise DegenerateMetric(f"metric is degenerate on edges {bad}")
    w = omega.vector(g)
    rows = _lipschitz_rows(g, w)
    return np.array(
        [_lly_lp(g, *rows, u, v, d) for (u, v), d in zip(g.edges, w.tolist())]
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
