"""Edge curvatures: weighted Forman and Lin-Lu-Yau.

Graph Forman curvature is one formula, ``forman_kappa``: the curvature
table, the Forman flow and the Lin-Lu-Yau flow on trees all read it.
``forman_vector``, ``lly_vector`` and ``lly_limit_estimate`` return one
value per edge as an array in edge order; ``forman_edge`` and ``lly_edge``
return one.

Lin-Lu-Yau curvature comes in two independent routes: an exact linear
program over Lipschitz potentials (``lly_vector``) and a finite-laziness
transport estimate (``lly_limit_estimate``) built from Wasserstein
distances between lazy random-walk kernels.  The curvature of an edge
(x, y) depends only on the potential over B1(x) u B1(y), so its LP has one
variable per vertex there and one row per pair of B1(x) x B1(y), with the
bounds and d(x, y) read from one distance matrix per metric.  Curvature
is defined on the path metric, so it reads every edge, strict or not, at
its path distance, which is omega(e) bit for bit when e is strict; only
surgery tests strictness.  A kernel is a pair of arrays, vertex positions
and masses; the estimate builds one per vertex and reads every d(x, y) and
transport cost from a distance matrix of its own.  The two routes agree to
solver precision for lazy enough kernels.

The curvatures are scale-invariant but HiGHS's tolerances are absolute, so
LPs and Forman products run on omega scaled exactly to unit size by a power
of two (``graph._unit_scale``), as the surgery scan does.

Every LP is solved at one call site, ``_highs``, by ``scipy.optimize.linprog``
(HiGHS), and every Lin-Lu-Yau value by one scan-and-solve loop, so
``lly_edge`` is the entry of ``lly_vector`` bit for bit.  ``linprog`` is a
plain module global, bound at the first solve, so the Forman and spectral
commands start on numpy alone; a tracer that replaces module-level bindings
of ``linprog`` sees every solve.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import NumericalFailure, _path_lengths, _unit_scale, deg_measure, edge_id
from .spectral import build_flow_matrix

KERNEL_MASS_TOL = 1e-12
# every LP here is small enough that HiGHS presolve costs more than it removes
HIGHS_OPTIONS = {"presolve": False}
HIGHS_INFINITE_COST = 1e20  # HiGHS's infinite_cost: any cost this large is infinite


linprog = None  # scipy.optimize.linprog, bound by the first solve


def _highs(what, c, **constraints):
    """Optimum of the LP min c.x under ``constraints``, solved by HiGHS."""
    global linprog
    if linprog is None:
        from scipy.optimize import linprog
    # linprog refuses a non-finite cost, and HiGHS reads one this large as infinite
    if not (np.abs(c) < HIGHS_INFINITE_COST).all():
        raise NumericalFailure(
            f"{what} failed: its objective overflows (an m2/m1 ratio is too large)"
        )
    res = linprog(c, **constraints, method="highs", options=HIGHS_OPTIONS)
    if not (res.success and math.isfinite(res.fun)):
        raise NumericalFailure(f"{what} failed: {res.message}")
    return float(res.fun)


def forman_kappa(f, w):
    """kappa = -(F w) / w with F the Forman flow generator; an exact zero is +0.

    ``w`` is one weight vector or a ``(samples, edges)`` array, one sample
    per row.  Each row is a column vector to matmul, which makes numpy call
    one gemv per row, so a whole trajectory's rows come out bit for bit as
    one call per sample would give them (``w @ F.T`` would use gemm, which
    rounds differently).  A row whose products overflow while its weights
    are finite is evaluated again on the weights scaled exactly by 2^-k,
    2^k above the edge count, as ``flow._normalized`` scales a sum: kappa
    is scale-free, and every other row keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone below
        kappa = (f @ -w[..., None])[..., 0] / w
    redo = ~np.isfinite(kappa).all(axis=-1) & np.isfinite(w).all(axis=-1)
    if redo.any():
        scaled = np.ldexp(w[redo], -w.shape[-1].bit_length())
        kappa[redo] = (f @ -scaled[..., None])[..., 0] / scaled
    return kappa


def forman_edge(g, omega, e):
    """Weighted Forman curvature of the edge e = (u, v), face-free form."""
    return float(forman_vector(g, omega)[g.position(*e)])


def forman_vector(g, omega):
    """Forman curvature of every edge, in edge order, from one flow matrix;
    NumericalFailure if one is past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        kappa = forman_kappa(build_flow_matrix(g).F, _unit_scale(omega.vector(g))[0])
    bad = np.flatnonzero(~np.isfinite(kappa))
    if bad.size:
        raise NumericalFailure(f"Forman curvature of edge {edge_id(*g.edges[bad[0]])} overflows")
    return kappa


def kernel(g, x, eps):
    """Lazy transition kernel at x as (vertex positions, masses) arrays.

    Mass 1 - eps * Deg(x) stays at x, listed first; each neighbor y, in
    ``g.adjacency`` order, receives eps * m2(x, y) / m1(x).  Requires
    0 < eps < 1 / Deg(x) (ValueError otherwise); NumericalFailure if the
    masses do not sum to 1 within KERNEL_MASS_TOL.
    """
    g.check_vertex(x)
    if eps <= 0.0:
        raise ValueError("epsilon must be positive")
    deg = deg_measure(g, x)
    if eps * deg >= 1.0:
        raise ValueError(f"epsilon {eps} >= 1/Deg({x!r}) = {1.0 / deg}")
    vid = g.vertex_index
    nbrs, edges = zip(*g.adjacency[x])
    positions = np.array([vid[x], *(vid[y] for y in nbrs)])
    masses = np.concatenate([[1.0 - eps * deg], eps * g.m2[list(edges)] / g.m1[vid[x]]])
    total = float(np.sum(masses))
    if abs(total - 1.0) > KERNEL_MASS_TOL:
        raise NumericalFailure(f"kernel masses sum to {total}, expected 1")
    return positions, masses


def wasserstein(d, mu, nu):
    """Exact optimal transport cost between two kernels under the distances d.

    ``mu`` and ``nu`` are (vertex positions, masses) pairs as ``kernel``
    returns them, and ``d`` a distance matrix over those positions.  The
    plan has one variable per (source, target) pair of positive masses,
    source-major.
    """
    (src, a), (dst, b) = ((p[m > 0.0], m[m > 0.0]) for p, m in (mu, nu))
    ns, nd = len(src), len(dst)
    c, k = _unit_scale(d[np.ix_(src, dst)].ravel())
    # row i sums the plan out of src[i], row ns + j the plan into dst[j]
    a_eq = np.vstack([np.kron(np.eye(ns), np.ones(nd)), np.tile(np.eye(nd), ns)])
    b_eq = np.concatenate([a, b])

    cost = _highs("transport LP", c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
    return math.ldexp(cost, k)


def _lly_lp(g, dist, x, y):
    # Curvature of the edge (x, y) at its path distance d = D(x, y), read
    # with the rows below from the unit-scale distance matrix D: the minimum
    # of Lap f(x) - Lap f(y) over potentials f on S = B1(x) u B1(y) with
    # f(x) = 0 and f(y) = d, divided by d.  Exact: at every laziness this LP
    # lies between the 1-Lipschitz dual on S and the two-potential
    # Kantorovich dual, and both are W1(mu_x, mu_y).  The costs carry no
    # 1/d, so a short edge does not push them past HiGHS's infinite cost.
    vid = g.vertex_index
    d = float(dist[vid[x], vid[y]])
    ball_x = [vid[x], *(vid[z] for z, _ in g.adjacency[x])]
    ball_y = [vid[y], *(vid[z] for z, _ in g.adjacency[y])]
    s = np.unique(ball_x + ball_y)
    pos_x, pos_y = np.searchsorted(s, ball_x), np.searchsorted(s, ball_y)

    # objective: Lap f(x) - Lap f(y), linear in f, summed in Python floats
    # so that an overflow is an inf for _highs to refuse, not a numpy warning
    c = [0.0] * len(s)
    for pos, base, sign in ((pos_x, x, 1.0), (pos_y, y, -1.0)):
        inv_m1 = sign / float(g.m1[vid[base]])
        for p, (_, j) in zip(pos[1:].tolist(), g.adjacency[base]):
            cost = float(g.m2[j]) * inv_m1
            c[p] += cost
            c[pos[0]] -= cost

    # one row f(b) - f(a) <= D(a, b) per pair a in B1(x), b in B1(y), a != b
    a, b = np.repeat(pos_x, len(pos_y)), np.tile(pos_y, len(pos_x))
    keep = a != b
    a, b = a[keep], b[keep]
    a_ub = np.zeros((len(a), len(s)))
    rows = np.arange(len(a))
    a_ub[rows, b] = 1.0
    a_ub[rows, a] = -1.0
    b_ub = dist[s[a], s[b]]

    bounds = np.full((len(s), 2), [-np.inf, np.inf])
    bounds[pos_x[0]] = 0.0  # gauge
    bounds[pos_y[0]] = d  # gradient normalization

    what = f"Lin-Lu-Yau LP of edge {edge_id(x, y)}"
    kappa = _highs(what, np.array(c), A_ub=a_ub, b_ub=b_ub, bounds=bounds) / d
    if not math.isfinite(kappa):  # a Python float quotient overflows to inf
        raise NumericalFailure(f"{what} failed: its optimum over d = {d:g} overflows")
    return kappa


def _lly_values(g, omega, edges):
    # one unit-scale distance matrix, then one LP per listed edge index,
    # posed in the edge's stored orientation
    dist = _path_lengths(g, _unit_scale(omega.vector(g))[0])
    return np.array([_lly_lp(g, dist, *g.edges[i]) for i in edges])


def lly_edge(g, omega, e):
    """Exact Lin-Lu-Yau curvature of the edge e, in either orientation: its
    entry of ``lly_vector``, bit for bit."""
    return float(_lly_values(g, omega, [g.position(*e)])[0])


def lly_vector(g, omega):
    """Lin-Lu-Yau curvature of every edge, in edge order (one LP per edge).

    Each edge's LP spans only the balls B1(x) u B1(y) of its ends, and the
    LPs read one distance matrix of omega scaled to unit size.  An edge is
    read at its path distance: its own weight unless a detour is shorter.
    """
    return _lly_values(g, omega, range(g.n_edges))


def default_epsilon(g):
    """Laziness used for transport-oracle runs: 1 / (4 max Deg);
    NumericalFailure if that is 0 or inf, as the largest Deg(x) is past the
    float range or so small that its reciprocal is."""
    eps = 1.0 / (4.0 * max(deg_measure(g, x) for x in g.vertices))
    if not 0.0 < eps < math.inf:
        raise NumericalFailure(f"default epsilon 1/(4 max Deg) is {eps:g}")
    return eps


def lly_limit_estimate(g, omega, eps=None):
    """Transport-based curvature estimate (1 - W/d) / eps of every edge.

    The independent oracle for ``lly_vector``, so it builds its own
    distance matrix, and one kernel per vertex; exact for eps in the lazy
    regime (eps <= 1 / (2 max Deg)).  W / d is scale-free, so both are read
    from omega scaled exactly to unit size, where no path length overflows.
    """
    if eps is None:
        eps = default_epsilon(g)
    kernels = [kernel(g, x, eps) for x in g.vertices]
    d = _path_lengths(g, _unit_scale(omega.vector(g))[0])
    ratios = [wasserstein(d, kernels[a], kernels[b]) / d[a, b] for a, b in g.ends.tolist()]
    return (1.0 - np.array(ratios)) / eps
