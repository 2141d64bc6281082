"""Shared helpers: deterministic random graph generators, hypothesis
strategies for measured metrics, trajectory samples, and reference
implementations that the package is checked against."""

import inspect
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from ricciflow import MeasuredGraph, MetricAssignment

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def count_linprog(monkeypatch):
    """The arguments of every ``linprog`` call made from now on, one dict per
    call from parameter name to value, passed by position or by keyword."""
    import scipy.optimize

    import ricciflow.curvature

    calls = []
    signature = inspect.signature(scipy.optimize.linprog)

    def counting(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return scipy.optimize.linprog(*args, **kwargs)

    monkeypatch.setattr(ricciflow.curvature, "linprog", counting)
    return calls


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
        m1 = [1.0] * n_vertices
        m2 = [1.0] * len(edges)
    else:
        m1 = [float(rng.uniform(0.5, 2.0)) for _ in vertices]
        m2 = [float(rng.uniform(0.5, 2.0)) for _ in edges]
    return MeasuredGraph(vertices, tuple(edges), m1, m2)


# named graphs with one weight small beside the rest: an eigenbasis rebuild
# of that weight errs by about eps * max omega, far more than eps * omega
SMALL_WEIGHT_FLOWS = [
    ("path:3", [1e-8, 1.0, 1.0]),
    ("star:3", [1e-6, 1.0, 2.0]),
    ("path:10", [1e-4] + [1.0] * 9),
    ("star:6", [1e-3, 2.0, 1.0, 1.0, 3.0, 1.0]),
]


def expm_oracle(f, w0, t, digits=50):
    """expm(F t) w0 computed by mpmath at ``digits`` significant digits and
    rounded to floats: the reference for the spectral Forman solution."""
    import mpmath

    with mpmath.workdps(digits):
        out = mpmath.expm(mpmath.matrix(f.tolist()) * t) * mpmath.matrix(list(w0))
        return np.array([float(x) for x in out])


def random_metric(rng, g, low=0.5, high=2.0):
    return MetricAssignment.from_vector(g, rng.uniform(low, high, g.n_edges))


def trajectory_samples(traj):
    """(t, omega row, kappa row) per sample, read from the trajectory segments."""
    return [sample for _, *segment in traj.segments for sample in zip(*segment)]


def distance_matrix(g, omega):
    """All-pairs shortest omega-path lengths, rows and columns in ``g.vertices``
    order and math.inf where unreachable: the package's one Floyd-Warshall,
    ``ricciflow.graph._path_lengths``, read through a MetricAssignment."""
    from ricciflow.graph import _path_lengths

    return _path_lengths(g, omega.vector(g))


def normalized_flow_state(g, omega0, t):
    """Normalized metric at time t: the Forman flow's shape over its sum.

    The shape is the evaluation ``forman_flow_exact`` scales by
    exp(lambda_max t); it never grows, so arbitrarily large horizons are
    safe even for divergent flows, and at t = 0 it is omega0.
    """
    from ricciflow.flow import _forman_shape

    _, (shape,), _ = _forman_shape(g, omega0, np.array([float(t)]))
    return MetricAssignment.from_vector(g, shape / np.sum(shape))


def exact_inertia(g, shift=0):
    """(positive, zero, negative) eigenvalue counts of Ftilde - shift I, exact.

    Ftilde - shift I = M (G - shift diag(1/m2)) M with M = diag(sqrt(m2)) and
    G = F diag(1/m2): G[i, j] = 1/m1(x) for distinct edges meeting at x and
    G[i, i] = -(1/m1(u) + 1/m1(v)).  By Sylvester's law of inertia the counts
    are those of the symmetric G - shift diag(1/m2), found by symmetric
    elimination in Fractions, exact for float inputs and a rational shift.
    """
    shift = Fraction(shift)
    inv_m1 = [1 / Fraction(x) for x in g.m1.tolist()]
    m2 = g.m2.tolist()
    ends = g.ends.tolist()
    n = g.n_edges
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        a[i][i] = -(inv_m1[u] + inv_m1[v]) - shift / Fraction(m2[i])
        for j in range(i + 1, n):
            for x in {u, v}.intersection(ends[j]):
                a[i][j] = a[j][i] = inv_m1[x]
    counts = [0, 0, 0]
    while a:
        size = range(len(a))
        k = next((k for k in size if a[k][k]), None)
        if k is None:
            pair = next(((k, l) for k in size for l in size if a[k][l]), None)
            if pair is None:  # what is left is the zero matrix
                counts[1] += len(a)
                break
            # congruence by I + e_k e_l^T: a[k][k] becomes 2 a[k][l], as a[l][l] = 0
            k, l = pair
            for r in size:
                a[k][r] += a[l][r]
            for r in size:
                a[r][k] += a[r][l]
        pivot = a[k][k]
        counts[0 if pivot > 0 else 2] += 1
        rest = [r for r in size if r != k]
        a = [
            [a[r][c] - a[r][k] * a[k][c] / pivot for c in rest] if a[r][k] else [a[r][c] for c in rest]
            for r in rest
        ]
    return tuple(counts)


def line_graph_adjacency(g):
    """Dense 0/1 adjacency matrix B of the line graph of g.

    B[i, j] = 1 iff edges e_i != e_j share a vertex.
    """
    n = g.n_edges
    b = np.zeros((n, n))
    for i, e in enumerate(g.edges):
        for j, f in enumerate(g.edges):
            if i != j and set(e) & set(f):
                b[i, j] = 1.0
    return b


def curvature_residual(traj):
    """How well the samples satisfy d omega/dt = -kappa * omega.

    Central differences over consecutive sample triples; needs at least
    three samples and a constant edge set.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    if traj.surgeries:
        raise ValueError("residual is only defined between surgeries")
    ((_, times, w, kap),) = traj.segments
    dwdt = (w[2:] - w[:-2]) / (times[2:] - times[:-2])[:, None]
    resid = np.abs(dwdt + kap[1:-1] * w[1:-1])
    return float(np.max(resid))


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


def _whole_graph_lly_lp(g, a_ub, b_ub, x, y, d):
    # minimizes (Lap f(x) - Lap f(y)) / d over potentials f on every vertex
    # with f(x) = 0, f(y) = d and the edge-wise Lipschitz rows a_ub f <= b_ub,
    # which are equivalent to 1-Lipschitz for the path metric
    from scipy.optimize import linprog

    vid = g.vertex_index
    nv = len(vid)
    c = np.zeros(nv)
    for base, sign in ((x, 1.0), (y, -1.0)):
        inv_m1 = sign / (float(g.m1[vid[base]]) * d)
        for z, j in g.adjacency[base]:
            m2v = float(g.m2[j])
            c[vid[z]] += m2v * inv_m1
            c[vid[base]] -= m2v * inv_m1

    bounds = [(None, None)] * nv
    bounds[vid[x]] = (0.0, 0.0)
    bounds[vid[y]] = (d, d)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    return float(res.fun)


def reference_lly_vector(g, omega):
    """Lin-Lu-Yau curvature of every edge, each from an LP over the whole graph.

    One variable per vertex and two Lipschitz rows per edge, on omega scaled
    to unit size: the oracle for the LPs of ``ricciflow.curvature.lly_vector``,
    which are local to B1(x) u B1(y).  Each edge is read at its path
    distance, which is its weight unless a detour is shorter.
    """
    from ricciflow.graph import _unit_scale

    w, _ = _unit_scale(omega.vector(g))
    d = distance_matrix(g, MetricAssignment.from_vector(g, w))
    rows = _lipschitz_rows(g, w)
    return np.array(
        [_whole_graph_lly_lp(g, *rows, *e, d[a, b]) for e, (a, b) in zip(g.edges, g.ends.tolist())]
    )


def reference_lly_limit_estimate(g, omega, e, eps=None):
    """Transport estimate (1 - W/d) / eps of the one edge e, from its own
    two kernels and its own distance matrix: the per-edge form that
    ``ricciflow.curvature.lly_limit_estimate`` computes for every edge at once."""
    from ricciflow.curvature import default_epsilon, kernel, wasserstein
    from ricciflow.graph import _unit_scale

    x, y = e
    if eps is None:
        eps = default_epsilon(g)
    mu = kernel(g, x, eps)
    nu = kernel(g, y, eps)
    unit = MetricAssignment.from_vector(g, _unit_scale(omega.vector(g))[0])
    d = distance_matrix(g, unit)
    vid = g.vertex_index
    return (1.0 - wasserstein(d, mu, nu) / float(d[vid[x], vid[y]])) / eps


def reference_round_robin(n):
    """The rounds of Brent & Luk's round-robin ordering as lists of (p, q)
    pairs, built one pair at a time: round r pairs i with (r - i) mod (m - 1)
    for m = n rounded up to even, or with m - 1 when that is i itself; for
    odd n, index n pads and its pair is dropped."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        pairs = []
        for i in range(m - 1):
            j = (r - i) % (m - 1)
            if j == i:
                j = m - 1
            if i < j < n:
                pairs.append((i, j))
        rounds.append(pairs)
    return rounds


def reference_jacobi_sweeps(av, tol, max_sweeps):
    """Parallel-order Jacobi rotations in place, one matrix entry at a time.

    The scalar form of ``ricciflow.spectral._jacobi_sweeps``, with the
    same arguments (a stacked over v) and result, on its own copy of the
    round-robin pairing: each round takes every angle from the matrix as it
    stood at the round's start, rotates every pair's columns of a and v,
    then every pair's rows of a.  The entries are worked on as Python
    floats, which round exactly as numpy float64 scalars do.
    """
    n = av.shape[1]
    skip_tol = tol / (n * n)
    am, vm = av[:n].tolist(), av[n:].tolist()
    rounds = reference_round_robin(n)
    sweeps = -1
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * am[i][j] * am[i][j]
        if math.sqrt(off) < tol:
            sweeps = sweep
            break
        for pairs in rounds:
            rotations = []
            for p, q in pairs:
                apq = am[p][q]
                if abs(apq) <= skip_tol:
                    continue
                theta = (am[q][q] - am[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                rotations.append((p, q, c, t * c))
            for p, q, c, s in rotations:
                for rows in (am, vm):
                    for i in range(n):
                        xip = rows[i][p]
                        xiq = rows[i][q]
                        rows[i][p] = c * xip - s * xiq
                        rows[i][q] = s * xip + c * xiq
            for p, q, c, s in rotations:
                for i in range(n):
                    api = am[p][i]
                    aqi = am[q][i]
                    am[p][i] = c * api - s * aqi
                    am[q][i] = s * api + c * aqi
            for p, q, _, _ in rotations:
                am[p][q] = 0.0
                am[q][p] = 0.0
    av[:n] = am
    av[n:] = vm
    return sweeps


def draw_measured_metric(draw, n, edges):
    """Measures and a strict metric for the graph on range(n) with these edges.

    Uniform measures or degree-normalized ones (random m2, m1(x) the sum of
    incident m2, so Deg = 1).  Weights are all 1, tied in {1, 1.5}, or drawn
    from [1, 1.9], so every detour, two edges or more, is longer than its edge.
    """
    ne = len(edges)
    if draw(st.booleans()):
        m1, m2 = [1.0] * n, [1.0] * ne
    else:
        m2 = draw(st.lists(st.floats(0.5, 2.0), min_size=ne, max_size=ne))
        m1 = [0.0] * n
        for (u, v), a in zip(edges, m2):
            m1[u] += a
            m1[v] += a
    g = MeasuredGraph(tuple(range(n)), tuple(edges), m1, m2)
    w = draw(
        st.one_of(
            st.just([1.0] * ne),
            st.lists(st.sampled_from([1.0, 1.5]), min_size=ne, max_size=ne),
            st.lists(st.floats(1.0, 1.9), min_size=ne, max_size=ne),
        )
    )
    return g, MetricAssignment.from_vector(g, w)


def draw_chorded_tree(draw, n, max_chords):
    """Edges of a random tree on range(n) plus at most max_chords random chords."""
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    chords = [(i, j) for j in range(n) for i in range(j) if (i, j) not in edges]
    if chords:
        edges += draw(st.lists(st.sampled_from(chords), unique=True, max_size=max_chords))
    return edges


@st.composite
def strict_measured_metrics(draw):
    """Random connected graph on at most 7 vertices with a strict metric:
    a tree plus random chords, measured by ``draw_measured_metric``."""
    n = draw(st.integers(2, 7))
    return draw_measured_metric(draw, n, draw_chorded_tree(draw, n, 8))
