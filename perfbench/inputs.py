"""Seeded inputs for the ricciflow benchmark.

Every workload is a sequence of rounds.  A round is a fixed list of command
slots (graph size, measure, command) whose concrete graphs, weights and
targets are drawn from ``numpy.random.default_rng((seed, workload, round))``,
so a seed fixes every input, and the cost of a round varies little between
seeds because the sizes are stratified rather than drawn.

Graphs are held in the small model ``Graph`` below, independent of the
package under test; the oracles use the same models as ground truth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

WORKLOADS = ("lly_flow", "spectral", "forman_export")

# ricciflow removes an edge whose weight reaches its best detour minus this.
SURGERY_TOL = 1e-9

# Sizes are fixed per slot and only structure, measures and weights are drawn,
# so a round costs nearly the same for every seed.  Each round is ordered so
# that the median command falls inside a group of like-sized commands.

# lly_flow: (vertices, chords, flow) per graph.  Every graph gets a curvature
# table; flagged graphs also get a flow, alternately from a non-degenerate
# omega0 and from one that needs surgery at t=0.  The median command is the
# curvature table of the seventh graph; flows take most of the time.
LLY_GRAPHS = ((5, 2, False), (7, 2, True), (9, 2, False), (11, 3, True),
              (13, 2, False), (15, 3, True), (17, 2, False), (20, 3, True))
LLY_T_END, LLY_DT = 0.075, 0.025  # three RK4 steps keep a flow under a second
LLY_LOG_OMEGA = 1.5  # omega0 is log-uniform on [e^-1.5, e^1.5]
CYCLE6_ARGS = ("--t-end", "0.1", "--dt", "0.01")

# spectral: six cheap commands, twelve 20-edge trees that hold the median, and
# six expensive ones; Jacobi cost grows with the cube of the edge count.  The
# two 50-edge trees and path:45 cost about the same and hold op_tail_ms (the
# eleventh slowest command) whether four, five or six rounds fit in a run.
CHEAP_TREE, MEDIAN_TREES, BIG_TREES = 12, (20,) * 12, (50, 50, 60)
INVERSE_VERTICES = 16

# forman_export: dense time grids, so sample building and CSV export dominate.
FIGURE_IDS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "ex42", "ex43")
STAR_FLOW = (6, 5.0, 0.001)  # edges, t_end, dt
TREE_FLOW = (15, 2.0, 0.001)
PATH_FLOW = (20, 5.0, 0.001)


@dataclass
class Graph:
    """Measured graph on vertices 0..n-1; edge order fixes edge indices."""

    n: int
    edges: list
    m1: np.ndarray
    m2: np.ndarray

    @property
    def n_edges(self):
        return len(self.edges)

    def is_tree(self):
        return self.n_edges == self.n - 1

    def edge_ids(self):
        return [f"{u}-{v}" for u, v in self.edges]

    def uniform(self):
        return bool(np.all(self.m1 == 1.0) and np.all(self.m2 == 1.0))

    def degrees(self):
        deg = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def subgraph(self, keep):
        """Same vertices and m1, only the edges with indices in ``keep``."""
        keep = sorted(keep)
        return Graph(self.n, [self.edges[i] for i in keep], self.m1, self.m2[keep])


@dataclass
class Op:
    """One CLI command, the oracle that checks it and what the oracle needs."""

    argv: list
    check: str
    name: str  # output stem the CLI derives from the graph
    graph: Graph = None
    meta: dict = field(default_factory=dict)


def measured(n, edges, normalized, rng=None, m2=None):
    """Uniform measure, or normalized: m1(x) = sum of incident m2, so Deg = 1."""
    if not normalized:
        return Graph(n, list(edges), np.ones(n), np.ones(len(edges)))
    if m2 is None:
        m2 = rng.uniform(0.5, 2.0, len(edges))
    m2 = np.asarray(m2, dtype=float)
    m1 = np.zeros(n)
    for (u, v), a in zip(edges, m2):
        m1[u] += a
        m1[v] += a
    return Graph(n, list(edges), m1, m2)


def named_edges(family, k):
    """Edges of the CLI's named families, in the CLI's order."""
    if family == "path":
        return k + 1, [(i, i + 1) for i in range(k)]
    if family == "star":
        return k + 1, [(0, i) for i in range(1, k + 1)]
    if family == "cycle":
        return k, [(i, (i + 1) % k) for i in range(k)]
    if family == "complete":
        return k, [(i, j) for i in range(k) for j in range(i + 1, k)]
    raise ValueError(family)


def prufer_tree(n, rng):
    """Uniform random labelled tree on n >= 2 vertices (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = list(rng.integers(0, n, n - 2))
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.append((u, v))
    return edges


def tree_plus_chords(n, chords, rng):
    edges = prufer_tree(n, rng)
    present = set(edges)
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    for c in rng.choice(len(candidates), size=min(chords, len(candidates)), replace=False):
        edges.append(candidates[c])
    order = rng.permutation(len(edges))
    return [edges[i] for i in order]


def write_graph(path, g):
    lines = [f"graph {g.n} {g.n_edges}"]
    lines += [f"vertex {x} {float(g.m1[x])!r}" for x in range(g.n)]
    lines += [f"edge {u} {v} {float(a)!r}" for (u, v), a in zip(g.edges, g.m2)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def floats_arg(values):
    return ",".join(repr(float(x)) for x in values)


def detour(g, omega, i):
    """Shortest omega-path between the endpoints of edge i avoiding edge i."""
    u, v = g.edges[i]
    rows = [a for j, (a, b) in enumerate(g.edges) if j != i]
    cols = [b for j, (a, b) in enumerate(g.edges) if j != i]
    w = [omega[j] for j in range(g.n_edges) if j != i]
    mat = csr_matrix((w, (rows, cols)), shape=(g.n, g.n))
    return float(dijkstra(mat, directed=False, indices=u)[v])


def surgery_at_zero(g, omega):
    """Edges removed before the first step: lowest-index degenerate edge
    first, re-scanning after each removal.  Returns (removed, kept) indices."""
    kept = list(range(g.n_edges))
    removed = []
    while True:
        sub = g.subgraph(kept)
        w = [omega[i] for i in kept]
        bad = [j for j in range(sub.n_edges) if w[j] >= detour(sub, w, j) - SURGERY_TOL]
        if not bad:
            return removed, kept
        removed.append(kept.pop(bad[0]))


def lly_time_grid(t_end, dt):
    """Sample times of ricciflow's RK4 loop: steps of dt, the last one clipped."""
    times = [0.0]
    t = 0.0
    while t < t_end - 1e-12:
        t += min(dt, t_end - t)
        times.append(t)
    return times


def forman_time_grid(t_end, dt):
    steps = max(1, int(round(t_end / dt)))
    return [i * t_end / steps for i in range(steps + 1)]


def forman_from_metric(g, omega):
    """Forman curvature of every edge for the metric omega (independent of F)."""
    omega = np.asarray(omega, dtype=float)
    at = [[] for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        at[u].append(j)
        at[v].append(j)
    kappa = np.empty(g.n_edges)
    for i, (u, v) in enumerate(g.edges):
        val = g.m2[i] / g.m1[u] + g.m2[i] / g.m1[v]
        for x in (u, v):
            for j in at[x]:
                if j != i:
                    val -= g.m2[j] / g.m1[x] * omega[j] / omega[i]
        kappa[i] = val
    return kappa


class RoundMaker:
    """Builds the commands of one workload round, writing input files to ``work``."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.build = {
            "lly_flow": self._lly_flow,
            "spectral": self._spectral,
            "forman_export": self._forman_export,
        }[workload]

    def round(self, r):
        rng = np.random.default_rng((self.seed, WORKLOADS.index(self.workload), r))
        return self.build(r, rng)

    def _file(self, stem, g):
        path = os.path.join(self.work, f"{stem}.graph")
        write_graph(path, g)
        return path

    def _lly_flow(self, r, rng):
        ops = []
        steps = len(lly_time_grid(LLY_T_END, LLY_DT)) - 1
        for i, (nv, chords, flow) in enumerate(LLY_GRAPHS):
            g = measured(nv, tree_plus_chords(nv, chords, rng), (i + r) % 2 == 1, rng)
            stem = f"r{r}_g{i}"
            path = self._file(stem, g)
            ops.append(Op(["curvature", "--input", path], "curvature", stem, g))
            if not flow:
                continue
            omega0 = wide_metric(g, (i // 2 + r) % 2 == 1, rng)
            removed, kept = surgery_at_zero(g, omega0)
            ops.append(
                Op(["flow", "--input", path, "--kind", "lly", "--omega0", floats_arg(omega0),
                    "--t-end", repr(LLY_T_END), "--dt", repr(LLY_DT)],
                   "lly_flow", stem, g,
                   {"omega0": omega0, "t_end": LLY_T_END, "dt": LLY_DT, "steps": steps,
                    "removed_t0": removed, "kept_t0": kept})
            )
        nv, edges = named_edges("cycle", 6)
        t_end, dt = float(CYCLE6_ARGS[1]), float(CYCLE6_ARGS[3])
        ops.append(
            Op(["flow", "--named", "cycle:6", "--kind", "lly", *CYCLE6_ARGS], "lly_flow", "cycle6",
               measured(nv, edges, False),
               {"omega0": np.ones(6), "t_end": t_end, "dt": dt, "steps": len(lly_time_grid(t_end, dt)) - 1,
                "removed_t0": [], "kept_t0": list(range(6))})
        )
        return ops

    def _named(self, family, k, normalized, rng):
        nv, edges = named_edges(family, k)
        g = measured(nv, edges, normalized, rng)
        argv = ["--named", f"{family}:{k}"]
        if normalized:
            argv += ["--measure", "normalized", "--m2", floats_arg(g.m2)]
        return g, argv

    def _spectral(self, r, rng):
        ops = []
        alt = lambda j: ("classify", "spectrum")[(j + r) % 2]
        # cheap: a complete graph, a cycle, a small tree and star, two inverse targets
        k = int(rng.integers(4, 7))
        g, argv = self._named("complete", k, r % 2 == 0, rng)
        ops.append(Op([alt(0), *argv], alt(0), f"complete{k}", g))
        k = int(rng.integers(5, 13))
        g, argv = self._named("cycle", k, r % 2 == 1, rng)
        ops.append(Op([alt(1), *argv], alt(1), f"cycle{k}", g))
        k = int(rng.integers(10, 21))
        g, argv = self._named("star", k, r % 2 == 0, rng)
        ops.append(Op([alt(0), *argv], alt(0), f"star{k}", g))
        nv = INVERSE_VERTICES
        g = measured(nv, tree_plus_chords(nv, r % 3, rng), r % 2 == 1, rng)
        stem = f"r{r}_inv"
        path = self._file(stem, g)
        target = forman_from_metric(g, np.exp(rng.uniform(-1.0, 1.0, g.n_edges)))
        shifted = target + rng.uniform(0.1, 0.5)
        for kappa, solvable in ((target, True), (shifted, False)):
            ops.append(
                Op(["inverse", "--input", path, f"--kappa={floats_arg(kappa)}"], "inverse", stem, g,
                   {"kappa": kappa, "solvable": solvable})
            )
        for j, ne in enumerate((CHEAP_TREE, *MEDIAN_TREES, *BIG_TREES)):
            g = measured(ne + 1, prufer_tree(ne + 1, rng), (j + r) % 2 == 1, rng)
            stem = f"r{r}_t{j}"
            ops.append(Op([alt(j), "--input", self._file(stem, g)], alt(j), stem, g))
        # expensive: besides the big trees, a path under either measure, a
        # normalized star (uniform stars are trivial for Jacobi) and path:40
        g, argv = self._named("path", 45, r % 2 == 0, rng)
        ops.append(Op([alt(1), *argv], alt(1), "path45", g))
        g, argv = self._named("star", 45, True, rng)
        ops.append(Op([alt(0), *argv], alt(0), "star45", g))
        nv, edges = named_edges("path", 40)
        ops.append(Op(["classify", "--named", "path:40"], "classify", "path40", measured(nv, edges, False)))
        return ops

    def _forman_export(self, r, rng):
        ops = [Op(["reproduce", "--figure", fig], "reproduce", fig, meta={"figure": fig}) for fig in FIGURE_IDS]
        k, t_end, dt = STAR_FLOW
        g, argv = self._named("star", k, r % 2 == 1, rng)
        ops.append(self._forman_flow(argv, f"star{k}", g, np.ones(k), t_end, dt))
        k, t_end, dt = TREE_FLOW
        g = measured(k + 1, prufer_tree(k + 1, rng), r % 2 == 0, rng)
        stem = f"r{r}_tree"
        omega0 = np.exp(rng.uniform(-1.0, 1.0, k))
        argv = ["--input", self._file(stem, g), "--omega0", floats_arg(omega0)]
        ops.append(self._forman_flow(argv, stem, g, omega0, t_end, dt))
        k, t_end, dt = PATH_FLOW
        g, argv = self._named("path", k, False, rng)
        ops.append(self._forman_flow(argv, f"path{k}", g, np.ones(k), t_end, dt))
        return ops

    @staticmethod
    def _forman_flow(argv, name, g, omega0, t_end, dt):
        return Op(["flow", *argv, "--kind", "forman", "--t-end", repr(t_end), "--dt", repr(dt)],
                  "forman_flow", name, g, {"omega0": np.asarray(omega0, float), "t_end": t_end, "dt": dt})


def wide_metric(g, degenerate, rng):
    """Log-uniform omega0 with (``degenerate``) or without an edge that is not
    the strict shortest path between its endpoints, i.e. needs surgery at t=0."""
    while True:
        omega = np.exp(rng.uniform(-LLY_LOG_OMEGA, LLY_LOG_OMEGA, g.n_edges))
        if bool(surgery_at_zero(g, omega)[0]) == degenerate:
            return omega
        if degenerate:
            on_cycle = [i for i in range(g.n_edges) if np.isfinite(detour(g, omega, i))]
            i = on_cycle[rng.integers(len(on_cycle))]
            omega[i] = detour(g, omega, i) * rng.uniform(1.05, 1.5)
            return omega


def round_properties(ops):
    """Input properties of a list of commands, for the run report."""
    graphs = [op for op in ops if op.graph is not None]
    flows = [op for op in ops if op.check == "lly_flow"]
    hist = {}
    for op in graphs:
        hist[op.graph.n_edges] = hist.get(op.graph.n_edges, 0) + 1
    stages = lp_stages = 0
    for op in flows:
        kept = op.graph.subgraph(op.meta["kept_t0"])
        s = 4 * kept.n_edges * op.meta["steps"]
        stages += s
        if not kept.is_tree():
            lp_stages += s
    return {
        "commands": len(ops),
        "graphs": len(graphs),
        "edge_count_histogram": dict(sorted(hist.items())),
        "tree_share": sum(op.graph.is_tree() for op in graphs) / max(1, len(graphs)),
        "lly_flows": len(flows),
        "surgery_t0_share": sum(bool(op.meta["removed_t0"]) for op in flows) / max(1, len(flows)),
        "nominal_rk4_edge_stages": stages,
        "nominal_lp_edge_stages": lp_stages,
    }
