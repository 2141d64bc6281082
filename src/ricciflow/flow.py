"""Curvature flow trajectories.

The Forman flow is linear, so it is evolved exactly through the spectral
solution omega(t, e_l) = sum_i c_i(e_l) exp(lambda_i t).  The Lin-Lu-Yau
flow on general graphs is nonlinear (the curvature is an LP value) and is
integrated with classical RK4 plus surgery; on trees the two curvatures
coincide, which both speeds up the integrator and gives the exact solution
as a cross-check.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureVector, lly_edge
from .graph import (
    MetricAssignment,
    apply_surgery,
    edge_key,
    is_tree,
    surgery_scan,
)
from .spectral import build_flow_matrix, eigendecompose, flow_coefficients

SAMPLE_EVERY_THRESHOLD = 64  # edges; beyond this keep every 10th step
MAX_STEP_HALVINGS = 20
FLOAT_FMT = "{:.12g}"  # 12 significant digits keep output files diff-stable


class StepSizeTooLarge(RuntimeError):
    """RK4 step kept producing nonpositive weights after repeated halving."""


@dataclass
class FlowTrajectory:
    """Flow samples stored as arrays, one block per edge set.

    ``graph_snapshots`` starts with the initial graph and gains one entry
    after each surgery.  ``segments[i]`` is ``(times, omega, kappa)`` for
    the samples taken on ``graph_snapshots[i]``, one row per sample and
    columns in that graph's edge order; it may hold no samples.
    """

    kind: str  # "forman" or "lly"
    graph_snapshots: list
    segments: list
    surgeries: list = field(default_factory=list)

    @property
    def times(self):
        return [float(t) for times, _, _ in self.segments for t in times]

    @property
    def samples(self):
        """Per-sample list of (t, MetricAssignment, CurvatureVector), built on demand."""
        out = []
        for g, (times, omega, kappa) in zip(self.graph_snapshots, self.segments):
            keys = [edge_key(u, v) for u, v in g.edges]
            for t, w_row, k_row in zip(times, omega, kappa):
                out.append(
                    (
                        float(t),
                        MetricAssignment(dict(zip(keys, w_row))),
                        CurvatureVector(dict(zip(keys, k_row)), kind=self.kind),
                    )
                )
        return out

    def final_graph(self):
        return self.graph_snapshots[-1]


def _segment(g, times, omega_rows, kappa_rows):
    shape = (len(times), g.n_edges)
    return (
        np.asarray(times, dtype=float),
        np.asarray(omega_rows, dtype=float).reshape(shape),
        np.asarray(kappa_rows, dtype=float).reshape(shape),
    )


def _row_totals(w):
    # a running sum rounds like adding a sample's weights one by one in edge
    # order, unlike numpy's pairwise row sums
    return np.cumsum(w, axis=1)[:, -1]


def _forman_kappa_vec(f, w_vec):
    # kappa_e * omega_e = -(F omega)_e, the matrix form of the Forman formula
    return -(f @ w_vec) / w_vec


def forman_flow_exact(g, omega0, times):
    """Evaluate the exact spectral Forman-flow solution at the given times.

    The linear flow is globally defined and positivity-preserving, so no
    surgery is applied.
    """
    times = list(times)
    if any(t < 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be nonnegative and strictly increasing")
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    coeff = flow_coefficients(sd, fm, omega0.vector(g))
    tarr = np.asarray(times, dtype=float)
    # omega[s, l] = sum_i coeff[i, l] exp(lambda_i t_s)
    w = np.exp(np.outer(tarr, sd.eigenvalues)) @ coeff
    # one matrix-vector product per row: a batched W @ F.T rounds differently
    kappa = [_forman_kappa_vec(fm.F, row) for row in w]
    return FlowTrajectory(
        kind="forman",
        graph_snapshots=[g],
        segments=[_segment(g, tarr, w, kappa)],
    )


def normalized_flow_state(g, omega0, t):
    """Normalized metric at time t computed in a scale-free way.

    Factors out exp(lambda_max t) before exponentiating, so arbitrarily
    large horizons are safe even for divergent flows.
    """
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    coeff = flow_coefficients(sd, fm, omega0.vector(g))
    shape = np.exp((sd.eigenvalues - sd.lambda_max) * t) @ coeff
    shape = shape / np.sum(shape)
    return MetricAssignment.from_vector(g, shape)


def _lly_kappa_fn(g, fm):
    # On a tree the Lin-Lu-Yau curvature equals the Forman closed form,
    # so stage evaluations reduce to a matrix product.
    if is_tree(g):
        return lambda w_vec: _forman_kappa_vec(fm.F, w_vec)

    def kappa(w_vec):
        omega = MetricAssignment.from_vector(g, w_vec)
        return np.array([lly_edge(g, omega, e) for e in g.edges])

    return kappa


def _rk4_step(kappa_fn, w, h):
    """One RK4 step of dw/dt = -kappa(w) * w; None if positivity breaks."""

    def deriv(state):
        if np.any(state <= 0.0):
            return None
        return -kappa_fn(state) * state

    k1 = deriv(w)
    if k1 is None:
        return None
    k2 = deriv(w + 0.5 * h * k1)
    if k2 is None:
        return None
    k3 = deriv(w + 0.5 * h * k2)
    if k3 is None:
        return None
    k4 = deriv(w + h * k3)
    if k4 is None:
        return None
    out = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.any(out <= 0.0):
        return None
    return out


def _advance(kappa_fn, w, dt):
    """Advance by dt, halving the internal step on positivity violations."""
    pieces = 1
    for _ in range(MAX_STEP_HALVINGS + 1):
        h = dt / pieces
        state = w
        ok = True
        for _ in range(pieces):
            state = _rk4_step(kappa_fn, state, h)
            if state is None:
                ok = False
                break
        if ok:
            return state
        pieces *= 2
    raise StepSizeTooLarge(
        f"weights stayed nonpositive after {MAX_STEP_HALVINGS} halvings of dt={dt}"
    )


def lly_flow_integrate(g, omega0, t_end, dt, surgery=True):
    """Integrate the Lin-Lu-Yau flow with RK4 and optional surgery.

    The surgery scan runs once before each accepted step; removed edges
    restart the system on the reduced graph in a new segment.  Samples are
    recorded every step for small graphs, every 10th step otherwise
    (endpoints always).
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")

    graph = g
    kappa_fn = _lly_kappa_fn(graph, build_flow_matrix(graph))
    w = omega0.vector(graph)

    surgeries = []
    snapshots = [graph]
    rows = [([], [], [])]  # (times, omega rows, kappa rows) per snapshot

    def record(t, w_vec):
        times, omega_rows, kappa_rows = rows[-1]
        times.append(t)
        omega_rows.append(w_vec)
        kappa_rows.append(kappa_fn(w_vec))

    keep_every = 1 if graph.n_edges <= SAMPLE_EVERY_THRESHOLD else 10

    def maybe_operate(t):
        nonlocal graph, kappa_fn, w, keep_every
        omega = MetricAssignment.from_vector(graph, w)
        if surgery_scan(graph, omega):
            graph, cut, events = apply_surgery(graph, omega, t=t)
            surgeries.extend(events)
            snapshots.append(graph)
            rows.append(([], [], []))
            kappa_fn = _lly_kappa_fn(graph, build_flow_matrix(graph))
            w = cut.vector(graph)
            keep_every = 1 if graph.n_edges <= SAMPLE_EVERY_THRESHOLD else 10

    if surgery:
        maybe_operate(0.0)
    record(0.0, w)
    t = 0.0
    step_no = 0
    while t < t_end - 1e-12:
        if surgery:
            maybe_operate(t)
        h = min(dt, t_end - t)
        w = _advance(kappa_fn, w, h)
        t += h
        step_no += 1
        if step_no % keep_every == 0 or t >= t_end - 1e-12:
            record(t, w)

    return FlowTrajectory(
        kind="lly",
        graph_snapshots=snapshots,
        segments=[_segment(s, *r) for s, r in zip(snapshots, rows)],
        surgeries=surgeries,
    )


def normalized_trajectory(traj):
    """Rescale every sample so its weights sum to 1; curvature is unchanged."""
    return FlowTrajectory(
        kind=traj.kind,
        graph_snapshots=list(traj.graph_snapshots),
        segments=[
            (times, omega / _row_totals(omega)[:, None], kappa)
            for times, omega, kappa in traj.segments
        ],
        surgeries=list(traj.surgeries),
    )


def curvature_residual(traj):
    """How well the samples satisfy d omega/dt = -kappa * omega.

    Central differences over consecutive sample triples; needs at least
    three samples and a constant edge set.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    if traj.surgeries:
        raise ValueError("residual is only defined between surgeries")
    ((times, w, kap),) = traj.segments
    dwdt = (w[2:] - w[:-2]) / (times[2:] - times[:-2])[:, None]
    resid = np.abs(dwdt + kap[1:-1] * w[1:-1])
    return float(np.max(resid))


def write_trajectory_csv(traj, graph, path):
    """CSV export: t,edge_id,omega,omega_normalized,kappa.

    One row per sample and edge of ``graph`` that the sample's graph still
    has; omega_normalized divides by the sum over all of the sample's edges.
    """
    lines = ["t,edge_id,omega,omega_normalized,kappa"]
    for snap, (times, omega, kappa) in zip(traj.graph_snapshots, traj.segments):
        cols = [
            (f"{u}-{v}", snap.edge_index[edge_key(u, v)])
            for u, v in graph.edges
            if edge_key(u, v) in snap.edge_index
        ]
        scaled = omega / _row_totals(omega)[:, None]
        # rows become Python floats one sample at a time, which formats
        # faster than numpy scalars and keeps peak memory at one row
        for t, w_row, n_row, k_row in zip(times.tolist(), omega, scaled, kappa):
            prefix = FLOAT_FMT.format(t)
            rows = (w_row.tolist(), n_row.tolist(), k_row.tolist())
            for edge_id, j in cols:
                values = [FLOAT_FMT.format(row[j]) for row in rows]
                lines.append(",".join([prefix, edge_id, *values]))
    atomic_write(path, "\n".join(lines) + "\n")


def write_surgery_csv(traj, path):
    """CSV export of surgery events: t,edge_id,omega,alt_distance."""
    lines = ["t,edge_id,omega,alt_distance"]
    for ev in traj.surgeries:
        u, v = ev.removed_edge
        lines.append(
            ",".join(
                [
                    FLOAT_FMT.format(ev.time),
                    f"{u}-{v}",
                    FLOAT_FMT.format(ev.edge_weight),
                    FLOAT_FMT.format(ev.alternative_distance),
                ]
            )
        )
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, text):
    """Write text to path through a temporary file and an atomic rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
