"""Curvature flow trajectories.

The Forman flow is linear, so it is evolved exactly through the spectral
solution omega(t, e_l) = sum_i c_i(e_l) exp(lambda_i t).  The Lin-Lu-Yau
flow on general graphs is nonlinear (the curvature is an LP value) and is
integrated with classical RK4 plus surgery; on trees the two curvatures
coincide, which both speeds up the integrator and gives the exact solution
as a cross-check.  A trajectory keeps its samples as arrays: per edge set,
the sample times and one omega row and one kappa row per sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .curvature import forman_kappa, lly_vector
from .graph import MetricAssignment, apply_surgery, edge_key, is_tree
from .spectral import (
    ConvergenceFailure,
    build_flow_matrix,
    eigendecompose,
    flow_coefficients,
)

SAMPLE_EVERY_THRESHOLD = 64  # edges; beyond this keep every 10th step
MAX_STEP_HALVINGS = 20
FLOAT_FMT = "%.12g"  # 12 significant digits keep output files diff-stable
CSV_BLOCK_SAMPLES = 256  # samples formatted by one % operation


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

    graph_snapshots: list
    segments: list
    surgeries: list = field(default_factory=list)

    @property
    def times(self):
        return [float(t) for times, _, _ in self.segments for t in times]

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


def forman_flow_exact(g, omega0, times):
    """Evaluate the exact spectral Forman-flow solution at the given times.

    The linear flow is globally defined and positivity-preserving, so no
    surgery is applied.  ConvergenceFailure if a weight overflows or
    underflows to zero, or a curvature is not finite, at some time.
    """
    tarr = np.asarray(times, dtype=float)
    # negated comparisons also reject nan times
    if not (np.all(tarr >= 0) and np.all(np.diff(tarr) > 0)):
        raise ValueError("times must be nonnegative and strictly increasing")
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    coeff = flow_coefficients(sd, fm, omega0.vector(g))
    with np.errstate(all="ignore"):  # a nonfinite result is raised just below
        # omega[s, l] = sum_i coeff[i, l] exp(lambda_i t_s)
        w = np.exp(np.outer(tarr, sd.eigenvalues)) @ coeff
        kappa = forman_kappa(fm.F, w)
    ok = ((w > 0.0) & (w < np.inf) & np.isfinite(kappa)).all(axis=1)
    if not ok.all():
        raise ConvergenceFailure(
            f"Forman flow leaves the floating-point range at t={tarr[ok.argmin()]:g}"
        )
    return FlowTrajectory(
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


def _lly_kappa_fn(g):
    # On a tree the Lin-Lu-Yau curvature equals the Forman closed form,
    # so stage evaluations reduce to a matrix product.
    if is_tree(g):
        f = build_flow_matrix(g).F
        return lambda w_vec: forman_kappa(f, w_vec)
    return lambda w_vec: lly_vector(g, MetricAssignment.from_vector(g, w_vec))


def _rk4_step(kappa_fn, w, h):
    """One RK4 step of dw/dt = -kappa(w) * w; None if positivity breaks."""
    ks = []
    for c in (0.0, 0.5, 0.5, 1.0):
        state = w + c * h * ks[-1] if ks else w
        if np.any(state <= 0.0):
            return None
        ks.append(-kappa_fn(state) * state)
    k1, k2, k3, k4 = ks
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
    kappa_fn = _lly_kappa_fn(graph)
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
        cut_graph, cut, events = apply_surgery(
            graph, MetricAssignment.from_vector(graph, w), t=t
        )
        if events:
            graph = cut_graph
            surgeries.extend(events)
            snapshots.append(graph)
            rows.append(([], [], []))
            kappa_fn = _lly_kappa_fn(graph)
            w = cut.vector(graph)
            keep_every = 1 if graph.n_edges <= SAMPLE_EVERY_THRESHOLD else 10

    if surgery:
        maybe_operate(0.0)
    record(0.0, w)
    t = 0.0
    step_no = 0
    while t < t_end - 1e-12:
        # the metric at t=0 was scanned just above
        if surgery and step_no > 0:
            maybe_operate(t)
        h = min(dt, t_end - t)
        w = _advance(kappa_fn, w, h)
        t += h
        step_no += 1
        if step_no % keep_every == 0 or t >= t_end - 1e-12:
            record(t, w)

    return FlowTrajectory(
        graph_snapshots=snapshots,
        segments=[_segment(s, *r) for s, r in zip(snapshots, rows)],
        surgeries=surgeries,
    )


def normalized_trajectory(traj):
    """Rescale every sample so its weights sum to 1; curvature is unchanged."""
    return FlowTrajectory(
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
    The file is streamed CSV_BLOCK_SAMPLES samples at a time.
    """
    atomic_write(path, _trajectory_csv_chunks(traj, graph))


def _trajectory_csv_chunks(traj, graph):
    yield "t,edge_id,omega,omega_normalized,kappa\n"
    for snap, (times, omega, kappa) in zip(traj.graph_snapshots, traj.segments):
        kept = [(u, v) for u, v in graph.edges if edge_key(u, v) in snap.edge_index]
        cols = [snap.edge_index[edge_key(u, v)] for u, v in kept]
        # one sample's rows as a single %-template; vertex ids may hold '%'
        edge_ids = [f"{u}-{v}".replace("%", "%%") for u, v in kept]
        row = "".join(
            f"{FLOAT_FMT},{edge_id},{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\n"
            for edge_id in edge_ids
        )
        for start in range(0, len(times), CSV_BLOCK_SAMPLES):
            block = slice(start, start + CSV_BLOCK_SAMPLES)
            t, w = times[block, None], omega[block]
            scaled = w / _row_totals(w)[:, None]
            values = np.stack(
                [np.broadcast_to(t, w.shape), w, scaled, kappa[block]], axis=2
            )[:, cols]
            # Python floats format faster than numpy scalars
            yield (row * len(w)) % tuple(values.ravel().tolist())


def write_surgery_csv(traj, path):
    """CSV export of surgery events: t,edge_id,omega,alt_distance."""
    lines = ["t,edge_id,omega,alt_distance"]
    for ev in traj.surgeries:
        u, v = ev.removed_edge
        lines.append(
            ",".join(
                [
                    FLOAT_FMT % ev.time,
                    f"{u}-{v}",
                    FLOAT_FMT % ev.edge_weight,
                    FLOAT_FMT % ev.alternative_distance,
                ]
            )
        )
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, chunks):
    """Write to path through a temporary file and an atomic rename.

    ``chunks`` is one string or an iterable of strings, each written as it
    is produced; on any error the target is left untouched.  The file gets
    the mode a plain ``open(path, "w")`` would give it, 0o666 less the umask.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    # O_EXCL makes the random name private to this call; unlike mkstemp's
    # fixed 0o600, mode 0o666 leaves the final permissions to the umask
    tmp = os.path.join(d, f".tmp_{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
