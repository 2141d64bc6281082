"""Curvature flow trajectories.

The Forman flow is linear, so it is evolved exactly through the spectral
solution omega(t, e_l) = sum_i c_i(e_l) exp(lambda_i t), evaluated once as
a shape that never grows times exp(lambda_max t).  The Lin-Lu-Yau
flow on general graphs is nonlinear (the curvature is an LP value) and is
integrated with classical RK4 plus surgery; on trees the two curvatures
coincide, which both speeds up the integrator and gives the exact solution
as a cross-check.  Surgery never disconnects the graph.  Both flows end
with ConvergenceFailure, naming the time, once a sample weight leaves the
normal float range [TINY, inf): below TINY it has lost precision, and a
flow that carried on there would write wrong weights.  A trajectory keeps
its samples as arrays in segments, one per edge set: the graph, the sample
times, and one omega row and one kappa row per sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .curvature import forman_kappa, lly_vector
from .graph import MetricAssignment, apply_surgery, edge_id, is_tree
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
TINY = np.finfo(float).tiny  # the smallest normal float


class StepSizeTooLarge(RuntimeError):
    """RK4 step kept producing nonpositive weights after repeated halving."""


@dataclass
class FlowTrajectory:
    """Flow samples stored as arrays, one segment per edge set.

    ``segments[i]`` is ``(graph, times, omega, kappa)``: the initial graph
    first, and a new segment after each surgery, holding the samples taken
    on that graph, one row per sample and columns in its edge order; a
    segment may hold no samples.
    """

    segments: list
    surgeries: list = field(default_factory=list)

    @property
    def times(self):
        return [float(t) for _, times, _, _ in self.segments for t in times]

    def final_graph(self):
        return self.segments[-1][0]


def _segment(g, times, omega_rows, kappa_rows):
    shape = (len(times), g.n_edges)
    return (
        g,
        np.asarray(times, dtype=float),
        np.asarray(omega_rows, dtype=float).reshape(shape),
        np.asarray(kappa_rows, dtype=float).reshape(shape),
    )


def _normalized(w):
    # rows over running sums, which round like adding the weights in edge order
    # (not numpy's pairwise sums); a row whose sum overflows is scaled by 2^-k
    with np.errstate(over="ignore"):
        totals = np.cumsum(w, axis=1)[:, -1:]
    if np.isinf(totals).any():
        w = np.where(np.isinf(totals), np.ldexp(w, -w.shape[1].bit_length()), w)
        totals = np.cumsum(w, axis=1)[:, -1:]
    return w / totals


def _forman_shape(g, omega0, times):
    """(F, shape, lambda_max) with omega(t_s) = shape[s] exp(lambda_max t_s).

    The shape never grows with t, and its row at t = 0 is omega0 itself,
    not its eigenbasis rebuild.
    """
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    w0 = omega0.vector(g)
    growth = np.exp(np.outer(times, sd.eigenvalues - sd.lambda_max))
    shape = growth @ flow_coefficients(sd, fm, w0)
    shape[times == 0] = w0
    return fm.F, shape, sd.lambda_max


def forman_flow_exact(g, omega0, times):
    """Evaluate the exact spectral Forman-flow solution at the given times.

    omega(t) is the scale-free shape times exp(lambda_max t), so the sample
    at t = 0 is omega0 exactly; kappa is read from omega.  The linear flow
    is globally defined and positivity-preserving, so no surgery is
    applied.  ConvergenceFailure if a weight leaves [TINY, inf), or a
    curvature is not finite, at some time.
    """
    tarr = np.asarray(times, dtype=float)
    # negated comparisons also reject nan times
    if not (np.all(tarr >= 0) and np.all(np.diff(tarr) > 0)):
        raise ValueError("times must be nonnegative and strictly increasing")
    f, shape, lambda_max = _forman_shape(g, omega0, tarr)
    with np.errstate(all="ignore"):  # a nonfinite result is raised just below
        w = shape * np.exp(lambda_max * tarr)[:, None]
        kappa = forman_kappa(f, w)
    _require_in_range("Forman", tarr, w, kappa)
    return FlowTrajectory(segments=[_segment(g, tarr, w, kappa)])


def _lly_kappa_fn(g):
    # On a tree the Lin-Lu-Yau curvature equals the Forman closed form,
    # so stage evaluations reduce to a matrix product.
    if is_tree(g):
        f = build_flow_matrix(g).F
        return lambda w_vec: forman_kappa(f, w_vec)
    return lambda w_vec: lly_vector(g, MetricAssignment.from_vector(g, w_vec))


def _rk4_step(kappa_fn, w, h):
    """One RK4 step of dw/dt = -kappa(w) * w; None if positivity breaks.

    A stage or result that is not finite is returned as it is: a smaller
    step cannot repair an overflow, so the caller rejects it unhalved.
    """
    ks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (0.0, 0.5, 0.5, 1.0):
            state = w + c * h * ks[-1] if ks else w
            if not np.isfinite(state).all():
                return state
            if np.any(state <= 0.0):
                return None
            ks.append(-kappa_fn(state) * state)
        k1, k2, k3, k4 = ks
        out = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.isfinite(out).all() and np.any(out <= 0.0):
        return None
    return out


def _require_in_range(kind, times, w, kappa=0.0):
    # ConvergenceFailure at the first time whose w leaves [TINY, inf) or kappa is not finite
    ok = np.atleast_1d(((w >= TINY) & (w < np.inf) & np.isfinite(kappa)).all(axis=-1))
    if not ok.all():
        raise ConvergenceFailure(
            f"{kind} flow leaves the floating-point range at t={times[ok.argmin()]:g}"
        )


def _advance(kappa_fn, w, dt):
    """Advance by dt, halving the internal step on positivity violations."""
    for halvings in range(MAX_STEP_HALVINGS + 1):
        pieces = 2**halvings
        state = w
        for _ in range(pieces):
            state = _rk4_step(kappa_fn, state, dt / pieces)
            if state is None:
                break
        else:
            return state
    raise StepSizeTooLarge(
        f"weights stayed nonpositive after {MAX_STEP_HALVINGS} halvings of dt={dt}"
    )


def lly_flow_integrate(g, omega0, t_end, dt, surgery=True):
    """Integrate the Lin-Lu-Yau flow with RK4 and optional surgery.

    Each accepted state, t=0 included, is scanned for surgery, then
    sampled if a sample is due, then stepped unless it is at t_end.
    Removed edges restart the system on the reduced graph in a new
    segment.  Samples are due every step for small graphs, every 10th step
    otherwise (endpoints always).  ConvergenceFailure if a weight, at t=0
    or after any step, leaves [TINY, inf), or a sampled curvature is not
    finite.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")

    graph = g
    kappa_fn = _lly_kappa_fn(graph)
    w = omega0.vector(graph)
    _require_in_range("Lin-Lu-Yau", [0.0], w)

    surgeries = []
    rows = [(graph, [], [], [])]  # (graph, times, omega rows, kappa rows)
    t = 0.0
    step_no = 0
    sample = True
    while True:
        if surgery:
            cut_graph, cut, events = apply_surgery(
                graph, MetricAssignment.from_vector(graph, w), t=t
            )
            if events:
                graph = cut_graph
                surgeries.extend(events)
                rows.append((graph, [], [], []))
                kappa_fn = _lly_kappa_fn(graph)
                w = cut.vector(graph)
        if sample:
            with np.errstate(over="ignore", invalid="ignore"):  # raised just below
                kappa = kappa_fn(w)
            _require_in_range("Lin-Lu-Yau", [t], w, kappa)
            _, times, omega_rows, kappa_rows = rows[-1]
            times.append(t)
            omega_rows.append(w)
            kappa_rows.append(kappa)
        if not t < t_end - 1e-12:  # negated, so a nan t_end ends here too
            return FlowTrajectory([_segment(*r) for r in rows], surgeries)
        h = min(dt, t_end - t)
        w = _advance(kappa_fn, w, h)
        t += h
        _require_in_range("Lin-Lu-Yau", [t], w)
        step_no += 1
        keep_every = 1 if graph.n_edges <= SAMPLE_EVERY_THRESHOLD else 10
        sample = step_no % keep_every == 0 or t >= t_end - 1e-12


def normalized_trajectory(traj):
    """Rescale every sample so its weights sum to 1; curvature is unchanged."""
    segments = [
        (g, times, _normalized(omega), kappa)
        for g, times, omega, kappa in traj.segments
    ]
    return FlowTrajectory(segments, list(traj.surgeries))


def write_trajectory_csv(traj, path):
    """CSV export: t,edge_id,omega,omega_normalized,kappa.

    One row per sample and edge of the trajectory's final graph, which every
    earlier graph contains; omega_normalized divides by the sum over all of
    the sample's edges.  The file is streamed CSV_BLOCK_SAMPLES samples at a
    time, and each sample's time is formatted once for all of its rows.
    """
    atomic_write(path, _trajectory_csv_chunks(traj))


def _trajectory_csv_chunks(traj):
    """Yield the CSV header, then one string per block of samples.

    A sample's template is ``rows`` joined on its time, formatted once, and
    leaves its 3E values as % slots; one % operation fills a block.
    """
    final = traj.final_graph()
    # vertex ids may hold '%'; a formatted time never does
    ids = [edge_id(u, v).replace("%", "%%") for u, v in final.edges]
    rows = ["", *(f",{i},{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\n" for i in ids)]
    yield "t,edge_id,omega,omega_normalized,kappa\n"
    for snap, times, omega, kappa in traj.segments:
        cols = [snap.position(u, v) for u, v in final.edges]
        for start in range(0, len(times), CSV_BLOCK_SAMPLES):
            block = slice(start, start + CSV_BLOCK_SAMPLES)
            w = omega[block]
            values = np.stack([w, _normalized(w), kappa[block]], axis=2)[:, cols]
            # Python floats format faster than numpy scalars
            template = "".join(
                [(FLOAT_FMT % t).join(rows) for t in times[block].tolist()]
            )
            yield template % tuple(values.ravel().tolist())


def write_surgery_csv(traj, path):
    """CSV export of surgery events: t,edge_id,omega,alt_distance."""
    row = f"{FLOAT_FMT},%s,{FLOAT_FMT},{FLOAT_FMT}\n"
    lines = [
        row % (e.time, edge_id(*e.removed_edge), e.edge_weight, e.alternative_distance)
        for e in traj.surgeries
    ]
    atomic_write(path, ["t,edge_id,omega,alt_distance\n", *lines])


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
