"""Output oracles for the ricciflow benchmark.

Each check re-derives what a command should have written from the input
model alone, with numpy and scipy, and never imports ricciflow.  A check
returns a list of error strings; an empty list means the output is correct.
``flip_kappa``, ``shift_lambda_max`` and ``drop_row`` damage a correct output
so the benchmark can show that the checks catch each kind of damage.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from inputs import (
    Graph,
    forman_from_metric,
    forman_time_grid,
    lly_time_grid,
    measured,
    named_edges,
)

# The CLI writes 12 significant digits, so exact quantities agree to ~1e-12;
# the tolerances below leave room for that and for the solvers' own accuracy.
EIG_TOL = 1e-9  # eigenvalues and Forman values, times max(1, |value scale|)
VEC_TOL = 1e-7  # eigenvectors, normalized metrics, inverse round trip
LP_TOL = 1e-6  # LP-valued curvature (HiGHS tolerances), times 1 + |kappa|
FLOW_TOL = 1e-8  # exact Forman flow against expm, times the sample's largest weight
ZERO_TOL = 1e-9  # the CLI's default zero band for lambda_max
# Central-difference residual of d omega/dt = -kappa omega on the RK4 samples,
# as a share of max |kappa omega|; the truncation error for dt = 0.025 and the
# curvatures these inputs reach stays well below it.
RESID_BOUND = 0.05

TRAJ_HEADER = "t,edge_id,omega,omega_normalized,kappa"
CURV_HEADER = "edge,forman,lly,lly_limit_estimate"
SURGERY_HEADER = "t,edge_id,omega,alt_distance"


def ftilde(g):
    """Symmetrized flow matrix: sqrt(m2_i m2_j) / m1(x) for edges meeting at x."""
    e = g.n_edges
    mat = np.zeros((e, e))
    at = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        at[u].append(i)
        at[v].append(i)
        mat[i, i] = -(g.m2[i] / g.m1[u] + g.m2[i] / g.m1[v])
    for x, inc in enumerate(at):
        for i in inc:
            for j in inc:
                if i != j:
                    mat[i, j] = np.sqrt(g.m2[i] * g.m2[j]) / g.m1[x]
    return mat


def flow_generator(g):
    """F with d omega/dt = F omega, pulled back from Ftilde through sqrt(m2)."""
    s = np.sqrt(g.m2)
    return ftilde(g) * s[None, :] / s[:, None]


def perron(mat):
    w, v = np.linalg.eigh(mat)
    top = v[:, -1]
    return w, top if top.sum() > 0 else -top


def _close(a, b, tol):
    return np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=0.0, atol=tol)


def _load_json(path, errors):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        errors.append(f"{os.path.basename(path)}: {exc}")
        return None


def _keyed(payload, key, g, errors, what):
    """Values of a {edge_id: value} map in edge order."""
    d = payload.get(key)
    if not isinstance(d, dict) or sorted(d) != sorted(g.edge_ids()):
        errors.append(f"{what}: {key} keys do not match the edges")
        return None
    return np.array([d[k] for k in g.edge_ids()], dtype=float)


def _check_spectrum_payload(p, g, errors, what):
    w, top = perron(ftilde(g))
    scale = EIG_TOL * max(1.0, float(np.max(np.abs(w))))
    if len(p.get("eigenvalues", [])) != g.n_edges or not _close(p["eigenvalues"], w, scale):
        errors.append(f"{what}: eigenvalues differ from numpy.linalg.eigh")
    if not _close(p.get("lambda_max", np.nan), w[-1], scale):
        errors.append(f"{what}: lambda_max {p.get('lambda_max')} != {w[-1]!r}")
    vec = _keyed(p, "perron_vector", g, errors, what)
    if vec is not None:
        if np.any(vec <= 0):
            errors.append(f"{what}: Perron vector not positive")
        if not _close(vec, top, VEC_TOL):
            errors.append(f"{what}: Perron vector differs from numpy")
    _check_bounds(p.get("bounds", {}), g, w[-1], errors, what)


def _check_bounds(b, g, lam, errors, what):
    ft = ftilde(g)
    diag = -np.diag(ft)
    off = np.sum(np.abs(ft), axis=1) - np.abs(np.diag(ft))
    lower, upper = float(np.min(diag - off)), float(np.min(diag))
    if not _close([b.get("lower", np.nan), b.get("upper", np.nan)], [lower, upper], EIG_TOL * max(1.0, abs(lower))):
        errors.append(f"{what}: Gerschgorin bounds differ")
    elif not lower - EIG_TOL <= -lam <= upper + EIG_TOL:
        errors.append(f"{what}: -lambda_max outside its bounds")


def _limiting_metric(g, top):
    shape = top / np.sqrt(g.m2)
    return shape / shape.sum()


def _check_limit_payload(p, g, errors, what):
    """classification, lambda_max, limiting curvature and metric of a report."""
    w, top = perron(ftilde(g))
    lam = w[-1]
    scale = EIG_TOL * max(1.0, float(np.max(np.abs(w))))
    if not _close(p.get("lambda_max", np.nan), lam, scale):
        errors.append(f"{what}: lambda_max {p.get('lambda_max')} != {lam!r}")
    if not _close(p.get("limiting_curvature", np.nan), -lam, scale):
        errors.append(f"{what}: limiting_curvature is not -lambda_max")
    expected = "vanishing" if lam < -ZERO_TOL else "constant_metric" if lam <= ZERO_TOL else "divergent"
    if p.get("classification") != expected:
        errors.append(f"{what}: classification {p.get('classification')} != {expected}")
    lim = _keyed(p, "limiting_normalized_metric", g, errors, what)
    if lim is not None:
        if np.any(lim <= 0) or abs(lim.sum() - 1.0) > EIG_TOL * g.n_edges:
            errors.append(f"{what}: limiting metric not positive with sum 1")
        if not _close(lim, _limiting_metric(g, top), VEC_TOL):
            errors.append(f"{what}: limiting metric is not the Perron direction")


def lly_transport(g, omega):
    """Lin-Lu-Yau curvature of every edge as (1 - W1(m_x, m_y) / d(x, y)) / eps.

    m_x keeps 1 - eps Deg(x) at x and gives eps m2(x, z) / m1(x) to each
    neighbour z; with eps = 1 / (4 max Deg) the kernels are lazy enough for
    the value to equal the limit, so this is an exact, independent route."""
    rate = [dict() for _ in range(g.n)]
    for (u, v), a in zip(g.edges, g.m2):
        rate[u][v] = a / g.m1[u]
        rate[v][u] = a / g.m1[v]
    eps = 1.0 / (4.0 * max(sum(r.values()) for r in rate))
    us, vs = zip(*g.edges)
    dist = shortest_path(csr_matrix((omega, (us, vs)), shape=(g.n, g.n)), directed=False)
    kappa = []
    for x, y in g.edges:
        kernels = []
        for base in (x, y):
            mass = {z: eps * r for z, r in rate[base].items()}
            mass[base] = 1.0 - eps * sum(rate[base].values())
            kernels.append((list(mass), np.array(list(mass.values()))))
        (src, a), (dst, b) = kernels
        ns, nd = len(src), len(dst)
        a_eq = np.zeros((ns + nd, ns * nd))
        for i in range(ns):
            a_eq[i, i * nd:(i + 1) * nd] = 1.0
        for j in range(nd):
            a_eq[ns + j, j::nd] = 1.0
        res = linprog(dist[np.ix_(src, dst)].ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]), method="highs")
        if not res.success:
            raise ValueError(f"transport oracle LP failed: {res.message}")
        kappa.append((1.0 - res.fun / dist[x, y]) / eps)
    return np.array(kappa)


def tree_case(g):
    deg = sorted(int(d) for d in g.degrees() if d > 0)
    if deg[-1] <= 2:
        return "path_case"
    return "k13_case" if deg == [1, 1, 1, 3] else "big_degree_case"


def check_spectrum(op, out):
    errors = []
    p = _load_json(os.path.join(out, f"spectrum_{op.name}.json"), errors)
    if p is not None:
        _check_spectrum_payload(p, op.graph, errors, "spectrum")
    return errors


def check_classify(op, out):
    errors = []
    p = _load_json(os.path.join(out, f"classify_{op.name}.json"), errors)
    if p is None:
        return errors
    g = op.graph
    _check_limit_payload(p, g, errors, "classify")
    _check_bounds(p.get("bounds", {}), g, p.get("lambda_max", np.nan), errors, "classify")
    expected = tree_case(g) if g.is_tree() and g.uniform() else None
    if p.get("tree_case") != expected:
        errors.append(f"classify: tree_case {p.get('tree_case')} != {expected}")
    return errors


def check_inverse(op, out):
    errors = []
    p = _load_json(os.path.join(out, f"inverse_{op.name}.json"), errors)
    if p is None:
        return errors
    g, kappa = op.graph, op.meta["kappa"]
    w, _ = perron(ftilde(g) + np.diag(kappa))
    lam = w[-1]
    if not _close(p.get("lambda_max_K", np.nan), lam, EIG_TOL * max(1.0, float(np.max(np.abs(w))))):
        errors.append(f"inverse: lambda_max_K {p.get('lambda_max_K')} != {lam!r}")
    solvable = bool(abs(lam) <= ZERO_TOL)
    if solvable != op.meta["solvable"] or p.get("solvable") is not solvable:
        errors.append(f"inverse: solvable {p.get('solvable')}, numpy says {solvable}")
    elif solvable:
        omega = _keyed(p, "omega", g, errors, "inverse")
        if omega is not None:
            if np.any(omega <= 0):
                errors.append("inverse: metric not positive")
            elif not _close(forman_from_metric(g, omega), kappa, VEC_TOL * (1 + np.max(np.abs(kappa)))):
                errors.append("inverse: metric does not realize the target curvature")
    return errors


def _read_csv_rows(path, header, errors):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        errors.append(str(exc))
        return None
    if not lines or lines[0] != header:
        errors.append(f"{os.path.basename(path)}: bad header")
        return None
    return [line.split(",") for line in lines[1:]]


def check_curvature(op, out):
    errors = []
    rows = _read_csv_rows(os.path.join(out, f"curvature_{op.name}.csv"), CURV_HEADER, errors)
    if rows is None:
        return errors
    g = op.graph
    if [r[0] for r in rows] != g.edge_ids():
        return errors + [f"curvature: {len(rows)} rows do not match the {g.n_edges} edges"]
    forman, lly, est = np.array([r[1:] for r in rows], dtype=float).T
    expected = forman_from_metric(g, np.ones(g.n_edges))
    if not _close(forman, expected, EIG_TOL * (1 + np.max(np.abs(expected)))):
        errors.append("curvature: Forman column differs from the closed form")
    tol = LP_TOL * (1 + np.abs(lly))
    if np.any(lly < forman - tol):
        errors.append("curvature: LLY below Forman")
    if np.any(np.abs(lly - est) > tol):
        errors.append("curvature: LLY and lly_limit_estimate disagree")
    if np.any(np.abs(lly - lly_transport(g, np.ones(g.n_edges))) > tol):
        errors.append("curvature: LLY differs from the transport oracle")
    if g.is_tree() and np.any(np.abs(lly - forman) > tol):
        errors.append("curvature: LLY != Forman on a tree")
    return errors


def read_trajectory(path, edge_ids, errors):
    """(times, omega, omega_normalized, kappa), each samples x edges, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            ids = [line.split(",", 2)[1] for line in fh]
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 3, 4), ndmin=2)
    except (OSError, ValueError, IndexError) as exc:
        errors.append(f"{os.path.basename(path)}: {exc}")
        return None
    e = len(edge_ids)
    if header != TRAJ_HEADER:
        errors.append(f"{os.path.basename(path)}: bad header")
        return None
    if len(ids) % e or ids != edge_ids * (len(ids) // e):
        errors.append(f"{os.path.basename(path)}: {len(ids)} rows are not whole samples of {e} edges")
        return None
    cols = data.reshape(len(ids) // e, e, 4)
    t = cols[:, :, 0]
    if np.any(t != t[:, :1]):
        errors.append(f"{os.path.basename(path)}: times differ within a sample")
        return None
    return t[:, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]


def _check_exact_forman(path, g, omega0, times, normalized, errors):
    """Forman-flow trajectory against expm(F t) omega0 on spot samples and
    against the Forman formula and normalization on every sample."""
    what = os.path.basename(path)
    traj = read_trajectory(path, g.edge_ids(), errors)
    if traj is None:
        return
    t, w, wn, k = traj
    if len(t) != len(times) or not _close(t, times, 1e-9 * max(1.0, times[-1])):
        errors.append(f"{what}: {len(t)} samples, expected {len(times)}")
        return
    if np.any(w <= 0):
        errors.append(f"{what}: nonpositive weight")
        return
    if not _close(wn, w / w.sum(axis=1, keepdims=True), VEC_TOL) or not _close(wn.sum(axis=1), 1.0, VEC_TOL):
        errors.append(f"{what}: normalized weights do not sum to 1")
    f = flow_generator(g)
    kappa = -(w @ f.T) / w
    if not _close(k, kappa, VEC_TOL * (1 + np.max(np.abs(kappa)))):
        errors.append(f"{what}: kappa column is not -(F omega)/omega")
    for s in np.unique(np.linspace(0, len(times) - 1, 7).astype(int)):
        exact = expm(f * times[s]) @ omega0
        if normalized:
            exact = exact / exact.sum()
        if not _close(w[s], exact, FLOW_TOL * np.max(np.abs(exact))):
            errors.append(f"{what}: omega at t={times[s]} differs from expm(F t) omega0")
            break


def check_forman_flow(op, out):
    errors = []
    times = forman_time_grid(op.meta["t_end"], op.meta["dt"])
    _check_exact_forman(os.path.join(out, f"flow_{op.name}.csv"), op.graph, op.meta["omega0"], times, False, errors)
    return errors


def _read_surgery(path, errors):
    if not os.path.exists(path):
        return []
    rows = _read_csv_rows(path, SURGERY_HEADER, errors)
    try:
        return [(float(r[0]), r[1], float(r[2]), float(r[3])) for r in rows or []]
    except (ValueError, IndexError) as exc:
        errors.append(f"{os.path.basename(path)}: {exc}")
        return []


def surgery_events(op, out):
    """(t, edge_id, omega, alt_distance) rows of a flow's surgery CSV."""
    return _read_surgery(os.path.join(out, f"flow_{op.name}_surgery.csv"), [])


def check_lly_flow(op, out, stats=None):
    """LLY-flow trajectory: positivity, surgery at t=0 as predicted, the first
    sample on the final graph against the transport oracle, LLY >= Forman
    (equality on trees), and the central-difference residual."""
    errors = []
    g, meta = op.graph, op.meta
    events = _read_surgery(os.path.join(out, f"flow_{op.name}_surgery.csv"), errors)
    ids = g.edge_ids()
    at_zero = [ids.index(e) for t, e, _, _ in events if t == 0.0 and e in ids]
    if at_zero != meta["removed_t0"]:
        errors.append(f"lly_flow: surgery at t=0 removed {at_zero}, expected {meta['removed_t0']}")
    if any(not w >= alt - 1e-8 * max(1.0, alt) for _, _, w, alt in events):
        errors.append("lly_flow: surgery removed a non-degenerate edge")
    gone = {e for _, e, _, _ in events}
    if not gone <= set(ids):
        return errors + ["lly_flow: surgery names an unknown edge"]
    final = g.subgraph([i for i, e in enumerate(ids) if e not in gone])
    traj = read_trajectory(os.path.join(out, f"flow_{op.name}.csv"), final.edge_ids(), errors)
    if traj is None:
        return errors
    t, w, _, k = traj
    times = lly_time_grid(meta["t_end"], meta["dt"])
    if len(t) != len(times) or not _close(t, times, 1e-9):
        return errors + [f"lly_flow: {len(t)} samples, expected {len(times)}"]
    if np.any(w <= 0):
        return errors + ["lly_flow: nonpositive weight"]
    keep = [ids.index(e) for e in final.edge_ids()]
    if not gone - {ids[i] for i in at_zero} and not _close(w[0], meta["omega0"][keep], 1e-11 * np.max(w[0])):
        errors.append("lly_flow: first sample is not omega0")
    last_cut = max((ev[0] for ev in events), default=0.0)
    rows = [s for s in range(len(t)) if t[s] > last_cut or last_cut == 0.0]
    if rows and np.any(np.abs(k[rows[0]] - lly_transport(final, w[rows[0]])) > LP_TOL * (1 + np.abs(k[rows[0]]))):
        errors.append(f"lly_flow: kappa at t={t[rows[0]]} differs from the transport oracle")
    for s in rows:
        forman = forman_from_metric(final, w[s])
        tol = LP_TOL * (1 + np.abs(forman))
        if np.any(k[s] < forman - tol):
            errors.append(f"lly_flow: LLY below Forman at t={t[s]}")
            break
        if final.is_tree() and np.any(np.abs(k[s] - forman) > tol):
            errors.append(f"lly_flow: LLY != Forman on a tree at t={t[s]}")
            break
    if len(rows) >= 3:
        s = np.array(rows)
        dwdt = (w[s[2:]] - w[s[:-2]]) / (t[s[2:]] - t[s[:-2]])[:, None]
        resid = np.max(np.abs(dwdt + k[s[1:-1]] * w[s[1:-1]]))
        scale = np.max(np.abs(k[s] * w[s]))
        ratio = resid / scale if scale > 0 else 0.0
        if stats is not None:
            stats["max_resid_ratio"] = max(stats.get("max_resid_ratio", 0.0), ratio)
        if ratio > RESID_BOUND:
            errors.append(f"lly_flow: central-difference residual {ratio:.3g} of max|kappa omega| > {RESID_BOUND}")
    return errors


def figure_setups(fig):
    """(csv stem, graph, omega0) per trajectory of a figure, as the paper states them."""
    if fig in ("fig1a", "fig1b", "fig1c", "fig1d"):
        k = 3 if fig in ("fig1a", "fig1b") else 6
        nv, edges = named_edges("star", k)
        m2 = {"fig1b": [1.0, 2.0, 3.0], "fig1d": [1.0] * 6}.get(fig)
        g = measured(nv, edges, m2 is not None, m2=m2)
        return [(fig, g, np.ones(k))]
    if fig == "fig2":
        edges = [(1, 5), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)]
        g = Graph(9, edges, np.ones(9), np.ones(7))
        sign = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(7)])
        return [(f"fig2_delta{d:.12g}", g, 1.0 / 7.0 + sign * d) for d in (0.0, 0.01, 0.02, 0.03)]
    return []


def figure_spectrum_graph(fig):
    nv, edges = named_edges("path" if fig == "ex42" else "star", 10)
    return measured(nv, edges, True, m2=np.arange(1.0, 11.0))


def check_reproduce(op, out):
    errors = []
    fig = op.meta["figure"]
    summary = _load_json(os.path.join(out, f"reproduce_{fig}.json"), errors)
    if summary is None:
        return errors
    if fig in ("ex42", "ex43"):
        g = figure_spectrum_graph(fig)
        _check_spectrum_payload(summary, g, errors, fig)
        if max(summary.get("eigenvalues", [0.0])) >= 0:
            errors.append(f"{fig}: flow matrix is not negative definite")
        if not _close(summary.get("m2_values", []), g.m2, 0.0):
            errors.append(f"{fig}: m2_values differ")
        return errors
    times = [i * 0.01 for i in range(1201)]
    for stem, g, omega0 in figure_setups(fig):
        _check_exact_forman(os.path.join(out, f"reproduce_{stem}.csv"), g, omega0, times, True, errors)
        sub = summary if fig != "fig2" else summary.get("deltas", {}).get(stem[len("fig2_delta"):], {})
        _check_limit_payload(sub, g, errors, stem)
    return errors


CHECKS = {
    "curvature": check_curvature,
    "spectrum": check_spectrum,
    "classify": check_classify,
    "inverse": check_inverse,
    "forman_flow": check_forman_flow,
    "reproduce": check_reproduce,
}


def check(op, out, stats=None):
    """Errors found in the outputs of ``op``; malformed output is an error too."""
    try:
        if op.check == "lly_flow":
            return check_lly_flow(op, out, stats)
        return CHECKS[op.check](op, out)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"{op.check}: malformed output: {type(exc).__name__}: {exc}"]


# Self-test corruptions: each returns False when the output has nothing to damage.

def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not edit(lines):
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return True


def flip_kappa(path, column):
    """Negate one curvature: in a trajectory (column 4) the interior-sample row
    with the largest |kappa * omega|, in a table the row with the largest |kappa|."""

    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        if column == 4:
            ends = {rows[0][0], rows[-1][0]}
            candidates = [i for i, r in enumerate(rows) if r[0] not in ends]
            size = lambda r: abs(float(r[4]) * float(r[2]))
        else:
            candidates = range(len(rows))
            size = lambda r: abs(float(r[column]))
        if not candidates:
            return False
        best = max(candidates, key=lambda i: size(rows[i]))
        if size(rows[best]) == 0:
            return False
        rows[best][column] = repr(-float(rows[best][column]))
        lines[best + 1] = ",".join(rows[best])
        return True

    return _rewrite_csv(path, edit)


def drop_row(path):
    def edit(lines):
        if len(lines) < 3:
            return False
        del lines[len(lines) // 2]
        return True

    return _rewrite_csv(path, edit)


def shift_lambda_max(path, delta=1e-6):
    with open(path, encoding="utf-8") as fh:
        p = json.load(fh)
    if "lambda_max" not in p:
        return False
    p["lambda_max"] += delta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p, fh)
    return True
