"""Command-line front end.

Subcommands: curvature, spectrum, classify, flow, inverse, reproduce.
All outputs are CSV/JSON data files written atomically under --out; floats
are formatted to 12 significant digits so identical configs produce
byte-identical files.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .curvature import (
    EpsilonTooLarge,
    default_epsilon,
    forman_vector,
    kernel,
    lly_limit_estimate,
    lly_vector,
)
from .flow import (
    FLOAT_FMT,
    atomic_write,
    forman_flow_exact,
    lly_flow_integrate,
    normalized_trajectory,
    write_surgery_csv,
    write_trajectory_csv,
)
from .graph import (
    DegenerateMetric,
    GraphError,
    MeasuredGraph,
    MetricAssignment,
    build_named_graph,
    edge_id,
    load_graph,
)
from .spectral import (
    DEFAULT_TOL_ZERO,
    NotATree,
    NotUniformMeasure,
    build_flow_matrix,
    classify_convergence,
    classify_tree_uniform,
    eigendecompose,
    inverse_curvature,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
MAX_FLOW_STEPS = 10**6  # bound on --t-end / --dt

FIGURE2_EDGES = ((1, 5), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8))
# figure id -> (family, n, measure mode, m2 values) of a uniform-start flow
FLOW_FIGURES = {
    "fig1a": ("star", 3, "uniform", None),
    "fig1b": ("star", 3, "normalized_deg1", [1.0, 2.0, 3.0]),
    "fig1c": ("star", 6, "uniform", None),
    "fig1d": ("star", 6, "normalized_deg1", [1.0] * 6),
}
FIGURE_IDS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "ex42", "ex43")


class InputError(Exception):
    pass


def _fnum(x):
    # round-trip through 12 significant digits for diff-stable output
    return float(FLOAT_FMT % float(x))


def _write_json(path, obj):
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _finite_float(value, what):
    """float(value); a non-number, nan or +-inf is an input error."""
    try:
        x = float(value)
    except ValueError as exc:
        raise InputError(f"bad {what} value: {value!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    return x


def _nonnegative_float(value, what):
    """_finite_float(value); a negative value is an input error too."""
    x = _finite_float(value, what)
    if x < 0:
        raise InputError(f"{what} must be nonnegative, got {value!r}")
    return x


def _parse_floats(text, what):
    return [_finite_float(p, what) for p in text.split(",") if p.strip() != ""]


def _resolve_graph(args):
    """Build (graph, omega0, name) from --named or --input."""
    if bool(args.named) == bool(args.input):
        raise InputError("exactly one of --named or --input is required")
    omega0 = None
    if args.named:
        try:
            family, _, count = args.named.partition(":")
            n = int(count)
        except ValueError as exc:
            raise InputError(f"bad --named spec {args.named!r}") from exc
        m2_values = _parse_floats(args.m2, "--m2") if args.m2 else None
        mode = "uniform" if args.measure == "uniform" else "normalized_deg1"
        try:
            g = build_named_graph(family, n, measure_mode=mode, m2_values=m2_values)
        except GraphError as exc:
            raise InputError(str(exc)) from exc
        name = f"{family}{n}"
    else:
        if args.m2:
            raise InputError("--m2 only applies to --named graphs")
        try:
            g, omega0 = load_graph(args.input)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except GraphError as exc:
            raise InputError(str(exc)) from exc
        name = os.path.splitext(os.path.basename(args.input))[0]
    if args.omega0:
        vals = _parse_floats(args.omega0, "--omega0")
        if len(vals) != g.n_edges:
            raise InputError(
                f"--omega0 needs {g.n_edges} values, got {len(vals)}"
            )
        omega0 = MetricAssignment.from_vector(g, vals)
    if omega0 is None:
        omega0 = MetricAssignment.uniform(g)
    return g, omega0, name


def _tol_zero(args):
    if args.tol_zero is not None:
        return _nonnegative_float(args.tol_zero, "--tol-zero")
    env = os.environ.get("RICCI_TOL_ZERO")
    if env is None:
        return DEFAULT_TOL_ZERO
    return _nonnegative_float(env, "RICCI_TOL_ZERO")


def cmd_curvature(args):
    g, omega, name = _resolve_graph(args)
    eps = default_epsilon(g)
    if args.epsilon is not None:
        floor = eps / 100  # below it LP tolerances swamp the kernels' small masses
        eps = _finite_float(args.epsilon, "--epsilon")
        for x in g.vertices:
            kernel(g, x, eps)  # EpsilonTooLarge before any LP is solved
        if eps < floor:
            raise InputError(f"--epsilon {eps:g} is below default epsilon / 100 = {floor:g}")
    # in this order, so lly_vector raises DegenerateMetric before any LP is solved
    columns = (forman_vector(g, omega), lly_vector(g, omega), lly_limit_estimate(g, omega, eps))
    lines = ["edge,forman,lly,lly_limit_estimate"]
    for e, row in zip(g.edges, np.stack(columns, axis=1).tolist()):
        lines.append(",".join([edge_id(*e), *(FLOAT_FMT % x for x in row)]))
    out = os.path.join(args.out, f"curvature_{name}.csv")
    atomic_write(out, "\n".join(lines) + "\n")
    print(out)
    return EXIT_OK


def _per_edge(g, values):
    # JSON object edge id -> value, in edge order
    return {edge_id(u, v): _fnum(x) for (u, v), x in zip(g.edges, values)}


def _spectrum_payload(g):
    fm = build_flow_matrix(g)
    sd = eigendecompose(fm)
    lower, upper = fm.bounds()
    return {
        "eigenvalues": [_fnum(x) for x in sd.eigenvalues],
        "lambda_max": _fnum(sd.lambda_max),
        "perron_vector": _per_edge(g, sd.perron_vector),
        "bounds": {"lower": _fnum(lower), "upper": _fnum(upper)},
    }


def cmd_spectrum(args):
    g, _, name = _resolve_graph(args)
    out = os.path.join(args.out, f"spectrum_{name}.json")
    _write_json(out, _spectrum_payload(g))
    print(out)
    return EXIT_OK


def _limit_payload(g, report):
    return {
        "classification": report.classification,
        "lambda_max": _fnum(report.lambda_max),
        "limiting_curvature": _fnum(report.limiting_curvature),
        "limiting_normalized_metric": _per_edge(g, report.limiting_normalized_metric),
    }


def _classify_payload(g, tol_zero):
    report = classify_convergence(g, tol_zero=tol_zero)
    payload = _limit_payload(g, report)
    payload["bounds"] = {
        "lower": _fnum(report.bounds[0]),
        "upper": _fnum(report.bounds[1]),
    }
    try:
        payload["tree_case"] = classify_tree_uniform(g)
    except (NotATree, NotUniformMeasure):
        pass
    return payload


def cmd_classify(args):
    g, _, name = _resolve_graph(args)
    out = os.path.join(args.out, f"classify_{name}.json")
    _write_json(out, _classify_payload(g, _tol_zero(args)))
    print(out)
    return EXIT_OK


def cmd_flow(args):
    g, omega0, name = _resolve_graph(args)
    t_end = _finite_float(args.t_end, "--t-end")
    dt = _finite_float(args.dt, "--dt")
    if t_end < 0:
        raise InputError("--t-end must be nonnegative")
    if dt <= 0:
        raise InputError("--dt must be positive")
    if t_end / dt > MAX_FLOW_STEPS:
        raise InputError(f"--t-end / --dt must be at most {MAX_FLOW_STEPS} steps")
    if args.kind == "forman":
        steps = max(1, int(round(t_end / dt)))
        times = np.arange(steps + 1) * t_end / steps if t_end > 0 else [0.0]
        traj = forman_flow_exact(g, omega0, times)
    else:
        traj = lly_flow_integrate(g, omega0, t_end, dt, surgery=args.surgery)
    out = os.path.join(args.out, f"flow_{name}.csv")
    write_trajectory_csv(traj, out)
    print(out)
    if traj.surgeries:
        sout = os.path.join(args.out, f"flow_{name}_surgery.csv")
        write_surgery_csv(traj, sout)
        print(sout)
    return EXIT_OK


def cmd_inverse(args):
    g, _, name = _resolve_graph(args)
    vals = _parse_floats(args.kappa, "--kappa")
    if len(vals) != g.n_edges:
        raise InputError(f"--kappa needs {g.n_edges} values, got {len(vals)}")
    result = inverse_curvature(g, vals, tol=_nonnegative_float(args.tol, "--tol"))
    payload = {"lambda_max_K": _fnum(result.lambda_max)}
    if result.metric is None:
        payload["solvable"] = False
    else:
        payload["solvable"] = True
        payload["omega"] = _per_edge(g, result.metric.vector(g))
    out = os.path.join(args.out, f"inverse_{name}.json")
    _write_json(out, payload)
    print(out)
    return EXIT_OK


def figure2_graph():
    """The 8-vertex, maximum-degree-4 tree used in the simulation figure."""
    return MeasuredGraph(tuple(range(1, 9)), FIGURE2_EDGES, np.ones(8), np.ones(7))


def figure2_initial_metric(g, delta):
    """Weights 1/7 +/- delta, sign alternating along the edge order."""
    base = 1.0 / 7.0
    vals = [base + ((1 if i % 2 == 0 else -1) * delta) for i in range(g.n_edges)]
    return MetricAssignment.from_vector(g, vals)


def _reproduce_flow(g, omega0, name, out_dir, t_end=12.0, dt=0.01):
    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * dt
    traj = normalized_trajectory(forman_flow_exact(g, omega0, times))
    csv_path = os.path.join(out_dir, f"reproduce_{name}.csv")
    write_trajectory_csv(traj, csv_path)
    return csv_path


def cmd_reproduce(args):
    out_dir = args.out
    written = []
    fig = args.figure
    if fig in FLOW_FIGURES:
        family, n, mode, m2_values = FLOW_FIGURES[fig]
        g = build_named_graph(family, n, mode, m2_values=m2_values)
        written.append(_reproduce_flow(g, MetricAssignment.uniform(g), fig, out_dir))
        summary = _limit_payload(g, classify_convergence(g))
    elif fig == "fig2":
        g = figure2_graph()
        # the long-time limit depends only on the graph: classify it once
        limit = _limit_payload(g, classify_convergence(g))
        summary = {"deltas": {}}
        for delta in (0.0, 0.01, 0.02, 0.03):
            label = FLOAT_FMT % delta
            omega0 = figure2_initial_metric(g, delta)
            written.append(_reproduce_flow(g, omega0, f"fig2_delta{label}", out_dir))
            summary["deltas"][label] = limit
    else:  # ex42 or ex43; argparse has rejected every other id
        family = "path" if fig == "ex42" else "star"
        n = 10
        a = [float(i) for i in range(1, n + 1)]
        g = build_named_graph(family, n, "normalized_deg1", m2_values=a)
        summary = _spectrum_payload(g)
        summary["m2_values"] = [_fnum(x) for x in a]

    json_path = os.path.join(out_dir, f"reproduce_{fig}.json")
    _write_json(json_path, summary)
    written.append(json_path)
    for p in written:
        print(p)
    return EXIT_OK


@functools.cache
def build_parser():
    """The one parser of this process, built at its first use.

    Parsing fills a fresh namespace and reads no state back into the parser,
    so calls share it; defaults that depend on the environment, like
    RICCI_TOL_ZERO, are read by the commands, not stored here.
    """
    parser = argparse.ArgumentParser(
        prog="ricciflow",
        description="Discrete Ricci curvature and curvature flows on measured graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_options(p):
        p.add_argument("--named", help="named graph, e.g. path:5, star:3, cycle:5")
        p.add_argument("--input", help="graph file path")
        p.add_argument(
            "--measure",
            choices=("uniform", "normalized"),
            default="uniform",
            help="measure mode for --named graphs",
        )
        p.add_argument("--m2", help="comma-separated m2 values (normalized mode)")
        p.add_argument("--omega0", help="comma-separated initial edge weights")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("curvature", help="per-edge Forman/LLY curvature table")
    add_graph_options(p)
    p.add_argument("--epsilon", type=float, help="laziness for the transport estimate")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("spectrum", help="eigenvalues of the symmetrized flow matrix")
    add_graph_options(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="long-time convergence report")
    add_graph_options(p)
    p.add_argument("--tol-zero", type=float, help="tolerance for the zero class")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("flow", help="evolve a curvature flow, export trajectory CSV")
    add_graph_options(p)
    p.add_argument("--kind", choices=("forman", "lly"), default="forman")
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--no-surgery", dest="surgery", action="store_false")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("inverse", help="prescribed-curvature problem")
    add_graph_options(p)
    p.add_argument("--kappa", required=True, help="comma-separated target curvatures")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_ZERO)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("reproduce", help="regenerate simulation/example data files")
    p.add_argument("--figure", choices=FIGURE_IDS, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)  # every subcommand has --out
        return args.func(args)
    except (InputError, GraphError, EpsilonTooLarge) as exc:
        # EpsilonTooLarge comes only from --epsilon: default_epsilon is valid
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an unusable --out; an unreadable --input is an InputError
        where = exc.filename2 or exc.filename or args.out
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateMetric, RuntimeError) as exc:
        # ConvergenceFailure, StepSizeTooLarge and failed LPs are RuntimeErrors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
