"""What perfbench/tracing.py and the traced run's LP-count check rely on.

The benchmark wraps functions by module path and replaces every module-level
binding of each; a renamed function or a function-local import would make it
trace nothing, or break the LP-count check, without any test failing.  A
changed number of LPs per command breaks that check too, and so does a CLI
time grid that differs from the one perfbench/inputs.py counts steps on.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest
import scipy.optimize

import ricciflow.curvature
from ricciflow import MetricAssignment, build_named_graph, kernel
from ricciflow.cli import EXIT_OK, _flow_times, main
from conftest import count_linprog, distance_matrix

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module of its own, read and never written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable():
    targets = load_perfbench("tracing").TARGETS
    assert len(targets) == 21
    for _, module, func in targets:
        assert callable(getattr(importlib.import_module(module), func)), (module, func)


def test_curvature_binds_scipy_linprog_at_module_level():
    g = build_named_graph("cycle", 3)
    ricciflow.curvature.lly_edge(g, MetricAssignment.uniform(g), (0, 1))
    assert ricciflow.curvature.linprog is scipy.optimize.linprog


def test_lp_solves_look_up_the_module_level_binding(monkeypatch):
    # linprog is bound by the first solve, so reset the binding and let each
    # LP entry point bind it; then every solve must go through that name
    curvature = ricciflow.curvature
    g = build_named_graph("cycle", 5)
    omega = MetricAssignment.uniform(g)
    d, mu, nu = distance_matrix(g, omega), kernel(g, 0, 0.1), kernel(g, 1, 0.1)
    solves = (
        (lambda: curvature.lly_edge(g, omega, (0, 1)), 1),
        (lambda: curvature.lly_vector(g, omega), g.n_edges),
        (lambda: curvature.wasserstein(d, mu, nu), 1),
        (lambda: curvature.lly_limit_estimate(g, omega), g.n_edges),
    )
    for solve, _ in solves:
        monkeypatch.setattr(curvature, "linprog", None)
        solve()
        assert curvature.linprog is scipy.optimize.linprog

    calls = count_linprog(monkeypatch)
    expected = 0
    for solve, lps in solves:
        solve()
        expected += lps
        assert len(calls) == expected


# The traced benchmark run checks the LP count against a formula: a curvature
# table solves 2 LPs per edge (the Lin-Lu-Yau LP and one transport LP); a
# Lin-Lu-Yau flow on a graph with a cycle solves one LP per edge for its t=0
# sample and 5 per edge and RK4 step (4 stages and the step's sample), on the
# graph kept by the surgery at t=0.  These tests restate that formula.


def test_curvature_table_lp_count(tmp_path, monkeypatch):
    calls = count_linprog(monkeypatch)
    assert main(["curvature", "--named", "cycle:5", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 2 * 5


@pytest.mark.parametrize(
    "omega0, kept_edges",
    [("1,1,1,1,1,1", 6), ("1,1,1,1,1,2.5", 5)],
    ids=["no_surgery", "surgery_at_t0"],
)
def test_lly_flow_lp_count(tmp_path, monkeypatch, omega0, kept_edges):
    calls = count_linprog(monkeypatch)
    argv = ["flow", "--named", "complete:4", "--kind", "lly", "--omega0", omega0]
    argv += ["--t-end", "0.1", "--dt", "0.05", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    # omega(2-3) = 2.5 is cut at t=0, and the kept graph still has a cycle
    assert (tmp_path / "flow_complete4_surgery.csv").exists() == (kept_edges == 5)
    steps = 2
    assert len(calls) == kept_edges + 5 * kept_edges * steps


# The benchmark's oracles and LP-count formula take each flow's sample times
# from their own grids, and must find the CLI's: the same number of samples,
# at the same times.
INPUTS = load_perfbench("inputs")
BENCH_FLOWS = {
    "lly_flow": (INPUTS.LLY_T_END, INPUTS.LLY_DT),
    "cycle6": (float(INPUTS.CYCLE6_ARGS[1]), float(INPUTS.CYCLE6_ARGS[3])),
    "star": INPUTS.STAR_FLOW[1:],
    "tree": INPUTS.TREE_FLOW[1:],
    "path": INPUTS.PATH_FLOW[1:],
    "reproduce": (12.0, 0.01),
}


@pytest.mark.parametrize("t_end, dt", BENCH_FLOWS.values(), ids=BENCH_FLOWS.keys())
@pytest.mark.parametrize("grid", ["lly_time_grid", "forman_time_grid"])
def test_benchmark_grids_are_the_cli_grid(grid, t_end, dt):
    times = _flow_times(t_end, dt)
    bench = getattr(INPUTS, grid)(t_end, dt)
    assert len(bench) == len(times)
    assert np.max(np.abs(np.asarray(bench) - times)) <= 1e-12
