"""What perfbench/tracing.py relies on in the package.

The benchmark wraps functions by module path and replaces every module-level
binding of each; a renamed function or a function-local import would make it
trace nothing, or break the LP-count check, without any test failing.
"""

import importlib
import importlib.util
import pathlib

import scipy.optimize

import ricciflow.curvature
from ricciflow import MetricAssignment, build_named_graph, kernel

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
    assert len(targets) == 21
    for _, module, func in targets:
        assert callable(getattr(importlib.import_module(module), func)), (module, func)


def test_curvature_binds_scipy_linprog_at_module_level():
    assert ricciflow.curvature.linprog is scipy.optimize.linprog


def test_lp_solves_look_up_the_module_level_binding(monkeypatch):
    # linprog is bound on first use, so drop the binding and let each LP
    # entry point create it; then every solve must go through that name
    curvature = vars(ricciflow.curvature)
    g = build_named_graph("cycle", 5)
    omega = MetricAssignment.uniform(g)
    mu, nu = kernel(g, 0, 0.1), kernel(g, 1, 0.1)
    solves = (
        lambda: ricciflow.curvature.lly_edge(g, omega, (0, 1)),
        lambda: ricciflow.curvature.wasserstein(g, omega, mu, nu),
    )
    for solve in solves:
        monkeypatch.delitem(curvature, "linprog", raising=False)
        solve()
        assert curvature["linprog"] is scipy.optimize.linprog

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return scipy.optimize.linprog(*args, **kwargs)

    monkeypatch.setattr(ricciflow.curvature, "linprog", counting)
    for n, solve in enumerate(solves, start=1):
        solve()
        assert len(calls) == n
