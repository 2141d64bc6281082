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
