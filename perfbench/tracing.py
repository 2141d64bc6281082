"""Spans around ricciflow's public functions, installed from outside the package.

``flow``, ``cli`` and ``curvature`` import these functions by name, so a
wrapper replaces every module-level binding of the original function in the
``ricciflow`` modules, and ``uninstall`` puts the originals back.  Spans stay
in memory; ``write`` stores them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module, function).  "scipy.linprog" is the external LP solver that
# ricciflow.curvature imports by name.
TARGETS = (
    ("graph", "ricciflow.graph", "load_graph"),
    ("graph", "ricciflow.graph", "shortest_distance"),
    ("graph", "ricciflow.graph", "surgery_scan"),
    ("graph", "ricciflow.graph", "apply_surgery"),
    ("curvature", "ricciflow.curvature", "forman_edge"),
    ("curvature", "ricciflow.curvature", "lly_edge"),
    ("curvature", "ricciflow.curvature", "lly_limit_estimate"),
    ("curvature", "ricciflow.curvature", "wasserstein"),
    ("scipy", "scipy.optimize", "linprog"),
    ("spectral", "ricciflow.spectral", "build_flow_matrix"),
    ("spectral", "ricciflow.spectral", "eigendecompose"),
    ("spectral", "ricciflow.spectral", "jacobi_eigh"),
    ("spectral", "ricciflow.spectral", "curvature_bounds"),
    ("spectral", "ricciflow.spectral", "classify_convergence"),
    ("spectral", "ricciflow.spectral", "inverse_curvature"),
    ("flow", "ricciflow.flow", "lly_flow_integrate"),
    ("flow", "ricciflow.flow", "forman_flow_exact"),
    ("flow", "ricciflow.flow", "normalized_trajectory"),
    ("flow", "ricciflow.flow", "write_trajectory_csv"),
    ("flow", "ricciflow.flow", "write_surgery_csv"),
    ("cli", "ricciflow.cli", "main"),
)
SPAN_NAMES = tuple(f"{layer}.{func}" for layer, _, func in TARGETS)
LP = "scipy.linprog"
LLY_FLOW = "flow.lly_flow_integrate"


class Tracer:
    """Records (span_id, parent_id, op_id, name, start, end) per wrapped call
    and accumulates calls and self time per name."""

    def __init__(self):
        self.spans = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.lp_in_lly_flow = 0
        self.op_id = None
        self._stack = []  # [span_id, child seconds]
        self._in_lly_flow = 0
        self._saved = []
        self.bindings = {}

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            if name == LLY_FLOW:
                self._in_lly_flow += 1
            elif name == LP and self._in_lly_flow:
                self.lp_in_lly_flow += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if name == LLY_FLOW:
                    self._in_lly_flow -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.spans[span_id] = (span_id, parent, self.op_id, name, start, end)

        return wrapper

    def install(self):
        """Replace every binding of each target in the loaded ricciflow modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ricciflow" or n.startswith("ricciflow.")]
        for (layer, module, func), name in zip(TARGETS, SPAN_NAMES):
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(name, original)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))
                        count += 1
            self.bindings[name] = count

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["span_id", "parent_id", "op_id", "name", "start", "end"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
