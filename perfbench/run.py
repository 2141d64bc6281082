#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ricciflow command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lly_flow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, closed loop: ``ricciflow.cli.main(argv)`` is called
in-process and the next command starts only after the previous one returned
and its outputs were checked against the oracles in ``oracles.py``.  Inputs
come from ``inputs.py`` and depend only on the workload and ``--seed``.

``--trace 0`` runs whole rounds of commands until ``--seconds`` of wall time
have passed and reports the end-to-end metrics.  ``--trace 1`` runs the
seed's first TRACE_ROUNDS rounds, each command once untraced and once with
spans around the package's public functions, and reports per-layer metrics;
the fixed rounds make every count repeat exactly for a seed.  A readable
report goes to standard output, the last line is one JSON object, and the
details (environment, input properties, spans) go to ``.perfbench_out/``.

End-to-end metrics: ``setup_s`` is the median time for a fresh interpreter
to import ricciflow.cli; ``ops_per_s`` is commands per second of command
time (oracle checks and input generation are not timed); ``op_p50_ms`` and
``op_tail_ms`` are the median and the highest percentile with at least ten
commands above it; ``ok_ratio`` is 1 - fail_ratio, where a nonzero exit or a
failed oracle check fails a command; ``peak_rss_mb`` is this process's peak
resident memory.  Exit codes 2 and 3 are counted apart in the report.

The four timings are at reference speed (``hostspeed.py``): each measured
time is scaled by the nominal over the measured time of a fixed pure-Python
loop run right next to it, so that the drift of a shared host's speed, which
slows the loop and the commands alike, cancels.  The same timings in plain
wall time are printed in the report and kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# One client drives small matrices, so BLAS runs single-threaded unless the
# caller asked for more; never above the usable cores.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    try:
        _n = int(os.environ.get(_var, "1"))
    except ValueError:
        _n = 1
    os.environ[_var] = str(min(max(_n, 1), NPROC))

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np
import scipy

import oracles
from hostspeed import REF_SECONDS, at_reference_speed, reference_block
from inputs import WORKLOADS, RoundMaker, lly_time_grid, round_properties
from tracing import LP, SPAN_NAMES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5
TRACE_ROUNDS = 2
REF_SHARE = 0.1  # reference loop time after each command, as a share of its latency
WARMUP_ROUND = 10**6  # a round index never timed, so warm-up inputs are distinct
EXIT_INPUT, EXIT_NUMERICAL = 2, 3


def measure_setup():
    """Median seconds, at reference speed, for a fresh interpreter to import
    ricciflow.cli; the reference loop runs for 50 ms before and after the
    import.  The first import compiles bytecode and is not counted.
    Returns (median, [(import seconds, reference seconds), ...])."""
    code = (
        "import json, sys, time; sys.path[:0] = [%r, %r]; from hostspeed import reference_block as ref; "
        "r = ref(0.05); t = time.perf_counter(); import ricciflow.cli; s = time.perf_counter() - t; "
        "print(json.dumps([s, r, ref(0.05)]))" % (SRC, os.path.dirname(os.path.abspath(__file__)))
    )
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing ricciflow.cli failed: {proc.stderr.strip()}")
        if i:
            seconds, r1, r2 = json.loads(proc.stdout)
            samples.append((seconds, (r1 + r2) / 2))
    return statistics.median(at_reference_speed(s, r) for s, r in samples), samples


def environment():
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


class Runner:
    """Runs commands in-process, checks their outputs and keeps the tallies."""

    def __init__(self, cli, work):
        self.cli = cli
        self.work = work
        self.count = 0
        self.failures = {"exit2": 0, "exit3": 0, "crash": 0, "oracle": 0}
        self.errors = []
        self.oracle_stats = {}

    def execute(self, op):
        """Run one command into a fresh directory; returns (seconds, code, out)."""
        self.count += 1
        out = os.path.join(self.work, f"out{self.count}")
        os.makedirs(out)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.main([*op.argv, "--out", out])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            self.errors.append(f"{' '.join(op.argv)[:160]} -> {code} {buf.getvalue().strip()[:200]}")
        return seconds, code, out

    def verify(self, op, code, out):
        """Classify the outcome and check the outputs; True when the command succeeded."""
        if code == EXIT_INPUT:
            self.failures["exit2"] += 1
        elif code == EXIT_NUMERICAL:
            self.failures["exit3"] += 1
        elif code != 0:
            self.failures["crash"] += 1
        else:
            errs = oracles.check(op, out, self.oracle_stats)
            if not errs:
                return True
            self.failures["oracle"] += 1
            self.errors.append(f"{' '.join(op.argv)[:160]}: {'; '.join(errs)[:400]}")
        return False

    @property
    def failed(self):
        return sum(self.failures.values())


# Corruptions each command kind must detect in the oracle self-test.
SELF_TESTS = {
    "lly_flow": ("kappa_sign", "drop_row"),
    "curvature": ("kappa_sign",),
    "forman_flow": ("kappa_sign", "drop_row"),
    "spectrum": ("lambda_max",),
    "classify": ("lambda_max",),
    "reproduce": ("lambda_max",),
}


def corrupt(op, kind, out):
    """Damage one output file of ``op`` in ``out``; False if nothing to damage."""
    if op.check == "curvature":
        return oracles.flip_kappa(os.path.join(out, f"curvature_{op.name}.csv"), 2)  # the LLY column
    if kind == "lambda_max":
        return oracles.shift_lambda_max(os.path.join(out, f"{op.check}_{op.name}.json"))
    if op.check == "lly_flow" and any(t > 0 for t, *_ in oracles.surgery_events(op, out)):
        return False  # the residual check starts after the last surgery
    path = os.path.join(out, f"flow_{op.name}.csv")
    return oracles.flip_kappa(path, 4) if kind == "kappa_sign" else oracles.drop_row(path)


def warm_up_and_self_test(runner, maker):
    """Run the warm-up round's commands, at least one of each kind, until every
    corruption in SELF_TESTS has been tried on a checked output.  Returns
    {kind.corruption: caught}; a corruption with nothing to damage counts as missed."""
    results = {}
    seen = set()
    for op in maker.round(WARMUP_ROUND):
        pending = [k for k in SELF_TESTS.get(op.check, ()) if f"{op.check}.{k}" not in results]
        if op.check in seen and not pending:
            continue
        seen.add(op.check)
        _, code, out = runner.execute(op)
        if runner.verify(op, code, out):
            for kind in pending:
                copy = out + "_corrupt"
                shutil.copytree(out, copy)
                if corrupt(op, kind, copy):
                    results[f"{op.check}.{kind}"] = bool(oracles.check(op, copy))
                shutil.rmtree(copy)
        shutil.rmtree(out)
    for check in seen:
        for kind in SELF_TESTS.get(check, ()):
            results.setdefault(f"{check}.{kind}", False)
    return results


def tail(latencies):
    """Highest integer percentile with at least ten commands above it."""
    lat = np.sort(np.asarray(latencies))
    for p in range(99, 0, -1):
        value = float(np.percentile(lat, p))
        beyond = int(np.sum(lat > value))
        if beyond >= 10:
            return value, p, beyond
    return float(lat[-1]), 100, 0


def predicted_lps(op, out):
    """LP solves a command should make: 2 per edge for a curvature table; for
    an LLY flow, one per edge and RK4 stage plus one per edge and sample on
    every non-tree graph the flow passes through (surgery times from its CSV)."""
    if op.check == "curvature":
        return 2 * op.graph.n_edges
    if op.check != "lly_flow":
        return 0
    g = op.graph.subgraph(op.meta["kept_t0"])
    times = lly_time_grid(op.meta["t_end"], op.meta["dt"])
    later = [t for t, *_ in oracles.surgery_events(op, out) if t > 0]

    def lp_edges(k):  # edges needing an LP on the graph used for the step from times[k]
        e = g.n_edges - sum(t <= times[k] + 1e-9 for t in later)
        return 0 if e == g.n - 1 else e

    return lp_edges(0) + sum(5 * lp_edges(k) for k in range(len(times) - 1))


def run_timed(runner, maker, seconds):
    """Whole rounds until ``seconds`` of wall time have passed.  The reference
    loop runs between commands for REF_SHARE of the last command's time; a
    command's latency at reference speed uses the mean of the median loop
    times just before and just after it.  Returns the wall and reference-speed
    latency and round index of every command, the loop times, and the
    commands run."""
    latencies, scaled, round_of, ops_run = [], [], [], []
    refs = [reference_block(REF_SHARE)]
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        ops = maker.round(r)
        for op in ops:
            lat, code, out = runner.execute(op)
            refs.append(reference_block(REF_SHARE * lat))
            runner.verify(op, code, out)
            shutil.rmtree(out)
            latencies.append(lat)
            scaled.append(at_reference_speed(lat, (refs[-2] + refs[-1]) / 2))
            round_of.append(r)
        ops_run += ops
        r += 1
    return latencies, scaled, round_of, refs, ops_run


def run_traced(runner, maker):
    tracer = Tracer()
    plain, traced, ops_run = [], [], []
    predicted = csv_bytes = surgeries = 0
    for r in range(TRACE_ROUNDS):
        for op in maker.round(r):
            # alternate which run goes first, so warm caches favour neither
            for with_trace in (False, True) if len(ops_run) % 2 == 0 else (True, False):
                if with_trace:
                    tracer.op_id = len(ops_run)
                    tracer.install()
                try:
                    lat, code, out = runner.execute(op)
                finally:
                    tracer.uninstall()
                runner.verify(op, code, out)
                if with_trace:
                    traced.append(lat)
                    predicted += predicted_lps(op, out)
                    if op.check == "lly_flow":
                        surgeries += len(oracles.surgery_events(op, out))
                    csv_bytes += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out) if f.endswith(".csv"))
                else:
                    plain.append(lat)
                shutil.rmtree(out)
            ops_run.append(op)
    return tracer, plain, traced, ops_run, predicted, csv_bytes, surgeries


def layer_metrics(tracer, plain, traced, ops_run, csv_bytes, surgeries):
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    lps = tracer.calls[LP]
    stages = round_properties(ops_run)["nominal_lp_edge_stages"]
    root = sum(e - s for _, parent, _, _, s, e in tracer.spans if parent is None)
    m["curvature.lp_per_edge_stage"] = (tracer.lp_in_lly_flow / stages if stages else 0.0, "ratio")
    m["graph.shortest_distance.per_lp"] = (tracer.calls["graph.shortest_distance"] / lps if lps else 0.0, "ratio")
    m["graph.surgery_events"] = (surgeries, "count")
    m["spectral.flow_matrix_builds_per_op"] = (tracer.calls["spectral.build_flow_matrix"] / len(ops_run), "ratio")
    m["spectral.eigendecompose_per_op"] = (tracer.calls["spectral.eigendecompose"] / len(ops_run), "ratio")
    m["flow.csv_mb"] = (csv_bytes / 1e6, "MB")
    m["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    # traced command wall time that no span covers (harness and root wrapper)
    m["trace.unattributed_s"] = (sum(traced) - root, "s")
    return m


def emit(workload, seed, trace, metrics, attempted, failed, correct, report, details):
    os.makedirs(OUT_DIR, exist_ok=True)
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "ricciflow", "cli.py")):
        print(f"error: no ricciflow sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # The cores of a shared host drift in speed independently of each other,
        # so the commands and the reference loop beside them run on one core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import ricciflow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported ricciflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_DIR, f"{args.workload}_{args.seed}_{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_in(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


def _run_in(args, cli, work):
    env = environment()
    setup_s, setup_values = measure_setup()
    maker = RoundMaker(args.workload, args.seed, work)
    warm = Runner(cli, os.path.join(work, "warm"))
    selftest = warm_up_and_self_test(warm, maker)
    runner = Runner(cli, work)
    report = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        "env " + json.dumps(env),
        "oracle self-test " + json.dumps(selftest),
    ]
    details = {"workload": args.workload, "seed": args.seed, "env": env, "setup_import_and_reference_s": setup_values,
               "oracle_selftest": selftest, "warm_up_failures": warm.failures, "warm_up_errors": warm.errors}
    correct = all(selftest.values()) and warm.failures["oracle"] == 0

    if args.trace:
        tracer, plain, traced, ops_run, predicted, csv_bytes, surgeries = run_traced(runner, maker)
        metrics = layer_metrics(tracer, plain, traced, ops_run, csv_bytes, surgeries)
        lp_ok = predicted == tracer.calls[LP]
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(span_file)
        report.append(f"lp consistency: scipy.linprog.calls {tracer.calls[LP]} predicted {predicted} "
                      f"{'ok' if lp_ok else 'MISMATCH'}")
        report.append("wrapped bindings " + json.dumps(tracer.bindings))
        details.update(lp_predicted=predicted, lp_observed=tracer.calls[LP], bindings=tracer.bindings,
                       spans=span_file, span_count=len(tracer.spans))
        attempted = len(ops_run)
        correct = correct and lp_ok
    else:
        latencies, scaled, round_of, refs, ops_run = run_timed(runner, maker, args.seconds)
        rounds = round_of[-1] + 1
        attempted = len(latencies)
        value, pct, beyond = tail(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(scaled), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "ok_ratio": (1.0 - runner.failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall_tail = tail(latencies)[0]
        report.append(f"wall time, not scaled: ops_per_s {attempted / sum(latencies):.6g} op_p50_ms "
                      f"{1e3 * statistics.median(latencies):.6g} op_tail_ms {1e3 * wall_tail:.6g} setup_s "
                      f"{statistics.median(s for s, _ in setup_values):.6g}; reference loop median "
                      f"{1e3 * statistics.median(refs):.6g} ms, nominal {1e3 * REF_SECONDS:.6g} ms")
        report.append(f"op_tail_ms is p{pct} of {attempted} commands ({beyond} beyond it), {rounds} rounds")
        report.append(f"fail_ratio {runner.failed / attempted:.4g} = {runner.failed} failed of {attempted}: "
                      + json.dumps(runner.failures))
        details.update(rounds=rounds, tail_percentile=pct, tail_beyond=beyond, latencies_s=latencies,
                       scaled_latencies_s=scaled, reference_s=refs, round_of=round_of,
                       commands=[" ".join(op.argv[:3]) for op in ops_run])
    correct = correct and runner.failures["oracle"] == 0
    props = round_properties(ops_run)
    report.append("inputs " + json.dumps(props))
    report.append("oracle stats " + json.dumps(runner.oracle_stats))
    report += [f"error: {e}" for e in (warm.errors + runner.errors)[:20]]
    details.update(inputs=props, failures=runner.failures, errors=runner.errors, oracle_stats=runner.oracle_stats)
    emit(args.workload, args.seed, args.trace, metrics, attempted, runner.failed, correct, report, details)
    return 0


def run_all(args):
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
