import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricciflow.flow
import ricciflow.graph
from ricciflow import (
    FlowTrajectory,
    MeasuredGraph,
    MetricAssignment,
    NumericalFailure,
    build_named_graph,
    forman_flow_exact,
    lly_flow_integrate,
    normalized_trajectory,
    write_surgery_csv,
    write_trajectory_csv,
)
from ricciflow.curvature import forman_kappa
from ricciflow.flow import CSV_BLOCK_SAMPLES, atomic_write
from ricciflow.spectral import build_flow_matrix
from conftest import (
    SMALL_WEIGHT_FLOWS,
    count_linprog,
    curvature_residual,
    expm_oracle,
    normalized_flow_state,
    random_connected_graph,
    random_metric,
    random_tree,
    trajectory_samples,
)


def metric_vec(g, omega):
    return omega.vector(g)


def small_weight_flow(name, w):
    kind, n = name.split(":")
    g = build_named_graph(kind, int(n))
    return g, MetricAssignment.from_vector(g, w)


SMALL_WEIGHT_IDS = [name for name, _ in SMALL_WEIGHT_FLOWS]


class TestFormanFlowExact:
    def test_single_edge_decay(self):
        g = build_named_graph("path", 1)
        w0 = MetricAssignment.uniform(g)
        traj = forman_flow_exact(g, w0, [0.0, 0.5, 1.0, 2.0])
        for t, omega, kappa in trajectory_samples(traj):
            (w,) = omega
            assert w == pytest.approx(math.exp(-2.0 * t), rel=1e-12)
            (kap,) = kappa
            assert kap == pytest.approx(2.0, abs=1e-12)

    def test_star3_uniform_fixed_point(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.uniform(g)
        traj = forman_flow_exact(g, w0, [0.0, 1.0, 10.0])
        for _, omega, kappa in trajectory_samples(traj):
            assert np.allclose(omega, 1.0, atol=1e-10)
            assert np.allclose(kappa, 0.0, atol=1e-10)

    def test_star3_converges_to_average(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = forman_flow_exact(g, w0, [0.0, 50.0])
        _, omega, _ = trajectory_samples(traj)[-1]
        assert np.allclose(omega, 2.0, atol=1e-10)

    def test_initial_condition_reproduced(self):
        rng = np.random.default_rng(0)
        g = random_tree(rng, 7, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = forman_flow_exact(g, w0, [0.0])
        _, omega, _ = trajectory_samples(traj)[0]
        for i, v in enumerate(w0.vector(g)):
            assert omega[i] == pytest.approx(v, abs=1e-10)

    def test_path_vanishes(self):
        g = build_named_graph("path", 5)
        traj = forman_flow_exact(g, MetricAssignment.uniform(g), [0.0, 80.0])
        _, omega, _ = trajectory_samples(traj)[-1]
        assert max(omega) < 1e-6

    def test_rejects_bad_times(self):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [1.0, 0.5])
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [-1.0, 0.0])
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [0.0, 0.0])
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [0.0, math.nan])

    @pytest.mark.parametrize("samples", [1, 2, 300])
    @pytest.mark.parametrize("seed", range(12))
    def test_stacked_kappa_rows_match_per_row_products(self, seed, samples):
        # the trajectory's curvature comes from one stacked product; every
        # row must equal that sample's own matrix-vector product bit for bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        uniform = seed % 3 == 0
        if seed % 2 or n < 4:
            g = random_tree(rng, n, uniform_measures=uniform)
        else:
            g = random_connected_graph(
                rng, n, int(rng.integers(1, n)), uniform_measures=uniform
            )
        traj = forman_flow_exact(
            g, random_metric(rng, g), np.linspace(0.0, 3.0, samples)
        )
        ((_, _, w, kappa),) = traj.segments
        f = build_flow_matrix(g).F
        per_row = np.array([(f @ -row) / row for row in w])
        assert kappa.shape == (samples, g.n_edges)
        assert np.array_equal(kappa, per_row)
        assert np.array_equal(forman_kappa(f, w[0]), forman_kappa(f, w)[0])

    @pytest.mark.parametrize("name, w", SMALL_WEIGHT_FLOWS, ids=SMALL_WEIGHT_IDS)
    def test_matches_high_precision_matrix_exponential(self, name, w):
        # every weight to 1e-12 relative, the small one included; the
        # sample at t = 0 is omega0 itself
        g, w0 = small_weight_flow(name, w)
        times = [0.0, 0.01, 0.1, 1.0, 5.0]
        ((_, _, omega, _),) = forman_flow_exact(g, w0, times).segments
        assert np.array_equal(omega[0], w)
        f = build_flow_matrix(g).F
        for t, row in zip(times, omega):
            ref = expm_oracle(f, w, t)
            assert np.max(np.abs(row - ref) / ref) <= 1e-12, t

    @pytest.mark.parametrize("seed", range(3))
    def test_positivity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, 8, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = forman_flow_exact(g, w0, np.linspace(0.0, 5.0, 11))
        for _, omega, _ in trajectory_samples(traj):
            assert all(v > 0 for v in omega)


class TestNormalizedState:
    def test_divergent_long_horizon_is_finite(self):
        g = build_named_graph("star", 6)
        w0 = MetricAssignment.uniform(g)
        shape = normalized_flow_state(g, w0, 1e6)
        vals = list(shape.vector(g))
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name, w", SMALL_WEIGHT_FLOWS, ids=SMALL_WEIGHT_IDS)
    def test_is_the_normalized_exact_flow(self, name, w):
        g, w0 = small_weight_flow(name, w)
        times = [0.5, 5.0]
        ((_, _, omega, _),) = forman_flow_exact(g, w0, times).segments
        for t, row in zip(times, omega):
            shape = normalized_flow_state(g, w0, t).vector(g)
            np.testing.assert_allclose(shape, row / np.sum(row), rtol=1e-15, atol=0)
        start = normalized_flow_state(g, w0, 0.0).vector(g)
        assert np.array_equal(start, np.divide(w, np.sum(w)))
        assert np.isfinite(normalized_flow_state(g, w0, 1e6).vector(g)).all()

    def test_matches_exact_at_moderate_time(self):
        g = build_named_graph("path", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 1.5, 0.5])
        t = 2.0
        shape = normalized_flow_state(g, w0, t)
        traj = forman_flow_exact(g, w0, [t])
        _, omega, _ = trajectory_samples(traj)[0]
        total = sum(omega)
        for k in range(g.n_edges):
            assert shape.vector(g)[k] == pytest.approx(
                omega[k] / total, abs=1e-10
            )


class TestLLYIntegration:
    def test_tree_matches_exact_solution(self):
        rng = np.random.default_rng(4)
        g = random_tree(rng, 7, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 1.0, 1001))
        exact = forman_flow_exact(g, w0, traj.times[1:])
        for (t, omega, _), (te, we, _) in zip(
            trajectory_samples(traj)[1:], trajectory_samples(exact)
        ):
            assert t == pytest.approx(te)
            for k in range(g.n_edges):
                assert omega[k] == pytest.approx(we[k], abs=1e-6)

    def test_triangle_symmetric_decay(self):
        g = build_named_graph("cycle", 3)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.2, 21))
        t0, _, kappa0 = trajectory_samples(traj)[0]
        assert np.allclose(kappa0, 3.0, atol=1e-8)
        for _, omega, _ in trajectory_samples(traj):
            vals = list(omega)
            assert max(vals) - min(vals) < 1e-9  # symmetry preserved
            assert all(v > 0 for v in vals)
        assert max(trajectory_samples(traj)[-1][1]) < 1.0

    def test_zero_horizon(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, [0.0])
        assert len(trajectory_samples(traj)) == 1
        assert traj.times == [0.0]
        assert traj.surgeries == []

    def test_bad_arguments(self):
        # both flows share one check of their sample times
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        for flow in (lly_flow_integrate, forman_flow_exact):
            for times in ([], [1.0, 0.5], [-1.0, 0.0], [0.0, math.nan]):
                with pytest.raises(ValueError):
                    flow(g, w0, times)

    def test_step_size_guard(self):
        # single edge shrinks as exp(-2t); a gigantic explicit step cannot
        # stay positive no matter how often it is halved once dt is absurd
        g = build_named_graph("path", 1)
        w0 = MetricAssignment.uniform(g)
        with pytest.raises(NumericalFailure):
            lly_flow_integrate(g, w0, [0.0, 1e9])

    def test_rk4_step_rejects_a_nonpositive_step_of_positive_stages(self):
        # zero slopes keep every stage state at w; the last slope alone
        # takes the combined step w - h * 1e3 / 6 below zero
        kappas = iter([0.0, 0.0, 0.0, 1e3])
        step = ricciflow.flow._rk4_step(lambda state: next(kappas), np.array([1.0]), 1.0)
        assert step is None
        assert next(kappas, None) is None

    def test_total_weight_identity(self):
        # d/dt sum(omega) = -sum(kappa * omega) along the flow
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.1, 0.9, 1.05, 0.95])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.05, 51))
        samples = trajectory_samples(traj)
        for (t0, w_a, k_a), (t1, w_b, k_b) in zip(samples, samples[1:]):
            lhs = (sum(w_b) - sum(w_a)) / (t1 - t0)
            rhs = -0.5 * (
                sum(k_a[k] * w_a[k] for k in range(g.n_edges))
                + sum(k_b[k] * w_b[k] for k in range(g.n_edges))
            )
            assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_surgery_on_stretched_square(self):
        # one side of the 4-cycle starts longer than the detour, so the
        # first scan removes it and the flow continues on the path
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.3, 31))
        assert len(traj.surgeries) == 1
        assert traj.surgeries[0].removed_edge == g.edges[3]
        assert traj.final_graph().n_edges == 3
        assert len(traj.segments) == 2
        for _, omega, _ in trajectory_samples(traj):
            assert all(v > 0 for v in omega)

    def test_one_surgery_scan_per_step(self, monkeypatch):
        # one scan per accepted state: t=0 and each of the 5 steps' results,
        # with none repeated before the first step
        scans = []
        original = ricciflow.graph.surgery_scan

        def counting(*args, **kwargs):
            scans.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ricciflow.graph, "surgery_scan", counting)
        g = build_named_graph("cycle", 5)
        traj = lly_flow_integrate(g, MetricAssignment.uniform(g), np.linspace(0.0, 0.05, 6))
        assert len(traj.times) == 6
        assert len(scans) == 6

    def test_surgery_mid_flow_splits_the_samples(self, monkeypatch):
        # the first step's result stretches 3-0 past its detour, so the scan
        # at t=0.01 cuts it and that state's sample lies on the path
        calls = count_linprog(monkeypatch)
        advance = ricciflow.flow._advance
        stretched = []

        def stretch_first(kappa_fn, w, dt):
            out = advance(kappa_fn, w, dt)
            if not stretched:
                out[3] = 1.2 * out[:3].sum()
                stretched.append(out[3])
            return out

        monkeypatch.setattr(ricciflow.flow, "_advance", stretch_first)
        g = build_named_graph("cycle", 4)
        traj = lly_flow_integrate(g, MetricAssignment.uniform(g), np.linspace(0.0, 0.03, 4))
        (event,) = traj.surgeries
        assert event.removed_edge == (3, 0) and event.time == pytest.approx(0.01)
        (g0, times0, omega0, _), (g1, times1, omega1, _) = traj.segments
        assert g0.n_edges == 4 and times0.tolist() == [0.0] and omega0.shape == (1, 4)
        assert g1.n_edges == 3 and omega1.shape == (3, 3)
        assert times1 == pytest.approx([0.01, 0.02, 0.03])
        # 4 LPs for the t=0 sample and 4 per RK4 stage of the first step;
        # the cut graph is a tree, whose curvature needs no LP
        assert len(calls) == 4 + 4 * 4

    def test_large_graph_samples_every_grid_time(self):
        # a 65-edge graph keeps a sample at every time it is given, as a
        # small one does; a tree's kappa is the cheap Forman product
        g = build_named_graph("path", 65)
        times = np.linspace(0.0, 0.25, 26)
        traj = lly_flow_integrate(g, MetricAssignment.uniform(g), times)
        assert traj.times == times.tolist()

    def test_long_time_tree_normalized_limit(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 30.0, 3001))
        _, omega, _ = trajectory_samples(traj)[-1]
        assert np.allclose(omega, 2.0, atol=1e-6)


class TestNormalizedTrajectory:
    def test_weights_sum_to_one(self):
        g = build_named_graph("path", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = normalized_trajectory(lly_flow_integrate(g, w0, np.linspace(0.0, 0.5, 51)))
        for _, omega, _ in trajectory_samples(traj):
            assert sum(omega) == pytest.approx(1.0, abs=1e-12)

    def test_curvature_untouched(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        raw = lly_flow_integrate(g, w0, np.linspace(0.0, 0.1, 11))
        norm = normalized_trajectory(raw)
        for (_, _, ka), (_, _, kb) in zip(
            trajectory_samples(raw), trajectory_samples(norm)
        ):
            assert np.array_equal(ka, kb)


class TestResidual:
    def test_small_on_fine_integration(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.1, 101))
        assert curvature_residual(traj) < 1e-5

    def test_exact_solution_residual_scales_with_sampling(self):
        g = build_named_graph("path", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 0.5])
        fine = forman_flow_exact(g, w0, np.linspace(0.0, 1.0, 201))
        coarse = forman_flow_exact(g, w0, np.linspace(0.0, 1.0, 21))
        assert curvature_residual(fine) < curvature_residual(coarse)
        assert curvature_residual(fine) < 1e-3

    def test_needs_three_samples(self):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        traj = forman_flow_exact(g, w0, [0.0, 1.0])
        with pytest.raises(ValueError):
            curvature_residual(traj)

    def test_rejects_surgeried_trajectory(self):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.3, 31))
        assert traj.surgeries
        with pytest.raises(ValueError):
            curvature_residual(traj)


class TestCsvExport:
    def test_trajectory_csv(self, tmp_path):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.02, 3))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,edge_id,omega,omega_normalized,kappa"
        assert len(lines) == 1 + len(traj.times) * g.n_edges
        t, edge_id, w, wn, kap = lines[1].split(",")
        assert float(t) == 0.0
        assert edge_id == "0-1"
        assert float(w) == pytest.approx(1.0)
        assert float(wn) == pytest.approx(0.5)
        assert float(kap) == pytest.approx(1.0)

    def test_surgery_csv(self, tmp_path):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.1, 11))
        out = tmp_path / "surgery.csv"
        write_surgery_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,edge_id,omega,alt_distance"
        assert len(lines) == 2
        t, edge_id, w, alt = lines[1].split(",")
        assert edge_id == "3-0" or edge_id == "0-3"
        assert float(w) >= float(alt) - 1e-9

    def test_surgery_at_start_against_original_graph(self, tmp_path):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.3, 31))
        assert [ev.time for ev in traj.surgeries] == [0.0]
        # the original graph carries no sample; all sit on the cut graph
        assert [len(times) for _, times, _, _ in traj.segments] == [0, 31]
        removed = "{}-{}".format(*g.edges[3])
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert removed not in {edge_id for _, edge_id, _, _, _ in rows}
        assert len(rows) == len(traj.times) * 3
        index = traj.final_graph().edge_index
        for (t, omega, _), block in zip(
            trajectory_samples(traj), [rows[i : i + 3] for i in range(0, len(rows), 3)]
        ):
            total = sum(omega)
            for row_t, edge_id, w, wn, _ in block:
                u, v = (int(x) for x in edge_id.split("-"))
                weight = omega[index[u, v]]
                assert float(row_t) == pytest.approx(t)
                assert float(w) == pytest.approx(weight, rel=1e-11)
                assert float(wn) == pytest.approx(weight / total, rel=1e-11)

    def test_deterministic_bytes(self, tmp_path):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.1, 0.9, 1.05, 0.95])
        flows = {
            "lly": lambda: lly_flow_integrate(g, w0, np.linspace(0.0, 0.05, 6)),
            "forman": lambda: forman_flow_exact(g, w0, np.linspace(0.0, 0.5, 51)),
        }
        for kind, run in flows.items():
            a = tmp_path / f"{kind}_a.csv"
            b = tmp_path / f"{kind}_b.csv"
            write_trajectory_csv(run(), a)
            write_trajectory_csv(run(), b)
            assert a.read_bytes() == b.read_bytes(), kind


def reference_trajectory_csv(traj, graph):
    """Row-by-row CSV with str.format, the layout the block writer must match."""
    fmt = "{:.12g}".format
    lines = ["t,edge_id,omega,omega_normalized,kappa"]
    for snap, times, omega, kappa in traj.segments:
        for t, w_row, k_row in zip(times.tolist(), omega.tolist(), kappa.tolist()):
            total = 0.0
            for x in w_row:  # running sum in edge order
                total += x
            for u, v in graph.edges:
                j = snap.edge_index.get((u, v))
                if j is not None:
                    w = w_row[j]
                    lines.append(
                        ",".join(
                            [fmt(t), f"{u}-{v}", fmt(w), fmt(w / total), fmt(k_row[j])]
                        )
                    )
    return "\n".join(lines) + "\n"


# values where %.12g takes each of its forms: zeros of both signs,
# subnormals, exponent form at both ends, and plain decimals
CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e6, 1e6),
)
CSV_TIMES = st.one_of(
    st.sampled_from([0.0, 1e-5, 0.1, 123456789012.5, 1e300]), st.floats(0.0, 1e13)
)


@st.composite
def csv_trajectories(draw):
    """1-3 segments on K4 with drawn vertex ids, each segment losing one edge.

    Sample counts fall on both sides of CSV_BLOCK_SAMPLES; the arrays repeat
    small drawn pools of values, and every omega row has a positive entry.
    """
    names = st.text(alphabet="ab%,.-1", min_size=1, max_size=4)
    vertices = tuple(draw(st.lists(names, min_size=4, max_size=4, unique=True)))
    edges = tuple((u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :])
    g = MeasuredGraph(vertices, edges, [1.0] * 4, [1.0] * 6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.sampled_from([0, 1, 2, CSV_BLOCK_SAMPLES, CSV_BLOCK_SAMPLES + 1])
    times = draw(st.lists(CSV_TIMES, min_size=1, max_size=6))
    values = draw(st.lists(CSV_VALUES, min_size=1, max_size=6))
    weights = [x if x == 0 else abs(x) for x in values]
    segments = []
    for k in range(draw(st.integers(1, 3))):
        if k:  # K4 less at most two edges is connected
            g = g.without_edge(draw(st.integers(0, g.n_edges - 1)))
        n = draw(sizes)
        omega = rng.choice(weights, (n, g.n_edges))
        omega[:, 0] = np.where(omega.max(axis=1) > 0, omega[:, 0], 1.0)
        kappa = rng.choice(values, (n, g.n_edges))
        segments.append((g, rng.choice(times, n), omega, kappa))
    return FlowTrajectory(segments)


class TestBlockWriter:
    @settings(max_examples=20, deadline=None)
    @given(csv_trajectories())
    def test_matches_reference(self, tmp_path_factory, traj):
        out = tmp_path_factory.mktemp("csv") / "traj.csv"
        write_trajectory_csv(traj, out)
        # lists of lines: pytest's diff of two long strings is slow to shrink on
        expected = reference_trajectory_csv(traj, traj.final_graph())
        assert out.read_text().splitlines() == expected.splitlines()

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_normalized_forman_matches_reference(self, tmp_path, blocks):
        # vertex ids holding '%' must not reach the format template unescaped
        vertices = ("a%s", "b%%", "c", "d%.3g", *(f"e{i}" for i in range(7)))
        edges = tuple(zip(vertices, vertices[1:]))
        g = MeasuredGraph(
            vertices,
            edges,
            [1.0] * len(vertices),
            [1.0 + 0.25 * i for i in range(len(edges))],
        )
        w0 = MetricAssignment.from_vector(g, np.linspace(0.3, 2.0, len(edges)))
        n = blocks * CSV_BLOCK_SAMPLES + 3
        traj = normalized_trajectory(
            forman_flow_exact(g, w0, np.linspace(0.0, 2.0, n))
        )
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        assert out.read_text() == reference_trajectory_csv(traj, g)

    def test_lly_surgery_at_start_matches_reference(self, tmp_path):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, np.linspace(0.0, 0.3, 31))
        assert [len(times) for _, times, _, _ in traj.segments] == [0, 31]
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        assert out.read_text() == reference_trajectory_csv(traj, g)

    def test_atomic_write_failure_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def chunks():
            yield "new,"
            raise RuntimeError("failed mid-stream")

        with pytest.raises(RuntimeError):
            atomic_write(target, chunks())
        assert target.read_text() == "old\n"
        assert list(tmp_path.glob(".tmp_*.part")) == []
        atomic_write(target, "whole string\n")
        assert target.read_text() == "whole string\n"

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_atomic_write_honours_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            atomic_write(target, "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode
