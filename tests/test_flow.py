import math

import numpy as np
import pytest

from ricciflow import (
    MetricAssignment,
    StepSizeTooLarge,
    build_named_graph,
    curvature_residual,
    edge_key,
    forman_flow_exact,
    lly_flow_integrate,
    normalized_flow_state,
    normalized_trajectory,
    write_surgery_csv,
    write_trajectory_csv,
)
from conftest import random_metric, random_tree


def metric_vec(g, omega):
    return omega.vector(g)


class TestFormanFlowExact:
    def test_single_edge_decay(self):
        g = build_named_graph("path", 1)
        w0 = MetricAssignment.uniform(g)
        traj = forman_flow_exact(g, w0, [0.0, 0.5, 1.0, 2.0])
        for t, omega, kappa in traj.samples:
            (w,) = omega.weights.values()
            assert w == pytest.approx(math.exp(-2.0 * t), rel=1e-12)
            (kap,) = kappa.values.values()
            assert kap == pytest.approx(2.0, abs=1e-12)

    def test_star3_uniform_fixed_point(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.uniform(g)
        traj = forman_flow_exact(g, w0, [0.0, 1.0, 10.0])
        for _, omega, kappa in traj.samples:
            assert np.allclose(list(omega.weights.values()), 1.0, atol=1e-10)
            assert np.allclose(list(kappa.values.values()), 0.0, atol=1e-10)

    def test_star3_converges_to_average(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = forman_flow_exact(g, w0, [0.0, 50.0])
        _, omega, _ = traj.samples[-1]
        assert np.allclose(list(omega.weights.values()), 2.0, atol=1e-10)

    def test_initial_condition_reproduced(self):
        rng = np.random.default_rng(0)
        g = random_tree(rng, 7, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = forman_flow_exact(g, w0, [0.0])
        _, omega, _ = traj.samples[0]
        for k, v in w0.weights.items():
            assert omega.weights[k] == pytest.approx(v, abs=1e-10)

    def test_path_vanishes(self):
        g = build_named_graph("path", 5)
        traj = forman_flow_exact(g, MetricAssignment.uniform(g), [0.0, 80.0])
        _, omega, _ = traj.samples[-1]
        assert max(omega.weights.values()) < 1e-6

    def test_rejects_bad_times(self):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [1.0, 0.5])
        with pytest.raises(ValueError):
            forman_flow_exact(g, w0, [-1.0, 0.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_positivity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, 8, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = forman_flow_exact(g, w0, np.linspace(0.0, 5.0, 11))
        for _, omega, _ in traj.samples:
            assert all(v > 0 for v in omega.weights.values())


class TestNormalizedState:
    def test_divergent_long_horizon_is_finite(self):
        g = build_named_graph("star", 6)
        w0 = MetricAssignment.uniform(g)
        shape = normalized_flow_state(g, w0, 1e6)
        vals = list(shape.weights.values())
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_at_moderate_time(self):
        g = build_named_graph("path", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 1.5, 0.5])
        t = 2.0
        shape = normalized_flow_state(g, w0, t)
        traj = forman_flow_exact(g, w0, [t])
        _, omega, _ = traj.samples[0]
        total = sum(omega.weights.values())
        for k in omega.weights:
            assert shape.weights[k] == pytest.approx(
                omega.weights[k] / total, abs=1e-10
            )


class TestLLYIntegration:
    def test_tree_matches_exact_solution(self):
        rng = np.random.default_rng(4)
        g = random_tree(rng, 7, uniform_measures=False)
        w0 = random_metric(rng, g)
        traj = lly_flow_integrate(g, w0, 1.0, 1e-3)
        exact = forman_flow_exact(g, w0, traj.times[1:])
        for (t, omega, _), (te, we, _) in zip(traj.samples[1:], exact.samples):
            assert t == pytest.approx(te)
            for k in omega.weights:
                assert omega.weights[k] == pytest.approx(we.weights[k], abs=1e-6)

    def test_triangle_symmetric_decay(self):
        g = build_named_graph("cycle", 3)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, 0.2, 1e-2)
        t0, _, kappa0 = traj.samples[0]
        assert np.allclose(list(kappa0.values.values()), 3.0, atol=1e-8)
        for _, omega, _ in traj.samples:
            vals = list(omega.weights.values())
            assert max(vals) - min(vals) < 1e-9  # symmetry preserved
            assert all(v > 0 for v in vals)
        assert max(traj.samples[-1][1].weights.values()) < 1.0

    def test_zero_horizon(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, 0.0, 1e-2)
        assert len(traj.samples) == 1
        assert traj.times == [0.0]
        assert traj.surgeries == []

    def test_bad_arguments(self):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        with pytest.raises(ValueError):
            lly_flow_integrate(g, w0, -1.0, 1e-2)
        with pytest.raises(ValueError):
            lly_flow_integrate(g, w0, 1.0, 0.0)

    def test_step_size_guard(self):
        # single edge shrinks as exp(-2t); a gigantic explicit step cannot
        # stay positive no matter how often it is halved once dt is absurd
        g = build_named_graph("path", 1)
        w0 = MetricAssignment.uniform(g)
        with pytest.raises(StepSizeTooLarge):
            lly_flow_integrate(g, w0, 1e9, 1e9)

    def test_total_weight_identity(self):
        # d/dt sum(omega) = -sum(kappa * omega) along the flow
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.1, 0.9, 1.05, 0.95])
        dt = 1e-3
        traj = lly_flow_integrate(g, w0, 0.05, dt)
        for (t0, w_a, k_a), (t1, w_b, k_b) in zip(
            traj.samples, traj.samples[1:]
        ):
            lhs = (sum(w_b.weights.values()) - sum(w_a.weights.values())) / (
                t1 - t0
            )
            rhs = -0.5 * (
                sum(k_a.values[k] * w_a.weights[k] for k in w_a.weights)
                + sum(k_b.values[k] * w_b.weights[k] for k in w_b.weights)
            )
            assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_surgery_on_stretched_square(self):
        # one side of the 4-cycle starts longer than the detour, so the
        # first scan removes it and the flow continues on the path
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, 0.3, 1e-2)
        assert len(traj.surgeries) == 1
        assert traj.surgeries[0].removed_edge == g.edges[3]
        assert traj.final_graph().n_edges == 3
        assert len(traj.graph_snapshots) == 2
        for _, omega, _ in traj.samples:
            assert all(v > 0 for v in omega.weights.values())

    def test_no_surgery_flag(self):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        with pytest.raises(Exception):
            # without surgery the long edge is degenerate and the LP rejects it
            lly_flow_integrate(g, w0, 0.1, 1e-2, surgery=False)

    def test_long_time_tree_normalized_limit(self):
        g = build_named_graph("star", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = lly_flow_integrate(g, w0, 30.0, 1e-2)
        _, omega, _ = traj.samples[-1]
        assert np.allclose(list(omega.weights.values()), 2.0, atol=1e-6)


class TestNormalizedTrajectory:
    def test_weights_sum_to_one(self):
        g = build_named_graph("path", 3)
        w0 = MetricAssignment.from_vector(g, [1.0, 2.0, 3.0])
        traj = normalized_trajectory(lly_flow_integrate(g, w0, 0.5, 1e-2))
        for _, omega, _ in traj.samples:
            assert sum(omega.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_curvature_untouched(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        raw = lly_flow_integrate(g, w0, 0.1, 1e-2)
        norm = normalized_trajectory(raw)
        for (_, _, ka), (_, _, kb) in zip(raw.samples, norm.samples):
            assert ka.values == kb.values


class TestResidual:
    def test_small_on_fine_integration(self):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, 0.1, 1e-3)
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
        traj = lly_flow_integrate(g, w0, 0.3, 1e-2)
        assert traj.surgeries
        with pytest.raises(ValueError):
            curvature_residual(traj)


class TestCsvExport:
    def test_trajectory_csv(self, tmp_path):
        g = build_named_graph("path", 2)
        w0 = MetricAssignment.uniform(g)
        traj = lly_flow_integrate(g, w0, 0.02, 1e-2)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, g, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,edge_id,omega,omega_normalized,kappa"
        assert len(lines) == 1 + len(traj.samples) * g.n_edges
        t, edge_id, w, wn, kap = lines[1].split(",")
        assert float(t) == 0.0
        assert edge_id == "0-1"
        assert float(w) == pytest.approx(1.0)
        assert float(wn) == pytest.approx(0.5)
        assert float(kap) == pytest.approx(1.0)

    def test_surgery_csv(self, tmp_path):
        g = build_named_graph("cycle", 4)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.0, 1.0, 3.5])
        traj = lly_flow_integrate(g, w0, 0.1, 1e-2)
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
        traj = lly_flow_integrate(g, w0, 0.3, 1e-2)
        assert [ev.time for ev in traj.surgeries] == [0.0]
        # the original graph carries no sample; all sit on the cut graph
        assert [len(times) for times, _, _ in traj.segments] == [0, 31]
        removed = "{}-{}".format(*g.edges[3])
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, g, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert removed not in {edge_id for _, edge_id, _, _, _ in rows}
        assert len(rows) == len(traj.samples) * 3
        for (t, omega, _), block in zip(
            traj.samples, [rows[i : i + 3] for i in range(0, len(rows), 3)]
        ):
            total = sum(omega.weights.values())
            for row_t, edge_id, w, wn, _ in block:
                u, v = (int(x) for x in edge_id.split("-"))
                assert float(row_t) == pytest.approx(t)
                assert float(w) == pytest.approx(omega.weight(u, v), rel=1e-11)
                assert float(wn) == pytest.approx(
                    omega.weight(u, v) / total, rel=1e-11
                )

    def test_deterministic_bytes(self, tmp_path):
        g = build_named_graph("cycle", 5)
        w0 = MetricAssignment.from_vector(g, [1.0, 1.1, 0.9, 1.05, 0.95])
        flows = {
            "lly": lambda: lly_flow_integrate(g, w0, 0.05, 1e-2),
            "forman": lambda: forman_flow_exact(g, w0, np.linspace(0.0, 0.5, 51)),
        }
        for kind, run in flows.items():
            a = tmp_path / f"{kind}_a.csv"
            b = tmp_path / f"{kind}_b.csv"
            write_trajectory_csv(run(), g, a)
            write_trajectory_csv(run(), g, b)
            assert a.read_bytes() == b.read_bytes(), kind
