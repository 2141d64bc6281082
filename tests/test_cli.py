import hashlib
import importlib
import json
import math
import os
import pathlib
import pkgutil
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ricciflow.cli
import ricciflow.curvature
import ricciflow.flow
import ricciflow.graph
from ricciflow import classify_convergence, load_graph
from ricciflow.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from conftest import SMALL_WEIGHT_FLOWS, random_connected_graph


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def path3_graph(m1):
    """Graph file text of the path a-b-c-d with every m1 = ``m1`` and m2 = 1."""
    vertices = "".join(f"vertex {x} {m1!r}\n" for x in "abcd")
    return f"graph 4 3\n{vertices}edge a b 1\nedge b c 1\nedge c d 1\n"


class TestCurvatureCommand:
    def test_star3_all_zero(self, tmp_path):
        assert main(
            ["curvature", "--named", "star:3", "--out", str(tmp_path)]
        ) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_star3.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["forman"]) == pytest.approx(0.0, abs=1e-9)
            assert float(row["lly"]) == pytest.approx(0.0, abs=1e-9)
            assert float(row["lly_limit_estimate"]) == pytest.approx(0.0, abs=1e-6)

    def test_cycle5(self, tmp_path):
        assert main(
            ["curvature", "--named", "cycle:5", "--out", str(tmp_path)]
        ) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_cycle5.csv")
        for row in rows:
            assert row["forman"] == "0"  # an exact zero, never "-0"
            assert float(row["lly"]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.graph"
        bad.write_text("")
        code = main(["curvature", "--input", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = main(
            ["curvature", "--input", str(tmp_path / "nope.graph"), "--out", str(tmp_path)]
        )
        assert code == EXIT_INPUT

    def test_non_strict_metric_reads_the_path_metric(self, tmp_path):
        # 2-0 is longer than its detour, so the path metric is the regular
        # triangle's, and both Lin-Lu-Yau columns read its curvature
        argv = ["curvature", "--named", "cycle:3", "--omega0", "1,1,2.5"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_cycle3.csv")
        assert [(r["lly"], r["lly_limit_estimate"]) for r in rows] == [("3", "3")] * 3

    @pytest.mark.parametrize("scale", ["1e-9", "1e9", "1e15", "1e100"])
    def test_table_is_scale_free(self, tmp_path, scale):
        # curvature is scale-invariant, and the LPs see unit-sized weights
        tables = []
        for x in ("1", scale):
            argv = ["curvature", "--named", "cycle:5", "--omega0", ",".join([x] * 5)]
            assert main([*argv, "--out", str(tmp_path / x)]) == EXIT_OK
            tables.append((tmp_path / x / "curvature_cycle5.csv").read_text())
        assert tables[1] == tables[0]

    def test_weights_near_float_max(self, tmp_path):
        # 65 products of 1e307 overflow unless the weights are scaled first
        argv = ["curvature", "--named", "star:65", "--omega0", ",".join(["1e307"] * 65)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_star65.csv")
        assert len(rows) == 65
        for row in rows:
            assert [row["forman"], row["lly"], row["lly_limit_estimate"]] == ["-62"] * 3

    @pytest.mark.parametrize("kind", ["forman", "lly"])
    def test_flow_weights_summing_past_float_max(self, tmp_path, kind):
        # each sample's total overflows unless its row is scaled first
        argv = ["flow", "--named", "star:3", "--kind", kind, "--omega0", "7e307,7e307,7e307"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            code = main([*argv, "--t-end", "0.02", "--dt", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "flow_star3.csv")
        assert len(rows) == 9
        assert {row["omega_normalized"] for row in rows} == {"0.333333333333"}

    def test_forman_flow_at_float_max(self, tmp_path):
        # F omega overflows at 1e308 (the middle edge's -2 omega), so those
        # rows are evaluated again on weights scaled by a power of two
        kappas = []
        for x in ("1", "1e308"):
            argv = ["flow", "--named", "path:3", "--kind", "forman", "--omega0", ",".join([x] * 3)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning on stderr either
                code = main([*argv, "--t-end", "0.002", "--dt", "0.001", "--out", str(tmp_path / x)])
            assert code == EXIT_OK
            _, rows = read_csv_rows(tmp_path / x / "flow_path3.csv")
            kappas.append([row["kappa"] for row in rows])
        assert kappas[1] == kappas[0]
        assert kappas[1][:3] == ["1", "0", "1"]

    def test_cycle_at_float_max(self, tmp_path):
        # paths of two such edges overflow: the distances read them as inf and
        # the transport estimate works on the unit-scaled metric
        tables = []
        for x in ("1", "1e308"):
            argv = ["curvature", "--named", "cycle:4", "--omega0", ",".join([x] * 4)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning on stderr either
                assert main([*argv, "--out", str(tmp_path / x)]) == EXIT_OK
            tables.append((tmp_path / x / "curvature_cycle4.csv").read_text())
        assert tables[1] == tables[0]

    # the t=0 surgery and sample; past it the spread flow is stiff (kappa
    # about -1e16)
    LLY_FLOW = ["flow", "--kind", "lly", "--t-end", "0"]

    @staticmethod
    def _run_bridge_graph(tmp_path, capsys, argv, weights):
        # a triangle 0-1-2 with the bridge 2-3, which is never named or cut;
        # returns the exit code, stderr and the output directory
        graph = tmp_path / "bridge.graph"
        graph.write_text(
            "graph 4 4\nvertex 0 1\nvertex 1 1\nvertex 2 1\nvertex 3 1\n"
            + "".join(f"edge {u} {v} 1 {x}\n" for (u, v), x in weights.items())
        )
        out = tmp_path / "out"
        code = main([*argv, "--input", str(graph), "--out", str(out)])
        err = capsys.readouterr().err
        assert "2-3" not in err and "connected" not in err
        return code, err, out

    @pytest.mark.parametrize("argv", [["curvature"], LLY_FLOW])
    def test_widely_spread_weights_keep_the_bridge(self, tmp_path, capsys, argv):
        # 1e16 + 1 rounds to 1e16, so a detour back through the bridge would
        # match its weight, but the scan confirms each edge without it, and
        # it judges the triangle's edges against their own weights
        weights = {(0, 1): 1, (1, 2): 1, (2, 0): 1, (2, 3): "1e16"}
        code, _, out = self._run_bridge_graph(tmp_path, capsys, argv, weights)
        assert code == EXIT_OK
        _, rows = read_csv_rows(out / f"{argv[0]}_bridge.csv")
        assert len(rows) == 4 and os.listdir(out) == [f"{argv[0]}_bridge.csv"]

    @pytest.mark.parametrize("argv", [["curvature"], LLY_FLOW])
    def test_tiny_weight_never_cuts_the_bridge(self, tmp_path, capsys, argv):
        # a detour back through the bridge over the edge 2-0 is within
        # SURGERY_TOL of its weight, and so are the detours of 0-1 and 1-2:
        # the table reads those two on the path metric, as the transport
        # estimate does, and the flow cuts 0-1 at t=0
        weights = {(2, 3): 1, (0, 1): 1, (1, 2): 1, (2, 0): "1e-10"}
        code, _, out = self._run_bridge_graph(tmp_path, capsys, argv, weights)
        assert code == EXIT_OK
        if argv[0] == "curvature":
            _, rows = read_csv_rows(out / "curvature_bridge.csv")
            assert len(rows) == 4
            for row in rows:
                kappa, estimate = float(row["lly"]), float(row["lly_limit_estimate"])
                assert abs(kappa - estimate) <= 1e-6 * (1.0 + abs(kappa))
        else:
            _, rows = read_csv_rows(out / "flow_bridge_surgery.csv")
            assert [(r["t"], r["edge_id"]) for r in rows] == [("0", "0-1")]

    def test_stiff_flow_is_cut_at_a_sample(self, tmp_path, capsys):
        # beside the bridge the triangle's RK4 stages leave 1-2 and 2-0
        # longer than their detours; the first step's result leaves 1-2 no
        # shorter than its detour, so the scan at t=0.05 cuts it
        weights = {(0, 1): 1, (1, 2): 1, (2, 0): 1, (2, 3): "1e16"}
        argv = ["flow", "--kind", "lly", "--t-end", "0.1", "--dt", "0.05"]
        code, _, out = self._run_bridge_graph(tmp_path, capsys, argv, weights)
        assert code == EXIT_OK
        _, rows = read_csv_rows(out / "flow_bridge_surgery.csv")
        assert [(r["t"], r["edge_id"]) for r in rows] == [("0.05", "1-2")]

    def test_weights_past_unit_scale_are_numerical_error(self, tmp_path, capsys):
        # scaled to unit size, 1e-300 would underflow to 0
        out = tmp_path / "out"
        argv = ["curvature", "--named", "path:3", "--omega0", "1e-300,1,1e300"]
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "span 1e-300 to 1e+300, too far apart to scale exactly" in err
        assert os.listdir(out) == []

    def test_short_edge_is_read(self, tmp_path):
        # at unit scale d(0-1) is about 1e-25; the Lin-Lu-Yau LP's costs carry
        # no 1/d, so they stay below HiGHS's infinite cost
        argv = ["curvature", "--named", "cycle:4", "--omega0", "1e-25,1,1,1"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_cycle4.csv")
        for row in rows:
            lly, estimate = float(row["lly"]), float(row["lly_limit_estimate"])
            assert abs(lly - estimate) <= 1e-6 * (1 + abs(lly))
        assert float(rows[0]["lly"]) == pytest.approx(3.0 - 1e25, rel=1e-9)

    def test_curvature_past_float_range_is_numerical_error(self, tmp_path, capsys):
        # at unit scale d(0-1) = 1e-320, so kappa(0-1) is about -1e320
        out = tmp_path / "out"
        argv = ["curvature", "--named", "cycle:4", "--omega0", "1e-320,1,1,1"]
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: Forman curvature of edge 0-1 overflows\n"
        assert os.listdir(out) == []

    def test_both_sources_rejected(self, tmp_path):
        code = main(
            [
                "curvature",
                "--named",
                "path:2",
                "--input",
                "x.graph",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT

    def test_graph_file_input(self, tmp_path):
        f = tmp_path / "tri.graph"
        f.write_text(
            "graph 3 3\n"
            "vertex a 1\nvertex b 1\nvertex c 1\n"
            "edge a b 1\nedge b c 1\nedge a c 1\n"
        )
        assert main(["curvature", "--input", str(f), "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "curvature_tri.csv")
        for row in rows:
            assert float(row["lly"]) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("vertex", ["a,b", 'a"b'])
    def test_vertex_id_that_breaks_csv_is_input_error(self, tmp_path, capsys, vertex):
        f = tmp_path / "tri.graph"
        f.write_text(
            f"graph 3 3\nvertex {vertex} 1\nvertex c 1\nvertex d 1\n"
            f"edge {vertex} c 1\nedge c d 1\nedge d {vertex} 1\n"
        )
        out = tmp_path / "out"
        assert main(["curvature", "--input", str(f), "--out", str(out)]) == EXIT_INPUT
        assert "vertex id" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("graph", ["cycle5", "chorded40"])
    def test_two_distance_matrices_per_table(self, tmp_path, monkeypatch, graph):
        # the strictness test before the LLY LPs builds one Floyd-Warshall
        # matrix and the transport estimate its own, whatever the edge count
        if graph == "cycle5":
            argv, n_edges = ["--named", "cycle:5"], 5
        else:
            g = random_connected_graph(np.random.default_rng(40), 40, 20)
            f = tmp_path / "chorded40.graph"
            f.write_text(
                f"graph {g.n_vertices} {g.n_edges}\n"
                + "".join(f"vertex {x} 1\n" for x in g.vertices)
                + "".join(f"edge {u} {v} 1\n" for u, v in g.edges)
            )
            argv, n_edges = ["--input", str(f)], g.n_edges
        builds = []
        original = ricciflow.graph._path_lengths

        def counting(g, w):
            builds.append(g)
            return original(g, w)

        for name, module in list(sys.modules.items()):
            if name.startswith("ricciflow") and vars(module).get("_path_lengths") is original:
                monkeypatch.setattr(module, "_path_lengths", counting)
        out = tmp_path / "out"
        assert main(["curvature", *argv, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / f"curvature_{graph}.csv")
        assert len(rows) == n_edges
        assert len(builds) == 2


class TestUnusableOutput:
    def test_out_that_is_a_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        code = main(["spectrum", "--named", "path:3", "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["taken"] and out.read_text() == "keep\n"

    def test_output_name_taken_by_a_directory_is_input_error(self, tmp_path, capsys):
        (tmp_path / "spectrum_path3.json").mkdir()
        code = main(["spectrum", "--named", "path:3", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "spectrum_path3.json" in err and ".part" not in err
        assert os.listdir(tmp_path) == ["spectrum_path3.json"]
        assert os.listdir(tmp_path / "spectrum_path3.json") == []


class TestSpectrumCommand:
    def test_path2(self, tmp_path):
        assert main(["spectrum", "--named", "path:2", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "spectrum_path2.json").read_text())
        assert payload["eigenvalues"] == [-3.0, -1.0]
        assert payload["lambda_max"] == -1.0
        assert payload["bounds"] == {"lower": 1.0, "upper": 2.0}
        assert all(v > 0 for v in payload["perron_vector"].values())

    def test_vertex_ids_that_share_an_edge_id_are_input_error(self, tmp_path, capsys):
        # the edges (a-b, c) and (a, b-c) would both be a-b-c, and the
        # perron_vector keyed by edge id would drop one
        f = tmp_path / "dash.graph"
        f.write_text(
            "graph 4 3\nvertex a-b 1\nvertex c 1\nvertex a 1\nvertex b-c 1\n"
            "edge a-b c 1\nedge c a 1\nedge a b-c 1\n"
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--input", str(f), "--out", str(out)]) == EXIT_INPUT
        assert "vertex id holds" in capsys.readouterr().err
        assert os.listdir(out) == []


class TestClassifyCommand:
    def test_path5_vanishing(self, tmp_path):
        assert main(["classify", "--named", "path:5", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "classify_path5.json").read_text())
        assert payload["classification"] == "vanishing"
        assert payload["limiting_curvature"] == pytest.approx(
            2.0 * (1.0 - math.cos(math.pi / 6.0)), abs=1e-9
        )
        assert payload["tree_case"] == "path_case"

    def test_star6_divergent(self, tmp_path):
        assert main(["classify", "--named", "star:6", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "classify_star6.json").read_text())
        assert payload["classification"] == "divergent"
        assert payload["limiting_curvature"] == pytest.approx(-3.0, abs=1e-9)
        assert payload["tree_case"] == "big_degree_case"

    def test_star3_constant(self, tmp_path):
        assert main(["classify", "--named", "star:3", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "classify_star3.json").read_text())
        assert payload["classification"] == "constant_metric"
        assert payload["tree_case"] == "k13_case"

    @pytest.mark.parametrize("m1", [1e10, 2.0**40, 1e13], ids=["1e10", "2^40", "1e13"])
    def test_class_is_free_of_the_measure_scale(self, tmp_path, m1):
        # every m1 times c scales F by 1/c: the path stays vanishing, however
        # small its lambda_max, and at a power of two lambda_max scales exactly
        def run(x, name):
            graph = tmp_path / f"{name}.graph"
            graph.write_text(path3_graph(x))
            assert main(["classify", "--input", str(graph), "--out", str(tmp_path)]) == EXIT_OK
            payload = json.loads((tmp_path / f"classify_{name}.json").read_text())
            return payload, classify_convergence(load_graph(str(graph))[0]).lambda_max

        (unit, lam1), (payload, lam) = run(1.0, "unit"), run(m1, "scaled")
        assert unit["classification"] == payload["classification"] == "vanishing"
        assert payload["lambda_max"] == pytest.approx(unit["lambda_max"] / m1, rel=1e-11)
        if m1 == 2.0**40:
            assert lam == lam1 / m1

    def test_flow_on_a_large_measure_scale(self, tmp_path):
        # every eigenvalue is below 1e-12 here, so only a gap floor relative to
        # their scale lets the eigensolve pass
        graph = tmp_path / "path3.graph"
        graph.write_text(path3_graph(1e13))
        argv = ["flow", "--kind", "forman", "--t-end", "1", "--dt", "0.5"]
        assert main([*argv, "--input", str(graph), "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "flow_path3.csv")
        assert len(rows) == 9

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--named", "cycle:5"], "cycle5"),
            (["--named", "path:3", "--measure", "normalized", "--m2", "1,2,3"], "path3"),
        ],
        ids=["not_a_tree", "not_uniform"],
    )
    def test_no_tree_case_off_uniform_trees(self, tmp_path, argv, name):
        assert main(["classify", *argv, "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / f"classify_{name}.json").read_text())
        assert "tree_case" not in payload
        assert "classification" in payload


class TestFlowCommand:
    def test_forman_flow_csv(self, tmp_path):
        assert main(
            [
                "flow",
                "--named",
                "star:3",
                "--kind",
                "forman",
                "--t-end",
                "1.0",
                "--dt",
                "0.1",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        header, rows = read_csv_rows(tmp_path / "flow_star3.csv")
        assert header == ["t", "edge_id", "omega", "omega_normalized", "kappa"]
        assert len(rows) == 11 * 3
        for row in rows:
            assert float(row["omega"]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "name, w", SMALL_WEIGHT_FLOWS, ids=[name for name, _ in SMALL_WEIGHT_FLOWS]
    )
    def test_forman_start_is_omega0_and_its_curvature_table(self, tmp_path, name, w):
        # the t=0 sample is omega0 itself, not its eigenbasis rebuild, so
        # its kappa is the curvature table's Forman column byte for byte
        argv = ["--named", name, "--omega0", ",".join(map(repr, w)), "--out", str(tmp_path)]
        flow = ["flow", "--kind", "forman", "--t-end", "0.02", "--dt", "0.01"]
        assert main([*flow, *argv]) == EXIT_OK
        assert main(["curvature", *argv]) == EXIT_OK
        stem = name.replace(":", "")
        _, rows = read_csv_rows(tmp_path / f"flow_{stem}.csv")
        _, table = read_csv_rows(tmp_path / f"curvature_{stem}.csv")
        start = [row for row in rows if row["t"] == "0"]
        assert [row["omega"] for row in start] == [ricciflow.flow.FLOAT_FMT % x for x in w]
        assert [row["kappa"] for row in start] == [row["forman"] for row in table]

    def test_forman_flow_keeps_a_tiny_normal_weight(self, tmp_path):
        # 1e-20 beside 1 is lost in an eigenbasis rebuild (it exited 3 at
        # t=0), so the t=0 sample must be omega0 itself
        argv = ["flow", "--named", "path:3", "--kind", "forman", "--omega0", "1e-20,1,1"]
        argv += ["--t-end", "0.02", "--dt", "0.01", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            assert main(argv) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "flow_path3.csv")
        assert len(rows) == 3 * 3
        assert [rows[0]["omega"], rows[0]["kappa"]] == ["1e-20", "-1e+20"]

    def test_t_end_zero_gives_one_sample_the_same_for_both_kinds_on_a_tree(self, tmp_path):
        # on a tree the Forman and Lin-Lu-Yau flows coincide
        texts = []
        for kind in ("forman", "lly"):
            argv = ["flow", "--named", "star:3", "--kind", kind, "--omega0", "1e-6,1,2"]
            assert main([*argv, "--t-end", "0", "--out", str(tmp_path / kind)]) == EXIT_OK
            texts.append((tmp_path / kind / "flow_star3.csv").read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].count(b"\n0,") == 3 and texts[0].count(b"\n") == 1 + 3

    def test_both_kinds_sample_the_same_times(self, tmp_path):
        # 0.1 / 0.03 rounds to 3 equal steps for either kind; on a tree the
        # two flows coincide, up to the RK4 error
        columns = {}
        for kind in ("forman", "lly"):
            argv = ["flow", "--named", "path:3", "--kind", kind, "--t-end", "0.1", "--dt", "0.03"]
            assert main([*argv, "--out", str(tmp_path / kind)]) == EXIT_OK
            _, rows = read_csv_rows(tmp_path / kind / "flow_path3.csv")
            columns[kind] = ([row["t"] for row in rows], [float(row["omega"]) for row in rows])
        (t_forman, w_forman), (t_lly, w_lly) = columns["forman"], columns["lly"]
        assert t_lly == t_forman and len(t_forman) == 4 * 3 and t_forman[-1] == "0.1"
        assert w_lly == pytest.approx(w_forman, rel=1e-6)

    def test_lly_flow_with_surgery_emits_event_csv(self, tmp_path):
        assert main(
            [
                "flow",
                "--named",
                "cycle:4",
                "--kind",
                "lly",
                "--omega0",
                "1,1,1,3.5",
                "--t-end",
                "0.1",
                "--dt",
                "0.01",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        header, rows = read_csv_rows(tmp_path / "flow_cycle4_surgery.csv")
        assert header == ["t", "edge_id", "omega", "alt_distance"]
        assert len(rows) == 1

    def test_lly_stage_past_a_detour_keeps_flowing(self, tmp_path):
        # RK4 stages stretch edges past their detours (3-0 in the first
        # step); they are read on the path metric, and no accepted state
        # needs surgery
        argv = ["flow", "--named", "cycle:4", "--kind", "lly", "--omega0", "1,1,1,2.5"]
        assert main([*argv, "--t-end", "3", "--dt", "0.5", "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "flow_cycle4.csv")
        assert len(rows) == 4 * 7 and os.listdir(tmp_path) == ["flow_cycle4.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--named", "star:6", "--t-end", "2000", "--dt", "1"],
            ["--named", "path:3", "--t-end", "1e5", "--dt", "1"],
        ],
        ids=["star6_overflow", "path3_underflow"],
    )
    def test_forman_flow_past_float_range_is_numerical_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            code = main(["flow", "--kind", "forman", *argv, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv, bad_t, n_steps",
        [
            (["--named", "star:6", "--t-end", "300"], "235.7", 2357),
            (["--named", "star:65", "--t-end", "20"], "14.6", 146),
            # kappa = -62 at t=0, but the first step's kappa * omega overflows
            (["--named", "star:65", "--omega0", ",".join(["1e307"] * 65)], "0.1", 1),
        ],
        ids=["star6_overflow", "star65_overflow", "star65_kappa_overflow"],
    )
    def test_lly_flow_past_float_range_is_numerical_error(
        self, tmp_path, capsys, monkeypatch, argv, bad_t, n_steps
    ):
        # a tree's LLY flow is the Forman flow, which overflows on these stars
        steps = []
        rk4_step = ricciflow.flow._rk4_step

        def recording(kappa_fn, w, h):
            steps.append(h)
            return rk4_step(kappa_fn, w, h)

        monkeypatch.setattr(ricciflow.flow, "_rk4_step", recording)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            code = main(["flow", "--kind", "lly", *argv, "--dt", "0.1", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        # the first step past the range ends the run, and no step is halved
        # to repair it: each step runs between two times of the CLI's grid
        assert f"floating-point range at t={bad_t}" in capsys.readouterr().err
        assert os.listdir(out) == []
        args = build_parser().parse_args(["flow", *argv, "--dt", "0.1"])
        grid = ricciflow.cli._flow_times(float(args.t_end), float(args.dt))
        assert steps == np.diff(grid)[:n_steps].tolist() and len(steps) == n_steps

    @pytest.mark.parametrize(
        "argv, bad_t",
        [
            (["--kind", "lly", "--t-end", "1300", "--dt", "0.5"], "1209.5"),
            (["--kind", "forman", "--t-end", "1250", "--dt", "0.5"], "1209.5"),
            (["--kind", "lly", "--omega0", "1e-310,1,1"], "0"),
            (["--kind", "forman", "--omega0", "1e-310,1,1"], "0"),
        ],
        ids=["lly", "forman", "lly_at_start", "forman_at_start"],
    )
    def test_weight_below_normal_range_is_numerical_error(
        self, tmp_path, capsys, argv, bad_t
    ):
        # below the smallest normal float a weight has lost precision; the
        # path's weights, decaying like exp(-0.586 t), pass it at t=1209.5
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            code = main(["flow", "--named", "path:3", *argv, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert f"floating-point range at t={bad_t}\n" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_lly_flow_of_regular_triangle_is_scale_free(self, tmp_path):
        # the weights exp(-3t) fall below SURGERY_TOL near t=6.9, and the
        # triangle stays regular and strict at every scale
        argv = ["flow", "--named", "cycle:3", "--kind", "lly", "--t-end", "10", "--dt", "0.1"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv_rows(tmp_path / "flow_cycle3.csv")
        assert len(rows) == 3 * 101 and float(rows[-1]["omega"]) < 1e-9
        assert {r["kappa"] for r in rows} == {"3"}
        assert os.listdir(tmp_path) == ["flow_cycle3.csv"]

    def test_bad_dt(self, tmp_path):
        code = main(
            [
                "flow",
                "--named",
                "path:2",
                "--dt",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("omega0", ["1,0,1", "1,-2,1"])
    def test_nonpositive_omega0_is_input_error(self, tmp_path, capsys, omega0):
        out = tmp_path / "out"
        argv = ["flow", "--named", "path:3", "--omega0", omega0, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert "omega(1, 2) must be positive and finite" in capsys.readouterr().err
        assert os.listdir(out) == []


class TestInverseCommand:
    def test_star3_flat_solvable(self, tmp_path):
        assert main(
            [
                "inverse",
                "--named",
                "star:3",
                "--kappa",
                "0,0,0",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        payload = json.loads((tmp_path / "inverse_star3.json").read_text())
        assert payload["solvable"] is True
        vals = list(payload["omega"].values())
        assert vals[0] == pytest.approx(vals[1]) == pytest.approx(vals[2])

    def test_path2_flat_unsolvable(self, tmp_path):
        assert main(
            [
                "inverse",
                "--named",
                "path:2",
                "--kappa",
                "0,0",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        payload = json.loads((tmp_path / "inverse_path2.json").read_text())
        assert payload["solvable"] is False
        assert payload["lambda_max_K"] == pytest.approx(-1.0, abs=1e-9)

    def test_wrong_kappa_length(self, tmp_path):
        code = main(
            ["inverse", "--named", "path:2", "--kappa", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_INPUT


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--named", "path:2", "--omega0", "nan,1"],
            ["flow", "--named", "path:2", "--omega0", "1,inf"],
            ["flow", "--named", "cycle:4", "--kind", "lly", "--omega0", "nan,1,1,1"],
            ["classify", "--named", "path:3", "--measure", "normalized", "--m2", "nan,1,1"],
            ["spectrum", "--named", "star:3", "--measure", "normalized", "--m2", "1,inf,1"],
            ["inverse", "--named", "star:3", "--kappa", "nan,0,0"],
            ["inverse", "--named", "star:3", "--kappa", "0,-inf,0"],
        ],
    )
    def test_option_values_are_input_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        assert "finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--named", "path:2", "--t-end", "nan"],
            ["flow", "--named", "path:2", "--dt", "nan"],
            ["flow", "--named", "path:2", "--t-end", "inf"],
            ["flow", "--named", "cycle:4", "--kind", "lly", "--t-end", "inf", "--dt", "0.5"],
            ["flow", "--named", "cycle:4", "--kind", "lly", "--dt", "nan"],
            ["inverse", "--named", "star:3", "--kappa", "1,1,1", "--tol", "nan"],
        ],
        # the ids these cases had when each also named environment variables,
        # and cases 5 and 6 set classify's removed --tol-zero
        ids=[f"argv{i}-env{i}" for i in (0, 1, 2, 3, 4, 7)],
    )
    def test_float_options_are_input_errors(self, tmp_path, capsys, argv):
        def hung(signum, frame):
            pytest.fail(f"{argv} did not return within 10 s")

        out = tmp_path / "out"
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            code = main(argv + ["--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_INPUT
        assert "finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv",
        [["inverse", "--named", "star:3", "--kappa", "0,0,0", "--tol", "-1"]],
        ids=["inverse_tol"],
    )
    def test_negative_tolerances_are_input_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        assert "nonnegative" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_float_option_that_is_not_a_number(self, tmp_path, capsys):
        # the program parses every float option itself, so argparse does not exit
        out = tmp_path / "out"
        assert main(["flow", "--named", "path:2", "--dt", "abc", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: bad --dt value: 'abc'\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["flow", "--named", "path:2", "--t-end", "1e300", "--dt", "1e-300"], "steps"),
            (["flow", "--named", "path:2", "--kind", "lly", "--t-end", "1e300", "--dt", "1e-300"], "steps"),
            (["flow", "--named", "cycle:4", "--kind", "lly", "--t-end", "2e6", "--dt", "1"], "steps"),
        ],
    )
    def test_out_of_range_options_are_input_errors(self, tmp_path, capsys, argv, word):
        def hung(signum, frame):
            pytest.fail(f"{argv} did not return within 10 s")

        out = tmp_path / "out"
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            code = main(argv + ["--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_INPUT
        assert word in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "vertex_a, edge", [("vertex a nan", "edge a b 1"), ("vertex a 1", "edge a b inf")]
    )
    def test_graph_file_values_are_input_errors(self, tmp_path, vertex_a, edge):
        graph = tmp_path / "bad.graph"
        graph.write_text(f"graph 2 1\n{vertex_a}\nvertex b 1\n{edge}\n")
        out = tmp_path / "out"
        assert main(["classify", "--input", str(graph), "--out", str(out)]) == EXIT_INPUT
        assert os.listdir(out) == []


def graph_file(*lines):
    return "\n".join(lines) + "\n"


# (argv, graph file text or None, error text) of commands that fail on their input
INPUT_ERROR_CASES = {
    "named_count_not_int": (["curvature", "--named", "path:x"], None, "bad --named spec"),
    "named_star0": (["spectrum", "--named", "star:0"], None, "star needs at least 1 edge"),
    "named_complete2": (
        ["classify", "--named", "complete:2"],
        None,
        "complete graph needs at least 3 vertices",
    ),
    "named_unknown_family": (["flow", "--named", "tree:3"], None, "unknown graph family"),
    "m2_in_uniform_mode": (
        ["spectrum", "--named", "path:2", "--m2", "1,1"],
        None,
        "uniform mode takes no m2 values",
    ),
    "m2_with_input": (
        ["classify", "--m2", "1"],
        graph_file("graph 2 1", "vertex a 1", "vertex b 1", "edge a b 1"),
        "--m2 only applies to --named graphs",
    ),
    "omega0_count": (
        ["flow", "--named", "path:3", "--omega0", "1,2"],
        None,
        "--omega0 needs 3 values, got 2",
    ),
    "omega0_not_a_number": (
        ["curvature", "--named", "path:3", "--omega0", "1,abc,2"],
        None,
        "bad --omega0 value",
    ),
    "t_end_negative": (
        ["flow", "--named", "path:2", "--t-end", "-1"],
        None,
        "--t-end must be nonnegative",
    ),
    "duplicate_vertex": (
        ["spectrum"],
        graph_file("graph 2 1", "vertex a 1", "vertex a 1", "edge a b 1"),
        "duplicate vertex ids",
    ),
    "unknown_vertex": (
        ["curvature"],
        graph_file("graph 2 1", "vertex a 1", "vertex b 1", "edge a c 1"),
        "references unknown vertex",
    ),
    "header_count_not_int": (
        ["classify"],
        graph_file("graph x 1", "vertex a 1", "vertex b 1", "edge a b 1"),
        "bad header counts",
    ),
    "vertex_line_short": (
        ["flow"],
        graph_file("graph 2 1", "vertex a", "vertex b 1", "edge a b 1"),
        "bad vertex line",
    ),
    "edge_line_short": (
        ["inverse", "--kappa", "0"],
        graph_file("graph 2 1", "vertex a 1", "vertex b 1", "edge a b"),
        "bad edge line",
    ),
    "unknown_keyword": (
        ["curvature"],
        graph_file("graph 2 1", "vertex a 1", "node b 1", "edge a b 1"),
        "unexpected line",
    ),
    "header_edge_count": (
        ["spectrum"],
        graph_file("graph 2 2", "vertex a 1", "vertex b 1", "edge a b 1"),
        "header says 2 edges, found 1",
    ),
    "omega0_on_some_edges": (
        ["flow", "--kind", "lly"],
        graph_file(
            "graph 3 2", "vertex a 1", "vertex b 1", "vertex c 1", "edge a b 1 1", "edge b c 1"
        ),
        "omega0 given for some edges but not all",
    ),
    "measure_not_a_number": (
        ["classify"],
        graph_file("graph 2 1", "vertex a 1", "vertex b one", "edge a b 1"),
        "bad vertex measure",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERROR_CASES))
def test_input_error_is_one_line_and_writes_nothing(tmp_path, capsys, case):
    argv, text, message = INPUT_ERROR_CASES[case]
    if text is not None:
        graph = tmp_path / "g.graph"
        graph.write_text(text)
        argv = argv + ["--input", str(graph)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert os.listdir(out) == []


# one vertex, no edge: no curvature is defined
EDGELESS_GRAPH = "graph 1 0\nvertex a 1\n"
# finite inputs whose m2/m1 = 1e600 overflows the flow matrix
OVERFLOW_GRAPH = "graph 2 1\nvertex a 1e-300\nvertex b 1e-300\nedge a b 1e300\n"
# a 4-cycle whose m2/m1(a) = 1e308 overflows the symmetrized flow matrix and
# the objective of the Lin-Lu-Yau LP of edge a-b; the Lin-Lu-Yau flow never
# builds the flow matrix on a non-tree
LP_OVERFLOW_GRAPH = (
    "graph 4 4\nvertex a 1e-308\nvertex b 1\nvertex c 1\nvertex d 1\n"
    "edge a b 1 1\nedge b c 1 1\nedge c d 1 1\nedge d a 1 0.5\n"
)
# a 3-star whose Deg(a) = 3 * 1.8 / 3e-308 overflows, so default_epsilon is 0
DEG_OVERFLOW_GRAPH = (
    "graph 4 3\nvertex a 3e-308\nvertex b 1e9\nvertex c 1e9\nvertex d 1e9\n"
    "edge a b 1.8 1.9\nedge a c 1.8 1.9\nedge a d 1.8 1.9\n"
)


def overflow_cases(graph, kappa):
    """(graph, argv) of every command on graph, ``kappa`` the inverse target."""
    commands = [
        ["classify"],
        ["spectrum"],
        ["inverse", "--kappa", kappa],
        ["flow", "--kind", "forman"],
        ["flow", "--kind", "lly"],
        ["curvature"],
    ]
    return [(graph, argv) for argv in commands]


# a single edge whose Deg = 1e-310 has no finite default epsilon 1/(4 Deg)
TINY_DEG_GRAPH = "graph 2 1\nvertex a 1e10\nvertex b 1e10\nedge a b 1e-300\n"


# a path a-b-c whose m2/m1(c) = 1e25 passes HiGHS's infinite cost, 1e20, in
# the objective of the Lin-Lu-Yau LP of edge b-c
LEAF_COST_GRAPH = "graph 3 2\nvertex a 1\nvertex b 1\nvertex c 1e-25\nedge a b 1\nedge b c 1\n"


class TestDegenerateGraphFile:
    @staticmethod
    def _run(tmp_path, text, argv):
        graph = tmp_path / "g.graph"
        graph.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on stderr either
            code = main(argv + ["--input", str(graph), "--out", str(out)])
        assert os.listdir(out) == []
        return code

    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature"],
            ["spectrum"],
            ["classify"],
            ["flow", "--kind", "forman"],
            ["flow", "--kind", "lly"],
        ],
    )
    def test_edgeless_graph_is_input_error(self, tmp_path, capsys, argv):
        assert self._run(tmp_path, EDGELESS_GRAPH, argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "at least one edge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "graph, argv",
        overflow_cases(OVERFLOW_GRAPH, "0") + overflow_cases(LP_OVERFLOW_GRAPH, "0,0,0,0"),
        ids=[f"{prefix}argv{i}" for prefix in ("", "lp_") for i in range(6)],
    )
    def test_overflowing_flow_matrix_is_numerical_error(self, tmp_path, capsys, graph, argv):
        # these used to exit 0 writing NaN, Infinity or nan, or (a Lin-Lu-Yau
        # LP objective) exit 1 with linprog's ValueError
        assert self._run(tmp_path, graph, argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("graph", [LEAF_COST_GRAPH, DEG_OVERFLOW_GRAPH], ids=["leaf", "deg"])
    def test_lp_cost_past_highs_infinity_is_numerical_error(self, tmp_path, capsys, graph):
        # these used to exit 0 writing lly = inf, or exit 3 with HiGHS's
        # unexplained status 15
        assert self._run(tmp_path, graph, ["curvature"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "objective overflows (an m2/m1 ratio is too large)" in err

    @pytest.mark.parametrize("lly_column", ["solved", "stubbed"])
    def test_overflowing_degree_is_numerical_error(
        self, tmp_path, capsys, monkeypatch, lly_column
    ):
        # the Lin-Lu-Yau LP of edge a-b fails first; past it, the transport
        # column's kernels refuse epsilon 0
        if lly_column == "stubbed":
            monkeypatch.setattr(ricciflow.cli, "lly_vector", lambda g, omega: np.zeros(3))
        assert self._run(tmp_path, DEG_OVERFLOW_GRAPH, ["curvature"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_vanishing_degree_is_numerical_error(self, tmp_path, capsys):
        assert self._run(tmp_path, TINY_DEG_GRAPH, ["curvature"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: default epsilon") and err.count("\n") == 1

    def test_graph_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "bytes.graph"
        graph.write_bytes(b"graph 2 1\nvertex \xff 1\n")
        out = tmp_path / "out"
        assert main(["classify", "--input", str(graph), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1
        assert os.listdir(out) == []


FLOW_CYCLE4 = ["flow", "--named", "cycle:4", "--t-end", "0.1", "--dt", "0.05"]
# argv per command, run in this order: the option, then its default
SHARED_PARSER_CASES = {
    "flow_kind": [FLOW_CYCLE4 + ["--kind", "lly"], FLOW_CYCLE4],
    # keyed by the classify --tol-zero it had before the zero band was derived;
    # path:5's lambda_max(K) is about -0.27, so --tol 1 makes it solvable
    "classify_tol_zero": [
        ["inverse", "--named", "path:5", "--kappa", "0,0,0,0,0", "--tol", "1"],
        ["inverse", "--named", "path:5", "--kappa", "0,0,0,0,0"],
    ],
}


class TestErrorModel:
    def test_one_exception_class_per_exit_code(self):
        # exit 2 is GraphError, exit 3 NumericalFailure
        modules = [ricciflow] + [
            importlib.import_module(m.name)
            for m in pkgutil.iter_modules(ricciflow.__path__, "ricciflow.")
        ]
        defined = {
            f"{obj.__module__}.{obj.__qualname__}"
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
        assert defined == {
            "ricciflow.graph.GraphError",
            "ricciflow.graph.NumericalFailure",
        }
        assert ricciflow.NumericalFailure is ricciflow.graph.NumericalFailure


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("case", sorted(SHARED_PARSER_CASES))
    def test_no_option_value_leaks_between_calls(self, tmp_path, case):
        def run(argv, out):
            code = main(argv + ["--out", str(out)])
            return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        steps = SHARED_PARSER_CASES[case]
        first = []
        for i, argv in enumerate(steps):
            build_parser.cache_clear()  # the command is the parser's first
            first.append(run(argv, tmp_path / f"first{i}"))
        assert first[0] != first[1]  # a leaked value would show
        build_parser.cache_clear()
        parser = build_parser()
        for i, argv in enumerate(steps):
            assert run(argv, tmp_path / f"shared{i}") == first[i], argv
        assert build_parser() is parser


class TestRemovedSwitches:
    # LLY flows always run surgery, the transport column always uses
    # default_epsilon, and classify derives its zero band from the eigensolve
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--named", "cycle:4", "--kind", "lly", "--no-surgery"],
            ["curvature", "--named", "cycle:4", "--epsilon", "0.1"],
            ["classify", "--named", "path:5", "--tol-zero", "1"],
        ],
        ids=["no_surgery", "epsilon", "tol_zero"],
    )
    def test_parser_refuses(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_environment_sets_no_tolerance(self, tmp_path, monkeypatch):
        def run(out):
            assert main(["classify", "--named", "path:5", "--out", str(out)]) == EXIT_OK
            return (out / "classify_path5.json").read_bytes()

        monkeypatch.delenv("RICCI_TOL_ZERO", raising=False)
        plain = run(tmp_path / "plain")
        monkeypatch.setenv("RICCI_TOL_ZERO", "1.0")
        assert run(tmp_path / "env") == plain


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# commands that need no LP, so they must run without importing scipy
NUMPY_ONLY_COMMANDS = [
    ["spectrum", "--named", "star:6"],
    ["classify", "--named", "path:5"],
    ["inverse", "--named", "star:3", "--kappa", "0,0,0"],
    ["reproduce", "--figure", "fig1a"],
    ["flow", "--named", "path:3", "--kind", "forman"],
]
COLD_START = """
import sys
from ricciflow.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
for argv in %r:
    assert main(argv + ["--out", out]) == 0, argv
    assert scipy_modules() == [], (argv, scipy_modules())
assert main(["curvature", "--named", "cycle:5", "--out", out]) == 0
assert "scipy.optimize" in sys.modules, scipy_modules()
"""


def test_cold_start_imports_scipy_only_for_lps(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START % NUMPY_ONLY_COMMANDS, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curvature_cycle5.csv").exists()


def test_error_text_is_independent_of_hash_seed(tmp_path):
    # an edge is named as stored, never through a set of its ends
    graph = tmp_path / "zero.graph"
    graph.write_text(
        "graph 3 2\nvertex a 1\nvertex b 1\nvertex c 1\nedge a b 1 1\nedge b c 1 0\n"
    )
    errors = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "ricciflow.cli", "curvature", "--input", str(graph),
             "--out", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_INPUT
        errors.append(proc.stderr)
    assert errors == ["error: omega('b', 'c') must be positive and finite\n"] * 2


class TestReproduce:
    def test_fig1a_constant_limit(self, tmp_path):
        assert main(["reproduce", "--figure", "fig1a", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "reproduce_fig1a.json").read_text())
        assert payload["classification"] == "constant_metric"
        assert payload["limiting_curvature"] == pytest.approx(0.0, abs=1e-9)
        _, rows = read_csv_rows(tmp_path / "reproduce_fig1a.csv")
        assert all(x != "-0" for row in rows for x in row.values())
        last_rows = rows[-3:]
        for row in last_rows:
            assert float(row["kappa"]) == pytest.approx(0.0, abs=1e-8)

    def test_fig2_symmetric_limits(self, tmp_path):
        assert main(["reproduce", "--figure", "fig2", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "reproduce_fig2.json").read_text())
        assert set(payload["deltas"]) == {"0", "0.01", "0.02", "0.03"}
        for sub in payload["deltas"].values():
            lim = sub["limiting_normalized_metric"]
            assert lim["1-5"] == pytest.approx(lim["2-5"], abs=1e-9)
            assert lim["6-7"] == pytest.approx(lim["6-8"], abs=1e-9)
            assert sub["limiting_curvature"] < 0

    def test_ex43_negative_definite(self, tmp_path):
        assert main(["reproduce", "--figure", "ex43", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "reproduce_ex43.json").read_text())
        assert payload["lambda_max"] < 0
        assert all(x < 0 for x in payload["eigenvalues"])

    def test_ex42_negative_definite(self, tmp_path):
        assert main(["reproduce", "--figure", "ex42", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "reproduce_ex42.json").read_text())
        assert payload["lambda_max"] < 0

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reproduce", "--figure", "fig9", "--out", str(tmp_path)])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(
                [
                    "flow",
                    "--named",
                    "cycle:5",
                    "--kind",
                    "lly",
                    "--t-end",
                    "0.05",
                    "--dt",
                    "0.01",
                    "--out",
                    str(out),
                ]
            ) == EXIT_OK
            assert main(["classify", "--named", "star:6", "--out", str(out)]) == EXIT_OK
        assert (a / "flow_cycle5.csv").read_bytes() == (b / "flow_cycle5.csv").read_bytes()
        assert (
            a / "classify_star6.json"
        ).read_bytes() == (b / "classify_star6.json").read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        assert main(["spectrum", "--named", "path:3", "--out", str(tmp_path)]) == EXIT_OK
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
        assert leftovers == []


# SHA-256 of every file a fast command set writes, taken with numpy 2.4 and
# scipy 1.17 on x86-64.  Any changed output byte fails here; update a digest
# only for an intended change of output, and say which in the change log.
# Each command writes into a directory of its own, so names may repeat.
PINNED_OUTPUTS = [
    (["reproduce", "--figure", "ex42"], {
        "reproduce_ex42.json": "f6f1b6a05b6862780a8d8d6779b65ffe73d33ba05837238d36e94e41cd2bca26",
    }),
    (["reproduce", "--figure", "ex43"], {
        "reproduce_ex43.json": "b6e37b2275dc2d4c2a31b38d5914d5951fbfb2d2668367071f2ec7b85c22174d",
    }),
    (["reproduce", "--figure", "fig1a"], {
        "reproduce_fig1a.csv": "99f6437d5dd75069b51d44e6e2ead2bdf742bad53abee25b107b568098228642",
        "reproduce_fig1a.json": "d3167edc47fddc9ab5108a3c248d70c45c771c1a502c510d86f3b063bc64f96a",
    }),
    (["flow", "--named", "cycle:4", "--kind", "lly", "--omega0", "1,1,1,3.5",
      "--t-end", "0.3", "--dt", "0.01"], {
        "flow_cycle4.csv": "84fe9ca0414e0f9f71bbd8a8f1ff0740abbbf105fd40a03e4a35a682945f4ace",
        "flow_cycle4_surgery.csv": "63e8079d98908459f944193f9a9bbd386949127f0fe45d01d35252b1fc57262c",
    }),
    (["curvature", "--named", "cycle:5"], {
        "curvature_cycle5.csv": "4fd5bf9a6ce6f2f5ebde623cd7020d583ba47107de26accb42a78494f1308887",
    }),
    (["spectrum", "--named", "complete:6"], {
        "spectrum_complete6.json": "41d826e97df5d833fd29845c206f3b06053508ddfb92b6f9c0600678c61f5f28",
    }),
    (["inverse", "--named", "star:3", "--kappa", "0,0,0"], {
        "inverse_star3.json": "84ec91342a85381633ee6327be43ea1c414d4d701063420d89d6fd91bd2d7dba",
    }),
    # Lin-Lu-Yau LPs on non-uniform measures and weights
    (["curvature", "--named", "cycle:5", "--measure", "normalized", "--m2", "1,2,3,4,5",
      "--omega0", "3,3.3,2.7,3.15,2.85"], {
        "curvature_cycle5.csv": "185cfa240adcc8fc912f760a286043c105d528a04ce65887bee96695eae83b3b",
    }),
    (["flow", "--named", "complete:4", "--kind", "lly", "--omega0", "1,1,1,1,1,2.5",
      "--t-end", "0.05", "--dt", "0.01"], {
        "flow_complete4.csv": "d8f6d0024d3cf78ea7c2b8056c86f6d41ba50fcfc49be9aaf2b8cfcda4b907e0",
        "flow_complete4_surgery.csv": "b56cac4486aa0df0454df49207a032a45f279408a357152bea240a56d284110f",
    }),
]


class TestPinnedOutputBytes:
    def test_outputs_match_pinned_digests(self, tmp_path):
        for n, (argv, pinned) in enumerate(PINNED_OUTPUTS):
            out = tmp_path / str(n)
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            digests = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
            }
            assert digests == pinned, argv
