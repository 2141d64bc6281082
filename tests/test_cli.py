import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import warnings

import pytest

from ricciflow.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


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

    def test_bad_epsilon_is_found_before_any_lp(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize

        import ricciflow.curvature

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return scipy.optimize.linprog(*args, **kwargs)

        monkeypatch.setattr(ricciflow.curvature, "linprog", counting)
        code = main(
            ["curvature", "--named", "complete:9", "--epsilon", "1", "--out", str(tmp_path)]
        )
        assert code == EXIT_INPUT
        assert "epsilon" in capsys.readouterr().err
        assert calls == []

    def test_missing_file(self, tmp_path):
        code = main(
            ["curvature", "--input", str(tmp_path / "nope.graph"), "--out", str(tmp_path)]
        )
        assert code == EXIT_INPUT

    def test_degenerate_metric_is_numerical_error(self, tmp_path, capsys):
        code = main(
            [
                "curvature",
                "--named",
                "cycle:3",
                "--omega0",
                "1,1,2.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

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


class TestSpectrumCommand:
    def test_path2(self, tmp_path):
        assert main(["spectrum", "--named", "path:2", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "spectrum_path2.json").read_text())
        assert payload["eigenvalues"] == [-3.0, -1.0]
        assert payload["lambda_max"] == -1.0
        assert payload["bounds"] == {"lower": 1.0, "upper": 2.0}
        assert all(v > 0 for v in payload["perron_vector"].values())


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

    def test_tol_zero_flag_reclassifies(self, tmp_path):
        # path:5 has lambda_max about -0.27; a huge tolerance absorbs it
        assert main(
            [
                "classify",
                "--named",
                "path:5",
                "--tol-zero",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        payload = json.loads((tmp_path / "classify_path5.json").read_text())
        assert payload["classification"] == "constant_metric"

    def test_tol_zero_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RICCI_TOL_ZERO", "1.0")
        assert main(["classify", "--named", "path:5", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "classify_path5.json").read_text())
        assert payload["classification"] == "constant_metric"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RICCI_TOL_ZERO", "1.0")
        assert main(
            [
                "classify",
                "--named",
                "path:5",
                "--tol-zero",
                "1e-9",
                "--out",
                str(tmp_path),
            ]
        ) == EXIT_OK
        payload = json.loads((tmp_path / "classify_path5.json").read_text())
        assert payload["classification"] == "vanishing"


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
        "argv, env",
        [
            (["flow", "--named", "path:2", "--t-end", "nan"], {}),
            (["flow", "--named", "path:2", "--dt", "nan"], {}),
            (["flow", "--named", "path:2", "--t-end", "inf"], {}),
            (["flow", "--named", "cycle:4", "--kind", "lly", "--t-end", "inf", "--dt", "0.5"], {}),
            (["curvature", "--named", "cycle:4", "--epsilon", "nan"], {}),
            (["classify", "--named", "path:3", "--tol-zero", "nan"], {}),
            (["classify", "--named", "path:3"], {"RICCI_TOL_ZERO": "nan"}),
            (["inverse", "--named", "star:3", "--kappa", "1,1,1", "--tol", "nan"], {}),
        ],
    )
    def test_float_options_are_input_errors(self, tmp_path, capsys, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)

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
        "argv, env",
        [
            (["classify", "--named", "star:3", "--tol-zero", "-1"], {}),
            (["classify", "--named", "star:3"], {"RICCI_TOL_ZERO": "-1e-9"}),
            (["inverse", "--named", "star:3", "--kappa", "0,0,0", "--tol", "-1"], {}),
        ],
        ids=["tol_zero_flag", "tol_zero_env", "inverse_tol"],
    )
    def test_negative_tolerances_are_input_errors(
        self, tmp_path, capsys, monkeypatch, argv, env
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        assert "nonnegative" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["curvature", "--named", "cycle:4", "--epsilon", "-1"], "epsilon"),
            (["curvature", "--named", "cycle:4", "--epsilon", "0"], "epsilon"),
            (["curvature", "--named", "cycle:4", "--epsilon", "1"], "epsilon"),
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


# one vertex, no edge: no curvature is defined
EDGELESS_GRAPH = "graph 1 0\nvertex a 1\n"
# finite inputs whose m2/m1 = 1e600 overflows the flow matrix
OVERFLOW_GRAPH = "graph 2 1\nvertex a 1e-300\nvertex b 1e-300\nedge a b 1e300\n"


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
        "argv",
        [
            ["classify"],
            ["spectrum"],
            ["inverse", "--kappa", "0"],
            ["flow", "--kind", "forman"],
            ["flow", "--kind", "lly"],
            ["curvature"],
        ],
    )
    def test_overflowing_flow_matrix_is_numerical_error(self, tmp_path, capsys, argv):
        # these used to exit 0 writing NaN, Infinity or nan
        assert self._run(tmp_path, OVERFLOW_GRAPH, argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "overflow" in err
        assert "Traceback" not in err


LLY_CYCLE4 = ["flow", "--named", "cycle:4", "--kind", "lly", "--omega0", "1,1,1,3.5"]
# (argv, RICCI_TOL_ZERO or None) per command, run in this order
SHARED_PARSER_CASES = {
    "lly_surgery_flag": [(LLY_CYCLE4 + ["--no-surgery"], None), (LLY_CYCLE4, None)],
    "classify_tol_zero": [
        (["classify", "--named", "path:5", "--tol-zero", "1"], None),
        (["classify", "--named", "path:5"], "1e-3"),
    ],
}


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("case", sorted(SHARED_PARSER_CASES))
    def test_no_option_value_leaks_between_calls(self, tmp_path, monkeypatch, case):
        def run(argv, env, out):
            if env is None:
                monkeypatch.delenv("RICCI_TOL_ZERO", raising=False)
            else:
                monkeypatch.setenv("RICCI_TOL_ZERO", env)
            code = main(argv + ["--out", str(out)])
            return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        steps = SHARED_PARSER_CASES[case]
        first = []
        for i, (argv, env) in enumerate(steps):
            build_parser.cache_clear()  # the command is the parser's first
            first.append(run(argv, env, tmp_path / f"first{i}"))
        assert first[0] != first[1]  # a leaked value would show
        build_parser.cache_clear()
        parser = build_parser()
        for i, (argv, env) in enumerate(steps):
            assert run(argv, env, tmp_path / f"shared{i}") == first[i], argv
        assert build_parser() is parser


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
