"""End-to-end CLI tests: exit codes, file outputs, schema, determinism."""

import json
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from hyperhomophily import cli
from hyperhomophily.cli import main


def write_dataset(tmp_path, edges_text, labels_text, names_text=None):
    edges = tmp_path / "hyperedges.txt"
    labels = tmp_path / "node-labels.txt"
    edges.write_text(edges_text, encoding="utf-8")
    labels.write_text(labels_text, encoding="utf-8")
    args = ["--hyperedges", str(edges), "--labels", str(labels)]
    if names_text is not None:
        names = tmp_path / "label-names.txt"
        names.write_text(names_text, encoding="utf-8")
        args += ["--label-names", str(names)]
    return args


def load_schema():
    ref = resources.files("hyperhomophily") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class TestAnalyze:
    def test_pure_dataset_scores_one(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n3,4\n", "1\n1\n2\n2\n")
        out = tmp_path / "report.json"
        code = main(["analyze", *args, "--samples", "200", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["global_phi"] == 1.0
        jsonschema.validate(payload, load_schema())

    def test_report_to_stdout(self, tmp_path, capsys):
        args = write_dataset(tmp_path, "1,2\n3,4\n", "1\n1\n2\n2\n")
        assert main(["analyze", *args, "--samples", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edge_total"] == 2

    def test_min_max_k_single_row(self, tmp_path):
        args = write_dataset(
            tmp_path, "1,2\n1,2,3\n2,3,4\n1,3,4,5\n", "1\n1\n2\n2\n1\n"
        )
        out = tmp_path / "report.json"
        code = main(
            ["analyze", *args, "--min-k", "3", "--max-k", "3", "--samples", "300",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["k"] for row in payload["per_k"]] == [3]
        assert payload["global_phi"] == payload["per_k"][0]["phi_k"]
        assert payload["ingest"]["excluded_by_size"] == 2

    def test_per_edge_and_curve_outputs(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n1,2,3\n2,3,4\n", "1\n1\n2\n2\n")
        per_edge = tmp_path / "edges.csv"
        curve = tmp_path / "curve.csv"
        code = main(
            ["analyze", *args, "--samples", "300",
             "--per-edge-out", str(per_edge), "--perplexity-curve", str(curve),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        edge_lines = [l for l in per_edge.read_text().splitlines() if not l.startswith("#")]
        assert edge_lines[0].startswith("edge_index,k,observed")
        assert len(edge_lines) == 4  # header + 3 edges
        curve_lines = [l for l in curve.read_text().splitlines() if not l.startswith("#")]
        assert curve_lines[0] == "k,mean_observed,baseline_mean,baseline_std_error,edge_count"
        assert len(curve_lines) == 3  # header + sizes 2 and 3

    def test_determinism_byte_identical(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n1,3\n2,3\n1,2,4\n", "1\n2\n1\n2\n")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", *args, "--samples", "500", "--out", str(out_a)]) == 0
        assert main(["analyze", *args, "--samples", "500", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n1,3\n2,3\n1,2,4\n2,3,4\n", "1\n2\n1\n2\n")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", *args, "--workers", "1", "--samples", "400", "--out", str(out_a)]) == 0
        assert main(["analyze", *args, "--workers", "4", "--samples", "400", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parse_error_exit_2(self, tmp_path, caplog):
        args = write_dataset(tmp_path, "1,x\n", "1\n1\n")
        assert main(["analyze", *args]) == 2
        assert "line 1" in caplog.text

    def test_undecodable_hyperedges_byte_reports_line(self, tmp_path, caplog):
        args = write_dataset(tmp_path, "", "1\n1\n2\n")
        (tmp_path / "hyperedges.txt").write_bytes(b"1,2\n\xff,3\n")
        assert main(["analyze", *args]) == 2
        assert "invalid input: line 2: hyperedges file" in caplog.text

    def test_undecodable_labels_byte_reports_line(self, tmp_path, caplog):
        # CRLF and a lone CR both end a line, as when the file is read as text
        args = write_dataset(tmp_path, "1,2\n", "")
        (tmp_path / "node-labels.txt").write_bytes(b"1\r\n1\r2\r\n\xfe\n")
        assert main(["analyze", *args]) == 2
        assert "invalid input: line 4: labels file" in caplog.text

    def test_bad_log_level_exit_2(self, tmp_path, monkeypatch, capsys):
        args = write_dataset(tmp_path, "1,2\n3,4\n", "1\n1\n2\n2\n")
        monkeypatch.setenv("HYPERHOMOPHILY_LOG", "LOUD")
        assert main(["analyze", *args, "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "HYPERHOMOPHILY_LOG" in err[0] and "'LOUD'" in err[0]
        assert all(level in err[0] for level in ("DEBUG", "INFO", "WARNING", "ERROR"))

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_non_positive_epsilon_exit_2(self, tmp_path, caplog, epsilon):
        # one label: the baseline is exactly 1, which epsilon 0 would score 0/0
        args = write_dataset(tmp_path, "1,2\n2,3\n1,3\n", "1\n1\n1\n")
        out = tmp_path / "report.json"
        code = main(
            ["analyze", *args, "--samples", "100", f"--epsilon={epsilon}",
             "--out", str(out)]
        )
        assert code == 2
        assert "epsilon must be positive" in caplog.text
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        assert main(
            ["analyze", "--hyperedges", str(tmp_path / "nope.txt"),
             "--labels", str(tmp_path / "nope2.txt")]
        ) == 1

    def test_empty_analysis_exit_3(self, tmp_path):
        # only size-1 edges; the default min-k filter leaves nothing
        args = write_dataset(tmp_path, "1\n2\n", "1\n2\n")
        assert main(["analyze", *args]) == 3


class TestGenerate:
    def test_generate_then_analyze_pure(self, tmp_path):
        prefix = str(tmp_path / "syn")
        code = main(
            ["generate", "--nodes", "100", "--attrs", "10", "--k", "5",
             "--edges", "300", "--p", "1.0", "--seed", "3", "--out-prefix", prefix]
        )
        assert code == 0
        for suffix in ("-hyperedges.txt", "-node-labels.txt", "-label-names.txt", "-manifest.json"):
            assert Path(prefix + suffix).exists()
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--hyperedges", prefix + "-hyperedges.txt",
             "--labels", prefix + "-node-labels.txt",
             "--label-names", prefix + "-label-names.txt",
             "--samples", "500", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["global_phi"] == 1.0

    def test_generate_determinism(self, tmp_path):
        args = ["generate", "--nodes", "60", "--attrs", "6", "--k", "3",
                "--edges", "50", "--p", "0.5", "--seed", "7"]
        assert main([*args, "--out-prefix", str(tmp_path / "a")]) == 0
        assert main([*args, "--out-prefix", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a-hyperedges.txt").read_bytes() == (
            tmp_path / "b-hyperedges.txt"
        ).read_bytes()

    def test_invalid_config_exit_2(self, tmp_path, caplog):
        code = main(
            ["generate", "--nodes", "1001", "--attrs", "10", "--k", "5",
             "--edges", "10", "--p", "0.0", "--out-prefix", str(tmp_path / "x")]
        )
        assert code == 2
        assert "divisible" in caplog.text


class TestSweep:
    def test_p_mode_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--mode", "p", "--p-grid", "0:1:0.5",
             "--nodes", "100", "--attrs", "10", "--k", "5", "--edges", "200",
             "--samples", "300", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "p,phi,phi_std_error,edges_scored"
        assert len(lines) == 4  # header + 3 grid points
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0

    def test_kp_mode_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["sweep", "--mode", "kp", "--k-grid", "2,5", "--p-grid", "0,1",
             "--nodes", "100", "--attrs", "10", "--edges", "200",
             "--samples", "300", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "k,p,phi,phi_std_error,edges_scored"
        assert len(lines) == 5
        for line in lines[1:]:
            k, p, phi = line.split(",")[:3]
            if float(p) == 1.0:
                assert float(phi) == 1.0

    def test_kp_mode_ignores_default_k(self, tmp_path):
        # the default --k (10) exceeds --nodes 8 but sizes no grid point
        out = tmp_path / "grid.csv"
        code = main(
            ["sweep", "--mode", "kp", "--k-grid", "2,3", "--p-grid", "0,1",
             "--nodes", "8", "--attrs", "2", "--edges", "20",
             "--samples", "200", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 5  # header + 4 grid points
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["2", "0"], ["2", "1"], ["3", "0"], ["3", "1"]
        ]

    def test_kp_mode_rejects_grid_size_too_large(self, tmp_path, caplog):
        code = main(
            ["sweep", "--mode", "kp", "--k-grid", "50", "--p-grid", "1",
             "--nodes", "100", "--attrs", "10", "--edges", "20",
             "--samples", "200", "--out", str(tmp_path / "grid.csv")]
        )
        assert code == 2
        assert "partition" in caplog.text

    def test_range_grid_inclusive(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--mode", "p", "--p-grid", "-1:1:0.25",
             "--nodes", "40", "--attrs", "4", "--k", "4", "--edges", "60",
             "--samples", "150", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 10  # header + 9 points
        assert lines[1].split(",")[0] == "-1"
        assert lines[-1].split(",")[0] == "1"

    def test_empty_grid_exit_2(self):
        assert main(["sweep", "--mode", "p", "--p-grid", " "]) == 2

    def test_bad_grid_exit_2(self):
        assert main(["sweep", "--mode", "p", "--p-grid", "0:1"]) == 2

    def test_out_of_range_grid_exit_2(self):
        assert main(["sweep", "--mode", "p", "--p-grid", "0,2"]) == 2

    def test_kp_requires_k_grid(self):
        assert main(["sweep", "--mode", "kp", "--p-grid", "0,1"]) == 2

    @pytest.mark.parametrize("k_grid", ["inf", "1e400"])
    def test_non_finite_k_grid_exit_2(self, caplog, k_grid):
        code = main(
            ["sweep", "--mode", "kp", "--k-grid", k_grid, "--p-grid", "0",
             "--nodes", "8", "--attrs", "2", "--edges", "5", "--samples", "10"]
        )
        assert code == 2
        assert "finite" in caplog.text

    @pytest.mark.parametrize("flag", ["--p-grid", "--k-grid"])
    def test_huge_range_grid_refused_before_any_point(self, caplog, flag):
        # round() computes each point: a refusal that never calls it built no list
        with mock.patch.object(cli, "round", side_effect=AssertionError, create=True):
            code = main(["sweep", "--mode", "kp", "--k-grid", "2", "--p-grid", "0",
                         flag, "0:1e12:1"])
        assert code == 2
        assert "more than" in caplog.text

    def test_range_grid_point_count_at_ceiling(self):
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid("-1e308:1e308:1e-300")  # the span overflows to inf

    def test_float_k_grid_exit_2(self):
        assert main(["sweep", "--mode", "kp", "--p-grid", "0", "--k-grid", "2.5"]) == 2
