"""End-to-end CLI tests: exit codes, file outputs, schema, determinism."""

import argparse
import ast
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from hyperhomophily import (
    HsbmConfig, IngestOptions, SamplerConfig, analyze, cli, derive_seed, generate_hsbm, homophily,
    hsbm, load_hypergraph, nullmodel, write_hypergraph,
)
from hyperhomophily import report as rpt
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


def write_mixed_sizes(directory, one_label_pairs=False):
    """A fixed 40-node, 3-label dataset of 160 lines of sizes 1 to 6: some
    lines repeat an id, some repeat an earlier line, and node 8 has no label.
    Drawn with ``random()`` alone, whose stream is the same in every Python.
    ``one_label_pairs`` gives label 1 to every node of a kept size-2 line, so
    size 2's null population holds one label and its baseline is exactly 1."""
    rng = random.Random(11)
    labels = [str(1 + int(rng.random() * 3)) for _ in range(40)]
    labels[7] = ""
    lines = []
    for _ in range(160):
        if lines and int(rng.random() * 6) == 0:
            lines.append(lines[int(rng.random() * len(lines))])
            continue
        size = 1 + int(rng.random() * 6)
        lines.append(",".join(str(1 + int(rng.random() * 40)) for _ in range(size)))
    if one_label_pairs:
        for ids in (set(line.split(",")) for line in lines):
            if len(ids) == 2 and "8" not in ids:  # a line holding node 8 is dropped
                for node in ids:
                    labels[int(node) - 1] = "1"
    (directory / "hyperedges.txt").write_text("\n".join(lines) + "\n")
    (directory / "node-labels.txt").write_text("\n".join(labels) + "\n")
    (directory / "label-names.txt").write_text("red\ngreen\nblue\n")


def csv_rows(path):
    """The rows of a CSV output as dicts, its comment lines skipped."""
    return list(csv.DictReader(l for l in path.read_text().splitlines() if not l.startswith("#")))


COLLAPSE_3_TO_5 = ["--collapse-duplicates", "--min-k", "3", "--max-k", "5"]


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

    # sha256 of the report JSON, per-edge CSV and curve CSV; the curves'
    # digests date from when the size-2 baseline became exact, the reports'
    # from version 0.2.0, and the per-edge CSVs of the runs that keep size-1
    # edges from when the CLI stopped dropping them (their edge indices moved)
    @pytest.mark.parametrize(
        "flags, order, one_label_pairs, digests",
        [
            ([], "0", False, ("0398b9c913b79359ae53d960109c51c47b20c562383eb99611e0a2e3d5b04fb8",
                       "077bce37325b687a040ef37231fcdb9de0a568ccd1ece8d436d2b366aa05c4f3",
                       "00f7436e9992bc7b6ae29368509e83bb781fc8032a303a53e94a50a3ae53989f")),
            ([], "1", False, ("5c94d6d4ada1a11a40fb65ead34fb95179378197bfbb4666bc2a4583d8806d1e",
                       "a991fec5bfb69f1a584e29f3bfc9f77868aba6a06316ae5be0224c65a1908ebf",
                       "9ee32c0fe3a2862e9c745b955a91d45e3c1b0973913cc64a7f57254dbc2daef1")),
            ([], "2", False, ("69f7017d1e40846055c75c40f69547cc848f5e69e6c8bb2d77cb56c0a3b8aba4",
                       "491f1c6e8517aab73a43d7780cf98d1b455acbbb54d69f149a307149377e3f6d",
                       "3bf1efe926c448fdabc9260457b2c98ed447c2427da0e1ff50d2580072c71740")),
            (COLLAPSE_3_TO_5, "0", False,
             ("f9bf4eca9138299fa109128d4fc0c52e5ce4eff583d40d1c16df5f424d8fa18b",
              "eaf6b69ea78a06db5f3532a8777d2b5cbb419a41e2d7a24a25cbf92ddbe2aa18",
              "f4bbdaebb5bbeb19417650c4eaddbaf8ede9705dc5e063c32559b3de4589683e")),
            (COLLAPSE_3_TO_5, "1", False,
             ("d5e54ce86daec1826d09c88265541adad66b695bce03cccbc52bf14ec3228232",
              "cfa15ef45d94c5b265849b6d1a642f3e1e95de34d771128ad182e4916255566e",
              "a3a6ed264e1f994f63c379e2a293fc19487bae275fccb4158251857c87992316")),
            (COLLAPSE_3_TO_5, "2", False,
             ("c8206a44464171a8a6e425bea712d95dfa1856e40757feea0c7436446d06c870",
              "d1b2c9d8480e3762a30996b35aad5e0cb15ee514994119865dbbbdac33e8e15a",
              "8e088df1964cc96255905c3ad4280ae26189d7b6778733ff28dd3fab70f94485")),
            # size 2's baseline is exactly 1: a curve row with no per_k row
            ([], "1", True,
             ("cc2f5282723c1fac176840399981eaa92df19abc875513d26e316b99d3a6b3b7",
              "7fe77794d9cd67bb04c084ce4d51cc604080498a641af0f8a22024e878f0727e",
              "b6874c87dea404782beb6f4b3e5b2a600c158ce6c6d7ec12bddd411d409e5bdd")),
        ],
        ids=["q0", "q1", "q2", "collapse-3-5-q0", "collapse-3-5-q1", "collapse-3-5-q2",
             "degenerate-k2-q1"],
    )
    def test_output_bytes_are_pinned(
        self, tmp_path, monkeypatch, flags, order, one_label_pairs, digests
    ):
        monkeypatch.chdir(tmp_path)  # relative paths: the manifest records them
        write_mixed_sizes(tmp_path, one_label_pairs)
        code = main(
            ["analyze", "--hyperedges", "hyperedges.txt", "--labels", "node-labels.txt",
             "--label-names", "label-names.txt", "--samples", "300", "--seed", "5",
             "--order", order, *flags, "--out", "report.json",
             "--per-edge-out", "edges.csv", "--perplexity-curve", "curve.csv"]
        )
        assert code == 0
        outputs = ("report.json", "edges.csv", "curve.csv")
        got = tuple(hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in outputs)
        assert got == digests

    @pytest.mark.parametrize(
        "order, one_label_pairs", [("1", False), ("2", False), ("1", True)],
        ids=["q1", "q2", "degenerate-k2-q1"],
    )
    def test_outputs_are_what_analyze_renders(self, tmp_path, monkeypatch, order, one_label_pairs):
        # the library's one pipeline, rendered by report.py with the CLI's
        # manifest, gives the CLI's bytes
        monkeypatch.chdir(tmp_path)
        write_mixed_sizes(tmp_path, one_label_pairs)
        code = main(
            ["analyze", "--hyperedges", "hyperedges.txt", "--labels", "node-labels.txt",
             "--label-names", "label-names.txt", "--samples", "300", "--seed", "5",
             "--order", order, "--out", "report.json",
             "--per-edge-out", "edges.csv", "--perplexity-curve", "curve.csv"]
        )
        assert code == 0
        h = load_hypergraph("hyperedges.txt", "node-labels.txt", "label-names.txt")
        cfg = SamplerConfig(samples=300, seed=5, diversity_order=float(order))
        report = analyze(h, cfg, emit_per_edge=True)
        assert len(report.curve) > 2
        degenerate = [e.k for e in report.exclusions if e.reason == "degenerate_baseline"]
        assert degenerate == ([2] if one_label_pairs else [])
        manifest = json.loads(Path("report.json").read_bytes())["manifest"]
        edges, curve = io.StringIO(), io.StringIO()
        rpt.write_per_edge_csv(report.per_edge, edges)
        rpt.write_curve_csv(report.curve, curve)
        expected = {
            "report.json": rpt.dump_json(rpt.report_to_dict(report, manifest, h.ingest)),
            "edges.csv": edges.getvalue(),
            "curve.csv": curve.getvalue(),
        }
        for name, text in expected.items():
            assert Path(name).read_bytes() == text.encode("utf-8"), name

    def test_cli_calls_the_one_pipeline(self):
        # the CLI binds analyze under the name the traced benchmark hooks;
        # the package keeps no second, staged pipeline beside it
        assert cli._report_from_buckets is analyze
        assert not hasattr(homophily, "_buckets")

    def test_parse_error_exit_2(self, tmp_path, caplog):
        args = write_dataset(tmp_path, "1,x\n", "1\n1\n")
        assert main(["analyze", *args]) == 2
        assert "line 1" in caplog.text

    def test_control_byte_in_id_exit_2(self, tmp_path, caplog):
        # str.strip() removes the \x1f that int() rejects: one grammar rejects it
        args = write_dataset(tmp_path, "1,\x1f2\n", "1\n1\n")
        assert main(["analyze", *args]) == 2
        assert "invalid input: line 1: invalid node id '\\x1f2'" in caplog.text

    def test_undecodable_hyperedges_byte_reports_line(self, tmp_path, caplog):
        args = write_dataset(tmp_path, "", "1\n1\n2\n")
        (tmp_path / "hyperedges.txt").write_bytes(b"1,2\n\xff,3\n")
        assert main(["analyze", *args]) == 2
        assert "invalid input: line 2: invalid node id " + repr("\\xff") in caplog.text

    def test_undecodable_labels_byte_reports_line(self, tmp_path, caplog):
        # CRLF and a lone CR both end a line, as when the file is read as text
        args = write_dataset(tmp_path, "1,2\n", "")
        (tmp_path / "node-labels.txt").write_bytes(b"1\r\n1\r2\r\n\xfe\n")
        assert main(["analyze", *args]) == 2
        assert "invalid input: line 4: labels file" in caplog.text

    @pytest.mark.parametrize(
        "labels_text,names_text,message",
        [
            ("1\n99999999999999999999\n2\n", None, "label id 99999999999999999999 out of range"),
            ("1\n3\n2\n", "red\nblue\n", "label id 3 has no entry in the label names file"),
        ],
        ids=["beyond-int64", "no-name"],
    )
    def test_bad_label_id_reports_line(self, tmp_path, caplog, labels_text, names_text, message):
        args = write_dataset(tmp_path, "1,2\n2,3\n", labels_text, names_text)
        assert main(["analyze", *args]) == 2
        assert f"invalid input: line 2: labels file: {message}" in caplog.text

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

    def test_empty_log_level_is_unset(self, tmp_path, monkeypatch):
        # as Python reads its own PYTHON* variables: set but empty is not set
        args = write_dataset(tmp_path, "1,2\n3,4\n", "1\n1\n2\n2\n")
        monkeypatch.setenv("HYPERHOMOPHILY_LOG", "")
        out = tmp_path / "report.json"
        assert main(["analyze", *args, "--samples", "100", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edges_scored"] == 2

    @pytest.mark.parametrize("order", ["nan", "inf"])
    def test_non_finite_order_exit_2(self, tmp_path, caplog, order):
        # a NaN or infinite order would write NaN and Infinity, which JSON lacks
        args = write_dataset(tmp_path, "1,2\n3,4\n1,3\n", "1\n1\n2\n2\n")
        out = tmp_path / "report.json"
        code = main(
            ["analyze", *args, "--samples", "100", "--order", order, "--out", str(out)]
        )
        assert code == 2
        assert "invalid configuration" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--out", "same.txt", "--per-edge-out", "same.txt"],
            ["--out", "hyperedges.txt"],
            ["--per-edge-out", "./curve.csv", "--perplexity-curve", "curve.csv"],
            ["--perplexity-curve", "sub/../label-names.txt"],
            ["--out", "link.txt"],
            ["--out", "hard.txt"],
        ],
        ids=["two-outputs", "output-is-input", "dot-slash", "dot-dot", "symlink-to-input",
             "hard-link-to-input"],
    )
    def test_an_output_never_names_the_file_of_another_flag(
        self, tmp_path, monkeypatch, capsys, caplog, outputs
    ):
        # checked before anything is read or opened: no file is written or changed
        monkeypatch.chdir(tmp_path)
        write_mixed_sizes(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to("hyperedges.txt")
        os.link(tmp_path / "hyperedges.txt", tmp_path / "hard.txt")
        before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        code = main(
            ["analyze", "--hyperedges", "hyperedges.txt", "--labels", "node-labels.txt",
             "--label-names", "label-names.txt", "--samples", "50", *outputs]
        )
        assert code == 2
        assert "invalid configuration" in caplog.text and "names the same file as" in caplog.text
        assert capsys.readouterr().out == ""
        after = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        assert after == before

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_the_null_device_may_take_every_output(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n3,4\n1,3\n", "1\n1\n2\n2\n")
        outputs = ["--out", os.devnull, "--per-edge-out", os.devnull,
                   "--perplexity-curve", os.devnull]
        assert main(["analyze", *args, "--samples", "50", *outputs]) == 0

    def test_workers_flag_exit_2(self, tmp_path, capsys):
        # sizes run one after another; the flag is gone and argparse rejects it
        args = write_dataset(tmp_path, "1,2\n3,4\n1,3\n", "1\n1\n2\n2\n")
        with pytest.raises(SystemExit) as info:
            main(["analyze", *args, "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_epsilon_flag_exit_2(self, tmp_path, capsys):
        # a one-label size's baseline is exactly 1, so the threshold is no flag
        args = write_dataset(tmp_path, "1,2\n3,4\n1,3\n", "1\n1\n2\n2\n")
        with pytest.raises(SystemExit) as info:
            main(["analyze", *args, "--epsilon", "1e-9"])
        assert info.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, batch_cells", [(2, None), (3, None), (3, 3 * 8)], ids=["k2", "k3", "k3-batches"]
    )
    def test_one_label_size_is_degenerate(self, tmp_path, monkeypatch, k, batch_cells):
        # size k's edges hold label-1 nodes only: its baseline is exactly 1,
        # by the closed form at k = 2 and the merge of one batch or several
        if batch_cells is not None:  # 8 rows a batch: 50 samples take 7 batches
            monkeypatch.setattr(nullmodel, "_BATCH_CELLS", batch_cells)
        pure = "1,2,3\n2,3,4\n1,2,4\n" if k == 3 else "1,2\n2,3\n3,4\n"
        mixed = "1,5\n2,6\n5,6\n3,5\n" if k == 3 else "1,5,6\n2,5,7\n3,6,7\n"
        args = write_dataset(tmp_path, pure + mixed, "1\n1\n1\n1\n2\n2\n3\n")
        paths = {name: tmp_path / name for name in ("r.json", "edges.csv", "curve.csv")}
        code = main(
            ["analyze", *args, "--samples", "50", "--seed", "3", "--out", str(paths["r.json"]),
             "--per-edge-out", str(paths["edges.csv"]),
             "--perplexity-curve", str(paths["curve.csv"])]
        )
        assert code == 0
        payload = json.loads(paths["r.json"].read_text())
        assert payload["exclusions"] == [{"count": 3, "k": k, "reason": "degenerate_baseline"}]
        assert k not in [row["k"] for row in payload["per_k"]]
        curve = {row["k"]: row for row in csv_rows(paths["curve.csv"])}
        assert curve[str(k)]["baseline_mean"] == "1"
        for row in csv_rows(paths["edges.csv"]):
            assert (row["degenerate"] == "true") == (row["k"] == str(k))
            if row["k"] == str(k):
                assert (row["baseline"], row["phi"], row["phi_min"]) == ("1", "0", "0")

    def test_missing_file_exit_1(self, tmp_path):
        assert main(
            ["analyze", "--hyperedges", str(tmp_path / "nope.txt"),
             "--labels", str(tmp_path / "nope2.txt")]
        ) == 1

    def test_empty_analysis_exit_3(self, tmp_path):
        # only size-1 edges: analyze excludes them all as size_1
        args = write_dataset(tmp_path, "1\n2\n", "1\n2\n")
        assert main(["analyze", *args]) == 3

    def test_size_one_edge_is_the_library_exclusion(self, tmp_path):
        # no size is dropped at ingest unless asked: the CLI's report is the
        # library's default pipeline, and the size-1 edge its size_1 exclusion
        args = write_dataset(tmp_path, "1,2\n3\n1,2,3\n2,3,4\n1,4\n", "1\n2\n1\n2\n")
        out = tmp_path / "report.json"
        assert main(["analyze", *args, "--samples", "100", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        h = load_hypergraph(tmp_path / "hyperedges.txt", tmp_path / "node-labels.txt")
        report = analyze(h, SamplerConfig(samples=100))
        assert out.read_text() == rpt.dump_json(
            rpt.report_to_dict(report, payload["manifest"], h.ingest)
        )
        assert payload["edge_total"] == 5
        assert payload["exclusions"] == [{"count": 1, "k": 1, "reason": "size_1"}]
        assert payload["ingest"]["excluded_by_size"] == 0

    def test_max_k_one_exit_3(self, tmp_path, caplog):
        # --max-k alone keeps the size-1 edges only, and analyze scores none of them
        args = write_dataset(tmp_path, "1,2\n3\n1,2,3\n2,3,4\n1,4\n", "1\n2\n1\n2\n")
        assert main(["analyze", *args, "--max-k", "1"]) == 3
        assert "nothing to analyze: no hyperedges of size >= 2" in caplog.text

    def test_one_scorable_edge_exit_3(self, tmp_path, caplog):
        # one score has no standard error; this exited 0 with global_phi_std_error 0.0
        args = write_dataset(tmp_path, "1,2\n", "1\n2\n")
        out = tmp_path / "report.json"
        assert main(["analyze", *args, "--samples", "100", "--out", str(out)]) == 3
        assert "nothing to analyze: need 2 scorable hyperedges" in caplog.text
        assert not out.exists()


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

    def test_model_flags_default_to_hsbm_config(self, tmp_path):
        # no model flag: the files of the library's default block model
        prefix = str(tmp_path / "g")
        assert main(["generate", "--out-prefix", prefix]) == 0
        expected = [io.StringIO() for _ in range(3)]
        write_hypergraph(generate_hsbm(HsbmConfig()), *expected)
        for suffix, text in zip(("-hyperedges.txt", "-node-labels.txt", "-label-names.txt"), expected):
            assert Path(prefix + suffix).read_bytes() == text.getvalue().encode("utf-8")


def parser_flags(command):
    """A subcommand's parser and the dests of its flags, read from the CLI's parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command_parser = sub.choices[command]
    return command_parser, {a.dest for a in command_parser._actions if a.dest != "help"}


def test_flags_default_to_the_library():
    # the CLI invents no default: each model, sampler and ingest flag's is its
    # field's, and every other flag names an input, an output or the p grid
    sampler = {"samples": SamplerConfig.samples, "seed": SamplerConfig.seed,
               "diversity_order": SamplerConfig.diversity_order}
    model = {"nodes": HsbmConfig.num_nodes, "attrs": HsbmConfig.num_attributes,
             "edges": HsbmConfig.num_edges, "seed": HsbmConfig.seed}
    ingest = IngestOptions()
    assert SamplerConfig.seed == HsbmConfig.seed  # sweep's one --seed seeds both
    flags = {
        "analyze": {**sampler, "min_k": ingest.min_size, "max_k": ingest.max_size,
                    "collapse_duplicates": ingest.collapse_duplicate_edges},
        "generate": {**model, "k": HsbmConfig.k, "p": HsbmConfig.p},
        "sweep": {**sampler, **model, "k_grid": str(HsbmConfig.k)},  # the one-size grid
    }
    others = {"analyze": {"hyperedges", "labels", "label_names", "out", "per_edge_out",
                          "perplexity_curve"},
              "generate": {"out_prefix"}, "sweep": {"mode", "p_grid", "out"}}
    for command, expected in flags.items():
        parser, dests = parser_flags(command)
        assert dests == others[command] | set(expected), command
        got = {flag: parser.get_default(flag) for flag in expected}
        assert got == expected, command
        assert all(type(got[flag]) is type(value) for flag, value in expected.items()), command


@pytest.mark.parametrize(
    "argv, prefix",
    [(["analyze", "--hyperedges", "e", "--labels", "l", "--per-edge", "x"], "--per-edge x"),
     (["generate", "--out-prefix", "g", "--node", "60"], "--node 60"),
     (["sweep", "--p-grid", "0", "--sample", "50"], "--sample 50")],
    ids=["analyze", "generate", "sweep"],
)
def test_flag_prefix_exit_2(tmp_path, monkeypatch, capsys, argv, prefix):
    # a prefix stands for no flag, so adding or removing a flag changes no other argv's meaning
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestManifest:
    """The manifest records every flag of the subcommand but its outputs.

    Each flag is given a value that is not its default, so a flag that is
    parsed but never recorded, or recorded at its default, fails.
    """

    def check(self, command, outputs, manifest, inputs, options, unset=()):
        # ``unset`` names the flags a run must leave at their defaults
        command_parser, dests = parser_flags(command)
        recorded = {**inputs, **options}
        assert set(recorded) == dests - outputs
        assert all(
            (value == command_parser.get_default(dest)) == (dest in unset)
            for dest, value in recorded.items()
        )
        assert manifest["command"] == command
        assert (manifest["inputs"], manifest["options"]) == (inputs, options)
        assert all(type(manifest["options"][k]) is type(v) for k, v in options.items())

    def test_analyze(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_mixed_sizes(tmp_path)
        code = main(
            ["analyze", "--hyperedges", "hyperedges.txt", "--labels", "node-labels.txt",
             "--label-names", "label-names.txt", "--samples", "123", "--seed", "9",
             "--order", "2.5", "--min-k", "3", "--max-k", "5",
             "--collapse-duplicates", "--out", "report.json", "--per-edge-out", "edges.csv",
             "--perplexity-curve", "curve.csv"]
        )
        assert code == 0
        manifest = json.loads(Path("report.json").read_text())["manifest"]
        inputs = {"hyperedges": "hyperedges.txt", "labels": "node-labels.txt",
                  "label_names": "label-names.txt"}
        options = {"samples": 123, "seed": 9, "diversity_order": 2.5,
                   "min_k": 3, "max_k": 5, "collapse_duplicates": True}
        self.check("analyze", {"out", "per_edge_out", "perplexity_curve"}, manifest, inputs, options)
        assert not {"report.json", "edges.csv", "curve.csv"} & set(json.dumps(manifest).split('"'))

    def test_generate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["generate", "--nodes", "60", "--attrs", "3", "--k", "4", "--edges", "20",
             "--p", "-0.5", "--seed", "9", "--out-prefix", "g"]
        )
        assert code == 0
        manifest = json.loads(Path("g-manifest.json").read_text())
        options = {"nodes": 60, "attrs": 3, "k": 4, "edges": 20, "p": -0.5, "seed": 9}
        self.check("generate", {"out_prefix"}, manifest, {}, options)
        assert manifest["outputs"] == {
            "hyperedges": "g-hyperedges.txt",
            "labels": "g-node-labels.txt",
            "label_names": "g-label-names.txt",
        }

    def test_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sweep", "--p-grid", "-1,1", "--k-grid", "2,3",
             "--nodes", "40", "--attrs", "4", "--edges", "20", "--samples", "50",
             "--seed", "9", "--order", "2.5", "--out", "sweep.csv"]
        )
        assert code == 0
        first = Path("sweep.csv").read_text().split("\n", 1)[0]
        prefix = "# manifest: "
        assert first.startswith(prefix)
        manifest = json.loads(first[len(prefix):])
        options = {"mode": "kp", "p_grid": "-1,1", "k_grid": "2,3", "nodes": 40, "attrs": 4,
                   "edges": 20, "samples": 50, "seed": 9, "diversity_order": 2.5}
        # --mode has one choice, so it is recorded at its default
        self.check("sweep", {"out"}, manifest, {}, options, unset={"mode"})
        assert "sweep.csv" not in first


class TestSeedRange:
    """Seeds 2**64 apart would draw the same streams, so a seed outside
    [0, 2**64) is a configuration error; so is a sample count below 2,
    whose mean has no standard error."""

    @staticmethod
    def argv(command, tmp_path):
        if command == "analyze":
            args = write_dataset(tmp_path, "1,2\n3,4\n1,3\n", "1\n1\n2\n2\n")
            return ["analyze", *args, "--samples", "50", "--out", str(tmp_path / "r.json")]
        if command == "generate":
            return ["generate", "--nodes", "20", "--attrs", "2", "--k", "3", "--edges", "10",
                    "--p", "0.5", "--out-prefix", str(tmp_path / "g")]
        return ["sweep", "--p-grid", "0,1", "--nodes", "20", "--attrs", "2",
                "--k-grid", "3", "--edges", "10", "--samples", "50", "--out", str(tmp_path / "s.csv")]

    @pytest.mark.parametrize("command", ["analyze", "generate", "sweep"])
    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_in_range(self, tmp_path, command, seed):
        assert main([*self.argv(command, tmp_path), f"--seed={seed}"]) == 0

    @pytest.mark.parametrize("command", ["analyze", "generate", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_2(self, tmp_path, caplog, command, seed):
        assert main([*self.argv(command, tmp_path), f"--seed={seed}"]) == 2
        assert "invalid configuration: seed must lie in [0, 2**64)" in caplog.text

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_one_sample_exit_2(self, tmp_path, caplog, command):
        # the flag given last wins over the helper's --samples 50
        assert main([*self.argv(command, tmp_path), "--samples", "1"]) == 2
        assert "invalid configuration: samples must be >= 2" in caplog.text

    @pytest.mark.parametrize("part", [-1, 2**64])
    def test_derive_seed_part_out_of_range(self, part):
        # masked to 64 bits, -1 and 2**64 - 1 named one stream
        with pytest.raises(ValueError, match=r"seed part must lie in \[0, 2\*\*64\)"):
            derive_seed(1, part)


class TestSweep:
    def test_p_mode_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--p-grid", "0:1:0.5",
             "--nodes", "100", "--attrs", "10", "--k-grid", "5", "--edges", "200",
             "--samples", "300", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "k,p,phi,phi_std_error,edges_scored"
        assert len(lines) == 4  # header + 3 grid points
        assert {line.split(",")[0] for line in lines[1:]} == {"5"}
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0 and float(last[2]) == 1.0

    def test_kp_mode_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(  # --mode kp, the one mode, as the benchmark spells it
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
        # HsbmConfig's k (10) exceeds --nodes 8 but sizes no point of a given --k-grid
        out = tmp_path / "grid.csv"
        code = main(
            ["sweep", "--k-grid", "2,3", "--p-grid", "0,1",
             "--nodes", "8", "--attrs", "2", "--edges", "20",
             "--samples", "200", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 5  # header + 4 grid points
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["2", "0"], ["2", "1"], ["3", "0"], ["3", "1"]
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [(["--mode", "p"], "argument --mode: invalid choice: 'p'"),
         (["--k", "3"], "unrecognized arguments: --k 3")],
        ids=["mode-p", "k"],
    )
    def test_removed_size_flags_exit_2(self, tmp_path, capsys, argv, message):
        # every sweep is the (k, p) grid, sized by --k-grid alone: --mode keeps
        # one choice, and --k is gone (and no prefix of --k-grid)
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", *argv, "--p-grid", "0", "--nodes", "40", "--attrs", "4",
                  "--edges", "10", "--samples", "50", "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_p_mode_default_k(self, tmp_path):
        # without --k-grid, a sweep sizes its edges HsbmConfig's k (10), and its table says so
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--p-grid", "0,1", "--nodes", "40", "--attrs", "4",
                     "--edges", "30", "--samples", "50", "--out", str(out)])
        assert code == 0
        assert [(row["k"], row["p"]) for row in csv_rows(out)] == [("10", "0"), ("10", "1")]

    def test_kp_mode_rejects_grid_size_too_large(self, tmp_path, caplog):
        code = main(
            ["sweep", "--k-grid", "50", "--p-grid", "1",
             "--nodes", "100", "--attrs", "10", "--edges", "20",
             "--samples", "200", "--out", str(tmp_path / "grid.csv")]
        )
        assert code == 2
        assert "partition" in caplog.text

    def test_range_grid_inclusive(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--p-grid", "-1:1:0.25",
             "--nodes", "40", "--attrs", "4", "--k-grid", "4", "--edges", "60",
             "--samples", "150", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 10  # header + 9 points
        assert lines[1].split(",")[1] == "-1"
        assert lines[-1].split(",")[1] == "1"

    # sha256 of the CSV bytes after the manifest line. Both were recorded
    # when balanced edges (p < 0) began drawing their nodes run by run; the
    # rows at p >= 0 did not move
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--p-grid", "-1:1:0.5", "--k-grid", "4"],
             "8499601111bf4d595ece1d68708d51cfc09a93f5ae35a93d3298308128a74616"),
            (["--k-grid", "2,3", "--p-grid", "-1,0,1"],
             "aaa51e61c9febed04ae4365d2728f9d858883a89b52c12974c3fed2893addf3f"),
        ],
        ids=["p", "kp"],
    )
    def test_sweep_csv_bytes_are_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", *argv, "--nodes", "40", "--attrs", "4", "--edges", "60",
             "--samples", "150", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        first, table = out.read_bytes().split(b"\n", 1)
        manifest = json.loads(first.removeprefix(b"# manifest: "))
        assert first == b"# manifest: " + json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode()
        assert (manifest["command"], manifest["options"]["seed"]) == ("sweep", 3)
        assert hashlib.sha256(table).hexdigest() == digest

    @pytest.mark.parametrize(
        "k_grid, p_grid, message",
        [
            ("2,1", "0,1", ">= 2"),  # a size-1 graph has nothing to score
            ("2,50", "0,1", "partition"),  # only the last point is invalid
        ],
    )
    def test_invalid_point_exits_2_before_any_work(
        self, tmp_path, caplog, k_grid, p_grid, message
    ):
        out = tmp_path / "grid.csv"
        with mock.patch.object(hsbm, "generate_hsbm", side_effect=AssertionError):
            code = main(
                ["sweep", "--k-grid", k_grid, "--p-grid", p_grid,
                 "--nodes", "100", "--attrs", "10", "--edges", "50",
                 "--samples", "100", "--out", str(out)]
            )
        assert code == 2
        assert message in caplog.text
        assert not out.exists()

    def test_point_with_one_scorable_edge_exit_3(self, tmp_path, caplog):
        # a point of one size-3 edge has at most one scorable edge; this one has one
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k-grid", "3", "--p-grid", "0", "--nodes", "20",
                     "--attrs", "4", "--edges", "1", "--samples", "50", "--out", str(out)])
        assert code == 3
        assert "nothing to analyze: need 2 scorable hyperedges" in caplog.text
        assert not out.exists()

    def test_p_mode_size_one_exits_2(self):
        assert main(["sweep", "--k-grid", "1", "--p-grid", "0",
                     "--nodes", "20", "--attrs", "2", "--edges", "10"]) == 2

    def test_grid_product_over_ceiling_exit_2(self, caplog):
        # 100 sizes times 101 mixing levels; each grid alone is under the ceiling
        with mock.patch.object(hsbm, "generate_hsbm", side_effect=AssertionError):
            code = main(["sweep", "--k-grid", "2:101:1",
                         "--p-grid", "0:1:0.01", "--samples", "10"])
        assert code == 2
        assert "more than" in caplog.text

    def test_empty_grid_exit_2(self):
        assert main(["sweep", "--p-grid", " "]) == 2

    @pytest.mark.parametrize(
        "p_grid, message", [("0:1:0", "grid step must be positive"), (",", "contains no points")]
    )
    def test_grid_without_points_exit_2(self, caplog, p_grid, message):
        assert main(["sweep", "--p-grid", p_grid]) == 2
        assert message in caplog.text

    def test_bad_grid_exit_2(self):
        assert main(["sweep", "--p-grid", "0:1"]) == 2

    def test_out_of_range_grid_exit_2(self, caplog):
        assert main(["sweep", "--p-grid", "0,2"]) == 2
        assert "p must lie in [-1, 1]" in caplog.text

    @pytest.mark.parametrize("k_grid", ["inf", "1e400", "1e9999999999999999999"])
    def test_non_finite_k_grid_exit_2(self, caplog, k_grid):
        code = main(
            ["sweep", "--k-grid", k_grid, "--p-grid", "0",
             "--nodes", "8", "--attrs", "2", "--edges", "5", "--samples", "10"]
        )
        assert code == 2
        assert "finite" in caplog.text

    @pytest.mark.parametrize("flag", ["--p-grid", "--k-grid"])
    def test_huge_range_grid_refused_before_any_point(self, caplog, flag):
        # range() enumerates the points: a refusal that never calls it built no list
        with mock.patch.object(cli, "range", side_effect=AssertionError, create=True):
            code = main(["sweep", "--k-grid", "2", "--p-grid", "0",
                         flag, "0:1e12:1"])
        assert code == 2
        assert "more than" in caplog.text

    def test_range_grid_point_count_at_ceiling(self):
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid("-1e308:1e308:1e-300")  # 2e608 points

    @pytest.mark.parametrize(
        "spec, values",
        [
            # each point was rounded to 12 decimals: six 0.0 and six 1e-12
            ("0:1e-12:1e-13", [i / 10**13 for i in range(11)]),
            # the float tolerance fell short of the stop value
            ("123456.1234567:123456.1234569:0.0000001",
             [(1234561234567 + i) / 10**7 for i in range(3)]),
            # -0.9 + 3 * 0.3 made -0.0, which the sweep CSV printed as -0
            ("-0.9:1.0:0.3", [(3 * i - 9) / 10 for i in range(7)]),
            # a token a float reads as 0 is 0, never -0
            ("-0,1e-400,-1e-9999999999999999999", [0.0, 0.0, 0.0]),
        ],
    )
    def test_grid_points_are_exact(self, spec, values):
        # each point is the exact start + i*step rounded once; repr tells 0.0 from -0.0
        assert list(map(repr, cli._parse_grid(spec))) == list(map(repr, values))

    def test_float_k_grid_exit_2(self):
        assert main(["sweep", "--p-grid", "0", "--k-grid", "2.5"]) == 2


SRC = Path(cli.__file__).resolve().parents[1]


def script_target():
    """The ``hyperhomophily`` entry of ``[project.scripts]``, as module:function."""
    section = None
    for line in (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.split("=")[0].strip() == "hyperhomophily":
            return line.split("=", 1)[1].strip().strip('"')
    raise AssertionError("pyproject.toml names no hyperhomophily script")


def run_process(launcher, argv, **env):
    """Run the CLI in a fresh interpreter, through its real process exit,
    with ``env`` added to the environment."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *launcher, *argv], env=env, capture_output=True, timeout=120
    )


def reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


class TestProcessExit:
    """``python -m hyperhomophily.cli`` and the console script exit through
    one entry that skips the collector's shutdown walk; every output must
    still be complete and every exit code as documented."""

    def test_both_entries_name_one_function(self):
        module, function = script_target().split(":")
        assert module == "hyperhomophily.cli"
        assert callable(getattr(cli, function))
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        blocks = [
            node.body for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [[f"{function}()"]]

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_report_on_stdout_is_complete(self, tmp_path, entry):
        edges = "".join(f"{i},{i + 1},{i + 2}\n{i},{i + 3}\n" for i in range(1, 200))
        labels = "".join(f"{i % 3 + 1}\n" for i in range(205))
        args = ["analyze", *write_dataset(tmp_path, edges, labels), "--samples", "300"]
        if entry == "module":
            launcher = ["-m", "hyperhomophily.cli"]
        else:  # what the installed console script does with its target
            module, function = script_target().split(":")
            launcher = ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]
        run = run_process(launcher, args)
        assert run.returncode == 0, run.stderr
        json.loads(run.stdout, parse_constant=reject_constant)
        out = tmp_path / "report.json"
        assert main([*args, "--out", str(out)]) == 0
        assert run.stdout == out.read_bytes()

    def test_outputs_are_the_same_bytes_under_any_hash_seed(self, tmp_path, monkeypatch):
        # str hashes, and so the order of a set of strings, differ between
        # interpreters started under different PYTHONHASHSEEDs
        monkeypatch.chdir(tmp_path)
        write_mixed_sizes(tmp_path, one_label_pairs=True)
        outputs = {}
        for seed in ("1", "2"):
            Path(seed).mkdir()
            runs = [
                ["analyze", "--hyperedges", "hyperedges.txt", "--labels", "node-labels.txt",
                 "--label-names", "label-names.txt", "--samples", "300",
                 "--out", f"{seed}/report.json", "--per-edge-out", f"{seed}/edges.csv",
                 "--perplexity-curve", f"{seed}/curve.csv"],
                ["sweep", "--p-grid", "-1:1:0.5", "--nodes", "40", "--attrs", "4",
                 "--k-grid", "4", "--edges", "60", "--samples", "150", "--out", f"{seed}/sweep.csv"],
            ]
            for argv in runs:
                run = run_process(
                    ["-m", "hyperhomophily.cli"], argv,
                    PYTHONHASHSEED=seed, PYTHONWARNINGS="error::RuntimeWarning",
                )
                assert run.returncode == 0, run.stderr
            outputs[seed] = {path.name: path.read_bytes() for path in Path(seed).iterdir()}
        json.loads(outputs["1"]["report.json"], parse_constant=reject_constant)
        assert sorted(outputs["1"]) == ["curve.csv", "edges.csv", "report.json", "sweep.csv"]
        assert outputs["1"] == outputs["2"]

    def test_malformed_hyperedges_exit_2(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n2,x\n", "1\n1\n2\n")
        run = run_process(["-m", "hyperhomophily.cli"], ["analyze", *args])
        assert run.returncode == 2
        assert b"invalid input: line 2" in run.stderr
        assert run.stdout == b""

    def test_only_size_one_edges_exit_3(self, tmp_path):
        args = write_dataset(tmp_path, "1\n2\n", "1\n2\n")
        run = run_process(["-m", "hyperhomophily.cli"], ["analyze", *args])
        assert run.returncode == 3
        assert b"nothing to analyze" in run.stderr

    def test_run_loads_no_thread_pool(self, tmp_path):
        args = write_dataset(tmp_path, "1,2\n2,3\n1,2,3\n", "1\n2\n1\n")
        script = (
            "import sys\n"
            "from hyperhomophily.cli import main\n"
            f"code = main({['analyze', *args, '--samples', '50']!r})\n"
            "print(code, sorted({'concurrent.futures', 'queue'} & set(sys.modules)))\n"
        )
        run = run_process(["-c", script], [])
        assert run.returncode == 0, run.stderr
        assert run.stdout.decode().splitlines()[-1] == "0 []"
