"""Small-scale self-check of the benchmark itself.

Usage (from the repository root): python3 perfbench/selfcheck.py

It runs every workload at a reduced size, once untraced and once traced, and
verifies that every metric BENCHMARK.json names is printed with its unit.
Then it tampers with outputs, both directly through the checks and inside a
full run, and verifies that the tampering is counted as a failure instead of
crashing the run. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import checks
import run
from fixtures import FixtureSpec, edges_per_size

SEED = 7
FULL_WORKLOADS = run.WORKLOADS


def small_workloads() -> dict:
    full = FULL_WORKLOADS
    return {
        "pareto-wide": replace(
            full["pareto-wide"], samples=500,
            fixture=FixtureSpec(nodes=4000, edges=3000, labels=20, min_size=2, max_size=20,
                                size_exponent=-2.2, activity_shape=1.5, pure_share=0.3)),
        "dense-ingest": replace(
            full["dense-ingest"], samples=500,
            fixture=FixtureSpec(nodes=200, edges=5000, labels=5, min_size=2, max_size=6,
                                size_exponent=-2.2, activity_shape=1.5, pure_share=0.5)),
        "hsbm-sweep": replace(
            full["hsbm-sweep"], samples=500,
            sweep={**full["hsbm-sweep"].sweep, "nodes": 200, "attrs": 5, "edges": 600,
                   "k_grid": [2, 5]}),
    }


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", str(trace)])
    text = buf.getvalue()
    if code != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code {code}\n{text}")
    return text, json.loads(text.strip().splitlines()[-1])


def expect(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)


def check_metrics(spec: dict, problems: list[str]) -> None:
    declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
    for key, table in declared.items():
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} differs from run.py", problems)
    expect([w["name"] for w in spec["workloads"]] == list(FULL_WORKLOADS),
           "BENCHMARK.json workloads differ from run.py", problems)

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run_bench(workload, trace)
            where = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}", problems)
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{where}: not correct at small scale:\n{text}", problems)
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{where}: {metric['name']} missing or without unit {metric['unit']}",
                       problems)
                expect(any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                           for line in text.splitlines()),
                       f"{where}: {metric['name']} not printed with its unit", problems)
            print(f"ok  {where}: {len(spec[key])} metrics printed with units")


def check_tampering(problems: list[str]) -> None:
    # direct: each corruption of a good output must yield failures, not raise
    run_bench("dense-ingest", 0)
    workload = small_workloads()["dense-ingest"]
    schema = json.loads(run.SCHEMA.read_text())
    outputs = run.output_paths(workload, run.WORK / "dense-ingest", "")
    original = {key: path.read_bytes() for key, path in outputs.items()}
    report = json.loads(original["report"])
    tampered = {
        "report edge_total": ("report", json.dumps({**report, "edge_total": 1}).encode()),
        "report global_phi": ("report", json.dumps({**report, "global_phi": 0.9}).encode()),
        "report truncated": ("report", original["report"][:50]),
        "report extra key": ("report", json.dumps({**report, "extra": 1}).encode()),
        "per-edge row dropped": ("per_edge", original["per_edge"].rsplit(b"\n", 2)[0] + b"\n"),
        "curve garbage": ("curve", b"\xff\xfe not a csv"),
    }
    spec = workload.fixture
    sizes = len(edges_per_size(spec))
    for label, (key, blob) in tampered.items():
        for k, path in outputs.items():
            path.write_bytes(blob if k == key else original[k])
        try:
            failures, _ = checks.check_analyze(outputs, schema, spec.edges, sizes, 0.5, None)
        except Exception as exc:  # the point of this check is that nothing escapes
            problems.append(f"tampered {label}: check raised {exc!r}")
            continue
        expect(bool(failures), f"tampered {label}: not detected", problems)

    sweep_csv = run.WORK / "selfcheck-sweep.csv"
    for label, blob in {"sweep phi": b"k,p,phi,phi_std_error,edges_scored\n2,1,0.5,0,600\n",
                        "sweep empty": b""}.items():
        sweep_csv.write_bytes(blob)
        try:
            failures, _ = checks.check_sweep(sweep_csv, [2], [1.0], 600, None)
        except Exception as exc:  # the point of this check is that nothing escapes
            problems.append(f"tampered {label}: check raised {exc!r}")
            continue
        expect(bool(failures), f"tampered {label}: not detected", problems)
    sweep_csv.unlink()

    # inside a full run: corrupt the report of every second timed iteration
    real = run.run_child
    calls = {"n": 0}

    def corrupting(argv, log):
        result = real(argv, log)
        calls["n"] += 1
        if "--out" in argv and calls["n"] > run.SETUP_REPEATS and calls["n"] % 2 == 0:
            (run.ROOT / argv[argv.index("--out") + 1]).write_text("{not json")
        return result

    run.run_child = corrupting
    try:
        text, result = run_bench("dense-ingest", 0)
    finally:
        run.run_child = real
    expect(result["correct"] is False and result["failed"] >= 1
           and result["metrics"]["success_rate"]["value"] < 1.0,
           f"tampered full run not counted as failed:\n{text}", problems)
    print(f"ok  tampered outputs counted as failures "
          f"({result['failed']}/{result['attempted']} iterations failed)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS = small_workloads()
    problems: list[str] = []
    check_metrics(spec, problems)
    check_tampering(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
