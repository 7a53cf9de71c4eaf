"""End-to-end benchmark of the hyperhomophily CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed iteration is one fresh ``python3 -m hyperhomophily.cli`` child
process with default ``--workers 1``, run one at a time (a closed loop with
one client). The children import the checkout's own ``src``. Every output is
checked; a failed check counts toward the error rate. Set-up (writing the
fixture and one untimed warm-up invocation) is repeated and its median is
``setup_s``. With ``--trace 1`` a separate traced child (traced.py) records a
span per layer call and the per-layer metrics are derived from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the machine, the workload and every metric with its unit. The full record,
with per-iteration samples, is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import fixtures
from fixtures import FixtureSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SCHEMA = SRC / "hyperhomophily" / "schemas" / "report.schema.json"
CLI = [sys.executable, "-m", "hyperhomophily.cli"]

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
MEASURE_LIMIT_S = 110.0  # stop timing after this even below MIN_ITERATIONS
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input. ``fixture`` is set for analyze workloads; the
    sweep generates its graphs inside the program from the CLI flags."""

    samples: int
    fixture: FixtureSpec | None = None
    planted: float = 0.0
    per_edge: bool = False
    curve: bool = False
    sweep: dict = field(default_factory=dict)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    # the null-model baseline does nearly all the work: 39 sizes, n_k up to ~12k
    "pareto-wide": Workload(
        samples=1000,
        fixture=FixtureSpec(nodes=20_000, edges=30_000, labels=80, min_size=2, max_size=40,
                            size_exponent=-2.2, activity_shape=1.5, pure_share=0.3),
        planted=0.3,
    ),
    # ingest, per-edge records and CSV writing carry the load; the baseline is small
    "dense-ingest": Workload(
        samples=2000,
        fixture=FixtureSpec(nodes=1_000, edges=75_000, labels=10, min_size=2, max_size=6,
                            size_exponent=-2.2, activity_shape=1.5, pure_share=0.5),
        planted=0.5,
        per_edge=True,
        curve=True,
    ),
    # in-memory generator and many small null-model calls; no ingest, no per-edge output
    "hsbm-sweep": Workload(
        samples=2000,
        sweep={"nodes": 1000, "attrs": 10, "edges": 1000, "k_grid": [2, 5, 10, 20],
               "p_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    ),
}


# Metrics: name -> unit. BENCHMARK.json lists the same names; selfcheck.py
# verifies that every one of them is printed.
END_TO_END = {
    "wall_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "hypergraph.load_s": "s",
    "hypergraph.load_mb_per_s": "MB/s",
    "hypergraph.k_degrees_s": "s",
    "hypergraph.edges_read": "count",
    "hypergraph.edges_kept": "count",
    "nullmodel.baseline_s": "s",
    "nullmodel.baseline_max_k_s": "s",
    "nullmodel.draws_per_s": "samples/s",
    "nullmodel.population_sum": "count",
    "nullmodel.population_max": "count",
    "nullmodel.sizes_insufficient": "count",
    "diversity.bulk_s": "s",
    "diversity.rows_per_s": "rows/s",
    "homophily.analyze_s": "s",
    "homophily.self_s": "s",
    "homophily.per_edge_records_s": "s",
    "homophily.workers2_speedup": "x",
    "report.json_s": "s",
    "report.per_edge_csv_s": "s",
    "report.curve_csv_s": "s",
    "report.bytes_out": "bytes",
    "hsbm.generate_s": "s",
    "hsbm.generate_edges_per_s": "edges/s",
    "hsbm.analyze_s": "s",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MB,
    monotonic spawn time). RSS comes from the child's own rusage."""
    with open(log, "wb") as err:
        spawned = time.monotonic()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned


def _rel(path: Path) -> str:
    # children run in ROOT; relative paths keep the report's manifest (which
    # names the inputs) the same wherever the checkout is
    return str(path.relative_to(ROOT))


def cli_args(w: Workload, seed: int, fixture, out: dict[str, Path]) -> list[str]:
    if w.fixture is None:
        s = w.sweep
        return [
            "sweep", "--mode", "kp",
            "--k-grid", ",".join(map(str, s["k_grid"])),
            "--p-grid", ",".join(map(str, s["p_grid"])),
            "--nodes", str(s["nodes"]), "--attrs", str(s["attrs"]), "--edges", str(s["edges"]),
            "--samples", str(w.samples), "--seed", str(seed), "--out", _rel(out["sweep"]),
        ]
    argv = [
        "analyze",
        "--hyperedges", _rel(fixture.hyperedges),
        "--labels", _rel(fixture.labels),
        "--label-names", _rel(fixture.label_names),
        "--samples", str(w.samples),
        "--out", _rel(out["report"]),
    ]
    if "per_edge" in out:
        argv += ["--per-edge-out", _rel(out["per_edge"])]
    if "curve" in out:
        argv += ["--perplexity-curve", _rel(out["curve"])]
    return argv


def output_paths(w: Workload, directory: Path, prefix: str) -> dict[str, Path]:
    if w.fixture is None:
        return {"sweep": directory / f"{prefix}sweep.csv"}
    out = {"report": directory / f"{prefix}report.json"}
    if w.per_edge:
        out["per_edge"] = directory / f"{prefix}per-edge.csv"
    if w.curve:
        out["curve"] = directory / f"{prefix}curve.csv"
    return out


# -- one benchmark run ------------------------------------------------------------


class Bench:
    def __init__(self, name: str, w: Workload, seed: int, directory: Path):
        self.name, self.w, self.seed, self.dir = name, w, seed, directory
        self.schema = json.loads(SCHEMA.read_text())
        self.reference = None
        self.fixture = None
        self.setup_failures: list[str] = []
        self.fixture_digests: list[dict] = []

    def edges_total(self) -> int:
        if self.w.fixture is None:
            s = self.w.sweep
            return s["edges"] * len(s["k_grid"]) * len(s["p_grid"])
        return self.w.fixture.edges

    def check(self, out: dict[str, Path]) -> list[str]:
        """Check one invocation's outputs against this run's expectations."""
        if self.w.fixture is None:
            s = self.w.sweep
            failures, data = checks.check_sweep(out["sweep"], s["k_grid"], s["p_grid"], s["edges"],
                                           self.reference and self.reference.get("sweep"))
            data = {"sweep": data}
        else:
            failures, data = checks.check_analyze(out, self.schema, self.fixture.edges,
                                             self.fixture.sizes, self.w.planted, self.reference)
        if self.reference is None and not failures:
            self.reference = data
        return failures

    def invoke(self, prefix: str) -> tuple[list[str], float, float, dict[str, Path]]:
        out = output_paths(self.w, self.dir, prefix)
        for path in out.values():
            path.unlink(missing_ok=True)
        rc, wall, rss, _ = run_child(CLI + cli_args(self.w, self.seed, self.fixture, out),
                                     self.dir / "cli.log")
        failures = [f"exit code {rc}"] if rc != 0 else []
        return failures + self.check(out), wall, rss, out

    def setup_once(self) -> float:
        started = time.perf_counter()
        if self.w.fixture is not None:
            self.fixture = fixtures.write(self.w.fixture, self.seed, self.dir / "fixture")
            self.fixture_digests.append(self.fixture.sha256)
        failures, _, _, _ = self.invoke("warmup-")
        elapsed = time.perf_counter() - started
        self.setup_failures += [f"warm-up: {f}" for f in failures]
        return elapsed

    def setup(self, repeats: int) -> list[float]:
        times = [self.setup_once() for _ in range(repeats)]
        if any(d != self.fixture_digests[0] for d in self.fixture_digests):
            self.setup_failures.append("fixture bytes differ between set-ups of one seed")
        return times

    def measure(self, seconds: float, hard_stop: float) -> list[dict]:
        samples = []
        started = time.monotonic()
        while True:
            failures, wall, rss, out = self.invoke("")
            samples.append({"wall_s": wall, "peak_rss_mb": rss, "failures": failures,
                            "bytes_out": sum(p.stat().st_size for p in out.values() if p.exists())})
            now = time.monotonic()
            if now - started >= seconds and len(samples) >= MIN_ITERATIONS:
                return samples
            if now >= hard_stop:
                return samples

    def traced(self, wall_s: float, bytes_out: int) -> tuple[dict, list[str]]:
        out = output_paths(self.w, self.dir, "traced-")
        for path in out.values():
            path.unlink(missing_ok=True)
        plan = {"argv": cli_args(self.w, self.seed, self.fixture, out)}
        if self.w.fixture is not None:
            f = self.fixture
            plan["passes"] = {"hyperedges": str(f.hyperedges), "labels": str(f.labels),
                              "label_names": str(f.label_names), "samples": self.w.samples,
                              "per_edge": self.w.per_edge}
        plan_path, spans_path = self.dir / "trace-plan.json", self.dir / "spans.json"
        plan_path.write_text(json.dumps(plan))
        spans_path.unlink(missing_ok=True)
        rc, _, _, spawned = run_child(
            [sys.executable, str(Path(__file__).with_name("traced.py")), str(plan_path),
             str(spans_path)], self.dir / "traced.log")
        if rc != 0 or not spans_path.exists():
            return {name: 0.0 for name in PER_LAYER}, [f"traced run: exit code {rc}"]
        failures = [f"traced run: {f}" for f in self.check(out)]
        doc = json.loads(spans_path.read_text())
        input_bytes = self.fixture.input_bytes if self.fixture is not None else 0
        return layer_metrics(doc, spawned, wall_s, input_bytes, bytes_out,
                             self.w.fixture is not None), failures


# -- per-layer metrics from spans -----------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(doc: dict, spawned: float, wall_s: float, input_bytes: int,
                  bytes_out: int, analyze_kind: bool) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans (see README.md)."""
    spans = doc["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - _union_length([(c["start"], c["end"]) for c in children[s["id"]]])

    def run(name):
        return [s for s in spans if s["run"] == name]

    def total(group, name):
        return sum(dur(s) for s in group if s["name"] == name)

    def only(group, name):
        return [s for s in group if s["name"] == name]

    cli = run("cli")
    root = only(cli, "cli.main")[0]
    homo = [s for s in cli if s["name"].startswith("homophily.")]
    estimates = only(cli, "nullmodel.estimate_baseline")
    degrees = only(cli, "hypergraph.k_degrees")
    bulk = only(cli, "diversity.bulk_diversity")
    loads = only(cli, "hypergraph.load")
    generated = only(cli, "hsbm.generate")
    sweep_ids = {s["id"] for s in only(cli, "hsbm.sweep")}
    w1 = only(run("analyze-w1"), "homophily.analyze")
    w2 = only(run("analyze-w2"), "homophily.analyze")
    per_edge = only(run("analyze-per-edge"), "homophily.analyze")

    baseline_s = sum(dur(s) for s in estimates)
    load_s = sum(dur(s) for s in loads)
    bulk_s = sum(dur(s) for s in bulk)
    generate_s = sum(dur(s) for s in generated)
    populations = [s["attrs"]["population"] for s in degrees if "population" in s["attrs"]]
    json_s = total(cli, "report.json") + (total(cli, "report.write_text") if analyze_kind else 0.0)
    # the traced CLI pass's own wall time, spawn to the end of cli.main
    traced_wall = doc["cli_end"] - spawned
    return {
        "hypergraph.load_s": load_s,
        "hypergraph.load_mb_per_s": _ratio(input_bytes / 1e6, load_s),
        "hypergraph.k_degrees_s": sum(dur(s) for s in degrees),
        "hypergraph.edges_read": sum(s["attrs"].get("edges_read", 0) for s in loads),
        "hypergraph.edges_kept": sum(s["attrs"].get("edges_kept", 0) for s in loads),
        "nullmodel.baseline_s": baseline_s,
        "nullmodel.baseline_max_k_s": max((dur(s) for s in estimates), default=0.0),
        "nullmodel.draws_per_s": _ratio(sum(s["attrs"].get("samples", 0) for s in estimates),
                                        baseline_s),
        "nullmodel.population_sum": sum(populations),
        "nullmodel.population_max": max(populations, default=0),
        "nullmodel.sizes_insufficient": sum(1 for s in estimates if "error" in s["attrs"]),
        "diversity.bulk_s": bulk_s,
        "diversity.rows_per_s": _ratio(sum(s["attrs"].get("rows", 0) for s in bulk), bulk_s),
        "homophily.analyze_s": sum(dur(s) for s in homo),
        "homophily.self_s": sum(self_time(s) for s in homo),
        "homophily.per_edge_records_s": (self_time(per_edge[0]) - self_time(w1[0])
                                         if per_edge and w1 else 0.0),
        "homophily.workers2_speedup": _ratio(dur(w1[0]), dur(w2[0])) if w1 and w2 else 0.0,
        "report.json_s": json_s,
        "report.per_edge_csv_s": total(cli, "report.per_edge_csv"),
        "report.curve_csv_s": total(cli, "report.curve_csv"),
        "report.bytes_out": bytes_out,
        "hsbm.generate_s": generate_s,
        "hsbm.generate_edges_per_s": _ratio(sum(s["attrs"].get("edges", 0) for s in generated),
                                            generate_s),
        "hsbm.analyze_s": sum(dur(s) for s in homo if s["parent"] in sweep_ids),
        # taken within the traced process, so machine-speed drift between the
        # timed iterations and the traced run does not enter it
        "cli.other_s": traced_wall - sum(dur(s) for s in children[root["id"]]),
        "trace.overhead_s": traced_wall - wall_s,
    }


# -- context ------------------------------------------------------------------------


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def workload_info(bench: Bench) -> dict:
    info = {"name": bench.name, "seed": bench.seed, "samples": bench.w.samples,
            "edges": bench.edges_total()}
    f = bench.fixture
    if f is not None:
        info.update(nodes=f.nodes, sizes=f.sizes, population_sum=f.population_sum,
                    population_max=f.population_max, input_bytes=f.input_bytes,
                    fixture_sha256=f.sha256)
    else:
        s = bench.w.sweep
        info.update(nodes=s["nodes"], sizes=len(s["k_grid"]),
                    grid_points=len(s["k_grid"]) * len(s["p_grid"]), input_bytes=0)
    return info


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "hyperhomophily" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no hyperhomophily sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    directory = WORK / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, directory)

    setup_times = bench.setup(SETUP_REPEATS)
    samples = bench.measure(args.seconds, started + MEASURE_LIMIT_S)
    walls = [s["wall_s"] for s in samples]
    failed = sum(1 for s in samples if s["failures"])
    wall_s = statistics.median(walls)
    bytes_out = samples[-1]["bytes_out"]
    e2e = {
        "wall_s": wall_s,
        "edges_per_s": bench.edges_total() / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "success_rate": (len(samples) - failed) / len(samples),
        "setup_s": statistics.median(setup_times),
    }
    failures = list(bench.setup_failures)
    for i, s in enumerate(samples):
        failures += [f"iteration {i}: {f}" for f in s["failures"]]
    if args.trace:
        metrics, trace_failures = bench.traced(wall_s, bytes_out)
        failures += trace_failures
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    context = {"machine": machine(), "workload": workload_info(bench), "iterations": len(samples)}
    record = {"context": context, "end_to_end": e2e, "failures": failures,
              "setup_times_s": setup_times, "samples": samples}
    if args.trace:
        record["per_layer"] = metrics
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    print("context " + json.dumps(context, sort_keys=True))
    print(f"workload {args.workload}: {len(samples)} timed iterations, "
          f"wall_s median {wall_s:.4f} s (min {min(walls):.4f}, max {max(walls):.4f}), "
          f"error_rate {failed / len(samples):.4f} ({failed}/{len(samples)})")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    for failure in failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
