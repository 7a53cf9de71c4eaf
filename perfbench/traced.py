"""Traced run: one child process that runs the pipeline with a span per call.

Usage: python3 perfbench/traced.py PLAN.json SPANS.json

PLAN.json (written by run.py) holds the CLI argv of the workload and, for
analyze workloads, the inputs of the comparison passes. The run:

1. "cli" run: hooks each cross-module call the CLI and the library make
   (ingest, per-size degrees, baseline, observed diversity, scoring,
   generator, serialization), then runs the CLI entry point in-process with
   the same argv as the timed iterations, so it does the same work.
2. "analyze-w1" / "analyze-w2" runs: ``analyze`` at workers 1 and 2.
3. "analyze-per-edge" run: ``analyze`` with ``emit_per_edge=True``.

Spans (name, start, end, parent, run id, attributes) stay in memory and are
written to SPANS.json once at the end, with the monotonic clock reading at
the end of the "cli" run so the parent can compare against its spawn time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperhomophily import cli, homophily, hsbm, nullmodel  # noqa: E402
from hyperhomophily import report as rpt  # noqa: E402
from hyperhomophily.exceptions import InsufficientPopulationError  # noqa: E402
from hyperhomophily.hypergraph import IngestOptions, load_hypergraph  # noqa: E402


class Tracer:
    """In-memory span recorder; the parent of a span is the innermost span
    open in its thread, or in the thread that started the run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self._local = threading.local()
        self._run_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        stack = self._stack() or self._run_stack
        with self._lock:
            span = {"id": len(self.spans), "name": name, "run": self.run,
                    "parent": stack[-1] if stack else None, "attrs": {}}
            self.spans.append(span)
        own = self._stack()
        own.append(span["id"])
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except InsufficientPopulationError:
            span["attrs"]["error"] = "insufficient_population"
            raise
        finally:
            span["end"] = time.monotonic()
            own.pop()
        if attrs is not None:
            span["attrs"].update(attrs(args, kwargs, result))
        return result

    def start_run(self, run: str):
        self.run = run
        self._run_stack = self._stack()

    def hook(self, module, attr: str, name: str, attrs=None) -> None:
        """Wrap ``module.attr`` in a span, if the module has that name."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        setattr(module, attr, wrapper)


def _ingest_attrs(args, kwargs, h):
    stats = h.ingest.to_dict() if h.ingest is not None else {}
    dropped = sum(stats.get(key, 0) for key in ("excluded_by_size", "excluded_unlabeled",
                                               "duplicate_edges_collapsed"))
    return {"edges_kept": h.num_edges, "edges_read": h.num_edges + dropped}


def _baseline_attrs(args, kwargs, est):
    return {"k": est.k, "samples": est.samples}


def _degree_attrs(args, kwargs, index):
    return {"k": index.k, "population": int((index.degrees > 0).sum())}


def _rows_attrs(args, kwargs, result):
    return {"rows": int(len(result[0]))}


def _edges_attrs(args, kwargs, h):
    return {"edges": h.num_edges}


def install_hooks(tracer: Tracer) -> None:
    tracer.hook(cli, "load_hypergraph", "hypergraph.load", _ingest_attrs)
    for attr in ("_buckets", "_report_from_buckets", "_curve_from_buckets"):
        tracer.hook(cli, attr, f"homophily.{attr.lstrip('_')}")
    for attr in ("sweep_phi_vs_k", "sweep_phi_vs_p"):
        tracer.hook(cli, attr, "hsbm.sweep")
    tracer.hook(cli, "_write_text", "report.write_text")
    tracer.hook(hsbm, "generate_hsbm", "hsbm.generate", _edges_attrs)
    tracer.hook(hsbm, "analyze", "homophily.analyze")
    tracer.hook(homophily, "estimate_baseline", "nullmodel.estimate_baseline", _baseline_attrs)
    tracer.hook(homophily, "bulk_diversity", "diversity.bulk_diversity", _rows_attrs)
    tracer.hook(nullmodel, "k_degrees", "hypergraph.k_degrees", _degree_attrs)
    for attr in ("report_to_dict", "dump_json"):
        tracer.hook(rpt, attr, "report.json")
    tracer.hook(rpt, "write_per_edge_csv", "report.per_edge_csv")
    tracer.hook(rpt, "write_curve_csv", "report.curve_csv")
    for attr in ("write_grid_csv", "write_sweep_csv"):
        tracer.hook(rpt, attr, "report.sweep_csv")


def main(plan_path: str, spans_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer = Tracer()
    install_hooks(tracer)

    tracer.start_run("cli")
    rc = tracer.call("cli.main", cli.main, (plan["argv"],), {})
    cli_end = time.monotonic()

    passes = plan.get("passes")
    if passes and rc == 0:
        tracer.start_run("load")
        h = tracer.call("hypergraph.load", load_hypergraph,
                        (passes["hyperedges"], passes["labels"], passes["label_names"],
                         IngestOptions(min_size=2)), {}, _ingest_attrs)
        cfg = nullmodel.SamplerConfig(samples=passes["samples"])
        runs = [("analyze-w1", 1, False), ("analyze-w2", 2, False)]
        if passes["per_edge"]:
            runs.append(("analyze-per-edge", 1, True))
        for run, workers, per_edge in runs:
            tracer.start_run(run)
            tracer.call("homophily.analyze", homophily.analyze, (h, cfg),
                        {"emit_per_edge": per_edge, "workers": workers})

    Path(spans_path).write_text(json.dumps({"rc": rc, "cli_end": cli_end, "spans": tracer.spans}))
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
