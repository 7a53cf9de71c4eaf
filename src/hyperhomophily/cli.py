"""Command-line interface: analyze, generate, sweep.

Exit codes: 0 success, 1 I/O failure, 2 parse/validation error, 3 empty
analysis (nothing scorable). Log verbosity comes from the HYPERHOMOPHILY_LOG
environment variable (DEBUG/INFO/WARNING/ERROR/CRITICAL; default INFO).
"""

from __future__ import annotations

import argparse
import io
import logging
import math
import os
import sys
import time
from pathlib import Path

from .exceptions import EmptyAnalysisError, ParseError
from .homophily import _buckets, _curve_from_buckets, _report_from_buckets
from .hsbm import HsbmConfig, generate_hsbm, sweep_phi_vs_k, sweep_phi_vs_p
from .hypergraph import IngestOptions, load_hypergraph, write_hypergraph
from .nullmodel import SamplerConfig
from . import report as rpt

log = logging.getLogger("hyperhomophily")

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_EMPTY = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
MAX_GRID_POINTS = 10_000  # each point of a sweep generates and analyzes a graph


def _grid_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"grid values must be finite, got {token.strip()!r}")
    return value


def _parse_grid(spec: str, integer: bool = False) -> list:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:stop:step, got {spec!r}")
        start, stop, step = (_grid_number(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        span = (stop - start) / step  # inf when the difference overflows
        if not span < MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        # one candidate past floor(span): the tolerance below may admit it
        candidates = (round(start + i * step, 12) for i in range(math.floor(span) + 2))
        values = [v for v in candidates if v <= stop + step * 1e-9]
        if not values:
            raise ValueError(f"grid {spec!r} contains no points")
    else:
        values = [_grid_number(tok) for tok in spec.split(",") if tok.strip() != ""]
        if not values:
            raise ValueError(f"grid {spec!r} contains no points")
    if integer:
        ints = [int(v) for v in values]
        if any(i != v for i, v in zip(ints, values)):
            raise ValueError(f"grid {spec!r} must contain integers")
        return ints
    return values


def _write_text(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        Path(path).write_text(content, encoding="utf-8", newline="\n")


def _sampler_options(args) -> dict:
    # workers is an execution detail: results are identical for any value,
    # so it stays out of the manifest (like wall-clock timing)
    return {
        "samples": args.samples,
        "seed": args.seed,
        "diversity_order": args.order,
        "epsilon": args.epsilon,
        "total_degree": args.total_degree,
    }


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    opts = IngestOptions(
        min_size=args.min_k,
        max_size=args.max_k,
        collapse_duplicate_edges=args.collapse_duplicates,
    )
    h = load_hypergraph(args.hyperedges, args.labels, args.label_names, opts)
    cfg = SamplerConfig(
        samples=args.samples,
        seed=args.seed,
        diversity_order=args.order,
        use_total_degree=args.total_degree,
    )
    buckets, size_one = _buckets(h, cfg, args.epsilon, args.workers)
    report = _report_from_buckets(
        h, buckets, size_one, args.epsilon, emit_per_edge=args.per_edge_out is not None
    )

    manifest = rpt.RunManifest(
        command="analyze",
        inputs={
            "hyperedges": args.hyperedges,
            "labels": args.labels,
            "label_names": args.label_names,
        },
        options={
            **_sampler_options(args),
            "min_k": args.min_k,
            "max_k": args.max_k,
            "collapse_duplicates": args.collapse_duplicates,
        },
    )
    manifest.duration_seconds = time.perf_counter() - started
    _write_text(args.out, rpt.dump_json(rpt.report_to_dict(report, manifest, h.ingest)))

    if args.per_edge_out is not None:
        with open(args.per_edge_out, "w", encoding="utf-8", newline="\n") as f:
            rpt.write_per_edge_csv(report.per_edge, f)
    if args.perplexity_curve is not None:
        curve = _curve_from_buckets(h, cfg.diversity_order, buckets)
        with open(args.perplexity_curve, "w", encoding="utf-8", newline="\n") as f:
            rpt.write_curve_csv(curve, f)

    log.info(
        "analyze: %d/%d edges scored, global phi %.6f (%.1fs)",
        report.edges_scored,
        report.edge_total,
        report.global_phi,
        manifest.duration_seconds,
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = HsbmConfig(
        num_nodes=args.nodes,
        num_attributes=args.attrs,
        k=args.k,
        num_edges=args.edges,
        p=args.p,
        seed=args.seed,
    )
    h = generate_hsbm(cfg)
    prefix = args.out_prefix
    paths = {
        "hyperedges": f"{prefix}-hyperedges.txt",
        "labels": f"{prefix}-node-labels.txt",
        "label_names": f"{prefix}-label-names.txt",
    }
    with open(paths["hyperedges"], "w", encoding="utf-8", newline="\n") as ef, open(
        paths["labels"], "w", encoding="utf-8", newline="\n"
    ) as lf, open(paths["label_names"], "w", encoding="utf-8", newline="\n") as nf:
        write_hypergraph(h, ef, lf, nf)

    manifest = rpt.RunManifest(
        command="generate",
        inputs={},
        options={
            "nodes": args.nodes,
            "attrs": args.attrs,
            "k": args.k,
            "edges": args.edges,
            "p": args.p,
            "seed": args.seed,
        },
    )
    payload = manifest.to_payload()
    payload["outputs"] = paths
    Path(f"{prefix}-manifest.json").write_text(
        rpt.dump_json(payload), encoding="utf-8", newline="\n"
    )
    log.info("generate: wrote %d edges to %s-*", h.num_edges, prefix)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    sampler = SamplerConfig(
        samples=args.samples, seed=args.seed, diversity_order=args.order
    )
    if args.mode == "kp":
        if args.k_grid is None:
            raise ValueError("--k-grid is required for mode kp")
        k_grid = _parse_grid(args.k_grid, integer=True)
    # --k sizes only mode p; in mode kp the base config takes a size of the grid
    base = HsbmConfig(
        num_nodes=args.nodes,
        num_attributes=args.attrs,
        k=args.k if args.mode == "p" else k_grid[0],
        num_edges=args.edges,
        p=0.0,
        seed=args.seed,
    )
    p_grid = _parse_grid(args.p_grid)
    if any(not -1.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("every p in the grid must lie in [-1, 1]")

    buf = io.StringIO()
    if args.mode == "p":
        points = sweep_phi_vs_p(base, p_grid, sampler)
        rpt.write_sweep_csv(points, buf)
    else:
        points = sweep_phi_vs_k(base, k_grid, p_grid, sampler)
        rpt.write_grid_csv(points, buf)
    _write_text(args.out, buf.getvalue())
    log.info("sweep: %d points (%.1fs)", len(points), time.perf_counter() - started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhomophily",
        description="Homophily measurement for attributed hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampler_flags(p):
        p.add_argument("--samples", type=int, default=10_000, help="Monte Carlo samples per size")
        p.add_argument("--seed", type=int, default=42, help="master RNG seed")
        p.add_argument("--order", type=float, default=1.0, help="diversity order q")

    pa = sub.add_parser("analyze", help="score a hypergraph from benchmark text files")
    pa.add_argument("--hyperedges", required=True, help="hyperedges file path")
    pa.add_argument("--labels", required=True, help="node labels file path")
    pa.add_argument("--label-names", default=None, help="label names file path")
    add_sampler_flags(pa)
    pa.add_argument("--epsilon", type=float, default=1e-9, help="degenerate-baseline threshold")
    pa.add_argument("--min-k", type=int, default=2, help="drop edges smaller than this at ingest")
    pa.add_argument("--max-k", type=int, default=None, help="drop edges larger than this at ingest")
    pa.add_argument("--collapse-duplicates", action="store_true", help="collapse repeated identical edges")
    pa.add_argument("--total-degree", action="store_true", help="weight the null model by total degree instead of per-size degree")
    pa.add_argument("--workers", type=int, default=1, help="parallel per-size workers (results are identical for any value)")
    pa.add_argument("--per-edge-out", default=None, help="write per-edge scores CSV here")
    pa.add_argument("--perplexity-curve", default=None, help="write observed-vs-baseline CSV here")
    pa.add_argument("--out", default=None, help="JSON report path (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate a block-model hypergraph")
    pg.add_argument("--nodes", type=int, required=True)
    pg.add_argument("--attrs", type=int, required=True)
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--edges", type=int, required=True)
    pg.add_argument("--p", type=float, required=True, help="mixing level in [-1, 1]")
    pg.add_argument("--seed", type=int, default=42)
    pg.add_argument("--out-prefix", required=True, help="output path prefix")
    pg.set_defaults(func=cmd_generate)

    ps = sub.add_parser("sweep", help="generate-and-analyze over a parameter grid")
    ps.add_argument("--mode", choices=["p", "kp"], required=True)
    ps.add_argument("--p-grid", required=True, help="'start:stop:step' or comma list")
    ps.add_argument("--k-grid", default=None, help="'start:stop:step' or comma list (mode kp)")
    ps.add_argument("--nodes", type=int, default=1000)
    ps.add_argument("--attrs", type=int, default=10)
    ps.add_argument("--k", type=int, default=10, help="edge size for mode p")
    ps.add_argument("--edges", type=int, default=5000)
    add_sampler_flags(ps)
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=cmd_sweep)

    return parser


def _join_grid_values(argv: list[str]) -> list[str]:
    """Let grid specs start with a minus sign (argparse would read them as
    flags): '--p-grid -1:1:0.25' becomes '--p-grid=-1:1:0.25'."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--p-grid", "--k-grid") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-"):
                out.append(f"{tok}={nxt}")
                skip = True
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    level = os.environ.get("HYPERHOMOPHILY_LOG", "INFO").upper()
    if level not in LOG_LEVELS:
        print(
            f"invalid configuration: HYPERHOMOPHILY_LOG={level!r}, "
            f"expected one of {', '.join(LOG_LEVELS)}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    logging.basicConfig(
        level=level,
        format="%(asctime)s | %(levelname)s | %(name)s | %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(_join_grid_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        return args.func(args)
    except EmptyAnalysisError as exc:
        log.error("nothing to analyze: %s", exc)
        return EXIT_EMPTY
    except ParseError as exc:
        log.error("invalid input: %s", exc)
        return EXIT_INVALID
    except ValueError as exc:
        log.error("invalid configuration: %s", exc)
        return EXIT_INVALID
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
