"""Command-line interface: analyze, generate, sweep.

Exit codes: 0 success, 1 I/O failure, 2 parse/validation error, 3 empty
analysis (nothing scorable). Log verbosity comes from the HYPERHOMOPHILY_LOG
environment variable (DEBUG/INFO/WARNING/ERROR/CRITICAL; default INFO, also
when it is set but empty).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import math
import os
import sys
import time

from .exceptions import EmptyAnalysisError, ParseError
# perfbench/traced.py times the CLI's pipeline by hooking this name on this module
from .homophily import analyze as _report_from_buckets
from .hsbm import HsbmConfig, generate_hsbm, sweep_phi_vs_k
from .hypergraph import IngestOptions, load_hypergraph, write_hypergraph
from .nullmodel import SamplerConfig
from . import __version__
from . import report as rpt

log = logging.getLogger("hyperhomophily")

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_EMPTY = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
MAX_GRID_POINTS = 10_000  # each point of a sweep generates and analyzes a graph
INPUT_FLAGS = ("hyperedges", "labels", "label_names")  # a manifest's inputs
OUTPUT_FLAGS = ("out", "per_edge_out", "perplexity_curve", "out_prefix")  # left out of it


def _grid_number(token: str):
    """The exact ``Fraction`` a grid token's decimal text names, finite as a
    float; 0 where a float reads 0, so no tiny exponent builds a huge value."""
    from decimal import Decimal  # imported here: only sweep reads grids, and these
    from fractions import Fraction  # two imports would cost every command 2-5 ms
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"grid values must be finite, got {token.strip()!r}")
    return Fraction(Decimal(token)) if value else Fraction(0)


def _parse_grid(spec: str, integer: bool = False) -> list:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list. A range
    holds the exact start + i*step for i = 0 .. floor((stop - start)/step)."""
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
        count = math.floor((stop - start) / step) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        values = [start + i * step for i in range(count)]
    else:
        values = [_grid_number(tok) for tok in spec.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"grid {spec!r} contains no points")
    if integer:
        if any(v.denominator != 1 for v in values):
            raise ValueError(f"grid {spec!r} must contain integers")
        return [int(v) for v in values]
    return [float(v) for v in values]


def _output(path: str | None):
    """The one opener of every output: a UTF-8 text file with LF line ends
    at ``path``, or standard output (left open) when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# perfbench/traced.py times analyze's JSON report by hooking this name
def _write_text(path: str | None, content: str) -> None:
    with _output(path) as out:
        out.write(content)


def _manifest(args) -> dict:
    """What produced an output: the tool and version, the command, its input
    files under ``inputs`` and every other flag but its output paths under
    ``options``. It holds no timing, so identical flags give identical bytes."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", *OUTPUT_FLAGS)}
    inputs = {k: options.pop(k) for k in INPUT_FLAGS if k in options}
    return {"tool": "hyperhomophily", "version": __version__, "command": args.command,
            "inputs": inputs, "options": options}


def _check_distinct_outputs(args, outputs: tuple[str, ...]) -> None:
    """Refuse an output that names the same file as another path flag, so no
    output replaces an input or another output. An existing file is known by
    its device and inode (a hard link too), any other path by its resolved
    form; a path that exists and is not a regular file (``/dev/null``) may
    be named more than once."""
    seen = {}
    for flag in (*INPUT_FLAGS, *outputs):  # inputs first: each clash is met at an output
        path = getattr(args, flag)
        if path is None or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        stat = os.stat(path) if os.path.exists(path) else None
        key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
        if key in seen and flag in outputs:
            first, second = (f"--{dest.replace('_', '-')}" for dest in (seen[key], flag))
            raise ValueError(f"{second} names the same file as {first}: {path}")
        seen[key] = flag


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    _check_distinct_outputs(args, ("out", "per_edge_out", "perplexity_curve"))
    opts = IngestOptions(
        min_size=args.min_k,
        max_size=args.max_k,
        collapse_duplicate_edges=args.collapse_duplicates,
    )
    h = load_hypergraph(args.hyperedges, args.labels, args.label_names, opts)
    cfg = SamplerConfig(samples=args.samples, seed=args.seed, diversity_order=args.diversity_order)
    report = _report_from_buckets(h, cfg, emit_per_edge=args.per_edge_out is not None)

    manifest = _manifest(args)
    duration = time.perf_counter() - started  # logged, never in the report
    _write_text(args.out, rpt.dump_json(rpt.report_to_dict(report, manifest, h.ingest)))

    if args.per_edge_out is not None:
        with _output(args.per_edge_out) as f:
            rpt.write_per_edge_csv(report.per_edge, f)
    if args.perplexity_curve is not None:
        with _output(args.perplexity_curve) as f:
            rpt.write_curve_csv(report.curve, f)

    log.info(
        "analyze: %d/%d edges scored, global phi %.6f (%.1fs)",
        report.edges_scored,
        report.edge_total,
        report.global_phi,
        duration,
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
    with _output(paths["hyperedges"]) as ef, _output(paths["labels"]) as lf, _output(
        paths["label_names"]
    ) as nf:
        write_hypergraph(h, ef, lf, nf)
    _write_text(f"{prefix}-manifest.json", rpt.dump_json({**_manifest(args), "outputs": paths}))
    log.info("generate: wrote %d edges to %s-*", h.num_edges, prefix)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    sampler = SamplerConfig(samples=args.samples, seed=args.seed, diversity_order=args.diversity_order)
    k_grid = _parse_grid(args.k_grid, integer=True)
    base = HsbmConfig(
        num_nodes=args.nodes,
        num_attributes=args.attrs,
        k=k_grid[0],
        num_edges=args.edges,
        seed=args.seed,
    )
    p_grid = _parse_grid(args.p_grid)
    if len(k_grid) * len(p_grid) > MAX_GRID_POINTS:
        raise ValueError(f"the (k, p) grid has more than {MAX_GRID_POINTS} points")

    points = sweep_phi_vs_k(base, k_grid, p_grid, sampler)
    manifest = json.dumps(_manifest(args), sort_keys=True, separators=(",", ":"))
    with _output(args.out) as out:
        out.write(f"# manifest: {manifest}\n")
        rpt.write_grid_csv(points, out)
    log.info("sweep: %d points (%.1fs)", len(points), time.perf_counter() - started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhomophily",
        description="Homophily measurement for attributed hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampler_flags(p):
        p.add_argument("--samples", type=int, default=SamplerConfig.samples, help="Monte Carlo samples per size")
        p.add_argument("--seed", type=int, default=SamplerConfig.seed, help="master RNG seed")
        p.add_argument(
            "--order", type=float, default=SamplerConfig.diversity_order,
            dest="diversity_order", metavar="ORDER", help="diversity order q",
        )

    def add_model_flags(p):
        p.add_argument("--nodes", type=int, default=HsbmConfig.num_nodes, help="node count")
        p.add_argument("--attrs", type=int, default=HsbmConfig.num_attributes, help="attribute count")
        p.add_argument("--edges", type=int, default=HsbmConfig.num_edges, help="edges per graph")

    # flags are spelled in full: no prefix stands for a flag (sweep --k is no --k-grid)
    pa = sub.add_parser("analyze", help="score a hypergraph from benchmark text files", allow_abbrev=False)
    pa.add_argument("--hyperedges", required=True, help="hyperedges file path")
    pa.add_argument("--labels", required=True, help="node labels file path")
    pa.add_argument("--label-names", default=None, help="label names file path")
    add_sampler_flags(pa)
    pa.add_argument("--min-k", type=int, default=None, help="drop edges smaller than this at ingest"
                    " (default: none; analyze reports size-1 edges as size_1)")
    pa.add_argument("--max-k", type=int, default=None, help="drop edges larger than this at ingest")
    pa.add_argument("--collapse-duplicates", action="store_true", help="collapse repeated identical edges")
    pa.add_argument("--per-edge-out", default=None, help="write per-edge scores CSV here")
    pa.add_argument("--perplexity-curve", default=None, help="write observed-vs-baseline CSV here")
    pa.add_argument("--out", default=None, help="JSON report path (default stdout)")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate a block-model hypergraph", allow_abbrev=False)
    add_model_flags(pg)
    pg.add_argument("--k", type=int, default=HsbmConfig.k, help="edge size")
    pg.add_argument("--p", type=float, default=HsbmConfig.p, help="mixing level in [-1, 1]")
    pg.add_argument("--seed", type=int, default=HsbmConfig.seed)
    pg.add_argument("--out-prefix", required=True, help="output path prefix")
    pg.set_defaults(func=cmd_generate)

    ps = sub.add_parser("sweep", help="generate-and-analyze over a parameter grid", allow_abbrev=False)
    # one choice: every sweep is the (k, p) grid; perfbench/run.py passes --mode kp
    ps.add_argument("--mode", choices=["kp"], default="kp")
    ps.add_argument("--p-grid", required=True, help="'start:stop:step' or comma list")
    ps.add_argument("--k-grid", default=str(HsbmConfig.k), help="edge sizes, as --p-grid")
    add_model_flags(ps)
    add_sampler_flags(ps)
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=cmd_sweep)

    return parser


def _join_grid_values(argv: list[str]) -> list[str]:
    """Let grid specs start with a minus sign (argparse would read them as
    flags): '--p-grid -1:1:0.25' becomes '--p-grid=-1:1:0.25'."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--p-grid", "--k-grid") and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    level = (os.environ.get("HYPERHOMOPHILY_LOG") or "INFO").upper()  # empty is unset
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


def run() -> None:
    """Process entry: :func:`main`, then exit without the collector's walk.

    Freezing every live object before the exit keeps interpreter shutdown
    from traversing them all (numpy's among them); the outputs are already
    written and are flushed as usual.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
