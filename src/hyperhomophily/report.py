"""Machine-readable report and table serialization for the CLI.

JSON reports embed the manifest that produced them and are byte-stable for
identical inputs and flags. CSV tables round-trip every numeric field at full
precision (17 significant digits) so downstream plotting reproduces values
exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import IO, Sequence

import numpy as np

from .homophily import EDGE_COLUMNS, EdgeScores, HomophilyReport, PerKRow
from .hsbm import GridPoint
from .hypergraph import IngestStats


def format_number(value) -> str:
    """Full-precision decimal rendering for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def report_to_dict(
    report: HomophilyReport, manifest: dict, ingest: IngestStats | None = None
) -> dict:
    """The report's fields (its rows as objects; the curve and per-edge
    scores left out), the manifest and the ingest counters."""
    payload = asdict(replace(report, curve=(), per_edge=None))
    del payload["curve"], payload["per_edge"]
    payload["manifest"] = manifest
    payload["ingest"] = ingest.to_dict() if ingest is not None else None
    return payload


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the cells of a per-edge row after edge_index (its "tail") with their
# leading comma and the line end: renders the same text as format_number
_PER_EDGE_TAIL = ",%d" + ",%.17g" * 7 + ",%s\n"
_PER_EDGE_CHUNK_ROWS = 16_384
# the last two digits of an edge index: str(i) for an index below 100, which
# has no leading digits, and "%02d" after the digits of index // 100
_LAST_TWO = np.array(
    [str(i) for i in range(100)] + ["%02d" % i for i in range(100)], dtype=object
)


def write_per_edge_csv(scores: EdgeScores, out: IO[str]) -> None:
    """Write one CSV row per hyperedge, formatting each distinct tail once.

    A row's tail depends only on its edge's size and label-count partition
    (each size has one baseline), so few distinct tails cover many rows.
    Tails are grouped by the bits of their cells, which keeps ``0.0`` and
    ``-0.0`` apart: they print differently. The ``edge_index`` text is the
    digits of ``index // 100``, formatted once per distinct value, followed
    by an entry of ``_LAST_TWO``; so a row is three shared strings and no
    cell is formatted per row.
    """
    write_table((), EDGE_COLUMNS, ("one row per scored or degenerate hyperedge",), out)
    keys = [
        scores.k,
        *(getattr(scores, name).view(np.uint64) for name in EDGE_COLUMNS[2:-1]),
        scores.degenerate,
    ]
    order = np.lexsort(keys)
    starts = np.zeros(len(scores), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(len(scores), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1

    firsts = order[starts]
    cells = [getattr(scores, name)[firsts].tolist() for name in EDGE_COLUMNS[1:-1]]
    cells.append(np.where(scores.degenerate[firsts], "true", "false").tolist())
    tails = np.array(list(map(_PER_EDGE_TAIL.__mod__, zip(*cells))), dtype=object)

    index = scores.edge_index
    high, high_of = np.unique(index // 100, return_inverse=True)
    heads = np.array([str(v) if v else "" for v in high.tolist()], dtype=object)
    rows = np.empty((len(scores), 3), dtype=object)
    rows[:, 0] = heads[high_of]
    rows[:, 1] = _LAST_TWO[index % 100 + 100 * (index >= 100)]
    rows[:, 2] = tails[group]
    for start in range(0, len(scores), _PER_EDGE_CHUNK_ROWS):
        out.write("".join(rows[start : start + _PER_EDGE_CHUNK_ROWS].ravel().tolist()))


def write_table(
    rows: Sequence, columns: Sequence[str], comments: Sequence[str], out: IO[str]
) -> None:
    """Write ``#`` comment lines, a header, and the named fields of each row."""
    for line in comments:
        out.write(f"# {line}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(format_number(getattr(row, c)) for c in columns))
        out.write("\n")


def write_curve_csv(rows: Sequence[PerKRow], out: IO[str]) -> None:
    comments = ("per hyperedge size: mean observed diversity vs. null baseline",)
    columns = ("k", "mean_observed", "baseline_mean", "baseline_std_error", "edge_count")
    write_table(rows, columns, comments, out)


def write_grid_csv(points: Sequence[GridPoint], out: IO[str]) -> None:
    """The sweep table, one row per (k, p) point; a sweep over p alone is a one-size grid."""
    comments = (
        "homophily index over the (edge size k, mixing level p) grid",
        "phi_std_error is the standard error of the per-edge score mean",
    )
    columns = ("k", "p", "phi", "phi_std_error", "edges_scored")
    write_table(points, columns, comments, out)
