"""Machine-readable report and table serialization for the CLI.

JSON reports embed the manifest that produced them and are byte-stable for
identical inputs and flags. Every CSV table goes through :func:`write_csv`,
and a cell's text follows from its column's dtype: integers as digits,
floats to 17 significant digits (``%.17g``: every float round-trips, so
downstream plotting reproduces values exactly), booleans as ``true`` or
``false``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import IO, Mapping, Sequence

import numpy as np

from .homophily import EDGE_COLUMNS, EdgeScores, HomophilyReport, PerKRow
from .hsbm import GridPoint
from .hypergraph import IngestStats


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


# a cell's format by its column's dtype kind; a bool cell is "true" or "false"
_CELL = {"i": "%d", "u": "%d", "f": "%.17g", "b": "%s"}
_CHUNK_ROWS = 16_384
# the last two digits of a first cell: str(i) for a value below 100, which
# has no leading digits, and "%02d" after the digits of value // 100
_LAST_TWO = np.array(
    [str(i) for i in range(100)] + ["%02d" % i for i in range(100)], dtype=object
)


def write_csv(columns: Mapping[str, np.ndarray], comments: Sequence[str], out: IO[str]) -> None:
    """Write ``#`` comment lines, a header and the rows of ``columns``, an
    ordered mapping of equal-length 1-d arrays whose first holds integers >= 0.

    A first cell is the digits of ``value // 100``, formatted once per
    distinct value, and an entry of ``_LAST_TWO``. The other cells of a row
    (its tail) are grouped by their bits, which keeps ``0.0`` and ``-0.0``
    apart (they print differently), and each distinct tail is formatted
    once: a row is three shared strings, and no cell is formatted per row.
    """
    (first, index), *tail = columns.items()
    if index.size and (index.dtype.kind not in "iu" or index.min() < 0):
        raise ValueError(f"the first column, {first}, must hold integers >= 0")
    for name, column in tail:
        if column.size and column.dtype.kind not in _CELL:
            raise ValueError(f"column {name} holds {column.dtype} values, not numbers or booleans")
    for line in comments:
        out.write(f"# {line}\n")
    out.write(",".join(columns) + "\n")
    if not index.size:
        return
    keys = [col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col for _, col in tail]
    order = np.lexsort(keys)
    starts = np.zeros(index.size, dtype=bool)
    starts[0] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(index.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1

    firsts = order[starts]
    cells = [
        (np.where(col[firsts], "true", "false") if col.dtype.kind == "b" else col[firsts]).tolist()
        for _, col in tail
    ]
    row_tail = "".join("," + _CELL[col.dtype.kind] for _, col in tail) + "\n"
    tails = np.array(list(map(row_tail.__mod__, zip(*cells))), dtype=object)

    high, high_of = np.unique(index // 100, return_inverse=True)
    heads = np.array([str(v) if v else "" for v in high.tolist()], dtype=object)
    last = index % 100
    last[index >= 100] += 100
    rows = np.empty((index.size, 3), dtype=object)
    rows[:, 0] = heads[high_of]
    rows[:, 1] = _LAST_TWO[last]
    rows[:, 2] = tails[group]
    for start in range(0, index.size, _CHUNK_ROWS):
        out.write("".join(rows[start : start + _CHUNK_ROWS].ravel().tolist()))


def _row_columns(rows: Sequence, names: Sequence[str]) -> dict[str, np.ndarray]:
    return {name: np.array([getattr(row, name) for row in rows]) for name in names}


def write_per_edge_csv(scores: EdgeScores, out: IO[str]) -> None:
    """One row per hyperedge; its tail depends only on the edge's size and label counts."""
    columns = {name: getattr(scores, name) for name in EDGE_COLUMNS}
    write_csv(columns, ("one row per scored or degenerate hyperedge",), out)


def write_curve_csv(rows: Sequence[PerKRow], out: IO[str]) -> None:
    comments = ("per hyperedge size: mean observed diversity vs. null baseline",)
    columns = ("k", "mean_observed", "baseline_mean", "baseline_std_error", "edge_count")
    write_csv(_row_columns(rows, columns), comments, out)


def write_grid_csv(points: Sequence[GridPoint], out: IO[str]) -> None:
    """The sweep table, one row per (k, p) point; a sweep over p alone is a one-size grid."""
    comments = (
        "homophily index over the (edge size k, mixing level p) grid",
        "phi_std_error is the standard error of the per-edge score mean",
    )
    columns = ("k", "p", "phi", "phi_std_error", "edges_scored")
    write_csv(_row_columns(points, columns), comments, out)
