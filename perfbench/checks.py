"""Output checks for one CLI invocation.

Every check returns a list of failure messages; an empty list means the
output is correct. Malformed output (a missing file, bad JSON, a short CSV)
is reported as a failure, never raised, so one bad iteration counts toward
the error rate instead of stopping the run.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import jsonschema

PHI_TOLERANCE = 0.03  # |global_phi - planted share| on the analyze fixtures
SWEEP_ZERO_TOLERANCE = 0.05  # |phi| at p = 0 (criterion 4)
SWEEP_MONOTONE_SLACK = 0.05  # largest allowed decrease of phi in p (criterion 5)


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def check_same(name: str, data: bytes, reference: bytes | None) -> list[str]:
    if reference is not None and data != reference:
        return [f"{name} bytes differ from the first invocation of this run"]
    return []


def check_analyze(
    outputs: dict[str, Path],
    schema: dict,
    edges: int,
    sizes: int,
    planted: float,
    reference: dict[str, bytes] | None,
) -> tuple[list[str], dict[str, bytes]]:
    """Check an ``analyze`` run's report and CSVs.

    ``outputs`` maps "report" and, when requested, "per_edge" and "curve" to
    the files written. Returns the failures and the bytes read, which the
    caller keeps as the reference for later invocations.
    """
    failures: list[str] = []
    data = {key: _read(path) for key, path in outputs.items()}
    for key, blob in data.items():
        if blob is None:
            failures.append(f"{key} output missing")
        else:
            failures += check_same(key, blob, (reference or {}).get(key))
    if data["report"] is None:
        return failures, data

    try:
        report = json.loads(data["report"])
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        failures.append(f"report invalid: {str(exc).splitlines()[0]}")
        return failures, data

    if report["edges_scored"] + report["edges_excluded"] != report["edge_total"]:
        failures.append("edges_scored + edges_excluded != edge_total")
    if report["edge_total"] != edges:
        failures.append(f"edge_total {report['edge_total']} != fixture edges {edges}")
    if abs(report["global_phi"] - planted) > PHI_TOLERANCE:
        failures.append(
            f"global_phi {report['global_phi']:.4f} not within {PHI_TOLERANCE} of planted {planted}"
        )

    insufficient = sum(
        e["count"] for e in report["exclusions"] if e["reason"] == "insufficient_population"
    )
    expected_rows = {"per_edge": edges - insufficient, "curve": sizes}
    for key, want in expected_rows.items():
        if data.get(key) is None:
            continue
        try:
            rows = _csv_rows(data[key])
        except (UnicodeDecodeError, csv.Error) as exc:
            failures.append(f"{key} csv unreadable: {exc}")
            continue
        if len(rows) - 1 != want:
            failures.append(f"{key} csv has {len(rows) - 1} rows, expected {want}")
    return failures, data


def check_sweep(
    path: Path,
    k_grid: list[int],
    p_grid: list[float],
    edges: int,
    reference: bytes | None,
) -> tuple[list[str], bytes | None]:
    """Check a ``sweep --mode kp`` grid CSV against criteria 4 and 5."""
    data = _read(path)
    if data is None:
        return ["sweep csv missing"], None
    failures = check_same("sweep csv", data, reference)
    try:
        rows = _csv_rows(data)
        header, body = rows[0], rows[1:]
        table = [dict(zip(header, row)) for row in body]
        points = [(int(r["k"]), float(r["p"]), float(r["phi"]), int(r["edges_scored"])) for r in table]
    except (UnicodeDecodeError, csv.Error, IndexError, KeyError, ValueError) as exc:
        return failures + [f"sweep csv unreadable: {exc!r}"], data

    expected = [(k, p) for k in k_grid for p in p_grid]
    if [(k, p) for k, p, _, _ in points] != expected:
        return failures + ["sweep csv grid does not match the requested grid"], data
    for k in k_grid:
        curve = [(p, phi, scored) for kk, p, phi, scored in points if kk == k]
        for p, phi, scored in curve:
            if scored != edges:
                failures.append(f"k={k} p={p}: {scored} edges scored, expected {edges}")
            if p == 1.0 and phi != 1.0:
                failures.append(f"k={k}: phi at p=1 is {phi!r}, expected exactly 1")
            if p == 0.0 and abs(phi) > SWEEP_ZERO_TOLERANCE:
                failures.append(f"k={k}: phi at p=0 is {phi:.4f}, outside +-{SWEEP_ZERO_TOLERANCE}")
        for (p0, phi0, _), (p1, phi1, _) in zip(curve, curve[1:]):
            if phi1 < phi0 - SWEEP_MONOTONE_SLACK:
                failures.append(f"k={k}: phi falls from {phi0:.4f} at p={p0} to {phi1:.4f} at p={p1}")
    return failures, data
