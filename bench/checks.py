"""Output checks for benchmark ops.

An op that exited 0 must have written exactly the files its command writes,
and each file must pass the seed-independent invariants below.  When the op
has a recorded golden (same command, flags and config as an op of a
workload's default seed), every file must also match its sha256 digest byte
for byte.

The checks read the files with the standard library only, so they do not
share code with the program they check.
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

__all__ = ["Z_LIMIT", "digests", "check_outputs"]

# every montecarlo z-score must stay inside this; a correct estimator
# crosses it with probability about 6e-7 per row, a broken one far more often
Z_LIMIT = 5.0

# An MSE report whose excess is exactly zero in exact arithmetic (a
# truncated predictor that is exact, as for a pure AR model) can come out a
# few ulps below its floor.  mse._make_report then clips the excess to 0 and
# writes total < floor; it raises beyond 1e-12 relative.  Such rows are
# recorded as notes, so the defect stays visible; larger gaps fail the op.
ROUNDING_REL = 1e-12


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    schema, columns, rows = "", [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# schema:"):
            schema = line.split(":", 1)[1].strip()
        elif line.startswith("#"):
            continue
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return schema, columns, rows


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_problems(path: Path, notes: list[str]) -> list[str]:
    schema, columns, rows = _read_csv(path)
    if not columns or not rows:
        return [f"{path.name}: no header or no rows"]
    problems = []
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            problems.append(f"{path.name} row {i}: {len(row)} cells, {len(columns)} columns")
            continue
        values = dict(zip(columns, row))
        if any(v is not None and not math.isfinite(v) for v in map(_number, row)):
            problems.append(f"{path.name} row {i}: non-finite value")
        if schema.startswith("longpred/mse-report"):
            total, floor, excess = (float(values[c]) for c in ("total", "floor", "excess"))
            if not excess >= 0.0:
                problems.append(f"{path.name} row {i}: excess {excess!r} < 0")
            elif not total >= floor - ROUNDING_REL * max(abs(total), abs(floor)):
                problems.append(f"{path.name} row {i}: total {total!r} < floor {floor!r}")
            elif total < floor:
                notes.append(f"{path.name} row {i}: total {total!r} < floor {floor!r} "
                             f"by {(floor - total) / floor:.2g} relative, excess written as 0")
        if schema.startswith("longpred/montecarlo"):
            z = float(values["z"])
            if not abs(z) <= Z_LIMIT:
                problems.append(f"{path.name} row {i}: |z| = {abs(z):.3g} > {Z_LIMIT}")
    return problems


def check_outputs(out_dir: Path, expected: tuple[str, ...], golden: dict[str, str] | None,
                  notes: list[str]) -> tuple[dict[str, str], list[str]]:
    """Digests of the files an op wrote and the problems found in them;
    findings that do not fail the op are appended to ``notes``."""
    found = digests(out_dir)
    problems = []
    if set(found) != set(expected):
        problems.append(f"wrote {sorted(found)}, expected {sorted(expected)}")
    for name in sorted(found):
        path = out_dir / name
        if path.suffix == ".csv":
            problems += _csv_problems(path, notes)
        elif path.suffix == ".svg":
            try:
                root = ET.parse(path).getroot()
            except ET.ParseError as exc:
                problems.append(f"{name}: not well-formed SVG: {exc}")
            else:
                if not root.tag.endswith("svg"):
                    problems.append(f"{name}: root element {root.tag!r}")
    if golden is not None:
        for name in sorted(set(golden) | set(found)):
            if golden.get(name) != found.get(name):
                problems.append(f"{name}: sha256 {found.get(name)} differs from "
                                f"golden {golden.get(name)}")
    return found, problems
