"""Deterministic CSV emission.

All floats are written with 17 significant digits so values round-trip
exactly; schema identifiers live in leading comment lines.  Output is
byte-stable: same inputs, same bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["fmt", "write_csv"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, schema: str, comments: Sequence[str],
              columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    lines = [f"# schema: {schema}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
