"""Deterministic CSV emission.

All floats are written with 17 significant digits so values round-trip
exactly; schema identifiers live in leading comment lines.  Output is
byte-stable: same inputs, same bytes.

``write_csv`` formats each row with one ``%`` template per tuple of cell
types: ``%.17g`` for a ``float`` (``np.float64`` included), else ``%s``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["write_csv"]


def write_csv(path: str | Path, schema: str, comments: Sequence[str],
              columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    lines = [f"# schema: {schema}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    templates: dict[tuple[type, ...], str] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types)
        lines.append(templates[types] % row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
