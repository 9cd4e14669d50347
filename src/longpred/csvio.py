"""Deterministic CSV emission.

All floats are written with 17 significant digits so values round-trip
exactly; schema identifiers live in leading comment lines.  Output is
byte-stable: same inputs, same bytes.

``write_csv`` formats a row in one ``%`` operation, with a template built
once per tuple of cell types: ``%.17g`` for a ``float`` (``np.float64``
included) and ``%s`` for the rest, which is ``fmt``'s text cell by cell.  A
row holding a ``bool`` goes through ``fmt``, which writes ``true``/``false``.
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
    templates: dict[tuple[type, ...], str | None] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:  # bool cannot be subclassed
            templates[types] = None if bool in types else ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types)
        template = templates[types]
        lines.append(",".join(map(fmt, row)) if template is None else template % row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
