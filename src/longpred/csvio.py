"""Deterministic CSV emission.

All floats are written with 17 significant digits so values round-trip
exactly; schema identifiers live in leading comment lines.  Output is
byte-stable: same inputs, same bytes.

``write_csv`` builds one ``%`` template per file from the first row's cells,
``%.17g`` for a ``float`` (``np.float64`` included), else ``%s``, and formats
every row with it: each row must have the first row's length and put floats
where it has them.  A row of another length raises ``ValueError``.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["write_csv"]


def write_csv(path: str | Path, schema: str, comments: Sequence[str],
              columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    lines = [f"# schema: {schema}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first)
        for row in chain((first,), rows):
            try:
                lines.append(template % tuple(row))
            except TypeError as exc:  # too few or too many cells, or text under %.17g
                raise ValueError(f"{path.name}: row {row!r} does not match the first "
                                 f"row's {len(first)} cells: {exc}") from exc
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
