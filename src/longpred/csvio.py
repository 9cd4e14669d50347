"""Deterministic CSV emission.

All floats are written with 17 significant digits so values round-trip
exactly; schema identifiers live in leading comment lines.  Output is
byte-stable: same inputs, same bytes.

``write_csv`` formats every row with one ``%`` template built from the first
row's cells, ``%.17g`` for a ``float`` (``np.float64`` included), else ``%s``;
a row of another length raises ``ValueError``.  Each row streams to the file
as it is formatted, and a file whose writing stops for any reason is removed.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["write_csv"]


def write_csv(path: str | Path, schema: str, comments: Sequence[str],
              columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    f = path.open("w", encoding="utf-8", newline="\n")
    try:
        with f:
            f.writelines([f"# schema: {schema}\n", *(f"# {c}\n" for c in comments),
                          ",".join(columns) + "\n"])
            rows = iter(rows)
            first = next(rows, None)
            if first is not None:
                template = ",".join("%.17g" if isinstance(v, float) else "%s"
                                    for v in first) + "\n"
                for row in chain((first,), rows):
                    try:
                        f.write(template % tuple(row))
                    except TypeError as exc:  # too few or too many cells, or text under %.17g
                        raise ValueError(f"{path.name}: row {row!r} does not match the first "
                                         f"row's {len(first)} cells: {exc}") from exc
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path
