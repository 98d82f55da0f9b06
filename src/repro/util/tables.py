"""Minimal ASCII table formatting for example scripts and bench harnesses.

The benchmark harnesses print the per-experiment result rows recorded in
``EXPERIMENTS.md``; this module keeps that output aligned and dependency-free.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render ``rows`` under ``headers`` as a left-aligned ASCII table:
    columns at least three characters wide, two spaces apart.

    >>> print(format_table(["n", "ok"], [[3, True], [10, False]]))
    n    ok
    ---  -----
    3    True
    10   False
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    ncols = len(cells[0])
    for row in cells:
        if len(row) != ncols:
            raise ValueError(
                f"row has {len(row)} cells, expected {ncols}: {row!r}"
            )
    widths = [max(3, *(len(row[j]) for row in cells)) for j in range(ncols)]
    sep = "  "
    out = [sep.join(cells[0][j].ljust(widths[j]) for j in range(ncols)).rstrip()]
    out.append(sep.join("-" * widths[j] for j in range(ncols)).rstrip())
    for row in cells[1:]:
        out.append(sep.join(row[j].ljust(widths[j]) for j in range(ncols)).rstrip())
    return "\n".join(out)
