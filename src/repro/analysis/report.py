"""Plain-text renderers for the reproduced tables and figures.

Every benchmark prints through these helpers so EXPERIMENTS.md and the bench
output share one format: fixed-width tables with a title line, readable in a
terminal and diff-able across runs.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned fixed-width table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    separator = "  ".join("-" * width for width in widths)
    body = [title, line([str(h) for h in headers]), separator]
    body.extend(line(row) for row in rendered_rows)
    return "\n".join(body)


def format_matrix(
    title: str,
    row_label: str,
    matrix: Mapping[str, Mapping[str, float]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a nested mapping (rows of columns) as a table."""
    if columns is None:
        first = next(iter(matrix.values()), {})
        columns = list(first)
    headers = [row_label, *columns]
    rows = [
        [name, *[row.get(column, float("nan")) for column in columns]]
        for name, row in matrix.items()
    ]
    return format_table(title, headers, rows, float_format)


def format_bar(value: float, scale: float) -> str:
    """A crude ASCII bar for figure-style output, 40 characters at full scale."""
    filled = int(round(40 * min(value / scale, 1.0))) if scale > 0 else 0
    return "#" * filled
