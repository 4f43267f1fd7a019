"""ASCII rendering of tables and figure series.

The report prints the same rows/series the paper's tables and figures
report.  These helpers keep that output aligned, diff-friendly,
and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def format_percent(fraction: float, digits: int = 1) -> str:
    """0.1378 → ``'13.8%'``."""
    return f"{fraction * 100:.{digits}f}%"


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                title: str = "") -> str:
    """Render a fixed-width table.

    Column widths auto-fit the content; numeric cells are right-aligned.
    """
    string_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str], pad: str = " ") -> str:
        parts = []
        for index, cell in enumerate(cells):
            if _is_numeric(cell):
                parts.append(cell.rjust(widths[index], pad))
            else:
                parts.append(cell.ljust(widths[index], pad))
        return "| " + " | ".join(parts) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    for row in string_rows:
        lines.append(render_row(row))
    lines.append(separator)
    return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float], width: int = 40,
              title: str = "", value_format: str = "{:.1f}") -> str:
    """Render a horizontal bar chart (the shape of Figures 3, 10, 12)."""
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels but {len(values)} values")
    if not labels:
        return title or "(empty chart)"
    peak = max(max(values), 1e-12)
    label_width = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_width)} |{bar} {value_format.format(value)}")
    return "\n".join(lines)


def series_table(series: Sequence[Tuple[float, float]], x_label: str,
                 y_label: str, title: str = "") -> str:
    """Render an (x, y) series as a two-column table (CDF/time figures)."""
    return ascii_table(
        [x_label, y_label],
        [(f"{x:g}", f"{y:g}") for x, y in series],
        title=title,
    )


def sparkline(values: Sequence[float]) -> str:
    """A compact one-line trend rendering of a series."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    low = min(values)
    span = max(values) - low
    if span <= 0:
        return glyphs[len(glyphs) // 2] * len(values)
    scale = (len(glyphs) - 1) / span
    return "".join(glyphs[int((value - low) * scale)] for value in values)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    stripped = cell.rstrip("%")
    try:
        float(stripped)
    except ValueError:
        return False
    return True
