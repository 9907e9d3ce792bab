"""Paper-style table and series printers for the benchmark harness.

Benchmarks print their results through these helpers so every experiment's
output has the same shape: a title, column headers, aligned rows, and an
optional "paper reports" reference column for eyeball comparison.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Sequence],
) -> str:
    """Render ``rows[label] -> values`` as an aligned text table."""
    header = ["" ] + list(columns)
    body: List[List[str]] = []
    for label, values in rows.items():
        rendered = [label]
        for value in values:
            if isinstance(value, float):
                rendered.append(f"{value:.2f}")
            else:
                rendered.append(str(value))
        body.append(rendered)
    widths = [
        max(len(row[i]) for row in [header] + body) for i in range(len(header))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
) -> str:
    """Render one or more y-series against a shared x axis (figure data)."""
    columns = [x_label] + list(series)
    body: List[List[str]] = []
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in series:
            value = series[name][i]
            row.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        body.append(row)
    widths = [max(len(r[i]) for r in [columns] + body) for i in range(len(columns))]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
