"""Paper-style table and series rendering for benchmark output."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Monospace table matching the paper's layout."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = [f"== {title} ==", line(headers), line(["-" * w for w in widths])]
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)


def render_series(title: str, series: dict[str, dict[str, float]]) -> str:
    """Grouped series (figure-style data): {group: {label: value}}."""
    labels = sorted({label for values in series.values() for label in values})
    headers = ["group"] + labels
    rows = []
    for group, values in series.items():
        rows.append(
            [group]
            + [
                f"{values[label]:.3f}" if label in values else "-"
                for label in labels
            ]
        )
    return render_table(title, headers, rows)


def format_ns(value: float) -> str:
    """Human-readable time in ns/µs/ms like the paper's tables."""
    if value < 1_000:
        return f"{value:.0f} ns"
    if value < 1_000_000:
        return f"{value / 1_000:.2f} µs"
    return f"{value / 1_000_000:.2f} ms"
