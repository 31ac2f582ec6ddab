"""Plain-text rendering of experiment results (paper-style tables)."""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned fixed-width table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_interval(low: float, high: float, digits: int = 2) -> str:
    """Paper Table 1 style: ``(219.25;220.32)``."""
    return f"({low:.{digits}f};{high:.{digits}f})"


def stacked_bar(parts: dict, total_width: int = 60) -> str:
    """ASCII stacked bar for the Figure 4 phase breakdown."""
    total = sum(parts.values())
    if total <= 0:
        return "(empty)"
    glyphs = {"CLONE": "C", "EXEC": "E", "RTS": "R", "APPINIT": "A"}
    bar = []
    for name, value in parts.items():
        width = int(round(total_width * value / total))
        bar.append(glyphs.get(name, "?") * width)
    return "".join(bar)[:total_width]
