"""Plain-text rendering of experiment results (paper-style tables)."""

from __future__ import annotations

from repro.obs.fleet import format_table

__all__ = ["format_interval", "format_table", "stacked_bar"]


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
