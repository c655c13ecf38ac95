"""Plain-text table rendering shared by every report.

:func:`format_table` lays out aligned rows; ``None`` cells render as
``NA`` (the paper's Table I notation for a missing speedup).  The
paper's Table I itself is rendered from campaign outcomes by
:func:`repro.reporting.campaign_tables.render_method_matrix`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned plain-text table."""
    columns = [list(map(_fmt, col)) for col in zip(*([headers] + [list(r) for r in rows]))] \
        if rows else [[_fmt(h)] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = " | ".join(h.ljust(w) for h, w in zip(map(_fmt, headers), widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)
