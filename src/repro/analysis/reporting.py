"""Plain-text reporting of experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers render them consistently (aligned columns,
fixed precision) so EXPERIMENTS.md entries can be pasted directly from
bench output.
"""

from __future__ import annotations

from typing import Sequence, Union

Number = Union[int, float]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Union[str, Number]]],
    *,
    precision: int = 4,
) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: Column names.
        rows: Row cells; floats are formatted to ``precision`` digits.
        precision: Decimal places for float cells.

    Returns:
        The table as a multi-line string.
    """
    def fmt(cell: Union[str, Number]) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
