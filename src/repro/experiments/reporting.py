"""Plain-text reporting helpers for the experiment harness.

Every experiment returns a list of row dictionaries; these helpers render
them as aligned text tables (mirroring the paper's tables) and serialize
them to JSON so measured numbers can be kept and compared across runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

__all__ = ["format_table", "format_percentage", "rows_to_json", "save_rows", "print_table"]

Number = Union[int, float]


def format_percentage(value: float, decimals: int = 1) -> str:
    """Render a fraction in ``[0, 1]`` as a percentage string."""

    return f"{100.0 * value:.{decimals}f}%"


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""

    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered
    )
    return "\n".join([header, separator, body])


def print_table(title: str, rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> None:
    """Print a titled table to stdout."""

    print(f"\n== {title} ==")
    print(format_table(rows, columns))


def rows_to_json(rows: Iterable[Dict[str, object]]) -> str:
    """Serialize rows to a JSON string."""

    return json.dumps(list(rows), indent=2, default=float)


def save_rows(rows: Iterable[Dict[str, object]], path: Union[str, Path]) -> Path:
    """Write rows as JSON to ``path`` and return the path."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rows_to_json(rows))
    return path
