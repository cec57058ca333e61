"""Sampled curve tables written as CSV or JSON.

Values are quantized to 12 significant digits when a table is built, so
every written value is the table's value and regenerating a table with
identical parameters is bit-identical.  CSV output is RFC-4180 flavored
with '.' as the decimal separator; metadata travels in leading '# key=value'
lines and records every parameter needed to rebuild the table.  JSON output
is one object of metadata, columns and data (one list per column).

The tests read each table command's output strictly: the metadata lines
first, then one exact header, every cell unchanged when reformatted with 12
significant digits, JSON without NaN or Infinity, and rows equal to the
built table's.
"""
from __future__ import annotations

from typing import NamedTuple

__all__ = ["CurveTable", "quantize"]


def quantize(x: float) -> float:
    """Round to 12 significant digits (the table/CSV precision)."""
    return float(f"{float(x):.12g}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class CurveTable(NamedTuple):
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]
    metadata: dict[str, str]

    @classmethod
    def build(
        cls,
        columns: tuple[str, ...],
        raw_rows: list[tuple[float, ...]],
        metadata: dict[str, str],
    ) -> "CurveTable":
        rows = []
        for row in raw_rows:
            if len(row) != len(columns):
                raise ValueError(
                    f"row arity {len(row)} does not match {len(columns)} columns"
                )
            rows.append(tuple(quantize(v) for v in row))
        return cls(tuple(columns), rows, dict(metadata))

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # on demand: a CSV command never loads json

        data = {name: self.column(name) for name in self.columns}
        doc = {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "data": data,
        }
        return json.dumps(doc, indent=2) + "\n"
