"""Diagnostic lookup tables.

A syndrome complex over q features tabulates as a 2^a x 2^b grid: the
caller splits the referenced features into row features and column
features, every combination is evaluated, and each cell holds the
signed decision value.  The first listed feature of each axis is the
slowest varying (most significant) bit, so rows and columns count in
binary from all-zeros at the top left.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TableError
from .rules import SyndromeComplex, vote_counts, vote_values

MAX_TABLE_FEATURES = 16


@dataclass
class DiagnosticTable:
    """Signed decision values for every assignment of the split features."""

    row_features: list[int]
    col_features: list[int]
    cells: np.ndarray
    n_syndromes: int
    feature_labels: dict[int, str]
    class_names: tuple[str, str] = ("0", "1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def row_bits(self, index: int) -> tuple[int, ...]:
        return _bits(index, len(self.row_features))

    def col_bits(self, index: int) -> tuple[int, ...]:
        return _bits(index, len(self.col_features))


def _bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - p)) & 1 for p in range(width))


def make_table(
    sc: SyndromeComplex,
    row_features: Sequence[int],
    col_features: Sequence[int],
) -> DiagnosticTable:
    """Tabulate a complex over a split of its referenced features.

    The split must cover the referenced features exactly, with no
    overlap, and the total width is capped at 16 bits.
    """
    rows = [int(f) for f in row_features]
    cols = [int(f) for f in col_features]
    if not rows or not cols:
        raise TableError("both axes need at least one feature")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise TableError("a feature appears twice on one axis")
    overlap = set(rows) & set(cols)
    if overlap:
        raise TableError(f"features on both axes: {sorted(overlap)}")
    program = sc.program
    referenced = set(program.features)
    given = set(rows) | set(cols)
    if given != referenced:
        missing = sorted(referenced - given)
        extra = sorted(given - referenced)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"not referenced {extra}")
        raise TableError("split does not cover the rule's features: " + ", ".join(detail))
    q = len(rows) + len(cols)
    if q > MAX_TABLE_FEATURES:
        raise TableError(f"{q} features exceed the {MAX_TABLE_FEATURES}-bit table cap")

    a, b = len(rows), len(cols)
    total = 1 << q
    order = rows + cols
    # cell i is a case: the feature at position p of `order` is bit q-1-p of i
    column = {feat: _cell_bit_column(q - 1 - p, total) for p, feat in enumerate(order)}
    m1 = vote_counts(program.run([column[f] for f in program.features], total), total)
    values = vote_values(np.frombuffer(m1, m1.typecode).astype(np.int64), sc.n)
    labels = {
        f: (sc.features[f].feature if f in sc.features else f"x_{f}")
        for f in order
    }
    return DiagnosticTable(
        row_features=rows,
        col_features=cols,
        cells=values.reshape(1 << a, 1 << b),
        n_syndromes=sc.n,
        feature_labels=labels,
        class_names=sc.class_names,
    )


def _cell_bit_column(k: int, total: int) -> int:
    """Bitset over `total` cells with bit i set when bit k of i is."""
    half = 1 << k
    bits, width = ((1 << half) - 1) << half, 2 * half
    while width < total:
        bits |= bits << width
        width *= 2
    return bits


def detect_contradictions(table: DiagnosticTable) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Coordinates (row bits, column bits) of every tied cell."""
    out = []
    for ri, ci in zip(*np.nonzero(table.cells == 0)):
        out.append((table.row_bits(int(ri)), table.col_bits(int(ci))))
    return out


def _cell_text(value: int) -> str:
    if value == 0:
        return "±0"
    return f"{value:+d}"


def render_text(table: DiagnosticTable) -> str:
    """Fixed-width text rendering.

    Column feature bit patterns are stacked above the grid, fastest
    varying feature on top; row features label the leading columns.
    """
    a, b = len(table.row_features), len(table.col_features)
    n_rows, n_cols = table.shape
    col_labels = [table.feature_labels[f] for f in table.col_features]
    row_labels = [table.feature_labels[f] for f in table.row_features]
    cells = [[_cell_text(int(v)) for v in row] for row in table.cells]

    row_bit_w = [len(lbl) for lbl in row_labels]
    prefix_w = max(sum(row_bit_w) + a - 1, max(len(s) for s in col_labels))
    cell_w = max(2, *(len(c) for row in cells for c in row))

    lines = []
    for p in range(b - 1, -1, -1):
        bits = " ".join(
            str((ci >> (b - 1 - p)) & 1).rjust(cell_w) for ci in range(n_cols)
        )
        lines.append(f"{col_labels[p].rjust(prefix_w)}  {bits}")
    header = " ".join(lbl for lbl in row_labels)
    lines.append(header.rjust(prefix_w))
    for ri in range(n_rows):
        bits = table.row_bits(ri)
        left = " ".join(str(bit).rjust(w) for bit, w in zip(bits, row_bit_w))
        body = " ".join(c.rjust(cell_w) for c in cells[ri])
        lines.append(f"{left.rjust(prefix_w)}  {body}")
    return "\n".join(lines) + "\n"


def render_csv(table: DiagnosticTable) -> str:
    """CSV rendering: one leading column per row feature, then one
    column per column-bit combination, header tagged with its bits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    b = len(table.col_features)
    header = [table.feature_labels[f] for f in table.row_features]
    header += ["".join(map(str, _bits(ci, b))) for ci in range(table.shape[1])]
    writer.writerow(header)
    for ri in range(table.shape[0]):
        row = [str(bit) for bit in table.row_bits(ri)]
        row += [_cell_text(int(v)) for v in table.cells[ri]]
        writer.writerow(row)
    return out.getvalue()


def render(table: DiagnosticTable, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(table)
    if fmt == "csv":
        return render_csv(table)
    raise TableError(f"unknown table format {fmt!r}")


def parse_rendered_csv(text: str) -> np.ndarray:
    """Read back the cell grid of a CSV rendering.

    The number of row-feature columns is inferred from the header: bit
    pattern headers consist of 0/1 characters only.  Returns the signed
    value matrix; "±0" maps to 0.
    """
    reader = csv.reader(io.StringIO(text))
    table = [row for row in reader if row]
    if len(table) < 2:
        raise TableError("CSV table needs a header and at least one row")
    header = table[0]
    first_bits = None
    for i, cell in enumerate(header):
        if cell and set(cell) <= {"0", "1"}:
            first_bits = i
            break
    if first_bits is None:
        raise TableError("no bit pattern columns in CSV header")
    values = []
    for row in table[1:]:
        cells = []
        for cell in row[first_bits:]:
            cell = cell.strip().replace("±", "")
            try:
                cells.append(int(cell))
            except ValueError:
                raise TableError(f"bad cell value {cell!r}") from None
        values.append(cells)
    grid = np.array(values, dtype=np.int64)
    if grid.shape[1] != len(header) - first_bits:
        raise TableError("ragged CSV table")
    return grid
