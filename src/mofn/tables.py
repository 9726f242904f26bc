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
from typing import Sequence

import numpy as np

from .encoding import read_table
from .errors import DataError, TableError
from .record import record
from .rules import SyndromeComplex, vote_counts, vote_levels

MAX_TABLE_FEATURES = 16


@record
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
    levels = np.array([d.value for d in vote_levels(sc.n)], dtype=np.int64)
    values = levels[np.frombuffer(m1, m1.typecode)]
    labels = {
        f: (sc.features[f].feature if f in sc.features else f"x_{f}")
        for f in order
    }
    return DiagnosticTable(rows, cols, values.reshape(1 << a, 1 << b), sc.n, labels,
                           sc.class_names)


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


def _cell_rows(cells: np.ndarray, pad: bool) -> list[list[str]]:
    """The cell texts row by row, formatting each value once: a grid of
    decision values within ±N holds at most 2N+1 of them.  With `pad`,
    every text is right-justified to the widest (at least 2 wide).  The
    texts of the negative values sit at the end of the lookup, where a
    negative index wraps to them, so the grid indexes it as it is,
    without a shifted grid-sized copy."""
    lo, hi = int(cells.min()), int(cells.max())
    values = [*range(max(hi, 0) + 1), *range(min(lo, 0), 0)]
    texts = [f"{v:+d}" if v else "±0" for v in values]
    if pad:
        width = max(2, *map(len, texts))
        texts = [t.rjust(width) for t in texts]
    return np.array(texts, dtype=object)[cells].tolist()


def render_text(table: DiagnosticTable) -> str:
    """Fixed-width text rendering.

    Column feature bit patterns are stacked above the grid, fastest
    varying feature on top; row features label the leading columns.
    """
    a, b = len(table.row_features), len(table.col_features)
    col_labels = [table.feature_labels[f] for f in table.col_features]
    row_labels = [table.feature_labels[f] for f in table.row_features]
    cells = _cell_rows(table.cells, pad=True)

    row_bit_w = [len(lbl) for lbl in row_labels]
    prefix_w = max(sum(row_bit_w) + a - 1, max(len(s) for s in col_labels))
    cell_w = len(cells[0][0])
    zero, one = "0".rjust(cell_w), "1".rjust(cell_w)

    lines = []
    for p in range(b - 1, -1, -1):
        # bit b-1-p of the column index: 2^p runs of `half` zeros, then ones
        half = 1 << (b - 1 - p)
        bits = " ".join(([zero] * half + [one] * half) * (1 << p))
        lines.append(f"{col_labels[p].rjust(prefix_w)}  {bits}")
    lines.append(" ".join(row_labels).rjust(prefix_w))
    for ri, row in enumerate(cells):
        left = " ".join(map(str.rjust, format(ri, f"0{a}b"), row_bit_w))
        lines.append(f"{left.rjust(prefix_w)}  {' '.join(row)}")
    return "\n".join(lines) + "\n"


def render_csv(table: DiagnosticTable) -> str:
    """CSV rendering: one leading column per row feature, then one
    column per column-bit combination, header tagged with its bits."""
    a, b = len(table.row_features), len(table.col_features)
    out = io.StringIO()
    header = [table.feature_labels[f] for f in table.row_features]
    header += [format(ci, f"0{b}b") for ci in range(table.shape[1])]
    csv.writer(out, lineterminator="\n").writerow(header)
    # only feature names may need quoting: row bits and cell texts never do
    for ri, row in enumerate(_cell_rows(table.cells, pad=False)):
        out.write(f"{','.join(format(ri, f'0{a}b'))},{','.join(row)}\n")
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
    value matrix; "±0" maps to 0.  The text is read by
    `encoding.read_table`, so a row of the wrong width is named.
    """
    try:
        header, columns, ragged = read_table(text)
    except DataError as exc:
        raise TableError(str(exc)) from None
    if ragged:
        raise TableError(f"ragged CSV table: {ragged[1]}")
    if not columns[0]:
        raise TableError("CSV table needs a header and at least one row")
    first_bits = next(
        (i for i, cell in enumerate(header) if cell and set(cell) <= {"0", "1"}), None
    )
    if first_bits is None:
        raise TableError("no bit pattern columns in CSV header")
    values = []
    for column in columns[first_bits:]:
        cells = []
        for cell in column:
            cell = cell.strip().replace("±", "")
            try:
                cells.append(int(cell))
            except ValueError:
                raise TableError(f"bad cell value {cell!r}") from None
        values.append(cells)
    return np.array(values, dtype=np.int64).T
