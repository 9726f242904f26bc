"""Dataset loading and validation.

A dataset is a small table of named features plus a binary label per
row.  Features come in three kinds: quantitative (floats), boolean
(0/1), and nominal (unordered category strings).  Kinds are inferred
from the values unless overridden by the caller.

Data is held by column.  `load_csv` reads cells with the readers in
`encoding` that `mofn classify` shares, and adds the label, empty cells
and kinds; `Dataset` keeps the typed columns that training encodes, and
`Dataset.rows` is a view built on demand for callers that want rows.
"""

from __future__ import annotations

import csv
import io
import warnings
from pathlib import Path
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .encoding import KINDS, parse_column, read_column, read_table, read_text
from .errors import ColumnChoiceError, DataError
from .record import record


@record(frozen=True)
class FeatureSpec:
    """Name and kind of one feature column."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")


class Dataset:
    """Feature columns plus a binary label vector.

    Column j holds one python value per row: float for quantitative,
    int 0/1 for boolean, str for nominal.  Labels are a uint8 vector of
    0s and 1s.  Build it from `rows` (one tuple per row) or, keyword
    only, from `columns` (one list per feature).
    """

    def __init__(
        self,
        features: Sequence[FeatureSpec],
        rows: Sequence[tuple] | None = None,
        labels=(),
        label_name: str = "label",
        class_names: tuple[str, str] = ("0", "1"),
        *,
        columns: Sequence[list] | None = None,
    ) -> None:
        self.features = list(features)
        self.labels = np.asarray(labels, dtype=np.uint8)
        self.label_name = label_name
        self.class_names = class_names
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        if self.label_name in names:
            raise DataError(f"label column {self.label_name!r} collides with a feature")
        if (rows is None) == (columns is None):
            raise DataError("give either rows or columns")
        n = len(rows) if columns is None else len(self.labels)
        if n != len(self.labels):
            raise DataError(f"{n} rows but {len(self.labels)} labels")
        if n < 2:
            raise DataError("need at least two rows")
        if columns is None:
            for r, row in enumerate(rows):
                if len(row) != self.m:
                    raise DataError(f"row {r} has {len(row)} values, expected {self.m}")
            columns = zip(*rows)
        elif len(columns) != self.m or any(len(c) != n for c in columns):
            raise DataError(f"expected {self.m} columns of {n} values")
        self.columns: list[list] = list(map(list, columns))
        self.n = n
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise DataError("labels must be 0 or 1")
        c0, c1 = self.class_counts()
        if c0 == 0 or c1 == 0:
            empty = self.class_names[0] if c0 == 0 else self.class_names[1]
            raise DataError(f"class {empty!r} has no rows")
        self._warn_contradictions()

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def rows(self) -> list[tuple]:
        """One tuple of values per row, built from the columns."""
        return list(zip(*self.columns)) or [()] * self.n

    def class_counts(self) -> tuple[int, int]:
        c1 = int(self.labels.sum())
        return len(self.labels) - c1, c1

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise DataError(f"no feature named {name!r}")

    def _warn_contradictions(self) -> None:
        # Rows that differ in some columns differ.  Hash the rows on the
        # first 1, 2, 4, ... columns, then on all of them: as soon as no
        # two rows share a hash, none are equal and none conflict.
        # Continuous data is cleared after one or two columns; the exact
        # walk runs only on duplicates or hash collisions.  The sets hold
        # ints, not row tuples, so they start no cyclic garbage collection.
        widths = [1 << k for k in range((self.m - 1).bit_length())] + [self.m]
        if self.m and any(
            len(set(map(hash, zip(*self.columns[:w])))) == self.n for w in widths
        ):
            return
        seen: dict[tuple, tuple[int, int]] = {}
        flagged = []
        for r, (row, y) in enumerate(zip(self.rows, self.labels.tolist())):
            if row in seen:
                first, y0 = seen[row]
                if y0 != y:
                    flagged.append((first, r))
            else:
                seen[row] = (r, y)
        if flagged:
            pairs = ", ".join(f"{a} vs {b}" for a, b in flagged[:5])
            warnings.warn(
                f"{len(flagged)} duplicate row pair(s) with conflicting labels: {pairs}",
                stacklevel=3,
            )


def _read_cells(columns: list[tuple], label_at: int, nominal: list[bool]):
    """The stripped label cells, each feature column as read_column
    gives it, and the rows that hold an empty cell."""
    features = columns[:label_at] + columns[label_at + 1:]
    label = list(map(str.strip, columns[label_at]))
    read = [read_column(raw, nom) for raw, nom in zip(features, nominal)]
    empty = {r for r, cell in enumerate(label) if not cell}
    for x, cells in read:
        if x is None and "" in cells:
            empty.update(r for r, cell in enumerate(cells) if not cell)
    return label, read, sorted(empty)


def load_csv(
    source,
    label_column: str = "label",
    kinds: Mapping[str, str] | None = None,
    class_names: Sequence[str] | None = None,
    drop_incomplete: bool = False,
) -> Dataset:
    """Read a dataset from a CSV path, file object, or literal text.

    A string without a newline is a path; a missing or unreadable file
    is a DataError.
    The header row names the columns.  `label_column` selects the label;
    its values must be the two class names (default "0" and "1", or the
    pair given in `class_names`, first name = class 0); a label column
    the header lacks is a ColumnChoiceError.  `kinds` overrides inferred
    kinds per feature name; an override that names no feature or no kind
    is a ColumnChoiceError too.  Both are checked before any cell.
    Incomplete rows (empty cells) are an error unless `drop_incomplete`
    is set, which discards them with a warning.  Errors name the first bad row: a ragged row or a row with
    an empty cell, then a bad label, then a bad cell (its lowest row,
    then its earliest feature).
    """
    header, columns, ragged = read_table(read_text(source))
    if label_column not in header:
        raise ColumnChoiceError(f"no column named {label_column!r} in header {header}")
    label_at = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_at]
    kinds = dict(kinds or {})
    for name in kinds:
        if name not in feature_names:
            raise ColumnChoiceError(f"kind override for unknown feature {name!r}")
        if kinds[name] not in KINDS:
            raise ColumnChoiceError(f"unknown kind {kinds[name]!r} for feature {name!r}")
    nominal = [kinds.get(name) == "nominal" for name in feature_names]
    label, read, dropped = _read_cells(columns, label_at, nominal)
    if dropped and not drop_incomplete:
        raise DataError(f"row {dropped[0]} has an empty cell")
    if ragged:
        raise DataError(ragged[1])
    if not label:
        raise DataError("no complete data rows")
    if dropped:
        warnings.warn(f"dropped {len(dropped)} incomplete row(s): {dropped[:10]}")
        if len(dropped) == len(label):
            raise DataError("no complete data rows")
        gone = set(dropped)
        keep = [r not in gone for r in range(len(label))]
        columns = [tuple(compress(column, keep)) for column in columns]
        label, read, _ = _read_cells(columns, label_at, nominal)

    if class_names is None:
        names = ("0", "1")
    else:
        names = tuple(class_names)
        if len(names) != 2 or names[0] == names[1]:
            raise DataError(f"class_names must be two distinct names, got {names!r}")
    if not set(label) <= set(names):
        r, raw = next((r, raw) for r, raw in enumerate(label) if raw not in names)
        raise DataError(f"row {r}: label {raw!r} is not one of {names!r}")
    labels = np.array(label) == names[1]

    parsed = [
        parse_column(cells, x, name, kinds.get(name))
        for (x, cells), name in zip(read, feature_names)
    ]
    bad = [cell for _, _, cell in parsed if cell]
    if bad:    # the lowest row, then the earliest feature
        raise DataError(min(bad, key=lambda cell: cell[0])[1])
    return Dataset(
        features=[FeatureSpec(name, kind) for name, (kind, _, _) in zip(feature_names, parsed)],
        labels=labels,
        label_name=label_column,
        class_names=names,
        columns=[values for _, values, _ in parsed],
    )


def _format_value(value, kind: str) -> str:
    if kind == "quantitative":
        return repr(float(value))
    if kind == "boolean":
        return str(int(value))
    return str(value)


def to_csv(ds: Dataset, dest=None) -> str:
    """Serialize a dataset back to CSV text; optionally write it to a path.

    Round trip: loading the serialized text reproduces the same feature
    names, kinds, values, and labels.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in ds.features] + [ds.label_name])
    for row, y in zip(ds.rows, ds.labels):
        cells = [_format_value(v, f.kind) for v, f in zip(row, ds.features)]
        writer.writerow(cells + [ds.class_names[int(y)]])
    text = out.getvalue()
    if dest is not None:
        Path(dest).write_text(text)
    return text
