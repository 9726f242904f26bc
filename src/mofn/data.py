"""Dataset loading and validation.

A dataset is a small table of named features plus a binary label per
row.  Features come in three kinds: quantitative (floats), boolean
(0/1), and nominal (unordered category strings).  Kinds are inferred
from the values unless overridden by the caller.

Data is held by column.  `load_csv` reads cells with the readers in
`encoding` that `mofn classify` shares, and adds the label, empty cells
and kinds; `Dataset` keeps the checked arrays that training reads, and
`Dataset.rows` is a view of Python values built on demand.
"""

from __future__ import annotations

import csv
import io
import warnings
from itertools import chain, compress, count
from typing import Mapping, Sequence

import numpy as np

from .encoding import KINDS, first_bad_cell, read_column, read_table, read_text, typed_block
from .errors import ColumnChoiceError, DataError, EncodingError
from .record import record


@record
class FeatureSpec:
    """Name and kind of one feature column."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")


class Dataset:
    """Feature columns plus a binary label vector.

    Column j is a row of the read-only block `encoding.typed_block`
    builds from the columns of its kind: finite float64 for
    quantitative, uint8 0/1 for boolean, Python str categories for
    nominal; a value its kind cannot hold, such as NaN, a boolean 2 or a
    nominal None, is the EncodingError that fitting the column gives;
    its `features` name every column of every kind that is refused.
    Labels are a uint8 vector of 0s and 1s, each checked before the
    cast, named by two distinct class names.  Build it from `rows` (one
    tuple per row) or, keyword only, from `columns` (one per feature).
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
        labels = np.asarray(labels)
        self.label_name = label_name
        self.class_names = _class_pair(class_names)
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        if self.label_name in names:
            raise DataError(f"label column {self.label_name!r} collides with a feature")
        if (rows is None) == (columns is None):
            raise DataError("give either rows or columns")
        n = len(rows) if columns is None else len(labels)
        if n != len(labels):
            raise DataError(f"{n} rows but {len(labels)} labels")
        if n < 2:
            raise DataError("need at least two rows")
        if columns is None:
            for r, row in enumerate(rows):
                if len(row) != self.m:
                    raise DataError(f"row {r} has {len(row)} values, expected {self.m}")
            columns = list(zip(*rows))
        elif len(columns) != self.m or any(len(c) != n for c in columns):
            raise DataError(f"expected {self.m} columns of {n} values")
        self.n = n
        if labels.ndim != 1 or not set(labels.tolist()) <= {0, 1}:    # before the cast truncates
            raise DataError("labels must be 0 or 1")
        self.labels = labels.astype(np.uint8)
        c0, c1 = self.class_counts()
        if c0 == 0 or c1 == 0:
            empty = self.class_names[0] if c0 == 0 else self.class_names[1]
            raise DataError(f"class {empty!r} has no rows")
        typed, refused = {}, []
        for kind in KINDS:
            at = [j for j, f in enumerate(self.features) if f.kind == kind]
            if at:
                try:
                    block = typed_block([columns[j] for j in at], kind, [names[j] for j in at])
                except EncodingError as exc:
                    refused.append(exc)
                    continue
                typed.update(zip(at, block))
        if refused:    # the first block's error, naming the refused features of every block
            refused[0].features = tuple(chain.from_iterable(exc.features for exc in refused))
            raise refused[0]
        self.columns = [typed[j] for j in range(self.m)]
        self._warn_contradictions()

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def rows(self) -> list[tuple]:
        """One tuple of Python values per row, built from the columns."""
        return list(zip(*(column.tolist() for column in self.columns))) or [()] * self.n

    def class_counts(self) -> tuple[int, int]:
        c1 = int(self.labels.sum())
        return len(self.labels) - c1, c1

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise DataError(f"no feature named {name!r}")

    def _warn_contradictions(self) -> None:
        # Rows that differ in some column differ.  Sort the rows on the
        # first 1, 2, 4, ... columns, then on all of them: as soon as no
        # two neighbours in that order agree on those columns, no two
        # rows are equal and none conflict.  A row unlike both of its
        # neighbours is unlike every row on any more columns too, so each
        # wider sort reads only the rows that still agree with another.
        # Continuous data is cleared after one or two columns.  After the
        # sort on all columns, equal rows are adjacent runs, and a row
        # conflicts with the least row of its run if their labels differ.
        widths = [1 << k for k in range((self.m - 1).bit_length())] + [self.m]
        rows = np.arange(self.n)
        ranked, same = rows, np.ones(self.n - 1, dtype=bool)    # no columns: all equal
        keys = []
        for w in widths if self.m else ():
            keys += map(_equality_key, self.columns[len(keys):w])
            sub = [key[rows] for key in keys]
            order = np.lexsort(sub) if len(sub) > 1 else sub[0].argsort()
            same = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in sub])
            if not same.any():
                return
            ranked = rows[order]
            rows = ranked[np.append(same, False) | np.append(False, same)]
        starts = np.flatnonzero(np.append(True, ~same))
        first = np.minimum.reduceat(ranked, starts).repeat(np.diff(starts, append=len(ranked)))
        clash = np.flatnonzero(self.labels[ranked] != self.labels[first])
        clash = clash[np.argsort(ranked[clash])]    # in row order
        flagged = list(zip(first[clash].tolist(), ranked[clash].tolist()))
        if flagged:
            pairs = ", ".join(f"{a} vs {b}" for a, b in flagged[:5])
            warnings.warn(
                f"{len(flagged)} duplicate row pair(s) with conflicting labels: {pairs}",
                stacklevel=3,
            )


def _equality_key(column: np.ndarray) -> np.ndarray:
    """A column whose values sort, and are equal, where its values are
    equal: the column itself, or for categories the first row that holds
    each one."""
    if column.dtype != object:
        return column
    first: dict = {}
    return np.fromiter(map(first.setdefault, column.tolist(), count()), np.intp, len(column))


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


def _class_pair(class_names: Sequence[str]) -> tuple[str, str]:
    names = tuple(class_names)
    if len(names) != 2 or names[0] == names[1]:
        raise DataError(f"class_names must be two distinct names, got {names!r}")
    return names


def load_csv(
    source,
    label_column: str = "label",
    kinds: Mapping[str, str] | None = None,
    class_names: Sequence[str] | None = None,
    drop_incomplete: bool = False,
) -> Dataset:
    """Read a dataset from a CSV path, file object, or literal text.

    A Path, or a string without a newline, is a path read as UTF-8 by
    encoding.read_file; a missing or unreadable file is a DataError.
    The header row names the columns.  `label_column` selects the label;
    its values must be the two class names (default "0" and "1", or the
    pair given in `class_names`, first name = class 0); a label column
    the header lacks is a ColumnChoiceError.  `kinds` overrides inferred
    kinds per feature name; an override that names no feature or no kind
    is a ColumnChoiceError too.  Both are checked before any cell.
    Incomplete rows (empty cells) are an error unless `drop_incomplete`
    is set, which discards them with a warning.  Errors come in order: the
    first ragged row or row with an empty cell, the first bad label, then
    Dataset's checks (duplicate feature names, a feature named as the
    label, fewer than two rows, a class with no rows), and last the bad
    cell of the lowest row, then of the earliest feature.
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
        warnings.warn(f"dropped {len(dropped)} incomplete row(s): {dropped[:10]}", stacklevel=2)
        if len(dropped) == len(label):
            raise DataError("no complete data rows")
        gone = set(dropped)
        keep = [r not in gone for r in range(len(label))]
        columns = [tuple(compress(column, keep)) for column in columns]
        label, read, _ = _read_cells(columns, label_at, nominal)

    names = ("0", "1") if class_names is None else _class_pair(class_names)
    if not set(label) <= set(names):
        r, raw = next((r, raw) for r, raw in enumerate(label) if raw not in names)
        raise DataError(f"row {r}: label {raw!r} is not one of {names!r}")
    labels = np.array(label) == names[1]

    # Every numeric column is one row of a float64 block, read only to tell
    # a 0/1 column, boolean unless declared, from a quantitative one.
    # Dataset checks every column; if it refuses some, its error names them.
    floats = [x for x, _ in read if x is not None]
    block = np.fromiter(chain.from_iterable(floats), np.float64, len(floats) * len(label))
    block = block.reshape(len(floats), len(label))
    numeric = zip(block, ((block == 0) | (block == 1)).all(axis=1).tolist())
    specs, columns = [], []
    for name, (x, cells) in zip(feature_names, read):
        if x is None:    # some cell is not a number
            kind, values = kinds.get(name, "nominal"), cells
        else:
            values, is_bits = next(numeric)
            kind = kinds.get(name, "boolean" if is_bits else "quantitative")
        specs.append(FeatureSpec(name, kind))
        columns.append(values)
    try:
        return Dataset(specs, labels=labels, label_name=label_column, class_names=names,
                       columns=columns)
    except EncodingError as exc:
        refused = set(exc.features)
        bad = [first_bad_cell(cells, spec.name, spec.kind)
               for spec, (_, cells) in zip(specs, read) if spec.name in refused]
        # the lowest row, then the earliest feature
        raise DataError(min(bad, key=lambda cell: cell[0])[1]) from None


def to_csv(ds: Dataset) -> str:
    """Serialize a dataset back to CSV text.

    Round trip: loading the serialized text reproduces the same feature
    names, kinds, values, and labels.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in ds.features] + [ds.label_name])
    for row, y in zip(ds.rows, ds.labels):    # str(float) is repr(float)
        writer.writerow([*map(str, row), ds.class_names[int(y)]])
    return out.getvalue()
