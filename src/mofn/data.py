"""Dataset loading and validation.

A dataset is a small table of named features plus a binary label per
row.  Features come in three kinds: quantitative (floats), boolean
(0/1), and nominal (unordered category strings).  Kinds are inferred
from the values unless overridden by the caller.

Data is held by column.  `load_csv` reads cells with the readers in
`encoding` that `mofn classify` shares, a block of rows at a time, and
adds the label, empty cells and kinds.  Numeric columns go straight
into one float64 array, and only the label's and text columns' cells
are kept, so loading never holds the whole file as cells.  `Dataset`
keeps the checked arrays that training reads, and `Dataset.rows` is a
view of Python values built on demand.
"""

from __future__ import annotations

import csv
import io
import warnings
from itertools import chain, compress, count
from typing import Mapping, Sequence

import numpy as np

from .encoding import (
    KINDS,
    column_cells,
    first_bad_cell,
    read_blocks,
    read_column,
    read_numbers,
    read_text,
    typed_block,
)
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

    A table whose feature cells are all numbers, with none declared
    nominal, is read by numpy.loadtxt through encoding.read_numbers into
    one (features, rows) float64 array, and its stripped label cells are
    taken from each line.  Any other table, or one that numpy or
    read_numbers' checks refuse, is read from the start in the blocks of
    encoding.read_blocks, which also give every error: numpy reads a
    subset of the cells that float() reads, each to the same double, so
    both readers give the same dataset from any table numpy reads.  In
    the blocks, a column whose cells are all numbers is parsed straight
    into its row of the float64 array, and its cells are not kept.  A
    column declared nominal, or with a cell that is no number, is text,
    whose stripped cells are kept, as are the label's.  A column that
    turns to text in a later block is read again whole, so kinds are
    still inferred over every row.
    """
    text = read_text(source)
    header, most, blocks = read_blocks(text)
    if label_column not in header:
        raise ColumnChoiceError(f"no column named {label_column!r} in header {header}")
    label_at = header.index(label_column)
    feature_at = [i for i in range(len(header)) if i != label_at]
    feature_names = [header[i] for i in feature_at]
    kinds = dict(kinds or {})
    for name in kinds:
        if name not in feature_names:
            raise ColumnChoiceError(f"kind override for unknown feature {name!r}")
        if kinds[name] not in KINDS:
            raise ColumnChoiceError(f"unknown kind {kinds[name]!r} for feature {name!r}")

    nominal = {j for j, name in enumerate(feature_names) if kinds.get(name) == "nominal"}
    numeric = None if nominal else read_numbers(text, len(header), label_at)
    if numeric:
        (numbers, label), text_cells, gone = numeric, {}, frozenset()
    else:
        numbers, text_cells, label, gone = _read_rows(text, blocks, most, label_at, feature_at,
                                                      nominal, drop_incomplete)

    names = ("0", "1") if class_names is None else _class_pair(class_names)
    if not set(label) <= set(names):
        r, raw = next((r, raw) for r, raw in enumerate(label) if raw not in names)
        raise DataError(f"row {r}: label {raw!r} is not one of {names!r}")

    # A numeric feature is read as 0/1 only to tell a boolean one, unless
    # declared, from a quantitative one.  Dataset checks every column; if it
    # refuses some, its error names them.
    is_bits = ((numbers == 0) | (numbers == 1)).all(axis=1).tolist()
    specs, values = [], []
    for j, name in enumerate(feature_names):
        if j in text_cells:
            kind, column = kinds.get(name, "nominal"), text_cells[j]
        else:
            kind, column = kinds.get(name, "boolean" if is_bits[j] else "quantitative"), numbers[j]
        specs.append(FeatureSpec(name, kind))
        values.append(column)
    try:
        labels = np.fromiter(map(names[1].__eq__, label), bool, len(label))
        return Dataset(specs, labels=labels, label_name=label_column, class_names=names,
                       columns=values)
    except EncodingError as exc:
        refused = set(exc.features)
        bad = [first_bad_cell(text_cells[j] if j in text_cells
                              else column_cells(text, feature_at[j], gone), spec.name, spec.kind)
               for j, spec in enumerate(specs) if spec.name in refused]
        # the lowest row, then the earliest feature
        raise DataError(min(bad, key=lambda cell: cell[0])[1]) from None


def _read_rows(text: str, blocks, most: int, label_at: int, feature_at: list[int],
               nominal: set[int], drop_incomplete: bool):
    """The rows of read_blocks' blocks as (the (features, rows) float64
    array, whose rows of text features mean nothing, the stripped cells
    of each text feature, the stripped label cells, the set of rows
    dropped).  Features in `nominal` are text; so is one with a cell that
    is no number."""
    floats = np.empty((len(feature_at), most))    # row j: feature j, if it is numeric
    text_cells = {j: [] for j in nominal}
    late = set()        # features that turn to text after some rows: read again at the end
    label, dropped = [], []
    n = r = 0           # the rows kept, and read, before this block
    for columns, ragged in blocks:
        label_cells = list(map(str.strip, columns[label_at]))
        read = [_parse(columns[at], j in text_cells) for j, at in enumerate(feature_at)]
        empty = {i for cells in (label_cells, *read) if isinstance(cells, list) and "" in cells
                 for i, cell in enumerate(cells) if not cell}
        if empty and not drop_incomplete:
            raise DataError(f"row {r + min(empty)} has an empty cell")
        if empty:    # the kept rows read again, as a read without the others reads them
            dropped += sorted(r + i for i in empty)
            keep = [i not in empty for i in range(len(label_cells))]
            label_cells = list(compress(label_cells, keep))
            read = [_parse(list(compress(columns[at], keep)), j in text_cells)
                    for j, at in enumerate(feature_at)]
        k = len(label_cells)
        for j, cells in enumerate(read):
            if not isinstance(cells, list):
                floats[j, n:n + k] = cells
                continue
            if j not in text_cells:    # a cell is no number: the feature turns to text
                text_cells[j] = []
                if n:
                    late.add(j)
            if j not in late:
                text_cells[j] += cells
        label += label_cells
        n, r = n + k, r + len(columns[0])
        if ragged:
            raise DataError(ragged[1])
    if not r:
        raise DataError("no complete data rows")
    gone = set(dropped)
    if dropped:
        warnings.warn(f"dropped {len(dropped)} incomplete row(s): {dropped[:10]}", stacklevel=3)
        if not n:
            raise DataError("no complete data rows")
    for j in late:
        text_cells[j] = list(map(str.strip, column_cells(text, feature_at[j], gone)))
    return floats[:, :n], text_cells, label, gone


def _parse(raw: list[str], text: bool):
    """One column of a block, as read_column reads it: a float64 array,
    if the column is not text and every cell is a number, or else its
    stripped cells."""
    if not text:
        try:    # every cell a number, read_column's first try, the common case
            return np.fromiter(map(float, raw), np.float64, len(raw))
        except ValueError:
            pass
    x, cells = read_column(raw, text)
    return cells if x is None else np.array(x, dtype=np.float64)


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
