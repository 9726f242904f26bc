"""Dataset loading and validation.

A dataset is a small table of named features plus a binary label per
row.  Features come in three kinds: quantitative (floats), boolean
(0/1), and nominal (unordered category strings).  Kinds are inferred
from the values unless overridden by the caller.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

KINDS = ("quantitative", "boolean", "nominal")


@dataclass(frozen=True)
class FeatureSpec:
    """Name and kind of one feature column."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")


@dataclass
class Dataset:
    """Feature columns plus a binary label vector.

    Rows hold python values per feature: float for quantitative, int 0/1
    for boolean, str for nominal.  Labels are a uint8 vector of 0s and 1s.
    """

    features: list[FeatureSpec]
    rows: list[tuple]
    labels: np.ndarray
    label_name: str = "label"
    class_names: tuple[str, str] = ("0", "1")

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        if self.label_name in names:
            raise DataError(f"label column {self.label_name!r} collides with a feature")
        if len(self.rows) != len(self.labels):
            raise DataError(
                f"{len(self.rows)} rows but {len(self.labels)} labels"
            )
        if len(self.rows) < 2:
            raise DataError("need at least two rows")
        for r, row in enumerate(self.rows):
            if len(row) != len(self.features):
                raise DataError(f"row {r} has {len(row)} values, expected {len(self.features)}")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise DataError("labels must be 0 or 1")
        c0, c1 = self.class_counts()
        if c0 == 0 or c1 == 0:
            empty = self.class_names[0] if c0 == 0 else self.class_names[1]
            raise DataError(f"class {empty!r} has no rows")
        self._warn_contradictions()

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.features)

    def class_counts(self) -> tuple[int, int]:
        c1 = int(self.labels.sum())
        return len(self.labels) - c1, c1

    def column(self, index: int) -> list:
        return [row[index] for row in self.rows]

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise DataError(f"no feature named {name!r}")

    def _warn_contradictions(self) -> None:
        seen: dict[tuple, tuple[int, int]] = {}
        flagged = []
        for r, row in enumerate(self.rows):
            y = int(self.labels[r])
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


def _parse_column(raw: Sequence[str], name: str, kind: str | None):
    """Parse one column's cells once, inferring its kind unless given.

    Returns the kind, the typed values, and the column's first bad cell
    as (row, message) or None.  Only a column with a bad cell is read
    again, cell by cell, to find it.
    """
    if kind == "nominal":
        return kind, raw, None
    try:
        x = list(map(float, raw))
    except ValueError:
        if kind is None:
            return "nominal", raw, None
    else:
        bits = set(x) <= {0.0, 1.0}
        kind = kind or ("boolean" if bits else "quantitative")
        if kind == "boolean" and bits:
            return kind, list(map(int, x)), None
        if kind == "quantitative" and all(map(math.isfinite, x)):
            return kind, x, None
    for row, cell in enumerate(raw):
        where = f"feature {name!r}, row {row}"
        try:
            v = float(cell)
        except ValueError:
            return kind, None, (row, f"{where}: {cell!r} is not numeric")
        if kind == "boolean" and v not in (0.0, 1.0):
            return kind, None, (row, f"{where}: {cell!r} is not 0/1")
        if kind == "quantitative" and not math.isfinite(v):
            return kind, None, (row, f"{where}: non-finite value {cell!r}")


def load_csv(
    source,
    label_column: str = "label",
    kinds: Mapping[str, str] | None = None,
    class_names: Sequence[str] | None = None,
    drop_incomplete: bool = False,
) -> Dataset:
    """Read a dataset from a CSV path, file object, or literal text.

    The header row names the columns.  `label_column` selects the label;
    its values must be the two class names (default "0" and "1", or the
    pair given in `class_names`, first name = class 0).  `kinds` overrides
    inferred kinds per feature name.  Incomplete rows (empty cells) are an
    error unless `drop_incomplete` is set, which discards them with a
    warning.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    reader = csv.reader(io.StringIO(text))
    table = [row for row in reader if row]
    if not table:
        raise DataError("empty CSV")
    header = [h.strip() for h in table[0]]
    if label_column not in header:
        raise DataError(f"no column named {label_column!r} in header {header}")
    label_at = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_at]

    body = []
    dropped = []
    for r, row in enumerate(table[1:]):
        if len(row) != len(header):
            raise DataError(f"row {r} has {len(row)} cells, expected {len(header)}")
        cells = [c.strip() for c in row]
        if any(c == "" for c in cells):
            if drop_incomplete:
                dropped.append(r)
                continue
            raise DataError(f"row {r} has an empty cell")
        body.append(cells)
    if dropped:
        warnings.warn(f"dropped {len(dropped)} incomplete row(s): {dropped[:10]}")
    if not body:
        raise DataError("no complete data rows")

    if class_names is None:
        names = ("0", "1")
    else:
        names = tuple(class_names)
        if len(names) != 2 or names[0] == names[1]:
            raise DataError(f"class_names must be two distinct names, got {names!r}")
    columns = list(zip(*body))
    labels = []
    for r, raw in enumerate(columns.pop(label_at)):
        if raw not in names:
            raise DataError(
                f"row {r}: label {raw!r} is not one of {names!r}"
            )
        labels.append(names.index(raw))

    kinds = dict(kinds or {})
    for name in kinds:
        if name not in feature_names:
            raise DataError(f"kind override for unknown feature {name!r}")
        if kinds[name] not in KINDS:
            raise DataError(f"unknown kind {kinds[name]!r} for feature {name!r}")

    parsed = [
        _parse_column(raw, name, kinds.get(name))
        for raw, name in zip(columns, feature_names)
    ]
    bad = [cell for _, _, cell in parsed if cell]
    if bad:    # the lowest row, then the earliest feature
        raise DataError(min(bad, key=lambda cell: cell[0])[1])
    features = [
        FeatureSpec(name, kind) for name, (kind, _, _) in zip(feature_names, parsed)
    ]
    rows = list(zip(*(values for _, values, _ in parsed))) or [()] * len(body)
    return Dataset(
        features=features,
        rows=rows,
        labels=np.array(labels, dtype=np.uint8),
        label_name=label_column,
        class_names=names,
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
