"""Per-feature binary encoders.

Each feature is reduced to one bit before training.  Quantitative
features get a threshold u and a polarity h chosen to minimize the
standalone misclassification count e against the labels: the encoded
bit is h when the value exceeds u and 1-h otherwise.  Boolean features
keep identity or complement, nominal features become the best
one-vs-rest indicator.

A feature whose best encoder is no better than always predicting the
majority class carries no standalone signal.  It is marked degenerate
with e equal to the minority class count, and refuses to encode.  The
comparison is strict: an encoder that merely ties the majority-class
error is kept, since it can still pay off in combination with others.

Applying an encoder needs no numpy: `encode_value` maps one value and
`encode_bits` a whole column to an int bitset, which is all a trained
rule needs to classify.  `encode_bits` is the one column encoder:
`encode_dataset` also uses it, and lays each active column's bitset out
as the packed uint64 words that training scores.  Fitting and
`encode_dataset` import numpy when they are first called.

`read_text`, `read_table`, `read_column` and `parse_column` read the
CSV cells that both `data.load_csv` and `mofn classify` encode, so the
two accept the same cells and name the same first bad one.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import eq, gt
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DataError, EncodingError

if TYPE_CHECKING:
    import numpy as np

    from .data import Dataset

__all__ = [
    "Encoder",
    "EncodedDataset",
    "fit_quantitative",
    "fit_boolean",
    "fit_nominal",
    "fit_feature",
    "encode_dataset",
]


@dataclass(frozen=True)
class Encoder:
    """Fitted one-bit encoder for a single feature."""

    feature: str
    kind: str
    polarity: int = 1
    threshold: float | None = None
    category: str | None = None
    error: int | None = None
    degenerate: bool = False

    def __call__(self, value) -> int:
        return encode_value(self, value)


def encode_value(enc: Encoder, value) -> int:
    """Map one raw value to its bit.  Degenerate encoders refuse."""
    if enc.degenerate:
        raise EncodingError(
            f"feature {enc.feature!r} is degenerate and cannot be encoded"
        )
    if enc.kind == "quantitative":
        try:
            v = float(value)
        except (TypeError, ValueError):
            raise EncodingError(f"feature {enc.feature!r}: {value!r} is not numeric") from None
        if not math.isfinite(v):
            raise EncodingError(f"feature {enc.feature!r}: non-finite value {value!r}")
        return enc.polarity if v > enc.threshold else 1 - enc.polarity
    if enc.kind == "boolean":
        if value not in (0, 1, 0.0, 1.0, False, True):
            raise EncodingError(f"feature {enc.feature!r}: {value!r} is not 0/1")
        bit = int(value)
        return bit if enc.polarity else 1 - bit
    if enc.kind == "nominal":
        bit = int(value == enc.category)
        return bit if enc.polarity else 1 - bit
    raise EncodingError(f"feature {enc.feature!r}: unknown kind {enc.kind!r}")


# bytes of 0/1 flags to binary digits, for polarity 0 and for polarity 1
_DIGITS = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))


def encode_bits(enc: Encoder, values) -> int:
    """encode_value over a column, packed into an int: bit r is the bit
    of values[r].  The values are Python floats, 0/1 for a boolean
    feature, or strings for a nominal feature."""
    if enc.degenerate:
        raise EncodingError(
            f"feature {enc.feature!r} is degenerate and cannot be encoded"
        )
    if enc.kind == "quantitative":
        if not all(map(math.isfinite, values)):
            raise EncodingError(f"feature {enc.feature!r}: non-finite values")
        flags = map(gt, values, repeat(enc.threshold))
    elif enc.kind == "boolean":
        if not set(values) <= {0, 1}:
            raise EncodingError(f"feature {enc.feature!r}: values are not all 0/1")
        flags = map(eq, values, repeat(1))
    else:
        flags = map(eq, values, repeat(enc.category))
    digits = bytes(flags).translate(_DIGITS[enc.polarity])
    return int(digits[::-1] or b"0", 2)


def read_text(source) -> str:
    """The text of a CSV path, file object, or literal text.  A string
    without a newline is a path; a file that is missing, or that cannot
    be read or decoded as text, is a DataError."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        try:
            return Path(source).read_text()
        except FileNotFoundError:
            raise DataError(
                f"no such file: {str(source)!r} (CSV text given as a string "
                "must contain a newline)"
            ) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {str(source)!r}: {exc}") from None
    if isinstance(source, str):
        return source
    return source.read()


def read_table(text: str):
    """CSV text as (stripped header, raw cells of each column, ragged),
    blank lines skipped and not counted.  The columns stop above the
    first row whose width differs from the header's, and `ragged` is its
    error as (row, message), or None.  The row lists are freed on return,
    so the garbage collector does not walk them while columns are parsed."""
    reader = csv.reader(io.StringIO(text))
    try:
        table = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    if not table:
        raise DataError("empty CSV")
    header = [h.strip() for h in table[0]]
    body = table[1:]
    ragged = None
    if set(map(len, body)) - {len(header)}:
        r = next(r for r, row in enumerate(body) if len(row) != len(header))
        ragged = (r, f"row {r} has {len(body[r])} cells, expected {len(header)}")
        del body[r:]
    return header, list(zip(*body)) or [()] * len(header), ragged


def read_column(raw: Sequence[str], nominal: bool):
    """One CSV column as (floats, cells).  A column not declared nominal
    is tried as numbers first: float() skips the same whitespace as
    strip(), but for the separators \\x1c-\\x1f, and rejects an empty
    cell, so a column that parses has no empty cell and needs no strip.
    Otherwise the cells are stripped and tried again; floats is None if
    some cell is still not a number."""
    if nominal:
        return None, list(map(str.strip, raw))
    try:
        return list(map(float, raw)), raw
    except ValueError:
        cells = list(map(str.strip, raw))
    try:
        return list(map(float, cells)), cells
    except ValueError:
        return None, cells


def parse_column(
    cells: Sequence[str], x: list[float] | None, name: str, kind: str | None
):
    """Type one column, inferring its kind unless given.

    `x` is the column as floats, or None if some cell is not numeric.
    Returns the kind, the typed values, and the column's first bad cell
    as (row, message) or None.  Only a column with a bad cell is read
    again, cell by cell, to find it.
    """
    if kind == "nominal" or (kind is None and x is None):
        return "nominal", cells, None
    if x is not None:
        bits = x.count(0.0) + x.count(1.0) == len(x)
        kind = kind or ("boolean" if bits else "quantitative")
        if kind == "boolean" and bits:
            return kind, list(map(int, x)), None
        if kind == "quantitative" and all(map(math.isfinite, x)):
            return kind, x, None
    for row, cell in enumerate(map(str.strip, cells)):
        where = f"feature {name!r}, row {row}"
        try:
            v = float(cell)
        except ValueError:
            return kind, None, (row, f"{where}: {cell!r} is not numeric")
        if kind == "boolean" and v not in (0.0, 1.0):
            return kind, None, (row, f"{where}: {cell!r} is not 0/1")
        if kind == "quantitative" and not math.isfinite(v):
            return kind, None, (row, f"{where}: non-finite value {cell!r}")


def _check_inputs(values, labels, feature: str) -> np.ndarray:
    import numpy as np

    y = np.asarray(labels, dtype=np.uint8)
    if len(values) != len(y):
        raise EncodingError(
            f"feature {feature!r}: {len(values)} values but {len(y)} labels"
        )
    if len(y) < 2:
        raise EncodingError(f"feature {feature!r}: need at least two rows")
    return y


def _degenerate(feature: str, kind: str, y: np.ndarray) -> Encoder:
    c1 = int(y.sum())
    return Encoder(
        feature=feature,
        kind=kind,
        degenerate=True,
        error=min(len(y) - c1, c1),
    )


def fit_quantitative(values, labels, feature: str = "") -> Encoder:
    """Scan all interval boundaries for the (u, h) of least error.

    Each boundary lies between two consecutive distinct sorted values lo
    and hi.  Its threshold u is their midpoint (lo + hi) / 2, or
    lo / 2 + hi / 2 where the sum overflows, so u stays finite, and lo
    where the midpoint rounds to hi, so hi stays above it.  Of the
    candidates (u, h) over every boundary and both polarities, the first
    in the order (error, -gap, u, h), gap = hi - lo, is taken: least
    error, then the widest gap, then the smallest threshold, then h=0.
    """
    import numpy as np

    v = np.asarray(values, dtype=float)
    y = _check_inputs(v, labels, feature)
    if not np.all(np.isfinite(v)):
        raise EncodingError(f"feature {feature!r}: non-finite values")

    order = np.argsort(v)    # the order of equal values does not matter:
    sv, sy = v[order], y[order]    # boundaries only fall between distinct ones
    distinct = np.nonzero(sv[1:] > sv[:-1])[0]    # boundary after sorted index i
    if len(distinct) == 0:
        return _degenerate(feature, "quantitative", y)

    total1 = int(sy.sum())
    n = len(sy)
    ones_below = np.cumsum(sy, dtype=np.int64)[distinct]    # labels 1 with value <= u
    count_below = distinct + 1
    # h=1: predict 1 above u, 0 at or below; errors = 1s below + 0s above
    e_h1 = ones_below + (n - count_below) - (total1 - ones_below)
    e_h0 = n - e_h1
    with np.errstate(over="ignore"):    # an infinite gap is the widest
        gaps = sv[distinct + 1] - sv[distinct]
    # The order (error, -gap, u, h) as a chain of masks.  Thresholds
    # strictly increase with the boundary, so the first boundary left
    # has the smallest u, and only its two polarities can still tie.
    error = int(min(e_h0.min(), e_h1.min()))
    least = (e_h0 == error) | (e_h1 == error)
    b = int(np.argmax(least & (gaps == gaps[least].max())))
    h = 0 if e_h0[b] == error else 1
    if error > min(n - total1, total1):
        return _degenerate(feature, "quantitative", y)
    lo, hi = float(sv[distinct[b]]), float(sv[distinct[b] + 1])
    u = (lo + hi) / 2.0
    if math.isinf(u):    # the sum overflowed
        u = lo / 2 + hi / 2
    if u == hi:    # adjacent floats: the bit is v > u
        u = lo
    return Encoder(
        feature=feature, kind="quantitative", polarity=h, threshold=u, error=error,
    )


def fit_boolean(values, labels, feature: str = "") -> Encoder:
    """Pick identity or complement, whichever matches the labels better."""
    import numpy as np

    v = np.asarray(values)
    y = _check_inputs(v, labels, feature)
    if not set(np.unique(v)) <= {0, 1, False, True}:
        raise EncodingError(f"feature {feature!r}: values are not all 0/1")
    bits = v.astype(np.uint8)
    if bits.min() == bits.max():
        return _degenerate(feature, "boolean", y)
    e_identity = int(np.sum(bits != y))
    e_complement = len(y) - e_identity
    h, e = (1, e_identity) if e_identity <= e_complement else (0, e_complement)
    c1 = int(y.sum())
    if e > min(len(y) - c1, c1):
        return _degenerate(feature, "boolean", y)
    return Encoder(feature=feature, kind="boolean", polarity=h, error=e)


def fit_nominal(values, labels, feature: str = "") -> Encoder:
    """Best one-vs-rest indicator over the observed categories.

    Ties are broken toward the category seen first and identity polarity.
    """
    y = _check_inputs(values, labels, feature)
    rows = Counter(values)    # category -> rows, first seen first
    ones = Counter(compress(values, y.tolist()))    # category -> rows labelled 1
    cats = list(rows)
    if len(cats) < 2:
        return _degenerate(feature, "nominal", y)
    n, c1 = len(y), int(y.sum())
    keys = []
    for ci, cat in enumerate(cats):
        e_identity = rows[cat] - 2 * ones[cat] + c1    # 0s inside, 1s outside
        keys += [(e_identity, ci, 0), (n - e_identity, ci, 1)]
    e, ci, flip = min(keys)    # least error, first-seen category, h=1 before h=0
    if e > min(n - c1, c1):
        return _degenerate(feature, "nominal", y)
    return Encoder(
        feature=feature, kind="nominal", polarity=1 - flip, category=cats[ci], error=e,
    )


def fit_feature(values, labels, kind: str, feature: str = "") -> Encoder:
    if kind == "quantitative":
        return fit_quantitative(values, labels, feature)
    if kind == "boolean":
        return fit_boolean(values, labels, feature)
    if kind == "nominal":
        return fit_nominal(values, labels, feature)
    raise EncodingError(f"feature {feature!r}: unknown kind {kind!r}")


@dataclass
class EncodedDataset:
    """The packed training bits of a dataset, one encoder per feature.

    Bits are packed into uint64 words, row r at bit r % 64 of word
    r // 64, with the tail bits zero.  `features` holds one row of words
    per active feature, in the order of `active`; degenerate features
    are left out of both, and training only draws inputs from them.
    `ones` has a bit set for every row, and `feature_errors` is each
    active feature's error, the popcount of its words XOR the labels.
    """

    encoders: list[Encoder]
    features: np.ndarray    # (len(active), words) uint64
    labels: np.ndarray      # (words,) uint64
    ones: np.ndarray        # (words,) uint64
    active: list[int]
    feature_names: list[str]

    @property
    def errors(self) -> list[int]:
        return [enc.error for enc in self.encoders]

    @cached_property
    def feature_errors(self) -> np.ndarray:
        import numpy as np

        return np.bitwise_count(self.features ^ self.labels).sum(axis=-1, dtype=np.int64)


def _pack_words(bits: int, n_rows: int) -> np.ndarray:
    """An n_rows-bit int bitset as uint64 words, bit r at bit r % 64 of
    word r // 64."""
    import numpy as np

    return np.frombuffer(bits.to_bytes(-(-n_rows // 64) * 8, "little"), "<u8")


def encode_dataset(ds: Dataset) -> EncodedDataset:
    """Fit every feature of a dataset and pack the active columns' bits."""
    import numpy as np

    encoders = [
        fit_feature(column, ds.labels, spec.kind, spec.name)
        for spec, column in zip(ds.features, ds.columns)
    ]
    active = [j for j, enc in enumerate(encoders) if not enc.degenerate]
    words = -(-ds.n // 64)
    features = np.array(
        [_pack_words(encode_bits(encoders[j], ds.columns[j]), ds.n) for j in active],
        dtype="<u8",
    ).reshape(len(active), words)
    labels = np.packbits(ds.labels, bitorder="little")
    return EncodedDataset(
        encoders=encoders,
        features=features,
        labels=_pack_words(int.from_bytes(labels.tobytes(), "little"), ds.n),
        ones=_pack_words((1 << ds.n) - 1, ds.n),
        active=active,
        feature_names=[f.name for f in ds.features],
    )
