"""Per-feature binary encoders.

Each feature is reduced to one bit before training: a quantitative
feature by a threshold u and polarity h (the bit is h when the value
exceeds u, 1-h otherwise), a boolean one by identity or complement, a
nominal one by a one-vs-rest indicator.  Every kind is fitted by one
scorer, `_best_cut`, over a block of F columns: each kind only supplies
candidate cuts as (F, C) arrays of the rows inside and how many of them
are labelled 1, and `fit_feature` is a block of one column.

A feature that no cut splits, or whose best cut is worse than always
predicting the majority class, carries no standalone signal.  It is
marked degenerate with e equal to the minority class count, and
refuses to encode.  The comparison is strict: an encoder that merely
ties the majority-class error is kept, since it can still pay off in
combination with others.

Applying an encoder needs no numpy: `encode_value` maps one value and
`encode_bits` a whole column to an int bitset, which is all a trained
rule needs to classify.  Training packs its columns into the uint64
words it scores, laid out as `_pack_words` lays out an `encode_bits`
bitset.  `encode_dataset` fits a dataset's quantitative columns as
(columns, rows) blocks, each with one sort and one cumulative sum, and
packs their bits from the same blocks; boolean and nominal columns are
fitted one at a time and encoded by `encode_bits`.  Fitting and
`encode_dataset` import numpy when they are first called.

`read_text`, `read_table`, `read_column` and `parse_column` read the
CSV cells that both `data.load_csv` and `mofn classify` encode, so the
two accept the same cells and name the same first bad one.  CSV text
without quotes, carriage returns or NULs, and with no line over the
csv field limit, is split with str methods; only other text goes
through csv.reader, and both give the same table and the same errors.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, gt
from pathlib import Path

from .errors import DataError, EncodingError
from .record import record

TYPE_CHECKING = False    # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

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


@record(frozen=True)
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
        try:
            finite = all(map(math.isfinite, values))
        except TypeError:
            raise EncodingError(f"feature {enc.feature!r}: values are not all numeric") from None
        if not finite:
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


def _split_cells(text: str):
    """Text with no quote, no carriage return and no NUL, whose lines all
    fit the csv field limit, read as csv.reader reads it: every non-blank
    line is a record, and its cells are the text between its commas.
    Returns (width of each record, all their cells in one list), or None
    for text of another kind."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    records = list(filter(None, text.split("\n")))    # blank lines hold no record
    if max(map(len, records), default=0) > csv.field_size_limit():
        return None
    widths = [commas + 1 for commas in map(str.count, records, repeat(","))]
    return widths, ",".join(records).split(",")


def _csv_cells(text: str):
    """Any text read by csv.reader, as (widths, cells) like _split_cells."""
    reader = csv.reader(io.StringIO(text))
    try:
        records = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    return list(map(len, records)), list(chain.from_iterable(records))


def read_table(text: str):
    """CSV text as (stripped header, raw cells of each column, ragged),
    blank lines skipped and not counted.  The columns stop above the
    first row whose width differs from the header's, and `ragged` is its
    error as (row, message), or None.

    Text with no `"`, no `\\r`, no NUL and no line longer than
    csv.field_size_limit() is split on newlines and commas with str
    methods; any other text goes through csv.reader.  Either way the
    cells come as one flat list, and each column is a slice of it."""
    widths, cells = _split_cells(text) or _csv_cells(text)
    if not widths:
        raise DataError("empty CSV")
    w = widths[0]
    n = len(widths) - 1
    ragged = None
    if widths.count(w) != len(widths):
        n = next(r for r, width in enumerate(widths[1:]) if width != w)
        ragged = (n, f"row {n} has {widths[n + 1]} cells, expected {w}")
    header = [h.strip() for h in cells[:w]]
    end = (n + 1) * w    # the rows above the ragged one all have w cells
    return header, [cells[j:end:w] for j in range(w, 2 * w)], ragged


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
    if x is not None:    # most columns are ruled out by their first value, uncounted
        bits = not x or (x[0] in (0.0, 1.0) and x.count(0.0) + x.count(1.0) == len(x))
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


def _best_cut(inside, ones, y: np.ndarray, rank=None, valid=None):
    """The best candidate cut of each of F columns, as (cut, bit inside,
    error, degenerate) arrays of length F.

    Cut c of column f puts inside[f, c] rows inside, ones[f, c] of them
    labelled 1: reading 1 inside errs on e = inside - 2 * ones + P rows,
    reading 0 on n - e.  `valid` marks the cuts that exist (all, if
    None); `rank` broadcasts like them.  Least error wins, then lowest
    rank, then the first cut, then bit 1 inside.  A column whose cuts
    all put every row or none inside, or whose best cut errs on more
    rows than its minority class holds, is degenerate: its error is the
    minority count."""
    import numpy as np

    n, p = len(y), int(np.count_nonzero(y))
    floor = min(p, n - p)
    inside = np.asarray(inside, dtype=np.int64)
    e1 = inside - 2 * np.asarray(ones, dtype=np.int64) + p    # reading 1 inside
    splits = (inside > 0) & (inside < n)
    if valid is not None:
        splits = splits & valid
    e = np.where(splits, np.minimum(e1, n - e1), n + 1)    # n + 1: more than any cut errs on
    error = e.min(axis=1)
    least = e == error[:, None]
    if rank is not None:
        least &= rank == rank.min(axis=1, where=least, initial=np.inf, keepdims=True)
    cut = least.argmax(axis=1)
    bit = (e1[np.arange(len(cut)), cut] == error).astype(np.int64)
    degenerate = error > floor
    return cut, bit, np.where(degenerate, floor, error), degenerate


def _quantitative_cuts(block, y: np.ndarray, features: Sequence[str]):
    """The cuts of F columns of n values, as (F, n - 1) arrays: cut c of
    a row is the boundary between its sorted values c and c + 1, valid
    where they differ, with the lower c + 1 inside (so h = 1 - bit) and
    the widest gap ranked first.  Its u is (lo + hi) / 2, lo / 2 + hi /
    2 where the sum overflows, or lo where the midpoint rounds to hi, so
    that lo <= u < hi."""
    import numpy as np

    v = np.asarray(block, dtype=float)
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise EncodingError(f"feature {features[int(finite.argmin())]!r}: non-finite values")
    order = np.argsort(v, axis=1)    # the order of equal values does not matter:
    sv = np.take_along_axis(v, order, axis=1)    # boundaries fall between distinct ones
    ones = np.cumsum(y[order], axis=1, dtype=np.int64)[:, :-1]
    valid = sv[:, 1:] > sv[:, :-1]
    with np.errstate(over="ignore"):    # an infinite gap is the widest
        rank = sv[:, :-1] - sv[:, 1:]

    def fields(f: int, c: int, bit: int) -> dict:
        lo, hi = float(sv[f, c]), float(sv[f, c + 1])
        u = (lo + hi) / 2.0
        if math.isinf(u):    # the sum overflowed
            u = lo / 2 + hi / 2
        return {"polarity": 1 - bit, "threshold": lo if u == hi else u}

    return np.arange(1, len(y)), ones, rank, valid, fields


def _boolean_cuts(block, y: np.ndarray, features: Sequence[str]):
    """One cut of one column, the rows that are 1: identity reads 1 inside."""
    import numpy as np

    v = np.asarray(block[0])
    if not set(np.unique(v)) <= {0, 1, False, True}:
        raise EncodingError(f"feature {features[0]!r}: values are not all 0/1")
    inside = v == 1
    return [[inside.sum()]], [[y[inside].sum()]], None, None, lambda f, c, bit: {"polarity": bit}


def _nominal_cuts(block, y: np.ndarray, features: Sequence[str]):
    """A cut per category of one column, first seen first: identity
    reads 1 inside."""
    values = block[0]
    rows = Counter(values)    # category -> rows, first seen first
    ones = Counter(compress(values, y.tolist()))    # category -> rows labelled 1
    cats = list(rows)
    return ([list(rows.values())], [[ones[cat] for cat in cats]], None, None,
            lambda f, c, bit: {"polarity": bit, "category": cats[c]})


_CUTS = {"quantitative": _quantitative_cuts, "boolean": _boolean_cuts,
         "nominal": _nominal_cuts}
# The feature kinds.  `FeatureSpec`, `load_csv`, the model parser and
# `fit_feature` all check a kind against this one tuple.
KINDS = tuple(_CUTS)


def _fit_block(block, y: np.ndarray, kind: str, features: Sequence[str]) -> list[Encoder]:
    """Fit the encoders of F columns of one kind at once: the kind
    supplies every column's cuts, and `_best_cut` picks one per column
    or finds it degenerate."""
    inside, ones, rank, valid, fields = _CUTS[kind](block, y, features)
    cut, bit, error, degenerate = _best_cut(inside, ones, y, rank, valid)
    return [
        Encoder(feature=name, kind=kind, degenerate=True, error=e) if d
        else Encoder(feature=name, kind=kind, error=e, **fields(f, c, b))
        for f, (name, c, b, e, d) in enumerate(zip(
            features, cut.tolist(), bit.tolist(), error.tolist(), degenerate.tolist()))
    ]


def fit_feature(values, labels, kind: str, feature: str = "") -> Encoder:
    """Fit one column's encoder: a block of one column."""
    import numpy as np

    if kind not in _CUTS:
        raise EncodingError(f"feature {feature!r}: unknown kind {kind!r}")
    y = np.asarray(labels, dtype=np.uint8)
    if len(values) != len(y):
        raise EncodingError(f"feature {feature!r}: {len(values)} values but {len(y)} labels")
    if len(y) < 2:
        raise EncodingError(f"feature {feature!r}: need at least two rows")
    return _fit_block([values], y, kind, [feature])[0]


def fit_quantitative(values, labels, feature: str = "") -> Encoder:
    """The threshold u and polarity h of least error, the bit being h
    above u; ties go to the widest gap, then the smallest u, then h=0."""
    return fit_feature(values, labels, "quantitative", feature)


def fit_boolean(values, labels, feature: str = "") -> Encoder:
    """Identity or complement, whichever matches the labels better."""
    return fit_feature(values, labels, "boolean", feature)


def fit_nominal(values, labels, feature: str = "") -> Encoder:
    """The best one-vs-rest indicator over the observed categories."""
    return fit_feature(values, labels, "nominal", feature)


@record
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


def _pack_rows(flags: np.ndarray) -> np.ndarray:
    """(k, n) 0/1 flags as (k, words) uint64 words laid out as
    `_pack_words` lays out one bitset."""
    import numpy as np

    k, n = flags.shape
    out = np.zeros((k, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(flags, axis=1, bitorder="little")
    return out.view("<u8")


# encode_dataset fits and packs quantitative columns in blocks of at most
# this many values (or one column), so that each of a block's (columns,
# rows) arrays stays at 128 kB or less however large the dataset.
_BLOCK_VALUES = 1 << 14


def encode_dataset(ds: Dataset) -> EncodedDataset:
    """Fit every feature of a dataset and pack the active columns' bits.

    The quantitative columns are fitted as (columns, rows) blocks of up
    to _BLOCK_VALUES values, and the bits of the active ones are packed
    from the same block: h where the value exceeds u, 1 - h elsewhere.
    Each other column is fitted and encoded on its own, by `fit_feature`
    and `encode_bits`."""
    import numpy as np

    y = np.asarray(ds.labels, dtype=np.uint8)
    quantitative = [j for j, spec in enumerate(ds.features) if spec.kind == "quantitative"]
    encoders = [None] * ds.m
    words = {}    # active feature -> its packed words
    step = max(1, _BLOCK_VALUES // ds.n)
    for at in range(0, len(quantitative), step):
        columns = quantitative[at:at + step]
        block = np.array([ds.columns[j] for j in columns], dtype=float)
        fits = _fit_block(block, y, "quantitative", [ds.features[j].name for j in columns])
        live = [not enc.degenerate for enc in fits]
        u = np.array([enc.threshold for enc in compress(fits, live)])
        h = np.array([enc.polarity for enc in compress(fits, live)], dtype=bool)
        packed = _pack_rows((block[live] > u[:, None]) == h[:, None])
        words.update(zip(compress(columns, live), packed))
        for j, enc in zip(columns, fits):
            encoders[j] = enc
    for j, spec in enumerate(ds.features):
        if encoders[j] is None:
            enc = encoders[j] = fit_feature(ds.columns[j], y, spec.kind, spec.name)
            if not enc.degenerate:
                words[j] = _pack_words(encode_bits(enc, ds.columns[j]), ds.n)
    active = sorted(words)
    features = np.array([words[j] for j in active], dtype="<u8")
    return EncodedDataset(
        encoders=encoders,
        features=features.reshape(len(active), -(-ds.n // 64)),
        labels=_pack_rows(y[None])[0],
        ones=_pack_words((1 << ds.n) - 1, ds.n),
        active=active,
        feature_names=[f.name for f in ds.features],
    )
