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
rule needs to classify.  Training reads the checked (columns, rows)
arrays that `typed_block` builds, one per kind, and packs them into the
uint64 words it scores.  `encode_dataset` fits the columns of each
kind as (columns, rows) blocks; each kind's cuts also give the rows
inside the chosen cut, so every active column's bits are packed from
its own block.  Fitting and `encode_dataset` import numpy when they
are first called.

`read_file` reads every file, data, model, config or reference, as
UTF-8, dropping a leading byte order mark.  `read_blocks`, `read_column`
and `first_bad_cell` read the CSV cells that both `data.load_csv` and
`mofn classify` encode, so the two accept the same cells and name the
same first bad one.  `read_blocks` yields the rows a block at a time, a
block of at most _BLOCK_CELLS cells, so a reader holds the text and one
block's cells, not a list of every cell; `read_table`, which reads a
rendered grid, joins the blocks, and `column_cells` reads one column
again for `load_csv`.  CSV text without quotes, carriage returns or
NULs is split with str methods, a slice of the text at a time; only
other text goes through csv.reader, and both give the same table and
the same errors.
"""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import eq, gt
from pathlib import Path

from .errors import DataError, EncodingError, MofnError
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


@record
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
    """Map one raw value to its bit.  Degenerate encoders refuse, and a
    nominal encoder refuses an empty value."""
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
        if value == "":
            raise EncodingError(f"feature {enc.feature!r}: empty value")
        bit = int(value == enc.category)
        return bit if enc.polarity else 1 - bit
    raise EncodingError(f"feature {enc.feature!r}: unknown kind {enc.kind!r}")


# bytes of 0/1 flags to binary digits, for polarity 0 and for polarity 1
_DIGITS = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))


def encode_bits(enc: Encoder, values) -> int:
    """encode_value over a column, packed into an int: bit r is the bit
    of values[r].  The values are Python floats, 0/1 for a boolean
    feature, or non-empty strings for a nominal feature."""
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
        if "" in values:
            raise EncodingError(f"feature {enc.feature!r}: values include an empty one")
        flags = map(eq, values, repeat(enc.category))
    digits = bytes(flags).translate(_DIGITS[enc.polarity])
    return int(digits[::-1] or b"0", 2)


def read_file(path, error_class: type[MofnError], role: str) -> str:
    """The UTF-8 text of a file, without the byte order mark that
    spreadsheet programs write at its start, as the utf-8-sig codec reads
    it; one that is missing, or cannot be read or decoded, is an
    error_class error naming the file's role."""
    try:
        # removeprefix, not the utf-8-sig codec, whose module every run would import
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except FileNotFoundError:
        raise error_class(f"{role} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error_class(f"{role} file {path}: {exc}") from None


def read_text(source) -> str:
    """The text of a CSV path, file object, or literal text.  A Path is
    a path, and so is a str without a newline; read_file reads it, so a
    data file that is missing or unreadable is a DataError."""
    if isinstance(source, Path) or isinstance(source, str) and "\n" not in source:
        return read_file(source, DataError, "data")
    if isinstance(source, str):
        return source
    return source.read()


# A block of rows holds at most this many cells (or one row): a block of
# a w-column file is max(1, _BLOCK_CELLS // w) records, so what a reader
# holds of one block stays a few MB however long the file is.
_BLOCK_CELLS = 1 << 15


def _split_lines(chunk: list[str]):
    """Lines of plain text as (width of each record, all their cells in
    one list): the cells are the text between the commas."""
    widths = [commas + 1 for commas in map(str.count, chunk, repeat(","))]
    return widths, ",".join(chunk).split(",")


def _line_records(text: str):
    """Text with no quote, no carriage return and no NUL, read as
    csv.reader reads it: every non-blank line is a record.  Returns (at
    least the number of records, and 0 only if there is none, an iterator
    over them, _split_lines).  A field over the csv field limit is
    refused, as csv.reader refuses it, before any record is read."""
    limit = csv.field_size_limit()
    at = 0
    while len(text) - at > limit:    # only a line over the limit can hold such a field
        end = text.rfind("\n", at, at + limit + 1)    # the lines up to it are short enough
        if end < 0:    # the line at `at` is longer than the limit
            end = _line_end(text, at)
            if max(map(len, text[at:end].split(","))) > limit:
                number = text.count("\n", 0, at) + 1
                raise DataError(f"CSV line {number}: field larger than field limit ({limit})")
        at = end + 1
    lines = text.count("\n")
    records = filter(None, chain.from_iterable(_line_chunks(text)))    # blank lines hold none
    return lines + 1 if len(text) > lines else 0, records, _split_lines


def _line_end(text: str, at: int) -> int:
    """Where the line that holds position `at` ends: its newline, or the
    end of the text."""
    end = text.find("\n", at)
    return len(text) if end < 0 else end


def _line_chunks(text: str):
    """The lines of text, as text.split("\\n") gives them, in lists split
    from about _BLOCK_CELLS characters at a time, so that the lines of
    the whole text are never held at once."""
    at = 0
    while at <= len(text):
        end = text.rfind("\n", at, at + _BLOCK_CELLS)
        if end < 0:    # no line ends within reach
            end = _line_end(text, at + _BLOCK_CELLS)
        yield text[at:end].split("\n")
        at = end + 1


def _split_rows(chunk: list[list[str]]):
    """csv.reader records as (widths, cells) like _split_lines."""
    return list(map(len, chunk)), list(chain.from_iterable(chunk))


def _csv_records(text: str):
    """Any text, read by csv.reader, as (count, records, _split_rows) like
    _line_records.  A first pass reads the whole text, so that text csv
    cannot read is refused before any record is read."""
    reader = csv.reader(io.StringIO(text))
    try:
        count = sum(1 for row in reader if row)
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    return count, filter(None, csv.reader(io.StringIO(text))), _split_rows


def read_blocks(text: str):
    """CSV text as (stripped header, most, blocks), blank lines skipped
    and not counted; `most` is at least the number of data rows.
    `blocks` yields (columns, ragged) for each block of up to
    max(1, _BLOCK_CELLS // width) records: the raw cells of each column,
    and None.  At the first row whose width differs from the header's,
    the block's columns stop above that row, `ragged` is its error as
    (row, message), and no block follows.  A syntax error is raised
    before the header is returned, so a reader that stops at a bad cell
    or a ragged row reports what a whole read reports.

    Text with no `"`, no `\\r` and no NUL is split on newlines and
    commas with str methods; any other text goes through csv.reader.
    Either way a block's cells come as one flat list, and each column is
    a slice of it.  The text is read again by each call."""
    plain = not ('"' in text or "\r" in text or "\0" in text)
    count, records, split = (_line_records if plain else _csv_records)(text)
    if not count:
        raise DataError("empty CSV")
    header = split([next(records)])[1]
    return [h.strip() for h in header], count - 1, _blocks(records, split, len(header))


def _blocks(records, split, w: int):
    """The blocks of read_blocks, from records after the header."""
    step = max(1, _BLOCK_CELLS // w)
    r = 0    # the data rows of the blocks before this one
    while chunk := list(islice(records, step)):
        widths, cells = split(chunk)
        n, ragged = len(widths), None
        if widths.count(w) != n:
            n = next(k for k, width in enumerate(widths) if width != w)
            ragged = (r + n, f"row {r + n} has {widths[n]} cells, expected {w}")
        yield [cells[j:n * w:w] for j in range(w)], ragged    # rows above n have w cells
        if ragged:
            return
        r += n


def read_table(text: str):
    """CSV text as (stripped header, raw cells of each column, ragged):
    the blocks of read_blocks joined, and the last block's ragged."""
    header, _, blocks = read_blocks(text)
    columns, ragged = [[] for _ in header], None
    for block, ragged in blocks:
        for column, cells in zip(columns, block):
            column += cells
    return header, columns, ragged


def column_cells(text: str, at: int, skip=frozenset()) -> list[str]:
    """The raw cells of column `at` of CSV text, in the rows above a
    ragged one but for the rows in `skip`: one column read again, whole,
    by a reader that no longer holds its earlier blocks."""
    cells = [cell for block, _ in read_blocks(text)[2] for cell in block[at]]
    return [cell for r, cell in enumerate(cells) if r not in skip] if skip else cells


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


def first_bad_cell(cells: Sequence[str], name: str, kind: str, start: int = 0):
    """The first cell of a column that its kind cannot hold, as (row,
    message), or None: an empty cell of any kind, or a quantitative or
    boolean one that is no finite number or no 0/1.  The cells are rows
    `start` on.  It reads every cell again, so it is run only on a column
    already known to hold a bad one."""
    for row, cell in enumerate(map(str.strip, cells), start):
        where = f"feature {name!r}, row {row}"
        if not cell:
            return row, f"{where}: empty cell"
        if kind == "nominal":
            continue
        try:
            v = float(cell)
        except ValueError:
            return row, f"{where}: {cell!r} is not numeric"
        if kind == "boolean" and v not in (0.0, 1.0):
            return row, f"{where}: {cell!r} is not 0/1"
        if kind == "quantitative" and not math.isfinite(v):
            return row, f"{where}: non-finite value {cell!r}"
    return None


def typed_block(columns, kind: str, features: Sequence[str]) -> np.ndarray:
    """F columns of one kind, n values each, as the read-only (F, n)
    array their cuts read: finite float64 for quantitative, 0/1 uint8 for
    boolean, an object array of non-empty Python str for nominal, numpy
    strings converted.  Values the kind cannot hold are an EncodingError
    naming the first feature whose column, typed alone, holds one; its
    `features` are every such feature of the block, in order.  A block of
    numbers names them from one test of every row; only a nominal block,
    or one that holds some value that is no number, types each column
    alone."""
    import numpy as np

    ok = None    # of a block of numbers, which columns the kind can hold
    try:
        if kind == "nominal":    # each cell's type: a numpy string equals its str
            types = set(map(type, chain.from_iterable(columns)))
            if not all(issubclass(t, str) for t in types):
                raise EncodingError("values are not all strings")
            if types != {str}:
                columns = [list(map(str, column)) for column in columns]
            block = np.array(columns, dtype=object)
            if "" in block:
                raise EncodingError("values include an empty one")
        elif kind == "quantitative":
            try:
                block = np.array(columns, dtype=np.float64)
            except (TypeError, ValueError):
                raise EncodingError("values are not all numeric") from None
            ok, message = np.isfinite(block).all(axis=1), "non-finite values"
        else:
            block = np.asarray(columns)
            if block.dtype.kind not in "buif":
                raise EncodingError("values are not all 0/1")
            ok, message = ((block == 0) | (block == 1)).all(axis=1), "values are not all 0/1"
    except EncodingError as exc:
        if len(columns) == 1:
            raise _refusal(str(exc), features) from None
        errors = []
        for values, feature in zip(columns, features):
            try:
                typed_block([values], kind, [feature])
            except EncodingError as one:
                errors.append(one)
        if not errors:
            raise
        errors[0].features = tuple(feature for one in errors for feature in one.features)
        raise errors[0] from None
    if ok is not None and not ok.all():
        raise _refusal(message, list(compress(features, (~ok).tolist())))
    if kind == "boolean":
        block = block.astype(np.uint8)
    block.flags.writeable = False
    return block


def _refusal(message: str, features: Sequence[str]) -> EncodingError:
    """The error of typed_block that names the first refused feature, and
    all of them in `features`."""
    refused = EncodingError(f"feature {features[0]!r}: {message}")
    refused.features = tuple(features)
    return refused


def _best_cut(inside, ones, y: np.ndarray, rank=None):
    """The best candidate cut of each of F columns, as (cut, bit inside,
    error, degenerate) arrays of length F.

    Cut c of column f puts inside[f, c] rows inside, ones[f, c] of them
    labelled 1: reading 1 inside errs on e = inside - 2 * ones + P rows,
    reading 0 on n - e.  `rank` broadcasts like them.  Least error
    wins, then lowest rank, then the first cut, then bit 1 inside.  A column whose cuts
    all put every row or none inside, or whose best cut errs on more
    rows than its minority class holds, is degenerate: its error is the
    minority count."""
    import numpy as np

    n, p = len(y), int(np.count_nonzero(y))
    floor = min(p, n - p)
    e1 = inside - 2 * ones + p    # reading 1 inside
    splits = (inside > 0) & (inside < n)
    e = np.where(splits, np.minimum(e1, n - e1), n + 1)    # n + 1: more than any cut errs on
    error = e.min(axis=1)
    least = e == error[:, None]
    if rank is not None:
        least &= rank == rank.min(axis=1, where=least, initial=np.inf, keepdims=True)
    cut = least.argmax(axis=1)
    bit = (e1[np.arange(len(cut)), cut] == error).astype(np.int64)
    degenerate = error > floor
    return cut, bit, np.where(degenerate, floor, error), degenerate


def _quantitative_cuts(block: np.ndarray, y: np.ndarray):
    """The cuts of F columns of n values, as (F, n - 1) arrays: cut c of
    a row puts its sorted values 0..c inside (so h = 1 - bit), or no row
    where values c and c + 1 are equal, and ranks the widest gap first.
    Its u is (lo + hi) / 2, lo / 2 + hi / 2 where the sum overflows, or
    lo where the midpoint rounds to hi, so that lo <= u < hi: the rows
    inside are those at or below lo, value c."""
    import numpy as np

    order = np.argsort(block, axis=1)    # the order of equal values does not matter:
    sv = np.take_along_axis(block, order, axis=1)    # boundaries fall between distinct ones
    ones = np.cumsum(y[order], axis=1, dtype=np.int64)[:, :-1]
    inside = np.where(sv[:, 1:] > sv[:, :-1], np.arange(1, len(y)), 0)
    with np.errstate(over="ignore"):    # an infinite gap is the widest
        rank = sv[:, :-1] - sv[:, 1:]

    def fields(f: int, c: int, bit: int) -> tuple:
        lo, hi = float(sv[f, c]), float(sv[f, c + 1])
        u = (lo + hi) / 2.0
        if math.isinf(u):    # the sum overflowed
            u = lo / 2 + hi / 2
        return 1 - bit, lo if u == hi else u, None

    return inside, ones, rank, fields, lambda cut: block <= sv[np.arange(len(cut)), cut][:, None]


def _boolean_cuts(block: np.ndarray, y: np.ndarray):
    """One cut per column, the rows that are 1: identity reads 1 inside."""
    inside = block == 1
    return (inside.sum(axis=1, keepdims=True), inside[:, y == 1].sum(axis=1, keepdims=True),
            None, lambda f, c, bit: (bit, None, None), lambda cut: inside)


def _nominal_cuts(block: np.ndarray, y: np.ndarray):
    """A cut per category of each column, first seen first, as (F, C)
    arrays for the C categories of the column that has most: identity
    reads 1 inside.  A column's missing cuts put no row inside."""
    import numpy as np

    columns = block.tolist()
    cats = [list(dict.fromkeys(values)) for values in columns]
    k = max(map(len, cats))    # category c of column f is counted in slot f * k + c
    slot = np.array([[*map(dict(zip(c, count(f * k))).__getitem__, values)]
                     for f, (c, values) in enumerate(zip(cats, columns))], dtype=np.intp)
    inside, ones = (np.bincount(s.ravel(), minlength=len(cats) * k).reshape(-1, k)
                    for s in (slot, slot[:, y == 1]))
    return (inside, ones, None, lambda f, c, bit: (bit, None, cats[f][c]),
            lambda cut: slot == (np.arange(len(cut)) * k + cut)[:, None])


_CUTS = {"quantitative": _quantitative_cuts, "boolean": _boolean_cuts,
         "nominal": _nominal_cuts}
# The feature kinds.  `FeatureSpec`, `load_csv`, the model parser and
# `fit_feature` all check a kind against this one tuple.
KINDS = tuple(_CUTS)


def _fit_block(block: np.ndarray, y: np.ndarray, kind: str, features: Sequence[str]):
    """The encoders and (F, n) bits of F typed columns of one kind: the
    kind supplies every column's cuts, `_best_cut` picks one per column
    or finds it degenerate (whose bits mean nothing), and a row's bit is
    the bit inside where the chosen cut holds it, the other elsewhere.
    Each kind's `fields` gives (polarity, threshold, category)."""
    inside, ones, rank, fields, within = _CUTS[kind](block, y)
    cut, bit, error, degenerate = _best_cut(inside, ones, y, rank)
    encoders = [    # by position: a keyword record call costs more
        Encoder(name, kind, 1, None, None, e, True) if d
        else Encoder(name, kind, *fields(f, c, b), e, False)
        for f, (name, c, b, e, d) in enumerate(zip(
            features, cut.tolist(), bit.tolist(), error.tolist(), degenerate.tolist()))
    ]
    return encoders, within(cut) == bit[:, None]


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
    return _fit_block(typed_block([values], kind, [feature]), y, kind, [feature])[0][0]


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
    active feature's error as its encoder holds it, in `active` order.
    """

    encoders: list[Encoder]
    features: np.ndarray    # (len(active), words) uint64
    labels: np.ndarray      # (words,) uint64
    ones: np.ndarray        # (words,) uint64
    active: list[int]

    @property
    def errors(self) -> list[int]:
        return [enc.error for enc in self.encoders]

    @cached_property
    def feature_errors(self) -> np.ndarray:
        import numpy as np

        return np.array([self.encoders[j].error for j in self.active], dtype=np.int64)


def _pack_rows(flags: np.ndarray) -> np.ndarray:
    """(k, n) 0/1 flags as (k, words) uint64 words: flag r at bit r % 64
    of word r // 64, the tail bits zero."""
    import numpy as np

    k, n = flags.shape
    out = np.zeros((k, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(flags, axis=1, bitorder="little")
    return out.view("<u8")


# encode_dataset fits and packs columns in blocks of at most this many
# values (or one column), so that each of a block's (columns, rows)
# arrays stays at 128 kB or less however large the dataset.
_BLOCK_VALUES = 1 << 14


def encode_dataset(ds: Dataset) -> EncodedDataset:
    """Fit every feature of a dataset and pack the active columns' bits.

    The columns of each kind are fitted as (columns, rows) blocks of up
    to _BLOCK_VALUES values, and the bits of the active ones are packed
    from the rows inside each chosen cut."""
    import numpy as np

    encoders, words = {}, {}    # feature -> its encoder; active feature -> its packed words
    step = max(1, _BLOCK_VALUES // ds.n)
    for kind in KINDS:
        of_kind = [j for j, spec in enumerate(ds.features) if spec.kind == kind]
        for at in range(0, len(of_kind), step):
            columns = of_kind[at:at + step]
            fits, bits = _fit_block(np.stack([ds.columns[j] for j in columns]), ds.labels,
                                    kind, [ds.features[j].name for j in columns])
            live = [not enc.degenerate for enc in fits]
            words.update(zip(compress(columns, live), _pack_rows(bits[live])))
            encoders.update(zip(columns, fits))
    active = sorted(words)
    features = np.array([words[j] for j in active], dtype="<u8")
    return EncodedDataset(
        encoders=[encoders[j] for j in range(ds.m)],
        features=features.reshape(len(active), -(-ds.n // 64)),
        labels=_pack_rows(ds.labels[None])[0],
        ones=_pack_rows(np.ones((1, ds.n), dtype=bool))[0],
        active=active,
    )
