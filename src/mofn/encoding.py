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
rule needs to classify.  Fitting and `encode_column` import numpy when
they are first called.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import eq, gt
from typing import TYPE_CHECKING

from .errors import EncodingError

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
        v = float(value)
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


def encode_column(enc: Encoder, values) -> np.ndarray:
    """Vectorized encode_value over a raw column."""
    import numpy as np

    if enc.degenerate:
        raise EncodingError(
            f"feature {enc.feature!r} is degenerate and cannot be encoded"
        )
    if enc.kind == "quantitative":
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise EncodingError(f"feature {enc.feature!r}: non-finite values")
        bits = v > enc.threshold
    elif enc.kind == "boolean":
        v = np.asarray(values)
        if not np.all((v == 0) | (v == 1)):
            raise EncodingError(f"feature {enc.feature!r}: values are not all 0/1")
        bits = v == 1
    else:
        bits = np.array([x == enc.category for x in values], dtype=bool)
    if enc.polarity:
        return bits.astype(np.uint8)
    return (~bits).astype(np.uint8)


# bytes of 0/1 flags to binary digits, for polarity 0 and for polarity 1
_DIGITS = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))


def encode_bits(enc: Encoder, values) -> int:
    """encode_column packed into an int, bit r for values[r].  The values
    are Python floats, or strings for a nominal feature."""
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
    where the midpoint rounds to hi, so hi stays above it.  The
    candidates (u, h) over every boundary and both polarities are sorted
    by (error, -gap, u, h), gap = hi - lo, and the first is taken: least
    error, then the widest gap, then the smallest threshold, then h=0.
    """
    import numpy as np

    v = np.asarray(values, dtype=float)
    y = _check_inputs(v, labels, feature)
    if not np.all(np.isfinite(v)):
        raise EncodingError(f"feature {feature!r}: non-finite values")

    order = np.argsort(v, kind="stable")
    sv, sy = v[order], y[order]
    distinct = np.nonzero(sv[1:] > sv[:-1])[0]    # boundary after sorted index i
    if len(distinct) == 0:
        return _degenerate(feature, "quantitative", y)

    total1 = int(sy.sum())
    n = len(sy)
    ones_below = np.cumsum(sy)[distinct]         # labels 1 with value <= u
    count_below = distinct + 1
    # h=1: predict 1 above u, 0 at or below; errors = 1s below + 0s above
    e_h1 = ones_below + (n - count_below) - (total1 - ones_below)
    lo, hi = sv[distinct], sv[distinct + 1]
    with np.errstate(over="ignore"):    # an infinite gap still sorts widest
        gaps, mids = hi - lo, (lo + hi) / 2.0
    mids = np.where(np.isinf(mids), lo / 2 + hi / 2, mids)    # the sum overflowed
    mids = np.where(mids == hi, lo, mids)    # adjacent floats: the bit is v > u
    errs = np.concatenate((n - e_h1, e_h1))    # every boundary at h=0, then h=1
    polarity = np.repeat((0, 1), len(mids))
    best = int(np.lexsort((polarity, np.tile(mids, 2), -np.tile(gaps, 2), errs))[0])
    h, b = divmod(best, len(mids))
    if errs[best] > min(n - total1, total1):
        return _degenerate(feature, "quantitative", y)
    return Encoder(
        feature=feature, kind="quantitative",
        polarity=h, threshold=float(mids[b]), error=int(errs[best]),
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
    pairs = Counter(zip(values, y.tolist()))    # (category, label) -> rows
    cats = list(dict.fromkeys(cat for cat, _ in pairs))    # first seen first
    if len(cats) < 2:
        return _degenerate(feature, "nominal", y)
    n, c1 = len(y), int(y.sum())
    keys = []
    for ci, cat in enumerate(cats):
        e_identity = pairs[cat, 0] + c1 - pairs[cat, 1]    # 0s inside, 1s outside
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
    """Bit matrix produced by fitting one encoder per feature.

    Degenerate columns are filled with the majority class bit so the
    matrix stays rectangular, and their indices are left out of
    `active`.  Training only draws inputs from active columns.
    """

    encoders: list[Encoder]
    matrix: np.ndarray
    labels: np.ndarray
    active: list[int]
    feature_names: list[str]

    @property
    def errors(self) -> list[int]:
        return [enc.error for enc in self.encoders]


def encode_dataset(ds: Dataset) -> EncodedDataset:
    """Fit every feature of a dataset and build the training bit matrix."""
    import numpy as np

    encoders = []
    columns = []
    active = []
    y = ds.labels
    c0, c1 = ds.class_counts()
    majority_bit = 0 if c0 >= c1 else 1
    for j, spec in enumerate(ds.features):
        raw = ds.column(j)
        enc = fit_feature(raw, y, spec.kind, spec.name)
        encoders.append(enc)
        if enc.degenerate:
            columns.append(np.full(ds.n, majority_bit, dtype=np.uint8))
        else:
            columns.append(encode_column(enc, raw))
            active.append(j)
    matrix = (
        np.stack(columns, axis=1)
        if columns else np.zeros((ds.n, 0), dtype=np.uint8)
    )
    return EncodedDataset(
        encoders=encoders,
        matrix=matrix,
        labels=np.asarray(y, dtype=np.uint8),
        active=active,
        feature_names=[f.name for f in ds.features],
    )
