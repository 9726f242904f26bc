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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import EncodingError

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
        if not np.isfinite(v):
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


def _check_inputs(values, labels, feature: str) -> np.ndarray:
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

    Candidate thresholds are the midpoints between consecutive distinct
    sorted values.  Ties are broken toward the widest value gap, then
    the smallest threshold, then polarity h=0.
    """
    v = np.asarray(values, dtype=float)
    y = _check_inputs(v, labels, feature)
    if not np.all(np.isfinite(v)):
        raise EncodingError(f"feature {feature!r}: non-finite values")

    order = np.argsort(v, kind="stable")
    sv, sy = v[order], y[order]
    distinct = np.nonzero(np.diff(sv) > 0)[0]    # boundary after sorted index i
    if len(distinct) == 0:
        return _degenerate(feature, "quantitative", y)

    total1 = int(sy.sum())
    n = len(sy)
    ones_below = np.cumsum(sy)[distinct]         # labels 1 with value <= u
    count_below = distinct + 1
    # h=1: predict 1 above u, 0 at or below; errors = 1s below + 0s above
    e_h1 = ones_below + (n - count_below) - (total1 - ones_below)
    e_h0 = n - e_h1
    gaps = sv[distinct + 1] - sv[distinct]
    mids = (sv[distinct] + sv[distinct + 1]) / 2.0

    best = None
    for h, errs in ((0, e_h0), (1, e_h1)):
        for b in range(len(distinct)):
            key = (int(errs[b]), -float(gaps[b]), float(mids[b]), h)
            if best is None or key < best:
                best = key
    e, neg_gap, u, h = best
    if e > min(n - total1, total1):
        return _degenerate(feature, "quantitative", y)
    return Encoder(
        feature=feature, kind="quantitative",
        polarity=h, threshold=float(u), error=int(e),
    )


def fit_boolean(values, labels, feature: str = "") -> Encoder:
    """Pick identity or complement, whichever matches the labels better."""
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
    cats: list[str] = []
    for x in values:
        if x not in cats:
            cats.append(x)
    if len(cats) < 2:
        return _degenerate(feature, "nominal", y)
    best = None
    for ci, cat in enumerate(cats):
        ind = np.array([x == cat for x in values], dtype=np.uint8)
        e_identity = int(np.sum(ind != y))
        for h, e in ((1, e_identity), (0, len(y) - e_identity)):
            key = (e, ci, 1 - h)
            if best is None or key < best[0]:
                best = (key, cat, h, e)
    _, cat, h, e = best
    c1 = int(y.sum())
    if e > min(len(y) - c1, c1):
        return _degenerate(feature, "nominal", y)
    return Encoder(feature=feature, kind="nominal", polarity=h, category=cat, error=e)


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
