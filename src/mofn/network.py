"""Self-organizing growth of a layered network of two-input logic units.

Layer 1 enumerates g_i(x_j, x_k) over ordered pairs of distinct active
features and every catalog function.  Layer r > 1 enumerates
g_i(y_j, x_k): left input from the previous layer, right input a raw
encoded feature.  A candidate survives only if its misclassification
count does not exceed that of either input (the external selection
criterion), so units can only refine what feeds them.

A unit's output over the training rows is stored packed: uint64 words
with row r at bit r % 64 of word r // 64 and the tail bits zero.
`encode_dataset` packs the active features, the labels and the row mask
in this layout once per fit, and every layer reads them from that
`EncodedDataset`.  A layer is scored in blocks of left operands against
all right features at once, with two popcounts per pair: a & b and
a & b & y.  The operands are held as word-major (words, operands)
planes, so each popcount is a sum over the outer word axis of one
broadcast AND.  The positive and total row counts of all four minterms
(~a&~b, ~a&b, a&~b, a&b) follow from those two and from each operand's
own error, so every catalog function's error is integer arithmetic on
an int32 (function, left, feature) cube, exact up to `_MAX_ROWS` rows.
Nothing goes through a float matrix product, which would hand the work
to a BLAS thread pool.  Layer 1 skips j == k.  No output words are
built while scoring.

Scoring emits each survivor as the one int64 key that orders it by
(error, fn, left, right), and selection sorts those keys.  Only the
first 4 * beam_width keys are partitioned out and sorted; the rest are
sorted only if the beam is still not full after them.  That order is
walked a chunk at a time: each chunk's output words are built as the
OR of the minterms their truth row selects, later layers drop
candidates whose words equal their left parent's (no-progress clones),
and only the first of equal outputs is kept.  The walk stops once the
layer holds its beam width of units, kept as the parallel arrays of a
`_Layer` until `train` makes `Unit`s of the layers it keeps.

`train` encodes the dataset, `grow` adds layers until one of five named
stop rules fires, and `select` ends the network at the earliest layer
that reached the best error, cut down to the units that achieved it:
the syndromes, which vote by majority.  `train` then reports the kept
layers, the stop rule and that vote's error on the training rows.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Mapping

import numpy as np

from .config import TrainConfig
from .encoding import EncodedDataset, Encoder, encode_dataset, encode_value
from .data import Dataset
from .errors import EvaluationError, TrainingError
from .logic import function_ids, truth_row
from .record import record
from .rules import SignedDecision, SyndromeComplex, evaluate, extract, vote_levels


@record
class Unit:
    """One trained unit: y = g_fn(left, right).

    In layer 1 `left` is a feature index; in later layers it is the
    position of the parent unit in the previous layer.  `right` is
    always a feature index.
    """

    fn: int
    left: int
    right: int
    error: int


@record
class TrainReport:
    """Summary of one training run."""

    layer_sizes: list[int]
    layer_min_errors: list[int]
    active_features: list[int]
    vote_error: int
    n_rows: int
    stop_reason: str

    def lines(self, feature_names: list[str]) -> list[str]:
        # A name that would break or hide in a report line is written as its repr.
        names = [feature_names[j] for j in self.active_features]
        names = [n if n.isprintable() else repr(n) for n in names]
        out = [f"rows: {self.n_rows}", "active features: " + ", ".join(names)]
        for r, (size, err) in enumerate(
            zip(self.layer_sizes, self.layer_min_errors), start=1
        ):
            out.append(f"layer {r}: {size} unit(s), best error {err}")
        out.append(f"majority vote error: {self.vote_error}/{self.n_rows}")
        out.append(f"stop rule: {self.stop_reason}")
        return out


@record
class Network:
    """A trained network plus the encoders that feed it."""

    encoders: list[Encoder]
    layers: list[list[Unit]]
    config: TrainConfig
    class_names: tuple[str, str]
    report: TrainReport

    @property
    def feature_names(self) -> list[str]:
        return [e.feature for e in self.encoders]

    @property
    def n_syndromes(self) -> int:
        return len(self.layers[-1])

    @cached_property
    def complex(self) -> SyndromeComplex:
        """The extracted syndrome complex, built on first use: it decides."""
        return extract(self)


@record
class _Layer:
    """A growth layer's units in (error, fn, left, right) order, as parallel
    arrays; `outputs` holds each unit's packed words, as EncodedDataset."""

    error: np.ndarray
    fn: np.ndarray
    left: np.ndarray
    right: np.ndarray
    outputs: np.ndarray

    def __len__(self) -> int:
        return len(self.error)

    def units(self, end: int | None = None) -> list[Unit]:
        """The first `end` units (all by default) as `Unit`s."""
        columns = (self.fn, self.left, self.right, self.error)
        return [Unit(*unit) for unit in zip(*(c[:end].tolist() for c in columns))]


_BLOCK_WORDS = 1 << 18   # bound on the words of one scoring pass's temporaries
# Each partial sum of a cube entry, P + k0 e0 + kb eb + kx x + ka ea (see
# `_survivors`), is at most 6n in magnitude, so int32 holds it exactly
# up to this many rows.
_MAX_ROWS = (2**31 - 1) // 6


def _popcount(planes: np.ndarray) -> np.ndarray:
    """Set bits summed over the outer (word) axis of word-major planes."""
    return np.bitwise_count(planes).sum(axis=0, dtype=np.int32)


@cache
def _catalog(extended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Function ids, truth-row word masks (fns, 4) and int32 error
    coefficients (4, fns), built once per catalog.

    With d_t = rows - 2 * positive rows in minterm t, a function errs on
    P + the sum of d_t over the minterms its truth row maps to 1, and
    d00 = e0 - ea - eb + x, d01 = eb - x, d10 = ea - x, d11 = x (see
    `_survivors`).  So its error is P + (k0, ka, kb, kx) . (e0, ea, eb, x).
    """
    ids = np.array(function_ids(extended))
    truth = np.array([truth_row(i, extended) for i in ids], dtype=np.int32)
    masks = np.where(truth == 1, ~np.uint64(0), np.uint64(0))
    t00, t01, t10, t11 = truth.T
    coefficients = np.stack([t00, t10 - t00, t01 - t00, t11 - t10 - t01 + t00])
    for array in (ids, masks, coefficients):
        array.flags.writeable = False
    return ids, masks, coefficients


def _survivors(
    left: np.ndarray,
    left_errors: np.ndarray,
    data: EncodedDataset,
    config: TrainConfig,
    first: bool,
) -> np.ndarray:
    """Every g(left[i], features[k]) whose error exceeds neither input's,
    as one int64 key per survivor, error * (fns * L * F) + (t * L + i) * F + k
    for truth index t of fns, L left operands and F features.  In layer
    1 (`first`), whose left operands are the features, i == k is skipped.

    Function ids, left operands and active features all ascend, so the
    key orders survivors as (error, fn, left, right).  An error is at
    most n, the row count, so the key is below (n + 1) * fns * L * F;
    scoring reads L * F * ceil(n / 64) word pairs, so a key could pass
    2^63 only in a layer of more than 2^52 of them.

    Over n rows, P of them positive, e0 = n - 2P, an operand's error is
    P + e with e = |a| - 2|a & y|, and a pair adds x = |a & b| - 2|a & b & y|.
    So two popcounts per pair give every function's error as integer
    arithmetic on (function, left, feature) planes.  The operands are
    held word-major, as (W, L) and (W, F) planes plus a (W, F) plane of
    features & labels, so each popcount sums over the outer word axis.
    The cube is int32, exact up to _MAX_ROWS rows, which `train` enforces.
    """
    k0, ka, kb, kx = _catalog(config.extended_catalog)[2]
    n_pos = int(np.bitwise_count(data.labels).sum())
    e0 = int(np.bitwise_count(data.ones).sum()) - 2 * n_pos
    ea = (left_errors - n_pos).astype(np.int32)
    eb = (data.feature_errors - n_pos).astype(np.int32)
    base = (n_pos + k0 * e0)[:, None] + kb[:, None] * eb   # (fns, F)
    lefts = np.ascontiguousarray(left.T)                    # (W, L)
    feats = np.ascontiguousarray(data.features.T)[:, None]  # (W, 1, F)
    feats_pos = feats & data.labels[:, None, None]
    n_left, n_feat = len(left), len(eb)
    per_error = len(kx) * n_left * n_feat
    block = max(1, _BLOCK_WORDS // max(data.features.size, 1))
    keys = []
    for start in range(0, max(n_left, 1), block):   # one pass even if empty
        a, a_err = lefts[:, start : start + block, None], ea[start : start + block]
        x = _popcount(a & feats) - 2 * _popcount(a & feats_pos)   # (block, F)
        # (fns, block, F), built in place: each fresh temporary this
        # large may be mapped from the OS and page-faulted anew
        errors = np.multiply.outer(kx, x)
        errors += base[:, None, :]
        errors += (ka[:, None] * a_err)[..., None]
        ok = errors <= np.minimum(a_err[:, None], eb) + n_pos
        if first:
            rows = np.arange(len(a_err))
            ok[:, rows, rows + start] = False
        cells = np.flatnonzero(ok)
        t, rest = np.divmod(cells, len(a_err) * n_feat)
        key = errors.ravel()[cells].astype(np.int64)
        key *= per_error
        key += (t * n_left + start) * n_feat + rest
        keys.append(key)
    return np.concatenate(keys)


def _ascending(key: np.ndarray, step: int):
    """`key`'s values in ascending order, `step` at a time.  The first
    `step` are partitioned out and sorted alone; the rest are sorted only
    if a second chunk is asked for."""
    part = np.partition(key, step - 1) if len(key) > step else key
    yield np.sort(part[:step])
    rest = np.sort(part[step:])
    yield from (rest[start : start + step] for start in range(0, len(rest), step))


def _select(
    key: np.ndarray,
    left: np.ndarray,
    data: EncodedDataset,
    config: TrainConfig,
    first: bool,
) -> _Layer:
    """Walk `_survivors`' keys in ascending order, drop duplicate output
    words, cut to the beam.  Duplicates share an error, so keeping the
    first keeps the lowest (fn, left, right).

    Output words are built only while the beam fills, a chunk of the
    order at a time; only the first chunk is sorted unless the beam
    needs more.  After layer 1, a candidate whose words equal its left
    operand's makes no progress and is dropped before deduplication.
    Left ids are active feature ids in layer 1, positions after that.
    """
    ids, masks, _ = _catalog(config.extended_catalog)
    right_ids = np.array(data.active, dtype=np.int64)
    left_ids = right_ids if first else np.arange(len(left))
    cube, words = (len(ids), len(left), len(right_ids)), data.ones.shape[-1]
    per_error = math.prod(cube)
    kept = np.zeros(0, dtype=np.int64)          # keys of the kept units
    outputs = np.zeros((0, words), dtype=np.uint64)
    for chunk in _ascending(key, 4 * config.beam_width):
        t, i, k = np.unravel_index(chunk % per_error, cube)
        a, b, m = left[i], data.features[k], masks[t]
        both = a & b
        # rows where (a, b) is (0,0), (0,1), (1,0), (1,1): truth-row order
        rows = (
            m[:, 0, None] & data.ones & ~(a | b)
            | m[:, 1, None] & (b ^ both)
            | m[:, 2, None] & (a ^ both)
            | m[:, 3, None] & both
        )
        if not first:
            fresh = np.any(rows != a, axis=1)
            chunk, rows = chunk[fresh], rows[fresh]
        # the first occurrence of each row, kept ones first, then key order;
        # a void view, as np.unique(axis=0) sorts structured rows far slower
        rows = np.concatenate([outputs, rows])
        once = np.unique(rows.view(f"V{8 * words}")[:, 0], return_index=True)[1]
        new = np.sort(once[once >= len(kept)])[: config.beam_width - len(kept)]
        kept = np.concatenate([kept, chunk[new - len(kept)]])
        outputs = np.concatenate([outputs, rows[new]])
        if len(kept) == config.beam_width:
            break
    error, cell = np.divmod(kept, per_error)
    t, i, k = np.unravel_index(cell, cube)
    return _Layer(error, ids[t], left_ids[i], right_ids[k], outputs)


def build_first_layer(enc: EncodedDataset, config: TrainConfig) -> _Layer:
    """All surviving g_i(x_j, x_k) over ordered pairs of active features."""
    key = _survivors(enc.features, enc.feature_errors, enc, config, first=True)
    return _select(key, enc.features, enc, config, first=True)


def grow_layer(prev: _Layer, enc: EncodedDataset, config: TrainConfig) -> _Layer:
    """All surviving g_i(y_j, x_k) over the previous layer and features,
    less no-progress clones (outputs equal to their left parent's)."""
    key = _survivors(prev.outputs, prev.error, enc, config, first=False)
    return _select(key, prev.outputs, enc, config, first=False)


def grow(enc: EncodedDataset, config: TrainConfig) -> tuple[list[_Layer], str]:
    """Grow layers until a stop rule fires; return them and the rule's name.
    A layer that would regress the best error signals exhausted refinement
    and is dropped, so layer minimum errors never increase."""
    layers, stale = [build_first_layer(enc, config)], 0
    if not layers[0]:
        raise TrainingError("first layer is empty: no candidate survived selection")
    while True:
        best = int(layers[-1].error[0])
        if best == 0 or len(layers) == config.max_layers:
            return layers, "zero error" if best == 0 else "depth cap"
        nxt = grow_layer(layers[-1], enc, config)
        if not nxt or nxt.error[0] > best:
            return layers, "regression" if nxt else "no survivor"
        layers.append(nxt)
        stale = 0 if nxt.error[0] < best else stale + 1
        if stale == config.patience:
            return layers, "stall"


def select(layers: list[_Layer]) -> tuple[list[_Layer], int]:
    """The layers up to the earliest one at the best error, and how many
    of its units reach that error, a prefix of its ascending errors.
    Those units are the syndromes that vote."""
    mins = [int(layer.error[0]) for layer in layers]
    kept = layers[: mins.index(min(mins)) + 1]
    return kept, int(np.searchsorted(kept[-1].error, min(mins), side="right"))


def train(ds: Dataset, config: TrainConfig | None = None) -> Network:
    """Grow a network on a dataset and return it with a training report."""
    config = config or TrainConfig()
    if ds.n > _MAX_ROWS:
        raise TrainingError(f"{ds.n} rows: scoring is exact up to {_MAX_ROWS} rows")
    if ds.m == 0:
        raise TrainingError("no feature columns")
    enc = encode_dataset(ds)
    if len(enc.active) == 0:
        raise TrainingError("no informative features: every encoder is degenerate")
    if len(enc.active) == 1:
        only = enc.encoders[enc.active[0]].feature
        raise TrainingError(
            f"only one informative feature ({only}); need at least two to form pairs"
        )

    layers, stop_reason = grow(enc, config)
    kept, n_syndromes = select(layers)
    units = [layer.units() for layer in kept[:-1]] + [kept[-1].units(n_syndromes)]
    words = kept[-1].outputs[:n_syndromes].astype("<u8").view(np.uint8)
    m1 = np.unpackbits(words, axis=1, bitorder="little")[:, : ds.n].sum(axis=0)
    values = np.array([d.value for d in vote_levels(n_syndromes)])[m1]  # class 1 < 0 < class 0
    report = TrainReport(
        layer_sizes=[len(layer) for layer in units],
        layer_min_errors=[int(layer.error[0]) for layer in kept],
        active_features=list(enc.active),
        vote_error=int(np.sum(np.where(ds.labels == 1, values >= 0, values <= 0))),
        n_rows=ds.n,
        stop_reason=stop_reason,
    )
    return Network(
        encoders=enc.encoders,
        layers=units,
        config=config,
        class_names=ds.class_names,
        report=report,
    )


def classify(net: Network, row: Mapping[str, object]) -> SignedDecision:
    """Encode a raw row's referenced features and decide it by the complex."""
    sc = net.complex
    bits = {}
    for j, enc in sc.features.items():
        if enc.feature not in row:
            raise EvaluationError(f"missing value for feature {enc.feature!r}")
        bits[j] = encode_value(enc, row[enc.feature])
    return evaluate(sc, bits)
