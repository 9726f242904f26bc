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
a & b & y.  The positive and total row counts of all four minterms
(~a&~b, ~a&b, a&~b, a&b) follow from those two and from each operand's
own error, so every catalog function's error is integer arithmetic on
(function, left, feature) planes.  Nothing goes through a float matrix
product, which would hand the work to a BLAS thread pool.  Layer 1
skips j == k.  No output words are built while scoring.

Survivors are sorted by (error, fn, left, right).  That order is then
walked a chunk at a time: each chunk's output words are built as the OR
of the minterms their truth row selects, later layers drop candidates
whose words equal their left parent's (no-progress clones), and a word
seen before is a duplicate and is dropped.  The walk stops once the
layer holds its beam width of units.

Growth stops when a layer reaches error zero, when no candidate
survives, when a grown layer would regress the best error, when the
best error stalls past the configured patience, or at a depth cap.  The
network then ends at the earliest layer that reached the best error,
cut down to the units that achieved it; those units are the syndromes
that vote by majority at classification time.  Layer minimum errors are
non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .config import TrainConfig
from .encoding import EncodedDataset, Encoder, encode_dataset, encode_value
from .data import Dataset
from .errors import EvaluationError, TrainingError
from .logic import function_ids, truth_row
from .rules import SignedDecision, SlotProgram, extract, vote_counts, vote_levels


@dataclass(frozen=True)
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


@dataclass
class TrainReport:
    """Summary of one training run."""

    layer_sizes: list[int]
    layer_min_errors: list[int]
    feature_errors: list[int | None]
    active_features: list[int]
    vote_error: int
    n_rows: int

    def lines(self, feature_names: list[str]) -> list[str]:
        out = [f"rows: {self.n_rows}"]
        out.append(
            "active features: "
            + ", ".join(feature_names[j] for j in self.active_features)
        )
        for r, (size, err) in enumerate(
            zip(self.layer_sizes, self.layer_min_errors), start=1
        ):
            out.append(f"layer {r}: {size} unit(s), best error {err}")
        out.append(f"majority vote error: {self.vote_error}/{self.n_rows}")
        return out


@dataclass
class Network:
    """A trained network plus the encoders that feed it."""

    encoders: list[Encoder]
    feature_names: list[str]
    layers: list[list[Unit]]
    config: TrainConfig
    class_names: tuple[str, str] = ("0", "1")
    report: TrainReport | None = None

    @property
    def n_syndromes(self) -> int:
        return len(self.layers[-1])

    @cached_property
    def program(self) -> SlotProgram:
        """The slot program of the extracted complex, built on first use."""
        return extract(self).program


@dataclass(frozen=True)
class _Candidate:
    error: int
    fn: int
    left: int
    right: int
    outputs: np.ndarray = field(compare=False)   # packed words, as EncodedDataset


_BLOCK_WORDS = 1 << 18   # bound on the words of one scoring pass's temporaries


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _catalog(extended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Function ids, truth rows (fns, 4) and error coefficients (4, fns).

    With d_t = rows - 2 * positive rows in minterm t, a function errs on
    P + the sum of d_t over the minterms its truth row maps to 1, and
    d00 = e0 - ea - eb + x, d01 = eb - x, d10 = ea - x, d11 = x (see
    `_survivors`).  So its error is P + (k0, ka, kb, kx) . (e0, ea, eb, x).
    """
    ids = np.array(function_ids(extended))
    truth = np.array([truth_row(i, extended) for i in ids], dtype=np.int64)
    t00, t01, t10, t11 = truth.T
    return ids, truth, np.stack([t00, t10 - t00, t01 - t00, t11 - t10 - t01 + t00])


def _survivors(
    left: np.ndarray,
    left_errors: np.ndarray,
    data: EncodedDataset,
    extended: bool,
    skip_diagonal: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Every g(left[i], features[k]) whose error exceeds neither input's,
    as arrays (error, cell), where cell = (t * L + i) * F + k for truth
    index t, L left operands and F features; pairs i == k are skipped
    when asked.

    Over n rows, P of them positive, e0 = n - 2P, an operand's error is
    P + e with e = |a| - 2|a & y|, and a pair adds x = |a & b| - 2|a & b & y|.
    So two popcounts per pair give every function's error as integer
    arithmetic on (function, left, feature) planes.
    """
    k0, ka, kb, kx = _catalog(extended)[2]
    n_pos = int(_popcount(data.labels))
    e0 = int(_popcount(data.ones)) - 2 * n_pos
    ea = left_errors - n_pos
    eb = data.feature_errors - n_pos
    base = (n_pos + k0 * e0)[:, None] + kb[:, None] * eb   # (fns, F)
    n_left, n_feat = len(left), len(eb)
    block = max(1, _BLOCK_WORDS // max(data.features.size, 1))
    errors_out, cells_out = [], []
    for start in range(0, max(n_left, 1), block):   # one pass even if empty
        a, a_err = left[start : start + block], ea[start : start + block]
        both = a[:, None, :] & data.features
        x = _popcount(both)
        both &= data.labels
        x -= 2 * _popcount(both)
        # (fns, block, F), built in place: each fresh temporary this
        # large may be mapped from the OS and page-faulted anew
        errors = np.multiply.outer(kx, x)
        errors += base[:, None, :]
        errors += (ka[:, None] * a_err)[..., None]
        ok = errors <= np.minimum(a_err[:, None], eb) + n_pos
        if skip_diagonal:
            rows = np.arange(len(a))
            ok[:, rows, rows + start] = False
        cells = np.flatnonzero(ok)
        t, rest = np.divmod(cells, len(a) * n_feat)
        errors_out.append(errors.ravel()[cells])
        cells_out.append((t * n_left + start) * n_feat + rest)
    return np.concatenate(errors_out), np.concatenate(cells_out)


def _select(
    error: np.ndarray,
    cell: np.ndarray,
    left: np.ndarray,
    data: EncodedDataset,
    config: TrainConfig,
    left_ids: np.ndarray,
    drop_clones: bool,
) -> list[_Candidate]:
    """Order by (error, fn, left, right), drop duplicate output words,
    cut to the beam.  Duplicates share an error, so keeping the first
    keeps the lowest (fn, left, right).

    `cell` orders as (fn, left, right) does, because function ids,
    `left_ids` and the active features all ascend.  Output words are
    built only while the beam fills, a chunk of the order at a time.
    With `drop_clones`, a candidate whose words equal its left
    operand's makes no progress and is dropped before deduplication.
    """
    ids, truth, _ = _catalog(config.extended_catalog)
    masks = np.where(truth == 1, ~np.uint64(0), np.uint64(0))
    right_ids = np.array(data.active, dtype=np.int64)
    n_feat = len(right_ids)
    order = np.lexsort((cell, error))
    seen: set[bytes] = set()
    kept: list[_Candidate] = []
    step = 4 * config.beam_width
    for start in range(0, len(order), step):
        chunk = order[start : start + step]
        t, rest = np.divmod(cell[chunk], len(left) * n_feat)
        i, k = np.divmod(rest, n_feat)
        a, b, m = left[i], data.features[k], masks[t]
        both = a & b
        # rows where (a, b) is (0,0), (0,1), (1,0), (1,1): truth-row order
        outputs = (
            m[:, 0, None] & data.ones & ~(a | b)
            | m[:, 1, None] & (b ^ both)
            | m[:, 2, None] & (a ^ both)
            | m[:, 3, None] & both
        )
        fresh = np.any(outputs != a, axis=1) if drop_clones else slice(None)
        rows = zip(
            error[chunk][fresh].tolist(), ids[t][fresh].tolist(),
            left_ids[i][fresh].tolist(), right_ids[k][fresh].tolist(), outputs[fresh],
        )
        for err, fn, j, r, out in rows:
            key = out.tobytes()
            if key not in seen:
                seen.add(key)
                kept.append(_Candidate(err, fn, j, r, out))
                if len(kept) == config.beam_width:
                    return kept
    return kept


def build_first_layer(enc: EncodedDataset, config: TrainConfig) -> list[_Candidate]:
    """All surviving g_i(x_j, x_k) over ordered pairs of active features."""
    error, cell = _survivors(
        enc.features, enc.feature_errors, enc, config.extended_catalog, skip_diagonal=True
    )
    return _select(
        error, cell, enc.features, enc, config,
        left_ids=np.array(enc.active, dtype=np.int64), drop_clones=False,
    )


def grow_layer(
    prev: list[_Candidate],
    enc: EncodedDataset,
    config: TrainConfig,
) -> list[_Candidate]:
    """All surviving g_i(y_j, x_k) over the previous layer and features.

    Candidates whose outputs equal their own left parent's are dropped
    as no-progress clones before deduplication.
    """
    parents = np.stack([c.outputs for c in prev])
    error, cell = _survivors(
        parents, np.array([c.error for c in prev]), enc, config.extended_catalog,
        skip_diagonal=False,
    )
    return _select(
        error, cell, parents, enc, config,
        left_ids=np.arange(len(prev)), drop_clones=True,
    )


def train(ds: Dataset, config: TrainConfig | None = None) -> Network:
    """Grow a network on a dataset and return it with a training report."""
    config = config or TrainConfig()
    enc = encode_dataset(ds)
    if len(enc.active) == 0:
        raise TrainingError("no informative features: every encoder is degenerate")
    if len(enc.active) == 1:
        only = enc.feature_names[enc.active[0]]
        raise TrainingError(
            f"only one informative feature ({only}); need at least two to form pairs"
        )

    first = build_first_layer(enc, config)
    if not first:
        raise TrainingError(
            "first layer is empty: no candidate survived selection"
        )
    layers = [first]
    best = min(c.error for c in first)
    stale = 0
    while best > 0 and len(layers) < config.max_layers:
        nxt = grow_layer(layers[-1], enc, config)
        if not nxt:
            break
        new_best = min(c.error for c in nxt)
        if new_best > best:
            # the best unit was a dead end; a layer that regresses
            # signals exhausted refinement and is discarded
            break
        layers.append(nxt)
        if new_best < best:
            best = new_best
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    # Trim trailing plateau layers back to the earliest layer that
    # reached the best error, then keep only its best units.  Those
    # units are the syndromes that vote.
    mins = [min(c.error for c in layer) for layer in layers]
    final = mins.index(best)
    layers = layers[: final + 1]
    layers[-1] = [c for c in layers[-1] if c.error == best]
    units = [
        [Unit(c.fn, c.left, c.right, c.error) for c in layer]
        for layer in layers
    ]
    final = [int.from_bytes(c.outputs.astype("<u8").tobytes(), "little") for c in layers[-1]]
    m1 = vote_counts(final, ds.n)
    levels = np.array([d.value for d in vote_levels(len(final))], dtype=np.int64)
    values = levels[np.frombuffer(m1, m1.typecode)]
    correct = np.where(ds.labels == 1, values < 0, values > 0)
    report = TrainReport(
        layer_sizes=[len(layer) for layer in layers],
        layer_min_errors=[min(c.error for c in layer) for layer in layers],
        feature_errors=[e.error for e in enc.encoders],
        active_features=list(enc.active),
        vote_error=int(np.sum(~correct)),
        n_rows=ds.n,
    )
    return Network(
        encoders=enc.encoders,
        feature_names=list(enc.feature_names),
        layers=units,
        config=config,
        class_names=ds.class_names,
        report=report,
    )


def classify(net: Network, row: Mapping[str, object]) -> SignedDecision:
    """Encode a raw row, run it through the network, majority-vote."""
    program = net.program
    bits = []
    for j in program.features:
        name = net.feature_names[j]
        if name not in row:
            raise EvaluationError(f"missing value for feature {name!r}")
        bits.append(encode_value(net.encoders[j], row[name]))
    return vote_levels(len(program.outputs))[sum(program.run(bits, 1))]
