"""Self-organizing growth of a layered network of two-input logic units.

Layer 1 enumerates g_i(x_j, x_k) over ordered pairs of distinct active
features and every catalog function.  Layer r > 1 enumerates
g_i(y_j, x_k): left input from the previous layer, right input a raw
encoded feature.  A candidate survives only if its misclassification
count does not exceed that of either input (the external selection
criterion), so units can only refine what feeds them.

A unit's output over the training rows is stored packed: uint64 words
with row r at bit r % 64 of word r // 64 and the tail bits zero.  A
layer is scored in blocks of left operands against all right features
at once.  The four minterms of each pair (~a&~b, ~a&b, a&~b, a&b) are
popcounted against the labels and their complement, which gives every
catalog function's error as a matrix product with the truth tables.
Output words are built only for survivors, as the OR of the minterms
their truth row selects.  Layer 1 skips j == k; later layers drop
candidates whose words equal their left parent's (no-progress clones).

Survivors are sorted by (error, fn, left, right), deduplicated on their
output words keeping the first of each, and the layer is cut to a beam
width.  Growth stops when a layer reaches error zero, when no candidate
survives, when a grown layer would regress the best error, when the
best error stalls past the configured patience, or at a depth cap.  The
network then ends at the earliest layer that reached the best error,
cut down to the units that achieved it; those units are the syndromes
that vote by majority at classification time.  Layer minimum errors are
non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .encoding import EncodedDataset, Encoder, encode_dataset, encode_value
from .data import Dataset
from .errors import EvaluationError, TrainingError
from .logic import function_ids, truth_row
from .rules import SignedDecision, vote_decision


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


@dataclass(frozen=True)
class TrainConfig:
    beam_width: int = 64
    max_layers: int = 10
    patience: int = 1
    extended_catalog: bool = False

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise TrainingError("beam_width must be at least 1")
        if self.max_layers < 1:
            raise TrainingError("max_layers must be at least 1")
        if self.patience < 1:
            raise TrainingError("patience must be at least 1")


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

    def referenced_features(self) -> set[int]:
        """Feature indices reachable from the final layer."""
        feats: set[int] = set()
        keep: set[int] = set(range(len(self.layers[-1])))
        for r in range(len(self.layers) - 1, -1, -1):
            parents: set[int] = set()
            for p in keep:
                unit = self.layers[r][p]
                feats.add(unit.right)
                if r == 0:
                    feats.add(unit.left)
                else:
                    parents.add(unit.left)
            keep = parents
        return feats


@dataclass(frozen=True)
class _Candidate:
    error: int
    fn: int
    left: int
    right: int
    outputs: np.ndarray = field(compare=False)   # packed words, see _pack


_BLOCK = 32   # left operands scored per pass; temporaries are O(_BLOCK * F * words)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, m) bit matrix into (m, words) uint64, row r at bit
    r % 64 of word r // 64; tail bits are zero."""
    padded = np.zeros((bits.shape[1], -(-len(bits) // 64) * 64), dtype=np.uint8)
    padded[:, : len(bits)] = bits.T
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class _Packed:
    """The active feature columns and labels of a dataset, packed."""

    features: np.ndarray    # (len(active), words)
    labels: np.ndarray      # (words,)
    ones: np.ndarray        # (words,), only the n_rows valid bits set
    feature_errors: np.ndarray

    @classmethod
    def of(cls, enc: EncodedDataset) -> "_Packed":
        features = _pack(enc.matrix[:, enc.active])
        labels = _pack(enc.labels[:, None])[0]
        ones = _pack(np.ones((len(enc.labels), 1), dtype=np.uint8))[0]
        return cls(features, labels, ones, _popcount(features ^ labels))


def _truth_matrix(extended: bool) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array(function_ids(extended))
    rows = np.array([truth_row(i, extended) for i in ids], dtype=np.int64)
    return ids, rows


def _survivors(
    left: np.ndarray, left_errors: np.ndarray, data: _Packed, extended: bool
) -> tuple[np.ndarray, ...]:
    """Every g_fn(left[i], features[k]) whose error exceeds neither
    input's, as arrays (error, fn, i, k, packed outputs).

    Per pair, the minterm popcounts say how many positive and negative
    rows each input combination holds.  A function errs on the negatives
    of the minterms its truth row maps to 1 and on the positives of the
    rest.
    """
    ids, truth = _truth_matrix(extended)
    y, b = data.labels, data.features[None]
    parts = []
    for start in range(0, max(len(left), 1), _BLOCK):   # one pass even if empty
        a = left[start : start + _BLOCK, None, :]
        both = a & b
        # rows where (a, b) is (0,0), (0,1), (1,0), (1,1): truth-row order
        minterms = (data.ones & ~(a | b), b ^ both, a ^ both, both)
        pos = np.stack([_popcount(m & y) for m in minterms], axis=-1)
        neg = np.stack([_popcount(m & ~y) for m in minterms], axis=-1)
        errors = neg @ truth.T + pos @ (1 - truth).T     # (block, F, fns)
        bound = np.minimum(
            left_errors[start : start + _BLOCK, None], data.feature_errors[None, :]
        )
        i, k, f = np.nonzero(errors <= bound[..., None])
        outputs = np.zeros((len(i), left.shape[1]), dtype=np.uint64)
        for t, m in enumerate(minterms):
            outputs |= np.where(truth[f, t, None] == 1, m[i, k], 0)
        parts.append((errors[i, k, f], ids[f], i + start, k, outputs))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _select(
    error: np.ndarray,
    fn: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    outputs: np.ndarray,
    beam_width: int,
) -> list[_Candidate]:
    """Order by (error, fn, left, right), drop duplicate output vectors,
    cut to the beam.  Duplicates share an error, so keeping the first
    keeps the lowest (fn, left, right)."""
    order = np.lexsort((right, left, fn, error))
    rows = np.ascontiguousarray(outputs[order])
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first = np.unique(keys.ravel(), return_index=True)
    kept = order[np.sort(first)[:beam_width]]
    return [
        _Candidate(int(error[c]), int(fn[c]), int(left[c]), int(right[c]), out)
        for c, out in zip(kept, outputs[kept])
    ]


def build_first_layer(enc: EncodedDataset, config: TrainConfig) -> list[_Candidate]:
    """All surviving g_i(x_j, x_k) over ordered pairs of active features."""
    data = _Packed.of(enc)
    error, fn, j, k, outputs = _survivors(
        data.features, data.feature_errors, data, config.extended_catalog
    )
    keep = j != k
    active = np.array(enc.active, dtype=np.int64)
    return _select(
        error[keep], fn[keep], active[j[keep]], active[k[keep]], outputs[keep],
        config.beam_width,
    )


def grow_layer(
    prev: list[_Candidate],
    enc: EncodedDataset,
    config: TrainConfig,
) -> list[_Candidate]:
    """All surviving g_i(y_j, x_k) over the previous layer and features.

    Candidates whose outputs equal their own left parent's are dropped
    as no-progress clones before selection.
    """
    data = _Packed.of(enc)
    parents = np.stack([c.outputs for c in prev])
    error, fn, p, k, outputs = _survivors(
        parents, np.array([c.error for c in prev]), data, config.extended_catalog
    )
    keep = np.any(outputs != parents[p], axis=1)
    active = np.array(enc.active, dtype=np.int64)
    return _select(
        error[keep], fn[keep], p[keep], active[k[keep]], outputs[keep],
        config.beam_width,
    )


def _vote_rows(final: list[_Candidate], n_rows: int) -> np.ndarray:
    words = np.stack([c.outputs for c in final]).astype("<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=n_rows, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)


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
        if new_best == 0:
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
    m1 = _vote_rows(layers[-1], ds.n)
    n_syn = len(layers[-1])
    decided_1 = 2 * m1 > n_syn
    decided_0 = 2 * m1 < n_syn
    correct = np.where(enc.labels == 1, decided_1, decided_0)
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


def _reachable(net: Network) -> list[set[int]]:
    """Unit positions per layer that feed the final layer."""
    keep: list[set[int]] = [set() for _ in net.layers]
    keep[-1] = set(range(len(net.layers[-1])))
    for r in range(len(net.layers) - 1, 0, -1):
        for p in keep[r]:
            keep[r - 1].add(net.layers[r][p].left)
    return keep


def classify(net: Network, row: Mapping[str, object]) -> SignedDecision:
    """Encode a raw row, run it through the network, majority-vote."""
    needed = net.referenced_features()
    bits: dict[int, int] = {}
    for j in needed:
        name = net.feature_names[j]
        if name not in row:
            raise EvaluationError(f"missing value for feature {name!r}")
        bits[j] = encode_value(net.encoders[j], row[name])

    keep = _reachable(net)
    prev: dict[int, int] = {}
    for r, layer in enumerate(net.layers):
        cur: dict[int, int] = {}
        for p in sorted(keep[r]):
            unit = layer[p]
            u1 = bits[unit.left] if r == 0 else prev[unit.left]
            u2 = bits[unit.right]
            cur[p] = truth_row(unit.fn, net.config.extended_catalog)[(u1 << 1) | u2]
        prev = cur
    return vote_decision(sum(prev.values()), len(prev))
