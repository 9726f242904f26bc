"""Slow, independent checkers used to validate the fast paths in tests.

Everything here is deliberately written from scratch: the truth tables
are a second transcription, the threshold scan tries every candidate
with plain loops, and the decision enumerator finds each syndrome's
chain of rows in the complex's layers and walks it with its own loops.
Nothing is shared with the modules under test beyond the public data
types and their fields, so agreement is meaningful.
The planted-data generator draws and labels whole arrays;
`Planted.rule_bit` is the per-row reference its labels are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSpec
from .rules import SignedDecision, SyndromeComplex

# Independent transcription of the function catalog, indexed by
# (u1, u2) in the order (0,0), (0,1), (1,0), (1,1).
ORACLE_TRUTH: dict[int, tuple[int, int, int, int]] = {
    0: (0, 0, 0, 1),
    1: (0, 0, 1, 0),
    3: (0, 1, 0, 0),
    5: (0, 1, 1, 0),
    6: (0, 1, 1, 1),
    7: (1, 0, 0, 0),
    8: (1, 0, 0, 1),
    10: (1, 0, 1, 1),
    12: (1, 1, 0, 1),
    13: (1, 1, 1, 0),
}

STANDARD_ORACLE_IDS = (0, 3, 5, 6, 7, 8, 10, 12, 13)


@dataclass(frozen=True)
class ThresholdResult:
    u: float | None
    h: int | None
    e: int
    degenerate: bool


def brute_force_threshold(values, labels) -> ThresholdResult:
    """Try every interval boundary and polarity by explicit counting.

    Implements the same contract as the fitted encoder: candidate
    thresholds are midpoints of consecutive distinct sorted values (each
    half summed where the sum overflows, and the lower value where the
    midpoint rounds up to the higher), ties prefer the widest gap, then
    the smallest threshold, then polarity 0, and a result strictly worse
    than the majority class is degenerate.
    """
    vals = [float(v) for v in values]
    ys = [int(y) for y in labels]
    n = len(vals)
    c1 = sum(ys)
    c0 = n - c1
    floor = min(c0, c1)

    distinct = sorted(set(vals))
    candidates = []
    for lo, hi in zip(distinct, distinct[1:]):
        u = (lo + hi) / 2.0
        if u in (float("inf"), float("-inf")):    # lo + hi overflowed: halve first
            u = lo / 2.0 + hi / 2.0
        if u == hi:     # lo and hi adjacent floats: keep hi above u
            u = lo
        gap = hi - lo
        for h in (0, 1):
            e = 0
            for v, y in zip(vals, ys):
                bit = h if v > u else 1 - h
                if bit != y:
                    e += 1
            candidates.append((e, -gap, u, h))
    if not candidates:
        return ThresholdResult(None, None, floor, True)
    e, _, u, h = min(candidates)
    if e > floor:
        return ThresholdResult(None, None, floor, True)
    return ThresholdResult(u, h, e, False)


def _walk(chain, bits: dict[int, int]) -> int:
    """The output bit of a chain of rows, layer 1 first: the first row
    reads feature x_left, and each row applies g_fn to the bit so far
    and feature x_right."""
    a = bits[chain[0].left]
    for row in chain:
        a = ORACLE_TRUTH[row.fn][2 * a + bits[row.right]]
    return a


def _features(chain) -> set[int]:
    return {chain[0].left, *(row.right for row in chain)}


def _own_vote(m1: int, n: int) -> SignedDecision:
    m0 = n - m1
    if m0 > m1:
        value = m0
    elif m1 > m0:
        value = -m1
    else:
        value = 0
    winner = m0 if m0 >= m1 else m1
    return SignedDecision(value=value, m=winner, n=n, m1=m1)


def _chains(layers) -> list[list]:
    """Each final-layer row's chain, layer 1 first: walked back from that
    row through each earlier layer's {ident: row} map."""
    earlier = [{row.ident: row for row in layer} for layer in layers[:-1]]
    chains = [[row] for row in layers[-1]]
    for chain in chains:
        for by_ident in reversed(earlier):
            chain.append(by_ident[chain[-1].left])
    return [chain[::-1] for chain in chains]


def exhaustive_decision_check(
    sc: SyndromeComplex,
    max_features: int = 12,
) -> dict[tuple[int, ...], SignedDecision]:
    """Decision for every assignment of the referenced features.

    Assignment keys are bit tuples over the features the syndromes'
    chains read, in ascending id order.  Refuses rules wider than
    `max_features`.
    """
    chains = _chains(sc.layers)
    feats = sorted(set().union(*map(_features, chains)))
    if len(feats) > max_features:
        raise ValueError(
            f"{len(feats)} features is over the exhaustive cap {max_features}"
        )
    out = {}
    for bits in itertools.product((0, 1), repeat=len(feats)):
        assign = dict(zip(feats, bits))
        m1 = 0
        for chain in chains:
            m1 += _walk(chain, assign)
        out[bits] = _own_vote(m1, len(chains))
    return out


@dataclass(frozen=True)
class PlantedSpec:
    """Recipe for a synthetic dataset with a known hidden rule."""

    seed: int
    n_features: int = 6
    n_rows: int = 24
    n_syndromes: int = 3
    noise_flips: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 2:
            raise ValueError("need at least two features")
        if self.n_rows < 2:
            raise ValueError("need at least two rows")
        if self.n_syndromes < 1:
            raise ValueError("need at least one syndrome")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.noise_flips <= self.n_rows:
            raise ValueError("noise_flips must be between 0 and n_rows")


@dataclass
class Planted:
    """A generated dataset plus the ground truth that produced it."""

    dataset: Dataset
    syndromes: list[tuple[int, int, int]]    # (fn, left feature, right feature)
    m_level: int
    bits: np.ndarray                         # hidden bit matrix, rows x features
    clean_labels: np.ndarray                 # labels before noise
    flipped: list[int]                       # row indices with label noise
    thresholds: list[float]
    offsets: list[float]

    def rule_bit(self, row_bits) -> int:
        """Apply the hidden rule to one vector of feature bits."""
        m1 = 0
        for fn, a, b in self.syndromes:
            m1 += ORACLE_TRUTH[fn][2 * int(row_bits[a]) + int(row_bits[b])]
        return int(m1 >= self.m_level)


def generate_planted(spec: PlantedSpec) -> Planted:
    """Build a quantitative dataset whose labels follow a hidden
    M-of-N rule over per-feature threshold bits, plus optional label
    noise.  Deterministic for a given spec.

    Each feature takes exactly two distinct values placed symmetrically
    around its threshold, so a single boundary recovers the hidden bit
    (up to polarity).  Redraws until every feature varies and the two
    classes are balanced to within one row; near-balance guarantees no
    feature is rejected as degenerate, since the best single-feature
    orientation errs on at most half the rows.
    """
    rng = np.random.default_rng(spec.seed)
    f = spec.n_features
    m_level = spec.n_syndromes // 2 + 1
    for _ in range(200):
        # c counts the ordered pairs (a, b), a != b, a-major; j counts b with a skipped.
        syndromes = []
        for c in rng.choice(f * (f - 1), size=spec.n_syndromes, replace=True):
            fn = int(rng.choice(STANDARD_ORACLE_IDS))
            a, j = divmod(int(c), f - 1)
            syndromes.append((fn, a, j + (j >= a)))

        bits = rng.integers(0, 2, size=(spec.n_rows, f), dtype=np.uint8)
        if (bits.min(axis=0) == bits.max(axis=0)).any():
            continue
        votes = [np.array(ORACLE_TRUTH[fn])[2 * bits[:, a] + bits[:, b]] for fn, a, b in syndromes]
        labels = (sum(votes) >= m_level).astype(np.uint8)
        if labels.min() == labels.max():
            continue
        flipped = sorted(rng.choice(spec.n_rows, size=spec.noise_flips, replace=False).tolist())
        noisy = labels.copy()
        noisy[flipped] ^= 1
        if abs(spec.n_rows - 2 * int(noisy.sum())) > 1:
            continue

        thresholds = [round(float(u), 1) for u in rng.uniform(5.0, 95.0, f)]
        offsets = [round(float(d), 1) for d in rng.uniform(0.5, 3.0, f)]
        t, o = np.array(thresholds), np.array(offsets)
        ds = Dataset(
            features=[FeatureSpec(f"f{j + 1}", "quantitative") for j in range(f)],
            labels=noisy,
            columns=np.where(bits, t + o, t - o).T,
        )
        return Planted(ds, syndromes, m_level, bits, labels, flipped, thresholds, offsets)
    raise RuntimeError(f"could not generate a usable dataset for seed {spec.seed}")
