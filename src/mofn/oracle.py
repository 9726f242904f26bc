"""Slow, independent checkers used to validate the fast paths in tests.

Everything here is deliberately written from scratch: the truth tables
are a second transcription, the threshold scan tries every candidate
with plain loops, and the decision enumerator walks expression trees
with its own recursion.  Nothing is shared with the modules under
test beyond the public data types, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FeatureSpec
from .rules import FeatureRef, FnNode, SignedDecision, SyndromeComplex

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
    thresholds are midpoints of consecutive distinct sorted values (the
    lower value where the midpoint rounds up to the higher), ties prefer the widest gap, then the smallest threshold, then
    polarity 0, and a result strictly worse than the majority class
    is degenerate.
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


def _walk(expr, bits: dict[int, int]) -> int:
    if isinstance(expr, FeatureRef):
        return bits[expr.feature]
    if isinstance(expr, FnNode):
        a = _walk(expr.left, bits)
        b = _walk(expr.right, bits)
        if a == 0 and b == 0:
            return ORACLE_TRUTH[expr.fn][0]
        if a == 0 and b == 1:
            return ORACLE_TRUTH[expr.fn][1]
        if a == 1 and b == 0:
            return ORACLE_TRUTH[expr.fn][2]
        return ORACLE_TRUTH[expr.fn][3]
    raise TypeError(f"not an expression: {expr!r}")


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


def exhaustive_decision_check(
    sc: SyndromeComplex,
    max_features: int = 12,
) -> dict[tuple[int, ...], SignedDecision]:
    """Decision for every assignment of the referenced features.

    Assignment keys are bit tuples over the referenced features in
    ascending id order.  Refuses rules wider than `max_features`.
    """
    feats = sc.referenced_features()
    if len(feats) > max_features:
        raise ValueError(
            f"{len(feats)} features is over the exhaustive cap {max_features}"
        )
    out = {}
    for bits in itertools.product((0, 1), repeat=len(feats)):
        assign = dict(zip(feats, bits))
        m1 = 0
        for s in sc.syndromes:
            m1 += _walk(s, assign)
        out[bits] = _own_vote(m1, sc.n)
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
        if self.n_syndromes < 1:
            raise ValueError("need at least one syndrome")
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
    m_level = spec.n_syndromes // 2 + 1
    for _ in range(200):
        pairs = [
            (a, b)
            for a in range(spec.n_features)
            for b in range(spec.n_features)
            if a != b
        ]
        chosen = rng.choice(len(pairs), size=spec.n_syndromes, replace=True)
        syndromes = []
        for c in chosen:
            fn = int(rng.choice(STANDARD_ORACLE_IDS))
            a, b = pairs[int(c)]
            syndromes.append((fn, a, b))

        bits = rng.integers(0, 2, size=(spec.n_rows, spec.n_features), dtype=np.uint8)
        if any(
            bits[:, j].min() == bits[:, j].max()
            for j in range(spec.n_features)
        ):
            continue
        labels = np.array(
            [
                int(
                    sum(
                        ORACLE_TRUTH[fn][2 * int(bits[r, a]) + int(bits[r, b])]
                        for fn, a, b in syndromes
                    )
                    >= m_level
                )
                for r in range(spec.n_rows)
            ],
            dtype=np.uint8,
        )
        if labels.min() == labels.max():
            continue
        noisy = labels.copy()
        flipped = sorted(
            int(i)
            for i in rng.choice(spec.n_rows, size=spec.noise_flips, replace=False)
        )
        for i in flipped:
            noisy[i] = 1 - noisy[i]
        c1 = int(noisy.sum())
        if abs((len(noisy) - c1) - c1) > 1:
            continue

        thresholds = [round(float(u), 1) for u in rng.uniform(5.0, 95.0, spec.n_features)]
        offsets = [round(float(d), 1) for d in rng.uniform(0.5, 3.0, spec.n_features)]
        rows = []
        for r in range(spec.n_rows):
            rows.append(tuple(
                thresholds[j] + offsets[j] if bits[r, j] else thresholds[j] - offsets[j]
                for j in range(spec.n_features)
            ))
        ds = Dataset(
            features=[
                FeatureSpec(f"f{j + 1}", "quantitative")
                for j in range(spec.n_features)
            ],
            rows=rows,
            labels=noisy,
        )
        return Planted(
            dataset=ds,
            syndromes=syndromes,
            m_level=m_level,
            bits=bits,
            clean_labels=labels,
            flipped=flipped,
            thresholds=thresholds,
            offsets=offsets,
        )
    raise RuntimeError(f"could not generate a usable dataset for seed {spec.seed}")
