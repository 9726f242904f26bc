"""Seeded input generators for the benchmark.

Everything the program under test reads is written here: planted
training CSVs with the text of the rule each was drawn from, case CSVs to
classify, and the text of a 16-feature rule.  The generators use only
numpy's seeded Generator and never call into `mofn`, so the inputs do not
depend on the code being measured.  The same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import shlex
from dataclasses import dataclass

import numpy as np

# Two-input truth tables in the order (0,0), (0,1), (1,0), (1,1), for the
# standard catalog ids.  Grouped by how often the unit outputs 1 on
# uniform random inputs, so a planted 2-of-3 vote that takes one function
# from each group is balanced in expectation.
TRUTH = {
    0: (0, 0, 0, 1), 3: (0, 1, 0, 0), 5: (0, 1, 1, 0), 6: (0, 1, 1, 1),
    7: (1, 0, 0, 0), 8: (1, 0, 0, 1), 10: (1, 0, 1, 1), 12: (1, 1, 0, 1),
    13: (1, 1, 1, 0),
}
QUARTER = (0, 3, 7)          # outputs 1 on a quarter of inputs
HALF = (5, 8)                # on half
THREE_QUARTERS = (6, 10, 12, 13)

CATEGORIES = tuple(f"c{i}" for i in range(6))


def _csv_text(header: list[str], columns: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return out.getvalue()


def _vote(bits: np.ndarray, syndromes) -> np.ndarray:
    """2-of-3 majority of the planted units over a (rows, features) bit matrix."""
    m1 = np.zeros(len(bits), dtype=np.int64)
    for fn, a, b in syndromes:
        table = np.array(TRUTH[fn], dtype=np.int64)
        m1 += table[2 * bits[:, a] + bits[:, b]]
    return (m1 >= 2).astype(np.int64)


def _continuous(rng, bits: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Values strictly above the threshold where the bit is 1, below where
    it is 0, spread continuously so every value is distinct."""
    gap = rng.uniform(0.2, 8.0, size=bits.shape)
    return np.where(bits == 1, thresholds + gap, thresholds - gap)


def _fmt(values) -> list[str]:
    return [f"{x:.4f}" for x in np.asarray(values, dtype=float).tolist()]


def _both_classes(labels: np.ndarray) -> bool:
    return 0 < int(labels.sum()) < len(labels)


def _cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind == "f":
        return _fmt(column)
    return [str(x) for x in column.tolist()]


def _dataset_text(columns: dict[str, np.ndarray], labels: np.ndarray) -> str:
    return _csv_text(
        [*columns, "label"],
        [_cells(c) for c in columns.values()] + [_cells(labels)],
    )


@dataclass
class Planted:
    """A training set generated from a hidden 2-of-3 rule."""

    csv: str                        # training CSV text, label column last
    columns: dict[str, np.ndarray]  # raw values of each feature column
    rule: str                       # the hidden rule as canonical formula table text


def _rule_text(columns: dict[str, np.ndarray], syndromes, encoders: dict[int, str]) -> str:
    """Formula table of the planted units; `encoders` maps each feature
    index a unit reads to its declaration attributes."""
    names = list(columns)
    lines = ["classes 0 1"]
    for j in sorted(encoders):
        lines.append(f"feature {j} {names[j]} {encoders[j]} h=1")
    lines.append("layer 1")
    for i, (fn, a, b) in enumerate(syndromes, start=1):
        lines.append(f"{i} {fn} {a} {b}")
    return "\n".join(lines) + "\n"


def _units(rng: np.random.Generator, pairs: list[tuple[int, int]]):
    """One unit per pair, with one function from each output-rate group
    in a random order."""
    groups = [(QUARTER, HALF, THREE_QUARTERS)[int(g)] for g in rng.permutation(3)]
    return [(int(rng.choice(group)), a, b) for group, (a, b) in zip(groups, pairs)]


def wide_dataset(rng: np.random.Generator, n_features: int = 96, n_rows: int = 200) -> Planted:
    """Planted 2-of-3 rule over six of many continuous quantitative features."""
    while True:
        f = [int(x) for x in rng.choice(n_features, size=6, replace=False)]
        syndromes = _units(rng, [(f[0], f[1]), (f[2], f[3]), (f[4], f[5])])
        bits = rng.integers(0, 2, size=(n_rows, n_features))
        labels = _vote(bits, syndromes)
        if _both_classes(labels):
            break
    thresholds = rng.uniform(5.0, 95.0, size=n_features)
    values = _continuous(rng, bits, thresholds)
    columns = {f"f{j}": values[:, j] for j in range(n_features)}
    encoders = {j: f"kind=quantitative u={float(thresholds[j])!r}" for j in f}
    return Planted(_dataset_text(columns, labels), columns, _rule_text(columns, syndromes, encoders))


N_QUANT, N_NOMINAL, N_BOOL = 10, 2, 2


def tall_dataset(rng: np.random.Generator, n_rows: int, noise: float = 0.10) -> Planted:
    """Planted 2-of-3 rule over mixed columns, with a share of labels flipped.

    Columns: 10 continuous quantitative, 2 nominal with 6 categories, 2
    boolean.  The hidden bit of a nominal column is "equals its planted
    category"; of a boolean column, the value itself.  One unit reads two
    quantitative bits, one mixes in a nominal bit, one a boolean bit, so
    every encoder kind carries signal.
    """
    n_features = N_QUANT + N_NOMINAL + N_BOOL
    nominal = range(N_QUANT, N_QUANT + N_NOMINAL)
    while True:
        q = [int(x) for x in rng.choice(N_QUANT, size=4, replace=False)]
        d = N_QUANT + int(rng.integers(N_NOMINAL))
        e = N_QUANT + N_NOMINAL + int(rng.integers(N_BOOL))
        syndromes = _units(rng, [(q[0], q[1]), (q[2], d), (e, q[3])])
        cats = rng.integers(0, len(CATEGORIES), size=(n_rows, N_NOMINAL))
        planted_cat = rng.integers(0, len(CATEGORIES), size=N_NOMINAL)
        bits = rng.integers(0, 2, size=(n_rows, n_features))
        for k, j in enumerate(nominal):
            bits[:, j] = (cats[:, k] == planted_cat[k]).astype(np.int64)
        labels = _vote(bits, syndromes)
        flipped = rng.choice(n_rows, size=int(round(noise * n_rows)), replace=False)
        labels[flipped] = 1 - labels[flipped]
        if _both_classes(labels):
            break
    thresholds = rng.uniform(5.0, 95.0, size=N_QUANT)
    quant = _continuous(rng, bits[:, :N_QUANT], thresholds)
    columns = {f"q{j}": quant[:, j] for j in range(N_QUANT)}
    names = np.array(CATEGORIES)
    columns.update({f"n{k}": names[cats[:, k]] for k in range(N_NOMINAL)})
    columns.update({f"b{k}": bits[:, N_QUANT + N_NOMINAL + k] for k in range(N_BOOL)})
    encoders = {j: f"kind=quantitative u={float(thresholds[j])!r}" for j in q}
    encoders[d] = f"kind=nominal category={CATEGORIES[int(planted_cat[d - N_QUANT])]}"
    encoders[e] = "kind=boolean"
    return Planted(_dataset_text(columns, labels), columns, _rule_text(columns, syndromes, encoders))


def cases_like(rng: np.random.Generator, columns: dict[str, np.ndarray], n_rows: int) -> str:
    """Fresh unlabelled cases in the value ranges of a dataset's columns.

    Quantitative columns draw uniformly between the column's min and max,
    nominal and boolean columns draw from the values seen.
    """
    out = []
    for column in columns.values():
        if column.dtype.kind == "f":
            out.append(_fmt(rng.uniform(column.min(), column.max(), n_rows)))
        else:
            seen = np.unique(column)
            out.append(_cells(seen[rng.integers(0, len(seen), n_rows)]))
    return _csv_text(list(columns), out)


def declared_features(rule_text: str) -> dict:
    """Feature name -> (kind, threshold, category) from the `feature`
    lines of a formula table, read without the program's parser."""
    out = {}
    for line in rule_text.splitlines():
        tokens = shlex.split(line, comments=True)
        if not tokens or tokens[0] != "feature":
            continue
        attrs = dict(t.split("=", 1) for t in tokens[3:] if "=" in t)
        u = float(attrs["u"]) if "u" in attrs else 0.0
        out[tokens[2]] = (attrs.get("kind", "boolean"), u, attrs.get("category"))
    return out


def cases_for_model(rng: np.random.Generator, rule_text: str, n_rows: int) -> str:
    """Raw cases for every feature a rule declares.

    Quantitative values fall on either side of the declared threshold,
    nominal values are the declared category or another one, boolean
    values are 0 or 1.
    """
    features = declared_features(rule_text)
    names = sorted(features)
    columns = []
    for name in names:
        kind, u, category = features[name]
        if kind == "quantitative":
            spread = max(1.0, abs(u))
            columns.append(_fmt(u + rng.uniform(-spread, spread, n_rows)))
        elif kind == "nominal":
            other = "other" if category != "other" else "else"
            columns.append([category if b else other for b in rng.integers(0, 2, n_rows).tolist()])
        else:
            columns.append(_cells(rng.integers(0, 2, n_rows)))
    return _csv_text(names, columns)


def wide_rule(rng: np.random.Generator, n_features: int = 16) -> str:
    """Canonical text of a 2-layer rule that references exactly
    `n_features` features: layer 1 pairs the features up, and an odd
    number of layer-2 syndromes each read one layer-1 unit and one feature,
    so no grid cell is a tie.  Features cycle through the three kinds."""
    lines = ["classes neg pos"]
    for j in range(n_features):
        kind = ("quantitative", "boolean", "nominal")[j % 3]
        h = int(rng.integers(0, 2))
        if kind == "quantitative":
            u = float(np.round(rng.uniform(1.0, 99.0), 1))
            lines.append(f"feature {j} w{j} kind=quantitative u={u!r} h={h}")
        elif kind == "nominal":
            lines.append(f"feature {j} w{j} kind=nominal category=c{j % 6} h={h}")
        else:
            lines.append(f"feature {j} w{j} kind=boolean h={h}")
    perm = [int(x) for x in rng.permutation(n_features)]
    fns = sorted(TRUTH)
    lines.append("layer 1")
    n_first = n_features // 2
    for i in range(n_first):
        fn = fns[int(rng.integers(len(fns)))]
        lines.append(f"{i + 1} {fn} {perm[2 * i]} {perm[2 * i + 1]}")
    lines.append("layer 2")
    n_syndromes = n_first + 1 if n_first % 2 == 0 else n_first
    for s in range(n_syndromes):
        fn = fns[int(rng.integers(len(fns)))]
        lines.append(f"{s + 1} {fn} {s % n_first + 1} {int(rng.integers(n_features))}")
    return "\n".join(lines) + "\n"
