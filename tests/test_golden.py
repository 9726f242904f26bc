"""Golden models: trained networks on planted data must not drift.

Each planted case trains on an `oracle.generate_planted` dataset and
compares two files under tests/golden/: the formula-table text
(`.rules`), and a summary (`.txt`) of the training report, every stored
unit and the first two beams (layer 1 and one grown layer, before the
final trim).  Any change to enumeration order, selection, deduplication
or the vote shows up here as a byte diff.

Each CSV case starts one step earlier, from the committed CSV text
(`.csv`) through `load_csv`: mixed kinds, quantitative columns with
repeated values and whitespace-padded cells, a nominal and a boolean
column, and one constant (degenerate) column.  It pins parsing, kind
inference and every encoder fit along with growth.  The wide CSV case
(`csv_wide*`) holds 96 continuous columns of 200 rows on a 0.1 grid,
so its columns repeat values and tie on gap widths, with one constant
column: it pins every quantitative fit of a wide dataset at once.

Each grid case renders one diagnostic table as text (`.txt`) and CSV
(`.csv`), both named `grid_*`: the bundled models on `mofn tabulate`'s
default splits (for ie_srl and ie_ar also their published ones) and on
a second split, a generated 16-feature rule at the grid cap with ties
and three-character cells, and a small rule whose feature names need
CSV quoting.

To rewrite the golden files after an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import pathlib
import random

import pytest

from mofn.data import load_csv
from mofn.encoding import encode_dataset
from mofn.network import TrainConfig, build_first_layer, grow_layer, train
from mofn.oracle import PlantedSpec, generate_planted
from mofn.rules import parse_formula_table, to_formula_table
from mofn.tables import make_table, render

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "mofn" / "fixtures"

# name: (features, rows, seed, noise flips, extended catalog)
CASES = {
    "p24x35_s1_noise5": (24, 35, 1, 5, False),
    "p24x35_s3": (24, 35, 3, 0, False),
    "p24x35_s4_noise5_ext": (24, 35, 4, 5, True),
    "p48x100_s2": (48, 100, 2, 0, False),
    "p48x100_s4_noise5": (48, 100, 4, 5, False),
    "p96x200_s1": (96, 200, 1, 0, False),
    "p96x200_s3_ext": (96, 200, 3, 0, True),
}


# name: (seed, rows, label flips, extended catalog, label column, class names)
CSV_CASES = {
    "csv_mixed_s1": (1, 80, 0, False, "label", ("0", "1")),
    "csv_mixed_s2_ext": (2, 150, 6, True, "outcome", ("well", "sick")),
    "csv_mixed_s3_noise": (3, 300, 30, False, "label", ("0", "1")),
}

# name: (seed, features, rows, label flips)
WIDE_CSV_CASES = {
    "csv_wide96x200_s5": (5, 96, 200, 10),
}

WARDS = ("north", "south", "east", "west")

QUOTED_RULE = """\
classes no yes
feature 0 "dose, mg" kind=boolean h=1
feature 1 'say "hi"' kind=boolean h=1
feature 2 plain kind=boolean h=0
feature 3 x kind=boolean h=1
layer 1
1 6 0 1
2 8 2 3
3 5 1 2
4 12 0 3
"""


def wide_rule(seed: int = 16, n_features: int = 16, n_syndromes: int = 12) -> str:
    """A seeded 2-layer rule over exactly `n_features` booleans: layer 1
    pairs the features up and every layer-1 unit feeds a syndrome.  An
    even N of at least 10 gives both ties and three-character cells."""
    rng = random.Random(seed)
    fns = (0, 3, 5, 6, 7, 8, 10, 12, 13)
    lines = ["classes neg pos"]
    lines += [f"feature {f} w{f} kind=boolean h={rng.randint(0, 1)}"
              for f in range(n_features)]
    order = rng.sample(range(n_features), n_features)
    n_first = n_features // 2
    lines.append("layer 1")
    lines += [f"{i + 1} {rng.choice(fns)} {order[2 * i]} {order[2 * i + 1]}"
              for i in range(n_first)]
    lines.append("layer 2")
    lines += [f"{s + 1} {rng.choice(fns)} {s % n_first + 1} {rng.randrange(n_features)}"
              for s in range(n_syndromes)]
    return "\n".join(lines) + "\n"


# name: (fixture file, rule text or None for wide_rule(), row features, column features)
GRID_CASES = {
    "grid_ie_srl": ("ie_srl.rules", [2, 5, 8, 11], [13, 14, 15, 16]),
    "grid_ie_srl_cols_first": ("ie_srl.rules", [13, 14, 15, 16, 2], [5, 8, 11]),
    "grid_ie_ar": ("ie_ar.rules", [9, 10, 12], [19, 20, 22]),
    "grid_ie_ar_cols_first": ("ie_ar.rules", [22, 19], [20, 12, 10, 9]),
    "grid_postop": ("postop.rules", [3, 4, 5, 6], [8, 9, 10]),
    "grid_postop_one_row": ("postop.rules", [10], [3, 4, 5, 6, 8, 9]),
    "grid_wide16": (None, list(range(8)), list(range(8, 16))),
    "grid_quoted": (QUOTED_RULE, [0, 1], [2, 3]),
}


def mixed_csv(name: str) -> str:
    """The CSV text of one CSV case, drawn from a seeded 2-of-3 rule over
    dose > 6, ward == north, fever and temp > 38.5."""
    seed, n_rows, flips, _, label, classes = CSV_CASES[name]
    rng = random.Random(seed)

    def pad(cell: str) -> str:
        return rng.choice(("", " ", "  ")) + cell + rng.choice(("", " ", "\t"))

    seen, rows = set(), []
    while len(rows) < n_rows:
        dose = rng.randint(0, 12)
        temp = rng.randint(350, 410) / 10
        ward = rng.choice(WARDS)
        fever, smoker = rng.randint(0, 1), rng.randint(0, 1)
        if (dose, temp, ward, fever, smoker) in seen:
            continue
        seen.add((dose, temp, ward, fever, smoker))
        votes = (dose > 6) + (ward == "north" or temp > 38.5) + (fever != smoker)
        rows.append([dose, temp, ward, fever, smoker, int(votes >= 2)])
    for r in rng.sample(range(n_rows), flips):
        rows[r][-1] = 1 - rows[r][-1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dose", "temp", "ward", label, "fever", "site", "smoker"])
    for dose, temp, ward, fever, smoker, y in rows:
        writer.writerow([
            pad(str(dose)), pad(f"{temp:.1f}"), pad(ward), classes[y],
            str(fever), pad("3.0"), str(smoker),
        ])
    return out.getvalue()


def wide_csv(name: str) -> str:
    """The CSV text of one wide case: the hidden bits and noisy labels of
    an `oracle.generate_planted` rule, each bit drawn as a value 0.1 to
    8.0 above or below its feature's threshold on a 0.1 grid.  The last
    column is constant."""
    seed, n_features, n_rows, flips = WIDE_CSV_CASES[name]
    planted = generate_planted(PlantedSpec(
        seed=seed, n_features=n_features, n_rows=n_rows, noise_flips=flips,
    ))
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"f{j + 1}" for j in range(n_features)] + ["label"])
    for bits, y in zip(planted.bits.tolist(), planted.dataset.labels.tolist()):
        cells = [
            f"{u + gap if bit else u - gap:.1f}"
            for u, bit, gap in zip(planted.thresholds, bits,
                                   (rng.randint(1, 80) / 10 for _ in bits))
        ]
        writer.writerow(cells[:-1] + ["50.0", str(int(y))])
    return out.getvalue()


def _rows(title: str, rows) -> list[str]:
    return [title] + [" ".join(map(str, row)) for row in rows]


def fit(name: str) -> tuple[str, str]:
    """Formula-table text and summary text of one golden case."""
    if name in CSV_CASES:
        _, _, _, extended, label, classes = CSV_CASES[name]
        ds = load_csv((GOLDEN / f"{name}.csv").read_text(),
                      label_column=label, class_names=classes)
    elif name in WIDE_CSV_CASES:
        extended = False
        ds = load_csv((GOLDEN / f"{name}.csv").read_text())
    else:
        n_features, n_rows, seed, noise, extended = CASES[name]
        ds = generate_planted(PlantedSpec(
            seed=seed, n_features=n_features, n_rows=n_rows,
            n_syndromes=3, noise_flips=noise,
        )).dataset
    config = TrainConfig(extended_catalog=extended)
    net = train(ds, config)
    enc = encode_dataset(ds)
    first = build_first_layer(enc, config)
    report = net.report
    lines = [
        "layer_sizes " + " ".join(map(str, report.layer_sizes)),
        "layer_min_errors " + " ".join(map(str, report.layer_min_errors)),
        f"vote_error {report.vote_error}/{report.n_rows}",
    ]
    for r, layer in enumerate(net.layers, start=1):
        lines += _rows(f"layer {r}: fn left right error",
                       [(u.fn, u.left, u.right, u.error) for u in layer])
    for r, beam in enumerate((first, grow_layer(first, enc, config)), start=1):
        lines += _rows(f"beam {r}: error fn left right",
                       zip(*(c.tolist() for c in (beam.error, beam.fn, beam.left, beam.right))))
    if name in WIDE_CSV_CASES:    # every fit, not only those the model reads
        lines += _rows("encoders: feature threshold polarity error degenerate",
                       [(e.feature, repr(e.threshold), e.polarity, e.error, e.degenerate)
                        for e in enc.encoders])
    return to_formula_table(net), "\n".join(lines) + "\n"


def grid_renders(name: str) -> tuple[str, str]:
    """Text and CSV renderings of one grid case."""
    model, rows, cols = GRID_CASES[name]
    if model is None:
        model = wide_rule()
    elif model.endswith(".rules"):
        model = (FIXTURES / model).read_text()
    table = make_table(parse_formula_table(model), rows, cols)
    return render(table, "text"), render(table, "csv")


@pytest.mark.parametrize("name", sorted(CASES) + sorted(CSV_CASES) + sorted(WIDE_CSV_CASES))
def test_model_is_byte_identical(name):
    text, summary = fit(name)
    assert text == (GOLDEN / f"{name}.rules").read_text()
    assert summary == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_render_is_byte_identical(name):
    text, csv_text = grid_renders(name)
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert csv_text == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CSV_CASES):
        (GOLDEN / f"{case}.csv").write_text(mixed_csv(case))
    for case in sorted(WIDE_CSV_CASES):
        (GOLDEN / f"{case}.csv").write_text(wide_csv(case))
    for case in sorted(CASES) + sorted(CSV_CASES) + sorted(WIDE_CSV_CASES):
        text, summary = fit(case)
        (GOLDEN / f"{case}.rules").write_text(text)
        (GOLDEN / f"{case}.txt").write_text(summary)
        print(f"wrote {case}")
    for case in sorted(GRID_CASES):
        text, csv_text = grid_renders(case)
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        (GOLDEN / f"{case}.csv").write_text(csv_text, encoding="utf-8")
        print(f"wrote {case}")
