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
inference and every encoder fit along with growth.

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
from mofn.rules import to_formula_table

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

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

WARDS = ("north", "south", "east", "west")


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


def _rows(title: str, rows) -> list[str]:
    return [title] + [" ".join(map(str, row)) for row in rows]


def fit(name: str) -> tuple[str, str]:
    """Formula-table text and summary text of one golden case."""
    if name in CSV_CASES:
        _, _, _, extended, label, classes = CSV_CASES[name]
        ds = load_csv((GOLDEN / f"{name}.csv").read_text(),
                      label_column=label, class_names=classes)
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
                       [(c.error, c.fn, c.left, c.right) for c in beam])
    return to_formula_table(net), "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES) + sorted(CSV_CASES))
def test_model_is_byte_identical(name):
    text, summary = fit(name)
    assert text == (GOLDEN / f"{name}.rules").read_text()
    assert summary == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CSV_CASES):
        (GOLDEN / f"{case}.csv").write_text(mixed_csv(case))
    for case in sorted(CASES) + sorted(CSV_CASES):
        text, summary = fit(case)
        (GOLDEN / f"{case}.rules").write_text(text)
        (GOLDEN / f"{case}.txt").write_text(summary)
        print(f"wrote {case}")
