"""Golden models: trained networks on planted data must not drift.

Each case trains on an `oracle.generate_planted` dataset and compares
two files under tests/golden/: the formula-table text (`.rules`), and
a summary (`.txt`) of the training report, every stored unit and the
first two beams (layer 1 and one grown layer, before the final trim).
Any change to enumeration order, selection, deduplication or the vote
shows up here as a byte diff.

To rewrite the golden files after an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import pathlib

import pytest

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


def _rows(title: str, rows) -> list[str]:
    return [title] + [" ".join(map(str, row)) for row in rows]


def fit(name: str) -> tuple[str, str]:
    """Formula-table text and summary text of one golden case."""
    n_features, n_rows, seed, noise, extended = CASES[name]
    planted = generate_planted(PlantedSpec(
        seed=seed, n_features=n_features, n_rows=n_rows,
        n_syndromes=3, noise_flips=noise,
    ))
    config = TrainConfig(extended_catalog=extended)
    net = train(planted.dataset, config)
    enc = encode_dataset(planted.dataset)
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_is_byte_identical(name):
    text, summary = fit(name)
    assert text == (GOLDEN / f"{name}.rules").read_text()
    assert summary == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        text, summary = fit(case)
        (GOLDEN / f"{case}.rules").write_text(text)
        (GOLDEN / f"{case}.txt").write_text(summary)
        print(f"wrote {case}")
