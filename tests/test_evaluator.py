"""Every decision path agrees on random models.

Single cases (`evaluate`), CSV batches (`mofn classify`) and grids
(`make_table`) all run one compiled slot program over bitsets of 1, n
and 2^q bits.  Random models with 1-4 layers, both catalogs and dead
units, over 1-8 declared features, are checked against the oracle's
own chain walk at batch sizes around the 8- and 64-bit boundaries.
"""

import contextlib
import io
import itertools
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mofn.cli import main
from mofn.errors import EvaluationError
from mofn.logic import function_ids, truth_row
from mofn.oracle import _chains, _own_vote, _walk, exhaustive_decision_check
from mofn.rules import evaluate, parse_formula_table, vote_counts, vote_levels
from mofn.tables import make_table

BATCH_SIZES = (1, 7, 8, 9, 63, 64, 65, 130)


@st.composite
def models(draw):
    """Formula table text with mixed feature kinds; units a later layer
    does not read are left in as dead units."""
    extended = draw(st.booleans())
    ids = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=True))
    lines = ["catalog extended"] if extended else []
    lines.append("classes no yes")
    for ident in ids:
        kind = draw(st.sampled_from(("quantitative", "boolean", "nominal")))
        h = draw(st.integers(0, 1))
        extra = {"quantitative": " u=0.5", "boolean": "", "nominal": " category=red"}[kind]
        lines.append(f"feature {ident} f{ident} kind={kind}{extra} h={h}")
    prev = None
    for r in range(1, draw(st.integers(1, 4)) + 1):
        lines.append(f"layer {r}")
        units = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
        for unit in units:
            left = draw(st.sampled_from(prev if prev else ids))
            right = draw(st.sampled_from(ids))
            fns = function_ids(extended)
            if r == 1 and left == right:    # the parser refuses a constant self-pair
                fns = [fn for fn in fns if truth_row(fn, True)[0] != truth_row(fn, True)[3]]
            lines.append(f"{unit} {draw(st.sampled_from(fns))} {left} {right}")
        prev = units
    return "\n".join(lines) + "\n"


def chain_features(chain):
    return {chain[0].left, *(row.right for row in chain)}


def raw_cell(enc, bit):
    """A raw CSV value that encodes to `bit`."""
    value = bit if enc.polarity else 1 - bit
    if enc.kind == "quantitative":
        return "1.5" if value else "-0.5"
    if enc.kind == "boolean":
        return str(value)
    return "red" if value else "blue"


def same(got, want):
    return (got.value, got.m, got.n, got.m1) == (want.value, want.m, want.n, want.m1)


@settings(max_examples=120, deadline=None)
@given(text=models(), n=st.sampled_from(BATCH_SIZES), seed=st.integers(0, 2**32 - 1))
def test_every_path_agrees_with_the_oracle(text, n, seed):
    sc = parse_formula_table(text)
    referenced = sc.referenced_features()
    assert referenced == sorted(set().union(*map(chain_features, _chains(sc.layers))))

    exhaustive = exhaustive_decision_check(sc, max_features=8)
    unread = {ident: 1 for ident in sc.features if ident not in referenced}
    for key, want in exhaustive.items():
        assert same(evaluate(sc, dict(zip(referenced, key))), want)
        assert same(evaluate(sc, {**unread, **dict(zip(referenced, key))}), want)

    rng = random.Random(seed)
    cases = [tuple(rng.randint(0, 1) for _ in referenced) for _ in range(n)]
    header = [enc.feature for enc in sc.features.values()]
    rng.shuffle(header)
    by_name = {enc.feature: ident for ident, enc in sc.features.items()}
    lines = [",".join(header + ["note"])]
    for case in cases:
        bits = dict(zip(referenced, case))
        lines.append(",".join(
            [raw_cell(sc.features[by_name[name]], bits.get(by_name[name], 0))
             for name in header] + ["x"]))
    with tempfile.TemporaryDirectory() as tmp:
        model, data = Path(tmp, "model.rules"), Path(tmp, "cases.csv")
        model.write_text(text)
        data.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["classify", str(model), str(data)]) == 0
    got = out.getvalue().splitlines()
    assert got[0] == "row,decision,value,votes"
    assert len(got) == n + 1
    for r, case in enumerate(cases):
        d = evaluate(sc, dict(zip(referenced, case)))
        label = "contradictory" if d.contradictory else sc.class_names[d.klass]
        value = f"{d.value:+d}" if d.value else "0"
        assert got[r + 1] == f"{r},{label},{value},{d.m}/{d.n}"

    if len(referenced) >= 2:
        order = referenced[:]
        rng.shuffle(order)
        cut = rng.randint(1, len(order) - 1)
        table = make_table(sc, order[:cut], order[cut:])
        for ri in range(table.shape[0]):
            for ci in range(table.shape[1]):
                assign = dict(zip(table.row_features, table.row_bits(ri)))
                assign.update(zip(table.col_features, table.col_bits(ci)))
                assert table.cells[ri, ci] == evaluate(sc, assign).value


def test_every_path_agrees_past_byte_wide_counts(tmp_path):
    """300 layer-1 syndromes over 4 boolean features: vote_counts needs
    16-bit lanes, and cells count up to 300 votes for either class or
    tie at 150."""
    units = [(0, 0, 1)] * 150 + [(6, 2, 3)] * 100 + [(5, 1, 2)] * 50    # and, or, xor
    text = "\n".join([
        "classes no yes",
        *(f"feature {j} f{j} kind=boolean h=1" for j in range(4)),
        "layer 1",
        *(f"{i} {fn} {a} {b}" for i, (fn, a, b) in enumerate(units, start=1)),
    ]) + "\n"
    sc = parse_formula_table(text)
    assert sc.n == 300
    cases = list(itertools.product((0, 1), repeat=4))
    assert vote_counts(sc.program.run([0] * 4, len(cases)), len(cases)).typecode == "H"

    exhaustive = exhaustive_decision_check(sc)
    table = make_table(sc, [0, 1], [2, 3])
    for ri, ci in itertools.product(range(4), range(4)):
        key = table.row_bits(ri) + table.col_bits(ci)
        want = exhaustive[key]
        assert same(evaluate(sc, dict(enumerate(key))), want)
        assert table.cells[ri, ci] == want.value
    assert {-300, -250, 0, 300} <= set(table.cells.ravel().tolist())

    model, data = tmp_path / "model.rules", tmp_path / "cases.csv"
    model.write_text(text)
    data.write_text("f0,f1,f2,f3\n" + "".join(",".join(map(str, c)) + "\n" for c in cases))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", str(model), str(data)]) == 0
    got = out.getvalue().splitlines()
    assert len(got) == len(cases) + 1
    for r, case in enumerate(cases):
        d = evaluate(sc, dict(enumerate(case)))
        label = "contradictory" if d.contradictory else sc.class_names[d.klass]
        value = f"{d.value:+d}" if d.value else "0"
        assert got[r + 1] == f"{r},{label},{value},{d.m}/{d.n}"


def by_bits(sc, bits):
    """The decision from the oracle's own walk of each syndrome's chain
    and its own vote."""
    chains = _chains(sc.layers)
    return _own_vote(sum(_walk(chain, bits) for chain in chains), len(chains))


@pytest.mark.parametrize("name", ["ie_srl", "ie_ar", "postop"])
def test_single_cases_of_the_bundled_models(name, fixtures_dir):
    """Every assignment of a bundled model decides alike through
    evaluate, the compiled program run at m = 1, the oracle's walk of
    each chain and its exhaustive check."""
    sc = parse_formula_table((fixtures_dir / f"{name}.rules").read_text())
    referenced = sc.referenced_features()
    for key, want in exhaustive_decision_check(sc).items():
        bits = dict(zip(referenced, key))
        got = evaluate(sc, bits)
        program = sc.program.compiled()
        ran = program(*(bits[f] for f in sc.program.features), 1)
        assert got is vote_levels(sc.n)[ran.count(1)]
        assert same(got, by_bits(sc, bits)) and same(got, want)


@pytest.mark.parametrize("extended", [False, True])
def test_one_feature_self_pairs(extended):
    """A one-feature program reads its one slot as a tuple of one; every
    function that is no constant on a self-pair decides."""
    for fn in function_ids(extended):
        g = truth_row(fn, extended)
        if g[0] == g[3]:    # the parser refuses a constant self-pair
            continue
        sc = parse_formula_table(("catalog extended\n" if extended else "")
                                 + f"feature 4 a kind=boolean h=1\nlayer 1\n1 {fn} 4 4\n")
        assert sc.program.features == (4,)
        for bit in (0, 1):
            assert evaluate(sc, {4: bit}) == by_bits(sc, {4: bit})
            assert evaluate(sc, {4: bit}).m1 == g[3 * bit], (fn, bit)


@pytest.mark.parametrize("kind", [bool, np.uint8, np.int64, np.uint64])
def test_bits_of_one_type(kind, fixtures_dir):
    """Bool bits and numpy bits of one type decide as the ints they equal."""
    sc = parse_formula_table((fixtures_dir / "postop.rules").read_text())
    referenced = sc.referenced_features()
    rng = random.Random(7)
    for _ in range(20):
        ints = {f: rng.randint(0, 1) for f in referenced}
        bits = {f: kind(bit) for f, bit in ints.items()}
        assert evaluate(sc, bits) == by_bits(sc, bits) == evaluate(sc, ints)


def test_counts_past_a_byte_of_numpy_bits():
    """300 syndromes voting 1 on uint8 bits: a sum of the uint8 outputs
    would wrap to 44."""
    sc = parse_formula_table("feature 0 a kind=boolean h=1\nfeature 1 b kind=boolean h=1\n"
                             "layer 1\n" + "".join(f"{i} 0 0 1\n" for i in range(1, 301)))
    assert evaluate(sc, {0: np.uint8(1), 1: np.uint8(1)}).m1 == 300


@pytest.mark.parametrize("bad", [2, [1], "1", None])
def test_an_unreferenced_value_that_is_no_bit_is_refused_by_name(bad, fixtures_dir):
    sc = parse_formula_table((fixtures_dir / "ie_srl.rules").read_text())
    bits = dict.fromkeys(sc.referenced_features(), 0)
    assert 99 not in sc.features
    with pytest.raises(EvaluationError, match=rf"^feature 99: {re.escape(repr(bad))} is not a bit$"):
        evaluate(sc, {**bits, 99: bad})


@pytest.mark.parametrize("bad", [1.0, 0.0])
def test_a_referenced_float_is_refused_by_name(bad, fixtures_dir):
    sc = parse_formula_table((fixtures_dir / "ie_srl.rules").read_text())
    bits = dict.fromkeys(sc.referenced_features(), 1)
    with pytest.raises(EvaluationError, match=rf"^feature 16: {bad!r} is not a bit$"):
        evaluate(sc, {**bits, 16: bad})


def test_a_missing_referenced_feature_is_named(fixtures_dir):
    sc = parse_formula_table((fixtures_dir / "ie_srl.rules").read_text())
    bits = dict.fromkeys(sc.referenced_features(), 0)
    for _ in range(2):    # on a fresh complex, and after a decision
        with pytest.raises(EvaluationError, match="^no bit assigned for feature 11$"):
            evaluate(sc, {f: b for f, b in bits.items() if f != 11})
        evaluate(sc, bits)


@pytest.mark.parametrize("extra, error", [
    ({99: 2}, "feature 99: 2 is not a bit"),
    ({22: 1.0}, "no bit assigned for feature 9"),
    ({10: [1]}, "feature 10: [1] is not a bit"),
])
def test_a_missing_feature_with_a_value_that_is_no_bit(extra, error, ie_ar_text):
    """With feature 9 missing, a value the bit test refuses is named before
    the missing feature, a float it passes is never reached, and an
    unhashable one is named."""
    sc = parse_formula_table(ie_ar_text)
    bits = dict.fromkeys(sc.referenced_features(), 1)
    del bits[9]
    with pytest.raises(EvaluationError, match=f"^{re.escape(error)}$"):
        evaluate(sc, {**bits, **extra})


def test_numpy_bits_of_mixed_types_with_and_without_a_missing_feature(ie_ar_text):
    """uint64 and int64 bits, which the compiled program cannot combine,
    name a missing feature, and with none missing decide as ints."""
    sc = parse_formula_table(ie_ar_text)
    referenced = sc.referenced_features()
    program = sc.program.compiled()
    for key in itertools.product((0, 1), repeat=len(referenced)):
        ints = dict(zip(referenced, key))
        mixed = {f: (np.uint64, np.int64)[k % 2](bit) for k, (f, bit) in enumerate(ints.items())}
        assert evaluate(sc, mixed) == evaluate(sc, ints)
        del mixed[9]
        with pytest.raises(EvaluationError, match="^no bit assigned for feature 9$"):
            evaluate(sc, mixed)
    with pytest.raises(TypeError):    # so the decisions above took the scan
        program(*program.get({f: (np.uint64, np.int64)[k % 2](1) for k, f in enumerate(referenced)}))
