"""Formula extraction, the table text format, and vote semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mofn.data import Dataset, FeatureSpec
from mofn.errors import EvaluationError, ModelFormatError, MofnError
from mofn.logic import function_ids
from mofn.network import TrainConfig, train
from mofn.rules import (
    FeatureRef,
    FnNode,
    decision_levels,
    describe_decision,
    evaluate,
    extract,
    parse_formula_table,
    symbolic,
    syndrome_bits,
    to_formula_table,
    vote_counts,
    vote_decision,
    vote_values,
)

TINY = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
5 5 0 1
"""


class TestVoteDecision:
    def test_class0_majority(self):
        d = vote_decision(m1=3, n=9)
        assert (d.value, d.m, d.n, d.m1, d.m0) == (6, 6, 9, 3, 6)
        assert d.klass == 0
        assert not d.contradictory
        assert d.confidence == pytest.approx(6 / 9)

    def test_class1_majority(self):
        d = vote_decision(m1=5, n=9)
        assert (d.value, d.m, d.klass) == (-5, 5, 1)

    def test_tie_is_contradictory(self):
        d = vote_decision(m1=4, n=8)
        assert d.value == 0
        assert d.klass is None
        assert d.contradictory

    def test_invalid_counts(self):
        with pytest.raises(EvaluationError):
            vote_decision(m1=5, n=4)
        with pytest.raises(EvaluationError):
            vote_decision(m1=-1, n=4)
        with pytest.raises(EvaluationError):
            vote_decision(m1=0, n=0)

    def test_describe(self):
        assert "IE" in describe_decision(vote_decision(2, 9), ("IE", "SRL"))
        assert "contradictory" in describe_decision(vote_decision(2, 4))


class TestDecisionLevels:
    """Confident level needs a strict majority; certain needs all N."""

    def test_levels_by_size(self):
        for text, want in [(TINY, (1, 1))]:
            sc = parse_formula_table(text)
            assert decision_levels(sc) == want

    def test_fixture_levels(self, ie_srl_text, ie_ar_text, postop_text):
        assert decision_levels(parse_formula_table(ie_srl_text)) == (5, 9)
        assert decision_levels(parse_formula_table(ie_ar_text)) == (10, 18)
        assert decision_levels(parse_formula_table(postop_text)) == (12, 22)


class TestBundledModels:
    def test_first_model_shape(self, ie_srl_text):
        sc = parse_formula_table(ie_srl_text)
        assert sc.class_names == ("IE", "SRL")
        assert not sc.extended
        assert [len(layer) for layer in sc.layers] == [8, 9]
        assert sc.n == 9
        assert sorted(sc.features) == [2, 5, 8, 11, 13, 14, 15, 16]
        assert sc.referenced_features() == [2, 5, 8, 11, 13, 14, 15, 16]

    def test_first_model_anchor_rows(self, ie_srl_text):
        sc = parse_formula_table(ie_srl_text)
        # absence of every syndrome bit: unanimous minus two dissenters
        assert evaluate(sc, {f: 0 for f in sc.features}).value == 7
        # low leucocytes and immune complex, no clinical signs
        d = evaluate(sc, {2: 1, 5: 1, 8: 0, 11: 0, 13: 0, 14: 0, 15: 0, 16: 0})
        assert (d.value, d.m1) == (6, 3)
        assert d.klass == 0

    def test_second_model_needs_extension(self, ie_ar_text):
        sc = parse_formula_table(ie_ar_text)
        assert sc.extended
        assert [len(layer) for layer in sc.layers] == [2, 6, 12, 18]
        assert decision_levels(sc) == (10, 18)
        assert evaluate(sc, {f: 0 for f in sc.features}).value == 18
        with pytest.raises(ModelFormatError, match="function id"):
            parse_formula_table(ie_ar_text, extended=False)

    def test_third_model_shape(self, postop_text):
        sc = parse_formula_table(postop_text)
        assert sc.class_names == ("complicated", "normal")
        assert [len(layer) for layer in sc.layers] == [12, 22]
        assert sorted(sc.features) == [3, 4, 5, 6, 8, 9, 10]
        for enc in sc.features.values():
            assert enc.kind == "quantitative"
            assert enc.threshold is not None


class TestCanonicalForm:
    def test_fixed_point_on_bundled_models(self, ie_srl_text, ie_ar_text, postop_text):
        for text in (ie_srl_text, ie_ar_text, postop_text):
            canon = to_formula_table(parse_formula_table(text))
            assert to_formula_table(parse_formula_table(canon)) == canon

    def test_messy_input_normalizes(self):
        messy = """
        # syndrome definition with noise
          classes   0    1

        feature 1   b kind=boolean h=1
        feature 0 a     kind=boolean h=1   # trailing note
        layer 1
           5   5  0   1
        """
        canon = to_formula_table(parse_formula_table(messy))
        lines = canon.splitlines()
        assert lines[0] == "classes 0 1"
        # features reordered by id, comments dropped
        assert lines[1].startswith("feature 0 a")
        assert lines[2].startswith("feature 1 b")
        assert lines[-1] == "5 5 0 1"

    def test_quoted_names_survive(self):
        text = TINY.replace("feature 0 a ", "feature 0 'left arm' ")
        sc = parse_formula_table(text)
        assert sc.features[0].feature == "left arm"
        canon = to_formula_table(sc)
        assert "'left arm'" in canon
        assert parse_formula_table(canon).features[0].feature == "left arm"

    def test_catalog_line_only_when_extended(self, ie_srl_text, ie_ar_text):
        assert not to_formula_table(parse_formula_table(ie_srl_text)).startswith(
            "catalog"
        )
        assert to_formula_table(parse_formula_table(ie_ar_text)).startswith(
            "catalog extended"
        )


class TestLayerScoping:
    """Unit ids are scoped per layer; a reference always means the previous one."""

    def test_id_reuse_across_layers(self):
        text = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
5 5 0 1
layer 2
5 0 5 1
"""
        sc = parse_formula_table(text)
        syn = sc.syndromes[0]
        assert isinstance(syn, FnNode) and syn.fn == 0
        inner = syn.left
        assert isinstance(inner, FnNode) and inner.fn == 5
        assert inner.left == FeatureRef(0)
        # the syndrome is (a XOR b) AND b
        assert evaluate(sc, {0: 0, 1: 1}).value == -1
        assert evaluate(sc, {0: 1, 1: 1}).value == 1

    def test_forward_reference_rejected(self):
        text = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
5 5 0 1
layer 2
6 0 7 1
"""
        with pytest.raises(ModelFormatError, match="y_7"):
            parse_formula_table(text)


class TestParseErrors:
    def check(self, text, match):
        with pytest.raises(ModelFormatError, match=match):
            parse_formula_table(text)

    def test_unknown_function_id(self):
        self.check(TINY.replace("5 5 0 1", "5 2 0 1"), "function id 2")

    def test_extension_id_needs_catalog_line(self):
        self.check(TINY.replace("5 5 0 1", "5 1 0 1"), "function id 1")
        ok = "catalog extended\n" + TINY.replace("5 5 0 1", "5 1 0 1")
        sc = parse_formula_table(ok)
        assert sc.extended

    def test_duplicate_unit_id(self):
        self.check(TINY + "5 0 0 1\n", "duplicate unit id 5")

    def test_duplicate_feature_id(self):
        bad = TINY.replace(
            "feature 1 b kind=boolean h=1", "feature 0 b kind=boolean h=1"
        )
        self.check(bad, "duplicate feature id")

    def test_duplicate_feature_name(self):
        bad = TINY.replace(
            "feature 1 b kind=boolean h=1", "feature 1 a kind=boolean h=1"
        )
        self.check(bad, "duplicate feature name")

    def test_undeclared_feature(self):
        self.check(TINY.replace("5 5 0 1", "5 5 0 9"), "undeclared feature x_9")

    def test_out_of_order_layer(self):
        self.check(TINY.replace("layer 1", "layer 2"), "expected layer 1")
        self.check(TINY + "layer 3\n1 0 5 1\n", "expected layer 2")

    def test_bad_row_arity(self):
        self.check(TINY.replace("5 5 0 1", "5 5 0"), "four integers")
        self.check(TINY.replace("5 5 0 1", "5 5 0 1 9"), "four integers")
        self.check(TINY.replace("5 5 0 1", "5 five 0 1"), "four integers")

    def test_missing_threshold(self):
        bad = TINY.replace(
            "feature 0 a kind=boolean h=1", "feature 0 a kind=quantitative h=1"
        )
        self.check(bad, "needs a threshold")

    def test_unknown_attribute(self):
        bad = TINY.replace("kind=boolean h=1\nlayer", "kind=boolean spin=up\nlayer")
        self.check(bad, "unknown feature attribute")

    def test_unknown_kind(self):
        bad = TINY.replace("feature 0 a kind=boolean", "feature 0 a kind=ordinal")
        self.check(bad, "unknown kind")

    def test_degenerate_feature_read(self):
        bad = TINY.replace(
            "feature 0 a kind=boolean h=1", "feature 0 a kind=boolean degenerate"
        )
        self.check(bad, "degenerate")

    def test_row_before_any_layer(self):
        self.check(TINY.replace("layer 1\n", ""), "unexpected directive")

    def test_empty_model(self):
        self.check("classes 0 1\nfeature 0 a kind=boolean h=1\n", "no final layer")
        self.check(TINY + "layer 2\n", "no final layer")

    def test_catalog_after_declarations(self):
        self.check(
            TINY.replace("layer 1", "catalog extended\nlayer 1"),
            "must precede",
        )

    def test_bad_classes_line(self):
        self.check(TINY.replace("classes 0 1", "classes same same"), "distinct")
        self.check(TINY.replace("classes 0 1", "classes onlyone"), "distinct")

    def test_nominal_needs_a_category(self):
        """Without category= the bit would be constant for every case."""
        bad = TINY.replace("feature 0 a kind=boolean", "feature 0 a kind=nominal")
        self.check(bad, "line 2: nominal feature 'a' needs a category=")
        ok = TINY.replace("feature 0 a kind=boolean",
                          "feature 0 a kind=nominal category=red")
        assert parse_formula_table(ok).features[0].category == "red"
        # a degenerate nominal feature has no category and reads no bit
        dead = TINY.replace("classes 0 1\n",
                            "classes 0 1\nfeature 7 c kind=nominal e=3 degenerate\n")
        assert parse_formula_table(dead).features[7].degenerate

    def test_threshold_must_be_finite(self):
        for u in ("nan", "inf", "-inf", "NaN", "Infinity", "1e999"):
            bad = TINY.replace("feature 0 a kind=boolean",
                               f"feature 0 a kind=quantitative u={u}")
            self.check(bad, f"line 2: bad value '{u}' for attribute 'u'")
        ok = TINY.replace("feature 0 a kind=boolean",
                          "feature 0 a kind=quantitative u=-1e300")
        assert parse_formula_table(ok).features[0].threshold == -1e300

    def test_bundled_and_golden_models_still_parse(self, fixtures_dir):
        golden = fixtures_dir.parents[2] / "tests" / "golden"
        paths = sorted(fixtures_dir.glob("*.rules")) + sorted(golden.glob("*.rules"))
        assert len(paths) == 10
        for path in paths:
            parse_formula_table(path.read_text())


class TestSlotProgram:
    DEAD = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
feature 2 c kind=boolean h=1
feature 3 d kind=boolean h=1
layer 1
1 0 0 1
2 6 2 3
3 5 1 0
layer 2
1 8 1 1
2 7 1 0
"""

    def test_dead_units_are_not_compiled(self):
        """y_2 and y_3 of layer 1 feed nothing: c, d are not referenced,
        but the canonical text still prints the dead units."""
        sc = parse_formula_table(self.DEAD)
        program = sc.program
        assert program.features == (0, 1)
        assert sc.referenced_features() == [0, 1]
        # slots 0, 1 are a, b; slot 2 is y_1 of layer 1, read by both syndromes
        assert program.units == (
            ((0, 0, 0, 1), 0, 1), ((1, 0, 0, 1), 2, 1), ((1, 0, 0, 0), 2, 0),
        )
        assert program.outputs == (3, 4)
        assert "2 6 2 3" in to_formula_table(sc)
        assert sc.program is program

    def test_batch_run_matches_single_cases(self):
        sc = parse_formula_table(self.DEAD)
        cases = [(a, b) for a in (0, 1) for b in (0, 1)]
        columns = [sum(case[f] << r for r, case in enumerate(cases)) for f in (0, 1)]
        outputs = sc.program.run(columns, len(cases))
        for r, (a, b) in enumerate(cases):
            assert [(o >> r) & 1 for o in outputs] == syndrome_bits(sc, {0: a, 1: b})
        assert vote_counts(outputs, len(cases)).tolist() == [
            sum(syndrome_bits(sc, {0: a, 1: b})) for a, b in cases
        ]

    def test_missing_bit_names_the_feature(self):
        sc = parse_formula_table(self.DEAD)
        with pytest.raises(EvaluationError, match="no bit assigned for feature 1"):
            evaluate(sc, {0: 1, 2: 0})

    def test_vote_values_match_vote_decision(self):
        for n in (1, 2, 9, 18):
            m1 = np.arange(n + 1)
            assert vote_values(m1, n).tolist() == [
                vote_decision(int(m), n).value for m in m1
            ]

    @pytest.mark.parametrize("n_sets", [1, 255, 256, 300])
    def test_vote_counts_match_per_case_sums(self, n_sets):
        """Case 0 is set in every bitset and case 1 in none, so from 256
        bitsets on a count no longer fits in a byte."""
        rng = np.random.default_rng(n_sets)
        n = 70
        bitsets = [(int(rng.integers(0, 1 << 62)) << 8 | 1) for _ in range(n_sets)]
        counts = vote_counts(bitsets, n)
        assert list(counts) == [sum((x >> r) & 1 for x in bitsets) for r in range(n)]
        assert counts[:2].tolist() == [n_sets, 0]


class TestExtraction:
    def make_net(self):
        ds = Dataset(
            features=[FeatureSpec("a", "boolean"), FeatureSpec("b", "boolean")],
            rows=[(0, 0), (0, 1), (1, 0), (1, 1)],
            labels=np.array([0, 1, 1, 0]),
        )
        return train(ds, TrainConfig(beam_width=8))

    def test_extracted_complex_round_trips(self):
        net = self.make_net()
        sc = extract(net)
        assert sc.n == 1
        canon = to_formula_table(sc)
        again = parse_formula_table(canon)
        assert to_formula_table(again) == canon
        for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            want = a ^ b
            d = evaluate(again, {0: a, 1: b})
            assert d.klass == want

    def test_network_serializes_directly(self):
        net = self.make_net()
        assert to_formula_table(net) == to_formula_table(extract(net))

    def test_extraction_prunes_dead_units(self):
        """Only rows feeding the final layer survive extraction."""
        for seed in (3, 5, 11):
            net = train_planted(seed)
            sc = extract(net)
            for r in range(1, len(sc.layers)):
                used = {row.left for row in sc.layers[r]}
                defined = {row.ident for row in sc.layers[r - 1]}
                assert defined <= used

    def test_syndrome_bits_and_symbolic(self):
        sc = parse_formula_table(TINY)
        assert syndrome_bits(sc, {0: 1, 1: 0}) == [1]
        assert syndrome_bits(sc, {0: 1, 1: 1}) == [0]
        with pytest.raises(EvaluationError):
            syndrome_bits(sc, {0: 2, 1: 0})
        lines = symbolic(sc)
        assert lines == ["y = M-of-1(g_5(x_0, x_1))"]

    def test_symbolic_on_bundled_model(self, ie_srl_text):
        sc = parse_formula_table(ie_srl_text)
        lines = symbolic(sc)
        # 8 first-layer definitions plus the closing vote line
        assert len(lines) == 9
        assert lines[0] == "y_39 = g_12(x_11, x_2)"
        assert lines[-1].startswith("y = M-of-9(")
        assert "g_0(y_39, x_8)" in lines[-1]


def train_planted(seed):
    from mofn.oracle import PlantedSpec, generate_planted

    p = generate_planted(PlantedSpec(seed=seed, n_features=5, n_rows=16, n_syndromes=3))
    return train(p.dataset, TrainConfig(patience=2))


# Token soup for the parser: the format's own vocabulary, plus near misses.
WORDS = (
    "catalog", "standard", "extended", "classes", "feature", "layer",
    "kind=quantitative", "kind=boolean", "kind=nominal", "kind=ordinal",
    "u=0.5", "u=nan", "u=inf", "u=-inf", "u=", "u=abc", "h=0", "h=1", "h=2",
    "category=red", "category=", "e=3", "e=x", "degenerate", "spin=up",
    "0", "1", "2", "5", "12", "-1", "x", "=", "'", '"', "'left arm'", "#", "# note",
)
NAMES = ("a", "b", "IE", "'left arm'", '"x#y"')


@st.composite
def model_soup(draw):
    """A valid model with mixed feature kinds, quoted names, comments and
    dead units, then up to three edits: insert a soup line, swap one
    token for a soup word, or drop a line."""
    extended = draw(st.booleans())
    lines = ["catalog extended" if extended else
             draw(st.sampled_from(("", "catalog standard", "# standard catalog")))]
    lines.append("classes " + " ".join(draw(
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=2, unique=True))))
    ids = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=len(ids),
                          max_size=len(ids), unique=True))
    dead = set(draw(st.lists(st.sampled_from(ids[1:]), max_size=1))) if len(ids) > 1 else set()
    for ident, name in zip(ids, names):
        kind = draw(st.sampled_from(("quantitative", "boolean", "nominal")))
        attrs = {"quantitative": "u=-0.25", "boolean": "", "nominal": "category='r s'"}[kind]
        tail = "e=2 degenerate" if ident in dead else f"h={draw(st.integers(0, 1))} e=1"
        lines.append(f"feature {ident} {name} kind={kind} {attrs} {tail}  # note")
    readable = [f for f in ids if f not in dead]
    fns = function_ids(extended)
    prev = readable
    for r in range(1, draw(st.integers(1, 3)) + 1):
        lines.append(f"layer {r}")
        units = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
        for unit in units:
            left, right = draw(st.sampled_from(prev)), draw(st.sampled_from(readable))
            lines.append(f"{unit} {draw(st.sampled_from(fns))} {left} {right}")
        prev = units
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("insert", "swap", "drop")))
        if edit == "insert":
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=5))))
        elif edit == "swap" and lines[at]:
            tokens = lines[at].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(WORDS))
            lines[at] = " ".join(tokens)
        else:
            del lines[at]
    return "\n".join(lines) + "\n"


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(text=model_soup())
    def test_only_model_errors_and_canonical_fixed_point(self, text):
        try:
            sc = parse_formula_table(text)
        except MofnError:
            return
        canon = to_formula_table(sc)
        again = parse_formula_table(canon)
        assert to_formula_table(again) == canon
        assert again.referenced_features() == sc.referenced_features()
        d = evaluate(again, {f: 0 for f in again.referenced_features()})
        assert d.n == sc.n

