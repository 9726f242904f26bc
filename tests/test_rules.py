"""Formula extraction, the table text format, and vote semantics."""

import re
import shlex

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mofn import rules
from mofn.data import Dataset, FeatureSpec
from mofn.encoding import Encoder
from mofn.errors import EvaluationError, ModelFormatError, MofnError
from mofn.logic import function_ids
from mofn.network import TrainConfig, train
from mofn.oracle import ORACLE_TRUTH, _chains, _own_vote, _walk
from mofn.rules import (
    Row,
    SlotProgram,
    SyndromeComplex,
    decision_levels,
    describe_decision,
    evaluate,
    extract,
    parse_formula_table,
    symbolic,
    to_formula_table,
    vote_counts,
    vote_decision,
    vote_levels,
    _SHELL_SYNTAX,
    _split_line,
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

    def test_levels_tabulate_vote_decision_once_per_n(self):
        for n in (1, 2, 9, 300):
            assert vote_levels(n) == tuple(vote_decision(m1, n) for m1 in range(n + 1))
            assert vote_levels(n) is vote_levels(n)
        with pytest.raises(EvaluationError):
            vote_levels(0)

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
        standard = ie_ar_text.replace("catalog extended\n", "")
        with pytest.raises(ModelFormatError, match=r"unknown function id 1 \(standard catalog\)"):
            parse_formula_table(standard)

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

    @pytest.mark.parametrize("name", ["a\rb", "a\nb"], ids=["CR", "LF"])
    @pytest.mark.parametrize("where", ["classes", "feature", "category"])
    def test_names_holding_a_line_break_are_not_written(self, where, name):
        """A name holding a line break would cut its line in two when the
        file is read back; every name written refuses one."""
        sc = parse_formula_table(TINY)
        features, class_names = dict(sc.features), sc.class_names
        if where == "classes":
            class_names = (name, "1")
        else:
            features[0] = (Encoder(name, "boolean", 1) if where == "feature"
                           else Encoder("a", "nominal", 1, category=name))
        sc = SyndromeComplex(features, sc.layers, class_names, sc.extended)
        with pytest.raises(ModelFormatError,
                           match=f"^cannot write {re.escape(repr(name))} to a model file"):
            to_formula_table(sc)

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
        assert sc.syndromes == [(Row(5, 5, 0, 1), Row(5, 0, 5, 1))]
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

    # TINY's first four lines, then 2999 units of layer 1 on lines 5-3003
    LONG = TINY.replace("5 5 0 1\n", "".join(f"{i} 5 0 1\n" for i in range(2999)))

    def test_duplicate_unit_id_at_the_end_of_a_long_layer(self):
        self.check(self.LONG + "0 5 0 1\n", "^line 3004: duplicate unit id 0 in layer 1$")

    def test_undefined_parent_at_the_end_of_a_long_layer(self):
        # layer 2 starts on line 3005, and its 3000 units fill lines 3006-6005
        text = (self.LONG + "2999 5 0 1\nlayer 2\n"
                + "".join(f"{i} 0 {i} 1\n" for i in range(2999)) + "2999 0 3000 1\n")
        self.check(text, "^line 6005: unit y_3000 is not defined in layer 1$")

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

    @pytest.mark.parametrize("old, new, message", [
        ("a kind=boolean h=1", "a kind=boolean h=1 h=0", "^line 2: attribute 'h' given twice$"),
        ("b kind=boolean h=1", "b kind=boolean kind=nominal h=1",
         "^line 3: attribute 'kind' given twice$"),
        ("b kind=boolean h=1", "b kind=quantitative u=1 h=1 u=2",
         "^line 3: attribute 'u' given twice$"),
        ("a kind=boolean h=1", "a kind=boolean degenerate h=1 degenerate",
         "^line 2: attribute 'degenerate' given twice$"),
        ("classes 0 1\n", "classes 0 1\nclasses 1 0\n", "^line 2: second classes line$"),
        ("classes 0 1\n", "catalog standard\ncatalog extended\nclasses 0 1\n",
         "^line 2: second catalog line$"),
    ], ids=["h", "kind", "u", "degenerate", "classes", "catalog"])
    def test_a_fact_given_twice(self, old, new, message):
        """The last of two values would silently win: h=1 h=0 inverts a bit."""
        self.check(TINY.replace(old, new), message)

    def test_unknown_kind(self):
        bad = TINY.replace("feature 0 a kind=boolean", "feature 0 a kind=ordinal")
        self.check(bad, "unknown kind")

    def test_degenerate_feature_read(self):
        bad = TINY.replace(
            "feature 0 a kind=boolean h=1", "feature 0 a kind=boolean degenerate"
        )
        self.check(bad, "degenerate")

    def test_constant_self_pair(self):
        """g(x, x) is constant exactly when g(0, 0) == g(1, 1)."""
        for fn in (3, 5, 8, 10, 12):
            self.check(TINY.replace("5 5 0 1", f"5 {fn} 1 1"),
                       rf"line 5: g_{fn}\(x_1, x_1\) is a constant bit")
        self.check("catalog extended\n" + TINY.replace("5 5 0 1", "5 1 0 0"),
                   r"line 6: g_1\(x_0, x_0\) is a constant bit")
        for fn in (0, 6, 7, 13):
            sc = parse_formula_table(TINY.replace("5 5 0 1", f"5 {fn} 0 0"))
            assert sc.layers[0][0].fn == fn
        # from layer 2 on, "k l" is a unit y_k and a feature x_l even when k == l
        unit0 = TINY.replace("5 5 0 1", "0 5 0 1") + "layer 2\n1 5 0 0\n"
        assert parse_formula_table(unit0).layers[1][0] == Row(1, 5, 0, 0)

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

    @pytest.mark.parametrize("decl", ["category=", "category=''", 'category=""'])
    def test_nominal_category_must_not_be_empty(self, decl):
        """No case matches an empty category, so its bit would be constant."""
        bad = TINY.replace("feature 0 a kind=boolean", f"feature 0 a kind=nominal {decl}")
        self.check(bad, "^line 2: nominal feature 'a' needs a category=$")

    def test_empty_category_written_by_to_formula_table_is_refused(self):
        sc = parse_formula_table(TINY)
        sc.features[0] = Encoder("a", "nominal", 1, None, "")
        text = to_formula_table(sc)
        assert "feature 0 a kind=nominal category='' h=1" in text
        self.check(text, "^line 2: nominal feature 'a' needs a category=$")

    def test_threshold_must_be_finite(self):
        for u in ("nan", "inf", "-inf", "NaN", "Infinity", "1e999"):
            bad = TINY.replace("feature 0 a kind=boolean",
                               f"feature 0 a kind=quantitative u={u}")
            self.check(bad, f"line 2: bad value '{u}' for attribute 'u'")
        ok = TINY.replace("feature 0 a kind=boolean",
                          "feature 0 a kind=quantitative u=-1e300")
        assert parse_formula_table(ok).features[0].threshold == -1e300

    def test_negative_feature_id(self):
        self.check(TINY.replace("feature 0 a", "feature -1 a"),
                   "^line 2: feature id must be non-negative$")

    @pytest.mark.parametrize("h", ["2", "-1", "x", ""])
    def test_polarity_must_be_a_bit(self, h):
        self.check(TINY.replace("feature 0 a kind=boolean h=1", f"feature 0 a kind=boolean h={h}"),
                   f"^line 2: bad value '{h}' for attribute 'h'$")

    def test_feature_declared_after_layer_rows(self):
        self.check(TINY + "feature 2 c kind=boolean h=1\n",
                   "^line 6: feature declared after layer rows$")

    @pytest.mark.parametrize("line", ["layer", "layer 1 2"])
    def test_layer_needs_a_number(self, line):
        self.check(TINY.replace("layer 1", line), "^line 4: layer needs a number$")

    def test_layer_number_must_be_an_integer(self):
        self.check(TINY.replace("layer 1", "layer x"),
                   "^line 4: layer number 'x' is not an integer$")

    def test_empty_non_final_layer(self):
        """A unit after an empty layer has no parent to read, and a model
        that ends in one has no final layer units."""
        empty = TINY.replace("5 5 0 1\n", "")
        self.check(empty + "layer 2\n5 5 0 1\n", "^line 6: unit y_0 is not defined in layer 1$")
        self.check(empty + "layer 2\n", "^model has no final layer units$")

    def test_later_layer_unit_reads_a_degenerate_feature(self):
        dead = TINY.replace("classes 0 1\n", "classes 0 1\nfeature 2 c kind=boolean degenerate\n")
        self.check(dead + "layer 2\n0 5 5 2\n", "^line 8: unit reads a degenerate feature$")
        assert parse_formula_table(dead + "layer 2\n0 5 5 1\n").layers[1][0] == Row(0, 5, 5, 1)

    def test_bundled_and_golden_models_still_parse(self, fixtures_dir):
        golden = fixtures_dir.parents[2] / "tests" / "golden"
        paths = sorted(fixtures_dir.glob("*.rules")) + sorted(golden.glob("*.rules"))
        assert len(paths) == 14    # 3 bundled, 7 planted and 4 CSV golden cases
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
        walked = [[_walk(chain, {0: a, 1: b}) for chain in _chains(sc.layers)] for a, b in cases]
        for r, (a, b) in enumerate(cases):
            assert [(o >> r) & 1 for o in outputs] == walked[r]
            assert evaluate(sc, {0: a, 1: b}).m1 == sum(walked[r])
        assert vote_counts(outputs, len(cases)).tolist() == [sum(bits) for bits in walked]

    def test_missing_bit_names_the_feature(self):
        sc = parse_formula_table(self.DEAD)
        with pytest.raises(EvaluationError, match="no bit assigned for feature 1"):
            evaluate(sc, {0: 1, 2: 0})

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    @pytest.mark.parametrize("fn", sorted(ORACLE_TRUTH))
    def test_each_catalog_function_as_a_one_unit_program(self, fn, n):
        """The compiled unit computes the oracle's own truth row for every
        case, within n bits, whichever slot it reads on either side."""
        rng = np.random.default_rng(n * 16 + fn)
        a, b = (int.from_bytes(rng.bytes(17), "little") & ((1 << n) - 1) for _ in "ab")
        if n > 1:    # every input pair occurs
            a, b = a & ~0b1111 | 0b1100, b & ~0b1111 | 0b1010
        truth = ORACLE_TRUTH[fn]
        for left, right, x, y in ((0, 1, a, b), (1, 0, b, a), (0, 0, a, a)):
            program = SlotProgram((0, 1), ((truth, left, right),), (2,))
            [out] = program.run([a, b], n)
            assert 0 <= out < 1 << n
            for r in range(n):
                assert (out >> r) & 1 == truth[2 * ((x >> r) & 1) + ((y >> r) & 1)], (fn, r)

    def test_three_hundred_features_in_layer_one(self):
        """More features than a call could once pass (255), each read by one
        of 150 syndromes, agree with the oracle's own walk and vote."""
        fns = (0, 3, 5, 6, 7, 8, 10, 12, 13)
        lines = ["classes 0 1", *(f"feature {j} f{j} kind=boolean h=1" for j in range(300)),
                 "layer 1", *(f"{k + 1} {fns[k % 9]} {2 * k} {2 * k + 1}" for k in range(150))]
        sc = parse_formula_table("\n".join(lines) + "\n")
        assert len(sc.program.features) == 300
        rng = np.random.default_rng(300)
        cases = [dict(enumerate(map(int, rng.integers(0, 2, 300)))) for _ in range(40)]
        chains = _chains(sc.layers)
        m1s = [sum(_walk(chain, bits) for chain in chains) for bits in cases]
        for bits, m1 in zip(cases, m1s):
            assert evaluate(sc, bits) == _own_vote(m1, len(chains))
        columns = [sum(bits[f] << r for r, bits in enumerate(cases)) for f in range(300)]
        assert vote_counts(sc.program.run(columns, 40), 40).tolist() == m1s

    def test_one_compiled_function_per_distinct_program(self, ie_ar_text, postop_text):
        """Two parses of one text share the compiled function, which reads
        no global name and holds no model text; another program has its own."""
        first, second, other = (parse_formula_table(text).program
                                for text in (ie_ar_text, ie_ar_text, postop_text))
        assert first == second and first is not second
        for program in (first, second, other):
            program.run([0] * len(program.features), 1)
        assert first._compiled is second._compiled
        assert other._compiled is not first._compiled
        code = first._compiled.__code__
        assert code.co_names == ()
        assert not [c for c in code.co_consts if isinstance(c, str)]
        assert code.co_argcount == len(first.features) + 1

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

    def test_network_is_written_from_its_cached_complex(self, monkeypatch):
        net = self.make_net()
        sc = net.complex
        monkeypatch.setattr(rules, "extract", lambda net: pytest.fail("extracted again"))
        assert to_formula_table(net) == to_formula_table(sc)

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
        assert [_walk(chain, {0: 1, 1: 0}) for chain in _chains(sc.layers)] == [1]
        assert [_walk(chain, {0: 1, 1: 1}) for chain in _chains(sc.layers)] == [0]
        assert evaluate(sc, {0: 1, 1: 0}).m1 == 1 and evaluate(sc, {0: 1, 1: 1}).m1 == 0
        with pytest.raises(EvaluationError):
            evaluate(sc, {0: 2, 1: 0})
        lines = symbolic(sc)
        assert lines == ["y = M-of-1(g_5(x_0, x_1))"]

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan"), None, "1", [1], 1.0, 0.0])
    def test_bit_check_names_the_first_value_that_is_not_a_bit(self, bad):
        sc = parse_formula_table(TINY)
        assert evaluate(sc, {0: True, 1: False}).m1 == 1
        assert evaluate(sc, {0: np.int64(1), 1: np.uint8(0)}).m1 == 1
        with pytest.raises(EvaluationError, match=rf"^feature 7: {re.escape(repr(bad))} is not a bit$"):
            evaluate(sc, {0: 1, 1: 0, 7: bad, 8: 3})
        with pytest.raises(EvaluationError, match=rf"^feature 1: {re.escape(repr(bad))} is not a bit$"):
            evaluate(sc, {0: 1, 1: bad})

    def test_numpy_bits_of_mixed_types_decide_as_ints(self):
        """uint64 and int64 bits promote to float64, which takes no
        bitwise operator; they decide as the ints they equal."""
        sc = parse_formula_table(TINY)
        assert evaluate(sc, {0: np.uint64(1), 1: np.int64(0)}).m1 == 1
        assert evaluate(sc, {0: np.uint64(1), 1: np.int64(0)}) == evaluate(sc, {0: 1, 1: 0})

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


def shlex_split(line):
    return shlex.split(line, comments=True)


def tokens_or_error(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return str(exc)


# The shell syntax the fast path must leave to shlex, every whitespace
# character str.split and shlex disagree on, and plain model text.
SHELL_CHARS = "'\"\\# \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000é"
PLAIN_CHARS = " \t=.-+_0123456789abcdefkluhx\x00\x01\x1b\x7f"


class TestLineTokens:
    """A model line is split as shlex.split(line, comments=True) splits
    it, whether or not it takes the str.split path."""

    @settings(max_examples=500)
    @given(line=st.text(alphabet=PLAIN_CHARS + SHELL_CHARS, max_size=30))
    @example(line="feature 0 'left arm' kind=boolean h=1 # note")
    @example(line="classes a\x1cb c")
    @example(line='unterminated "quote')
    def test_same_tokens_as_shlex(self, line):
        assert tokens_or_error(_split_line, line) == tokens_or_error(shlex_split, line)

    @settings(max_examples=300)
    @given(line=st.text(alphabet=PLAIN_CHARS, max_size=40))
    def test_plain_lines_take_str_split(self, line):
        assert line.isascii() and _SHELL_SYNTAX.search(line) is None
        assert line.split() == tokens_or_error(shlex_split, line)
