"""The independent checking tools must agree with themselves and stay honest."""

import numpy as np
import pytest

from mofn.oracle import (
    ORACLE_TRUTH,
    STANDARD_ORACLE_IDS,
    PlantedSpec,
    brute_force_threshold,
    exhaustive_decision_check,
    generate_planted,
)
from mofn.rules import SyndromeComplex, evaluate, parse_formula_table

XOR = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
5 5 0 1
"""


class TestBruteForceThreshold:
    def test_clean_separation(self):
        r = brute_force_threshold([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
        assert (r.u, r.h, r.e, r.degenerate) == (5.0, 1, 0, False)

    def test_inverted_separation(self):
        r = brute_force_threshold([1.0, 2.0, 8.0, 9.0], [1, 1, 0, 0])
        assert (r.u, r.h, r.e) == (5.0, 0, 0)

    def test_widest_gap_wins_ties(self):
        r = brute_force_threshold([0.0, 1.0, 5.0, 6.0, 10.0], [0, 1, 1, 1, 0])
        assert r.e == 1
        assert r.u == 8.0

    def test_constant_column_is_degenerate(self):
        r = brute_force_threshold([4.0, 4.0, 4.0], [0, 1, 0])
        assert r.degenerate
        assert r.u is None
        assert r.e == 1

    def test_worse_than_majority_is_degenerate(self):
        r = brute_force_threshold([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 1, 0, 0])
        assert r.degenerate
        assert r.e == 1

    def test_equal_to_majority_is_kept(self):
        r = brute_force_threshold([0.0, 1.0, 0.0, 1.0], [0, 0, 1, 1])
        assert not r.degenerate
        assert r.e == 2


class TestOracleTruth:
    def test_ids_cover_standard_set(self):
        assert set(STANDARD_ORACLE_IDS) == {0, 3, 5, 6, 7, 8, 10, 12, 13}
        assert set(ORACLE_TRUTH) == set(STANDARD_ORACLE_IDS) | {1}

    def test_rows_are_bits(self):
        for ident, row in ORACLE_TRUTH.items():
            assert len(row) == 4
            assert set(row) <= {0, 1}, ident


class TestExhaustiveCheck:
    def test_xor_map(self):
        sc = parse_formula_table(XOR)
        dec = exhaustive_decision_check(sc)
        assert len(dec) == 4
        assert dec[(0, 0)].value == 1
        assert dec[(0, 1)].value == -1
        assert dec[(1, 0)].value == -1
        assert dec[(1, 1)].value == 1

    def test_agrees_with_evaluate(self, ie_ar_text):
        sc = parse_formula_table(ie_ar_text)
        feats = sc.referenced_features()
        dec = exhaustive_decision_check(sc)
        assert len(dec) == 1 << len(feats)
        for bits, d in list(dec.items())[::7]:
            e = evaluate(sc, dict(zip(feats, bits)))
            assert (d.value, d.m, d.n, d.m1) == (e.value, e.m, e.n, e.m1)

    @pytest.mark.parametrize("corrupt", [lambda feats: feats[::-1],
                                         lambda feats: feats[1:],
                                         lambda feats: feats + [99]],
                             ids=["reversed", "one-short", "one-extra"])
    def test_finds_its_own_features(self, ie_ar_text, monkeypatch, corrupt):
        """The features come from the oracle's own walk of the chains, not
        from the compiled program under test."""
        sc = parse_formula_table(ie_ar_text)
        want = exhaustive_decision_check(sc)
        feats = sc.referenced_features()
        monkeypatch.setattr(SyndromeComplex, "referenced_features",
                            lambda self: corrupt(feats))
        assert exhaustive_decision_check(sc) == want

    def test_width_cap(self, ie_srl_text):
        sc = parse_formula_table(ie_srl_text)
        with pytest.raises(ValueError, match="cap"):
            exhaustive_decision_check(sc, max_features=4)

    def test_walks_a_chain_deeper_than_the_recursion_limit(self):
        """A 1 200-layer model, which evaluate serves, is walked in a loop.
        Units 1 and 2 each run a chain through every layer; unit 3 reads
        unit 1, and is dead in every layer but the last."""
        fns = (5, 8, 0, 6, 13, 3, 7, 10, 12)
        lines = ["classes 0 1",
                 *(f"feature {j} f{j} kind=boolean h=1" for j in range(4)),
                 "layer 1", "1 5 0 1", "2 8 2 3", "3 0 1 2"]
        for r in range(2, 1201):
            lines += [f"layer {r}", f"1 {fns[r % 9]} 1 {r % 4}",
                      f"2 {fns[(r + 4) % 9]} 2 {(r + 1) % 4}", f"3 0 1 {r % 4}"]
        sc = parse_formula_table("\n".join(lines) + "\n")
        dec = exhaustive_decision_check(sc)
        assert len(dec) == 16 and len({d.value for d in dec.values()}) > 1
        for bits, d in dec.items():
            e = evaluate(sc, dict(enumerate(bits)))
            assert (d.value, d.m, d.n, d.m1) == (e.value, e.m, e.n, e.m1)
        assert [len(chain) for chain in sc.syndromes] == [1200] * 3


class TestPlantedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlantedSpec(seed=1, n_features=1)
        with pytest.raises(ValueError):
            PlantedSpec(seed=1, n_syndromes=0)
        with pytest.raises(ValueError):
            PlantedSpec(seed=1, n_rows=10, noise_flips=11)
        for n_rows in (0, 1):
            with pytest.raises(ValueError, match="^need at least two rows$"):
                PlantedSpec(seed=1, n_rows=n_rows)

    def test_majority_level(self):
        p = generate_planted(PlantedSpec(seed=3, n_syndromes=3))
        assert p.m_level == 2
        p = generate_planted(PlantedSpec(seed=3, n_syndromes=1))
        assert p.m_level == 1


class TestGeneratePlanted:
    def test_deterministic(self):
        a = generate_planted(PlantedSpec(seed=11))
        b = generate_planted(PlantedSpec(seed=11))
        assert a.dataset.rows == b.dataset.rows
        assert list(a.dataset.labels) == list(b.dataset.labels)
        assert a.syndromes == b.syndromes

    def test_seeds_differ(self):
        a = generate_planted(PlantedSpec(seed=1))
        b = generate_planted(PlantedSpec(seed=2))
        assert a.dataset.rows != b.dataset.rows

    def test_each_feature_takes_two_values(self):
        p = generate_planted(PlantedSpec(seed=7, n_features=5, n_rows=20))
        for j in range(5):
            col = {row[j] for row in p.dataset.rows}
            assert len(col) == 2
            lo, hi = sorted(col)
            assert lo < p.thresholds[j] < hi

    def test_near_balance(self):
        for seed in range(1, 15):
            p = generate_planted(PlantedSpec(seed=seed, n_rows=21))
            c1 = int(p.dataset.labels.sum())
            assert abs((21 - c1) - c1) <= 1

    def test_labels_follow_hidden_rule_when_clean(self):
        p = generate_planted(PlantedSpec(seed=9, noise_flips=0))
        assert p.flipped == []
        for r, row_bits in enumerate(p.bits):
            assert p.rule_bit(row_bits) == int(p.dataset.labels[r])
        assert np.array_equal(p.clean_labels, p.dataset.labels)

    def test_noise_flips_exactly_requested_rows(self):
        p = generate_planted(PlantedSpec(seed=4, n_rows=20, noise_flips=3))
        assert len(p.flipped) == 3
        diff = [
            r
            for r in range(20)
            if int(p.clean_labels[r]) != int(p.dataset.labels[r])
        ]
        assert diff == p.flipped

    def test_syndromes_use_catalog_functions(self):
        p = generate_planted(PlantedSpec(seed=6, n_syndromes=5))
        assert len(p.syndromes) == 5
        for fn, a, b in p.syndromes:
            assert fn in STANDARD_ORACLE_IDS
            assert a != b
            assert 0 <= a < 6 and 0 <= b < 6
