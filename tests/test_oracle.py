"""The independent checking tools must agree with themselves and stay honest."""

import ast
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from mofn import oracle
from mofn.data import to_csv
from mofn.oracle import (
    ORACLE_TRUTH,
    STANDARD_ORACLE_IDS,
    PlantedSpec,
    _chains,
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

    def test_reads_only_the_layers_of_the_complex_it_checks(self, fixtures_dir, monkeypatch):
        """The decisions of each bundled model come from its layers alone:
        a wrong chain list from SyndromeComplex.syndromes, and a compiled
        program or syndrome count that cannot be read, change none of them."""
        complexes = [parse_formula_table((fixtures_dir / f"{name}.rules").read_text())
                     for name in ("ie_srl", "ie_ar", "postop")]
        want = [exhaustive_decision_check(sc) for sc in complexes]

        def refuse(self):
            raise AssertionError("the oracle read what the code under test derives")

        monkeypatch.setattr(SyndromeComplex, "syndromes",
                            property(lambda self: [tuple(self.layers[0][:1])]))
        monkeypatch.setattr(SyndromeComplex, "program", property(refuse))
        monkeypatch.setattr(SyndromeComplex, "n", property(refuse))
        assert [exhaustive_decision_check(sc) for sc in complexes] == want

    def test_imports_only_the_data_types_from_the_package(self):
        """From the code it checks, the oracle imports the record types
        that carry a model and a decision, and nothing else."""
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        ours = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                ours |= {(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "mofn"}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "mofn"):
                ours |= {(node.module, alias.name) for alias in node.names}
        assert ours == {("data", "Dataset"), ("data", "FeatureSpec"),
                        ("rules", "SignedDecision"), ("rules", "SyndromeComplex")}

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
        assert [len(chain) for chain in _chains(sc.layers)] == [1200] * 3


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
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            PlantedSpec(seed=-1)

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
        for spec in (
            PlantedSpec(seed=1, n_features=2, n_rows=6, n_syndromes=3, noise_flips=1),
            PlantedSpec(seed=4, n_rows=20, noise_flips=3),
            PlantedSpec(seed=7, n_features=12, n_rows=60, n_syndromes=7, noise_flips=6),
            PlantedSpec(seed=2, n_features=8, n_rows=100, noise_flips=10),
            PlantedSpec(seed=1, n_features=96, n_rows=200),
        ):
            p = generate_quietly(spec)
            for r, row_bits in enumerate(p.bits):
                assert p.rule_bit(row_bits) == int(p.clean_labels[r]), (spec, r)

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


def generate_quietly(spec):
    """generate_planted without the conflicting-duplicate warnings that
    label noise on few features gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return generate_planted(spec)


def planted_digest(p) -> str:
    h = hashlib.sha256()
    for part in (to_csv(p.dataset), p.syndromes, p.flipped, p.thresholds, p.offsets):
        h.update(repr(part).encode())
    return h.hexdigest()


# sha256 of each spec's dataset and ground truth, recorded from the
# generator's row-by-row form; any change to the order of the random
# draws, or to how values are rounded or combined, changes them.
PLANTED_DIGESTS = {
    # (seed, n_features, n_rows, n_syndromes, noise_flips): digest
    (1, 6, 24, 3, 0): "1c1a17aba75ab396832ccfafa0ce02e63e758ed93dc54204d47683facb3ada47",
    (9, 6, 24, 3, 0): "8dcdc8754f2b4b3a94045c87f362fde44e5fcec99bc95708d0abd4707740798a",
    (11, 6, 24, 3, 0): "fcfca9fc4d5ecf62990fe821ac615b71df1e3cbe1fdc324711ba2a9ec24d10f2",
    (3, 2, 4, 1, 0): "bdc2ec19afbb2739c5888a6615bf02af9bf747f5770d9fad7cdd00db3a8549a1",
    (5, 2, 6, 3, 1): "db398c4ccfcd29f4c20e11e04fba5acf4a54b8dd90ecbe05af1eaf60cfa849e7",
    (4, 6, 20, 3, 3): "a6df230869f3abe68b7a030e3310dcb0099106ebcc997ee20b98e330fcc3b92b",
    (6, 6, 21, 5, 0): "71e58271dcd4297196ecee6e74962b862b8e772bd554bc284d993a18b5a50c76",
    (7, 12, 60, 7, 6): "a80e8d6e244b533162fc7d26cef6654e63665538e0e1f131d033ae2dbef2d479",
    (2, 8, 100, 3, 10): "f69b0b0bc82c0099eafb71b0d472e76e2d720560564cc99e61cbf1d4bb106d0f",
    (1, 48, 100, 3, 0): "617b06df406a1d637b3e26821c2941d4ab85c95463ce2c130f0d95670adeb403",
    (5, 48, 100, 3, 0): "1cc6ea3c066958d3e52d0fcb44fa0315e7e441c8857dfeaf7054585f9a6c1c49",
    (1, 96, 200, 3, 0): "bfa409f8ff043694e2976591fce0055b46e09194b5321baf84f20b93f97d206c",
    (3, 96, 200, 3, 0): "9235591f391ec3f9c6f684edbba7686882420059c7b4d61b262663818f33f6e7",
    (2, 6, 500, 3, 0): "06d531f3eb8c59cdd21809fbde5518a44f330448b247b0e12be886e7a2d7ead6",
    (4, 6, 500, 3, 0): "b58b9d0399ab6bda34e1b6a315feea7f99ff28abde16238138be4977c65ecdb6",
    (11, 24, 300, 3, 30): "de0fef8741ff3d6071e58fa5093c664df06d94262cd07daee4e0f3d909dc2325",
    (3, 10, 40, 4, 40): "3df65ba78e23cca0c97449410014aad4e0cfbe6dfbbea84689b2f778b4fea073",
}

# Specs whose 200 redraws never balance the classes to within one row.
UNBALANCEABLE = [(1, 6, 500, 3, 0), (8, 6, 200, 3, 0)]


class TestPlantedDigests:
    @pytest.mark.parametrize("key", list(PLANTED_DIGESTS), ids=str)
    def test_output_is_unchanged(self, key):
        assert planted_digest(generate_quietly(PlantedSpec(*key))) == PLANTED_DIGESTS[key]

    @pytest.mark.parametrize("key", UNBALANCEABLE, ids=str)
    def test_unbalanceable_specs_still_fail(self, key):
        with pytest.raises(RuntimeError, match=f"^could not generate a usable dataset for seed {key[0]}$"):
            generate_planted(PlantedSpec(*key))
