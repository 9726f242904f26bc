import pytest

from mofn.errors import CatalogError
from mofn.logic import (
    EXTENDED_IDS,
    STANDARD_IDS,
    catalog,
    complement_id,
    eval_fn,
    function_ids,
    truth_row,
)
from mofn.oracle import ORACLE_TRUTH, STANDARD_ORACLE_IDS


class TestCatalogContents:
    def test_standard_ids(self):
        assert STANDARD_IDS == (0, 3, 5, 6, 7, 8, 10, 12, 13)
        assert function_ids() == STANDARD_IDS

    def test_extended_adds_only_function_one(self):
        assert set(EXTENDED_IDS) - set(STANDARD_IDS) == {1}
        assert truth_row(1, extended=True) == (0, 0, 1, 0)

    def test_every_truth_row_matches_independent_transcription(self):
        for fn in catalog(extended=True):
            assert fn.truth == ORACLE_TRUTH[fn.ident], fn.ident
        assert STANDARD_IDS == STANDARD_ORACLE_IDS

    def test_known_semantics(self):
        # a handful of rows checked straight from the definitions
        assert truth_row(0) == (0, 0, 0, 1)      # conjunction
        assert truth_row(5) == (0, 1, 1, 0)      # exclusive or
        assert truth_row(6) == (0, 1, 1, 1)      # disjunction
        assert truth_row(13) == (1, 1, 1, 0)     # negated conjunction
        assert eval_fn(0, 1, 1) == 1
        assert eval_fn(0, 1, 0) == 0
        assert eval_fn(12, 0, 0) == 1
        assert eval_fn(12, 1, 0) == 0

    def test_formulas_cover_catalog(self):
        for fn in catalog(extended=True):
            assert fn.formula
            assert fn(0, 0) == fn.truth[0]
            assert fn(1, 1) == fn.truth[3]


class TestComplementClosure:
    def test_standard_pairs(self):
        assert complement_id(0) == 13
        assert complement_id(13) == 0
        assert complement_id(3) == 10
        assert complement_id(10) == 3
        assert complement_id(5) == 8
        assert complement_id(8) == 5
        assert complement_id(6) == 7
        assert complement_id(7) == 6

    def test_twelve_is_open_without_extension(self):
        assert complement_id(12) is None

    def test_extension_closes_the_catalog(self):
        assert complement_id(12, extended=True) == 1
        assert complement_id(1, extended=True) == 12
        for i in EXTENDED_IDS:
            assert complement_id(i, extended=True) is not None


class TestEvaluation:
    def test_eval_fn_agrees_with_truth_rows(self):
        for i in EXTENDED_IDS:
            row = truth_row(i, extended=True)
            for a in (0, 1):
                for b in (0, 1):
                    assert eval_fn(i, a, b, extended=True) == row[2 * a + b]

    def test_extension_hidden_by_default(self):
        with pytest.raises(CatalogError):
            truth_row(1)
        with pytest.raises(CatalogError):
            eval_fn(1, 0, 0)
        assert 1 not in function_ids()

    def test_unknown_ids_rejected(self):
        for bad in (-1, 2, 4, 9, 11, 14, 15, 99):
            with pytest.raises(CatalogError):
                truth_row(bad, extended=True)

    def test_non_bit_inputs_rejected(self):
        with pytest.raises(ValueError):
            eval_fn(0, 2, 0)
        with pytest.raises(ValueError):
            eval_fn(0, 0, -1)
