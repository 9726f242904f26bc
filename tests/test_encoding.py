import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mofn.data import Dataset, FeatureSpec
from mofn import encoding
from mofn.encoding import (
    Encoder,
    _fit_block,
    encode_bits,
    encode_cells,
    encode_dataset,
    encode_value,
    fit_boolean,
    fit_feature,
    fit_nominal,
    fit_quantitative,
    read_column,
    read_table,
    typed_block,
)
from mofn.errors import DataError, EncodingError
from mofn.oracle import ThresholdResult, brute_force_threshold


class TestQuantitative:
    def test_clean_separation(self):
        enc = fit_quantitative([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1], "f")
        assert enc.threshold == 5.0
        assert enc.polarity == 1
        assert enc.error == 0
        assert not enc.degenerate

    def test_inverted_separation(self):
        enc = fit_quantitative([1.0, 2.0, 8.0, 9.0], [1, 1, 0, 0], "f")
        assert enc.threshold == 5.0
        assert enc.polarity == 0
        assert enc.error == 0

    def test_boundary_is_strictly_greater(self):
        enc = fit_quantitative([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1], "f")
        assert encode_value(enc, 5.0) == 0    # at the threshold, not above
        assert encode_value(enc, 5.0001) == 1
        assert encode_value(enc, -100.0) == 0

    def test_non_numeric_value_is_an_encoding_error(self):
        enc = Encoder("a", "quantitative", threshold=0.5)
        for value in ("abc", None):
            with pytest.raises(EncodingError) as err:
                encode_value(enc, value)
            assert str(err.value) == f"feature 'a': {value!r} is not numeric"
            with pytest.raises(EncodingError):
                enc(value)

    def test_error_tie_prefers_wider_gap(self):
        # both u=0.5 and u=8.0 err once; the second gap is four times wider
        enc = fit_quantitative([0.0, 1.0, 5.0, 6.0, 10.0], [0, 1, 1, 1, 0], "f")
        assert enc.error == 1
        assert enc.threshold == 8.0
        assert enc.polarity == 0

    def test_gap_tie_prefers_smaller_threshold(self):
        # u=1.5 (h=1) and u=3.5 (h=0) both err once with unit gaps
        enc = fit_quantitative([1.0, 2.0, 3.0, 4.0], [0, 1, 1, 0], "f")
        assert enc.error == 1
        assert enc.threshold == 1.5
        assert enc.polarity == 1

    def test_constant_column_degenerates(self):
        enc = fit_quantitative([3.3, 3.3, 3.3], [0, 1, 0], "f")
        assert enc.degenerate
        assert enc.error == 1    # minority class size
        with pytest.raises(EncodingError, match="degenerate"):
            encode_value(enc, 3.3)

    def test_worse_than_majority_degenerates(self):
        # every single boundary errs at least twice, the minority class
        # has one member, so the feature carries no standalone signal
        enc = fit_quantitative([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 1, 0, 0], "f")
        assert enc.degenerate
        assert enc.error == 1

    def test_tie_with_majority_is_kept(self):
        # the single boundary errs exactly min class count; keep it,
        # and the full polarity tie resolves to h=0
        enc = fit_quantitative([0.0, 1.0, 0.0, 1.0], [0, 0, 1, 1], "f")
        assert not enc.degenerate
        assert enc.error == 2    # equals min class count
        assert enc.threshold == 0.5
        assert enc.polarity == 0

    def test_non_finite_rejected(self):
        with pytest.raises(EncodingError, match="finite"):
            fit_quantitative([1.0, float("nan")], [0, 1], "f")

    def test_length_mismatch(self):
        with pytest.raises(EncodingError, match="labels"):
            fit_quantitative([1.0, 2.0], [0, 1, 1], "f")

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (-1.7e308, -1e308),
                                        (-1.7e308, 1.7e308)])
    def test_threshold_stays_finite_near_the_float_limit(self, lo, hi):
        # (lo + hi) / 2 overflows for the first two; hi - lo for the last
        enc = fit_quantitative([lo, hi, lo, hi], [0, 1, 0, 1], "f")
        assert lo < enc.threshold < hi
        assert enc.threshold == lo / 2 + hi / 2
        assert [encode_value(enc, v) for v in (lo, hi)] == [0, 1]

    def test_threshold_between_adjacent_floats_stays_below_hi(self):
        # lo's last mantissa bit is odd, so (lo + hi) / 2 rounds to hi
        lo = math.nextafter(1.0, 2.0)
        hi = math.nextafter(lo, 2.0)
        values, labels = [lo, hi, lo, hi], [0, 1, 0, 1]
        assert (lo + hi) / 2 == hi
        enc = fit_quantitative(values, labels, "f")
        assert (enc.threshold, enc.polarity, enc.error) == (lo, 1, 0)
        assert [encode_value(enc, v) for v in values] == labels
        assert brute_force_threshold(values, labels) == ThresholdResult(lo, 1, 0, False)


class TestBoolean:
    def test_identity_when_better(self):
        enc = fit_boolean([0, 0, 1, 1], [0, 0, 1, 1], "f")
        assert enc.polarity == 1 and enc.error == 0

    def test_complement_when_better(self):
        enc = fit_boolean([0, 0, 1, 1], [1, 1, 0, 0], "f")
        assert enc.polarity == 0 and enc.error == 0
        assert encode_value(enc, 0) == 1

    def test_identity_preferred_on_tie(self):
        enc = fit_boolean([0, 1, 0, 1], [0, 0, 1, 1], "f")
        assert enc.error == 2
        assert enc.polarity == 1

    def test_constant_degenerates(self):
        enc = fit_boolean([1, 1, 1], [0, 1, 1], "f")
        assert enc.degenerate and enc.error == 1

    def test_non_binary_rejected(self):
        with pytest.raises(EncodingError, match="0/1"):
            fit_boolean([0, 1, 2], [0, 1, 1], "f")
        enc = fit_boolean([0, 1, 0, 1], [0, 1, 0, 1], "f")
        with pytest.raises(EncodingError, match="0/1"):
            encode_value(enc, 3)


class TestNominal:
    def test_best_indicator_wins(self):
        values = ["a", "a", "b", "c", "b"]
        labels = [1, 1, 0, 0, 0]
        enc = fit_nominal(values, labels, "f")
        assert enc.category == "a"
        assert enc.polarity == 1
        assert enc.error == 0
        assert encode_value(enc, "a") == 1
        assert encode_value(enc, "zzz") == 0

    def test_complement_indicator(self):
        values = ["a", "a", "b", "c", "b"]
        labels = [0, 0, 1, 1, 1]
        enc = fit_nominal(values, labels, "f")
        assert enc.category == "a"
        assert enc.polarity == 0
        assert enc.error == 0

    def test_first_seen_category_wins_ties(self):
        # "b" and "c" split the class-1 rows symmetrically
        values = ["b", "c", "b", "c"]
        labels = [1, 0, 1, 0]
        enc = fit_nominal(values, labels, "f")
        assert enc.category == "b"
        assert enc.error == 0

    def test_single_category_degenerates(self):
        enc = fit_nominal(["x", "x", "x"], [0, 1, 1], "f")
        assert enc.degenerate and enc.error == 1

    def test_an_empty_value_is_refused(self):
        """An empty value is no category a model file can name, and
        encode_bits refuses it with the same message."""
        message = "^feature 'c': values include an empty one$"
        with pytest.raises(EncodingError, match=message):
            fit_nominal(["", "y", "", "y"], [1, 0, 1, 0], "c")
        with pytest.raises(EncodingError, match=message):
            Dataset([FeatureSpec("c", "nominal")], rows=[("",), ("y",), ("",), ("y",)],
                    labels=[1, 0, 1, 0])

    def test_numpy_strings_are_typed_as_python_strings(self):
        values = np.array(["x", "y", "y", "x"])
        assert type(fit_nominal(values, [1, 0, 0, 1], "c").category) is str
        ds = Dataset([FeatureSpec("c", "nominal")], columns=[values], labels=[1, 0, 0, 1])
        assert ds.rows == [("x",), ("y",), ("y",), ("x",)]
        assert {type(value) for row in ds.rows for value in row} == {str}

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers(0, 1)),
            min_size=2,
            max_size=40,
        ).filter(lambda ps: len({y for _, y in ps}) == 2)
    )
    @settings(deadline=None, max_examples=150)
    def test_error_counts_what_encoding_produces(self, pairs):
        values = [x for x, _ in pairs]
        labels = np.array([y for _, y in pairs], dtype=np.uint8)
        enc = fit_nominal(values, labels, "f")
        floor = min(int(labels.sum()), len(labels) - int(labels.sum()))
        # reference: one indicator per category, first seen first, h=1
        # before h=0; a later candidate wins only with fewer mismatches
        best = None
        for cat in dict.fromkeys(values):
            indicator = np.array([x == cat for x in values], dtype=np.uint8)
            for h in (1, 0):
                e = int(np.sum((indicator if h else 1 - indicator) != labels))
                if best is None or e < best[0]:
                    best = (e, cat, h)
        if enc.degenerate:
            assert enc.error == floor
            assert len(set(values)) < 2 or best[0] > floor
            return
        assert (enc.error, enc.category, enc.polarity) == best
        assert sum(encode_value(enc, v) != y for v, y in zip(values, labels)) == enc.error

    @pytest.mark.parametrize("kind, values, labels", [
        ("quantitative", [1.5, 2.5, 1.5], [0, 1, 1]), ("quantitative", [1.0, 1.0], [0, 1]),
        ("boolean", [0, 1, 1], [0, 1, 0]), ("boolean", [1, 1], [0, 1]),
        ("nominal", ["a", "b", "a"], [0, 1, 1]), ("nominal", ["a", "a"], [0, 1]),
    ])
    def test_fields_are_python_scalars(self, kind, values, labels):
        """Encoders reach model files and reprs: no field is a numpy scalar."""
        enc = fit_feature(values, np.array(labels, dtype=np.uint8), kind, "f")
        assert {type(v) for v in vars(enc).values()} <= {str, int, float, bool, type(None)}

    def test_kind_dispatch(self):
        assert fit_feature([1.5, 2.5], [0, 1], "quantitative", "f").kind == "quantitative"
        assert fit_feature([0, 1], [0, 1], "boolean", "f").kind == "boolean"
        assert fit_feature(["u", "v"], [0, 1], "nominal", "f").kind == "nominal"
        with pytest.raises(EncodingError, match="kind"):
            fit_feature([0, 1], [0, 1], "ordinal", "f")


class TestAgainstOracle:
    def test_seeded_random_sets_match_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 30))
            pool = rng.uniform(-50, 50, size=max(1, n // 2)).round(1)
            values = rng.choice(pool, size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            enc = fit_quantitative(values, labels, "f")
            want = brute_force_threshold(values, labels)
            assert enc.degenerate == want.degenerate, trial
            assert enc.error == want.e, trial
            if not want.degenerate:
                assert enc.threshold == want.u, trial
                assert enc.polarity == want.h, trial

    def test_large_tied_columns_match_brute_force(self):
        # Values on a quarter grid tie many gaps.  Every odd trial mirrors
        # its column: each row (v, y) also appears as (-v, y), so the
        # boundary at u with h=1 and its twin at -u with h=0 tie on both
        # error and gap, and only the threshold can break the tie.
        rng = np.random.default_rng(11)
        for trial in range(24):
            n = int(rng.integers(200, 501))
            size = n // 2 if trial % 2 else n
            v = rng.integers(1, 4 * int(rng.integers(5, 40)), size=size) / 4.0
            y = ((v < np.median(v)) ^ (rng.random(size) < 0.15)).astype(np.uint8)
            if trial % 2:
                v, y = np.concatenate((v, -v)), np.concatenate((y, y))
            enc = fit_quantitative(v, y, "f")
            want = brute_force_threshold(v, y)
            assert enc.degenerate == want.degenerate, trial
            assert enc.error == want.e, trial
            if not want.degenerate:
                assert enc.threshold == want.u, trial
                assert enc.polarity == want.h, trial

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflowing_midpoint_matches_brute_force(self, sign):
        # (lo + hi) / 2 overflows: both must halve first, to 1.35e308
        values = [sign * v for v in (1e308, 1.7e308, 1e308, 1.7e308)]
        labels = [0, 1, 0, 1]
        enc = fit_quantitative(values, labels, "f")
        want = brute_force_threshold(values, labels)
        assert want == ThresholdResult(sign * 1.35e308, int(sign > 0), 0, False)
        assert (enc.threshold, enc.polarity, enc.error, enc.degenerate) == (
            want.u, want.h, want.e, want.degenerate)

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-20, 20).map(lambda v: v / 2.0),
                    # near the float limit, where a midpoint's sum overflows
                    st.floats(1e308, 1.7e308),
                    st.floats(-1.7e308, -1e308),
                ),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=24,
        ).filter(lambda ps: len({y for _, y in ps}) == 2)
    )
    @settings(deadline=None, max_examples=150)
    def test_property_matches_brute_force(self, pairs):
        values = [v for v, _ in pairs]
        labels = [y for _, y in pairs]
        enc = fit_quantitative(values, labels, "f")
        want = brute_force_threshold(values, labels)
        assert enc.degenerate == want.degenerate
        assert enc.error == want.e
        if not want.degenerate:
            assert enc.threshold == want.u
            assert enc.polarity == want.h

    @given(
        offset=st.integers(-50, 50),
        step=st.integers(1, 5),
        rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)),
                      min_size=2, max_size=40),
    )
    @example(offset=0, step=1, rows=[(0, 0), (1, 1), (2, 1), (3, 0)])
    # every boundary errs on n/2 rows at either polarity: u=-2, h=0 wins
    @example(offset=-3, step=2, rows=[(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)])
    @settings(deadline=None, max_examples=300)
    def test_evenly_spaced_values_tie_like_brute_force(self, offset, step, rows):
        # Values on an evenly spaced integer grid: neighbouring boundaries
        # tie on gap, and balanced labels tie the polarities (e == n - e),
        # so the choice rests on the later keys of (error, -gap, u, h).
        values = [float(offset + step * i) for i, _ in rows]
        labels = [y for _, y in rows]
        assume(len(set(labels)) == 2)
        enc = fit_quantitative(values, labels, "f")
        want = brute_force_threshold(values, labels)
        got = (ThresholdResult(None, None, enc.error, True) if enc.degenerate
               else ThresholdResult(enc.threshold, enc.polarity, enc.error, False))
        assert got == want

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 1)),
            min_size=2,
            max_size=24,
        ).filter(lambda ps: len({y for _, y in ps}) == 2)
    )
    @settings(deadline=None, max_examples=150)
    def test_error_counts_what_encoding_produces(self, pairs):
        values = [float(v) for v, _ in pairs]
        labels = np.array([y for _, y in pairs], dtype=np.uint8)
        enc = fit_quantitative(values, labels, "f")
        c0 = int(np.sum(labels == 0))
        c1 = len(labels) - c0
        if enc.degenerate:
            assert enc.error == min(c0, c1)
            return
        bits = np.array([encode_value(enc, v) for v in values])
        assert int(np.sum(bits != labels)) == enc.error
        assert enc.error <= min(c0, c1)


def _adjacent(k: int) -> float:
    """The k-th float above the float just above 1.0: its neighbours'
    midpoints round up to the higher one for every other k."""
    x = math.nextafter(1.0, 2.0)
    for _ in range(k):
        x = math.nextafter(x, 2.0)
    return x


def _column(n: int):
    """One column of n values: a half-integer grid (tied values and
    gaps), a constant, values near the float limit, or adjacent floats."""
    return st.one_of(
        st.lists(st.integers(-6, 6).map(lambda v: v / 2.0), min_size=n, max_size=n),
        st.floats(-1e3, 1e3).map(lambda v: [v] * n),
        st.lists(st.one_of(st.floats(1e308, 1.7e308), st.floats(-1.7e308, -1e308)),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 3).map(_adjacent), min_size=n, max_size=n),
    )


@st.composite
def blocks(draw):
    """(columns, labels): up to six columns of n rows, labels of one or
    both classes."""
    n = draw(st.integers(2, 24))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return draw(st.lists(_column(n), min_size=1, max_size=6)), labels


def _result(enc) -> ThresholdResult:
    """An encoder as brute_force_threshold reports it."""
    if enc.degenerate:
        return ThresholdResult(None, None, enc.error, True)
    return ThresholdResult(enc.threshold, enc.polarity, enc.error, False)


class TestBlockFit:
    """Fitting the quantitative columns of a dataset as one block gives
    each column the encoder it gets alone, and brute_force_threshold's
    (u, h, e, degenerate); the block's bits are the encoder's bits."""

    @staticmethod
    def assert_columns_fit_alone(columns, labels):
        names = [f"f{j}" for j in range(len(columns))]
        block = np.array(columns, dtype=float)
        got, bits = _fit_block(block, np.array(labels, dtype=np.uint8), "quantitative", names)
        assert len(got) == len(columns) and bits.shape == block.shape
        for values, name, enc, row in zip(columns, names, got, bits):
            assert enc == fit_quantitative(values, labels, name)
            assert _result(enc) == brute_force_threshold(values, labels)
            if not enc.degenerate:
                assert _bits(row) == encode_bits(enc, values)

    @given(blocks())
    @example(([[1.0, 1.0]], [0, 1]))                          # n = 2, constant
    @example(([[1.0, 2.0], [2.0, 1.0], [5.0, 5.0]], [0, 1]))  # n = 2, both polarities
    @example(([[1e308, 1.7e308, 1e308], [-1.7e308, 1.7e308, 0.0]], [1, 1, 1]))  # one class
    @example(([[_adjacent(0), _adjacent(1), _adjacent(0), _adjacent(1)]], [0, 1, 0, 1]))
    @settings(deadline=None, max_examples=300)
    def test_property_block_matches_each_column(self, block):
        self.assert_columns_fit_alone(*block)

    @pytest.mark.parametrize("n", [2, 3, 17, 60])
    def test_seeded_blocks_match_each_column(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            labels = rng.integers(0, 2, size=n).tolist()
            if trial == 3:
                labels = [trial % 2] * n    # one class
            columns = []
            for j in range(40):
                style = j % 5
                if style == 0:      # a quarter grid: tied values and gaps
                    col = rng.integers(-8, 9, size=n) / 4.0
                elif style == 1:    # constant
                    col = np.full(n, rng.uniform(-50, 50))
                elif style == 2:    # near the float limit
                    col = rng.choice([1, -1], size=n) * rng.uniform(1e308, 1.7e308, size=n)
                elif style == 3:    # adjacent floats
                    col = np.array([_adjacent(int(k)) for k in rng.integers(0, 4, size=n)])
                else:               # distinct values
                    col = rng.uniform(-1e3, 1e3, size=n)
                columns.append(col.tolist())
            self.assert_columns_fit_alone(columns, labels)

    def test_non_finite_names_its_feature(self):
        assert typed_block([[1.0, 2.0]], "quantitative", ["a"]).tolist() == [[1.0, 2.0]]
        for name, values in (("b", [1.0, math.inf]), ("c", [math.nan, 0.0])):
            with pytest.raises(EncodingError, match=f"^feature '{name}': non-finite values$"):
                typed_block([values], "quantitative", [name])

    @pytest.mark.parametrize("kind, bad, message", [
        ("quantitative", math.nan, "non-finite values"),
        ("quantitative", "x", "values are not all numeric"),
        ("boolean", 2, "values are not all 0/1"),
        ("boolean", "1", "values are not all 0/1"),
    ])
    def test_a_block_names_its_first_bad_feature(self, kind, bad, message):
        """A block of several columns is refused with the message of the
        first column that is refused alone."""
        columns = [[0, 1, 1], [1, bad, 0], [bad, 0, 1]]
        with pytest.raises(EncodingError, match=f"^feature 'b': {message}$") as err:
            typed_block(columns, kind, ["a", "b", "c"])
        assert err.value.features == ("b", "c")
        block = typed_block([[0, 1, 1], [1.0, 0.0, 0.0]], kind, ["a", "b"])
        assert block.shape == (2, 3) and not block.flags.writeable
        assert block.dtype == (np.float64 if kind == "quantitative" else np.uint8)

    @pytest.mark.parametrize("kind, bad, message", [
        ("quantitative", math.nan, "non-finite values"),
        ("quantitative", -math.inf, "non-finite values"),
        ("boolean", 2.0, "values are not all 0/1"),
        ("boolean", math.nan, "values are not all 0/1"),
    ])
    def test_a_block_of_numbers_is_refused_in_one_call(self, kind, bad, message, monkeypatch):
        """A refused block of 2000 numeric columns is named by one test of
        its rows, not by typing each column alone, with the error that
        typing each column alone gives."""
        rng = np.random.default_rng(3)
        block = rng.integers(0, 2, size=(2000, 50)).astype(np.float64)
        for f, r in ((1500, 7), (1998, 0), (1500, 9)):
            block[f, r] = bad
        columns, names = block.tolist(), [f"f{j}" for j in range(2000)]
        alone = []
        for values, name in zip(columns, names):
            try:
                typed_block([values], kind, [name])
            except EncodingError as exc:
                alone.append(exc)
        calls = []
        monkeypatch.setattr(encoding, "typed_block",
                            lambda *args: calls.append(args) or typed_block(*args))
        with pytest.raises(EncodingError) as err:
            encoding.typed_block(columns, kind, names)
        assert len(calls) == 1
        assert str(err.value) == str(alone[0]) == f"feature 'f1500': {message}"
        assert err.value.features == ("f1500", "f1998") == tuple(
            f for exc in alone for f in exc.features)


def brute_force_indicator(values, labels, candidates):
    """Try every (candidate, polarity) by explicit counting.

    Candidate c reads 1 inside (h=1) or 0 inside (h=0) on the rows whose
    value equals it.  A candidate with every row or none inside splits
    nothing.  Ties prefer the first candidate, then h=1, and a result
    strictly worse than the majority class is degenerate.  Returns
    (candidate, h, e, degenerate)."""
    ys = [int(y) for y in labels]
    floor = min(sum(ys), len(ys) - sum(ys))
    best = None
    for c, candidate in enumerate(candidates):
        inside = [v == candidate for v in values]
        if all(inside) or not any(inside):
            continue
        for order, h in enumerate((1, 0)):
            e = 0
            for x, y in zip(inside, ys):
                bit = h if x else 1 - h
                if bit != y:
                    e += 1
            if best is None or (e, c, order) < best[0]:
                best = ((e, c, order), candidate, h)
    if best is None or best[0][0] > floor:
        return None, None, floor, True
    return best[1], best[2], best[0][0], False


def found(enc):
    """An encoder as brute_force_indicator reports it."""
    if enc.degenerate:
        return None, None, enc.error, True
    return enc.category, enc.polarity, enc.error, False


class TestIndicatorsAgainstBruteForce:
    """fit_boolean and fit_nominal against a plain loop over every
    (candidate, polarity), including constant columns, single-class
    labels and ties."""

    @given(st.lists(st.tuples(st.sampled_from((0, 1, False, True)), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @example([(0, 0), (1, 0), (0, 1), (1, 1)])     # e == n - e: identity wins
    @example([(1, 0), (1, 1), (1, 1)])             # constant column
    @example([(0, 1), (1, 1), (1, 1)])             # one class: every split errs
    @settings(deadline=None, max_examples=300)
    def test_boolean(self, pairs):
        values = [v for v, _ in pairs]
        labels = [y for _, y in pairs]
        enc = fit_boolean(values, labels, "f")
        _, *want = brute_force_indicator(values, labels, [1])
        category, *got = found(enc)
        assert got == want
        assert category is None and enc.threshold is None

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @example([("a", 0), ("b", 1), ("c", 1), ("c", 0)])    # a at h=0 ties b at h=1
    @example([("b", 1), ("c", 0), ("b", 1), ("c", 0)])    # b and c tie at e=0
    @example([("a", 0), ("a", 1), ("b", 0), ("b", 1)])    # e == n - e: h=1 wins
    @example([("x", 0), ("x", 1), ("x", 1)])              # one category
    @example([("a", 1), ("b", 1), ("a", 1)])              # one class
    @settings(deadline=None, max_examples=300)
    def test_nominal(self, pairs):
        values = [v for v, _ in pairs]
        labels = [y for _, y in pairs]
        enc = fit_nominal(values, labels, "f")
        assert found(enc) == brute_force_indicator(values, labels, list(dict.fromkeys(values)))
        assert enc.threshold is None


class TestEncodeDataset:
    def _dataset(self):
        return Dataset(
            features=[
                FeatureSpec("temp", "quantitative"),
                FeatureSpec("flag", "boolean"),
                FeatureSpec("site", "nominal"),
                FeatureSpec("flat", "quantitative"),
            ],
            rows=[
                (36.5, 0, "a", 7.0),
                (36.8, 0, "a", 7.0),
                (39.1, 1, "b", 7.0),
                (39.4, 1, "b", 7.0),
            ],
            labels=np.array([0, 0, 1, 1]),
        )

    def test_active_excludes_degenerate(self):
        enc = encode_dataset(self._dataset())
        assert enc.active == [0, 1, 2]
        assert enc.encoders[3].degenerate
        assert enc.features.shape == (3, 1)    # one row of words per active feature
        assert enc.features.dtype == np.uint64

    def test_errors_reported_per_feature(self):
        enc = encode_dataset(self._dataset())
        assert enc.errors == [0, 0, 0, 2]
        assert list(enc.feature_errors) == [0, 0, 0]

    def test_encoded_bits_match_scalar_encoder(self):
        # Every kind is packed from its fitted block: the words must hold
        # the bits that encode_bits, the encoder `mofn classify` uses,
        # gives the column's Python values.
        for ds in [self._dataset(), *map(self._mixed, (2, 63, 64, 65, 200))]:
            enc = encode_dataset(ds)
            assert len(enc.active) == ds.m - 1    # the constant column is left out
            for words, j in zip(enc.features, enc.active):
                values = ds.columns[j].tolist()
                want = [encode_value(enc.encoders[j], value) for value in values]
                assert _int(words) == _bits(want) == encode_bits(enc.encoders[j], values)

    @pytest.mark.parametrize("block_values", [1, 400, 600])
    def test_any_block_size_gives_the_same_encoding(self, monkeypatch, block_values):
        # columns of 200 rows: one column per block, then blocks of two and
        # of three columns, against all the columns of a kind in one
        ds = self._mixed(200)
        want = encode_dataset(ds)
        monkeypatch.setattr(encoding, "_BLOCK_VALUES", block_values)
        got = encode_dataset(ds)
        assert (got.encoders, got.active) == (want.encoders, want.active)
        assert got.features.tolist() == want.features.tolist()

    @staticmethod
    def _mixed(n):
        """n rows of every kind, two or more columns of each, quantitative
        columns in between the others, one of them constant and so
        degenerate; the nominal columns have different numbers of
        categories."""
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        noisy = labels ^ (rng.random(n) < 0.2)    # each column follows these
        noisy[:2] = labels[:2]
        columns = [
            (rng.integers(0, 9, size=n) / 2.0 + 3 * noisy).tolist(),
            noisy.tolist(),
            (rng.normal(size=n) - 3 * noisy).tolist(),
            [7.0] * n,
            np.where(noisy, "a", rng.choice(["b", "c"], size=n)).tolist(),
            (rng.uniform(1e308, 1.7e308, size=n) * (2 * noisy - 1)).tolist(),
            [_adjacent(k) for k in noisy.tolist()],    # u = lo: rows at u stay 1 - h
            (1 - noisy).tolist(),
            np.where(noisy, "yes", rng.choice(["n1", "n2", "n3"], size=n)).tolist(),
        ]
        kinds = ("quantitative", "boolean", "quantitative", "quantitative", "nominal",
                 "quantitative", "quantitative", "boolean", "nominal")
        return Dataset(features=[FeatureSpec(f"x{j}", kind) for j, kind in enumerate(kinds)],
                       columns=columns, labels=labels)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
    def test_labels_and_row_mask_words(self, n):
        labels = [r % 3 == 0 for r in range(n)]
        ds = Dataset(features=[FeatureSpec("q", "quantitative")],
                     columns=[[float(r) for r in range(n)]], labels=labels)
        enc = encode_dataset(ds)
        assert enc.labels.shape == enc.ones.shape == (-(-n // 64),)
        assert _int(enc.labels) == _bits(labels)
        assert _int(enc.ones) == (1 << n) - 1
        assert _int(enc.features[0]) < 1 << n    # tail bits are zero


def _int(words) -> int:
    """Packed uint64 words as one int, bit r for row r."""
    return int.from_bytes(np.asarray(words, dtype="<u8").tobytes(), "little")


def _bits(flags) -> int:
    """0/1 flags as one int, bit r for flags[r]."""
    return sum(int(bit) << r for r, bit in enumerate(flags))


def _scalar(enc, values) -> int:
    """encode_value row by row, as one int with bit r for values[r]."""
    return _bits(encode_value(enc, v) for v in values)


SIZES = (0, 1, 7, 8, 9, 63, 64, 65)
BIG_INTS = (10**400, -10**400, 10**5000)    # beyond float range; the last too long to repr
FINITE = st.floats(-1e3, 1e3, allow_nan=False)


class TestEncodeBits:
    """encode_bits, the column encoder of `mofn classify` and the reference
    for training's packed words, against encode_value applied row by row."""

    @given(st.data(), st.sampled_from(SIZES), st.sampled_from((0, 1)))
    def test_quantitative(self, data, n, polarity):
        u = data.draw(FINITE)
        values = data.draw(st.lists(st.one_of(FINITE, st.just(u)), min_size=n, max_size=n))
        enc = Encoder("f", "quantitative", polarity, threshold=u)
        assert encode_bits(enc, values) == _scalar(enc, values)

    @given(st.data(), st.sampled_from(SIZES), st.sampled_from((0, 1)))
    def test_boolean(self, data, n, polarity):
        bit = st.sampled_from((0, 1, 0.0, 1.0, False, True))
        values = data.draw(st.lists(bit, min_size=n, max_size=n))
        enc = Encoder("f", "boolean", polarity)
        assert encode_bits(enc, values) == _scalar(enc, values)

    @given(st.data(), st.sampled_from(SIZES), st.sampled_from((0, 1)))
    def test_nominal(self, data, n, polarity):
        category = st.sampled_from(("red", "blue", "red "))
        values = data.draw(st.lists(category, min_size=n, max_size=n))
        enc = Encoder("f", "nominal", polarity, category=data.draw(category))
        assert encode_bits(enc, values) == _scalar(enc, values)

    @given(st.data(), st.sampled_from(SIZES[1:]))
    def test_same_error_type_on_an_empty_nominal_value(self, data, n):
        values = ["red"] * n
        values[data.draw(st.integers(0, n - 1))] = ""
        self.assert_same_error(Encoder("f", "nominal", category="red"), values,
                               "feature 'f': values include an empty one")
        with pytest.raises(EncodingError, match="^feature 'f': empty value$"):
            encode_value(Encoder("f", "nominal", category="red"), "")

    @staticmethod
    def assert_same_error(enc, values, message):
        """encode_bits refuses the column with `message`, and encode_value
        refuses some value of it."""
        with pytest.raises(EncodingError) as got:
            encode_bits(enc, values)
        assert str(got.value) == message
        with pytest.raises(EncodingError):
            _scalar(enc, values if values else [1.0])

    @given(st.data(), st.sampled_from(SIZES[1:]))
    def test_same_errors_on_non_finite_and_non_bit_values(self, data, n):
        at = data.draw(st.integers(0, n - 1))
        values = [1.0] * n
        values[at] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        self.assert_same_error(Encoder("f", "quantitative", threshold=0.5), values,
                               "feature 'f': non-finite values")
        values[at] = data.draw(st.sampled_from((2, -1, 0.5, math.nan, math.inf)))
        self.assert_same_error(Encoder("f", "boolean"), values,
                               "feature 'f': values are not all 0/1")

    @given(st.data(), st.sampled_from(SIZES[1:]))
    def test_same_error_type_on_non_numeric_quantitative_values(self, data, n):
        values = [1.0] * n
        values[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from(("abc", "", None, [1.0])))
        self.assert_same_error(Encoder("f", "quantitative", threshold=0.5), values,
                               "feature 'f': values are not all numeric")

    @pytest.mark.parametrize("kind", ["quantitative", "boolean", "nominal"])
    @pytest.mark.parametrize("n", SIZES)
    def test_same_error_on_degenerate_encoders(self, kind, n):
        self.assert_same_error(Encoder("f", kind, degenerate=True, error=1), [1.0] * n,
                               "feature 'f' is degenerate and cannot be encoded")

    @pytest.mark.parametrize("big", BIG_INTS, ids=["1e400", "-1e400", "1e5000"])
    def test_encode_value_refuses_an_int_beyond_float_range(self, big):
        with pytest.raises(EncodingError, match="^feature 'f': value beyond float range$"):
            encode_value(Encoder("f", "quantitative", threshold=0.5), big)

    @pytest.mark.parametrize("big", BIG_INTS, ids=["1e400", "-1e400", "1e5000"])
    def test_encode_bits_refuses_an_int_beyond_float_range(self, big):
        with pytest.raises(EncodingError, match="^feature 'f': non-finite values$"):
            encode_bits(Encoder("f", "quantitative", threshold=0.5), [1.0, big])


# Spellings of 0 and 1 that read_column reads as numbers, one that only
# its stripped retry reads, and cells no numeric kind can hold.
CELLS = ("1", " 1", "1.0", "0", "0.0 ", "1\x1c", "", "2", "nan", "x")
MESSAGES = {"quantitative": "values are not all numeric", "boolean": "values are not all 0/1"}


def read_and_encode_bits(enc, raw):
    """read_column, then encode_bits on the values it gives the kind: the
    pair that encode_cells replaces.  A column read_column cannot read as
    numbers is refused with encode_bits' message for a cell of no number."""
    x, cells = read_column(raw, enc.kind == "nominal")
    values = cells if enc.kind == "nominal" else x
    if values is None and not enc.degenerate:
        raise EncodingError(f"feature {enc.feature!r}: {MESSAGES[enc.kind]}")
    return encode_bits(enc, [1.0] if values is None else values)


class TestEncodeCells:
    """encode_cells, which `mofn classify` runs on each column of raw CSV
    cells, against read_column and encode_bits."""

    @settings(max_examples=300)
    @given(st.data(), st.sampled_from(["quantitative", "boolean", "nominal"]),
           st.sampled_from(SIZES), st.sampled_from((0, 1)))
    def test_same_bits_or_error_as_read_column_and_encode_bits(self, data, kind, n, polarity):
        good = data.draw(st.sampled_from((CELLS[:6], CELLS)))    # half the columns hold no refusal
        raw = data.draw(st.lists(st.sampled_from(good), min_size=n, max_size=n))
        enc = Encoder("f", kind, polarity, threshold=data.draw(st.sampled_from((0.0, 0.5, 1.0))),
                      category=data.draw(st.sampled_from(("1", "0.0", "x"))),
                      degenerate=data.draw(st.sampled_from((False,) * 7 + (True,))))
        try:
            want = read_and_encode_bits(enc, raw)
        except EncodingError as refused:
            with pytest.raises(EncodingError) as got:
                encode_cells(enc, raw)
            assert str(got.value) == str(refused)
        else:
            assert encode_cells(enc, raw) == want

    @pytest.mark.parametrize("polarity", [0, 1])
    def test_a_boolean_column_spreads_its_distinct_cells(self, polarity):
        raw = ["0", " 1", "1.0", "0", "0.0 ", "1", " 1"] * 10
        want = _bits(float(cell) == polarity for cell in raw)
        assert encode_cells(Encoder("f", "boolean", polarity), raw) == want
        assert encode_cells(Encoder("f", "boolean", polarity), []) == 0


def csv_reader_table(text):
    """read_table as it was when csv.reader read every text: the
    reference the split path is held to."""
    reader = csv.reader(io.StringIO(text))
    try:
        table = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    if not table:
        raise DataError("empty CSV")
    header = [h.strip() for h in table[0]]
    body = table[1:]
    ragged = None
    if set(map(len, body)) - {len(header)}:
        r = next(r for r, row in enumerate(body) if len(row) != len(header))
        ragged = (r, f"row {r} has {len(body[r])} cells, expected {len(header)}")
        del body[r:]
    return header, list(zip(*body)) or [()] * len(header), ragged


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# csv syntax (quote, CR, NUL), whitespace that str.strip or str.splitlines
# treats apart from csv (\t, \x1c, \x85, \u2028, \xa0), and plain cells
CSV_ALPHABET = ',\n\r"\0 \t\x1c\x85\u2028\xa0' + "0123456789abcxyz"
PLAIN_CELL = st.text(alphabet=" \t\x1c\x85\u2028.-e0123456789abc", max_size=6)


@st.composite
def csv_texts(draw):
    """Header and rows of plain cells, most the header's width, some
    ragged, with blank lines and a few syntax characters dropped in; or
    text over the whole alphabet."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet=CSV_ALPHABET, min_size=1, max_size=40))
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 7))):
        n = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(st.lists(PLAIN_CELL, min_size=n, max_size=n))))
        lines += [""] * draw(st.integers(0, 1))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(CSV_ALPHABET)) + text[at:]
    return text


def read_either(read, text):
    try:
        header, columns, ragged = read(text)
    except DataError as exc:
        return "error", str(exc)
    return header, [list(column) for column in columns], ragged


class TestReadTableMatchesCsvReader:
    """The str.split path of read_table gives the table and the errors
    that csv.reader gives, and the csv.reader path is the reference."""

    @settings(max_examples=600, deadline=None)
    @given(text=csv_texts(), limit=st.sampled_from([131072, 4]))
    @example(text="a,b\n", limit=131072)          # header only
    @example(text="\n\n", limit=131072)           # blank lines only
    @example(text="a,b\n1,2\n\n3\nx,y\n", limit=131072)    # ragged below good rows
    @example(text="a,b\n1,x\n3\n", limit=131072)    # ragged below a bad cell
    @example(text="a,b\n3\n1,x\n", limit=131072)    # ragged above a bad cell
    @example(text="a,b\n12345,6\n", limit=4)     # a line and a field over the limit
    @example(text="a,b\n1234,5678\n", limit=4)   # a line over the limit, no field
    def test_same_table_and_errors(self, text, limit):
        with field_size_limit(limit):
            assert read_either(read_table, text) == read_either(csv_reader_table, text)

    def test_bench_like_wide_table(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 100, size=(300, 96))
        text = "".join([",".join(f"f{j}" for j in range(96)) + "\n",
                        *(",".join(f"{v:.4f}" for v in row) + "\n" for row in values)])
        assert read_either(read_table, text) == read_either(csv_reader_table, text)


@pytest.mark.parametrize("marks", [0, 1, 2])
def test_read_file_drops_one_leading_byte_order_mark(marks, tmp_path):
    """As the utf-8-sig codec decodes: one mark at the start of the file
    is dropped, a second one, or one further on, is text."""
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf" * marks + "a,b\ufeff\n".encode())
    want = path.read_text(encoding="utf-8-sig")
    assert encoding.read_file(path, DataError, "data") == want
    assert want.startswith("\ufeff" * max(marks - 1, 0) + "a")
