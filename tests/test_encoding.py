import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mofn.data import Dataset, FeatureSpec
from mofn.encoding import (
    Encoder,
    encode_bits,
    encode_dataset,
    encode_value,
    fit_boolean,
    fit_feature,
    fit_nominal,
    fit_quantitative,
)
from mofn.errors import EncodingError
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

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 1)),
            min_size=2,
            max_size=24,
        ).filter(lambda ps: len({y for _, y in ps}) == 2)
    )
    @settings(deadline=None, max_examples=150)
    def test_property_matches_brute_force(self, pairs):
        values = [float(v) / 2.0 for v, _ in pairs]
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
        ds = self._dataset()
        enc = encode_dataset(ds)
        for words, j in zip(enc.features, enc.active):
            want = [encode_value(enc.encoders[j], value) for value in ds.columns[j]]
            assert _int(words) == _bits(want)

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
FINITE = st.floats(-1e3, 1e3, allow_nan=False)


class TestEncodeBits:
    """encode_bits, the one column encoder (training and `mofn classify`),
    against encode_value applied row by row."""

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
        category = st.sampled_from(("red", "blue", "", "red "))
        values = data.draw(st.lists(category, min_size=n, max_size=n))
        enc = Encoder("f", "nominal", polarity, category=data.draw(category))
        assert encode_bits(enc, values) == _scalar(enc, values)

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

    @pytest.mark.parametrize("kind", ["quantitative", "boolean", "nominal"])
    @pytest.mark.parametrize("n", SIZES)
    def test_same_error_on_degenerate_encoders(self, kind, n):
        self.assert_same_error(Encoder("f", kind, degenerate=True, error=1), [1.0] * n,
                               "feature 'f' is degenerate and cannot be encoded")
