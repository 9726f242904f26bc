import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mofn import data, encoding
from mofn.data import Dataset, FeatureSpec, load_csv, to_csv
from mofn.errors import DataError

BASIC = """\
age,fever,ward,label
61.5,1,north,0
44.0,0,south,1
58.2,1,north,0
39.9,0,east,1
"""


class TestLoadCsv:
    def test_kinds_inferred(self):
        ds = load_csv(BASIC)
        assert [f.kind for f in ds.features] == ["quantitative", "boolean", "nominal"]
        assert ds.n == 4 and ds.m == 3
        assert ds.rows[0] == (61.5, 1, "north")
        assert list(ds.labels) == [0, 1, 0, 1]

    @given(st.lists(st.sampled_from(["0", "1", "-0", "1.0", "0e0", " 1", "2", "0.5", "-1", "nan"]),
                    min_size=1, max_size=8))
    def test_boolean_kind_is_read_from_every_value(self, raw):
        x, cells = encoding.read_column(raw, False)
        kind = encoding.parse_column(cells, x, "f", None)[0]
        assert kind == ("boolean" if all(v in (0.0, 1.0) for v in x) else "quantitative")

    def test_named_classes(self):
        text = BASIC.replace(",0\n", ",sick\n").replace(",1\n", ",well\n")
        ds = load_csv(text, class_names=("sick", "well"))
        assert ds.class_names == ("sick", "well")
        assert list(ds.labels) == [0, 1, 0, 1]

    def test_unknown_label_value(self):
        with pytest.raises(DataError, match="label"):
            load_csv(BASIC.replace("61.5,1,north,0", "61.5,1,north,2"))

    def test_missing_label_column(self):
        with pytest.raises(DataError, match="outcome"):
            load_csv(BASIC, label_column="outcome")

    def test_ragged_row(self):
        with pytest.raises(DataError, match="cells"):
            load_csv(BASIC.replace("44.0,0,south,1", "44.0,0,1"))

    def test_empty_cell_is_an_error(self):
        with pytest.raises(DataError, match="empty cell"):
            load_csv(BASIC.replace("44.0,0,south", "44.0,,south"))

    def test_drop_incomplete(self):
        text = BASIC.replace("44.0,0,south", "44.0,,south")
        with pytest.warns(UserWarning, match="dropped 1"):
            ds = load_csv(text, drop_incomplete=True)
        assert ds.n == 3

    def test_kind_override(self):
        ds = load_csv(BASIC, kinds={"fever": "quantitative"})
        assert ds.features[1].kind == "quantitative"
        assert ds.rows[0][1] == 1.0

    def test_override_must_fit_values(self):
        with pytest.raises(DataError, match="not numeric"):
            load_csv(BASIC, kinds={"ward": "quantitative"})

    def test_override_unknown_feature(self):
        with pytest.raises(DataError, match="unknown feature"):
            load_csv(BASIC, kinds={"pulse": "boolean"})

    def test_override_unknown_kind(self):
        with pytest.raises(DataError, match="unknown kind"):
            load_csv(BASIC, kinds={"fever": "fuzzy"})

    def test_kinds_are_the_encoders_kinds(self):
        assert data.KINDS is encoding.KINDS
        assert {spec.kind for spec in load_csv(BASIC).features} == set(encoding.KINDS)
        with pytest.raises(DataError, match="unknown feature kind"):
            FeatureSpec("age", "fuzzy")

    def test_duplicate_feature_names(self):
        text = BASIC.replace("age,fever", "age,age")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(text)

    def test_both_classes_required(self):
        text = "\n".join(line for line in BASIC.splitlines() if not line.endswith(",1"))
        with pytest.raises(DataError, match="no rows"):
            load_csv(text + "\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            load_csv(BASIC.replace("61.5", "inf"))

    def test_at_least_two_rows(self):
        text = "a,b,label\n1.0,2.0,0\n"
        with pytest.raises(DataError):
            load_csv(text)

    def test_label_only_csv_has_empty_rows(self):
        with pytest.warns(UserWarning, match="conflicting labels"):
            ds = load_csv("label\n0\n1\n")
        assert ds.features == [] and ds.rows == [(), ()]


class TestSource:
    def test_missing_file_is_a_data_error(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(DataError, match="missing.csv") as err:
            load_csv(str(missing))
        assert "newline" in str(err.value)

    def test_single_line_text_is_read_as_a_path(self):
        with pytest.raises(DataError, match=r"'f1,label'.*newline"):
            load_csv("f1,label")

    def test_path_and_file_object(self, tmp_path):
        path = tmp_path / "basic.csv"
        path.write_text(BASIC)
        for source in (path, str(path), io.StringIO(BASIC)):
            assert load_csv(source).rows == load_csv(BASIC).rows


class TestCellErrorPrecedence:
    """The bad cell in the lowest row wins, then the earliest feature,
    whatever the kind of fault: not numeric, not 0/1 or non-finite."""

    @pytest.mark.parametrize("rows, kinds, message", [
        # same row: the earlier feature wins over b's inferred non-finite
        ("1,2,0 / 2,3,1 / abc,inf,0 / 5,6,1", {"a": "quantitative"},
         "feature 'a', row 2: 'abc' is not numeric"),
        # a lower row in a later feature wins
        ("1,2,0 / 2,nan,1 / abc,3,0 / 5,6,1", {"a": "quantitative"},
         "feature 'b', row 1: non-finite value 'nan'"),
        # within one column, a non-finite cell above a non-numeric one
        ("1,0,0 / nan,1,1 / 2,0,0 / z,1,1", {"a": "quantitative"},
         "feature 'a', row 1: non-finite value 'nan'"),
        # within one boolean column, a non-bit cell above a non-numeric one
        ("1,0,0 / 2,2,1 / 0,x,0 / 1,1,1", {"b": "boolean"},
         "feature 'b', row 1: '2' is not 0/1"),
        ("1,0,0 / 2,1,1 / 3,x,0 / 1,7,1", {"b": "boolean"},
         "feature 'b', row 2: 'x' is not numeric"),
    ])
    def test_first_bad_cell_wins(self, rows, kinds, message):
        text = "a,b,label\n" + "\n".join(rows.split(" / ")) + "\n"
        with pytest.raises(DataError) as err:
            load_csv(text, kinds=kinds)
        assert str(err.value) == message


class TestContradictionsThroughLoadCsv:
    """load_csv warns about duplicate rows with conflicting labels, once
    per conflicting pair, naming the first five pairs."""

    def test_conflicting_duplicates_warn_with_the_first_five_pairs(self):
        # cells compare as parsed values: " 1.0 " equals "1", "x " equals "x"
        text = ("a,b,label\n1,x,0\n 1.0 ,x,1\n2,y,1\n2,y,0\n1,x ,1\n3,z,0\n"
                "3,z,0\n3,z,1\n2,y,0\n4,w,1\n4,w,0\n")
        with pytest.warns(UserWarning) as record:
            load_csv(text)
        assert [str(w.message) for w in record] == [
            "6 duplicate row pair(s) with conflicting labels: "
            "0 vs 1, 2 vs 3, 0 vs 4, 5 vs 7, 2 vs 8"
        ]

    def test_consistent_duplicates_stay_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv("a,b,label\n1,x,0\n1,x,0\n2,y,1\n 2 ,y,1\n")
        assert ds.n == 4

    def test_negative_zero_equals_zero(self):
        with pytest.warns(UserWarning, match="1 duplicate row pair.*: 0 vs 1$"):
            load_csv("a,b,label\n-0.0,x,0\n0,x,1\n5,y,1\n")

    def test_rows_whose_hashes_collide_are_not_duplicates(self):
        import warnings

        assert hash((-1.0,)) == hash((-2.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv("a,label\n-1,0\n-2,1\n")
        assert ds.n == 2

    def test_distinct_rows_start_no_garbage_collection(self):
        """The check hashes rows to ints; a set of row tuples would make
        the cyclic collector run every few hundred rows."""
        import gc

        # column a alone repeats, so the check reaches the width of two
        text = "a,b,c,label\n" + "".join(
            f"{r % 50},{r // 50},{'xyz'[r % 3]},{r % 2}\n" for r in range(5000)
        )
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        load_csv(text)   # the first load imports modules and compiles patterns
        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            ds = load_csv(text)
        finally:
            gc.callbacks.remove(count)
        assert ds.n == 5000
        assert collections == []


class TestDatasetInvariants:
    def test_conflicting_duplicate_rows_warn(self):
        with pytest.warns(UserWarning, match="conflicting labels"):
            Dataset(
                features=[FeatureSpec("a", "boolean")],
                rows=[(1,), (1,), (0,)],
                labels=np.array([0, 1, 1]),
            )

    def test_consistent_duplicates_stay_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Dataset(
                features=[FeatureSpec("a", "boolean")],
                rows=[(1,), (1,), (0,)],
                labels=np.array([0, 0, 1]),
            )

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(
                features=[FeatureSpec("a", "boolean")],
                rows=[(1,), (0,)],
                labels=np.array([0, 1, 1]),
            )

    def test_label_collision_with_feature(self):
        with pytest.raises(DataError, match="collides"):
            Dataset(
                features=[FeatureSpec("label", "boolean")],
                rows=[(1,), (0,)],
                labels=np.array([0, 1]),
            )

    def test_bad_kind(self):
        with pytest.raises(DataError, match="kind"):
            FeatureSpec("a", "ordinal")

    def test_class_counts(self):
        ds = load_csv(BASIC)
        assert ds.class_counts() == (2, 2)
        assert ds.feature_index("ward") == 2
        with pytest.raises(DataError):
            ds.feature_index("pulse")


class TestRoundTrip:
    def test_fixed_round_trip(self):
        ds = load_csv(BASIC)
        again = load_csv(to_csv(ds))
        assert again.rows == ds.rows
        assert again.features == ds.features
        assert list(again.labels) == list(ds.labels)
        assert again.label_name == ds.label_name

    def test_round_trip_keeps_class_names(self):
        ds = load_csv(BASIC, class_names=("0", "1"))
        ds.class_names = ("ill", "fine")
        text = to_csv(ds)
        assert ",ill\n" in text
        again = load_csv(text, class_names=("ill", "fine"))
        assert list(again.labels) == list(ds.labels)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: round(x, 3)),
                st.integers(0, 1),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=20,
        ).filter(
            lambda rows: len({r[2] for r in rows}) == 2
            and any(r[0] not in (0.0, 1.0) for r in rows)
        )
    )
    def test_random_round_trip(self, triples):
        import warnings

        with warnings.catch_warnings():
            # random rows may duplicate with both labels; not under test
            warnings.simplefilter("ignore", UserWarning)
            ds = Dataset(
                features=[FeatureSpec("q", "quantitative"), FeatureSpec("b", "boolean")],
                rows=[(float(q), b) for q, b, _ in triples],
                labels=np.array([y for _, _, y in triples]),
            )
            again = load_csv(to_csv(ds))
        assert again.rows == ds.rows
        assert list(again.labels) == list(ds.labels)
        assert [f.kind for f in again.features] == ["quantitative", "boolean"]
