import io
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mofn import data, encoding
from mofn.data import Dataset, FeatureSpec, load_csv, to_csv
from mofn.errors import DataError, EncodingError

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
        x, _ = encoding.read_column(raw, False)
        rows = [f"{r},{cell},{r % 2}" for r, cell in enumerate(raw + raw)]
        text = "id,f,label\n" + "\n".join(rows) + "\n"
        if not all(map(math.isfinite, x)):
            with pytest.raises(DataError, match="^feature 'f', row .*: non-finite value"):
                load_csv(text)
            return
        kind = load_csv(text).features[1].kind
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
        with pytest.warns(UserWarning, match="dropped 1") as record:
            ds = load_csv(text, drop_incomplete=True)
        assert ds.n == 3
        assert record[0].filename == __file__    # the caller's line

    @pytest.mark.parametrize("dropped, below, kinds, message", [
        (",1", "4,1,maybe", {}, "row 3: label 'maybe' is not one of ('0', '1')"),
        (",1", "inf,1,1", {}, "feature 'a', row 3: non-finite value 'inf'"),
        ("nan,", "inf,1,1", {}, "feature 'a', row 3: non-finite value 'inf'"),
        (",1", "4,2,1", {"b": "boolean"}, "feature 'b', row 3: '2' is not 0/1"),
        (",1", "4,x,1", {"b": "quantitative"}, "feature 'b', row 3: 'x' is not numeric"),
    ])
    def test_rows_below_a_dropped_row_are_named_by_data_row(self, dropped, below, kinds,
                                                            message):
        """A bad label or cell is named by its row in the file, as the
        warning names the dropped row, and a dropped row's cells are not
        read as bad."""
        text = f"a,b,label\n1,0,0\n{dropped},1\n2,0,1\n{below}\n3,1,0\n"
        with pytest.warns(UserWarning, match=r"^dropped 1 incomplete row\(s\): \[1\]$"):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                load_csv(text, drop_incomplete=True, kinds=kinds)

    def test_no_complete_data_rows(self):
        with pytest.raises(DataError, match="^no complete data rows$"):
            load_csv("a,b,label\n")
        with pytest.warns(UserWarning, match=r"^dropped 2 incomplete row\(s\): \[0, 1\]$"):
            with pytest.raises(DataError, match="^no complete data rows$"):
                load_csv("a,b,label\n1.0,,0\n,2.0,1\n", drop_incomplete=True)

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

    @pytest.mark.parametrize("text, message", [
        ("a,a,label\nnan,1,0\n2,3,1\n4,5,1\n", "duplicate feature names"),
        ("a,b,label\nnan,1,0\n2,3,0\n4,5,0\n", "class '1' has no rows"),
    ], ids=["duplicate names", "one class"])
    def test_dataset_checks_come_before_cell_errors(self, text, message):
        """Dataset checks the table before it types the columns, so its
        errors win over a bad cell's."""
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(text)

    def test_label_only_csv_has_empty_rows(self):
        with pytest.warns(UserWarning, match="conflicting labels"):
            ds = load_csv("label\n0\n1\n")
        assert ds.features == [] and ds.rows == [(), ()]


class TestSource:
    def test_missing_file_is_a_data_error(self, tmp_path):
        missing = tmp_path / "missing.csv"
        message = f"^data file not found: {re.escape(str(missing))}$"
        for source in (missing, str(missing)):
            with pytest.raises(DataError, match=message):
                load_csv(source)

    def test_single_line_text_is_read_as_a_path(self):
        with pytest.raises(DataError, match="^data file not found: f1,label$"):
            load_csv("f1,label")

    def test_a_path_holding_a_newline_is_read_as_a_path(self, tmp_path):
        path = tmp_path / "new\nline.csv"
        path.write_text(BASIC)
        assert load_csv(path).rows == load_csv(BASIC).rows

    def test_path_and_file_object(self, tmp_path):
        path = tmp_path / "basic.csv"
        path.write_text(BASIC)
        for source in (path, str(path), io.StringIO(BASIC)):
            assert load_csv(source).rows == load_csv(BASIC).rows

    @pytest.mark.parametrize("text", [BASIC, "label,age\n0,1.5\n1,2.5\n"])
    def test_a_byte_order_mark_is_not_read_into_the_first_name(self, text, tmp_path):
        """A spreadsheet's UTF-8 byte order mark before a feature name or
        the label is dropped, from a path, a file object or literal text."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = load_csv(plain)
        with marked.open(encoding="utf-8") as handle:
            from_file = load_csv(handle)
        for got in (load_csv(marked), from_file, load_csv("\ufeff" + text)):
            assert to_csv(got) == to_csv(want) == to_csv(load_csv(text))
            assert [f.name for f in got.features] == [f.name for f in want.features]
            assert got.label_name == want.label_name


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

    @pytest.mark.parametrize("bad, kinds", [("inf", {}), ("2", {"b": "boolean"})])
    def test_only_the_refused_columns_are_read_again(self, bad, kinds, monkeypatch):
        """Dataset's error names every refused column, of one block or of
        blocks of two kinds, and load_csv looks for a bad cell in those
        alone: the later feature's lower row wins."""
        text = f"a,b,c,d,label\n1,0,2,3,0\n2,1,3,nan,1\n3,{bad},4,5,0\n4,1,9,6,1\n"
        read = []
        first_bad_cell = data.first_bad_cell
        monkeypatch.setattr(data, "first_bad_cell",
                            lambda cells, name, kind: read.append(name) or first_bad_cell(
                                cells, name, kind))
        with pytest.raises(DataError) as err:
            load_csv(text, kinds=kinds)
        assert str(err.value) == "feature 'd', row 1: non-finite value 'nan'"
        assert read == ["b", "d"]


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

    @given(st.data())
    def test_warns_exactly_when_a_row_walk_finds_conflicts(self, data):
        """The sorted-column screen lets no conflicting pair through, at
        any width: columns of few distinct values make rows that agree on
        the first 1, 2, 4, ... columns and differ on a later one."""
        import warnings

        kinds = data.draw(st.lists(st.sampled_from(["quantitative", "boolean", "nominal"]),
                                   min_size=1, max_size=6))
        n = data.draw(st.integers(2, 12))
        values = {"quantitative": st.sampled_from([-0.0, 0.0, 1.5, 2.0]),
                  "boolean": st.sampled_from([0, 1]), "nominal": st.sampled_from("xyz")}
        rows = [tuple(data.draw(values[k]) for k in kinds) for _ in range(n)]
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        labels[:2] = [0, 1]
        seen, flagged = {}, []
        for r, (row, y) in enumerate(zip(rows, labels)):
            first, y0 = seen.setdefault(row, (r, y))
            if y0 != y:
                flagged.append(f"{first} vs {r}")
        features = [FeatureSpec(f"f{j}", k) for j, k in enumerate(kinds)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            Dataset(features=features, rows=rows, labels=labels)
        assert [str(w.message) for w in record] == (
            [f"{len(flagged)} duplicate row pair(s) with conflicting labels: "
             + ", ".join(flagged[:5])] if flagged else [])

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

    @pytest.mark.parametrize("table, message", [
        ({}, "give either rows or columns"),
        ({"rows": [(0,), (1,)], "columns": [[0, 1]]}, "give either rows or columns"),
        ({"rows": [(0,), (1, 0)]}, "row 1 has 2 values, expected 1"),
        ({"columns": [[0, 1], [1, 0]]}, "expected 1 columns of 2 values"),
        ({"columns": [[0, 1, 0]]}, "expected 1 columns of 2 values"),
    ])
    def test_a_table_of_the_wrong_shape_is_refused(self, table, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Dataset([FeatureSpec("a", "boolean")], labels=[0, 1], **table)

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(
                features=[FeatureSpec("a", "boolean")],
                rows=[(1,), (0,)],
                labels=np.array([0, 1, 1]),
            )

    @pytest.mark.parametrize("names", [("x", "x"), ("p", "q", "r")])
    def test_class_names_are_two_distinct_names(self, names):
        with pytest.raises(DataError, match="^class_names must be two distinct names, got "):
            Dataset(
                features=[FeatureSpec("a", "boolean")],
                rows=[(1,), (0,)],
                labels=np.array([0, 1]),
                class_names=names,
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

    def test_the_error_names_every_refused_column_of_every_kind(self):
        """The message is the first refused block's; `features` also
        names the refused columns of the blocks typed after it."""
        specs = [FeatureSpec(name, kind) for name, kind in [
            ("a", "boolean"), ("b", "quantitative"), ("c", "boolean"), ("d", "nominal"),
            ("e", "quantitative"), ("f", "boolean")]]
        rows = [(0, 1.0, 2, "x", math.inf, 0), (1, math.nan, 1, "", 2.0, 1)]
        with pytest.raises(EncodingError) as err:
            Dataset(specs, rows=rows, labels=[0, 1])
        first = {"quantitative": "b", "boolean": "c", "nominal": "d"}[encoding.KINDS[0]]
        assert str(err.value).startswith(f"feature {first!r}: ")
        assert sorted(err.value.features) == ["b", "c", "d", "e"]

    @pytest.mark.parametrize("kind, bad, message", [
        ("quantitative", math.nan, "feature 'x': non-finite values"),
        ("quantitative", -math.inf, "feature 'x': non-finite values"),
        ("boolean", 2, "feature 'x': values are not all 0/1"),
    ])
    @pytest.mark.parametrize("given", ["rows", "columns"])
    def test_values_the_kind_cannot_hold_are_refused(self, kind, bad, message, given):
        """The Dataset refuses them when it is built, with the message
        that fitting the column gives."""
        values = [0, 1, bad]
        with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
            encoding.fit_feature(values, [0, 1, 1], kind, "x")
        table = {"rows": [(v,) for v in values]} if given == "rows" else {"columns": [values]}
        with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
            Dataset(features=[FeatureSpec("x", kind)], labels=[0, 1, 1], **table)

    @pytest.mark.parametrize("labels", [[0.5, 1, 0, 1], [-1, 1, 0, 1], [257, 1, 0, 1]])
    def test_labels_are_checked_before_the_cast(self, labels):
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            Dataset([FeatureSpec("a", "boolean")], rows=[(0,), (1,), (0,), (1,)], labels=labels)

    @pytest.mark.parametrize("given", ["rows", "columns"])
    def test_nominal_values_are_python_strings(self, given):
        values = np.array(["x", "y", "y", "x"])
        table = {"rows": list(zip(values))} if given == "rows" else {"columns": [values]}
        ds = Dataset([FeatureSpec("c", "nominal")], labels=[1, 0, 0, 1], **table)
        assert [type(v) for (v,) in ds.rows] == [str] * 4
        assert type(encoding.encode_dataset(ds).encoders[0].category) is str

    @pytest.mark.parametrize("bad", [1, None])
    def test_nominal_values_that_are_not_strings_are_refused(self, bad):
        """An int category used to fail at writing the model, and None to
        write a model that the parser refuses."""
        with pytest.raises(EncodingError, match="^feature 'c': values are not all strings$"):
            Dataset([FeatureSpec("c", "nominal"), FeatureSpec("b", "boolean")],
                    rows=[(bad, 0), ("y", 0), ("y", 1), (bad, 1)], labels=[1, 0, 0, 1])

    def test_columns_are_read_only_typed_arrays_and_rows_python_values(self):
        ds = load_csv(BASIC)
        assert [c.dtype for c in ds.columns] == [np.float64, np.uint8, object]
        assert not any(c.flags.writeable for c in ds.columns)
        assert ds.rows[0] == (61.5, 1, "north")
        assert [type(v) for v in ds.rows[0]] == [float, int, str]

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
