"""End-to-end runs of the command line driver, in process."""

import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mofn import cli, errors
from mofn.cli import build_parser, main
from mofn.data import load_csv
from mofn.encoding import encode_value
from mofn.errors import EncodingError
from mofn.network import train
from mofn.rules import evaluate, parse_formula_table, to_formula_table
from mofn.tables import parse_rendered_csv

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

ANCHOR_CSV = """\
leucocytes,circulating_immune_complex,articular_syndrome,anhelation,erythema,heart_noises,hepatomegaly,myocarditis
5.0,100.0,0,0,0,0,0,0
7.0,150.0,0,0,0,0,0,0
5.0,100.0,1,1,1,1,1,1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_train_writes_model_and_report(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        code, out, _ = run(capsys, "gen", "--seed", "3", "--features", "4",
                           "--rows", "12", "--syndromes", "1", "-o", str(data))
        assert code == 0
        model = tmp_path / "model.rules"
        code, out, err = run(capsys, "train", str(data), "-o", str(model),
                             "--patience", "2")
        assert code == 0
        sc = parse_formula_table(model.read_text())
        assert sc.n >= 1
        assert "majority vote error:" in err
        assert "layer 1:" in err

    def test_train_to_stdout(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        run(capsys, "gen", "--seed", "3", "--features", "4", "--rows", "12",
            "--syndromes", "1", "-o", str(data))
        code, out, _ = run(capsys, "train", str(data))
        assert code == 0
        assert out.startswith("classes ")

    def test_train_class_names(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n0,0,well\n0,1,sick\n1,0,sick\n1,1,well\n")
        code, out, _ = run(capsys, "train", str(data), "--classes", "well,sick")
        assert code == 0
        assert "classes well sick" in out

    def test_no_flags_train_with_library_defaults(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("MOFN_CONFIG", raising=False)
        data = tmp_path / "data.csv"
        run(capsys, "gen", "--seed", "3", "--features", "6", "--rows", "20",
            "--syndromes", "2", "-o", str(data))
        code, out, _ = run(capsys, "train", str(data))
        assert code == 0
        assert out == to_formula_table(train(load_csv(data)))

    def test_values_near_the_float_limit(self, capsys, tmp_path):
        # the label is big AND flag; the midpoint of 1e308 and 1.7e308
        # overflows as (lo + hi) / 2
        rows = "1e308,0,0\n1.7e308,0,0\n1e308,1,0\n1.7e308,1,1\n"
        data = tmp_path / "data.csv"
        data.write_text("big,flag,label\n" + rows * 2)
        model = tmp_path / "model.rules"
        code, _, _ = run(capsys, "train", str(data), "-o", str(model))
        assert code == 0
        sc = parse_formula_table(model.read_text())
        big = sc.features[sc.feature_id("big")]
        assert 1e308 < big.threshold < 1.7e308
        code, out, _ = run(capsys, "classify", str(model), str(data))
        assert code == 0
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == \
            ["0", "0", "0", "1"] * 2

    def test_missing_data_file_is_a_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "error:" in err

    def test_empty_first_layer_is_a_data_error(self, capsys, tmp_path):
        """b alone decides every row, and no catalog function of (a, b)
        that reads a matches it, so no layer-1 candidate survives: one
        error line, exit 3, no model file."""
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n0,0,1\n1,0,1\n0,0,1\n1,1,0\n0,1,0\n")
        model = tmp_path / "model.rules"
        assert run(capsys, "train", str(data), "-o", str(model)) == (
            3, "", "error: first layer is empty: no candidate survived selection\n")
        assert not model.exists()

    def test_bad_label_column(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n1,2,0\n3,4,1\n")
        code, _, err = run(capsys, "train", str(data))
        assert code == 2    # a usage mistake, like a --kind naming no column

    def test_label_naming_no_column_is_a_usage_error(self, capsys, tmp_path):
        data = tmp_path / "gen.csv"
        assert run(capsys, "gen", "--seed", "1", "-o", str(data))[0] == 0
        with data.open("a") as f:    # a bad cell must not be reported first
            f.write("1,2,x,4,5,6,maybe\n")
        header = data.read_text().splitlines()[0].split(",")
        assert run(capsys, "train", str(data), "--label", "nosuch") == (
            2, "", f"error: no column named 'nosuch' in header {header}\n")

    def test_label_column_alone_names_the_missing_features(self, capsys, tmp_path):
        """No encoder exists to be degenerate: the error says there is no
        feature column."""
        data = tmp_path / "data.csv"
        data.write_text("label\n0\n1\n")
        assert run(capsys, "train", str(data)) == (3, "", (
            "warning: 1 duplicate row pair(s) with conflicting labels: 0 vs 1\n"
            "error: no feature columns\n"))

    @pytest.mark.parametrize("spec", ["a", "a,", "a,b,c"])
    def test_classes_need_two_names(self, capsys, tmp_path, spec):
        data = tmp_path / "gen.csv"
        assert run(capsys, "gen", "--seed", "1", "-o", str(data))[0] == 0
        assert run(capsys, "train", str(data), "--classes", spec) == (
            2, "", f"error: --classes expects two comma separated names, got {spec!r}\n")

    @pytest.mark.parametrize("spec", ["a,a", " a , a"])
    def test_classes_need_distinct_names(self, capsys, tmp_path, spec):
        data = tmp_path / "gen.csv"
        assert run(capsys, "gen", "--seed", "1", "-o", str(data))[0] == 0
        assert run(capsys, "train", str(data), "--classes", spec) == (
            2, "", f"error: --classes expects two distinct names, got {spec!r}\n")

    def test_report_writes_an_unprintable_feature_name_as_its_repr(self, capsys, tmp_path):
        """f\\n1 is active but the rule reads only b and c, so the model is
        written; the report still gives one stderr line per entry."""
        data = tmp_path / "data.csv"
        rows = ["1,0,0,0", "2,0,1,1", "3,1,0,1", "4,1,1,0"] * 2 + ["5,0,0,0", "6,0,1,1"]
        data.write_text('"f\n1",b,c,label\n' + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "train", str(data))
        assert code == 0
        assert [enc.feature for enc in parse_formula_table(out).features.values()] == ["b", "c"]
        assert err.splitlines() == [
            "rows: 10",
            "active features: 'f\\n1', b, c",
            "layer 1: 1 unit(s), best error 0",
            "majority vote error: 0/10",
            "stop rule: zero error",
        ]


class TestConfig:
    def gen_data(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        run(capsys, "gen", "--seed", "3", "--features", "4", "--rows", "12",
            "--syndromes", "1", "-o", str(data))
        return data

    def test_config_file_flag(self, capsys, tmp_path):
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beam_width": 8, "patience": 2}))
        code, out, _ = run(capsys, "train", str(data), "--config", str(cfg))
        assert code == 0

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beam_width": 8}))
        monkeypatch.setenv("MOFN_CONFIG", str(cfg))
        code, out, _ = run(capsys, "train", str(data))
        assert code == 0

    def test_unknown_config_key(self, capsys, tmp_path):
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beam": 8}))
        code, _, err = run(capsys, "train", str(data), "--config", str(cfg))
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("config, flags, key", [
        *(({"beam_width": value}, (), "beam_width") for value in ("x", 2.5, None, [1], True)),
        ({"extended_catalog": "no"}, (), "extended_catalog"),
        ({"extended_catalog": 1}, (), "extended_catalog"),
        *(({key: 0}, (), key) for key in ("beam_width", "max_layers", "patience")),
        *(({}, (flag, "0"), key) for flag, key in (
            ("--beam", "beam_width"), ("--max-layers", "max_layers"),
            ("--patience", "patience"))),
    ], ids=repr)
    def test_bad_setting_is_a_usage_error(self, capsys, tmp_path, config, flags, key):
        """A config value of the wrong JSON type, or a setting TrainConfig
        refuses, exits 2 with one error line that names the key."""
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "train", str(data), "--config", str(cfg), *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("config, message", [
        ({"max_layers": 2.5}, "max_layers must be an integer, got 2.5"),
        ({"extended_catalog": None}, "extended_catalog must be true or false, got None"),
        ({"patience": 0}, "patience must be at least 1"),
    ])
    def test_config_file_is_checked_by_train_config(self, capsys, tmp_path, config, message):
        """The file's values make a TrainConfig alone, so a value it
        refuses names the file, even where a flag would override it."""
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--patience", "2"] if "patience" in config else []
        assert run(capsys, "train", str(data), "--config", str(cfg), *flags) == (
            2, "", f"error: config file {cfg}: {message}\n")

    def test_config_file_holding_a_json_array(self, capsys, tmp_path):
        data = self.gen_data(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"beam_width": 8}]))
        assert run(capsys, "train", str(data), "--config", str(cfg)) == (
            2, "", f"error: config file {cfg}: expected a JSON object\n")

    def test_missing_config_file(self, capsys, tmp_path):
        data = self.gen_data(capsys, tmp_path)
        code, _, err = run(capsys, "train", str(data), "--config",
                           str(tmp_path / "nope.json"))
        assert code == 2


class TestClassify:
    def test_anchor_rows(self, capsys, tmp_path, fixtures_dir):
        data = tmp_path / "cases.csv"
        data.write_text(ANCHOR_CSV)
        code, out, _ = run(capsys, "classify",
                           str(fixtures_dir / "ie_srl.rules"), str(data))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row,decision,value,votes"
        assert lines[1] == "0,IE,+6,6/9"
        assert lines[2] == "1,IE,+7,7/9"
        # all clinical signs present with low labs: the other class
        assert lines[3].split(",")[1] == "SRL"

    def test_missing_column_is_a_data_error(self, capsys, tmp_path, fixtures_dir):
        data = tmp_path / "cases.csv"
        data.write_text("leucocytes\n5.0\n")
        code, _, err = run(capsys, "classify",
                           str(fixtures_dir / "ie_srl.rules"), str(data))
        assert code == 3
        assert "lacks columns" in err

    def test_bad_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("classes 0 1\nfeature 0 a kind=boolean h=1\n")
        data = tmp_path / "cases.csv"
        data.write_text("a\n1\n")
        code, _, err = run(capsys, "classify", str(bad), str(data))
        assert code == 4

    def test_model_file_not_found(self, capsys, tmp_path):
        data = tmp_path / "cases.csv"
        data.write_text("a\n1\n")
        code, _, err = run(capsys, "classify", str(tmp_path / "no.rules"), str(data))
        assert code == 4


ANCHOR_HEADER = ANCHOR_CSV.splitlines()[0]
GOOD_ROW = "5.0,100.0,0,0,0,0,0,0"
NOMINAL_MODEL = """\
classes no yes
feature 0 color kind=nominal category=red h=1
feature 1 flag kind=boolean h=0
layer 1
1 0 0 1
"""


class TestClassifyEdges:
    """Exact output and errors of `mofn classify` on awkward CSVs."""

    def classify(self, capsys, tmp_path, fixtures_dir, text,
                 model="ie_srl.rules"):
        data = tmp_path / "cases.csv"
        data.write_text(text)
        model_path = model if "/" in str(model) else fixtures_dir / model
        return run(capsys, "classify", str(model_path), str(data))

    def assert_data_error(self, result, message):
        code, out, err = result
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_non_numeric_quantitative_cell(self, capsys, tmp_path, fixtures_dir):
        text = f"{ANCHOR_HEADER}\n5.0,abc,0,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'circulating_immune_complex', row 0: 'abc' is not numeric")

    def test_wrong_cell_count(self, capsys, tmp_path, fixtures_dir):
        text = f"{ANCHOR_HEADER}\n{GOOD_ROW}\n5.0,100.0,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "row 1 has 7 cells, expected 8")

    def test_boolean_cell_not_a_bit(self, capsys, tmp_path, fixtures_dir):
        text = f"{ANCHOR_HEADER}\n5.0,100.0,2,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'articular_syndrome', row 0: '2' is not 0/1")

    def test_nan_and_overflowing_cells(self, capsys, tmp_path, fixtures_dir):
        for cell in ("nan", "1e999", "-inf"):
            text = f"{ANCHOR_HEADER}\n{cell},100.0,0,0,0,0,0,0\n"
            self.assert_data_error(
                self.classify(capsys, tmp_path, fixtures_dir, text),
                f"feature 'leucocytes', row 0: non-finite value {cell!r}")
        text = f"{ANCHOR_HEADER}\n5.0,100.0,nan,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'articular_syndrome', row 0: 'nan' is not 0/1")

    def test_lowest_bad_row_is_reported(self, capsys, tmp_path, fixtures_dir):
        # row 2 is short, row 1 has two bad cells: row 1 wins, and within
        # it the feature declared first
        text = (f"{ANCHOR_HEADER}\n{GOOD_ROW}\n5.0,100.0,0,x,0,0,0,y\n"
                "5.0,100.0,0\n")
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'anhelation', row 1: 'x' is not numeric")

    def test_first_declared_feature_is_reported(self, capsys, tmp_path, fixtures_dir):
        # b is declared before a, though a has the lower id and comes
        # first in the CSV
        model = tmp_path / "model.rules"
        model.write_text("classes 0 1\n"
                         "feature 1 b kind=quantitative u=0.5 h=1\n"
                         "feature 0 a kind=quantitative u=0.5 h=1\n"
                         "layer 1\n1 6 0 1\n")
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, "a,b\n1,1\nu,v\n",
                          model=model),
            "feature 'b', row 1: 'v' is not numeric")
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, "a,b\nnan,inf\n",
                          model=model),
            "feature 'b', row 0: non-finite value 'inf'")

    def test_header_only(self, capsys, tmp_path, fixtures_dir):
        code, out, err = self.classify(capsys, tmp_path, fixtures_dir,
                                       f"{ANCHOR_HEADER}\n")
        assert (code, out, err) == (0, "row,decision,value,votes\n", "")
        model = tmp_path / "model.rules"
        model.write_text(NOMINAL_MODEL.replace("h=1", "h=0"))
        code, out, err = self.classify(capsys, tmp_path, fixtures_dir,
                                       "flag,color\n", model=model)
        assert (code, out, err) == (0, "row,decision,value,votes\n", "")

    def test_empty_file(self, capsys, tmp_path, fixtures_dir):
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, "\n\n"), "empty CSV")

    def test_blank_lines_are_skipped_and_not_counted(self, capsys, tmp_path,
                                                     fixtures_dir):
        text = f"\n{ANCHOR_HEADER}\n\n{GOOD_ROW}\n\n7.0,150.0,0,0,0,0,0,0\n\n"
        code, out, err = self.classify(capsys, tmp_path, fixtures_dir, text)
        assert (code, err) == (0, "")
        assert out == "row,decision,value,votes\n0,IE,+6,6/9\n1,IE,+7,7/9\n"

    def test_duplicate_header_last_column_wins(self, capsys, tmp_path, fixtures_dir):
        # leucocytes 5.0 decides +6 and 9.0 decides +7 (see test_anchor_rows)
        text = f"{ANCHOR_HEADER},leucocytes\n{GOOD_ROW},9.0\n"
        code, out, _ = self.classify(capsys, tmp_path, fixtures_dir, text)
        assert code == 0
        assert out == "row,decision,value,votes\n0,IE,+7,7/9\n"

    def test_cells_and_header_are_stripped(self, capsys, tmp_path, fixtures_dir):
        header = ANCHOR_HEADER.replace(",", " , ")
        text = f"{header}\n 5.0 , 100.0 ,0,0,0,0,0, 0\n"
        code, out, _ = self.classify(capsys, tmp_path, fixtures_dir, text)
        assert (code, out) == (0, "row,decision,value,votes\n0,IE,+6,6/9\n")

    def test_separator_padded_cells_read_as_load_csv_reads_them(
            self, capsys, tmp_path, fixtures_dir):
        # str.strip removes the separators \x1c-\x1f; float() refuses them
        plain = "5.0,100.0,0,0,0,0,0,0\n7.0,150.0,1,0,0,0,0,0\n"
        padded = ("\x1c5.0,100.0\x1d,0\x1e,\x1f0,0,0,0,0\n"
                  "7.0\x1f,\x1e150.0,1\x1c,0,0,0,0,0\n")
        want = self.classify(capsys, tmp_path, fixtures_dir, f"{ANCHOR_HEADER}\n{plain}")
        assert want[0] == 0
        got = self.classify(capsys, tmp_path, fixtures_dir, f"{ANCHOR_HEADER}\n{padded}")
        assert got == want

        def labelled(rows):
            return "".join([f"{ANCHOR_HEADER},label\n",
                            *(f"{row},{y}\n" for row, y in zip(rows.split("\n"), "01"))])

        assert load_csv(labelled(padded)).rows == load_csv(labelled(plain)).rows

    def test_nominal_and_boolean_columns(self, capsys, tmp_path, fixtures_dir):
        model = tmp_path / "model.rules"
        model.write_text(NOMINAL_MODEL)
        text = "flag,color\n0,red\n1,red\n0.0,blue\n1e0, green \n"
        code, out, _ = self.classify(capsys, tmp_path, fixtures_dir, text,
                                     model=model)
        assert code == 0
        assert out == ("row,decision,value,votes\n0,yes,-1,1/1\n"
                       "1,no,+1,1/1\n2,no,+1,1/1\n3,no,+1,1/1\n")

    @pytest.mark.parametrize("cell", ["", " ", "\t"])
    def test_empty_nominal_cell_is_a_data_error(self, capsys, tmp_path, fixtures_dir, cell):
        """An empty category is no category: the case is refused, not
        decided as "not red", and no output file is written."""
        model = tmp_path / "model.rules"
        model.write_text(NOMINAL_MODEL)
        data = tmp_path / "cases.csv"
        data.write_text(f"flag,color\n0,red\n1,{cell}\n0,blue\n")
        out = tmp_path / "out.csv"
        assert run(capsys, "classify", str(model), str(data), "-o", str(out)) == (
            3, "", "error: feature 'color', row 1: empty cell\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("t,flag\n1,0\n,1\n", "feature 't', row 1: empty cell"),
        ("t,flag\n1,0\n2, \n", "feature 'flag', row 1: empty cell"),
    ], ids=["quantitative", "boolean"])
    def test_empty_cell_of_any_kind_is_named_empty(self, capsys, tmp_path, fixtures_dir,
                                                   text, message):
        model = tmp_path / "model.rules"
        model.write_text("feature 0 t kind=quantitative u=1.5 h=1\n"
                         "feature 1 flag kind=boolean h=0\nlayer 1\n1 0 0 1\n")
        self.assert_data_error(self.classify(capsys, tmp_path, fixtures_dir, text, model),
                               message)

    def test_mixed_spellings_of_boolean_cells_give_the_same_bytes(
            self, capsys, tmp_path, fixtures_dir):
        """ie_srl reads six boolean columns of eight and ie_ar six of six:
        each 0/1 cell spelled another way decides as the plain one."""
        rng = np.random.default_rng(7)
        spellings = (("0", " 0", "0.0", "0.0 ", "-0"), ("1", " 1", "1.0", "1e0", "1\x1c"))
        for model in ("ie_srl.rules", "ie_ar.rules"):
            features = parse_formula_table((fixtures_dir / model).read_text()).features
            header = [enc.feature for enc in features.values()]
            plain, mixed = [header], [header]
            for _ in range(300):
                cells = [(f"{rng.uniform(0, 200):.1f}",) * 2 if enc.kind == "quantitative"
                         else (str(bit), spellings[bit][rng.integers(5)])
                         for enc, bit in zip(features.values(), rng.integers(0, 2, len(header)))]
                plain.append([cell for cell, _ in cells])
                mixed.append([cell for _, cell in cells])
            want, got = (self.classify(capsys, tmp_path, fixtures_dir,
                                       "".join(",".join(row) + "\n" for row in rows), model)
                         for rows in (plain, mixed))
            assert want[0] == 0 and len(want[1].splitlines()) == 301
            assert got == want

    def test_a_bad_boolean_cell_below_good_ones_is_named_by_its_row(
            self, capsys, tmp_path, fixtures_dir):
        rows = [GOOD_ROW, "7.0,150.0,1,0,1.0,0, 1,0"] * 20
        rows[33] = "5.0,100.0,0,0,0,2,0,0"
        data = tmp_path / "cases.csv"
        data.write_text("\n".join([ANCHOR_HEADER, *rows, ""]))
        out = tmp_path / "out.csv"
        assert run(capsys, "classify", str(fixtures_dir / "ie_srl.rules"), str(data),
                   "-o", str(out)) == (3, "", "error: feature 'heart_noises', row 33: "
                                              "'2' is not 0/1\n")
        assert not out.exists()


# Declared in an order other than id order; z is declared but feeds no unit.
DIFF_MODEL = """\
classes no yes
feature 3 q kind=quantitative u=0.5 h=1
feature 1 b kind=boolean h=0
feature 2 z kind=quantitative u=0 h=1
feature 0 c kind=nominal category=red h=1
layer 1
1 6 3 1
2 8 0 3
3 7 1 0
"""
DIFF_CELLS = ("0", "1", " 1 ", "0.0", "1e0", "0.3", "2", "-1", "", " ", "abc",
              "nan", "inf", "-inf", "1e999", "5\x1c", "\x1d1", "0\x1f", "\x1e0.7",
              "red", "blue", " red ", "red\x1c")


def row_by_row_reference(sc, text):
    """`mofn classify` as a walk over rows, the way it checked cases
    before it shared `load_csv`'s column reader: ("ok", stdout),
    ("ragged", message) or ("cell", row, feature) for the first bad row,
    and in it the first bad referenced feature in declaration order."""
    table = [row for row in csv.reader(io.StringIO(text)) if row]
    header = [h.strip() for h in table[0]]
    referenced = set(sc.program.features)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row", "decision", "value", "votes"])
    for r, row in enumerate(table[1:]):
        if len(row) != len(header):
            return "ragged", f"row {r} has {len(row)} cells, expected {len(header)}"
        cells = dict(zip(header, (c.strip() for c in row)))
        bits = {}
        for ident, enc in sc.features.items():
            if ident not in referenced:
                continue
            value = cells[enc.feature]
            try:
                if enc.kind != "nominal":
                    value = float(value)
                bits[ident] = encode_value(enc, value)
            except (ValueError, EncodingError):
                return "cell", r, enc.feature
        d = evaluate(sc, bits)
        label = "contradictory" if d.contradictory else sc.class_names[d.klass]
        writer.writerow([r, label, f"{d.value:+d}" if d.value else "0", f"{d.m}/{d.n}"])
    return "ok", out.getvalue()


@st.composite
def case_csvs(draw):
    """Small case CSVs for DIFF_MODEL: columns in any order, repeated or
    extra names, padded names, ragged rows, blank lines, and cells that
    are padded, empty, non-numeric, non-finite or not a bit."""
    names = draw(st.permutations(["q", "b", "c", "z", "w"]))
    names += draw(st.lists(st.sampled_from(["q", "b", "c"]), max_size=2))
    valid = {"q": ("0.3", "2", "-1", " 1 "), "b": ("0", "1", "0.0", " 1 "),
             "c": ("red", "blue", " red ", "")}
    cells = [st.sampled_from(valid.get(name, DIFF_CELLS)) for name in names]
    bad = st.sampled_from(DIFF_CELLS)
    padded = [draw(st.sampled_from(["{}", " {}", "{} "])).format(n) for n in names]
    lines = [",".join(padded)]
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(bad if draw(st.integers(0, 11)) == 0 else cell) for cell in cells]
        width = len(row) + draw(st.sampled_from([0] * 18 + [-1, 1]))
        lines.append(",".join((row + [draw(bad)])[:width]))
        lines += [""] * draw(st.integers(0, 1))
    return "\n".join(lines) + "\n"


class TestClassifyMatchesRowByRowReference:
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=case_csvs())
    def test_same_exit_stdout_and_first_bad_cell(self, capsys, tmp_path, text):
        model = tmp_path / "model.rules"
        model.write_text(DIFF_MODEL)
        data = tmp_path / "cases.csv"
        data.write_text(text)
        code, out, err = run(capsys, "classify", str(model), str(data))
        want = row_by_row_reference(parse_formula_table(DIFF_MODEL), text)
        if want[0] == "ok":
            assert (code, out, err) == (0, want[1], "")
        elif want[0] == "ragged":
            assert (code, out, err) == (3, "", f"error: {want[1]}\n")
        else:
            assert (code, out) == (3, "")
            named = re.fullmatch(r"error: feature '(\w+)', row (\d+): .*\n", err)
            assert named and (int(named[2]), named[1]) == want[1:]


def quote_cells(text):
    """The same CSV with every header and cell wrapped in "...", which
    csv.reader reads as the same cells; read_table reads it with
    csv.reader and not with str.split."""
    return "\n".join(",".join(f'"{c}"' for c in line.split(",")) if line else ""
                     for line in text.split("\n"))


def wide_csv(rng, n_rows, label=True):
    """Rows like the benchmark's wide inputs: 96 features uniform on
    [0, 100) to four decimals, labelled by a 2-of-3 vote on three."""
    values = rng.uniform(0, 100, size=(n_rows, 96))
    votes = (values[:, 3] > 50).astype(int) + (values[:, 13] > 40) + (values[:, 47] < 60)
    header = [f"f{j}" for j in range(96)] + ["label"] * label
    rows = [[f"{v:.4f}" for v in row] + [str(int(y >= 2))] * label
            for row, y in zip(values, votes)]
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


class TestQuotedCsvGivesTheSameBytes:
    """`mofn train` and `mofn classify` write the same bytes, on stdout
    and stderr, for a CSV and for the same CSV with every cell quoted."""

    def run_both(self, capsys, tmp_path, text, argv):
        results = []
        for name, data in (("plain.csv", text), ("quoted.csv", quote_cells(text))):
            (tmp_path / name).write_text(data)
            results.append(run(capsys, *(str(tmp_path / name) if a == "DATA" else a
                                         for a in argv)))
        assert results[0] == results[1]
        return results[0]

    def test_wide_input(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        code, model, err = self.run_both(capsys, tmp_path, wide_csv(rng, 200),
                                         ["train", "DATA", "--max-layers", "2"])
        assert code == 0 and model.startswith("classes ") and "layer 1:" in err
        (tmp_path / "model.rules").write_text(model)
        cases = wide_csv(rng, 300, label=False)
        code, out, err = self.run_both(capsys, tmp_path, cases,
                                       ["classify", str(tmp_path / "model.rules"), "DATA"])
        assert (code, err) == (0, "")
        assert out == row_by_row_reference(parse_formula_table(model), cases)[1]

    def test_quoted_class_names(self, capsys, tmp_path):
        model = DIFF_MODEL.replace("classes no yes", """classes 'no, "never"' 'yes sir'""")
        (tmp_path / "model.rules").write_text(model)
        cases = "q,b,c,z\n" + "".join(f"{q},{b},{c},0\n" for q in ("0.3", "2")
                                      for b in "01" for c in ("red", "blue"))
        code, out, err = self.run_both(capsys, tmp_path, cases,
                                       ["classify", str(tmp_path / "model.rules"), "DATA"])
        assert (code, err) == (0, "")
        assert out == row_by_row_reference(parse_formula_table(model), cases)[1]
        assert '"no, ""never"""' in out and "yes sir" in out


UNREADABLE = ("dir", "binary", "missing")


class TestUnreadableInputs:
    """A file that is missing or cannot be read as text, a CSV field over
    the csv module's size limit, or JSON nested deeper than the parser's
    recursion limit, is an error line with the exit code of the file's
    role: 3 for data, 4 for a model, 2 for a config file."""

    @pytest.fixture
    def files(self, tmp_path, fixtures_dir):
        (tmp_path / "dir").mkdir()
        (tmp_path / "binary").write_bytes(b"a,label\n\xff\xfe,0\n")
        huge = "1" * (csv.field_size_limit() + 1)
        (tmp_path / "huge.csv").write_text(f"a,label\n{huge},0\n")
        (tmp_path / "cases.csv").write_text(ANCHOR_CSV)
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        return {"dir": tmp_path / "dir", "binary": tmp_path / "binary",
                "huge": tmp_path / "huge.csv", "cases": tmp_path / "cases.csv",
                "missing": tmp_path / "missing", "deep": tmp_path / "deep.json",
                "model": fixtures_dir / "ie_srl.rules"}

    @pytest.mark.parametrize("argv, code", [
        *((("train", data), 3) for data in (*UNREADABLE, "huge")),
        *((("classify", "model", data), 3) for data in (*UNREADABLE, "huge")),
        *(((command, model), 4) for command in ("tabulate", "export", "import")
          for model in UNREADABLE),
        *((("classify", model, "cases"), 4) for model in UNREADABLE),
        *((("train", "cases", "--config", config), 2) for config in (*UNREADABLE, "deep")),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
    def test_error_line_and_exit_code(self, capsys, files, argv, code):
        got, out, err = run(capsys, *(str(files.get(a, a)) for a in argv))
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDataFileNames:
    """The data argument of `mofn train` and `mofn classify` is always a
    file name, read by the same reader as every other file: a name that
    holds a newline is read, not parsed as CSV text."""

    NAME = "new\nline.csv"

    def test_train_and_classify_read_a_name_with_a_newline(self, capsys, tmp_path):
        data = tmp_path / self.NAME
        assert run(capsys, "gen", "--seed", "1", "-o", str(data))[0] == 0
        model = tmp_path / "model.rules"
        assert run(capsys, "train", str(data), "-o", str(model))[0] == 0
        assert model.read_text() == to_formula_table(train(load_csv(data)))
        code, out, _ = run(capsys, "classify", str(model), str(data))
        assert code == 0 and out.count("\n") == 1 + load_csv(data).n

    @pytest.mark.parametrize("command", ["train", "classify"])
    def test_missing_and_directory(self, capsys, tmp_path, fixtures_dir, command):
        model = [str(fixtures_dir / "ie_srl.rules")] if command == "classify" else []
        (tmp_path / "d").mkdir()
        missing, directory = str(tmp_path / "missing.csv"), str(tmp_path / "d")
        assert run(capsys, command, *model, missing) == (
            3, "", f"error: data file not found: {missing}\n")
        code, out, err = run(capsys, command, *model, directory)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: data file {directory}: [Errno 21] ")
        assert err.count("\n") == 1


class TestWarnings:
    """A warning is one `warning:` line on stderr, with no source path
    or code line."""

    def test_dropped_rows(self, capsys, tmp_path):
        data = tmp_path / "inc.csv"
        data.write_text("a,b,label\n1,0,0\n2,,1\n3,1,1\n4,0,0\n")
        code, _, err = run(capsys, "train", str(data), "--drop-incomplete")
        assert code == 0
        assert err.startswith("warning: dropped 1 incomplete row(s): [1]\nrows: 3\n")

    def test_filters_still_apply(self, capsys, tmp_path):
        data = tmp_path / "dup.csv"
        data.write_text("a,label\n1,0\n1,1\n2,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="conflicting labels"):
                main(["train", str(data)])


class TestUtf8Files:
    """Files are read and written as UTF-8 whatever the locale; text that
    stdout cannot encode is an error line and exit code 2."""

    HEADER = "температура,b,label\n"

    def mofn(self, tmp_path, *argv, locale="C"):
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL=locale, PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(pathlib.Path(cli.__file__).parents[1]),
                       os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONIOENCODING", None)
        return subprocess.run([sys.executable, "-m", "mofn.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True)

    @pytest.fixture
    def data(self, tmp_path):
        rows = "".join(f"{i},{i % 2},{i * 7 % 3 % 2}\n" for i in range(8))
        (tmp_path / "u.csv").write_bytes((self.HEADER + rows).encode())
        return "u.csv"

    def test_train_under_an_ascii_locale(self, tmp_path, data):
        ascii_run = self.mofn(tmp_path, "train", data, "-o", "c.rules")
        assert ascii_run.returncode == 0, ascii_run.stderr
        utf8_run = self.mofn(tmp_path, "train", data, "-o", "u.rules", locale="C.UTF-8")
        assert utf8_run.returncode == 0, utf8_run.stderr
        model = (tmp_path / "c.rules").read_bytes()
        assert "температура".encode() in model
        assert model == (tmp_path / "u.rules").read_bytes()
        imported = self.mofn(tmp_path, "import", "c.rules", "-o", "i.rules")
        assert imported.returncode == 0, imported.stderr
        assert (tmp_path / "i.rules").read_bytes() == model

    def test_ascii_stdout(self, tmp_path, data):
        proc = self.mofn(tmp_path, "train", data)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: cannot write stdout: 'ascii' codec can't encode")
        assert proc.stderr.count(b"\n") == 1


class TestByteOrderMark:
    """A UTF-8 byte order mark at the start of a data or model file, as a
    spreadsheet program writes it, changes no output byte."""

    def files(self, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"marked-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        return plain, marked

    @pytest.mark.parametrize("label_first", [False, True])
    def test_train(self, capsys, tmp_path, label_first):
        code, text, _ = run(capsys, "gen", "--seed", "3", "--features", "6", "--rows", "20",
                            "--syndromes", "2")
        assert code == 0
        if label_first:    # the mark then sits before the label's name
            rows = list(csv.reader(io.StringIO(text)))
            text = "".join(",".join([row[-1], *row[:-1]]) + "\n" for row in rows)
        results = [run(capsys, "train", str(path)) for path in self.files(tmp_path, "d.csv", text)]
        assert results[0][0] == 0 and results[1] == results[0]

    def test_classify(self, capsys, tmp_path, fixtures_dir):
        models = self.files(tmp_path, "m.rules", (fixtures_dir / "ie_srl.rules").read_text())
        cases = self.files(tmp_path, "c.csv", ANCHOR_CSV)
        results = {run(capsys, "classify", str(model), str(data))
                   for model in models for data in cases}
        assert len(results) == 1 and next(iter(results))[0] == 0


class TestKindOverrides:
    """A `--kind` that is not name=kind, names no kind, or names no column
    of the CSV is a usage mistake: one error line and exit code 2, before
    any cell is read."""

    @pytest.mark.parametrize("pair, message", [
        ("a", "--kind expects name=kind, got 'a'"),
        ("f1=fuzzy", "--kind 'f1=fuzzy': unknown kind 'fuzzy' "
                     "(one of quantitative, boolean, nominal)"),
        ("nosuch=boolean", "kind override for unknown feature 'nosuch'"),
    ])
    def test_error_line_and_exit_code(self, capsys, tmp_path, pair, message):
        data = tmp_path / "gen.csv"
        assert run(capsys, "gen", "--seed", "1", "-o", str(data))[0] == 0
        with data.open("a") as f:    # a bad label must not be reported first
            f.write("1,2,3,4,5,6,maybe\n")
        assert run(capsys, "train", str(data), "--kind", pair) == (2, "", f"error: {message}\n")


class TestExitCodes:
    """Every error class of `mofn.errors` ends a command with the exit code
    the README documents for its kind of problem."""

    DOCUMENTED = {
        errors.MofnError: 2, errors.TableError: 2, errors.ColumnChoiceError: 2,
        errors.DataError: 3, errors.EncodingError: 3, errors.TrainingError: 3,
        errors.ModelFormatError: 4, errors.CatalogError: 4, errors.EvaluationError: 4,
        errors.ValidationError: 5,
    }

    def test_every_error_class_has_its_code(self, capsys, monkeypatch):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        line = re.search(r"^Exit codes:(.*\n.*)$", readme, re.M).group(1)
        assert set(map(int, re.findall(r"`(\d)`", line))) == {0, *self.DOCUMENTED.values()}
        classes = {value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, errors.MofnError)}
        assert classes == set(self.DOCUMENTED)
        for cls, code in self.DOCUMENTED.items():
            def fail(path, cls=cls):
                raise cls("boom")
            monkeypatch.setattr(cli, "_read_model", fail)
            assert run(capsys, "import", "model") == (code, "", "error: boom\n"), cls


class TestOutputFile:
    """An `-o` file is put in place whole when the command succeeds,
    through a temporary file beside it: the file it replaces keeps its
    permissions, a symbolic link stays a link to the file it names, and a
    path that is no regular file is written in place."""

    def classify(self, capsys, tmp_path, fixtures_dir, out):
        (tmp_path / "cases.csv").write_text(ANCHOR_CSV)
        return run(capsys, "classify", str(fixtures_dir / "ie_srl.rules"),
                   str(tmp_path / "cases.csv"), "-o", str(out))

    def test_a_replaced_file_keeps_its_permissions(self, capsys, tmp_path, fixtures_dir):
        out = tmp_path / "out.csv"
        out.write_text("before\n")
        out.chmod(0o600)
        assert self.classify(capsys, tmp_path, fixtures_dir, out)[0] == 0
        assert out.read_text().startswith("row,decision,value,votes\n0,IE,+6,6/9\n")
        assert out.stat().st_mode & 0o777 == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cases.csv", "out.csv"]

    def test_a_link_stays_a_link(self, capsys, tmp_path, fixtures_dir):
        (tmp_path / "real.csv").write_text("before\n")
        (tmp_path / "link.csv").symlink_to("real.csv")
        assert self.classify(capsys, tmp_path, fixtures_dir, tmp_path / "link.csv")[0] == 0
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "real.csv").read_text().startswith("row,decision,value,votes\n")

    def test_dev_null_is_written_in_place(self, capsys, tmp_path, fixtures_dir):
        assert self.classify(capsys, tmp_path, fixtures_dir, os.devnull) == (0, "", "")
        assert pathlib.Path(os.devnull).is_char_device()


class TestUnwritableOutput:
    """An `-o` path that cannot be written is an error line and exit code
    2, whatever the command: an existing directory, or a file in a
    directory that does not exist."""

    @pytest.fixture
    def inputs(self, tmp_path, fixtures_dir):
        (tmp_path / "dir").mkdir()
        (tmp_path / "cases.csv").write_text(ANCHOR_CSV)
        return {"model": str(fixtures_dir / "ie_srl.rules"),
                "cases": str(tmp_path / "cases.csv"),
                "dir": str(tmp_path / "dir"),
                "missing": str(tmp_path / "missing" / "out.txt")}

    @pytest.mark.parametrize("target", ["dir", "missing"])
    @pytest.mark.parametrize("argv", [
        ("classify", "model", "cases"),
        ("tabulate", "model"),
        ("tabulate", "model", "--format", "csv", "--check"),
        ("export", "model"),
        ("export", "model", "--format", "json"),
        ("import", "model"),
        ("gen", "--seed", "1"),
    ], ids=" ".join)
    def test_error_line_and_exit_code(self, capsys, inputs, argv, target):
        got, out, err = run(capsys, *(inputs.get(a, a) for a in argv), "-o", inputs[target])
        assert (got, out) == (2, "")
        assert err.startswith(f"error: cannot write {inputs[target]}: ")
        assert err.count("\n") == 1
        assert not (pathlib.Path(inputs["dir"]).parent / "missing").exists()


class TestFailedOutput:
    """A command that fails writes nothing: an `-o` file that cannot be put
    in place leaves the old file and no temporary one, and a data error is
    reported before any write is tried."""

    @pytest.mark.parametrize("call", ["replace", "chmod"])
    def test_a_failed_replace_leaves_the_old_file(self, capsys, tmp_path, fixtures_dir,
                                                  monkeypatch, call):
        def fail(*args):
            raise OSError(28, "No space left on device")

        (tmp_path / "cases.csv").write_text(ANCHOR_CSV)
        out = tmp_path / "out.csv"
        out.write_text("before\n")
        monkeypatch.setattr(cli.os, call, fail)
        code, stdout, err = run(capsys, "classify", str(fixtures_dir / "ie_srl.rules"),
                                str(tmp_path / "cases.csv"), "-o", str(out))
        monkeypatch.undo()
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == b"before\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cases.csv", "out.csv"]

    @pytest.mark.parametrize("command, target, message", [
        ("classify", "missing/out.csv", "feature 'leucocytes', row 1: 'x' is not numeric"),
        ("train", "dir", "row 1: label 'maybe' is not one of ('0', '1')"),
    ], ids=["classify", "train"])
    def test_a_data_error_beats_a_write_error(self, capsys, tmp_path, fixtures_dir,
                                              command, target, message):
        (tmp_path / "dir").mkdir()
        data = tmp_path / "data.csv"
        if command == "classify":
            data.write_text(ANCHOR_CSV.replace("\n7.0,", "\nx,"))
            argv = ["classify", str(fixtures_dir / "ie_srl.rules"), str(data)]
        else:
            data.write_text("a,b,label\n0,0,0\n0,1,maybe\n1,0,1\n1,1,0\n")
            argv = ["train", str(data)]
        assert run(capsys, *argv, "-o", str(tmp_path / target)) == (3, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.csv", "dir"]


class TestTabulate:
    def test_default_split_matches_explicit(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, default_out, _ = run(capsys, "tabulate", model, "--format", "csv")
        assert code == 0
        code, explicit_out, _ = run(capsys, "tabulate", model, "--format", "csv",
                                    "--rows", "2,5,8,11", "--cols", "13,14,15,16")
        assert code == 0
        assert default_out == explicit_out

    def test_feature_names_on_axes(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, by_name, _ = run(
            capsys, "tabulate", model, "--format", "csv",
            "--rows", "leucocytes,circulating_immune_complex,"
                      "articular_syndrome,anhelation",
            "--cols", "erythema,heart_noises,hepatomegaly,myocarditis")
        assert code == 0
        code, by_id, _ = run(capsys, "tabulate", model, "--format", "csv",
                             "--rows", "2,5,8,11", "--cols", "13,14,15,16")
        assert by_name == by_id

    def test_grid_matches_bundled_csv(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, out, _ = run(capsys, "tabulate", model, "--format", "csv")
        want = parse_rendered_csv((fixtures_dir / "ie_srl_table.csv").read_text())
        assert np.array_equal(parse_rendered_csv(out), want)

    def test_check_reports_no_ties_on_bundled_model(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, _, err = run(capsys, "tabulate", model, "--check")
        assert code == 0
        assert "contradictory cells: 0" in err

    def test_bad_split_is_usage_error(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, _, err = run(capsys, "tabulate", model, "--rows", "2,5")
        assert code == 2
        code, _, err = run(capsys, "tabulate", model,
                           "--rows", "2,5", "--cols", "8,11")
        assert code == 2

    def test_empty_axis_is_usage_error(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        assert run(capsys, "tabulate", model, "--rows", ",", "--cols", "x") == (
            2, "", "error: empty axis\n")

    def test_unknown_feature_name(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, _, err = run(capsys, "tabulate", model,
                           "--rows", "leucocytes,haircolor", "--cols", "13")
        assert code == 2
        assert err == "error: no declared feature named 'haircolor'\n"

    @pytest.mark.parametrize("token", ["bogus", "99"])
    def test_axis_token_naming_no_feature_is_usage_error(self, capsys, fixtures_dir, token):
        model = str(fixtures_dir / "ie_ar.rules")
        code, out, err = run(capsys, "tabulate", model, "--rows", token, "--cols", "19")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert token in err


class TestExportImport:
    def test_export_text_is_canonical(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "postop.rules")
        code, out, _ = run(capsys, "export", model)
        assert code == 0
        sc = parse_formula_table((fixtures_dir / "postop.rules").read_text())
        assert out == to_formula_table(sc)

    def test_export_symbolic(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "export",
                           str(fixtures_dir / "ie_srl.rules"),
                           "--format", "symbolic")
        assert code == 0
        assert out.splitlines()[0] == "y_39 = g_12(x_11, x_2)"
        assert out.splitlines()[-1].startswith("y = M-of-9(")

    def test_export_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "export",
                           str(fixtures_dir / "ie_srl.rules"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == ["IE", "SRL"]
        assert payload["catalog"] == "standard"
        assert payload["n_syndromes"] == 9
        assert payload["decision_levels"] == [5, 9]
        assert payload["features"]["2"]["name"] == "leucocytes"
        assert payload["features"]["2"]["threshold"] == 6.2
        assert len(payload["layers"]) == 2

    def test_constant_bit_models_are_model_errors(self, capsys, tmp_path):
        """A nominal feature without category= or a non-finite u= would
        encode every case to the same bit; both are refused with exit 4."""
        rows = "layer 1\n1 6 0 1\n"
        for decl, message in (
            ("feature 0 a kind=nominal h=1",
             "error: line 2: nominal feature 'a' needs a category=\n"),
            ("feature 0 a kind=quantitative u=nan h=1",
             "error: line 2: bad value 'nan' for attribute 'u'\n"),
        ):
            model = tmp_path / "model.rules"
            model.write_text(f"classes 0 1\n{decl}\nfeature 1 b kind=boolean h=1\n{rows}")
            data = tmp_path / "cases.csv"
            data.write_text("a,b\n1,1\n")
            for argv in (("import", str(model)), ("classify", str(model), str(data))):
                assert run(capsys, *argv) == (4, "", message)

    @pytest.mark.parametrize("category", ["category=", "category=''"])
    def test_empty_category_is_a_model_error(self, capsys, tmp_path, category):
        """No case matches an empty category: classify refuses the model
        with exit 4 and writes no output file, where it used to decide
        0,red and 1,blue alike."""
        model = tmp_path / "model.rules"
        model.write_text(NOMINAL_MODEL.replace("category=red", category))
        data = tmp_path / "cases.csv"
        data.write_text("flag,color\n0,red\n1,blue\n")
        out = tmp_path / "out.csv"
        assert run(capsys, "classify", str(model), str(data), "-o", str(out)) == (
            4, "", "error: line 2: nominal feature 'color' needs a category=\n")
        assert not out.exists()

    @pytest.mark.parametrize("fn, catalog", [(3, ""), (5, ""), (8, ""), (10, ""), (12, ""),
                                             (1, "catalog extended\n")])
    def test_constant_self_pairs_are_model_errors(self, capsys, tmp_path, fn, catalog):
        """A layer-1 unit that reads one feature twice through a function
        with g(0, 0) == g(1, 1) computes a constant bit; import and
        classify both refuse it with exit 4."""
        model = tmp_path / "model.rules"
        model.write_text(f"{catalog}classes 0 1\nfeature 0 a kind=boolean h=1\n"
                         f"layer 1\n1 6 0 0\n2 {fn} 0 0\n")
        data = tmp_path / "cases.csv"
        data.write_text("a\n1\n")
        line = 5 + bool(catalog)
        message = f"error: line {line}: g_{fn}(x_0, x_0) is a constant bit\n"
        for argv in (("import", str(model)), ("classify", str(model), str(data))):
            assert run(capsys, *argv) == (4, "", message)

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\v", "\f"],
                             ids=ascii)
    def test_names_with_line_break_characters_round_trip(self, capsys, tmp_path, char):
        """str.splitlines breaks lines at these characters; a model line
        holding one inside a quoted name still parses as one line."""
        data = tmp_path / "data.csv"
        rows = ["0,0,0", "0,1,0", "1,0,0", "1,1,1", "1,1,1", "0,0,0"]
        data.write_text("\n".join([f"a{char}b,c,label", *rows]) + "\n", encoding="utf-8")
        model = tmp_path / "model.rules"
        assert run(capsys, "train", str(data), "-o", str(model))[0] == 0
        written = model.read_bytes()
        assert f"a{char}b".encode() in written
        again = tmp_path / "again.rules"
        assert run(capsys, "import", str(model), "-o", str(again))[0] == 0
        assert again.read_bytes() == written

    @pytest.mark.parametrize("char", ["\n", "\r"], ids=ascii)
    @pytest.mark.parametrize("where", ["header", "category"])
    def test_names_holding_a_line_break_are_refused(self, capsys, tmp_path, where, char):
        """A model line cannot hold a line break, and reading a file turns
        a lone \\r into one, so train refuses to write a feature name or
        category holding either: one error line, exit 4, no model file."""
        name = f'"p{char}q"'
        if where == "header":
            lines = [f"{name},c,label", "0,0,0", "0,1,0", "1,0,0", "1,1,1", "1,1,1", "0,0,0"]
        else:
            lines = ["k,c,label", f"{name},0,0", f"{name},1,1", "r,0,0", "r,1,0", "s,1,0",
                     f"{name},1,1"]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.rules"
        assert run(capsys, "train", str(data), "-o", str(model)) == (
            4, "", "error: cannot write 'p\\nq' to a model file: it holds a line break\n")
        assert not model.exists()

    def test_import_is_export_text(self, capsys, fixtures_dir):
        for model in [*fixtures_dir.glob("*.rules"), *GOLDEN.glob("*.rules")]:
            imported = run(capsys, "import", str(model))
            assert imported == run(capsys, "export", "--format", "text", str(model))
            assert imported == (0, to_formula_table(parse_formula_table(model.read_text())), "")

    def test_crlf_model_parses(self, capsys, tmp_path, fixtures_dir):
        text = (fixtures_dir / "ie_srl.rules").read_text()
        crlf = text.replace("\n", "\r\n")
        canonical = to_formula_table(parse_formula_table(text))
        assert to_formula_table(parse_formula_table(crlf)) == canonical
        model = tmp_path / "crlf.rules"
        model.write_bytes(crlf.encode())
        assert run(capsys, "import", str(model)) == (0, canonical, "")

    def test_import_normalizes_and_is_idempotent(self, capsys, tmp_path,
                                                 fixtures_dir):
        messy = tmp_path / "messy.rules"
        text = (fixtures_dir / "ie_srl.rules").read_text()
        messy.write_text("# a copy with noise\n\n" + text.replace("\n", "\n\n"))
        code, first, _ = run(capsys, "import", str(messy))
        assert code == 0
        again = tmp_path / "canon.rules"
        again.write_text(first)
        code, second, _ = run(capsys, "import", str(again))
        assert second == first


class TestGen:
    def test_deterministic_output(self, capsys):
        code, a, _ = run(capsys, "gen", "--seed", "9")
        code, b, _ = run(capsys, "gen", "--seed", "9")
        assert a == b

    def test_generated_csv_loads(self, capsys, tmp_path):
        out = tmp_path / "gen.csv"
        code, _, _ = run(capsys, "gen", "--seed", "9", "--rows", "20",
                         "-o", str(out))
        assert code == 0
        from mofn.data import load_csv

        ds = load_csv(out.read_text())
        assert ds.n == 20
        assert ds.m == 6

    def test_dump_rule(self, capsys):
        code, _, err = run(capsys, "gen", "--seed", "9", "--dump-rule")
        assert code == 0
        assert "hidden rule: 2-of-3(" in err

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--seed", "9", "--features", "1")
        assert code == 2

    @pytest.mark.parametrize("rows", ["0", "1"])
    def test_fewer_than_two_rows_is_usage_error(self, capsys, rows):
        assert run(capsys, "gen", "--seed", "1", "--rows", rows) == (
            2, "", "error: need at least two rows\n")

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(capsys, "gen", "--seed", "-1") == (
            2, "", "error: seed must be non-negative\n")

    def test_unusable_seed_is_usage_error(self, capsys):
        """The generator gives up on this seed; that is an error message,
        not a traceback."""
        code, out, err = run(capsys, "gen", "--seed", "2", "--features", "96",
                             "--rows", "200", "--syndromes", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: could not generate a usable dataset")
        assert "Traceback" not in err


class TestValidate:
    def test_bundled_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        lines = out.splitlines()
        assert all(not ln.startswith("FAIL") for ln in lines)
        assert lines[-1].endswith("checks passed")

    def test_each_reference_grid_is_built_once(self, capsys, monkeypatch):
        """The contradiction check reads the ie_ar grid that the table
        check built."""
        from mofn import tables

        built = []
        make_table = tables.make_table
        monkeypatch.setattr(tables, "make_table", lambda *a: built.append(a) or make_table(*a))
        assert run(capsys, "validate")[0] == 0
        assert len(built) == 2

    def test_damaged_fixture_fails(self, capsys, tmp_path, fixtures_dir):
        for f in fixtures_dir.iterdir():
            (tmp_path / f.name).write_text(f.read_text())
        target = tmp_path / "ie_srl.rules"
        # flip one unit's function: and -> nand
        target.write_text(target.read_text().replace("2 0 39 8", "2 13 39 8"))
        code, out, _ = run(capsys, "validate", "--fixtures", str(tmp_path))
        assert code == 5
        assert any(ln.startswith("FAIL") for ln in out.splitlines())

    @pytest.mark.parametrize("name, damage, reason", [
        ("ie_srl.rules", lambda text: text.encode() + b"\xff\n",
         "'utf-8' codec can't decode byte 0xff"),
        ("ie_ar_table.csv",
         lambda text: text.replace("000,001,010,011,100,101,110,111", "a,b,c,d,e,f,g,h").encode(),
         "no bit pattern columns in CSV header"),
        ("ie_srl_table.csv", lambda text: text.replace(",+5,-5\n", ",+5\n").encode(),
         "ragged CSV table: row 2 has 19 cells, expected 20\n"),
    ])
    def test_damaged_reference_file(self, capsys, tmp_path, fixtures_dir, name, damage,
                                    reason):
        """A reference file that cannot be read or parsed is a validation
        failure, reported before any check runs, on one error line."""
        for f in fixtures_dir.iterdir():
            (tmp_path / f.name).write_text(f.read_text())
        target = tmp_path / name
        target.write_bytes(damage(target.read_text()))
        code, out, err = run(capsys, "validate", "--fixtures", str(tmp_path))
        assert (code, out) == (5, "")
        assert err.startswith(f"error: reference file {target}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("absent", [
        ["ie_srl.rules", "ie_srl_table.csv", "ie_ar.rules", "ie_ar_table.csv", "postop.rules"],
        ["ie_ar_table.csv"],
    ])
    def test_fixtures_missing_a_reference_file(self, capsys, tmp_path, fixtures_dir, absent):
        """Refused before any check runs, with one error line naming
        every file that is missing."""
        for f in fixtures_dir.iterdir():
            if f.name not in absent:
                (tmp_path / f.name).write_text(f.read_text())
        code, out, err = run(capsys, "validate", "--fixtures", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: fixtures directory {tmp_path} lacks {', '.join(absent)}\n"

    @pytest.mark.parametrize("name", ["missing", "file.rules"])
    def test_fixtures_path_that_is_no_directory(self, capsys, tmp_path, name):
        (tmp_path / "file.rules").write_text("classes 0 1\n")
        target = str(tmp_path / name)
        code, out, err = run(capsys, "validate", "--fixtures", target)
        assert (code, out) == (2, "")
        assert err == f"error: fixtures directory not found: {target}\n"


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, tmp_path):
        """Repeated in-process runs share one parser; neither the --kind
        values nor the flag defaults of one run reach the next."""
        assert build_parser() is build_parser()
        data = tmp_path / "data.csv"
        data.write_text("a,b,c,label\n1,0,5.0,0\n2,0,6.0,0\n3,1,7.0,1\n"
                        "4,1,8.0,1\n1,1,5.5,0\n4,0,7.5,1\n")
        nominal = run(capsys, "train", str(data), "--kind", "a=nominal", "--beam", "1")
        inferred = run(capsys, "train", str(data))
        assert "feature 0 a kind=nominal" in nominal[1]
        assert "feature 0 a kind=quantitative" in inferred[1]
        assert run(capsys, "train", str(data), "--kind", "a=nominal", "--beam", "1") == nominal
        args = build_parser().parse_args(["train", str(data)])
        assert (args.kind, args.beam_width, args.max_layers, args.patience,
                args.extended_catalog) == ([], None, None, None, None)
