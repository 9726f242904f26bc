"""End-to-end runs of the command line driver, in process."""

import json

import numpy as np
import pytest

from mofn.cli import main
from mofn.rules import parse_formula_table, to_formula_table
from mofn.tables import parse_rendered_csv

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

    def test_missing_data_file_is_a_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "error:" in err

    def test_bad_label_column(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n1,2,0\n3,4,1\n")
        code, _, err = run(capsys, "train", str(data))
        assert code == 3


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
            "row 0, feature 'circulating_immune_complex': 'abc' is not numeric")

    def test_wrong_cell_count(self, capsys, tmp_path, fixtures_dir):
        text = f"{ANCHOR_HEADER}\n{GOOD_ROW}\n5.0,100.0,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "row 1 has 7 cells, expected 8")

    def test_boolean_cell_not_a_bit(self, capsys, tmp_path, fixtures_dir):
        text = f"{ANCHOR_HEADER}\n5.0,100.0,2,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'articular_syndrome': 2.0 is not 0/1")

    def test_nan_and_overflowing_cells(self, capsys, tmp_path, fixtures_dir):
        for cell, shown in (("nan", "nan"), ("1e999", "inf"), ("-inf", "-inf")):
            text = f"{ANCHOR_HEADER}\n{cell},100.0,0,0,0,0,0,0\n"
            self.assert_data_error(
                self.classify(capsys, tmp_path, fixtures_dir, text),
                f"feature 'leucocytes': non-finite value {shown}")
        text = f"{ANCHOR_HEADER}\n5.0,100.0,nan,0,0,0,0,0\n"
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "feature 'articular_syndrome': nan is not 0/1")

    def test_lowest_bad_row_is_reported(self, capsys, tmp_path, fixtures_dir):
        # row 2 is short, row 1 has two bad cells: row 1 wins, and within
        # it the feature declared first
        text = (f"{ANCHOR_HEADER}\n{GOOD_ROW}\n5.0,100.0,0,x,0,0,0,y\n"
                "5.0,100.0,0\n")
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, text),
            "row 1, feature 'anhelation': 'x' is not numeric")

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
            "row 1, feature 'b': 'v' is not numeric")
        self.assert_data_error(
            self.classify(capsys, tmp_path, fixtures_dir, "a,b\nnan,inf\n",
                          model=model),
            "feature 'b': non-finite value inf")

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

    def test_nominal_and_boolean_columns(self, capsys, tmp_path, fixtures_dir):
        model = tmp_path / "model.rules"
        model.write_text(NOMINAL_MODEL)
        text = "flag,color\n0,red\n1,red\n0.0,blue\n1e0,\n"
        code, out, _ = self.classify(capsys, tmp_path, fixtures_dir, text,
                                     model=model)
        assert code == 0
        assert out == ("row,decision,value,votes\n0,yes,-1,1/1\n"
                       "1,no,+1,1/1\n2,no,+1,1/1\n3,no,+1,1/1\n")


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

    def test_unknown_feature_name(self, capsys, fixtures_dir):
        model = str(fixtures_dir / "ie_srl.rules")
        code, _, err = run(capsys, "tabulate", model,
                           "--rows", "leucocytes,haircolor", "--cols", "13")
        assert code == 4


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

    def test_damaged_fixture_fails(self, capsys, tmp_path, fixtures_dir):
        for f in fixtures_dir.iterdir():
            (tmp_path / f.name).write_text(f.read_text())
        target = tmp_path / "ie_srl.rules"
        # flip one unit's function: and -> nand
        target.write_text(target.read_text().replace("2 0 39 8", "2 13 39 8"))
        code, out, _ = run(capsys, "validate", "--fixtures", str(tmp_path))
        assert code == 5
        assert any(ln.startswith("FAIL") for ln in out.splitlines())


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
