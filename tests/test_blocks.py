"""Reading CSV text in blocks of rows.

`load_csv` and `mofn classify` read a file a block of rows at a time.
Whatever the block size, they give the same dataset, the same output
bytes and the same error as a read of the whole file in one block, and
what they hold at once grows by a bounded number of bytes per input byte.
"""

import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import DIFF_MODEL, case_csvs, row_by_row_reference
from test_encoding import csv_reader_table, csv_texts, field_size_limit, read_either

from mofn import cli, data, encoding
from mofn.cli import main
from mofn.data import load_csv, to_csv
from mofn.errors import MofnError
from mofn.rules import parse_formula_table

# Four columns, so a block of SMALL cells holds two rows.
SMALL = 8
MODEL = """\
classes no yes
feature 0 a kind=quantitative u=2.5 h=1
feature 1 b kind=boolean h=1
feature 2 c kind=nominal category=x h=1
layer 1
1 6 0 1
2 8 1 2
3 0 0 2
"""


def rows(n=12):
    return [[f"{i * 0.5}", str(i % 2), "x" if i % 3 == 0 else "y",
             "1" if i % 4 in (1, 2) else "0"] for i in range(n)]


def text_of(table, header="a,b,c,label"):
    return header + "\n" + "".join(",".join(row) + "\n" for row in table)


def edited(**cells):
    """The 12 rows with cells replaced: a keyword `a5="x"` sets row 5 of
    column a; `extra4` adds a cell to row 4, `short1` drops one from row 1."""
    table = rows()
    for key, value in cells.items():
        column, row = key.rstrip("0123456789"), int(key.lstrip("abcdefghijklmnopqrstuvwxyz"))
        if column == "extra":
            table[row].append(value)
        elif column == "short":
            table[row].pop()
        else:
            table[row]["abc".index(column)] = value
    return text_of(table)


CASES = {
    "clean": text_of(rows()),
    # a column that turns nominal only in the last block
    "late text": edited(a11="high"),
    "late text, early empty": edited(a11="high", b0=""),
    # an empty cell in a later block
    "late empty": edited(b9=""),
    "late empty in the label": edited(c7=" "),
    # a ragged row in block 3 against a bad cell in block 1, and the reverse
    "ragged late, bad early": edited(extra4="9", a0="nan"),
    "ragged early, bad late": edited(short1="", a5="nan"),
    "ragged late, bad bit early": edited(extra5="9", b1="2"),
    # a bad cell in the last block
    "bad last": edited(a11="inf"),
    "bad label late": edited(c9="x").replace("4.5,1,x,1", "4.5,1,x,maybe"),
    # quoted text goes through csv.reader
    "quoted": text_of([[f'"{a}"', b, f'"{c}, more"' if c == "x" else c, y]
                       for a, b, c, y in rows()]),
    "quoted newline": text_of([[a, b, '"x\ny"' if i == 9 else c, y]
                               for i, (a, b, c, y) in enumerate(rows())]),
    "blank lines": text_of(rows()).replace("\n", "\n\n", 7),
}


def blocks_of(text):
    return list(encoding.read_blocks(text)[1])


@pytest.fixture
def small_blocks(monkeypatch):
    """Run a function at the default block size, then at SMALL."""
    def both(fn):
        whole = fn()
        monkeypatch.setattr(encoding, "_BLOCK_CELLS", SMALL)
        try:
            return whole, fn()
        finally:
            monkeypatch.undo()
    return both


def loaded(source, **options):
    """load_csv's dataset, or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(source, **options)
            got = (to_csv(ds), [f.kind for f in ds.features], ds.labels.tolist(),
                   [c.dtype.str for c in ds.columns])
        except MofnError as exc:
            got = (type(exc).__name__, str(exc))
    return got, [str(w.message) for w in caught]


def test_the_cases_span_several_small_blocks(monkeypatch):
    monkeypatch.setattr(encoding, "_BLOCK_CELLS", SMALL)
    assert len(blocks_of(CASES["clean"])) == 6
    assert len(blocks_of(CASES["quoted newline"])) == 6
    assert len(blocks_of(CASES["ragged late, bad early"])) == 3


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("options", [{}, {"drop_incomplete": True}, {"kinds": {"b": "boolean"}},
                                     {"kinds": {"a": "nominal"}}], ids=repr)
def test_load_csv_reads_the_same_dataset_or_error(small_blocks, name, options):
    whole, small = small_blocks(lambda: loaded(CASES[name], **options))
    assert small == whole


def test_a_late_text_column_is_inferred_over_every_row(small_blocks):
    whole, small = small_blocks(lambda: loaded(CASES["late text"]))
    assert small == whole
    assert whole[0][1] == ["nominal", "boolean", "nominal"]
    assert whole[0][0].splitlines()[1] == "0.0,0,x,0"    # the early cells as they were written


def test_a_late_empty_cell(small_blocks):
    whole, small = small_blocks(lambda: loaded(CASES["late empty"]))
    assert small == whole == (("DataError", "row 9 has an empty cell"), [])
    whole, small = small_blocks(lambda: loaded(CASES["late empty"], drop_incomplete=True))
    assert small == whole
    assert whole[1] == ["dropped 1 incomplete row(s): [9]"]


@pytest.mark.parametrize("name, message", [
    ("ragged late, bad early", "row 4 has 5 cells, expected 4"),
    ("ragged early, bad late", "row 1 has 3 cells, expected 4"),
])
def test_a_ragged_row_wins_over_a_bad_cell_when_loading(small_blocks, name, message):
    whole, small = small_blocks(lambda: loaded(CASES[name]))
    assert small == whole == (("DataError", message), [])


def test_a_byte_order_mark(small_blocks, tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + CASES["late text"].encode())
    whole, small = small_blocks(lambda: loaded(marked))
    assert small == whole == loaded(CASES["late text"])


# Cells that float(), or its retry on the stripped cell, reads: numpy
# reads some to the same double and refuses the others ("0_1", "١").
# The rest are no number: text early or late in a number column, or an
# empty or whitespace-only cell in a text one.
ODD_CELLS = [" 1.5", "1.", "+1e3", "1\x1c", "\xa01", "inf", "nan", "1e400", "0_1", "\u0661", "",
             "  ", "x"]
# read_column strips these, and numpy reads a number padded with them
PADS = ["", " ", "\t", "\x1c", "\xa0", "\x0c", "\u2028"]


@st.composite
def numeric_texts(draw):
    """(CSV text of number and text columns, with the label at any
    column, load_csv's options), and up to two odd cells or labels and
    two changed lines: a row with an extra or a missing cell, a blank or
    whitespace-only line.  A text column's cells are categories, and any
    cell may be padded.  The options may declare a kind for up to two
    features, so a number column may be nominal and a text column
    quantitative.  It may hold no data row at all."""
    width = draw(st.integers(1, 5))
    label_at = draw(st.integers(0, width - 1))
    names = draw(st.sampled_from([("0", "1"), ("no", "yes")]))
    number = st.sampled_from(["0", "1", "2.5", "-3", "0.125", "1e-3"])
    category = st.sampled_from(["x", "y", "no"])
    is_text = [j != label_at and draw(st.booleans()) for j in range(width)]

    def cell(j):
        if j == label_at:
            return draw(st.sampled_from(names))
        pad = st.sampled_from(PADS)
        return draw(pad) + draw(category if is_text[j] else number) + draw(pad)

    rows = [list(map(cell, range(width))) for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, j = draw(st.sampled_from(rows)), draw(st.integers(0, width - 1))
        row[j] = draw(st.sampled_from([f" {names[1]}", "", "maybe"] if j == label_at
                                      else ODD_CELLS))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(",")
        change = draw(st.sampled_from(["extra", "short", "blank", "space"]))
        if change == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(number))
        elif change == "short":
            cells.pop(draw(st.integers(0, len(cells) - 1)))
        lines[at] = {"blank": "", "space": "  "}.get(change, ",".join(cells))
    features = [f"f{j}" for j in range(width) if j != label_at]
    header = ",".join(f"f{j}" if j != label_at else "label" for j in range(width))
    options = {"drop_incomplete": draw(st.booleans())}
    if names != ("0", "1"):
        options["class_names"] = names
    if features:
        declared = draw(st.sets(st.sampled_from(features), max_size=2))
        options["kinds"] = {name: draw(st.sampled_from(encoding.KINDS)) for name in declared}
    return "\n".join([header, *lines]) + draw(st.sampled_from(["", "\n"])), options


@settings(deadline=None, max_examples=400)
@given(case=numeric_texts())
def test_the_numpy_reader_gives_what_the_block_reader_gives(case):
    """With numpy's reader used, and with it declined, load_csv gives the
    same columns, dtypes, kinds, labels and warnings, or the same error."""
    text, options = case
    with mock.patch.object(data, "read_plain", lambda *args: None):
        want = loaded(text, **options)
    assert loaded(text, **options) == want


@pytest.mark.parametrize("text, read", [
    ("a,label\n1,0\n2.5,1\n", True),
    ("label,a,b\n\n 0 ,1,inf\n1,\xa01\x1c,1e400\n", True),
    ("a,label\n1\x1c,0\n2,1\n", True),          # float() reads the first row stripped
    ("a,label\n", False),                     # no data row
    ("a,label\n\n  \n", False),               # a whitespace-only line
    ("a,label\nx,0\n2,1\n", True),             # a text column
    ("a,label\n1,0\n2,1,1\n", False),         # an extra cell
    ("a,b,label\n1,2,0\n2,1\n", False),       # a missing cell
    ("a,label\n1,0\n0_1,1\n", False),         # float() reads it, numpy does not
    ("a,label\n1,0\n2, \n", False),           # an empty label
    ('a,label\n1,"0"\n2,1\n', False),         # quoted text
    ("nominal,a,label\n1,2,0\n2,1,1\n", True),  # a number column declared nominal
    ("a,b,label\n \tx\x1c,1,0\n\xa0y\u2028,2,1\n", True),    # padded categories
    ("a,b,label\nx,1,0\n ,2,1\n", False),       # an empty text cell
    ("a,b,label\n1,1,0\nx,2,1\n", False),       # a late text cell
])
def test_read_numbers_reads_only_plain_numeric_tables(text, read):
    """read_plain reads the text, or declines it; what it reads are the
    cells read_blocks splits, stripped: a text column's as they are, and
    a number column's each to float() of it.  A column named "nominal"
    is declared so."""
    header = encoding.read_blocks(text)[0]
    features = [name for name in header if name != "label"]
    nominal = {j for j, name in enumerate(features) if name == "nominal"}
    got = encoding.read_plain(text, len(header), header.index("label"), nominal)
    assert (got is not None) == read
    if read:
        columns = dict(zip(header, ([cell.strip() for cell in cells]
                                    for cells in encoding.read_table(text)[1])))
        label = columns.pop("label")
        cells = list(columns.values())
        text_at = {j for j, column in enumerate(cells)
                   if j in nominal or encoding.read_column(column, False)[0] is None}
        numbers = [j for j in range(len(cells)) if j not in text_at]
        want = [[float(cell) for cell in cells[j]] for j in numbers]
        columns, got_label = got
        assert got_label == label
        assert {j: c for j, c in enumerate(columns) if isinstance(c, list)} == {
            j: cells[j] for j in text_at}
        assert np.array([columns[j] for j in numbers]).tobytes() == np.array(want).tobytes()


def classified(capsys, tmp_path, text, to_file=True, previous=None):
    """Exit code, stdout, stderr and the -o file's bytes (None if there is
    none) of `mofn classify MODEL text`, and the files left beside it."""
    (tmp_path / "m.rules").write_text(MODEL)
    (tmp_path / "d.csv").write_text(text)
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    if previous is not None:
        out.write_text(previous)
    argv = ["classify", str(tmp_path / "m.rules"), str(tmp_path / "d.csv")]
    code = main(argv + ["-o", str(out)] * to_file)
    captured = capsys.readouterr()
    return (code, captured.out, captured.err, out.read_bytes() if out.exists() else None,
            sorted(os.listdir(tmp_path)))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("to_file", [True, False], ids=["-o", "stdout"])
def test_classify_writes_the_same_bytes_or_error(capsys, tmp_path, small_blocks, name, to_file):
    whole, small = small_blocks(lambda: classified(capsys, tmp_path, CASES[name], to_file))
    assert small == whole


@pytest.mark.parametrize("name, message", [
    ("ragged late, bad early", "feature 'a', row 0: non-finite value 'nan'"),
    ("ragged early, bad late", "row 1 has 3 cells, expected 4"),
    ("ragged late, bad bit early", "feature 'b', row 1: '2' is not 0/1"),
    ("bad last", "feature 'a', row 11: non-finite value 'inf'"),
    ("late empty", "feature 'b', row 9: empty cell"),
])
def test_classify_names_the_first_fault(capsys, tmp_path, small_blocks, name, message):
    whole, small = small_blocks(lambda: classified(capsys, tmp_path, CASES[name]))
    assert small == whole == (3, "", f"error: {message}\n", None, ["d.csv", "m.rules"])


@pytest.mark.parametrize("name", ["bad last", "late empty", "ragged late, bad bit early"])
def test_classify_names_a_bad_cell_from_the_block_that_holds_it(capsys, tmp_path, monkeypatch,
                                                                small_blocks, name):
    """The text is read once, however many blocks lie before the bad cell."""
    reads = []

    def read_blocks(text, read=encoding.read_blocks):
        reads.append(text)
        return read(text)

    monkeypatch.setattr(encoding, "read_blocks", read_blocks)
    monkeypatch.setattr(cli, "read_blocks", read_blocks)

    def failing_classify():
        reads.clear()
        return classified(capsys, tmp_path, CASES[name]), len(reads)

    whole, small = small_blocks(failing_classify)
    assert small == whole
    assert whole[0][0] == 3 and whole[1] == 1


def test_a_failed_classify_leaves_an_existing_output_as_it_was(capsys, tmp_path, small_blocks):
    whole, small = small_blocks(lambda: classified(capsys, tmp_path, CASES["bad last"],
                                                   previous="before\n"))
    assert small == whole
    assert whole[0] == 3 and whole[3] == b"before\n"
    assert whole[4] == ["d.csv", "m.rules", "out.csv"]


def test_classify_replaces_an_existing_output(capsys, tmp_path, small_blocks):
    whole, small = small_blocks(lambda: classified(capsys, tmp_path, CASES["clean"],
                                                   previous="before\n"))
    assert small == whole
    assert whole[0] == 0 and whole[3].startswith(b"row,decision,value,votes\n0,")


@pytest.mark.parametrize("block_cells", [1, 3, 5])
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), limit=st.sampled_from([131072, 4]))
def test_read_table_joins_blocks_of_any_size(monkeypatch, block_cells, text, limit):
    monkeypatch.setattr(encoding, "_BLOCK_CELLS", block_cells)
    with field_size_limit(limit):
        assert read_either(encoding.read_table, text) == read_either(csv_reader_table, text)


@pytest.mark.parametrize("block_cells", [1, 7])
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=case_csvs())
def test_classify_in_small_blocks_matches_the_row_walk(capsys, tmp_path, monkeypatch,
                                                       block_cells, text):
    monkeypatch.setattr(encoding, "_BLOCK_CELLS", block_cells)
    (tmp_path / "model.rules").write_text(DIFF_MODEL)
    (tmp_path / "cases.csv").write_text(text)
    code = main(["classify", str(tmp_path / "model.rules"), str(tmp_path / "cases.csv")])
    out, err = capsys.readouterr()
    want = row_by_row_reference(parse_formula_table(DIFF_MODEL), text)
    if want[0] == "ok":
        assert (code, out, err) == (0, want[1], "")
    elif want[0] == "ragged":
        assert (code, out, err) == (3, "", f"error: {want[1]}\n")
    else:
        named = re.fullmatch(r"error: feature '(\w+)', row (\d+): .*\n", err)
        assert (code, out) == (3, "") and named and (int(named[2]), named[1]) == want[1:]


def tall_csv(path, n_rows, nominal=True):
    """A CSV like the benchmark's tall inputs: ten continuous columns to
    four decimals, two nominal ones unless `nominal` is false, two
    boolean ones, and a label."""
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 100, size=(n_rows, 10))
    cats = rng.integers(0, 6, size=(n_rows, 2))    # drawn either way: the other cells stay
    bits = rng.integers(0, 2, size=(n_rows, 3))
    header = [f"q{j}" for j in range(10)] + ["n0", "n1"] * nominal + ["b0", "b1", "label"]
    lines = [",".join(header)]
    for row, cat, bit in zip(values.tolist(), cats.tolist(), bits.tolist()):
        lines.append(",".join([*(f"{v:.4f}" for v in row), *(f"c{c}" for c in cat if nominal),
                               *map(str, bit)]))
    path.write_text("\n".join(lines) + "\n")
    return path.stat().st_size


def traced_peak(fn) -> int:
    """The most bytes of Python allocations that fn held at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """On a 3 MB CSV, the peak of what load_csv allocates stays below 8
    bytes per input byte, and of what `mofn classify -o` allocates below
    4: the whole file is never held as one list of cells.  When numpy
    reads the file, all numbers, the peak stays below 5 (3.7 measured):
    the text handed to numpy whole, as an io.StringIO of 4 bytes a
    character, peaks above 6.  With \\r\\n line ends kept, csv.reader
    reads the mixed file, held to 8 too (5.3 measured): csv.reader fed
    an io.StringIO of the text peaks at 9."""

    ROWS = 34_000

    def load_peak(self, tmp_path, nominal):
        """The input's size and load_csv's peak on it, with the imports
        and caches of a first load out of the count."""
        size = tall_csv(tmp_path / "tall.csv", self.ROWS, nominal)
        load_csv(tmp_path / "tall.csv")
        return size, traced_peak(lambda: load_csv(tmp_path / "tall.csv"))

    def test_load_csv(self, tmp_path):
        size, peak = self.load_peak(tmp_path, nominal=True)
        assert size > 3_000_000
        assert peak < 8 * size, peak / size

    def test_load_csv_all_numeric(self, tmp_path):
        size, peak = self.load_peak(tmp_path, nominal=False)
        assert size > 2_800_000    # 2 cells fewer a row
        assert peak < 5 * size, peak / size

    def test_load_csv_through_csv_reader(self, tmp_path):
        """The same mixed file with \\r\\n line ends, opened with newline=""
        so that they reach load_csv: csv.reader splits the text and the
        block reader parses it, as numpy is not given text with \\r."""
        path = tmp_path / "tall.csv"
        tall_csv(path, self.ROWS)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        size = path.stat().st_size

        def load():
            with open(path, encoding="utf-8", newline="") as f:
                return load_csv(f)

        with mock.patch.object(data, "_read_rows", wraps=data._read_rows) as read_rows:
            load()
        assert read_rows.call_count == 1
        peak = traced_peak(load)
        assert size > 3_000_000
        assert peak < 8 * size, peak / size

    def test_classify(self, tmp_path):
        size = tall_csv(tmp_path / "cases.csv", self.ROWS)
        model = tmp_path / "m.rules"
        model.write_text("feature 0 q3 kind=quantitative u=50 h=1\n"
                         "feature 1 n1 kind=nominal category=c2 h=1\n"
                         "feature 2 b0 kind=boolean h=1\nlayer 1\n1 6 0 1\n2 8 1 2\n3 0 2 0\n")
        argv = ["classify", str(model), str(tmp_path / "cases.csv"), "-o", str(tmp_path / "o")]
        assert main(argv) == 0
        peak = traced_peak(lambda: main(argv))
        assert peak < 4 * size, peak / size
        assert (tmp_path / "o").read_text().count("\n") == self.ROWS + 1
