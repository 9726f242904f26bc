"""Diagnostic table construction, rendering, and contradiction scan."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mofn.errors import TableError
from mofn.rules import evaluate, parse_formula_table
from mofn.tables import (
    MAX_TABLE_FEATURES,
    DiagnosticTable,
    detect_contradictions,
    make_table,
    parse_rendered_csv,
    render,
    render_csv,
    render_text,
)

XOR = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
5 5 0 1
"""

CONTRADICTORY = """\
classes 0 1
feature 0 a kind=boolean h=1
feature 1 b kind=boolean h=1
layer 1
1 0 0 1
2 13 0 1
"""


def wide_model(n_features):
    """One layer of pairwise units referencing n_features booleans."""
    lines = ["classes 0 1"]
    for f in range(n_features):
        lines.append(f"feature {f} f{f} kind=boolean h=1")
    lines.append("layer 1")
    for i in range(0, n_features - 1, 2):
        lines.append(f"{i + 1} 6 {i} {i + 1}")
    if n_features % 2:
        lines.append(f"{n_features} 6 {n_features - 1} 0")
    return parse_formula_table("\n".join(lines) + "\n")


class TestMakeTable:
    def test_single_syndrome_grid(self):
        t = make_table(parse_formula_table(XOR), [0], [1])
        assert t.shape == (2, 2)
        assert t.cells.tolist() == [[1, -1], [-1, 1]]
        assert t.feature_labels == {0: "a", 1: "b"}

    def test_first_feature_is_most_significant(self):
        """Axis order decides bit significance, not feature id order."""
        t = make_table(parse_formula_table(XOR), [1], [0])
        assert t.row_features == [1]
        # row index 1 means b=1; with a=0 the XOR fires
        assert t.cells.tolist() == [[1, -1], [-1, 1]]
        assert t.row_bits(2 - 1) == (1,)

    def test_bit_helpers(self):
        sc = wide_model(6)
        t = make_table(sc, [0, 1, 2], [3, 4, 5])
        assert t.shape == (8, 8)
        assert t.row_bits(0) == (0, 0, 0)
        assert t.row_bits(5) == (1, 0, 1)
        assert t.col_bits(6) == (1, 1, 0)

    def test_cells_match_pointwise_evaluation(self):
        sc = wide_model(6)
        rows, cols = [0, 1, 2], [3, 4, 5]
        t = make_table(sc, rows, cols)
        rng = np.random.default_rng(5)
        for _ in range(40):
            bits = {f: int(v) for f, v in zip(rows + cols, rng.integers(0, 2, 6))}
            ri = int("".join(str(bits[f]) for f in rows), 2)
            ci = int("".join(str(bits[f]) for f in cols), 2)
            assert int(t.cells[ri, ci]) == evaluate(sc, bits).value


class TestSplitValidation:
    def setup_method(self):
        self.sc = wide_model(6)

    def test_empty_axis(self):
        with pytest.raises(TableError, match="at least one"):
            make_table(self.sc, [], [0, 1, 2, 3, 4, 5])

    def test_duplicate_on_axis(self):
        with pytest.raises(TableError, match="twice"):
            make_table(self.sc, [0, 0, 1], [2, 3, 4, 5])

    def test_overlap(self):
        with pytest.raises(TableError, match="both axes"):
            make_table(self.sc, [0, 1, 2], [2, 3, 4, 5])

    def test_missing_feature(self):
        with pytest.raises(TableError, match="missing \\[5\\]"):
            make_table(self.sc, [0, 1], [2, 3, 4])

    def test_unreferenced_feature(self):
        with pytest.raises(TableError, match="not referenced \\[9\\]"):
            make_table(self.sc, [0, 1, 9], [2, 3, 4, 5])

    def test_width_cap(self):
        sc = wide_model(MAX_TABLE_FEATURES + 1)
        feats = sorted(sc.referenced_features())
        with pytest.raises(TableError, match="16-bit"):
            make_table(sc, feats[:9], feats[9:])

    def test_cap_boundary_is_allowed(self):
        sc = wide_model(MAX_TABLE_FEATURES)
        feats = sorted(sc.referenced_features())
        t = make_table(sc, feats[:8], feats[8:])
        assert t.shape == (256, 256)


class TestContradictions:
    def test_complementary_pair_ties_everywhere(self):
        sc = parse_formula_table(CONTRADICTORY)
        t = make_table(sc, [0], [1])
        assert (t.cells == 0).all()
        coords = detect_contradictions(t)
        assert len(coords) == 4
        assert ((0,), (0,)) in coords
        assert ((1,), (1,)) in coords

    def test_clean_table_has_none(self):
        t = make_table(parse_formula_table(XOR), [0], [1])
        assert detect_contradictions(t) == []


class TestBundledTables:
    """The shipped reference grids are reproduced cell for cell."""

    def test_first_model_grid(self, ie_srl_text, fixtures_dir):
        sc = parse_formula_table(ie_srl_text)
        t = make_table(sc, [2, 5, 8, 11], [13, 14, 15, 16])
        assert t.shape == (16, 16)
        want = parse_rendered_csv((fixtures_dir / "ie_srl_table.csv").read_text())
        assert np.array_equal(t.cells, want)
        # corner: every syndrome bit absent
        assert int(t.cells[0, 0]) == 7
        assert int(np.abs(t.cells).min()) >= 5
        assert int(np.abs(t.cells).max()) <= 9

    def test_second_model_grid(self, ie_ar_text, fixtures_dir):
        sc = parse_formula_table(ie_ar_text)
        t = make_table(sc, [9, 10, 12], [19, 20, 22])
        assert t.shape == (8, 8)
        want = parse_rendered_csv((fixtures_dir / "ie_ar_table.csv").read_text())
        assert np.array_equal(t.cells, want)
        assert int(t.cells[0, 0]) == 18
        assert detect_contradictions(t) == []


class TestRendering:
    def test_text_golden(self):
        t = make_table(parse_formula_table(XOR), [0], [1])
        assert render_text(t) == "b   0  1\na\n0  +1 -1\n1  -1 +1\n"

    def test_text_stacks_column_labels(self):
        sc = wide_model(6)
        t = make_table(sc, [0, 1, 2], [3, 4, 5])
        lines = render_text(t).splitlines()
        # three stacked column-bit rows, fastest varying on top
        assert lines[0].lstrip().startswith("f5")
        assert lines[2].lstrip().startswith("f3")
        assert lines[3].split() == ["f0", "f1", "f2"]
        assert len(lines) == 3 + 1 + 8

    def test_tie_cell_renders_plus_minus(self):
        t = make_table(parse_formula_table(CONTRADICTORY), [0], [1])
        assert "±0" in render_text(t)
        assert "±0" in render_csv(t)

    def test_csv_round_trip(self):
        sc = wide_model(6)
        t = make_table(sc, [0, 1, 2], [3, 4, 5])
        again = parse_rendered_csv(render_csv(t))
        assert np.array_equal(again, t.cells)

    def test_csv_header_tags_column_bits(self):
        t = make_table(parse_formula_table(XOR), [0], [1])
        header = render_csv(t).splitlines()[0]
        assert header == "a,0,1"

    def test_render_dispatch(self):
        t = make_table(parse_formula_table(XOR), [0], [1])
        assert render(t, "text") == render_text(t)
        assert render(t, "csv") == render_csv(t)
        with pytest.raises(TableError, match="html"):
            render(t, "html")

    def test_parse_rendered_csv_rejects_garbage(self):
        with pytest.raises(TableError):
            parse_rendered_csv("just,one,line\n")
        with pytest.raises(TableError):
            parse_rendered_csv("a,0,1\n0,+1,nope\n")

    @pytest.mark.parametrize("text, message", [
        ("a,0,1\n0,+1,-1\n1,+2\n", "ragged CSV table: row 1 has 2 cells, expected 3"),
        ("a,0,1\n0,+1,-1,+3\n", "ragged CSV table: row 0 has 4 cells, expected 3"),
        ("", "empty CSV"),
        ("a,0,1\n", "CSV table needs a header and at least one row"),
        (f'a,0,1\n0,"{"1" * (csv.field_size_limit() + 1)}",1\n',
         f"CSV line 2: field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["short row", "long row", "empty", "header only", "field over the limit"])
    def test_parse_rendered_csv_names_a_malformed_grid(self, text, message):
        with pytest.raises(TableError) as err:
            parse_rendered_csv(text)
        assert str(err.value) == message


def _reference_cell_text(value: int) -> str:
    return "±0" if value == 0 else f"{value:+d}"


def reference_render_text(table):
    """The per-cell text renderer that `render_text` replaced."""
    a, b = len(table.row_features), len(table.col_features)
    n_rows, n_cols = table.shape
    col_labels = [table.feature_labels[f] for f in table.col_features]
    row_labels = [table.feature_labels[f] for f in table.row_features]
    cells = [[_reference_cell_text(int(v)) for v in row] for row in table.cells]

    row_bit_w = [len(lbl) for lbl in row_labels]
    prefix_w = max(sum(row_bit_w) + a - 1, max(len(s) for s in col_labels))
    cell_w = max(2, *(len(c) for row in cells for c in row))

    lines = []
    for p in range(b - 1, -1, -1):
        bits = " ".join(
            str((ci >> (b - 1 - p)) & 1).rjust(cell_w) for ci in range(n_cols)
        )
        lines.append(f"{col_labels[p].rjust(prefix_w)}  {bits}")
    lines.append(" ".join(row_labels).rjust(prefix_w))
    for ri in range(n_rows):
        bits = table.row_bits(ri)
        left = " ".join(str(bit).rjust(w) for bit, w in zip(bits, row_bit_w))
        body = " ".join(c.rjust(cell_w) for c in cells[ri])
        lines.append(f"{left.rjust(prefix_w)}  {body}")
    return "\n".join(lines) + "\n"


def reference_render_csv(table):
    """The per-cell CSV renderer that `render_csv` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [table.feature_labels[f] for f in table.row_features]
    header += ["".join(map(str, table.col_bits(ci))) for ci in range(table.shape[1])]
    writer.writerow(header)
    for ri in range(table.shape[0]):
        row = [str(bit) for bit in table.row_bits(ri)]
        row += [_reference_cell_text(int(v)) for v in table.cells[ri]]
        writer.writerow(row)
    return out.getvalue()


LABELS = st.one_of(
    st.sampled_from("abxyz"),
    st.text(alphabet=' ab,"xyz_', min_size=1, max_size=14),
)


@st.composite
def random_tables(draw):
    """Grids of 1-8 bits per axis holding any values within ±N, N from 1
    to 25, with a random share of tie cells."""
    a = draw(st.integers(1, 8))
    b = draw(st.integers(1, 8))
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(-n, n + 1, size=(1 << a, 1 << b))
    cells[rng.random(cells.shape) < draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))] = 0
    labels = draw(st.lists(LABELS, min_size=a + b, max_size=a + b))
    return DiagnosticTable(
        row_features=list(range(a)),
        col_features=list(range(a, a + b)),
        cells=cells,
        feature_labels=dict(enumerate(labels)),
    )


@settings(max_examples=150, deadline=None)
@given(random_tables())
def test_renderers_match_per_cell_reference(table):
    assert render_text(table) == reference_render_text(table)
    assert render_csv(table) == reference_render_csv(table)
