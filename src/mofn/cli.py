"""Command line interface.

Subcommands cover the whole pipeline: train a network from CSV,
classify new cases, tabulate a rule as a diagnostic table, export and
re-import model files, validate the bundled reference models, and
generate synthetic benchmark data.

Exit codes come from one table, `EXIT_CODES`, of (error class, code)
pairs: 0 success, 2 usage or configuration error, 3 data error, 4 model
error, 5 validation failure.  `main` catches every `MofnError` in one
place and exits with the code of the first class that matches.  Every
file, data, model, config or reference, is read as UTF-8 by one reader,
`encoding.read_file`, which names the file's role in its errors.  A
warning is printed on stderr as one `warning:` line.

Every command puts its output in place once, at the end, after its
last possible error, through one `_write` call: stdout in one write, an
`-o` file through a temporary file beside it that then replaces it.  A
failed command leaves no partial output and an existing file as it was,
and a data error is reported before any write is tried.  `mofn
classify` reads, encodes and runs its cases one block of rows of
`encoding.read_blocks` at a time, and keeps each block's output as one
string: it holds the data file's text, about two blocks of cells and its
own output text (about 16 bytes per case), not every cell.

Applying a rule (classify, import, export) loads no numpy: the modules
that need it are imported by the commands that use them (train,
tabulate, validate, gen).  Nor does it load `dataclasses`, `inspect` or
`typing`, and `json` is imported only to read a config file or write
JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import stat
import sys
import warnings
from pathlib import Path

from . import __version__
from .config import TrainConfig
from .encoding import (
    KINDS,
    encode_cells,
    first_bad_cell,
    read_blocks,
    read_file,
)
from .encoding import encode_value  # noqa: F401  bench/workloads.py wraps it here
from .errors import (
    CatalogError,
    ColumnChoiceError,
    DataError,
    EncodingError,
    EvaluationError,
    ModelFormatError,
    MofnError,
    TableError,
    TrainingError,
    ValidationError,
)
from .logic import catalog
from .rules import (
    decision_levels,
    describe_decision,
    evaluate,
    parse_formula_table,
    symbolic,
    to_formula_table,
    vote_counts,
    vote_levels,
)

# The exit code of each error class.  The first class that an error is
# an instance of gives the code, so a class comes before its bases.
EXIT_CODES = (
    (ColumnChoiceError, 2), (DataError, 3), (EncodingError, 3), (TrainingError, 3),
    (ModelFormatError, 4), (CatalogError, 4), (EvaluationError, 4),
    (TableError, 2), (ValidationError, 5),
    (MofnError, 2),
)

CONFIG_ENV = "MOFN_CONFIG"
CONFIG_KEYS = TrainConfig._fields
REFERENCE_FILES = ("ie_srl.rules", "ie_srl_table.csv", "ie_ar.rules", "ie_ar_table.csv",
                   "postop.rules")


def _load_config(path: str | None) -> dict:
    """Defaults from a JSON file; --config beats $MOFN_CONFIG.  The file's
    values must make a TrainConfig on their own, which checks their
    types and ranges."""
    import json

    source = path or os.environ.get(CONFIG_ENV)
    if not source:
        return {}
    text = read_file(source, MofnError, "config")
    try:    # ValueError: not JSON, or an integer too long to convert
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:    # or nested too deep
        raise MofnError(f"config file {source}: {exc}") from None
    if not isinstance(raw, dict):
        raise MofnError(f"config file {source}: expected a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise MofnError(f"config file {source}: unknown keys {sorted(unknown)}")
    try:
        TrainConfig(**raw)
    except TrainingError as exc:
        raise MofnError(f"config file {source}: {exc}") from None
    return raw


def _train_config(args, overrides: dict) -> TrainConfig:
    """TrainConfig defaults, then the config file, then the flags given;
    each flag's dest is its field's name.  A value TrainConfig refuses
    is a usage error."""
    given = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    try:
        return TrainConfig(**{**overrides, **given})
    except TrainingError as exc:
        raise MofnError(str(exc)) from None


def _write(dest: str | None, *parts: str) -> None:
    """Put a command's whole output in place, once, after the command has
    succeeded: to stdout in one write, or to a file as UTF-8.

    A regular file is written to a temporary file beside it, which then
    replaces it: a command that fails leaves no output and an existing
    file as it was, and a replaced file keeps its permissions.  A
    symbolic link stays a link to the file it names, and a path that
    exists and is no regular file, such as /dev/null, is written in
    place.  Text that cannot be written is a usage error, and leaves no
    temporary file."""
    where = "stdout" if dest in (None, "-") else dest
    temporary = None
    try:
        if where == "stdout":
            sys.stdout.write("".join(parts))
            return
        target = os.path.realpath(dest) if os.path.islink(dest) else dest
        try:
            mode = os.stat(target).st_mode
        except OSError:    # no file yet, or one the open below fails to make
            mode = None
        if mode is None or stat.S_ISREG(mode):
            head, name = os.path.split(target)
            temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        with open(temporary or target, "w", encoding="utf-8") as file:
            file.writelines(parts)
        if temporary:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            os.replace(temporary, target)
            temporary = None
    except (OSError, UnicodeEncodeError) as exc:    # UnicodeEncodeError has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise MofnError(f"cannot write {where}: {reason}") from None
    finally:
        if temporary:    # not put in place
            try:
                os.remove(temporary)
            except OSError:
                pass


def _read_model(path: str):
    return parse_formula_table(read_file(path, ModelFormatError, "model"))


def _parse_kinds(pairs: list[str]) -> dict[str, str]:
    kinds = {}
    for pair in pairs:
        name, sep, kind = pair.partition("=")
        if not sep or not name or not kind:
            raise MofnError(f"--kind expects name=kind, got {pair!r}")
        if kind not in KINDS:
            raise MofnError(f"--kind {pair!r}: unknown kind {kind!r} (one of {', '.join(KINDS)})")
        kinds[name] = kind
    return kinds


def _parse_classes(spec: str | None):
    if spec is None:
        return None
    names = tuple(s.strip() for s in spec.split(","))
    if len(names) != 2 or not all(names):
        raise MofnError(f"--classes expects two comma separated names, got {spec!r}")
    if names[0] == names[1]:
        raise MofnError(f"--classes expects two distinct names, got {spec!r}")
    return names


def cmd_train(args) -> int:
    from .data import load_csv
    from .network import train

    overrides = _load_config(args.config)
    config = _train_config(args, overrides)
    ds = load_csv(
        Path(args.data),
        label_column=args.label,
        kinds=_parse_kinds(args.kind),
        class_names=_parse_classes(args.classes),
        drop_incomplete=args.drop_incomplete,
    )
    net = train(ds, config)
    _write(args.output, to_formula_table(net))
    report = net.report
    for line in report.lines(net.feature_names):
        print(line, file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    sc = _read_model(args.model)
    text = read_file(args.data, DataError, "data")
    header, blocks = read_blocks(text)
    program = sc.program
    missing = [
        sc.features[i].feature for i in program.features
        if sc.features[i].feature not in header
    ]
    if missing:
        raise DataError(f"CSV lacks columns for features: {missing}")

    at = {name: j for j, name in enumerate(header)}    # a repeated name maps to its last column
    tails = []        # the CSV line after "row," for each count of class-1 votes
    for d in vote_levels(sc.n):
        label = "contradictory" if d.contradictory else sc.class_names[d.klass]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(
            [label, f"{d.value:+d}" if d.value else "0", f"{d.m}/{d.n}"]
        )
        tails.append(out.getvalue())
    parts = ["row,decision,value,votes\n"]    # one string per block
    r = 0    # the rows of the blocks before this one
    for table, ragged in blocks:
        n = len(table[0])
        columns = []        # one bitset per referenced feature, bit i for row r + i
        bad = []            # the declaration index and encoder of each bad column
        for ident in program.features:
            enc = sc.features[ident]
            try:
                columns.append(encode_cells(enc, table[at[enc.feature]]))
            except EncodingError:    # find the bad cell
                bad.append((list(sc.features).index(ident), enc))
        if bad:    # the earlier blocks hold none, so the first is in this one
            found = []        # (row, declaration index, message)
            for i, enc in bad:
                row, message = first_bad_cell(table[at[enc.feature]], enc.feature, enc.kind, r)
                found.append((row, i, message))
            raise DataError(min(found)[2])
        if ragged:    # cells lie above the ragged row, so a bad one wins
            raise DataError(ragged)
        m1 = vote_counts(program.run(columns, n), n)
        rows = zip(range(r, r + n), map(tails.__getitem__, m1))
        parts.append("".join([f"{i},{t}" for i, t in rows]))
        r += n
    _write(args.output, *parts)
    return 0


def _parse_axis(spec: str | None, sc) -> list[int] | None:
    if spec is None:
        return None
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            try:
                out.append(sc.feature_id(tok))
            except EvaluationError:
                raise TableError(f"no declared feature named {tok!r}") from None
    if not out:
        raise TableError("empty axis")
    return out


def cmd_tabulate(args) -> int:
    from .tables import detect_contradictions, make_table, render

    sc = _read_model(args.model)
    rows = _parse_axis(args.rows, sc)
    cols = _parse_axis(args.cols, sc)
    if (rows is None) != (cols is None):
        raise TableError("give both --rows and --cols, or neither")
    if rows is None:
        referenced = sc.referenced_features()
        half = (len(referenced) + 1) // 2
        rows, cols = referenced[:half], referenced[half:]
    table = make_table(sc, rows, cols)
    _write(args.output, render(table, args.format))
    if args.check:
        ties = detect_contradictions(table)
        print(f"contradictory cells: {len(ties)}", file=sys.stderr)
        for rb, cb in ties[:50]:
            print(
                f"  rows={''.join(map(str, rb))} cols={''.join(map(str, cb))}",
                file=sys.stderr,
            )
    return 0


def cmd_export(args) -> int:
    sc = _read_model(args.model)
    if args.format == "text":
        text = to_formula_table(sc)
    elif args.format == "symbolic":
        text = "\n".join(symbolic(sc)) + "\n"
    else:
        import json

        n1, n = decision_levels(sc)
        payload = {
            "classes": list(sc.class_names),
            "catalog": "extended" if sc.extended else "standard",
            "n_syndromes": sc.n,
            "decision_levels": [n1, n],
            "features": {
                str(ident): {
                    "name": enc.feature,
                    "kind": enc.kind,
                    "threshold": enc.threshold,
                    "polarity": enc.polarity,
                    "category": enc.category,
                    "error": enc.error,
                    "degenerate": enc.degenerate,
                }
                for ident, enc in sorted(sc.features.items())
            },
            "layers": [
                [[row.ident, row.fn, row.left, row.right] for row in layer]
                for layer in sc.layers
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write(args.output, text)
    return 0


def cmd_gen(args) -> int:
    from .data import to_csv
    from .oracle import PlantedSpec, generate_planted

    try:
        spec = PlantedSpec(
            seed=args.seed,
            n_features=args.features,
            n_rows=args.rows,
            n_syndromes=args.syndromes,
            noise_flips=args.noise,
        )
        planted = generate_planted(spec)
    except (ValueError, RuntimeError) as exc:
        raise MofnError(str(exc)) from None
    _write(args.output, to_csv(planted.dataset))
    if args.dump_rule:
        terms = ", ".join(
            f"g_{fn}(f{a + 1}, f{b + 1})" for fn, a, b in planted.syndromes
        )
        print(
            f"hidden rule: {planted.m_level}-of-{len(planted.syndromes)}({terms})",
            file=sys.stderr,
        )
        if planted.flipped:
            print(f"flipped rows: {planted.flipped}", file=sys.stderr)
    return 0


def _fixture_dir(args) -> Path:
    """The reference files' directory, refused unless it holds them all."""
    from importlib import resources

    source = args.fixtures or str(resources.files("mofn") / "fixtures")
    fixtures = Path(source)
    if not fixtures.is_dir():
        raise MofnError(f"fixtures directory not found: {source}")
    missing = [name for name in REFERENCE_FILES if not (fixtures / name).is_file()]
    if missing:
        raise MofnError(f"fixtures directory {source} lacks {', '.join(missing)}")
    return fixtures


def _read_reference(path: Path, parse):
    """A reference file, parsed; one that cannot be read or parsed fails
    validation."""
    text = read_file(path, ValidationError, "reference")
    try:
        return parse(text)
    except MofnError as exc:
        raise ValidationError(f"reference file {path}: {exc}") from None


def cmd_validate(args) -> int:
    from .oracle import ORACLE_TRUTH
    from .tables import detect_contradictions, make_table, parse_rendered_csv

    fixtures = _fixture_dir(args)
    refs = {
        name: _read_reference(
            fixtures / name,
            parse_formula_table if name.endswith(".rules") else parse_rendered_csv,
        )
        for name in REFERENCE_FILES
    }
    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")

    # catalog transcription agrees with the independent copy
    cat = {fn.ident: fn.truth for fn in catalog(extended=True)}
    check(
        "catalog matches independent transcription",
        cat == ORACLE_TRUTH,
    )

    def table_check(model_name, table_name, class_pair, rows, cols, corner):
        sc, expected = refs[model_name], refs[table_name]
        table = make_table(sc, rows, cols)
        if table.cells.shape == expected.shape:
            same = int((table.cells == expected).sum())
        else:    # a reference grid of another shape agrees nowhere
            same = 0
        total = expected.size
        agree = same / total
        bounds_ok = bool((abs(table.cells[table.cells != 0]) <= sc.n).all())
        corner_ok = int(table.cells[0, 0]) == corner
        check(
            f"{model_name}: classes {class_pair[0]}/{class_pair[1]}",
            sc.class_names == class_pair,
        )
        check(
            f"{model_name}: table agreement {same}/{total}",
            agree >= 0.95,
            f"{100 * agree:.1f}%",
        )
        check(f"{model_name}: corner cell {corner:+d}", corner_ok)
        check(f"{model_name}: cell values within N={sc.n}", bounds_ok)
        return sc, table

    sc1, _ = table_check(
        "ie_srl.rules", "ie_srl_table.csv", ("IE", "SRL"),
        [2, 5, 8, 11], [13, 14, 15, 16], corner=7,
    )
    check("ie_srl.rules: 9 syndromes", sc1.n == 9)
    d = evaluate(sc1, {2: 1, 5: 1, 8: 0, 11: 0, 13: 0, 14: 0, 15: 0, 16: 0})
    check("ie_srl.rules: anchor case decides +6", d.value == 6, describe_decision(d, sc1.class_names))

    sc2, table2 = table_check(
        "ie_ar.rules", "ie_ar_table.csv", ("IE", "AR"),
        [9, 10, 12], [19, 20, 22], corner=18,
    )
    check("ie_ar.rules: 18 syndromes in 4 layers",
          sc2.n == 18 and len(sc2.layers) == 4)
    ties = detect_contradictions(table2)
    check("ie_ar.rules: no contradictory cells", len(ties) == 0)

    sc3 = refs["postop.rules"]
    check("postop.rules: 22 syndromes in 2 layers",
          sc3.n == 22 and len(sc3.layers) == 2)
    check(
        "postop.rules: features 3,4,5,6,8,9,10",
        sc3.referenced_features() == [3, 4, 5, 6, 8, 9, 10],
    )

    failed = checks.count(False)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else dict(EXIT_CODES)[ValidationError]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and then kept."""
    parser = argparse.ArgumentParser(
        prog="mofn",
        description="Train, inspect, and apply M-of-N diagnostic rules.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a labeled CSV")
    p.add_argument("data", help="training CSV with a header row")
    p.add_argument("-o", "--output", default="-", help="model file (default stdout)")
    p.add_argument("--label", default="label", help="label column name")
    p.add_argument("--classes", help="two class names, e.g. IE,SRL (first = class 0)")
    p.add_argument("--kind", action="append", default=[], metavar="NAME=KIND",
                   help=f"override a feature kind ({'/'.join(KINDS)})")
    p.add_argument("--drop-incomplete", action="store_true",
                   help="drop rows with empty cells instead of failing")
    p.add_argument("--beam", type=int, dest="beam_width", metavar="BEAM",
                   help=f"units kept per layer (default {TrainConfig.beam_width})")
    p.add_argument("--max-layers", type=int,
                   help=f"depth cap (default {TrainConfig.max_layers})")
    p.add_argument("--patience", type=int,
                   help="layers without improvement before stopping "
                        f"(default {TrainConfig.patience})")
    p.add_argument("--extended-catalog", action="store_true", default=None,
                   help="allow the tenth function g_1 during training")
    p.add_argument("--config", help="JSON file with default settings")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify CSV rows with a model")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tabulate", help="render a model as a diagnostic table")
    p.add_argument("model")
    p.add_argument("--rows", help="comma separated row features (names or ids)")
    p.add_argument("--cols", help="comma separated column features")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--check", action="store_true",
                   help="report contradictory cells on stderr")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("export", help="rewrite a model as text, symbolic, or JSON")
    p.add_argument("model")
    p.add_argument("--format", choices=("text", "symbolic", "json"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="normalize a model file to canonical form")
    p.add_argument("model")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_export, format="text")

    p = sub.add_parser("validate", help="check the bundled reference models")
    p.add_argument("--fixtures", help="directory with reference files")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a synthetic dataset with a hidden rule")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--features", type=int, default=6)
    p.add_argument("--rows", type=int, default=24)
    p.add_argument("--syndromes", type=int, default=3)
    p.add_argument("--noise", type=int, default=0, help="label flips")
    p.add_argument("--dump-rule", action="store_true",
                   help="print the hidden rule on stderr")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():    # the filters stay as they are
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except MofnError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
