"""Command line interface.

Subcommands cover the whole pipeline: train a network from CSV,
classify new cases, tabulate a rule as a diagnostic table, export and
re-import model files, validate the bundled reference models, and
generate synthetic benchmark data.

Exit codes: 0 success, 2 usage error, 3 data error, 4 model error,
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_csv
from .encoding import encode_value
from .errors import (
    CatalogError,
    DataError,
    EncodingError,
    EvaluationError,
    ModelFormatError,
    MofnError,
    TableError,
    TrainingError,
)
from .logic import catalog
from .network import TrainConfig, train
from .oracle import ORACLE_TRUTH, PlantedSpec, generate_planted
from .rules import (
    decision_levels,
    describe_decision,
    evaluate,
    parse_formula_table,
    symbolic,
    to_formula_table,
)
from .tables import detect_contradictions, make_table, parse_rendered_csv, render

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_VALIDATION = 5

CONFIG_ENV = "MOFN_CONFIG"
CONFIG_KEYS = ("beam_width", "max_layers", "patience", "extended_catalog")


def _load_config(path: str | None) -> dict:
    """Defaults from a JSON file; --config beats $MOFN_CONFIG."""
    source = path or os.environ.get(CONFIG_ENV)
    if not source:
        return {}
    try:
        raw = json.loads(Path(source).read_text())
    except FileNotFoundError:
        raise MofnError(f"config file not found: {source}") from None
    except json.JSONDecodeError as exc:
        raise MofnError(f"config file {source}: {exc}") from None
    if not isinstance(raw, dict):
        raise MofnError(f"config file {source}: expected a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise MofnError(f"config file {source}: unknown keys {sorted(unknown)}")
    return raw


def _train_config(args, overrides: dict) -> TrainConfig:
    merged = {
        "beam_width": 64,
        "max_layers": 10,
        "patience": 1,
        "extended_catalog": False,
    }
    merged.update(overrides)
    if args.beam is not None:
        merged["beam_width"] = args.beam
    if args.max_layers is not None:
        merged["max_layers"] = args.max_layers
    if args.patience is not None:
        merged["patience"] = args.patience
    if args.extended_catalog:
        merged["extended_catalog"] = True
    return TrainConfig(**merged)


def _write(text: str, dest: str | None) -> None:
    if dest in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)


def _read_model(path: str):
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ModelFormatError(f"model file not found: {path}") from None
    return parse_formula_table(text)


def _parse_kinds(pairs: list[str]) -> dict[str, str]:
    kinds = {}
    for pair in pairs:
        name, sep, kind = pair.partition("=")
        if not sep or not name or not kind:
            raise MofnError(f"--kind expects name=kind, got {pair!r}")
        kinds[name] = kind
    return kinds


def _parse_classes(spec: str | None):
    if spec is None:
        return None
    names = tuple(s.strip() for s in spec.split(","))
    if len(names) != 2 or not all(names):
        raise MofnError(f"--classes expects two comma separated names, got {spec!r}")
    return names


def cmd_train(args) -> int:
    overrides = _load_config(args.config)
    config = _train_config(args, overrides)
    ds = load_csv(
        args.data,
        label_column=args.label,
        kinds=_parse_kinds(args.kind),
        class_names=_parse_classes(args.classes),
        drop_incomplete=args.drop_incomplete,
    )
    net = train(ds, config)
    _write(to_formula_table(net), args.output)
    report = net.report
    for line in report.lines(net.feature_names):
        print(line, file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    sc = _read_model(args.model)
    ds_text = Path(args.data).read_text()
    import csv as _csv
    import io as _io

    reader = _csv.reader(_io.StringIO(ds_text))
    table = [row for row in reader if row]
    if not table:
        raise DataError("empty CSV")
    header = [h.strip() for h in table[0]]
    by_name = {enc.feature: ident for ident, enc in sc.features.items()}
    referenced = set(sc.referenced_features())
    missing = [
        sc.features[i].feature for i in sorted(referenced)
        if sc.features[i].feature not in header
    ]
    if missing:
        raise DataError(f"CSV lacks columns for features: {missing}")

    out_rows = [["row", "decision", "value", "votes"]]
    for r, row in enumerate(table[1:]):
        if len(row) != len(header):
            raise DataError(f"row {r} has {len(row)} cells, expected {len(header)}")
        cells = dict(zip(header, (c.strip() for c in row)))
        assignment = {}
        for name, ident in by_name.items():
            if ident not in referenced or name not in cells:
                continue
            enc = sc.features[ident]
            value = cells[name]
            if enc.kind != "nominal":
                try:
                    value = float(value)
                except ValueError:
                    raise DataError(
                        f"row {r}, feature {name!r}: {value!r} is not numeric"
                    ) from None
            assignment[ident] = encode_value(enc, value)
        d = evaluate(sc, assignment)
        label = "contradictory" if d.contradictory else sc.class_names[d.klass]
        out_rows.append([str(r), label, f"{d.value:+d}" if d.value else "0",
                         f"{d.m}/{d.n}"])
    out = _io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerows(out_rows)
    _write(out.getvalue(), args.output)
    return EXIT_OK


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
            out.append(sc.feature_id(tok))
    if not out:
        raise TableError("empty axis")
    return out


def cmd_tabulate(args) -> int:
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
    _write(render(table, args.format), args.output)
    if args.check:
        ties = detect_contradictions(table)
        print(f"contradictory cells: {len(ties)}", file=sys.stderr)
        for rb, cb in ties[:50]:
            print(
                f"  rows={''.join(map(str, rb))} cols={''.join(map(str, cb))}",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_export(args) -> int:
    sc = _read_model(args.model)
    if args.format == "text":
        _write(to_formula_table(sc), args.output)
    elif args.format == "symbolic":
        _write("\n".join(symbolic(sc)) + "\n", args.output)
    else:
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
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_import(args) -> int:
    sc = _read_model(args.model)
    _write(to_formula_table(sc), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    from .data import to_csv

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
    _write(to_csv(planted.dataset), args.output)
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
    return EXIT_OK


def _fixture_dir(args) -> Path:
    if args.fixtures:
        return Path(args.fixtures)
    return Path(str(resources.files("mofn") / "fixtures"))


def cmd_validate(args) -> int:
    fixtures = _fixture_dir(args)
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
        path = fixtures / model_name
        sc = parse_formula_table(path.read_text())
        expected = parse_rendered_csv((fixtures / table_name).read_text())
        table = make_table(sc, rows, cols)
        same = int(np.sum(table.cells == expected))
        total = expected.size
        agree = same / total
        bounds_ok = bool(np.all(np.abs(table.cells[table.cells != 0]) <= sc.n))
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
        return sc

    sc1 = table_check(
        "ie_srl.rules", "ie_srl_table.csv", ("IE", "SRL"),
        [2, 5, 8, 11], [13, 14, 15, 16], corner=7,
    )
    check("ie_srl.rules: 9 syndromes", sc1.n == 9)
    d = evaluate(sc1, {2: 1, 5: 1, 8: 0, 11: 0, 13: 0, 14: 0, 15: 0, 16: 0})
    check("ie_srl.rules: anchor case decides +6", d.value == 6, describe_decision(d, sc1.class_names))

    sc2 = table_check(
        "ie_ar.rules", "ie_ar_table.csv", ("IE", "AR"),
        [9, 10, 12], [19, 20, 22], corner=18,
    )
    check("ie_ar.rules: 18 syndromes in 4 layers",
          sc2.n == 18 and len(sc2.layers) == 4)
    ties = detect_contradictions(make_table(sc2, [9, 10, 12], [19, 20, 22]))
    check("ie_ar.rules: no contradictory cells", len(ties) == 0)

    sc3 = parse_formula_table((fixtures / "postop.rules").read_text())
    check("postop.rules: 22 syndromes in 2 layers",
          sc3.n == 22 and len(sc3.layers) == 2)
    check(
        "postop.rules: features 3,4,5,6,8,9,10",
        sc3.referenced_features() == [3, 4, 5, 6, 8, 9, 10],
    )

    failed = checks.count(False)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
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
                   help="override a feature kind (quantitative/boolean/nominal)")
    p.add_argument("--drop-incomplete", action="store_true",
                   help="drop rows with empty cells instead of failing")
    p.add_argument("--beam", type=int, help="units kept per layer (default 64)")
    p.add_argument("--max-layers", type=int, help="depth cap (default 10)")
    p.add_argument("--patience", type=int,
                   help="layers without improvement before stopping (default 1)")
    p.add_argument("--extended-catalog", action="store_true",
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
    p.set_defaults(func=cmd_import)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, EncodingError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ModelFormatError, CatalogError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MofnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
