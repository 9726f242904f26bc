"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Every tolerance is pinned here as a module constant; the
criteria fail loudly rather than loosening them.
"""

import itertools
import time

import numpy as np
import pytest

from mofn.encoding import encode_dataset, encode_value, fit_quantitative
from mofn.errors import ModelFormatError
from mofn.logic import catalog, complement_id, function_ids, truth_row
from mofn.network import TrainConfig, classify, train
from mofn.oracle import (
    ORACLE_TRUTH,
    PlantedSpec,
    brute_force_threshold,
    exhaustive_decision_check,
    generate_planted,
)
from mofn.rules import (
    decision_levels,
    evaluate,
    extract,
    parse_formula_table,
    to_formula_table,
    vote_decision,
)
from mofn.tables import detect_contradictions, make_table, parse_rendered_csv

# pinned tolerances and budgets
TABLE_AGREEMENT_MIN = 0.95      # reproduced reference grids, fraction of cells
ENCODER_TRIALS = 100            # seeded threshold-search comparisons
ENCODER_BUDGET_S = 1.0          # wall clock for all encoder trials
PLANTED_SETS = 20               # datasets checked for selection invariants
PERF_TRAIN_BUDGET_S = 5.0       # 35 rows x 24 features training run
PERF_TABLE_BUDGET_S = 5.0       # 2^16-cell tabulation


class Criterion:
    """Collects sub-checks, prints one summary line, then asserts."""

    def __init__(self, cid: str, desc: str):
        self.cid = cid
        self.desc = desc
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def done(self) -> None:
        status = "PASS" if not self.failures else "FAIL"
        print(f"{status} {self.cid}: {self.desc}")
        assert not self.failures, f"{self.cid}: " + "; ".join(self.failures)


def test_c01_function_catalog_is_exact():
    c = Criterion("c1", "catalog holds the nine standard functions plus the extension")
    c.check(set(function_ids(False)) == {0, 3, 5, 6, 7, 8, 10, 12, 13},
            "standard id set")
    c.check(set(function_ids(True)) == {0, 1, 3, 5, 6, 7, 8, 10, 12, 13},
            "extended id set")
    for fn in catalog(extended=True):
        c.check(fn.truth == ORACLE_TRUTH[fn.ident],
                f"truth row of g_{fn.ident}")
    # complements: the standard set closes except for one pair that the
    # extension completes
    open_standard = [i for i in function_ids(False)
                     if complement_id(i, extended=False) is None]
    c.check(open_standard == [12], f"open complements {open_standard}")
    c.check(complement_id(12, extended=True) == 1, "extension closes g_12")
    c.check(truth_row(1, extended=True) == (0, 0, 1, 0), "g_1 truth row")
    closed = [i for i in function_ids(True)
              if complement_id(i, extended=True) is not None]
    c.check(set(closed) == set(function_ids(True)), "extended set is closed")
    c.done()


def test_c02_signed_vote_semantics(ie_srl_text):
    c = Criterion("c2", "signed majority decisions match the worked reference case")
    d = vote_decision(m1=3, n=9)
    c.check((d.value, d.m, d.klass) == (6, 6, 0), f"3-of-9 gave {d}")
    d = vote_decision(m1=7, n=9)
    c.check((d.value, d.klass) == (-7, 1), f"7-of-9 gave {d}")
    d = vote_decision(m1=2, n=4)
    c.check(d.value == 0 and d.contradictory, f"tie gave {d}")

    sc = parse_formula_table(ie_srl_text)
    c.check(decision_levels(sc) == (5, 9), "confident/certain levels")
    d = evaluate(sc, {2: 1, 5: 1, 8: 0, 11: 0, 13: 0, 14: 0, 15: 0, 16: 0})
    c.check((d.value, d.m1) == (6, 3), f"anchor case gave {d}")
    d = evaluate(sc, {f: 0 for f in sc.features})
    c.check(d.value == 7, f"all-absent case gave {d}")
    c.done()


def test_c03_first_reference_model_reproduces(ie_srl_text, fixtures_dir):
    c = Criterion("c3", "first bundled rule set reproduces its lookup grid")
    sc = parse_formula_table(ie_srl_text)
    c.check([len(l) for l in sc.layers] == [8, 9], "layer sizes")
    t = make_table(sc, [2, 5, 8, 11], [13, 14, 15, 16])
    want = parse_rendered_csv((fixtures_dir / "ie_srl_table.csv").read_text())
    agree = float(np.mean(t.cells == want))
    c.check(agree >= TABLE_AGREEMENT_MIN, f"agreement {agree:.3f}")
    c.check(int(t.cells[0, 0]) == 7, "corner cell")
    absvals = np.abs(t.cells)
    c.check(int(absvals.min()) >= 5 and int(absvals.max()) <= 9,
            "cell magnitudes within 5..9")
    c.done()


def test_c04_second_reference_model_needs_extension(ie_ar_text, fixtures_dir):
    c = Criterion("c4", "second bundled rule set parses only with the extension")
    with pytest.raises(ModelFormatError):
        parse_formula_table(ie_ar_text.replace("catalog extended\n", ""))
    sc = parse_formula_table(ie_ar_text)
    c.check(sc.extended, "extension flag")
    c.check(len(sc.layers) == 4, f"{len(sc.layers)} layers")
    c.check(sc.n == 18, f"{sc.n} syndromes")
    t = make_table(sc, [9, 10, 12], [19, 20, 22])
    want = parse_rendered_csv((fixtures_dir / "ie_ar_table.csv").read_text())
    agree = float(np.mean(t.cells == want))
    c.check(agree >= TABLE_AGREEMENT_MIN, f"agreement {agree:.3f}")
    c.check(int(t.cells[0, 0]) == 18, "corner cell")
    c.check(detect_contradictions(t) == [], "no contradictory cells")
    c.done()


def test_c05_third_reference_model_shape(postop_text):
    c = Criterion("c5", "third bundled rule set keeps its published shape")
    sc = parse_formula_table(postop_text)
    c.check(len(sc.layers) == 2, f"{len(sc.layers)} layers")
    c.check(sc.n == 22, f"{sc.n} syndromes")
    c.check(sc.referenced_features() == [3, 4, 5, 6, 8, 9, 10],
            f"features {sc.referenced_features()}")
    c.check(decision_levels(sc) == (12, 22), "decision levels")
    quantitative = all(e.kind == "quantitative" and e.threshold is not None
                       for e in sc.features.values())
    c.check(quantitative, "all features thresholded")
    c.done()


def test_c06_threshold_search_matches_oracle():
    c = Criterion("c6", "fitted thresholds equal exhaustive search on "
                        f"{ENCODER_TRIALS} seeded columns")
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    for trial in range(ENCODER_TRIALS):
        n = int(rng.integers(3, 40))
        values = rng.choice([1.0, 2.0, 3.5, 4.0, 7.25, 9.0, 12.0], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        enc = fit_quantitative(values, labels, "col")
        ref = brute_force_threshold(values, labels)
        same = (enc.degenerate == ref.degenerate
                and enc.error == ref.e
                and (enc.degenerate or (enc.threshold == ref.u
                                        and enc.polarity == ref.h)))
        c.check(same, f"trial {trial}: fitted {enc} vs oracle {ref}")
    elapsed = time.perf_counter() - start
    c.check(elapsed < ENCODER_BUDGET_S, f"took {elapsed:.2f}s")
    c.done()


def test_c07_selection_invariants_on_planted_data():
    c = Criterion("c7", "selection invariants hold on "
                        f"{PLANTED_SETS} planted datasets")
    for seed in range(1, PLANTED_SETS + 1):
        p = generate_planted(PlantedSpec(seed=seed))
        net = train(p.dataset, TrainConfig(patience=2))
        enc = encode_dataset(p.dataset)
        feat_err = enc.errors
        x = np.array([[encode_value(e, v) for e, v in zip(enc.encoders, row)]
                      for row in p.dataset.rows])
        mins = [min(u.error for u in layer) for layer in net.layers]
        c.check(mins == sorted(mins, reverse=True),
                f"seed {seed}: layer minima {mins}")
        cols: dict[int, np.ndarray] = {}
        prev = None
        for r, layer in enumerate(net.layers):
            nxt: dict[int, np.ndarray] = {}
            for idx, u in enumerate(layer):
                left_err = feat_err[u.left] if r == 0 else prev[u.left].error
                c.check(u.error <= left_err and u.error <= feat_err[u.right],
                        f"seed {seed}: unit worse than its inputs")
                a = cols[u.left] if r else x[:, u.left]
                b = x[:, u.right]
                table = np.array(truth_row(u.fn, False), dtype=np.uint8)
                out = table[(a.astype(np.int64) << 1) | b]
                recount = int(np.count_nonzero(out != p.dataset.labels))
                c.check(recount == u.error,
                        f"seed {seed}: stored error {u.error} vs {recount}")
                nxt[idx] = out
            cols = nxt
            prev = layer
    c.done()


# pinned spec/seed grid: single planted syndromes across sample sizes,
# plus three-syndrome rules at densities where recovery is reliable
RECOVERY_CASES = (
    [(nf, nr, 1, seed)
     for nf, nr in [(3, 8), (4, 12), (5, 16), (6, 20), (8, 24)]
     for seed in (1, 2, 3, 4)]
    + [(4, 12, 3, seed) for seed in (1, 2, 3, 4, 5)]
    + [(5, 14, 3, seed) for seed in (1, 3, 4, 5, 7)]
)


def test_c08_planted_rules_are_recovered():
    c = Criterion("c8", f"{len(RECOVERY_CASES)} planted rules learn to zero "
                        "vote error")
    for nf, nr, ns, seed in RECOVERY_CASES:
        p = generate_planted(PlantedSpec(seed=seed, n_features=nf,
                                         n_rows=nr, n_syndromes=ns))
        net = train(p.dataset, TrainConfig(patience=2))
        c.check(net.report.vote_error == 0,
                f"{nf}f/{nr}r/{ns}s seed {seed}: "
                f"vote error {net.report.vote_error}")
        names = [f.name for f in p.dataset.features]
        wrong = sum(
            classify(net, dict(zip(names, row))).klass != int(y)
            for row, y in zip(p.dataset.rows, p.dataset.labels)
        )
        c.check(wrong == 0, f"{nf}f/{nr}r/{ns}s seed {seed}: "
                            f"{wrong} misclassified rows")
    c.done()


def test_c09_every_path_gives_the_same_decision():
    c = Criterion("c9", "classifier, formula, table, and exhaustive check agree")
    cases = [(5, 16, 1, s) for s in (2, 4, 6)] + [(4, 12, 3, s) for s in (1, 3)]
    for nf, nr, ns, seed in cases:
        p = generate_planted(PlantedSpec(seed=seed, n_features=nf,
                                         n_rows=nr, n_syndromes=ns))
        net = train(p.dataset, TrainConfig(patience=2))
        sc = extract(net)
        feats = sc.referenced_features()
        half = (len(feats) + 1) // 2
        rows, cols = feats[:half], feats[half:]
        table = make_table(sc, rows, cols)
        oracle_map = exhaustive_decision_check(sc)
        for bits in itertools.product((0, 1), repeat=len(feats)):
            assign = dict(zip(feats, bits))
            raw = {}
            for fid, t in assign.items():
                e = sc.features[fid]
                hi = p.thresholds[fid] + p.offsets[fid]
                lo = p.thresholds[fid] - p.offsets[fid]
                raw[p.dataset.features[fid].name] = hi if e.polarity == t else lo
            via_net = classify(net, raw).value
            via_formula = evaluate(sc, assign).value
            via_oracle = oracle_map[bits].value
            ri = int("".join(str(assign[f]) for f in rows), 2)
            ci = int("".join(str(assign[f]) for f in cols), 2)
            via_table = int(table.cells[ri, ci])
            agree = via_net == via_formula == via_oracle == via_table
            c.check(agree, f"seed {seed} bits {bits}: net {via_net}, "
                           f"formula {via_formula}, oracle {via_oracle}, "
                           f"table {via_table}")
            if not agree:
                break
    c.done()


def test_c10_performance_budgets():
    c = Criterion("c10", "training and tabulation stay inside their budgets")
    p = generate_planted(PlantedSpec(seed=1, n_features=24, n_rows=35,
                                     n_syndromes=3))
    start = time.perf_counter()
    net = train(p.dataset, TrainConfig(patience=2))
    train_s = time.perf_counter() - start
    c.check(train_s < PERF_TRAIN_BUDGET_S,
            f"training took {train_s:.2f}s (budget {PERF_TRAIN_BUDGET_S}s)")
    c.check(net.n_syndromes >= 1, "training produced no syndromes")

    lines = ["classes 0 1"]
    for f in range(16):
        lines.append(f"feature {f} f{f} kind=boolean h=1")
    lines.append("layer 1")
    for i in range(0, 16, 2):
        lines.append(f"{i + 1} 6 {i} {i + 1}")
    sc = parse_formula_table("\n".join(lines) + "\n")
    start = time.perf_counter()
    t = make_table(sc, list(range(8)), list(range(8, 16)))
    table_s = time.perf_counter() - start
    c.check(t.cells.size == 1 << 16, "table size")
    c.check(table_s < PERF_TABLE_BUDGET_S,
            f"tabulation took {table_s:.2f}s (budget {PERF_TABLE_BUDGET_S}s)")
    c.done()
