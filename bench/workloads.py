"""The benchmark's workloads: inputs, timed operations and output checks.

Every workload is a user session: obtain models, then serve them with
single-case decisions, in-process `mofn classify` over a case file,
full-grid tabulation, and `mofn classify` in a subprocess.

* grow-wide fits planted 2-of-3 rules over 96 continuous features x 200
  rows: short vectors and many feature pairs, so growth is dominated by
  Python call overhead.  Depth is capped at 4 layers (`--max-layers 4`):
  uncapped, growth stops after 4 to 10 layers depending on the data, so a
  fit took 1.2 s on one dataset and 3.1 s on another and the fit time
  measured the seed more than the code.
* tall-noisy fits 14 mixed features (continuous, nominal, boolean) x
  3000-5000 rows with 10% label noise: few pairs on long vectors, so
  arithmetic, CSV loading and encoder fitting show.  Depth is capped at
  2 layers (`--max-layers 2`), as a user would regularise noisy data; the
  cap also keeps the fit cost from depending on how far a dataset lets
  growth overfit the noise.
* serve-fixtures trains nothing: it reads and serves the three bundled
  models plus a generated 16-feature rule at the grid cap.

On the training workloads the serving operations use the rule each
dataset was drawn from (three syndromes over six features), written as a
model file by the generator.  What growth learns varies with the seed in
size and depth, and rules it learns on grow-wide can exceed the 16-bit
grid cap, so serving them would make the serving metrics measure the
seed rather than the code.  The learned networks are still served, through
`network.classify`, in a slice of their own that the traced run reports.

Outputs are checked after the timed rounds against `mofn.oracle` and
against recounts done here; a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median, quantiles

import numpy as np

import gen
from spans import Tracer, op_share, summarize

from mofn import cli, data, encoding, logic, network, oracle, rules, tables

SRC = Path(network.__file__).resolve().parents[1]
FIXTURES = SRC / "mofn" / "fixtures"
GRID_CAP = 16

TRAINING = {
    "grow-wide": dict(datasets=8, config=network.TrainConfig(max_layers=4)),
    "tall-noisy": dict(datasets=16, config=network.TrainConfig(max_layers=2)),
}
WORKLOADS = (*TRAINING, "serve-fixtures")
TALL_ROWS = (3000, 4000, 5000)
CASES_PER_DATASET = 300
CASES_PER_FIXTURE = 1000

# A run is a sequence of rounds.  Each round runs every operation for its
# slice of seconds (0: exactly one operation), so every metric samples the
# whole run and a slow spell of the machine weighs on all of them alike.
# A training round fits one dataset, so the first rounds fit each once.
SLICES = {
    "train": (("model", 0.0), ("decide", 0.1), ("net_decide", 0.05),
              ("classify", 0.1), ("tabulate", 0.1), ("cli", 0.0)),
    "serve": (("model", 0.05), ("decide", 0.2), ("classify", 0.2),
              ("tabulate", 0.2), ("cli", 0.0)),
}
# The tail of single-case decisions is the 95th percentile, taken per model
# and slice; a decide slice runs at least DECIDE_PER_MODEL decisions of
# each model, so 10 lie beyond it.  The 99th percentile is not reported: a
# decision takes tens of microseconds, so interrupts from outside the
# process land on close to 1% of them, and the 99th percentile moved by up
# to a third between sets of runs of the same code.
DECIDE_PER_MODEL = 200
MIN_CLI = 5
SETUPS = 5
SETUP_S = 1.0       # a set-up of a few milliseconds is repeated more often

# Operations and set-up are timed in CPU seconds of the process, and the
# CLI in CPU seconds of its subprocess, not in wall seconds.  The program
# is single-threaded and CPU-bound, so on an idle machine the two agree.
# On a shared host the hypervisor takes the CPU away in spells of seconds
# to minutes: on a 2-vCPU VM, wall time per block of the same work moved
# by up to 1.6x between blocks, CPU time by 1.25x.  Process CPU time counts
# every thread, so work moved to another thread still counts.  Run length
# and slices are wall time.
cpu_clock = time.process_time

# CPU time itself still moves with the load on the rest of the host, by
# up to 1.25x over spells of minutes, because neighbours share caches and
# cores.  So every slice of a round first times a fixed calibration loop,
# and each timing of the slice is scaled by REFERENCE_S / (the loop's
# time): times are reported in reference seconds, the time the work would
# take on a machine that runs the loop in REFERENCE_S.  The loop is
# benchmark code, so a change to the program does not move it.  Over
# 30-second windows of identical work, scaling shrank the range of CPU
# times from +-19% to +-5%.
REFERENCE_S = 0.002


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop, the median of five."""
    times = []
    for _ in range(5):
        t = cpu_clock()
        x = 0
        for i in range(20_000):
            x += i * i
        times.append(cpu_clock() - t)
    return median(times)


@dataclass
class Item:
    """One dataset or model of a workload, and the files the program reads."""

    name: str
    source: Path                 # training CSV, or the model file to read
    model_path: Path             # model file the serving operations read
    cases_path: Path
    net: object = None           # network trained on `source`
    text: str = ""               # its canonical model text
    sc: object = None            # the served model, parsed
    split: tuple = ()            # (row features, column features) of its grid
    cases: list = field(default_factory=list)      # typed rows for `sc`
    net_cases: list = field(default_factory=list)  # typed rows for `net`
    decided: dict = field(default_factory=dict)    # kind -> [(case, decision)]
    grid: object = None
    done: set = field(default_factory=set)         # operations run at least once


# ---------------------------------------------------------------- set-up


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def generate(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Write every input file of a workload; the same seed gives the
    same bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    if workload in TRAINING:
        for i in range(TRAINING[workload]["datasets"]):
            if workload == "grow-wide":
                planted = gen.wide_dataset(rng)
            else:
                planted = gen.tall_dataset(rng, TALL_ROWS[i % len(TALL_ROWS)])
            cases = gen.cases_like(rng, planted.columns, CASES_PER_DATASET)
            items.append(Item(
                name=f"d{i}",
                source=_write(workdir / f"d{i}.csv", planted.csv),
                model_path=_write(workdir / f"d{i}.rules", planted.rule),
                cases_path=_write(workdir / f"d{i}.cases.csv", cases),
            ))
        return items
    models = {name: (FIXTURES / f"{name}.rules").read_text()
              for name in ("ie_srl", "ie_ar", "postop")}
    models["wide16"] = gen.wide_rule(rng, GRID_CAP)
    for name, text in models.items():
        path = _write(workdir / f"{name}.rules", text)
        cases = gen.cases_for_model(rng, text, CASES_PER_FIXTURE)
        items.append(Item(
            name=name,
            source=path,
            model_path=path,
            cases_path=_write(workdir / f"{name}.cases.csv", cases),
        ))
    return items


def warm_up(workdir: Path) -> None:
    """Run each in-process operation once on a small input, so the timed
    rounds do not pay for first-call costs."""
    planted = gen.wide_dataset(np.random.default_rng(0), n_features=6, n_rows=40)
    network.train(data.load_csv(_write(workdir / "warm.csv", planted.csv)))
    model = _write(workdir / "warm.rules", planted.rule)
    sc = rules.parse_formula_table(model.read_text())
    cases = _write(workdir / "warm.cases.csv",
                   gen.cases_like(np.random.default_rng(0), planted.columns, 5))
    cli.main(["classify", str(model), str(cases), "-o", str(workdir / "warm.out.csv")])
    table = tables.make_table(sc, *default_split(sc))
    tables.render(table, "text")
    tables.render(table, "csv")
    tables.detect_contradictions(table)


def default_split(sc) -> tuple[list[int], list[int]]:
    """The split `mofn tabulate` uses without --rows/--cols."""
    referenced = sc.referenced_features()
    half = (len(referenced) + 1) // 2
    return referenced[:half], referenced[half:]


def set_up(workload: str, seed: int, root: Path) -> tuple[list[Item], float]:
    """Generate, write and warm up at least SETUPS times and for at least
    SETUP_S seconds; keep the last set of inputs and return the median
    set-up time."""
    times: list[float] = []
    while len(times) < SETUPS or sum(times) < SETUP_S:
        if times:
            shutil.rmtree(workdir)
        workdir = root / f"setup{len(times)}"
        scale = REFERENCE_S / calibrate()
        t = cpu_clock()
        items = generate(workload, seed, workdir)
        warm_up(workdir)
        times.append((cpu_clock() - t) * scale)
    return items, median(times)


# ---------------------------------------------------------------- timed ops


class Samples:
    """Timings of one operation in reference seconds, by model.

    The models of a workload differ in cost: on serve-fixtures a decision
    takes 10 us on one model and 25 us on another, and on the training
    workloads one dataset fits faster than another.  The median of all
    samples pooled then sits between two models' clusters and jumps as
    their shares shift.  Each summary is instead taken per model and
    averaged over the models, so every model weighs the same however often
    the run reached it.
    """

    def __init__(self):
        self.cells: dict[str, dict[int, list[float]]] = {}   # model -> slice -> values

    def add(self, slice_: int, item: str, value: float) -> None:
        self.cells.setdefault(item, {}).setdefault(slice_, []).append(value)

    def __len__(self) -> int:
        return sum(len(values) for by_slice in self.cells.values() for values in by_slice.values())

    def p50(self) -> float:
        """Mean over models of each model's median."""
        return mean(
            median([v for values in by_slice.values() for v in values])
            for by_slice in self.cells.values()
        )

    def p95(self) -> float:
        """Mean over models of each model's 95th percentile per slice,
        averaged over slices.

        Scaling to reference seconds leaves part of a slow spell in the
        samples, and the 95th percentile of a whole run lands in the slow
        group's samples whenever they pass 5% of the run.  Within a slice
        the machine hardly changes.
        """
        return mean(
            mean(quantiles(values, n=20)[18] for values in by_slice.values())
            for by_slice in self.cells.values()
        )


def _typed(value: str, kind: str):
    if kind == "quantitative":
        return float(value)
    if kind == "boolean":
        return int(float(value))
    return value


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(path.read_text())))
    return table[0], table[1:]


def _typed_rows(path: Path, kinds: dict[str, str]) -> list[dict]:
    header, body = _read_csv(path)
    return [
        {h: _typed(v, kinds[h]) for h, v in zip(header, row) if h in kinds}
        for row in body
    ]


class Session:
    """Runs one workload's rounds and keeps their samples and failures."""

    def __init__(self, workload: str, items: list[Item], workdir: Path,
                 tracer: Tracer | None = None):
        self.workload = workload
        self.kind = "train" if workload in TRAINING else "serve"
        self.items = items
        self.workdir = workdir
        self.tracer = tracer
        self.ready: list[Item] = []
        self.round = 0
        self.scale = 1.0                   # reference seconds per CPU second, this slice
        self.scales: list[float] = []      # ... of every slice so far
        self.model_s = Samples()
        self.decide_us = Samples()
        self.net_decide_us = Samples()
        self.classify = [0, 0.0]            # rows, reference seconds
        self.tabulate = [0, 0.0]            # cells, reference seconds
        self.cli_s = Samples()
        self.cli_attempts = 0
        self.busy = [0.0, 0.0]              # CPU and wall seconds of in-process ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        for item in items:
            item.done.clear()
            item.decided = {"decide": [], "net_decide": []}

    def _op(self, name: str, fn, *args):
        """Run one operation, inside a top-level span when tracing.
        Returns (seconds, result), or None when it raised."""
        self.attempted += 1
        wall, t = time.perf_counter(), cpu_clock()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.call("op." + name, fn, *args)
        except Exception:
            self.fail(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        seconds = cpu_clock() - t
        self.busy[0] += seconds
        self.busy[1] += time.perf_counter() - wall
        return seconds, result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    # -- obtaining a model

    def _fit(self, item: Item):
        ds = data.load_csv(item.source)
        net = network.train(ds, TRAINING[self.workload]["config"])
        return net, rules.to_formula_table(net)

    def _load(self, item: Item):
        sc = rules.parse_formula_table(item.source.read_text())
        return sc, rules.to_formula_table(sc)

    def model_step(self, item: Item, first: bool) -> None:
        done = self._op("model", self._fit if self.kind == "train" else self._load, item)
        if done is None:
            return
        seconds, (model, text) = done
        self.model_s.add(len(self.scales), item.name, seconds * self.scale)
        if not first:
            return
        if self.kind == "train":
            item.net, item.text = model, text
            item.net_cases = _typed_rows(
                item.cases_path, {enc.feature: enc.kind for enc in model.encoders})
            item.sc = rules.parse_formula_table(item.model_path.read_text())
        else:
            item.sc = model
        item.split = default_split(item.sc)
        item.cases = _typed_rows(
            item.cases_path, {enc.feature: enc.kind for enc in item.sc.features.values()})
        self.ready.append(item)

    # -- serving it

    def _decide(self, item: Item, row: dict):
        features = item.sc.features
        bits = {
            ident: encoding.encode_value(features[ident], row[features[ident].feature])
            for ident in item.sc.referenced_features()
        }
        return rules.evaluate(item.sc, bits)

    def _decide_step(self, kind: str, item: Item, first: bool, samples: Samples, fn, rows) -> None:
        decided = item.decided[kind]
        case = len(decided) if first else len(samples) % len(rows)
        done = self._op(kind, fn, item, rows[case])
        if done is not None:
            samples.add(len(self.scales), item.name, done[0] * 1e6 * self.scale)
        if first:
            decided.append((case, None if done is None else done[1]))

    def decide_step(self, item: Item, first: bool) -> None:
        self._decide_step("decide", item, first, self.decide_us, self._decide, item.cases)

    def net_decide_step(self, item: Item, first: bool) -> None:
        self._decide_step("net_decide", item, first, self.net_decide_us,
                          lambda it, row: network.classify(it.net, row), item.net_cases)

    def _classify(self, item: Item, out: Path) -> int:
        return cli.main(["classify", str(item.model_path), str(item.cases_path), "-o", str(out)])

    def classify_step(self, item: Item, first: bool) -> None:
        out = self.workdir / f"{item.name}.{'first' if first else 'again'}.out.csv"
        done = self._op("classify", self._classify, item, out)
        if done is None:
            return
        if done[1] != 0:
            self.fail(f"classify {item.name}: exit {done[1]}")
            return
        self.classify[0] += len(item.cases)
        self.classify[1] += done[0] * self.scale

    def _tabulate(self, item: Item):
        table = tables.make_table(item.sc, *item.split)
        tables.render(table, "text")
        tables.render(table, "csv")
        tables.detect_contradictions(table)
        return table

    def tabulate_step(self, item: Item, first: bool) -> None:
        done = self._op("tabulate", self._tabulate, item)
        if done is None:
            return
        self.tabulate[0] += done[1].cells.size
        self.tabulate[1] += done[0] * self.scale
        if first:
            item.grid = done[1]

    def cli_step(self, item: Item, first: bool) -> None:
        out = self.workdir / f"{item.name}.cli.out.csv"
        argv = [sys.executable, "-m", "mofn.cli", "classify",
                str(item.model_path), str(item.cases_path), "-o", str(out)]
        self.attempted += 1
        self.cli_attempts += 1
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, cwd=self.workdir, env=program_env(),
                              capture_output=True, text=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        seconds = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            self.fail(f"mofn classify {item.name}: exit {proc.returncode}: {proc.stderr[-500:]}")
            return
        self.cli_s.add(len(self.scales), item.name, seconds * self.scale)

    # -- the schedule

    def run(self, seconds: float) -> None:
        """Rounds until `seconds` have passed and every model has been
        obtained, decided case by case, classified and tabulated once."""
        end = time.perf_counter() + seconds
        turn = {kind: 0 for kind, _ in SLICES[self.kind]}
        while True:
            for kind, slice_s in SLICES[self.kind]:
                self._slice(kind, slice_s, turn)
            self.round += 1
            if time.perf_counter() >= end and self._covered():
                break

    def _first(self, kind: str, item: Item) -> bool:
        if kind in item.decided:
            rows = item.cases if kind == "decide" else item.net_cases
            return len(item.decided[kind]) < len(rows)
        return kind not in item.done

    def _slice(self, kind: str, slice_s: float, turn: dict) -> None:
        pool = self.items if kind == "model" else self.ready
        if not pool:
            return
        self.scale = REFERENCE_S / calibrate()
        self.scales.append(self.scale)
        stop = time.perf_counter() + slice_s
        least = DECIDE_PER_MODEL * len(pool) if kind == "decide" else 1
        for count in itertools.count(1):
            item = pool[turn[kind] % len(pool)]
            turn[kind] += 1
            first = self._first(kind, item)
            if self.tracer is not None:
                # counts are taken over the first pass only, so they repeat exactly
                self.tracer.counting = first
            getattr(self, f"{kind}_step")(item, first)
            item.done.add(kind)
            if count >= least and time.perf_counter() >= stop:
                break
        if self.tracer is not None:
            self.tracer.counting = False

    def _covered(self) -> bool:
        kinds = {kind for kind, _ in SLICES[self.kind]} - {"model", "cli"}
        return (
            all("model" in item.done for item in self.items)
            and all(not self._first(kind, item) for item in self.ready for kind in kinds)
            and self.cli_attempts >= MIN_CLI
        )


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_import_s(samples: int = 5) -> float:
    """Median seconds of a cold `import mofn.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mofn.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=program_env(),
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return median(times)


# ---------------------------------------------------------------- checks


def own_bit(enc, raw) -> int:
    """Encode a raw value from the encoder's declared parameters,
    independently of `mofn.encoding`."""
    if enc.kind == "quantitative":
        above = float(raw) > enc.threshold
        return enc.polarity if above else 1 - enc.polarity
    if enc.kind == "boolean":
        bit = int(float(raw))
    else:
        bit = int(raw == enc.category)
    return bit if enc.polarity else 1 - bit


def _bits(sc, row: dict) -> tuple[int, ...]:
    """Bits of the referenced features, in ascending id order, as
    `oracle.exhaustive_decision_check` keys them."""
    return tuple(own_bit(sc.features[j], row[sc.features[j].feature])
                 for j in sc.referenced_features())


def walk_decision(sc, row: dict):
    """The oracle's own tree walk and vote, for rules too wide to
    enumerate: learned rules on grow-wide can read more than 16 features."""
    assign = dict(zip(sc.referenced_features(), _bits(sc, row)))
    return oracle._own_vote(sum(oracle._walk(s, assign) for s in sc.syndromes), sc.n)


def _same(got, want) -> bool:
    return got is None or (got.value, got.m1, got.n) == (want.value, want.m1, want.n)


def check(session: Session) -> None:
    """Verify the first-pass outputs; each check is one attempted op."""

    def verify(ok: bool, what: str) -> None:
        session.attempted += 1
        if not ok:
            session.fail(what)

    for item in session.items:
        if item.sc is None:
            verify(False, f"{item.name}: no model was produced")
            continue
        if session.kind == "train":
            learned = rules.parse_formula_table(item.text)
            verify(rules.to_formula_table(learned) == item.text,
                   f"{item.name}: learned model text does not round-trip")
            header, body = _read_csv(item.source)
            errors = 0
            for row in body:
                d = walk_decision(learned, dict(zip(header, row)))
                label = int(row[header.index("label")])
                errors += not ((label == 1 and d.value < 0) or (label == 0 and d.value > 0))
            verify(errors == item.net.report.vote_error,
                   f"{item.name}: report.vote_error {item.net.report.vote_error}, recount {errors}")
            verify(all(_same(got, walk_decision(learned, item.net_cases[case]))
                       for case, got in item.decided["net_decide"]),
                   f"{item.name}: network.classify differs from the oracle walk")
        exhaustive = oracle.exhaustive_decision_check(item.sc, max_features=GRID_CAP)
        verify(all(_same(got, exhaustive[_bits(item.sc, item.cases[case])])
                   for case, got in item.decided["decide"]),
               f"{item.name}: rules.evaluate differs from the exhaustive check")
        header, body = _read_csv(item.cases_path)
        out_path = session.workdir / f"{item.name}.first.out.csv"
        out_header, out_rows = _read_csv(out_path) if out_path.exists() else ([], [])
        ok = out_header == ["row", "decision", "value", "votes"] and len(out_rows) == len(body)
        for r, (row, got) in enumerate(zip(body, out_rows)):
            d = exhaustive[_bits(item.sc, dict(zip(header, row)))]
            label = "contradictory" if d.value == 0 else item.sc.class_names[d.klass]
            ok = ok and got == [str(r), label, f"{d.value:+d}" if d.value else "0", f"{d.m}/{d.n}"]
        verify(ok, f"{item.name}: mofn classify output differs from the exhaustive check")
        if item.grid is not None:
            rows_f, cols_f = item.split
            referenced = item.sc.referenced_features()
            ok = True
            for ri in range(item.grid.shape[0]):
                for ci in range(item.grid.shape[1]):
                    assign = dict(zip(rows_f, item.grid.row_bits(ri)))
                    assign.update(zip(cols_f, item.grid.col_bits(ci)))
                    want = exhaustive[tuple(assign[j] for j in referenced)].value
                    ok = ok and int(item.grid.cells[ri, ci]) == want
            verify(ok, f"{item.name}: grid differs from the exhaustive check")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate"])
    verify(code == 0, f"mofn validate exited {code}")


# ---------------------------------------------------------------- metrics


def vote_error_rate(session: Session) -> float:
    """Training workloads: train's vote errors over training rows.  The
    served models carry no labels, so on serve-fixtures it is the share of
    grid cells the vote leaves undecided (ties), which train's vote error
    also counts as errors."""
    if session.kind == "train":
        nets = [item.net for item in session.items if item.net is not None]
        return sum(n.report.vote_error for n in nets) / sum(n.report.n_rows for n in nets)
    grids = [item.grid for item in session.items if item.grid is not None]
    return sum(int(np.sum(g.cells == 0)) for g in grids) / sum(g.cells.size for g in grids)


def end_to_end(session: Session, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "model_s.p50": (session.model_s.p50(), "s"),
        "vote_error_rate": (vote_error_rate(session), "fraction"),
        "decide_us.p50": (session.decide_us.p50(), "us"),
        "decide_us.p95": (session.decide_us.p95(), "us"),
        "classify_rows_per_s": (session.classify[0] / session.classify[1], "rows/s"),
        "tabulate_cells_per_s": (session.tabulate[0] / session.tabulate[1], "cells/s"),
        "cli_cpu_s.p50": (session.cli_s.p50(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def sample_counts(session: Session) -> dict[str, int]:
    return {
        "model_s": len(session.model_s),
        "decide_us": len(session.decide_us),
        "rounds": session.round,
        "net_decide_us": len(session.net_decide_us),
        "classify_rows": session.classify[0],
        "tabulate_cells": session.tabulate[0],
        "cli_cpu_s": len(session.cli_s),
    }


# ---------------------------------------------------------------- tracing

SPANS = (
    "data.load_csv", "encoding.encode_dataset", "encoding.encode_value",
    "network.train", "network.build_first_layer", "network.grow_layer",
    "network.classify", "rules.extract", "rules.to_formula_table",
    "rules.parse_formula_table", "rules.evaluate", "tables.make_table",
    "tables.render.text", "tables.render.csv", "tables.detect_contradictions",
    "cli.main",
)
COUNTS = (
    "data.rows_parsed", "encoding.active_features", "encoding.degenerate_features",
    "encoding.encode_value.calls", "network.grow_layer.calls",
    "network.candidates_enumerated", "network.units_kept", "network.n_syndromes",
    "rules.evaluate.calls", "tables.contradictory_cells",
)


def install(tracer: Tracer) -> None:
    """Wrap the public functions the workloads reach, in the namespace
    each call site looks them up in."""
    import mofn

    def catalog_size(config) -> int:
        return len(logic.function_ids(config.extended_catalog))

    def first_layer(result, enc, config):
        a = len(enc.active)
        tracer.count("network.candidates_enumerated", a * (a - 1) * catalog_size(config))
        tracer.count("network.units_kept", len(result))

    def next_layer(result, prev, enc, config):
        tracer.count("network.candidates_enumerated",
                     len(prev) * len(enc.active) * catalog_size(config))
        tracer.count("network.units_kept", len(result))

    def encoded(result, ds):
        tracer.count("encoding.active_features", len(result.active))
        tracer.count("encoding.degenerate_features", len(result.encoders) - len(result.active))

    def render_name(table, fmt="text"):
        return f"tables.render.{fmt}"

    patches = [
        (mofn.data, "load_csv", "data.load_csv",
         lambda ds, *a, **k: tracer.count("data.rows_parsed", ds.n)),
        (mofn.network, "encode_dataset", "encoding.encode_dataset", encoded),
        (mofn.network, "build_first_layer", "network.build_first_layer", first_layer),
        (mofn.network, "grow_layer", "network.grow_layer", next_layer),
        (mofn.network, "train", "network.train",
         lambda net, *a, **k: tracer.count("network.n_syndromes", net.n_syndromes)),
        (mofn.network, "classify", "network.classify", None),
        (mofn.rules, "extract", "rules.extract", None),
        (mofn.rules, "to_formula_table", "rules.to_formula_table", None),
        (mofn.tables, "make_table", "tables.make_table", None),
        (mofn.tables, "render", render_name, None),
        (mofn.tables, "detect_contradictions", "tables.detect_contradictions",
         lambda ties, *a, **k: tracer.count("tables.contradictory_cells", len(ties))),
        (mofn.cli, "main", "cli.main", None),
    ]
    for module in (mofn.encoding, mofn.network, mofn.cli):
        patches.append((module, "encode_value", "encoding.encode_value", None))
    for module in (mofn.rules, mofn.cli):
        patches.append((module, "parse_formula_table", "rules.parse_formula_table", None))
        patches.append((module, "evaluate", "rules.evaluate", None))
    for module, attr, name, on_result in patches:
        tracer.patch(module, attr, name, on_result)


def per_layer(tracer: Tracer, plain: Session, traced: Session) -> dict[str, tuple[float, str]]:
    """Median seconds per call (total and self) of every span, counts over
    the first pass, and the cost of tracing itself."""
    summary = summarize(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        total, own = summary.get(name, (0.0, 0.0))
        out[f"{name}.s"] = (total, "s")
        out[f"{name}.self_s"] = (own, "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    enumerated = tracer.counts.get("network.candidates_enumerated", 0)
    kept = tracer.counts.get("network.units_kept", 0)
    out["network.keep_ratio"] = (kept / enumerated if enumerated else 0.0, "fraction")
    out["cli.import_s"] = (cli_import_s(), "s")
    out["trace.model_self_share"] = (op_share(tracer.spans, "op.model"), "fraction")
    out["trace.overhead.model_s"] = (traced.model_s.p50() - plain.model_s.p50(), "s")
    out["trace.overhead.decide_us"] = (traced.decide_us.p50() - plain.decide_us.p50(), "us")
    return out
