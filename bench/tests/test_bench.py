"""Tests of the benchmark itself: input generation, span arithmetic and a
short run of every workload.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import quantiles

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import Span, Tracer, op_share, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    first = _files_of(workload, 3, tmp_path / "a")
    again = _files_of(workload, 3, tmp_path / "b")
    other = _files_of(workload, 4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def _files_of(workload, seed, directory):
    workloads.generate(workload, seed, directory)
    return _files(directory)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 4.0, 0, 1),      # overlaps a: [1, 4] is covered once
        Span("c", 8.0, 12.0, 0, 1),     # clipped to the parent's end
        Span("d", 2.5, 3.5, 2, 1),      # grandchild: counts against b only
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 2, 1, 4, 1])


def test_samples_weigh_every_model_the_same():
    samples = workloads.Samples()
    for value in (9.0, 10.0, 50.0):      # model a's median is 10
        samples.add(1, "a", value)
    samples.add(1, "b", 30.0)
    assert samples.p50() == pytest.approx((10.0 + 30.0) / 2)
    assert len(samples) == 4


def test_tail_is_taken_per_slice_then_averaged():
    samples = workloads.Samples()
    for slice_, base in ((1, 10.0), (2, 20.0)):
        for i in range(100):
            samples.add(slice_, "a", base + i / 100)
    fast, slow = (quantiles([base + i / 100 for i in range(100)], n=20)[18]
                  for base in (10.0, 20.0))
    assert samples.p95() == pytest.approx((fast + slow) / 2)


def test_tracer_nests_spans_and_restores_patches():
    import types

    module = types.SimpleNamespace()
    module.inner = lambda: time.sleep(0.01)
    module.outer = lambda: (time.sleep(0.01), module.inner())
    original = module.inner
    tracer = Tracer()
    tracer.patch(module, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    tracer.call("op.x", module.outer)
    tracer.restore()
    assert module.inner is original
    root, outer, inner = tracer.spans
    assert (root.parent, outer.parent, inner.parent) == (-1, 0, 1)
    assert root.op == outer.op == inner.op == 1
    own = self_times(tracer.spans)
    assert own[1] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1}
    assert 0 < op_share(tracer.spans, "op.x") <= 1


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_reports_every_metric_without_failures(workload, trace):
    result = _run(workload, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grow-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
