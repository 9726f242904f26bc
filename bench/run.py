"""Benchmark entry point.

    python3 bench/run.py --workload grow-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from
`src/mofn` next to this directory.  Human-readable metrics go to stderr;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the run is done once untraced and once with spans,
and the metrics are the per-layer ones, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mofn" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'mofn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One thread per process, here and in the `mofn` subprocesses that
    # inherit this environment: numpy's BLAS otherwise starts a thread pool
    # whose start-up spin adds about 0.1 s of CPU time to every import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if not Path(workloads.network.__file__).resolve().is_relative_to(SRC):
        print(f"bench: mofn was imported from outside {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items, setup_s = workloads.set_up(args.workload, args.seed, work)
        workdir = items[0].source.parent
        if args.trace:
            plain = workloads.Session(args.workload, items, workdir)
            plain.run(args.seconds / 2)
            tracer = Tracer()
            workloads.install(tracer)
            try:
                traced = workloads.Session(args.workload, items, workdir, tracer)
                traced.run(args.seconds / 2)
            finally:
                tracer.restore()
            sessions = [plain, traced]
            metrics = workloads.per_layer(tracer, plain, traced)
        else:
            session = workloads.Session(args.workload, items, workdir)
            session.run(args.seconds)
            sessions = [session]
            metrics = workloads.end_to_end(session, setup_s)
        workloads.check(sessions[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    for s in sessions:
        for message in s.errors:
            print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):>14.6g} fraction "
          f"({failed} of {attempted} ops)", file=sys.stderr)
    samples = ", ".join(f"{k}={v}" for k, v in workloads.sample_counts(sessions[-1]).items())
    print(f"  samples: {samples}", file=sys.stderr)
    cpu, wall = (sum(s.busy[i] for s in sessions) for i in (0, 1))
    print(f"  in-process ops took {cpu:.3f} s of CPU in {wall:.3f} s of wall time", file=sys.stderr)
    scales = [x for s in sessions for x in s.scales]
    print(f"  reference seconds per CPU second, over {len(scales)} slices: median "
          f"{workloads.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
