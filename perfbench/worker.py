"""One workload process of the subdiv benchmark; run.py starts it.

Modes:
  setup  set up (import, seeded inputs, one warm-up op) and stop;
  run    set up, then a closed loop of timed ops with tracing off;
  trace  set up under tracing, run half the ops untraced, replay the same
         ops traced, then one more op under tracemalloc for the allocation
         peak.

The loop is closed with one client and no think time: it starts the next
op when the previous one returns.  A run makes a fixed number of ops,
--seconds times the workload's planned rate (``workloads.op_count``), so
the same seed always runs, checks and counts the same ops.  Checks run
between ops, off the clock.  The last line of stdout is one JSON object
with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def import_program() -> None:
    """Import subdiv from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "subdiv"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a subdiv checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import subdiv

    if Path(subdiv.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported subdiv from {subdiv.__file__}, not {package}")


def closed_loop(workload, count: int, tracer=None):
    """Timed ops 0, 1, ..., count - 1."""
    durations, outcomes = [], []
    for i in range(count):
        if tracer:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            result, error = workload.op(i), None
        except Exception as exc:  # an op that raises is a failed op, reported
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        durations.append(elapsed)
        outcomes.append(error or workload.check(i, result))
    return durations, outcomes


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import_program()
    import tracer as tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        tracer = tracing.Tracer() if args.mode == "trace" else None
        if tracer:
            tracer.install()
            tracer.begin_op(-1)
        # A traced run replays its untraced ops, so it has half as many distinct ops.
        count = workloads.op_count(args.workload, args.seconds)
        if args.mode == "trace":
            count = max(1, count // 2)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, count)
        workload.warmup()
        if tracer:
            tracer.end_op()
            tracer.active = False
        first_op = time.monotonic()
        report: dict = {"first_op": first_op}
        if args.mode == "setup":
            print(json.dumps(report))
            return

        if args.mode == "run":
            durations, outcomes = closed_loop(workload, count)
        else:
            # The traced half replays the untraced half's ops, so the two
            # medians differ only by the tracing overhead.
            plain, outcomes = closed_loop(workload, count)
            tracer.active = True
            durations, traced_outcomes = closed_loop(workload, count, tracer=tracer)
            tracer.active = False
            outcomes += traced_outcomes
            tracer.measure_alloc = True
            workload.warmup()
            tracer.measure_alloc = False
            tracer.uninstall()
            report["untraced_durations"] = plain
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes, notes = workload.finish(outcomes)
        report.update(durations=durations, outcomes=outcomes, notes=notes)
        if tracer:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(str(spans))
            report.update(
                layers=tracer.metrics(), spans_file=str(spans.relative_to(ROOT)),
                span_count=len(tracer.span_start), self_sum_error_s=tracer.self_sum_error(),
            )
        print(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
