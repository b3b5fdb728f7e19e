"""The subdiv benchmark: one command per workload, seed and tracing mode.

    python3 perfbench/run.py --workload refine_deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in fresh single-threaded worker processes (worker.py).
With --trace 0 one worker runs the timed closed loop and further workers
only set up, so that setup_s is a median; the end-to-end metrics are
printed by name with their units.  With --trace 1 one worker wraps the
library's module boundaries and reports per-layer self times and counts,
plus the tracing overhead on op_p50_s.  The last line of stdout is one
JSON object with the metrics BENCHMARK.json names for the mode.  --smoke
runs every workload at a tiny size in both modes and checks that output.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# Set-ups per untraced run, each in a fresh process; setup_s is their median.
# A cli_export set-up includes a whole warm-up session, so it gets fewer.
SETUPS = {"refine_deep": 5, "certify_sweep": 9, "cli_export": 3}
BOUND = "bound"  # outcome of an op hit by the known defect (workloads.BOUND)
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# numpy and the program must stay single-threaded.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SUBDIV_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker; setup_s runs from process start to its first timed op."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_op"] - started
    return report


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it.  A tail is never taken below the median:
    with fewer than 21 samples the (upper) median is returned, with as many
    samples beyond it as the count shows."""
    ordered = sorted(durations)
    beyond = min(10, (len(ordered) - 1) // 2)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def end_to_end(run: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    durations = run["durations"]
    failed = sum(o is not None for o in run["outcomes"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail(durations)[0], "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "failed_ops_ratio": (failed / len(run["outcomes"]), "ratio"),
    }


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    metrics = {name: tuple(pair) for name, pair in run["layers"].items()}
    overhead = statistics.median(run["durations"]) - statistics.median(run["untraced_durations"])
    metrics["trace.op_p50_overhead_s"] = (overhead, "s")
    return metrics


def describe(args, run: dict, metrics: dict, setups: list[float]) -> list[str]:
    outcomes = run["outcomes"]
    bound = outcomes.count(BOUND)
    other = sorted({o for o in outcomes if o not in (None, BOUND)})
    lines = [
        f"{args.workload} seed={args.seed}: closed loop, one client, no think time; "
        f"{len(run['durations'])} timed ops in {sum(run['durations']):.3f} s",
        f"  failed ops: {bound} with the certified bound violated (known defect), "
        f"{len(outcomes) - outcomes.count(None) - bound} other, of {len(outcomes)} attempted",
    ]
    lines += [f"  other failure: {o}" for o in other[:5]]
    _, pct, beyond = tail(run["durations"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        "op_tail_s": f"p{pct:.1f} of {len(run['durations'])} ops, {beyond} beyond it"
                     + ("" if beyond >= 10 else "; fewer than 21 ops, so the median"),
    }
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<42} {value!r} {unit}{extra}")
    lines.append("  inputs: " + json.dumps(run["notes"], sort_keys=True))
    return lines


def run_once(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads(SPEC.read_text())
    if args.trace:
        run = spawn(args, "trace", deadline)
        setups = [run["setup_s"]]
        metrics = per_layer(run)
        wanted = spec["per_layer"]
    else:
        # Machine speed drifts over seconds, so the extra set-ups are split
        # between before and after the timed run rather than bunched.
        extra = SETUPS[args.workload] - 1
        setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(extra // 2)]
        run = spawn(args, "run", deadline)
        setups += [run["setup_s"]] + [
            spawn(args, "setup", deadline)["setup_s"] for _ in range(extra - extra // 2)
        ]
        metrics = end_to_end(run, setups)
        wanted = spec["end_to_end"]
    for line in describe(args, run, metrics, setups):
        print(line)
    if args.trace:
        print(f"  traced: {run['span_count']} spans in {run['spans_file']}; "
              f"largest |sum of self times - op wall time| = {run['self_sum_error_s']!r} s")
        values_out = metrics["operators.apply.values_out"][0]
        print(f"  computed bytes out of apply: {values_out * 8} (values_out x 8)")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    outcomes = run["outcomes"]
    result = {
        "correct": all(o in (None, BOUND) for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o is not None for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": run, "setups": setups, "all_metrics": metrics,
                                  "result": result}, indent=1))
    return result


def check_result(line: str, wanted: list[dict]) -> list[str]:
    """Problems with one result line, against the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"wrong keys: {line[:200]}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = result["attempted"], result["failed"]
    if not (type(attempted) is int and type(failed) is int and 0 <= failed <= attempted
            and attempted >= 1):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"metric names {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: {got}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def smoke() -> int:
    """Every workload at a tiny size, in both modes: exit 0 when every
    metric BENCHMARK.json names is emitted, well formed, with its unit."""
    spec = json.loads(SPEC.read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
                        if proc.returncode else [])
            problems += check_result(lines[-1] if lines else "", wanted)
            failures += bool(problems)
            print(f"smoke {workload} trace={trace}: " + ("ok" if not problems else "; ".join(problems)))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "subdiv" / "__init__.py").is_file():
        print(f"perfbench: no src/subdiv under {ROOT}; run from a subdiv checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    spec_names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    if args.workload not in spec_names:
        parser.error(f"--workload must be one of {spec_names}")
    try:
        result = run_once(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
