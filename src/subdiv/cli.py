"""Command-line surface: analysis, comparison, certification, refinement,
and reproduction of the corner-cutting experiments.

Exit codes are a stable contract: 0 success/certified, 2 load or parse
failure, 3 precondition failure, 4 inconclusive.  Inconclusive is never
conflated with "not convergent": the windowed tests are one-sided.
Identical invocations produce byte-identical output files.

Commands raise ``SubdivError``; ``main`` alone maps it to exit 3 or 4, and
an output file or a closed stdout that cannot be written to exit 3.  It
writes the one failure record, ``{<verdict>: false, "reason": {...}}``, to
the record path each subcommand declares, or to stdout when that path
cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog, refine
from .errors import (
    ContractionNotFound,
    EmptyOutput,
    InvalidParameter,
    NotConstantReproducing,
    SubdivError,
    TailNotReached,
)
from .masks import parity_sums, reproduces_constants, sup_norm
from .operators import block_ranges, check_budget, condition_a_search, contraction_scan
from .schemes import (
    ConvergenceCertificate,
    boundedness_estimate,
    certify_theorem4,
    similarity_report,
)

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4

FIGURE1_ALPHAS = (2.5, 1.5, 0.5, -0.5, -1.5)
FIGURE2_ITERATIONS = (8, 12, 16)

# A refine or figure run whose estimated memory exceeds
# operators.MEMORY_BUDGET is refused before it allocates anything (exit 3).
# The estimate counts the windows' arrays at about 1.5 x 8 bytes a value
# (tracemalloc: 11.4 to 12.0 for refine --levels 16), and 36 bytes a value
# for figure --out, which also keeps traces and writes CSV strings 2**15
# rows at a time (tracemalloc: 34.1 for figure 1 --levels 14 --out, where
# those strings are a large share, and 15.4 for figure 2 --out).
_ARRAY_BYTES = 12
_ROW_BYTES = 36
# Bytes analyze holds per listed level besides the scheme's level table:
# the report's entry, with its parity sums and difference rule.
# tracemalloc measured 666-730 a level for derham:gamma=2,alpha=1.5 over
# --k-range 1:2000 and 1:20000, once the table's entries were taken off.
_REPORT_LEVEL_BYTES = 1024


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like A:B with integer levels A and B, got {text!r}"
        ) from None


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cells(column) -> list[str]:
    """The CSV fields of a column: each value's repr, or "" for None."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if None in values:
        return ["" if v is None else repr(v) for v in values]
    return list(map(repr, values))


def _write_csv(path: str, header: list[str], blocks) -> None:
    """Write CSV with the bytes ``csv.writer`` gives for these fields.

    ``blocks`` yields tuples of equal-length columns (sequences or arrays
    of numbers).  They are written by column, one join per run of at most
    ``block_ranges``' rows, so no more than one run's strings and Python
    numbers are alive at a time.
    """
    row = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            for a, b in block_ranges(0, len(columns[0])):
                fh.write("".join(map(row.format, *(_cells(c[a:b]) for c in columns))))


def _load_scheme(text: str):
    try:
        return catalog.parse_scheme_arg(text)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, SubdivError) as exc:
        print(f"error loading scheme {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_LOAD)


def cmd_analyze(args) -> int:
    scheme = _load_scheme(args.scheme)
    # a failure record keeps the report built so far
    report = args.report = {"scheme": scheme.to_dict(), "levels": {}, "contraction": None}
    k_lo, k_hi = scheme.clamp(*(args.k_range or (scheme.k0, scheme.k0 + 16)))
    levels = range(k_lo, k_hi + 1) if scheme.kind != "stationary" else [scheme.k0]
    scheme.admit(levels[0], levels[-1], f"a report on levels {k_lo} to {k_hi}",
                 _REPORT_LEVEL_BYTES * len(levels))
    all_ok = True
    for k in levels:
        m = scheme.mask_at(k)
        ok = reproduces_constants(m)
        entry = {
            "reproduces_constants": ok,
            "parity_sums": list(parity_sums(m)),
            "operator_norm": sup_norm(m),
        }
        verdict = "ok" if ok else "FAILS"
        line = f"level {k}: constants {verdict}; ||S_a|| = {sup_norm(m)!r}"
        if ok:
            q = scheme.difference_mask_at(k)
            entry["difference_mask"] = q.to_dict()
            entry["difference_norm"] = sup_norm(q)
            if args.verbose or k - k_lo < 3:
                line += f"; q = {list(q.coeffs)} at base {q.base}, ||S_q|| = {sup_norm(q)!r}"
        report["levels"][str(k)] = entry
        all_ok = all_ok and ok
        print(line)

    report["boundedness"] = boundedness_estimate(scheme, (k_lo, k_hi)).to_dict()
    if not all_ok:
        raise NotConstantReproducing(
            "constant reproduction fails on scanned levels; no difference "
            "scheme exists"
        )
    try:
        # the search also reads levels past the ones listed above
        witness = condition_a_search(
            scheme, n_max=args.n_max, K_max=args.K_max, window=args.window
        )
    except ContractionNotFound as exc:
        report["scan"] = [list(c) for c in exc.scan]
        raise
    report["contraction"] = witness.to_dict()
    if args.verbose:
        report["scan"] = [
            list(c)
            for c in contraction_scan(
                scheme, n_max=args.n_max, K_max=args.K_max, window=args.window
            )
        ]
    print(
        f"contraction: K={witness.K} n={witness.n} mu={witness.mu!r} "
        f"(window={witness.window}, windowed={witness.windowed})"
    )
    print("note: products apply the lowest level first (rightmost factor).")
    if args.out:
        _emit_json(report, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    a = _load_scheme(args.scheme)
    b = _load_scheme(args.comparator)
    k_lo, k_hi = args.k_range or (max(a.k0, b.k0), max(a.k0, b.k0) + 63)
    report = similarity_report(a, b, (k_lo, k_hi))
    print(f"similar: {report.similar}; equivalent: {report.equivalent}"
          + (" (analytic)" if report.analytic else ""))
    if report.decay_fit:
        rate, exponent = report.decay_fit
        print(f"decay fit: diff ~ {rate!r} * k^{exponent!r}")
    if args.out:
        _emit_json(report.to_dict(), args.out + ".json")
        _write_csv(
            args.out + ".csv",
            ["k", "diff", "partial_sum"],
            [(report.ks, report.diffs, report.partial_sums)],
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    target = _load_scheme(args.scheme)
    comparator = _load_scheme(args.comparator)
    cert = certify_theorem4(
        target, comparator, k_range=args.k_range, mu=args.mu, n_max=args.n_max,
    )
    payload = {"certified": True, "certificate": cert.to_dict(),
               "target": target.to_dict(), "comparator": comparator.to_dict()}
    _emit_json(payload, args.out)
    label = cert.provenance + ("-degenerate" if cert.meta.get("degenerate") else "")
    print(
        f"certified ({label}): mu*={cert.mu_star!r} n={cert.n} "
        f"K={cert.K} mu_hat={cert.mu_hat!r} C={cert.C!r} "
        f"holder={cert.holder_exponent!r}"
    )
    return EXIT_OK


def _check_memory(length: int, level: int, levels: int, per_value: int) -> None:
    """Refuse to refine ``length`` values at ``level`` up to ``levels`` when
    the estimate exceeds the memory budget.  Each level doubles a window, so
    the run reaches at most length * 2**(levels - level + 1) values."""
    check_budget(
        per_value * length << min(max(levels - level + 1, 0), 64),
        f"refining {length} values from level {level} to level {levels}",
    )


def _initial_state(args, scheme) -> refine.RefinementState:
    if args.initial in ("delta", "ones"):
        _check_memory(2 * args.halfwidth + 1, scheme.k0, args.levels, _ARRAY_BYTES)
        if args.initial == "delta":
            return refine.impulse(args.halfwidth, level=scheme.k0)
        return refine.constant(1.0, args.halfwidth, level=scheme.k0)
    try:
        with open(args.initial, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        values = [float(v) for v in obj["values"]]
        if not all(map(math.isfinite, values)):
            raise ValueError("initial values must be finite numbers")
        window = refine.Window(int(obj["start"]), values)
        level = int(obj.get("level", scheme.k0))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"error loading initial window: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_LOAD)
    _check_memory(len(window), level, args.levels, _ARRAY_BYTES)
    return refine.RefinementState(level, window)


def cmd_refine(args) -> int:
    scheme = _load_scheme(args.scheme)
    cert = None
    if args.certificate:
        try:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            payload = obj if isinstance(obj, dict) else {}
            cert = ConvergenceCertificate.from_dict(payload.get("certificate", obj))
        except (OSError, KeyError, ValueError) as exc:
            print(f"error loading certificate: {exc}", file=sys.stderr)
            return EXIT_LOAD
        # a bare certificate names no scheme, so it cannot be checked here
        if "target" in payload and payload["target"] != scheme.to_dict():
            raise InvalidParameter(
                f"the certificate was issued for {json.dumps(payload['target'])}, "
                f"not for --scheme {json.dumps(scheme.to_dict())}"
            )
    state = _initial_state(args, scheme)
    report = refine.decay_report(scheme, state, args.levels, certificate=cert)
    print(f"rho_emp = {report.rho_emp!r}"
          + (" (non-contractive)" if report.non_contractive else ""))
    if report.bounds_hold is not None:
        print(f"certified bounds hold: {report.bounds_hold}")
    if args.out:
        _write_csv(args.out, ["k", "delta_norm", "cauchy_norm", "bound"],
                   [tuple(zip(*report.rows()))])
    return EXIT_OK


def cmd_figure(args) -> int:
    # both figures refine schemes that start at level 1
    _check_memory(2 * args.halfwidth + 1, 1, args.levels,
                  _ROW_BYTES if args.out else _ARRAY_BYTES)
    if args.which == "1":
        peaks = []
        for alpha in FIGURE1_ALPHAS:
            scheme = catalog.derham_nonstationary(args.gamma, alpha=alpha)
            state = refine.impulse(args.halfwidth, level=scheme.k0)
            sample = refine.limit_sample(scheme, state, args.levels)
            peaks.append((alpha, sample.peak))
            if args.out:
                path = f"{args.out}_alpha_{alpha:+.1f}.csv"
                _write_csv(path, ["x", "value"], [(sample.xs, sample.values)])
        for alpha, peak in peaks:
            print(f"alpha = {alpha:+.1f}: peak = {peak!r}")
        return EXIT_OK

    scheme = catalog.perturbed_chaikin()
    state = refine.impulse(args.halfwidth, level=scheme.k0)
    traces = {}
    gaps = []
    s = state
    for step in range(1, max(FIGURE2_ITERATIONS) + 1):
        nxt = refine.refine_once(s, scheme)
        gaps.append(refine.pl_gap(s.window, nxt.window))
        s = nxt
        if step in FIGURE2_ITERATIONS:
            traces[step] = s
    if args.out:
        _write_csv(args.out, ["k", "x", "value"], (
            (np.full(len(st.window), st.level), st.xs(), st.window.values)
            for st in map(traces.get, FIGURE2_ITERATIONS)
        ))
    print(f"interpolant gaps per step: first {gaps[0]!r}, last {gaps[-1]!r}")
    if gaps[-1] >= gaps[0]:
        print("gaps do not decay: no Cauchy behaviour in this window")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, comparator: bool = False,
                k_range: bool = True) -> None:
    p.add_argument("--scheme", required=True,
                   help="catalog name (optionally name:key=val,...) or JSON path")
    if comparator:
        p.add_argument("--comparator", required=True,
                       help="comparator scheme, same syntax as --scheme")
    if k_range:
        p.add_argument("--k-range", type=_parse_k_range, default=None,
                       metavar="A:B", dest="k_range",
                       help="inclusive level range to scan")
    p.add_argument("--out", default=None, help="output file (or file prefix)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdiv",
        description="Analyze, certify, and run binary subdivision schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="constants, difference rules, contraction search")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--K-max", type=int, default=32, dest="K_max")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--verbose", action="store_true",
                   help="list every difference rule and the whole contraction scan")
    p.set_defaults(func=cmd_analyze, verdict="ok", record_path=lambda a: a.out)

    p = sub.add_parser("compare", help="asymptotic similarity / equivalence report")
    _add_common(p, comparator=True)
    p.set_defaults(func=cmd_compare, verdict="ok",
                   record_path=lambda a: a.out and a.out + ".json")

    p = sub.add_parser("certify", help="convergence certificate against a stationary comparator")
    _add_common(p, comparator=True)
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--mu", type=float, default=None,
                   help="override the transferred contraction bound")
    p.set_defaults(func=cmd_certify, verdict="certified", record_path=lambda a: a.out)

    p = sub.add_parser("refine", help="decay report for a scheme run")
    _add_common(p, k_range=False)
    p.add_argument("--levels", type=int, default=12,
                   help="last level tabulated")
    p.add_argument("--initial", default="delta",
                   help="'delta', 'ones', or a JSON window file")
    p.add_argument("--halfwidth", type=int, default=8)
    p.add_argument("--certificate", default=None,
                   help="certificate JSON to check bounds against")
    p.set_defaults(func=cmd_refine, verdict="ok", record_path=lambda a: None)

    p = sub.add_parser("figure", help="reproduce the corner-cutting experiments")
    figures = p.add_subparsers(dest="which", required=True, metavar="{1,2}")
    fig1 = figures.add_parser("1", help="limit curves of five drifts of a corner-cutting ratio")
    fig1.add_argument("--gamma", type=float, default=2.0)
    fig1.add_argument("--levels", type=int, default=12)
    # figure 2 always refines to the level of its last trace
    fig2 = figures.add_parser("2", help="refinement traces of the divergence control")
    fig2.set_defaults(levels=1 + max(FIGURE2_ITERATIONS))
    for p in (fig1, fig2):
        p.add_argument("--halfwidth", type=int, default=8)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_figure, verdict="ok", record_path=lambda a: None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.report = {}
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_LOAD
    except (SubdivError, OSError) as exc:
        # commands read their inputs under their own guards, so an OSError
        # here comes from writing an output file or stdout; a stdout whose
        # reader is gone is pointed at the null device
        if isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        inconclusive = isinstance(exc, (TailNotReached, ContractionNotFound))
        reason = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "level", None) is not None:
            reason["level"] = exc.level
        record = {**args.report, args.verdict: False, "reason": reason}
        try:
            _emit_json(record, args.record_path(args))
        except OSError:
            _emit_json(record, None)
        print(f"{'inconclusive' if inconclusive else 'error'}: {reason['type']}: {exc}",
              file=sys.stderr)
        if isinstance(exc, EmptyOutput):
            print("hint: enlarge --halfwidth", file=sys.stderr)
        if isinstance(exc, ContractionNotFound) and exc.scan:
            n, K, mu = min(exc.scan, key=lambda cell: cell[2])
            print(f"closest miss: mu = {mu!r} at n = {n}, K = {K}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if inconclusive else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
