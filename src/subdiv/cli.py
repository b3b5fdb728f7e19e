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
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass

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
from .operators import check_budget, condition_a_search, contraction_scan
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

# A refine or figure run whose estimate exceeds operators.MEMORY_BUDGET is
# refused before it allocates anything (exit 3).  The estimate charges
# 12 bytes for each value the run computes at its deepest level, about
# length * 2**(levels - level + 1) values.  So it bounds what a run
# computes, not what it holds: refine holds a few blocks a level
# (tracemalloc: 3.7 MB for refine --levels 20, charged 204 MiB), and
# figure its final windows.  figure --out is charged 36 bytes a value: it
# also keeps traces, or figure 1's five windows, and builds the CSV bytes
# of 2**15 rows at a time (tracemalloc: 24.8 for figure 1 --levels 18
# --out, 35.8 at --levels 14, where those bytes are a large share, and
# 10.0 for figure 2 --out; the console script's figure 1 --levels 18 --out
# peaks at 138 MB RSS).
_ARRAY_BYTES = 12
_ROW_BYTES = 36
# Bytes analyze holds per listed level: the report's entry, with its
# parity sums and difference rule, and the level's rows in the scheme's
# table.  tracemalloc measured 996 a level for derham:gamma=2,alpha=1.5
# over --k-range 1:131072, with or without --out (which streams the JSON).
_REPORT_LEVEL_BYTES = 2048


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like A:B with integer levels A and B, got {text!r}"
        ) from None


def _join_k_ranges(argv: list[str]) -> list[str]:
    """``argv`` with each ``--k-range`` that a negative level follows
    joined to it with "=": argparse reads a separate "-3:4" as an option."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--k-range" and re.match(r"-\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _emit_json(obj: dict, out: str | None) -> None:
    """Write ``obj`` as indented JSON and a newline, streamed in pieces
    rather than built as one string."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


# Figure x columns are passed as their grids and formatted from the grid
# index J in int64 (``_dyadic_cells``): the m exact fraction digits of
# J * 2**-m stay below 10**m, which int64 holds up to level 18.
_GRID_LEVELS = 18
_COMMA, _CRLF = np.frombuffer(b",", np.uint8), np.frombuffer(b"\r\n", np.uint8)


@dataclass(frozen=True)
class _Grid:
    """A column of x-coordinates given by its grid: row i holds
    ``(start + i) * 2**-level``, the float that ``RefinementState.xs``
    computes."""

    start: int
    level: int
    length: int

    def __len__(self) -> int:
        return self.length


def _field_bytes(texts) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, NUL-padded."""
    fields = np.array(texts, dtype="S")
    return fields.view(np.uint8).reshape(len(fields), fields.itemsize)


def _repr_cells(column: np.ndarray) -> np.ndarray:
    """The fields of an array of 8-byte numbers: one repr per distinct bit
    pattern, gathered back through ``np.unique``'s inverse.  Keys are the
    bits, not the values: +0.0 and -0.0 compare equal but print
    differently, and NaNs compare unequal to each other.  Figure value
    columns are mostly +0.0, so most of their reprs are shared."""
    keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    return _field_bytes(list(map(repr, keys.view(column.dtype).tolist())))[inverse]


def _grid_cells(grid: _Grid, a: int, b: int) -> np.ndarray:
    """The fields of rows [a, b) of a grid column: ``_dyadic_cells`` within
    its domain, and elsewhere ``_repr_cells`` of the floats that
    ``RefinementState.xs`` computes."""
    J = np.arange(grid.start + a, grid.start + b, dtype=np.int64)
    m = grid.level
    A = np.abs(J)
    exact = ((A < 2**52) & (A >= -(-(1 << m) // 10**4)) if 0 <= m <= _GRID_LEVELS
             else np.zeros(len(J), bool))
    if exact.all():
        return _dyadic_cells(J, m)
    rest = _repr_cells(np.ldexp(J[~exact].astype(float), -m))
    if not exact.any():
        return rest
    fields = _dyadic_cells(J[exact], m)
    cells = np.zeros((len(J), max(fields.shape[1], rest.shape[1])), np.uint8)
    cells[exact, :fields.shape[1]] = fields
    cells[~exact, :rest.shape[1]] = rest
    return cells


def _dyadic_cells(J: np.ndarray, m: int) -> np.ndarray:
    """The reprs of ``x = J * 2**-m`` for ``0 <= m <= _GRID_LEVELS`` and
    ``2**m / 10**4 <= |J| < 2**52``, as NUL-padded rows of a uint8 matrix,
    computed in integers.  repr writes such an x in fixed point, with the
    shortest digits that read back as x.

    With ``A = |J|``, x has the integer part ``A >> m`` and the m exact
    fraction digits ``F = (A mod 2**m) * 5**m``.  A decimal reads back as
    x when it lies within half an ulp of x, ``2**(e - 53)`` for the binary
    exponent e of x: ``h = 5**m >> (53 - m - e)`` units of ``10**-m``,
    floored, which loses nothing since a rounding of F is off by whole
    units.  The interval is closed, since x's 53-bit mantissa is even for
    ``A < 2**52``.  (Below a power of two it is half as wide, but such an x
    is ``5**k * 10**-k`` and no shorter rounding comes near it.)  repr
    keeps the fewest fraction digits t whose rounding of F, half to even,
    is within h.  Passing is monotone in t, so the search goes down from m
    and drops each row at its first failure.  No rounding within h reaches
    the next integer, which lies at least ``5**m > h`` units away.
    """
    n = len(J)
    A = np.abs(J)
    I, F = A >> m, (A & ((1 << m) - 1)) * 5**m
    e = np.frexp(A.astype(float))[1] - 1 - m  # frexp's exponent is bit_length(A)
    h = np.int64(5**m) >> (53 - m - e)
    t = np.full(n, m)
    R = F.copy()  # F rounded to t digits
    live = np.arange(n)
    for d in range(m - 1, -1, -1):
        p = 10 ** (m - d)
        q, r = np.divmod(F[live], p)
        up = (2 * r > p) | ((2 * r == p) & (q % 2 == 1))
        ok = np.where(up, p - r, r) <= h[live]
        live = live[ok]
        if not len(live):
            break
        t[live] = d
        R[live] = (q[ok] + up[ok]) * p
    # one character a row, transposed once at the end: a sign, the integer
    # digits right-aligned against the point, the point, and the fraction
    # digits (at least one); NULs stand where a field has no character
    width, t = len(str(int(I.max(initial=0)))), np.maximum(t, 1)
    tw = int(t.max(initial=1))
    out = np.empty((width + 2 + tw, n), np.uint8)
    v = I
    for k in range(width, 0, -1):
        v, out[k] = np.divmod(v, 10)
    v = R // 10 ** max(m - tw, 0)
    for k in range(width + 1 + tw, width + 1, -1):
        v, out[k] = np.divmod(v, 10)
    out += ord("0")
    out[0], out[width + 1] = 0, ord(".")
    lead = I < 10 ** np.arange(width - 1, -1, -1)[:, None]
    lead[-1] = False  # the units digit of 0
    np.copyto(out[1:width + 1], 0, where=lead)
    np.copyto(out[width + 2:], 0, where=np.arange(tw)[:, None] >= t)
    neg = np.flatnonzero(J < 0)
    out[lead[:, neg].sum(0), neg] = ord("-")
    return np.ascontiguousarray(out.T)


def _cells(column, a: int, b: int) -> np.ndarray:
    """The CSV fields of rows [a, b) of a column (a ``_Grid``, an array or
    a sequence of numbers), as the NUL-padded rows of a uint8 matrix:
    each value's repr, or "" for None.

    A ``_Grid`` is formatted from its indices J in integers
    (``_dyadic_cells``) where that is exactly repr: at levels 0 to 18, for
    ``1e-4 <= |x|`` and ``|J| < 2**52``.  Elsewhere (0 and ``|x| < 1e-4``,
    which repr writes with an exponent, larger indices and deeper levels)
    its fields are the reprs of its floats.  An array of 8-byte numbers
    takes one repr per distinct bit pattern (``_repr_cells``).
    """
    if isinstance(column, _Grid):
        return _grid_cells(column, a, b)
    part = column[a:b]
    if isinstance(part, np.ndarray) and part.itemsize == 8:
        return _repr_cells(part)
    values = part.tolist() if isinstance(part, np.ndarray) else part
    return _field_bytes(["" if v is None else repr(v) for v in values])


def _rows(cells) -> np.ndarray:
    """The CSV bytes of the rows whose fields are the rows of ``cells``."""
    n = len(cells[0])
    comma, crlf = (np.broadcast_to(s, (n, len(s))) for s in (_COMMA, _CRLF))
    parts = [part for c in cells for part in (c, comma)]
    parts[-1] = crlf
    table = np.concatenate(parts, axis=1).ravel()
    return table[table != 0]


def _write_runs(files, tables) -> None:
    """Write each table, a tuple of equal-length columns (``_Grid``s,
    sequences or arrays of numbers), to its binary file as CSV rows, all
    tables in lockstep.

    The rows go by column, one run of at most ``refine.block_ranges``' rows
    at a time: each column's fields become the rows of one byte matrix
    (``_cells``: integer digits for a grid in its domain, repr elsewhere),
    the matrices and separators are concatenated, and the NUL padding is
    dropped with one mask.  So no more than one run's bytes are alive at a
    time.  A column that the table before also holds (the same object)
    reuses that table's fields of the run.
    """
    for a, b in refine.block_ranges(0, max(len(columns[0]) for columns in tables)):
        last = {}
        for fh, columns in zip(files, tables):
            if a < len(columns[0]):
                end = min(b, len(columns[0]))
                last = {id(c): last[id(c)] if id(c) in last else _cells(c, a, end)
                        for c in columns}
                fh.write(_rows([last[id(c)] for c in columns]))


def _write_csv(path: str, header: list[str], blocks) -> None:
    """Write CSV with the bytes ``csv.writer`` gives for these fields, in
    rows of at least two (it quotes a row of one empty field).

    ``blocks`` yields the tables of ``_write_runs``, written one after
    another.  A field is the repr of its value (``_cells``).
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for columns in blocks:
            _write_runs([fh], [columns])


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
    check_budget(_REPORT_LEVEL_BYTES * len(levels), f"a report on levels {k_lo} to {k_hi}")
    # build and derive the listed levels as one block; the reads of each
    # level below then find them held, and raise any error of this read
    # at its own level, after listing the levels before it
    with contextlib.suppress(SubdivError):
        scheme.rows(levels[0], levels[-1], rules=True)
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
    search = {"n_max": args.n_max, "K_max": args.K_max, "window": args.window}
    try:
        # the search also reads levels past the ones listed above
        witness = condition_a_search(scheme, **search)
    except ContractionNotFound as exc:
        report["scan"] = [list(c) for c in exc.scan]
        raise
    report["contraction"] = witness.to_dict()
    if args.verbose:
        report["scan"] = [list(c) for c in contraction_scan(scheme, **search)]
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
        # refine all five before writing, so a failure leaves no file
        peaks, columns = [], []
        for alpha in FIGURE1_ALPHAS:
            scheme = catalog.derham_nonstationary(args.gamma, alpha=alpha)
            state = refine.impulse(args.halfwidth, level=scheme.k0)
            sample = refine.limit_sample(scheme, state, args.levels)
            peaks.append((alpha, sample.peak))
            if args.out:
                # xs[0] * 2**level is the first index, exactly; the masks of
                # one gamma share their supports, so in practice the five
                # grids are one, formatted once a run
                grid = _Grid(int(np.ldexp(sample.xs[0], sample.level)), sample.level,
                             len(sample.xs))
                columns.append((next((x for x, _ in columns if x == grid), grid),
                                sample.values))
            del sample
        if args.out:
            with contextlib.ExitStack() as stack:
                files = [stack.enter_context(open(f"{args.out}_alpha_{alpha:+.1f}.csv", "wb"))
                         for alpha in FIGURE1_ALPHAS]
                for fh in files:
                    fh.write(b"x,value\r\n")
                _write_runs(files, columns)
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
            (np.full(len(st.window), st.level),
             _Grid(st.window.start, st.level, len(st.window)), st.window.values)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_k_ranges(argv))
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
            # name the option that set the window: figure has no --initial
            from_file = getattr(args, "initial", "delta") not in ("delta", "ones")
            print(f"hint: enlarge {'the --initial window' if from_file else '--halfwidth'}",
                  file=sys.stderr)
        if isinstance(exc, ContractionNotFound) and exc.scan:
            n, K, mu = min(exc.scan, key=lambda cell: cell[2])
            print(f"closest miss: mu = {mu!r} at n = {n}, K = {K}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if inconclusive else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
