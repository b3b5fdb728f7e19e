"""Seeded workloads of the subdiv benchmark.

Each workload builds its inputs from the seed in its constructor, given the
number of distinct ops the run makes (ops 0 .. ops - 1), and ``warmup``
runs one untimed op; both are part of set-up.  ``op`` runs one timed
operation.  ``check`` judges its result outside the timed region and
returns None for a correct op, ``BOUND`` when a certificate's own bound
fails in a refinement run the way the known defect does (``bound_outcome``;
counted as a failed op), or a message for any other wrong result.
``finish`` runs once after the loop; it may revise outcomes (the file
checks of cli_export) and returns notes about the inputs the seed produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
from collections import Counter

from subdiv import catalog, cli, operators, refine, schemes
from subdiv.masks import Mask

BOUND = "bound"

# An overshoot of at most this many ulps of the bound is rounding: the
# signature of the known defect that BOUND stands for.
DEFECT_ULPS = 4

# Corner-cutting ranges of refine_deep and cli_export.
DEEP_GAMMA = (1.5, 3.0)
DEEP_ALPHA = (0.5, 2.5)

# The CLI's default --halfwidth, used by `refine` and `figure 1` below.
CLI_HALFWIDTH = 8


def run_cli(argv: list[str]) -> int:
    """One in-process ``subdiv`` invocation with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def corner_args(gamma: float, alpha: float) -> tuple[str, str]:
    """CLI scheme strings for derham(gamma, alpha) and its stationary base."""
    return (f"derham:gamma={gamma!r},alpha={alpha!r}",
            f"derham_stationary:gamma={gamma!r}")


def certify_via_cli(gamma: float, alpha: float, path: str) -> dict:
    """``subdiv certify --out`` for a corner-cutting pair, read back."""
    scheme, comparator = corner_args(gamma, alpha)
    argv = ["certify", "--scheme", scheme, "--comparator", comparator, "--out", path]
    code = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"subdiv {' '.join(argv)} exited with {code}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["certificate"]


def as_json(cert) -> dict:
    return json.loads(json.dumps(cert.to_dict()))


def certificate_problem(cert) -> str | None:
    """Internal consistency of a certificate: C = Gamma/(1-mu_hat), mu* < mu < 1."""
    if cert.C != cert.Gamma / (1.0 - cert.mu_hat):
        return f"C = {cert.C!r} is not Gamma/(1-mu_hat)"
    if not cert.mu_star < cert.mu < 1.0:
        return f"mu* = {cert.mu_star!r}, mu = {cert.mu!r} not ordered below 1"
    return None


def bound_outcome(cert, report) -> str | None:
    """None when the certified bounds hold.  BOUND when they fail only as the
    known defect does: ``K = 1``, every violation at the start level, each
    at most DEFECT_ULPS ulps over its bound.  Otherwise a message."""
    if report.bounds_hold is True:
        return None
    violations = [
        (kind, k, norm, bound)
        for kind, norms, bounds in (("delta", report.delta_norms, report.delta_bounds),
                                    ("gap", report.cauchy_norms, report.cauchy_bounds))
        for k, norm, bound in zip(report.ks, norms, bounds or ())
        if not norm <= bound
    ]
    if not violations:
        return f"bounds_hold = {report.bounds_hold!r} with no violated bound"
    if cert.K == 1 and all(k == report.start_level and norm - bound <= DEFECT_ULPS * math.ulp(bound)
                           for _, k, norm, bound in violations):
        return BOUND
    kind, k, norm, bound = violations[0]
    return (f"certified {kind} bound violated at k = {k}: {norm!r} > {bound!r} "
            f"(K = {cert.K}, {len(violations)} violations)")


class RefineDeep:
    """decay_report of derham(gamma, alpha) from a level-1 impulse to level 20,
    checked against a certificate issued by ``subdiv certify`` in set-up."""

    def __init__(self, seed: int, tiny: bool, workdir: str, ops: int):
        rng = random.Random(seed)
        self.gamma = rng.uniform(*DEEP_GAMMA)
        self.alpha = rng.uniform(*DEEP_ALPHA)
        self.levels = 12 if tiny else 20
        cert = certify_via_cli(self.gamma, self.alpha, os.path.join(workdir, "cert.json"))
        self.cert = schemes.ConvergenceCertificate.from_dict(cert)

    def op(self, i: int):
        scheme = catalog.derham_nonstationary(self.gamma, alpha=self.alpha)
        return refine.decay_report(
            scheme, refine.impulse(8, level=1), self.levels, certificate=self.cert
        )

    def warmup(self):
        return self.op(-1)

    def check(self, i: int, report) -> str | None:
        if report.rho_emp is None or not report.rho_emp < 1.0:
            return f"rho_emp = {report.rho_emp!r} is not below 1"
        return bound_outcome(self.cert, report)

    def finish(self, outcomes: list) -> tuple[list, dict]:
        return outcomes, {
            "gamma": self.gamma, "alpha": self.alpha, "levels": self.levels,
            "K": {str(self.cert.K): 1}, "n": self.cert.n,
        }


def _tension_mask(w: float) -> Mask:
    return Mask(-3, (-w, 0.0, 0.5 + w, 1.0, 0.5 + w, 0.0, -w))


_GOLDEN = (1 + 5**0.5) / 2


def lattice_point(j: int, n: int, shift: tuple[float, float]) -> tuple[float, float]:
    """Point j of an n-point rank-1 lattice on the unit square, shifted mod 1.
    The generator is near n/phi (a Fibonacci lattice when n is a Fibonacci
    number); each coordinate puts exactly one point in each of n equal strips."""
    z = round(n / _GOLDEN)
    while math.gcd(z, n) != 1:
        z += 1
    return (shift[0] + j / n) % 1.0, (shift[1] + j * z % n / n) % 1.0


class CertifySweep:
    """Certify, analyze and shallowly refine one seeded scheme per op.

    Ops cycle corner, corner, tension: two thirds corner-cutting pairs, one
    third level-dependent 4-point tension rules.  The items of each kind are
    the points of a rank-1 lattice over its parameter box, as many points as
    the run has items of that kind, shifted by an offset the seed draws.  So
    every item is uniform on the box while each run covers the box evenly.
    The cost is steep in a small corner of each box (K, and so the C1 prefix,
    grows near gamma = 1, alpha = 20 and near w = 0.29, b = 0.25); even
    coverage keeps the share of items there, and so the run's cost mix and
    tail, from hinging on a few draws.
    """

    CORNER = ((1.0, 4.0), (-0.4, 20.0))  # gamma, alpha
    TENSION = ((0.26, 0.29), (0.05, 0.25))  # w, b

    def __init__(self, seed: int, tiny: bool, workdir: str, ops: int):
        rng = random.Random(seed)
        self.k_range = (1, 64) if tiny else (1, 256)
        self.shift = {"corner": (rng.random(), rng.random()),
                      "tension": (rng.random(), rng.random())}
        self.size = {"corner": ops - ops // 3, "tension": ops // 3}
        # Lattice order would run the costly corner of a box as one burst;
        # a shuffled order spreads it over the run, so one slow spell of the
        # machine does not land on the whole tail.
        self.order = {kind: rng.sample(range(n), n) for kind, n in self.size.items()}
        self.k_by_op: dict[int, str] = {}
        # The warm-up item is cheap (small alpha gives K = 1), so set-up time
        # does not depend on where the seed lands in the heavy tail.
        self.warmup_item = ("corner", rng.uniform(*self.CORNER[0]), rng.uniform(-0.4, 0.6))

    def item(self, i: int) -> tuple:
        kind, j = ("tension", i // 3) if i % 3 == 2 else ("corner", i - i // 3)
        (p_lo, p_hi), (q_lo, q_hi) = self.CORNER if kind == "corner" else self.TENSION
        u, v = lattice_point(self.order[kind][j], self.size[kind], self.shift[kind])
        return kind, p_lo + u * (p_hi - p_lo), q_lo + v * (q_hi - q_lo)

    @staticmethod
    def _schemes(item: tuple):
        kind, p, q = item
        if kind == "corner":
            return tuple(catalog.parse_scheme_arg(s) for s in corner_args(p, q))
        base = _tension_mask(p)
        target = schemes.formula_scheme(
            lambda k: _tension_mask(p + q / k), k0=1, N=3,
            name=f"tension(w={p!r}, b={q!r})",
            analytic=schemes.AnalyticSimilarity(base, eps_is_o1=True, eps_summable=False),
        )
        return target, schemes.stationary_scheme(base, N=3, name=f"tension(w={p!r})")

    def _run(self, item: tuple):
        target, comparator = self._schemes(item)
        cert = schemes.certify_theorem4(target, comparator, k_range=self.k_range)
        witness = operators.condition_a_search(target)
        report = refine.decay_report(target, refine.impulse(8, level=1), 12, certificate=cert)
        return item, cert, witness, report

    def warmup(self):
        return self._run(self.warmup_item)

    def op(self, i: int):
        return self._run(self.item(i))

    def check(self, i: int, result) -> str | None:
        item, cert, witness, report = result
        self.k_by_op[i] = f"{item[0]}:K={cert.K}"
        problem = certificate_problem(cert)
        if problem:
            return problem
        if not witness.mu < 1.0:
            return f"condition_a_search returned mu = {witness.mu!r}"
        return bound_outcome(cert, report)

    def finish(self, outcomes: list) -> tuple[list, dict]:
        return outcomes, {"K": dict(sorted(Counter(self.k_by_op.values()).items()))}


class CliExport:
    """One ``subdiv`` session per op, in the README's order, writing files."""

    def __init__(self, seed: int, tiny: bool, workdir: str, ops: int):
        rng = random.Random(seed)
        self.gamma = rng.uniform(*DEEP_GAMMA)
        self.alpha = rng.uniform(*DEEP_ALPHA)
        self.refine_levels = 10 if tiny else 16
        self.figure1_levels = 8 if tiny else 14
        self.figure2_halfwidth = 2 if tiny else 8
        self.workdir = workdir
        self.cert_path = os.path.join(workdir, "cert.json")
        self.decay_path = os.path.join(workdir, "decay.csv")
        self.fig1_prefix = os.path.join(workdir, "fig1")
        self.fig2_path = os.path.join(workdir, "fig2.csv")
        scheme, comparator = corner_args(self.gamma, self.alpha)
        self.commands = [
            ["certify", "--scheme", scheme, "--comparator", comparator,
             "--out", self.cert_path],
            ["refine", "--scheme", scheme, "--levels", str(self.refine_levels),
             "--certificate", self.cert_path, "--out", self.decay_path],
            ["figure", "1", "--gamma", repr(self.gamma),
             "--levels", str(self.figure1_levels), "--out", self.fig1_prefix],
            ["figure", "2", "--halfwidth", str(self.figure2_halfwidth),
             "--out", self.fig2_path],
        ]
        self.sessions: list[dict] = []

    def op(self, i: int):
        return [run_cli(argv) for argv in self.commands]

    def warmup(self):
        return self.op(-1)

    def _outputs(self) -> list[str]:
        return sorted(os.path.join(self.workdir, f) for f in os.listdir(self.workdir))

    def _digests(self) -> dict[str, str]:
        digests = {}
        for path in self._outputs():
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.file_digest(fh, "sha256").hexdigest()
        return digests

    def check(self, i: int, codes) -> str | None:
        self.sessions.append(self._digests())
        if any(codes):
            return f"exit codes {codes}"
        return None  # contents are verified in finish()

    def finish(self, outcomes: list) -> tuple[list, dict]:
        """Verify the files the last session left, then hold every session
        to byte identity with them (identical invocations must write
        identical files)."""
        problem = self.verify_files()
        verified = self._digests()
        revised = []
        for outcome, digests in zip(outcomes, self.sessions):
            if outcome is None and problem:
                outcome = problem
            elif outcome is None and digests != verified:
                outcome = "output files differ from the verified session"
            revised.append(outcome)
        with open(self.cert_path, encoding="utf-8") as fh:
            k = json.load(fh)["certificate"]["K"]
        return revised, {
            "gamma": self.gamma, "alpha": self.alpha, "K": {str(k): 1},
            "bytes_per_session": sum(os.path.getsize(p) for p in self._outputs()),
            "sha256": verified,
        }

    def verify_files(self) -> str | None:
        """Re-parse every output file and compare it exactly with what the
        library returns for the same calls."""
        g = self.gamma
        target = catalog.derham_nonstationary(g, alpha=self.alpha)
        direct = schemes.certify_theorem4(
            target, catalog.derham_stationary(g), k_range=(1, 64)
        )
        with open(self.cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)["certificate"]
        if as_json(direct) != cert:
            return "cert.json differs from certify_theorem4"
        report = refine.decay_report(
            target, refine.impulse(CLI_HALFWIDTH, level=1), self.refine_levels,
            certificate=schemes.ConvergenceCertificate.from_dict(cert),
        )
        expected = {self.decay_path: (["k", "delta_norm", "cauchy_norm", "bound"], report.rows())}
        for alpha in cli.FIGURE1_ALPHAS:
            sample = refine.limit_sample(
                catalog.derham_nonstationary(g, alpha=alpha),
                refine.impulse(CLI_HALFWIDTH, level=1), self.figure1_levels,
            )
            expected[f"{self.fig1_prefix}_alpha_{alpha:+.1f}.csv"] = (
                ["x", "value"], zip(sample.xs.tolist(), sample.values.tolist())
            )
        expected[self.fig2_path] = (["k", "x", "value"], self._figure2_rows())
        if sorted([*expected, self.cert_path]) != self._outputs():
            return f"unexpected output files {self._outputs()}"
        for path, (header, rows) in expected.items():
            problem = _compare_csv(path, header, rows)
            if problem:
                return f"{os.path.basename(path)}: {problem}"
        return None

    def _figure2_rows(self):
        scheme = catalog.perturbed_chaikin()
        state = refine.impulse(self.figure2_halfwidth, level=scheme.k0)
        for step in range(1, max(cli.FIGURE2_ITERATIONS) + 1):
            state = refine.refine_once(state, scheme)
            if step in cli.FIGURE2_ITERATIONS:
                yield from zip(itertools.repeat(state.level), state.xs().tolist(),
                               state.window.values.tolist())


def _compare_csv(path: str, header: list[str], rows) -> str | None:
    """Every field must read back exactly: float() of the written repr
    equals the library's value, and an empty field stands for None."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return "header differs"
        for n, (line, row) in enumerate(itertools.zip_longest(reader, rows), 1):
            if line is None or row is None:
                return f"row count differs at row {n}"
            if [None if f == "" else float(f) for f in line] != list(row):
                return f"row {n} reads {line}, expected {row}"
    return None


WORKLOADS = {
    "refine_deep": RefineDeep,
    "certify_sweep": CertifySweep,
    "cli_export": CliExport,
}

# Planned ops per second of each workload, measured on a 2-vCPU 2.1 GHz
# Xeon VM (Python 3.11, numpy 2.4).  A run of --seconds makes that many
# seconds' worth of ops, a number fixed by --seconds alone: a loop that
# stopped on elapsed time would run a different number of ops each time,
# and so count a different number of failed ops for the same seed.
PLANNED_OPS_PER_S = {
    "refine_deep": 0.48,
    "certify_sweep": 7.0,
    "cli_export": 0.2,
}


def op_count(workload: str, seconds: float) -> int:
    """Timed ops in a run of ``seconds`` seconds."""
    return max(1, round(seconds * PLANNED_OPS_PER_S[workload]))
