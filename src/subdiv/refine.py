"""Refinement engine: iterate masks on finite data, track backward
differences, evaluate piecewise-linear interpolants, and measure the decay
that convergence certificates promise.

A run refines all its levels in one depth-first pass.  Each level's values
are made a block at a time from a few blocks of the level before, and the
block's differences, interpolant gap and difference-rule cross-check are
taken while it is fresh, so a run holds a few blocks a level, never a
whole window but the one it returns."""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NotConstantReproducing, OutOfDomain
from .masks import TOL, Mask
from .operators import Window, output_span
from .schemes import ConvergenceCertificate, SchemeSpec

# Indices per block in the passes over a level: the values a step of the
# depth-first pass refines are at most half a block, and the scans of
# ``delta_sup``, ``pl_gap`` and the CLI's CSV rows take a block at a time.
# The only window-sized arrays a pass keeps alive are the ones it reads and
# writes; a block's temporaries stay small.  On a 2-vCPU Xeon VM, 2**15 ran
# a level-19 decay_report a little faster than 2**14 or 2**16.
_BLOCK = 2**15


def block_ranges(lo: int, hi: int):
    """Consecutive half-open ranges ``(a, b)`` of at most ``_BLOCK``
    indices that cover ``[lo, hi)``."""
    return ((a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK))


@dataclass(frozen=True, eq=False)
class RefinementState:
    """Values attached to the dyadic grid 2**-level * Z, on a finite valid
    index interval.  Called with a point x, it evaluates their
    piecewise-linear interpolant there (``pl_eval``)."""

    level: int
    window: Window

    def domain(self) -> tuple[float, float]:
        """The x-span of the valid indices."""
        return (
            math.ldexp(float(self.window.start), -self.level),
            math.ldexp(float(self.window.stop - 1), -self.level),
        )

    def __call__(self, x: float) -> float:
        return pl_eval(self, x)

    @property
    def deltas(self) -> Window:
        """Backward differences of the values."""
        return self.window.diff()

    def xs(self) -> np.ndarray:
        """x-coordinates of the valid indices."""
        return np.ldexp(self.window.indices().astype(float), -self.level)

    def delta_sup(self) -> float:
        """Sup-norm of the backward differences, one block at a time."""
        v = self.window.values
        top = 0.0
        for a, b in block_ranges(1, len(v)):
            d = np.subtract(v[a:b], v[a - 1 : b - 1])
            top = np.maximum(top, np.abs(d, out=d).max())
        return float(top)


def impulse(halfwidth: int = 8, level: int = 0) -> RefinementState:
    """Unit impulse at index 0 padded with zeros on [-halfwidth, halfwidth]."""
    if halfwidth < 1:
        raise InvalidParameter("halfwidth must be at least 1")
    values = np.zeros(2 * halfwidth + 1)
    values[halfwidth] = 1.0
    return RefinementState(level, Window(-halfwidth, values))


def constant(value: float = 1.0, halfwidth: int = 8, level: int = 0) -> RefinementState:
    """``value`` on [-halfwidth, halfwidth]."""
    if halfwidth < 1:
        raise InvalidParameter("halfwidth must be at least 1")
    return RefinementState(level, Window(-halfwidth, np.full(2 * halfwidth + 1, value)))


class _Stencil:
    """A mask as a refinement pass convolves it.

    ``convolve`` of values zero-stuffed to arity 2, the first of them at
    index F, holds at position p the output at index p + 2 * F + base.  A
    one-coefficient mask c is indexed as the stencil (0, c, 0) one index
    lower, and numpy's result gets a +0.0 at either end: the outputs with
    an empty stencil that ``apply`` puts at the ends of a window.
    """

    __slots__ = ("coeffs", "support", "base", "width", "pad")

    def __init__(self, m: Mask):
        self.coeffs = np.array(m.coeffs)
        self.support = m.support
        self.pad = len(m) == 1
        self.base = m.base - self.pad
        self.width = len(m) + 2 * self.pad

    @property
    def keeps_zero(self) -> bool:
        """Whether every full-stencil sum over +0.0 values is +0.0: the
        coefficients are finite and one has its sign bit clear, so each
        product is +-0.0 and one is +0.0, and a round-to-nearest sum that
        holds a +0.0 is +0.0 in any order, fused or not."""
        c = self.coeffs.tolist()
        return all(map(math.isfinite, c)) and any(math.copysign(1.0, x) > 0 for x in c)

    def reads(self, lo: int, hi: int) -> tuple[int, int]:
        """The values [first, stop) whose convolution holds the outputs
        [lo, hi) as full-stencil sums.  Clamped to the ends of the data,
        they give there the partial sums of the whole data's convolution."""
        return (lo - self.base - self.width + 1) // 2, (hi - self.base + 2) // 2

    def convolve(self, up: np.ndarray) -> np.ndarray:
        conv = np.convolve(up, self.coeffs)
        return np.concatenate(([0.0], conv, [0.0])) if self.pad else conv


class _Work:
    """The scratch arrays the levels of a pass share, and the margins of
    the chunks they pass on.  A level writes the arrays only within a step,
    and no chunk lives in them but views of the read-only buffer of
    ``zeros``.

    A level leaves the last ``ahead`` values of a chunk to the next step,
    since the outputs that read them also need values past the chunk, and
    its chunks repeat the ``2 * back`` outputs before their new ones, so
    the next level finds there the ``back`` values its step repeats and the
    reach of its stencil.  Both margins follow from the locality N: every
    mask lies in [-N, N] and every rule in [-N, N - 1].
    """

    __slots__ = ("back", "ahead", "up", "tmp", "_zeros")

    def __init__(self, N: int, longest: int):
        self.ahead = N + 1
        self.back = 2 * N + 3
        span = min(longest, _BLOCK // 2 + 1) + self.back + self.ahead + N + 3
        self.up = np.zeros(2 * span)  # the odd entries stay zero
        self.tmp = np.empty(2 * span)
        self._zeros = None

    def zeros(self, n: int) -> np.ndarray:
        """n read-only +0.0 values: the outputs of a step that reads only
        +0.0.  They lie in an anonymous mapping, made at the first such
        step: the system fills it with zeros, and pages that are only read
        share one zero page, so the buffer holds no memory."""
        if self._zeros is None:
            self._zeros = np.frombuffer(mmap.mmap(-1, self.up.nbytes))
            self._zeros.setflags(write=False)
        return self._zeros[:n]


class _Level:
    """One level k of a run: the mask that refines the level's values, on
    the indices [lo, hi), into level k + 1's on [olo, ohi); the level's
    difference rule, when it has one to cross-check; and the maxima taken
    over the level so far: of its values' magnitude (sup), of the rule's
    disagreement with the refined differences (err), of the interpolant gap
    to level k + 1 (gap), and of level k + 1's differences (delta_next)."""

    __slots__ = ("level", "lo", "hi", "olo", "ohi", "mask", "rule",
                 "sup", "err", "gap", "delta_next")

    def __init__(self, scheme: SchemeSpec, k: int, lo: int, hi: int):
        if k < scheme.k0:
            raise InvalidParameter(
                f"state level {k} precedes the scheme's start {scheme.k0}"
            )
        m = scheme.mask_at(k)
        self.olo, n = output_span(m, lo, hi)
        self.level, self.lo, self.hi, self.ohi = k, lo, hi, self.olo + n
        self.mask = _Stencil(m)
        try:
            q = scheme.difference_mask_at(k)
        except NotConstantReproducing:
            q = None  # no difference rule to cross-check
        # a difference needs two values
        self.rule = _Stencil(q) if q is not None and hi - lo >= 2 else None
        self.sup = self.err = self.gap = self.delta_next = 0.0

    def refine(self, chunks, work: _Work, emit: bool, gaps: bool, deltas: bool):
        """Take level k's values as chunks and yield level k + 1's, when
        ``emit``, while taking the level's maxima: ``gap`` when ``gaps``,
        ``delta_next`` when ``deltas``, and ``sup`` and ``err`` when the level
        has a rule.

        A chunk is a ``(start, values)`` pair on the indices [start,
        start + len(values)); its new values begin where the chunk before it
        stopped, and the ones before them repeat earlier values.  Each step
        refines the values it owns, at most ``_BLOCK // 2`` of them, into the
        outputs they own: every output but those at the ends of a level is
        a full-stencil sum, which numpy computes bit for bit as ``apply``
        does, and the two ends are the partial sums at the ends of
        ``apply``'s whole-window convolution.  So neither the values nor
        the maxima depend on how the levels are blocked.  A step away from
        the ends that reads only +0.0, under a mask that ``keeps_zero``,
        takes no convolution: its outputs are +0.0 all the same.
        """
        lo, hi, olo, ohi = self.lo, self.hi, self.olo, self.ohi
        m, q, back, ahead = self.mask, self.rule, work.back, work.ahead
        keeps_zero = m.keeps_zero
        glo, ghi = max(olo, 2 * lo), min(ohi, 2 * hi - 1)
        if q is not None:
            qb, qt = q.support
            clo, chi = max(2 * lo + qt + 1, olo + 1), min(2 * hi + qb, ohi)

        def own(j):
            """The first output that value j owns, or the end of the level."""
            return ohi if j == hi else max(2 * j + m.base, olo)

        A = lo
        for start, vals in chunks:
            stop = start + len(vals)
            end = hi if stop == hi else stop - ahead - 1
            n, first = end - A, A
            if n <= 0:
                continue
            steps = -(-n // max(_BLOCK // 2, 1))
            for s in range(1, steps + 1):
                B = first + n * s // steps
                A0, B1 = max(A - back, lo), min(B + ahead, hi)
                P0, P, R, R1 = own(A0), own(A), own(B), own(B1)
                F, G = m.reads(P0, R1)
                full = lo <= F and G <= hi  # every output a full-stencil sum
                F, G = max(F, lo), min(G, hi)
                if F < start:  # the margins of _Work rule this out
                    raise RuntimeError(
                        f"level {self.level}: a chunk from index {start} lacks value {F}"
                    )
                v = vals[F - start : G - start]
                if full and keeps_zero and v[0] == v[-1] == 0.0 and not v.view(np.int64).any():
                    # all it reads is +0.0 (a nonzero end value spares the
                    # scan): the outputs are +0.0, and their differences, the
                    # rule's disagreement and the gap +-0.0, so no maximum moves
                    if emit:
                        yield P0, work.zeros(R - P0)
                    A = B
                    continue
                up = work.up[: 2 * len(v) - 1]
                up[::2] = v
                conv = m.convolve(up)
                out = conv[P0 - 2 * F - m.base : R1 - 2 * F - m.base]  # outputs [P0, R1)
                if q is not None:
                    own_v = v[A - F : B - F]
                    self.sup = np.maximum(self.sup, max(own_v.max(), -own_v.min()))
                D = max(P, olo + 1)
                if D < R and (q is not None or deltas):
                    # level k + 1's differences on [D, R)
                    d = np.subtract(out[D - P0 : R - P0], out[D - 1 - P0 : R - 1 - P0],
                                    out=work.tmp[: R - D])
                    if q is not None:
                        i0, i1 = max(D, clo), min(R, chi)
                        if i0 < i1:
                            self.err = np.maximum(self.err, self._disagreement(
                                v, F, d[i0 - D : i1 - D], i0, i1, work.up))
                    if deltas:
                        self.delta_next = np.maximum(self.delta_next, np.abs(d, out=d).max())
                g0, g1 = max(P, glo), min(R, ghi)
                if gaps and g0 < g1:
                    self.gap = np.maximum(self.gap, _span_gap(v, F, out, P0, g0, g1, work.tmp))
                if emit:
                    yield P0, out[: R - P0]
                A = B

    def _disagreement(self, v: np.ndarray, F: int, new: np.ndarray, i0: int, i1: int,
                      up: np.ndarray):
        """The largest distance over the indices [i0, i1) between level k + 1's
        differences ``new`` and the rule applied to level k's, whose values
        ``v`` from index F cover them."""
        q = self.rule
        j0, j1 = q.reads(i0, i1)
        j0, j1 = max(j0, self.lo + 1), min(j1, self.hi)
        u = up[: 2 * (j1 - j0) - 1]
        np.subtract(v[j0 - F : j1 - F], v[j0 - 1 - F : j1 - 1 - F], out=u[::2])
        dev = q.convolve(u)[i0 - 2 * j0 - q.base : i1 - 2 * j0 - q.base]
        dev -= new
        return np.abs(dev, out=dev).max()

    def check(self) -> None:
        """Raise when level k + 1's differences disagree with the level's
        difference rule applied to its own: by TOL, times the largest value
        once that exceeds 1.  A non-finite disagreement is refused, not
        passed."""
        if self.rule is None:
            return
        err = _finite(float(self.err), "difference-rule error", self.level)
        if err > TOL and err > TOL * float(self.sup):
            raise RuntimeError(
                f"difference rule disagrees with refined differences "
                f"by {err!r} at level {self.level}"
            )


def _levels(scheme: SchemeSpec, initial: RefinementState, depth: int):
    """The levels that refine ``initial`` to level ``depth``, and the error
    that stopped setting them up early, if one did.  A caller raises that
    error only once the levels before it pass their checks, in the order a
    run that refined one level at a time would meet them."""
    levels, lo, hi = [], initial.window.start, initial.window.stop
    for k in range(initial.level, depth):
        try:
            level = _Level(scheme, k, lo, hi)
        except Exception as exc:  # any error of mask_fn too, in its level's turn
            return levels, exc
        levels.append(level)
        lo, hi = level.olo, level.ohi
    return levels, None


def _refine(scheme: SchemeSpec, initial: RefinementState, levels: list,
            keep: bool = False, gaps: bool = False, deltas: int = 0) -> Window | None:
    """Refine ``initial`` through ``levels`` in one depth-first pass.  The
    first ``deltas`` levels take their ``delta_next``; with ``keep``, the
    values of the last level's refinement are returned as one window."""
    if not levels:
        return None
    work = _Work(scheme.N, max(level.hi - level.lo for level in levels))
    chunks = iter([(initial.window.start, initial.window.values)])
    last = len(levels) - 1
    for i, level in enumerate(levels):
        chunks = level.refine(chunks, work, keep or i < last, gaps, i < deltas)
    if not keep:
        for _ in chunks:
            pass
        return None
    lo, hi = levels[-1].olo, levels[-1].ohi
    values, seen = None, lo
    for start, vals in chunks:
        stop = start + len(vals)
        if values is None and start == lo and stop == hi:
            # the level came as one chunk, owned unless it is a view of
            # _Work's zeros (only a skipped step yields one)
            values = vals if vals.flags.writeable else vals.copy()
        else:
            if values is None:
                values = np.empty(hi - lo)
            values[seen - lo : stop - lo] = vals[seen - start :]
        seen = stop
    return Window._adopt(lo, values)


def refine_once(state: RefinementState, scheme: SchemeSpec) -> RefinementState:
    """One refinement step: apply the level mask, move to the finer grid.

    When the level mask reproduces constants, the differences of the new
    values are cross-checked against the level's difference rule, read from
    the scheme's level table, applied to the old differences; disagreement
    indicates an indexing bug and raises RuntimeError.
    """
    levels, failure = _levels(scheme, state, state.level + 1)
    if failure is not None:
        raise failure
    with np.errstate(over="ignore", invalid="ignore"):
        window = _refine(scheme, state, levels, keep=True)
    levels[0].check()
    return RefinementState(state.level + 1, window)


def _finite(value: float, what: str, level: int) -> float:
    """``value``, refused when the data hold NaN or inf or overflowed."""
    if not math.isfinite(value):
        raise InvalidParameter(
            f"the {what} at level {level} is {value!r}: the data hold NaN "
            "or inf, or overflowed"
        )
    return value


def pl_eval(f: RefinementState, x: float) -> float:
    """The piecewise-linear interpolant of ``f`` at x: linear interpolation
    between the bracketing grid points."""
    t = math.ldexp(float(x), f.level)
    start, last = f.window.start, f.window.stop - 1
    if not start <= t <= last:
        lo, hi = f.domain()
        raise OutOfDomain(f"x = {x!r} outside the valid span [{lo!r}, {hi!r}]")
    v = f.window.values
    if start == last:
        return float(v[0])
    i = min(int(math.floor(t)), last - 1)
    frac = t - i
    return float((1.0 - frac) * v[i - start] + frac * v[i - start + 1])


def pl_gap(coarse: Window, fine: Window) -> float:
    """Sup distance between the interpolants of consecutive levels.

    ``coarse`` sits on the grid 2**-k * Z and ``fine`` on 2**-(k+1) * Z.
    Both interpolants are piecewise linear and the fine breakpoints contain
    the coarse ones, so the sup over the common x-span is attained at a fine
    breakpoint: fine index 2j is compared with coarse point j, fine index
    2j+1 with the midpoint of coarse points j and j+1.
    """
    lo = max(fine.start, 2 * coarse.start)
    hi = min(fine.stop, 2 * coarse.stop - 1)
    gap, tmp = 0.0, np.empty(min(max(hi - lo, 0), _BLOCK) // 2 + 1)
    for a, b in block_ranges(lo, hi):
        gap = np.maximum(
            gap, _span_gap(coarse.values, coarse.start, fine.values, fine.start, a, b, tmp)
        )
    return float(gap)


def _span_gap(c: np.ndarray, c0: int, f: np.ndarray, f0: int, lo: int, hi: int,
              tmp: np.ndarray):
    """``pl_gap`` over the fine indices [lo, hi), for coarse values ``c``
    from index c0 and fine values ``f`` from f0 that cover them; ``tmp``
    holds at least (hi - lo + 1) // 2 values."""
    # fine index 2j against coarse point j
    fv = f[lo + lo % 2 - f0 : hi - f0 : 2]
    j = (lo + 1) // 2 - c0
    dev = np.subtract(c[j : j + len(fv)], fv, out=tmp[: len(fv)])
    gap = np.abs(dev, out=dev).max(initial=0.0)
    # fine index 2j+1 against the midpoint of coarse points j and j+1
    fv = f[lo + 1 - lo % 2 - f0 : hi - f0 : 2]
    j = lo // 2 - c0
    dev = np.add(c[j : j + len(fv)], c[j + 1 : j + 1 + len(fv)], out=tmp[: len(fv)])
    dev *= 0.5
    dev -= fv
    return np.maximum(gap, np.abs(dev, out=dev).max(initial=0.0))


def cauchy_norm(scheme: SchemeSpec, state: RefinementState) -> float:
    """Sup distance between this level's interpolant and the next one's."""
    nxt = refine_once(state, scheme)
    return pl_gap(state.window, nxt.window)


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Per-level difference and interpolant-gap norms, the fitted decay
    rates, and (when a certificate is supplied) the certified bounds.

    ``rho_emp`` is the per-level factor fitted to the interpolant gaps --
    the series whose geometric decay is what convergence means.  The
    difference norms can keep shrinking on a divergent scheme (a drifting
    constant mode never shows up in differences), so their fitted factor
    is reported separately as ``rho_delta``.
    """

    start_level: int
    ks: tuple[int, ...]
    delta_norms: tuple[float, ...]
    cauchy_norms: tuple[float, ...]
    rho_emp: float | None
    rho_delta: float | None
    delta_bounds: tuple[float, ...] | None = None
    cauchy_bounds: tuple[float, ...] | None = None
    bounds_hold: bool | None = None

    @property
    def non_contractive(self) -> bool:
        return self.rho_emp is not None and self.rho_emp >= 1.0

    def rows(self) -> list[tuple[int, float, float, float | None]]:
        """(k, delta_norm, cauchy_norm, bound) rows for CSV output; the
        bound column is the certified interpolant-gap bound."""
        out = []
        for i, k in enumerate(self.ks):
            bound = self.cauchy_bounds[i] if self.cauchy_bounds else None
            out.append((k, self.delta_norms[i], self.cauchy_norms[i], bound))
        return out


def _fit_rate(ks: tuple[int, ...], vals: tuple[float, ...]) -> float | None:
    """Least-squares per-level decay factor over the last half of levels
    (the early levels carry the pre-asymptotic transient)."""
    half = len(ks) // 2
    if all(v == 0.0 for v in vals[half:]):
        return 0.0
    pts = [(k, v) for k, v in zip(ks[half:], vals[half:]) if v > 0]
    if len(pts) < 2:
        return None
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.log([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(np.exp(slope))


def _check_certified_start(scheme: SchemeSpec, initial: RefinementState,
                           certificate: ConvergenceCertificate | None) -> None:
    """A certificate bounds the products of the scheme's rules from its k0
    on, so it says nothing about a run that starts at a later level."""
    if certificate is not None and initial.level != scheme.k0:
        raise InvalidParameter(
            f"certified bounds hold for a run that starts at the scheme's level "
            f"{scheme.k0}, not at level {initial.level}"
        )


def decay_report(
    scheme: SchemeSpec,
    initial: RefinementState,
    k_max: int,
    certificate: ConvergenceCertificate | None = None,
) -> DecayReport:
    """Tabulate difference norms and interpolant gaps up to level k_max.

    Divergence is a reported outcome, never an error; data that hold NaN
    or inf, or overflow, raise InvalidParameter naming the level.  With a
    certificate, which needs a run that starts at the scheme's k0, each
    level k is checked against C1 * mu_hat**max(0, k - k_star) *
    ||initial differences|| for the differences and Gamma * mu_hat**max(0,
    k - k_star) * ... for the gaps.
    """
    if k_max < initial.level + 4:
        raise InvalidParameter("k_max must allow at least 4 levels")
    _check_certified_start(scheme, initial, certificate)
    levels, failure = _levels(scheme, initial, k_max + 1)
    # every norm and gap is checked to be finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = initial.delta_sup()
        # the deepest level's delta_next is a norm of level k_max + 1, which
        # is not reported, unless set-up stopped short of it
        _refine(scheme, initial, levels, gaps=True,
                deltas=len(levels) - (failure is None))
    delta_list = [d0] + [float(level.delta_next) for level in levels]
    for level, delta in zip(levels, delta_list):
        _finite(delta, "difference norm", level.level)
        level.check()
        _finite(float(level.gap), "interpolant gap", level.level)
    if failure is not None:
        _finite(delta_list[-1], "difference norm", initial.level + len(levels))
        raise failure
    # ks is built only now: a run that starts below the scheme's start,
    # refused above, would otherwise size a tuple of any length.
    ks = tuple(range(initial.level, k_max + 1))
    delta_norms = tuple(delta_list[: len(ks)])
    cauchy_norms = tuple(float(level.gap) for level in levels)
    rho = _fit_rate(ks, cauchy_norms)
    rho_delta = _fit_rate(ks, delta_norms)

    delta_bounds = cauchy_bounds = None
    bounds_hold = None
    if certificate is not None:
        c = certificate
        delta_bounds = tuple(c.C1 * c.mu_hat ** max(0, k - c.k_star) * d0 for k in ks)
        cauchy_bounds = tuple(c.Gamma * c.mu_hat ** max(0, k - c.k_star) * d0 for k in ks)
        bounds_hold = all(
            m <= b for m, b in zip(delta_norms, delta_bounds)
        ) and all(m <= b for m, b in zip(cauchy_norms, cauchy_bounds))
    return DecayReport(
        start_level=initial.level, ks=ks, delta_norms=delta_norms,
        cauchy_norms=cauchy_norms, rho_emp=rho, rho_delta=rho_delta,
        delta_bounds=delta_bounds, cauchy_bounds=cauchy_bounds,
        bounds_hold=bounds_hold,
    )


@dataclass(frozen=True, eq=False)
class LimitSample:
    """Grid samples of a deeply refined state, standing in for the limit
    function; ``error_bound`` is the certified sup-distance to the true
    limit when a certificate was supplied."""

    level: int
    xs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    error_bound: float | None = None

    @property
    def peak(self) -> float:
        return float(np.max(self.values))


def limit_sample(
    scheme: SchemeSpec,
    initial: RefinementState,
    depth: int,
    certificate: ConvergenceCertificate | None = None,
) -> LimitSample:
    """Refine to level ``depth`` and return (x, value) samples, with the
    certified error bound when a certificate is given (the run must then
    start at the scheme's k0): the sum of the certified gap bounds from
    ``depth`` on, (C * mu_hat**max(0, depth - k_star) + Gamma * max(0,
    k_star - depth)) * ||initial differences||."""
    if depth < max(1, initial.level + 1):
        raise InvalidParameter("depth must exceed the starting level")
    _check_certified_start(scheme, initial, certificate)
    levels, failure = _levels(scheme, initial, depth)
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = initial.delta_sup()
        window = _refine(scheme, initial, levels, keep=failure is None)
    for level in levels:
        level.check()
    if failure is not None:
        raise failure
    bound = None
    if certificate is not None:
        c = certificate
        bound = (c.C * c.mu_hat ** max(0, depth - c.k_star)
                 + c.Gamma * max(0, c.k_star - depth)) * d0
    final = RefinementState(depth, window)
    return LimitSample(
        level=depth, xs=final.xs(), values=window.values,
        error_bound=bound,
    )
