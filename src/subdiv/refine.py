"""Refinement engine: iterate masks on finite data, track backward
differences, evaluate piecewise-linear interpolants, and measure the decay
that convergence certificates promise."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, OutOfDomain
from .masks import TOL, Mask, difference_mask, reproduces_constants
from .operators import Window, apply, block_ranges
from .schemes import ConvergenceCertificate, SchemeSpec


@dataclass(frozen=True, eq=False)
class RefinementState:
    """Values attached to the dyadic grid 2**-level * Z, on a finite valid
    index interval."""

    level: int
    window: Window

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


def make_state(window: Window, level: int = 0) -> RefinementState:
    return RefinementState(level=level, window=window)


def impulse(halfwidth: int = 8, level: int = 0) -> RefinementState:
    """Unit impulse at index 0 padded with zeros on [-halfwidth, halfwidth]."""
    if halfwidth < 1:
        raise InvalidParameter("halfwidth must be at least 1")
    values = np.zeros(2 * halfwidth + 1)
    values[halfwidth] = 1.0
    return make_state(Window(-halfwidth, values), level)


def constant(value: float = 1.0, halfwidth: int = 8, level: int = 0) -> RefinementState:
    return make_state(Window(-halfwidth, np.full(2 * halfwidth + 1, value)), level)


def refine_once(state: RefinementState, scheme: SchemeSpec) -> RefinementState:
    """One refinement step: apply the level mask, move to the finer grid.

    When the level mask reproduces constants, the differences of the new
    values are cross-checked against the difference rule applied to the old
    differences; disagreement indicates an indexing bug and raises
    RuntimeError.
    """
    if state.level < scheme.k0:
        raise InvalidParameter(
            f"state level {state.level} precedes the scheme's start {scheme.k0}"
        )
    m = scheme.mask_at(state.level)
    new_window = apply(m, state.window)
    if reproduces_constants(m):
        _check_difference_rule(difference_mask(m), state, new_window)
    return RefinementState(state.level + 1, new_window)


def _finite(value: float, what: str, level: int) -> float:
    """``value``, refused when the data hold NaN or inf or overflowed."""
    if not math.isfinite(value):
        raise InvalidParameter(
            f"the {what} at level {level} is {value!r}: the data hold NaN "
            "or inf, or overflowed"
        )
    return value


def _check_difference_rule(q: Mask, state: RefinementState, new: Window) -> None:
    """Compare ``apply(q, old differences)`` with the new differences at
    every index where both are defined, one block of indices at a time.
    They may differ by TOL, times the largest old value once that exceeds
    1; a non-finite difference is refused, not passed."""
    old = state.window
    if len(old) < 2:
        return
    mb, mt = q.support  # type: ignore[misc]
    # apply's valid range for the old differences, which sit on
    # [old.start + 1, old.stop - 1]; the new ones start at new.start + 1.
    lo = max(2 * old.start + mt + 1, new.start + 1)
    hi = min(2 * old.stop + mb, new.stop)
    err = 0.0
    for a, b in block_ranges(lo, hi):
        # the old differences j0..j1 are those whose stencil reaches [a, b)
        j0, j1 = (a - mt + 1) // 2, (b - 1 - mb) // 2
        via = apply(q, old.span(j0 - 1, j1 + 1).diff())
        dev = via.span(a, b).values - new.span(a - 1, b).diff().values
        err = np.maximum(err, np.abs(dev, out=dev).max())
    err = _finite(float(err), "difference-rule error", state.level)
    if err > TOL and err > TOL * old.sup():
        raise RuntimeError(
            f"difference rule disagrees with refined differences "
            f"by {err!r} at level {state.level}"
        )


@dataclass(frozen=True, eq=False)
class PLFunction:
    """Piecewise-linear interpolant of a value window on its dyadic grid."""

    level: int
    window: Window

    def domain(self) -> tuple[float, float]:
        return (
            math.ldexp(float(self.window.start), -self.level),
            math.ldexp(float(self.window.stop - 1), -self.level),
        )

    def __call__(self, x: float) -> float:
        return pl_eval(self, x)


def pl_function(state: RefinementState) -> PLFunction:
    return PLFunction(state.level, state.window)


def pl_eval(f: PLFunction, x: float) -> float:
    """Linear interpolation between the bracketing grid points."""
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
    gap = 0.0
    for a, b in block_ranges(lo, hi):
        gap = np.maximum(gap, _span_gap(coarse, fine, a, b - 1))
    return float(gap)


def _span_gap(coarse: Window, fine: Window, lo: int, hi: int) -> float:
    """``pl_gap`` over the fine indices lo..hi, which both windows cover."""
    c, stop = coarse.values, hi - fine.start + 1
    # fine index 2j against coarse point j
    fv = fine.values[lo + lo % 2 - fine.start : stop : 2]
    j = (lo + 1) // 2 - coarse.start
    dev = c[j : j + len(fv)] - fv
    gap = np.abs(dev, out=dev).max(initial=0.0)
    # fine index 2j+1 against the midpoint of coarse points j and j+1
    fv = fine.values[lo + 1 - lo % 2 - fine.start : stop : 2]
    j = lo // 2 - coarse.start
    dev = c[j : j + len(fv)] + c[j + 1 : j + 1 + len(fv)]
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


def decay_report(
    scheme: SchemeSpec,
    initial: RefinementState,
    k_max: int,
    certificate: ConvergenceCertificate | None = None,
) -> DecayReport:
    """Tabulate difference norms and interpolant gaps up to level k_max.

    Divergence is a reported outcome, never an error; data that hold NaN
    or inf, or overflow, raise InvalidParameter naming the level.  With a
    certificate, each level is checked against
    C1 * mu_hat**k * ||initial differences|| for the differences and
    Gamma * mu_hat**k * ... for the gaps.
    """
    if k_max < initial.level + 4:
        raise InvalidParameter("k_max must allow at least 4 levels")
    # ks is built after the loop: refine_once first refuses a level below
    # the scheme's start, which would otherwise size a tuple of any length.
    levels = range(initial.level, k_max + 1)
    delta_list, gap_list = [], []
    s = initial
    # every norm and gap is checked to be finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in levels:
            delta_list.append(_finite(s.delta_sup(), "difference norm", s.level))
            nxt = refine_once(s, scheme)
            gap_list.append(_finite(pl_gap(s.window, nxt.window), "interpolant gap", s.level))
            s = nxt
    ks = tuple(levels)
    delta_norms, cauchy_norms = tuple(delta_list), tuple(gap_list)
    rho = _fit_rate(ks, cauchy_norms)
    rho_delta = _fit_rate(ks, delta_norms)

    delta_bounds = cauchy_bounds = None
    bounds_hold = None
    if certificate is not None:
        d0 = initial.delta_sup()
        delta_bounds = tuple(
            certificate.C1 * certificate.mu_hat ** k * d0 for k in ks
        )
        cauchy_bounds = tuple(
            certificate.Gamma * certificate.mu_hat ** k * d0 for k in ks
        )
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
    """Refine to level ``depth`` and return (x, value) samples."""
    if depth < max(1, initial.level + 1):
        raise InvalidParameter("depth must exceed the starting level")
    d0 = initial.delta_sup()
    s = initial
    while s.level < depth:
        s = refine_once(s, scheme)
    bound = None
    if certificate is not None:
        bound = certificate.C * certificate.mu_hat ** depth * d0
    return LimitSample(
        level=depth, xs=s.xs(), values=s.window.values,
        error_bound=bound,
    )
