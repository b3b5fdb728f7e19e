import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from subdiv import catalog, operators, refine
from subdiv.errors import EmptyOutput, InvalidParameter, OutOfDomain
from subdiv.masks import LINEAR_BSPLINE, Mask, difference_mask
from subdiv.operators import Window, apply
from subdiv.refine import (
    RefinementState,
    cauchy_norm,
    constant,
    decay_report,
    impulse,
    limit_sample,
    pl_eval,
    pl_gap,
    refine_once,
)
from subdiv.schemes import (
    SchemeSpec, certify_theorem4, formula_scheme, stationary_scheme, table_scheme,
)

from conftest import bspline2, random_cr_mask


def test_refine_once_chaikin_impulse():
    st = refine_once(impulse(4), catalog.chaikin())
    assert st.level == 1
    for i, want in zip(range(-1, 3), (0.25, 0.75, 0.75, 0.25)):
        assert st.window.value_at(i) == pytest.approx(want, abs=1e-15)
    # cached differences agree with a fresh diff
    assert np.allclose(st.deltas.values, st.window.diff().values, atol=0)


def test_constants_preserved_exactly():
    for scheme in (catalog.chaikin(), catalog.linear_bspline(),
                   catalog.derham_stationary(1.5),
                   catalog.derham_nonstationary(2.0, alpha=1.5)):
        st = constant(1.0, 10, level=scheme.k0)
        for _ in range(5):
            st = refine_once(st, scheme)
            assert np.max(np.abs(st.window.values - 1.0)) <= 1e-14


def test_perturbed_ones_scale_by_parity_sum():
    st = refine_once(constant(1.0, 6, level=1), catalog.perturbed_chaikin())
    assert np.allclose(st.window.values, 3.0, atol=1e-14)


def test_difference_commutation_along_run(rng):
    for _ in range(20):
        masks = [random_cr_mask(rng, max_support=6) for _ in range(4)]
        scheme = table_scheme(masks, k0=0)
        st = RefinementState(0, Window(-24, rng.uniform(-1, 1, 49)))
        for k in range(4):
            q = difference_mask(masks[k])
            via_rule = apply(q, st.deltas)
            st = refine_once(st, scheme)
            lo = max(via_rule.start, st.deltas.start)
            hi = min(via_rule.stop, st.deltas.stop)
            a = via_rule.values[lo - via_rule.start : hi - via_rule.start]
            b = st.deltas.values[lo - st.deltas.start : hi - st.deltas.start]
            assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("spike", [5, 50, 95], ids=["first", "middle", "last"])
def test_cross_check_catches_rule_error_in_any_block(monkeypatch, spike):
    """A difference rule off by 1e-9 in one coefficient is caught wherever
    the data that exposes it sits: in the first, a middle or the last of the
    blocks the cross-check walks."""
    monkeypatch.setattr(operators, "_BLOCK", 16)
    scheme = catalog.chaikin()
    values = np.zeros(101)
    values[spike] = 1.0
    st = RefinementState(0, Window(-50, values))
    assert len(refine_once(st, scheme).window) >= 3 * operators._BLOCK
    q = difference_mask(scheme.mask_at(0))
    off = Mask(q.base, (q.coeffs[0] + 1e-9, *q.coeffs[1:]))
    monkeypatch.setattr(SchemeSpec, "difference_mask_at", lambda self, k: off)
    with pytest.raises(RuntimeError, match="difference rule disagrees"):
        refine_once(st, scheme)


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_cross_check_tolerance_scales_with_values(monkeypatch, scale):
    """Both routes to the new differences round in proportion to the size
    of the values: data of size ``scale`` refines without a false alarm,
    and a difference rule off by 1e-9 is still caught at that size."""
    rng = np.random.default_rng(7)
    scheme = catalog.derham_nonstationary(2.3, alpha=1.1)
    st = RefinementState(1, Window(-20, rng.uniform(-scale, scale, 41)))
    for _ in range(8):
        st = refine_once(st, scheme)
    q = difference_mask(scheme.mask_at(st.level))
    off = Mask(q.base, (q.coeffs[0] + 1e-9, *q.coeffs[1:]))
    monkeypatch.setattr(SchemeSpec, "difference_mask_at", lambda self, k: off)
    with pytest.raises(RuntimeError, match="difference rule disagrees"):
        refine_once(st, scheme)


def test_valid_interval_nests():
    scheme = catalog.derham_nonstationary(2.0, alpha=1.5)
    st = impulse(8, level=1)
    for _ in range(8):
        before = st.domain()
        st = refine_once(st, scheme)
        after = st.domain()
        assert before[0] <= after[0] and after[1] <= before[1]


def test_refine_level_below_start_rejected():
    with pytest.raises(InvalidParameter):
        refine_once(impulse(4, level=0), catalog.perturbed_chaikin())


def test_pl_eval():
    st = refine_once(impulse(4), catalog.chaikin())
    assert pl_eval(st, -0.5) == pytest.approx(0.25, abs=1e-15)  # grid point
    assert pl_eval(st, -0.25) == pytest.approx(0.5, abs=1e-15)  # midpoint
    assert st(0.25) == pytest.approx(0.75, abs=1e-15)
    lo, hi = st.domain()
    assert pl_eval(st, hi) == st.window.value_at(st.window.stop - 1)
    with pytest.raises(OutOfDomain):
        pl_eval(st, hi + 0.1)


def brute_gap(level: int, coarse: Window, fine: Window) -> float:
    """Oracle: evaluate both interpolants at every fine breakpoint of the
    common span with pl_eval."""
    f0, f1 = RefinementState(level, coarse), RefinementState(level + 1, fine)
    lo = max(f0.domain()[0], f1.domain()[0])
    hi = min(f0.domain()[1], f1.domain()[1])
    scale = 2 ** (level + 1)
    return max(
        (abs(pl_eval(f1, i / scale) - pl_eval(f0, i / scale))
         for i in range(math.ceil(lo * scale), math.floor(hi * scale) + 1)),
        default=0.0,
    )


def test_cauchy_norm_chaikin_quarter():
    st = impulse(4)
    got = cauchy_norm(catalog.chaikin(), st)
    nxt = refine_once(st, catalog.chaikin())
    assert got == brute_gap(0, st.window, nxt.window)
    assert got == pytest.approx(0.25, abs=1e-15)


FOUR_POINT = stationary_scheme(
    Mask(-3, (-1 / 16, 0.0, 9 / 16, 1.0, 9 / 16, 0.0, -1 / 16)), N=3, name="four_point"
)


@pytest.mark.parametrize(
    "scheme, initial, first_gap",
    [
        (catalog.linear_bspline(), impulse(4), 0.0),
        (FOUR_POINT, impulse(8), 1 / 16),
        (catalog.derham_nonstationary(1.7, alpha=2.19), impulse(8, level=1), None),
    ],
    ids=["linear_bspline", "four_point", "derham_1.7_2.19"],
)
def test_pl_gap_matches_oracle(scheme, initial, first_gap):
    st = initial
    for _ in range(9):  # derham's ratio drops below 2 at level 8
        nxt = refine_once(st, scheme)
        assert pl_gap(st.window, nxt.window) == brute_gap(st.level, st.window, nxt.window)
        st = nxt
    rep = decay_report(scheme, initial, initial.level + 8)
    if first_gap is not None:
        assert rep.cauchy_norms[0] == first_gap
    if first_gap == 0.0:
        assert rep.cauchy_norms == (0.0,) * len(rep.ks)
        assert rep.rho_emp == 0.0  # exact-zero gaps decay at factor 0


@pytest.mark.parametrize(
    "coarse_start, fine_start", [(-7, -13), (-6, -13), (3, 5), (3, 8), (0, -4), (30, -13)]
)
def test_pl_gap_random_windows(rng, coarse_start, fine_start):
    coarse = Window(coarse_start, rng.uniform(-1, 1, 21))
    fine = Window(fine_start, rng.uniform(-1, 1, 38))
    assert pl_gap(coarse, fine) == brute_gap(3, coarse, fine)
    # refining by linear interpolation reproduces the interpolant exactly
    assert pl_gap(coarse, apply(LINEAR_BSPLINE, coarse)) == 0.0


def test_cauchy_norm_constant_data_zero():
    assert cauchy_norm(catalog.chaikin(), constant(2.5, 6)) == 0.0


def test_decay_report_chaikin():
    rep = decay_report(catalog.chaikin(), impulse(8), 12)
    assert 0.49 <= rep.rho_emp <= 0.51
    assert rep.rho_delta == pytest.approx(0.5, abs=1e-6)
    assert not rep.non_contractive
    # difference norms halve exactly from an impulse
    for k, d in zip(rep.ks, rep.delta_norms):
        assert d == pytest.approx(0.5 ** k, abs=1e-15)


def test_decay_report_derham_sweep():
    """The single-level norm bounds the measured gap decay; at ratios >= 2
    the norm is multiplicative and the fit lands on it."""
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        rep = decay_report(catalog.derham_stationary(gamma), impulse(8), 14)
        qnorm = max(2.0, gamma) / (2.0 + gamma)
        assert rep.rho_emp <= qnorm + 1e-9
        if gamma >= 2.0:
            assert abs(rep.rho_emp - qnorm) / qnorm <= 0.05


def test_decay_report_perturbed_diverges():
    rep = decay_report(catalog.perturbed_chaikin(), impulse(8, level=1), 16)
    assert rep.rho_emp >= 1.0
    assert rep.non_contractive
    assert rep.cauchy_norms[-1] > rep.cauchy_norms[0]


def test_decay_report_bounds_with_certificate():
    c = catalog.chaikin()
    cert = certify_theorem4(c, c)
    rep = decay_report(c, impulse(8), 16, certificate=cert)
    assert rep.bounds_hold
    for d, b in zip(rep.delta_norms, rep.delta_bounds):
        assert b - d >= 0.0
    for g, b in zip(rep.cauchy_norms, rep.cauchy_bounds):
        assert b - g >= 0.0
    rows = rep.rows()
    assert rows[0][0] == 0 and rows[0][3] == rep.cauchy_bounds[0]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decay_report_peak_memory():
    """A run holds a few blocks a level, never a whole window, so its
    tracemalloc peak does not grow with the windows: under 8 MB at level 18,
    where the level-19 window of the last gap alone would take 30 MB, and
    within 2 MB of the peak at level 14.  Holding the current and the next
    window took 46.5 MB at level 18."""
    scheme = catalog.derham_nonstationary(2.2, alpha=1.5)
    peaks = {
        k: _traced_peak(lambda: decay_report(scheme, impulse(8, level=1), k))
        for k in (14, 18)
    }
    assert peaks[18] < 8 * 2**20
    assert peaks[18] - peaks[14] < 2 * 2**20


def test_decay_report_needs_levels():
    with pytest.raises(InvalidParameter):
        decay_report(catalog.chaikin(), impulse(8), 2)


def test_limit_sample_chaikin_matches_bspline():
    c = catalog.chaikin()
    cert = certify_theorem4(c, c)
    ls = limit_sample(c, impulse(8), 12, certificate=cert)
    phi = np.array([bspline2(x + 1.0) for x in ls.xs])
    err = float(np.max(np.abs(ls.values - phi)))
    assert err <= 1e-3
    assert ls.error_bound is not None and ls.error_bound >= err
    assert ls.error_bound == pytest.approx(cert.C * cert.mu_hat ** 12, abs=1e-12)


def test_limit_sample_constant():
    ls = limit_sample(catalog.chaikin(), constant(3.0, 6), 6)
    assert np.allclose(ls.values, 3.0, atol=1e-14)


def test_limit_sample_figure_family_ordering():
    peaks = []
    for alpha in (2.5, 1.5, 0.5, -0.5, -1.5):
        s = catalog.derham_nonstationary(2.0, alpha=alpha)
        peaks.append(limit_sample(s, impulse(8, level=1), 12).peak)
    assert all(peaks[i] > peaks[i + 1] for i in range(len(peaks) - 1))


def _step_counts(monkeypatch, scheme, initial, depth):
    """Refine ``initial`` to ``depth`` with blocks of 16 values and give, a
    level at a time: its steps, its mask's convolutions of data that hold
    a nonzero bit, and those of data that are all +0.0."""
    monkeypatch.setattr(operators, "_BLOCK", 16)
    steps, calls, zero_calls = Counter(), Counter(), Counter()
    convolve, level_refine = refine._Stencil.convolve, refine._Level.refine

    def counted_convolve(self, up):
        (calls if up.view(np.int64).any() else zero_calls)[self] += 1
        return convolve(self, up)

    def counted_refine(self, *args):
        for chunk in level_refine(self, *args):  # every level emits its steps
            steps[self.mask] += 1
            yield chunk

    monkeypatch.setattr(refine._Stencil, "convolve", counted_convolve)
    monkeypatch.setattr(refine._Level, "refine", counted_refine)
    limit_sample(scheme, initial, depth)
    return [(steps[m], calls[m], zero_calls[m]) for m in steps]


def test_zero_steps_take_no_convolution(monkeypatch):
    """A step that reads only +0.0, away from a level's ends, yields +0.0
    without a convolution.  An impulse padded to halfwidth 64 is about 80%
    +0.0 at every level, yet each level convolves only its steps that read
    a nonzero value and at most four at its two ends, whose reads are
    clamped.  Constant data take a convolution on every step."""
    scheme = catalog.derham_nonstationary(2.0, alpha=1.5)
    levels = _step_counts(monkeypatch, scheme, impulse(64, level=1), 7)
    assert len(levels) == 6
    for steps, calls, zero_calls in levels:
        assert zero_calls <= 4
        assert calls + zero_calls <= steps
    steps, calls, zero_calls = levels[-1]
    assert steps >= 500 and calls + zero_calls <= steps // 20
    for steps, calls, zero_calls in _step_counts(monkeypatch, scheme,
                                                 constant(1.0, 64, level=1), 7):
        assert (calls, zero_calls) == (steps, 0)


def test_empty_output_on_narrow_window():
    # a single value offers no full four-tap stencil at the next level
    st = RefinementState(0, Window(0, [1.0]))
    with pytest.raises(EmptyOutput):
        refine_once(st, catalog.chaikin())


def test_certified_runs_start_at_k0():
    """A certificate bounds products from the scheme's k0 on, so a
    certified run that starts at a later level is refused."""
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    cert = certify_theorem4(t, catalog.chaikin())
    late = impulse(8, level=5)
    with pytest.raises(InvalidParameter, match="starts at the scheme's level 1, not at level 5"):
        decay_report(t, late, 16, certificate=cert)
    with pytest.raises(InvalidParameter, match="starts at the scheme's level 1"):
        limit_sample(t, late, 12, certificate=cert)
    assert decay_report(t, late, 16).bounds_hold is None
    assert limit_sample(t, late, 12).error_bound is None


def test_certified_bound_dominance_nonstationary():
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    cert = certify_theorem4(t, catalog.chaikin())
    rep = decay_report(t, impulse(8, level=1), 16, certificate=cert)
    assert rep.bounds_hold


DERHAM = catalog.derham_nonstationary(2.0, alpha=1.5)


def _derham_with(level: int, nan: bool = False) -> SchemeSpec:
    """derham(2, 1.5) with a NaN coefficient in its mask at ``level``, or
    with a mask_fn that raises from ``level`` on."""
    def mask(k):
        m = DERHAM.mask_fn(k)
        if k < level:
            return m
        if not nan:
            raise ValueError(f"no mask at level {k}")
        if k > level:
            return m
        return Mask(m.base, (m.coeffs[0], math.nan, *m.coeffs[2:]))
    return formula_scheme(mask, k0=1, N=2)


def _rule_off_at(level: int):
    """difference_mask_at, with the rule of ``level`` off by 1e-9 in its
    first coefficient."""
    real = SchemeSpec.difference_mask_at

    def read(self, k):
        q = real(self, k)
        return Mask(q.base, (q.coeffs[0] + 1e-9, *q.coeffs[1:])) if k == level else q
    return read


NAN_DATA = Window(-8, [0.0] * 8 + [math.nan] + [0.0] * 8)
BIG_DATA = Window(-20, np.random.default_rng(7).uniform(-1e8, 1e8, 41))
NOT_FINITE = ": the data hold NaN or inf, or overflowed"


@pytest.mark.parametrize("block", [2**15, 16])
@pytest.mark.parametrize(
    "run, error, message",
    [
        (lambda: decay_report(DERHAM, RefinementState(3, NAN_DATA), 10),
         InvalidParameter, "the difference norm at level 3 is nan" + NOT_FINITE),
        (lambda: decay_report(_derham_with(5, nan=True), impulse(8, level=1), 10),
         InvalidParameter, "the interpolant gap at level 5 is nan" + NOT_FINITE),
        (lambda: limit_sample(_derham_with(5, nan=True), impulse(8, level=1), 10),
         InvalidParameter, "the difference-rule error at level 6 is nan" + NOT_FINITE),
        (lambda: decay_report(
            formula_scheme(lambda k: Mask(-1, (1e308,) * 3 if k == 4 else (0.5, 1.0, 0.5)),
                           k0=1, N=1),
            impulse(8, level=1), 10),
         InvalidParameter, "the interpolant gap at level 4 is inf" + NOT_FINITE),
        (lambda: decay_report(_derham_with(6), impulse(8, level=1), 10),
         ValueError, "no mask at level 6"),
        (lambda: limit_sample(_derham_with(6), impulse(8, level=1), 10),
         ValueError, "no mask at level 6"),
        (lambda: decay_report(_derham_with(6), RefinementState(1, NAN_DATA), 10),
         InvalidParameter, "the difference norm at level 1 is nan" + NOT_FINITE),
        (lambda: decay_report(catalog.perturbed_chaikin(), impulse(8, level=0), 6),
         InvalidParameter, "state level 0 precedes the scheme's start 1"),
    ],
    ids=["nan-data", "nan-mask", "nan-mask-sample", "overflow", "mask-fn",
         "mask-fn-sample", "nan-before-mask-fn", "below-start"],
)
def test_errors_come_in_level_order(monkeypatch, block, run, error, message):
    """A run raises the error a level-by-level run meets first, at its
    level, with its message, however the levels are blocked: the errors of
    every level a run sets up, or that its data or masks cause, wait until
    the levels before them pass their checks."""
    monkeypatch.setattr(operators, "_BLOCK", block)
    with pytest.raises(error) as info:
        run()
    assert str(info.value) == message


@pytest.mark.parametrize("block", [2**15, 16])
@pytest.mark.parametrize(
    "run, err",
    [
        (lambda: decay_report(DERHAM, impulse(8, level=1), 14), "3.146372745677084e-11"),
        (lambda: limit_sample(DERHAM, impulse(8, level=1), 14), "3.146372745677084e-11"),
        (lambda: decay_report(catalog.derham_nonstationary(2.3, alpha=1.1),
                              RefinementState(1, BIG_DATA), 12), "0.006381551269441843"),
    ],
    ids=["decay", "sample", "large-data"],
)
def test_wrong_rule_is_caught_at_its_level(monkeypatch, block, run, err):
    """A difference rule off by 1e-9 at level 7 raises there, with the
    largest disagreement over the level's every index."""
    monkeypatch.setattr(operators, "_BLOCK", block)
    monkeypatch.setattr(SchemeSpec, "difference_mask_at", _rule_off_at(7))
    with pytest.raises(RuntimeError) as info:
        run()
    assert str(info.value) == (
        f"difference rule disagrees with refined differences by {err} at level 7"
    )
