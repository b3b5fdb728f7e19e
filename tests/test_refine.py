import math
import tracemalloc

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
from subdiv.schemes import SchemeSpec, certify_theorem4, stationary_scheme, table_scheme

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


def test_decay_report_peak_memory():
    """Only the current and next window are held, and every pass over them
    runs in blocks: the tracemalloc peak stays within 2.5 final-window sizes
    (holding every level took 10, and whole-window passes 5)."""
    scheme = catalog.derham_nonstationary(2.2, alpha=1.5)
    final = limit_sample(scheme, impulse(8, level=1), 15).values
    tracemalloc.start()
    try:
        decay_report(scheme, impulse(8, level=1), 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * final.nbytes


def test_decay_report_releases_heap_once_before_deepest_level(monkeypatch):
    """The free heap is handed back once a run, right before the deepest
    level, and only when that level's window is large: releasing it at
    every level made refine_deep's ops 17-29% slower from page faults."""
    levels = []
    real = refine.refine_once
    monkeypatch.setattr(refine, "_release_free_heap", lambda: levels.append("release"))
    monkeypatch.setattr(refine, "refine_once",
                        lambda s, scheme: levels.append(s.level) or real(s, scheme))
    decay_report(catalog.chaikin(), impulse(8), 8)
    assert levels == [0, 1, 2, 3, 4, 5, 6, 7, 8]  # a small run keeps its heap
    levels.clear()
    monkeypatch.setattr(refine, "_RELEASE_BYTES", 0)
    decay_report(catalog.chaikin(), impulse(8), 8)
    assert levels == [0, 1, 2, 3, 4, 5, 6, 7, "release", 8]


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
