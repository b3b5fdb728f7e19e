"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Tolerances are fixed here, not tuned at run time."""

import json
import time
from contextlib import contextmanager

import numpy as np

from subdiv import catalog
from subdiv.cli import main as cli_main
from subdiv.masks import coeff_norm, difference_mask, parity_sums
from subdiv.operators import ProductOperator, apply, compose, condition_a_search, product_norm
from subdiv.refine import decay_report, impulse, limit_sample, pl_eval
from subdiv.schemes import certify_theorem4, similarity_report

from conftest import bspline2, random_cr_mask, random_window


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL  {description}")
        raise
    print(f"criterion {num}: PASS  {description}")


def _certified_runs():
    """Every certified run of criteria 1-3, with its impulse start."""
    runs = []
    ch = catalog.chaikin()
    runs.append((ch, certify_theorem4(ch, ch, mu=0.5), impulse(8, level=0)))
    runs.append((ch, certify_theorem4(ch, ch), impulse(8, level=0)))
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        s = catalog.derham_stationary(gamma)
        runs.append((s, certify_theorem4(s, s), impulse(8, level=0)))
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    runs.append((t, certify_theorem4(t, ch), impulse(8, level=1)))
    return runs


def test_criterion_1_chaikin_contraction():
    with criterion(1, "Chaikin contracts with n=1, K=0, mu=1/2; exact-rate "
                      "Holder exponent is 1"):
        t0 = time.perf_counter()
        w = condition_a_search(catalog.chaikin())
        assert w.n == 1 and w.K == 0
        assert abs(w.mu - 0.5) <= 1e-12
        cert = certify_theorem4(catalog.chaikin(), catalog.chaikin(), mu=w.mu)
        assert abs(cert.holder_exponent - 1.0) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_derham_sweep():
    with criterion(2, "corner-cutting sweep: single-level norm is "
                      "max(2,g)/(2+g); every ratio certifies at n=1"):
        for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
            s = catalog.derham_stationary(gamma)
            q = difference_mask(s.mask_at(0))
            expected = max(2.0, gamma) / (2.0 + gamma)
            assert abs(product_norm([q]) - expected) <= 1e-12
            w = condition_a_search(s)
            assert w.n == 1
            assert abs(w.mu - expected) <= 1e-12


def test_criterion_3_theorem4_end_to_end():
    with criterion(3, "drifting corner cutting certifies against Chaikin "
                      "with finite K and consistent constants"):
        t0 = time.perf_counter()
        target = catalog.derham_nonstationary(2.0, alpha=1.5)
        cert = certify_theorem4(
            target, catalog.chaikin(), k_range=(1, 64), n_max=8
        )
        assert cert.K <= 64
        assert cert.C == cert.Gamma / (1.0 - cert.mu_hat)
        assert cert.mu_star < cert.eta < 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_4_bound_dominance():
    with criterion(4, "measured difference and interpolant-gap norms stay "
                      "under the certified envelopes at every level <= 16"):
        for scheme, cert, start in _certified_runs():
            rep = decay_report(scheme, start, 16, certificate=cert)
            for k, d, b in zip(rep.ks, rep.delta_norms, rep.delta_bounds):
                assert b - d >= 0.0, f"delta bound violated at level {k}"
            for k, g, b in zip(rep.ks, rep.cauchy_norms, rep.cauchy_bounds):
                assert b - g >= 0.0, f"gap bound violated at level {k}"


def test_criterion_5_similarity_vs_equivalence():
    with criterion(5, "drift alpha/k: similar yes, not summable in window, "
                      "per-level diffs match the closed form"):
        gamma, alpha = 2.0, 1.5
        rep = similarity_report(
            catalog.derham_nonstationary(gamma, alpha=alpha),
            catalog.derham_stationary(gamma),
            (1, 256),
        )
        assert rep.similar == "yes"
        assert rep.equivalent == "not-summable-in-window"
        for k, diff in zip(rep.ks, rep.diffs):
            eps = alpha / k
            expected = eps / ((2.0 + gamma + eps) * (2.0 + gamma))
            assert abs(diff - expected) <= 1e-12


def test_criterion_6_negative_control(tmp_path):
    with criterion(6, "shifted Chaikin weights: constants fail with parity "
                      "sums 1 + 2/k, gaps do not decay, certify exits 3"):
        pc = catalog.perturbed_chaikin()
        for k in range(1, 33):
            even, odd = parity_sums(pc.mask_at(k))
            assert abs(even - (1.0 + 2.0 / k)) <= 1e-12
            assert abs(odd - (1.0 + 2.0 / k)) <= 1e-12
        rep = decay_report(pc, impulse(8, level=1), 16)
        assert rep.rho_emp >= 1.0
        assert rep.non_contractive
        out = tmp_path / "cert.json"
        code = cli_main(["certify", "--scheme", "perturbed_chaikin",
                         "--comparator", "chaikin", "--out", str(out)])
        assert code == 3
        reason = json.loads(out.read_text())["reason"]
        assert reason["type"] == "NotConstantReproducing"


def test_criterion_7_oracle_equivalence(rng):
    with criterion(7, "random-mask oracles: commutation, composition, "
                      "submultiplicativity, and the norm sandwich"):
        masks = [random_cr_mask(rng) for _ in range(200)]
        for i, a in enumerate(masks):
            q = difference_mask(a)
            f = random_window(rng, length=30)
            lhs = apply(a, f).diff()
            rhs = apply(q, f.diff())
            lo = max(lhs.start, rhs.start)
            hi = min(lhs.stop, rhs.stop)
            l = lhs.values[lo - lhs.start : hi - lhs.start]
            r = rhs.values[lo - rhs.start : hi - rhs.start]
            assert np.max(np.abs(l - r)) <= 1e-12

            b = masks[(i + 1) % len(masks)]
            g = random_window(rng, length=30)
            seq = apply(b, apply(a, g))
            one = compose(ProductOperator(b), ProductOperator(a)).apply(g)
            lo = max(seq.start, one.start)
            hi = min(seq.stop, one.stop)
            s = seq.values[lo - seq.start : hi - seq.start]
            o = one.values[lo - one.start : hi - one.start]
            assert np.max(np.abs(s - o)) <= 1e-12

            qa, qb = difference_mask(a), difference_mask(b)
            assert product_norm([qa, qb]) <= (
                product_norm([qa]) * product_norm([qb]) + 1e-12
            )

            n = max(abs(x) for m in (a, b) for x in m.support)
            da = coeff_norm(a - b)
            dq = coeff_norm(qa - qb)
            assert 0.5 * da <= dq + 1e-12
            assert dq <= 2 * n * da + 1e-12


def _pl_from_sample(sample):
    from subdiv.operators import Window
    from subdiv.refine import RefinementState

    start = int(round(sample.xs[0] * 2 ** sample.level))
    return RefinementState(sample.level, Window(start, sample.values))


def test_criterion_8_limit_spot_check():
    with criterion(8, "deep Chaikin refinement of an impulse lands on the "
                      "quadratic B-spline within 1e-3, under the bound"):
        ch = catalog.chaikin()
        cert = certify_theorem4(ch, ch)
        start = impulse(8, level=0)
        sample = limit_sample(ch, start, 12, certificate=cert)
        xs = np.linspace(-1.0, 2.0, 50)
        f = _pl_from_sample(sample)
        errs = [abs(pl_eval(f, x) - bspline2(x + 1.0)) for x in xs]
        assert max(errs) <= 1e-3
        assert sample.error_bound >= max(errs)


def test_criterion_9_figure1_peak_ordering():
    with criterion(9, "five drift curves order strictly by alpha at the "
                      "peak, for both base ratios"):
        for gamma in (2.0, 1.5):
            peaks = []
            for alpha in (2.5, 1.5, 0.5, -0.5, -1.5):
                s = catalog.derham_nonstationary(gamma, alpha=alpha)
                peaks.append(limit_sample(s, impulse(8, level=1), 12).peak)
            assert all(
                peaks[i] > peaks[i + 1] for i in range(len(peaks) - 1)
            ), f"peaks not strictly decreasing for gamma={gamma}: {peaks}"
