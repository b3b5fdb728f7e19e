import numpy as np
import pytest

from subdiv.errors import NotConstantReproducing, NotFactorable
from subdiv.masks import (
    LINEAR_BSPLINE,
    TOL,
    Mask,
    coeff_norm,
    difference_mask,
    mask_from_difference,
    parity_sums,
    perturbation_mask,
    reproduces_constants,
    sup_norm,
    symbol_eval,
    telescoped_mask,
)

from conftest import polydiv_by_1_plus_z, random_cr_mask, random_mask

CHAIKIN0 = Mask(0, (0.25, 0.75, 0.75, 0.25))
CHAIKIN = Mask(-1, (0.25, 0.75, 0.75, 0.25))


def derham_mask(gamma, base=-1):
    s = 2.0 + gamma
    return Mask(base, (1 / s, (1 + gamma) / s, (1 + gamma) / s, 1 / s))


def test_canonical_form():
    m = Mask(3, (0.0, 0.0, 1.0, 2.0, 0.0))
    assert m.base == 5
    assert m.coeffs == (1.0, 2.0)
    assert m.support == (5, 6)
    assert Mask(0, (0.0, 0.0)).is_zero
    assert Mask().support is None


def test_getitem_and_arithmetic():
    assert CHAIKIN[-1] == 0.25
    assert CHAIKIN[5] == 0.0
    s = CHAIKIN - CHAIKIN
    assert s.is_zero
    doubled = 2.0 * CHAIKIN
    assert doubled.coeffs == (0.5, 1.5, 1.5, 0.5)
    shifted_sum = Mask(0, (1.0,)) + Mask(2, (1.0,))
    assert shifted_sum.coeffs == (1.0, 0.0, 1.0)


def test_symbol_eval_examples():
    assert symbol_eval(LINEAR_BSPLINE, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert symbol_eval(LINEAR_BSPLINE, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert symbol_eval(CHAIKIN0, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert symbol_eval(Mask(), 3.7) == 0.0
    # complex evaluation against a direct sum
    z = complex(0.3, 0.8)
    direct = sum(c * z ** (CHAIKIN.base + p) for p, c in enumerate(CHAIKIN.coeffs))
    assert symbol_eval(CHAIKIN, z) == pytest.approx(direct)


def test_sup_norm_examples():
    assert sup_norm(CHAIKIN0) == pytest.approx(1.0, abs=1e-15)
    assert sup_norm(Mask()) == 0.0
    assert sup_norm(Mask(0, (0.25, 0.5, 0.25))) == pytest.approx(0.5, abs=1e-15)
    # parity classes follow the absolute index
    assert parity_sums(Mask(0, (3.0, 1.0))) == (3.0, 1.0)
    assert parity_sums(Mask(1, (3.0, 1.0))) == (1.0, 3.0)


def test_reproduces_constants():
    assert reproduces_constants(CHAIKIN0)
    assert reproduces_constants(LINEAR_BSPLINE)
    for k in range(1, 9):
        t = 1.0 / k
        m = Mask(0, (0.25 + t, 0.75 + t, 0.75 + t, 0.25 + t))
        assert not reproduces_constants(m)
        even, odd = parity_sums(m)
        assert even == pytest.approx(1.0 + 2.0 / k, abs=1e-15)
        assert odd == pytest.approx(1.0 + 2.0 / k, abs=1e-15)
    # TOL is the threshold at each symbol value: half of it passes, twice fails
    for scale, ok in ((0.5, True), (2.0, False)):
        d = scale * TOL
        off_at_one = Mask(0, (0.25 + d / 2, 0.75 + d / 2, 0.75, 0.25))
        off_at_minus_one = Mask(0, (0.25 + d / 2, 0.75 - d / 2, 0.75, 0.25))
        assert symbol_eval(off_at_one, 1.0) - 2.0 == pytest.approx(d, rel=1e-3)
        assert symbol_eval(off_at_minus_one, -1.0) == pytest.approx(d, rel=1e-3)
        assert reproduces_constants(off_at_one) is ok
        assert reproduces_constants(off_at_minus_one) is ok


def test_difference_mask_examples():
    q = difference_mask(CHAIKIN0)
    assert q.base == 0
    assert q.coeffs == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        a = derham_mask(gamma)
        q = difference_mask(a)
        s = 2.0 + gamma
        assert q.base == -1
        assert q.coeffs == pytest.approx((1 / s, gamma / s, 1 / s), abs=1e-15)
        oracle = polydiv_by_1_plus_z(a)
        assert q.base == oracle.base
        assert np.allclose(q.coeffs, oracle.coeffs, atol=1e-12)

    q = difference_mask(LINEAR_BSPLINE)
    assert q.base == -1
    assert q.coeffs == pytest.approx((0.5, 0.5), abs=1e-15)


def test_difference_mask_requires_constants():
    with pytest.raises(NotConstantReproducing):
        difference_mask(Mask(0, (1.25, 1.75, 1.75, 1.25)))
    with pytest.raises(NotConstantReproducing):
        difference_mask(Mask())
    with pytest.raises(NotConstantReproducing):
        difference_mask(Mask(0, (2.0,)))


def test_mask_from_difference_examples():
    assert mask_from_difference(Mask(0, (0.25, 0.5, 0.25))).coeffs == (
        0.25, 0.75, 0.75, 0.25,
    )
    assert mask_from_difference(Mask()).is_zero
    assert mask_from_difference(Mask(0, (1.0,))).coeffs == (1.0, 1.0)


def test_round_trip_random(rng):
    for _ in range(200):
        a = random_cr_mask(rng)
        back = mask_from_difference(difference_mask(a))
        assert back.base == a.base
        assert np.allclose(back.coeffs, a.coeffs, atol=1e-12)


def test_symbol_identity_on_circle(rng):
    angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    for _ in range(50):
        a = random_cr_mask(rng)
        q = difference_mask(a)
        for theta in angles:
            z = complex(np.cos(theta), np.sin(theta))
            lhs = symbol_eval(a, z)
            rhs = (1.0 + z) * symbol_eval(q, z)
            assert abs(lhs - rhs) <= 1e-10


def test_difference_support_bound(rng):
    for _ in range(100):
        a = random_cr_mask(rng)
        lo, hi = a.support
        n = max(abs(lo), abs(hi))
        qlo, qhi = difference_mask(a).support
        assert -n <= qlo and qhi <= n - 1


def test_perturbation_mask():
    assert perturbation_mask(LINEAR_BSPLINE).is_zero
    d = perturbation_mask(CHAIKIN)
    assert d.base == -1
    assert d.coeffs == pytest.approx((-0.25, -0.25, 0.25, 0.25), abs=1e-15)
    # the gamma = 2 corner-cutting mask is the same scheme
    assert perturbation_mask(derham_mask(2.0)).coeffs == d.coeffs


def test_telescoped_mask_example():
    d = Mask(-1, (-0.25, -0.25, 0.25, 0.25))
    e = telescoped_mask(d)
    assert e.base == -1
    assert e.coeffs == pytest.approx((-0.25, -0.25), abs=1e-15)
    # position-by-position telescoping
    for i in range(-4, 5):
        assert d[i] == pytest.approx(e[i] - e[i - 2], abs=1e-15)
    assert telescoped_mask(Mask()).is_zero


def test_telescoped_mask_bound_and_support():
    h = LINEAR_BSPLINE
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        a = derham_mask(gamma)
        d = a - h
        e = telescoped_mask(d)
        lo, hi = a.support
        n = max(abs(lo), abs(hi), 1)
        elo, ehi = e.support
        assert -n <= elo and ehi <= n - 2
        assert coeff_norm(e) <= n * (coeff_norm(a) + 1.0) + 1e-12


def test_telescoped_mask_random(rng):
    for _ in range(100):
        a = random_cr_mask(rng)
        d = a - LINEAR_BSPLINE
        e = telescoped_mask(d)
        positions = set()
        if d.support:
            positions.update(range(d.support[0], d.support[1] + 1))
        if e.support:
            positions.update(range(e.support[0] + 2, e.support[1] + 3))
        for i in positions:
            assert d[i] == pytest.approx(e[i] - e[i - 2], abs=1e-10)


def test_telescoped_rejects_bad_symbols():
    with pytest.raises(NotFactorable):
        telescoped_mask(Mask(0, (1.0, 2.0)))


def test_norm_axioms(rng):
    for _ in range(100):
        m1, m2 = random_mask(rng), random_mask(rng)
        alpha = float(rng.uniform(-3.0, 3.0))
        assert sup_norm(alpha * m1) == pytest.approx(abs(alpha) * sup_norm(m1), abs=1e-12)
        assert sup_norm(m1 + m2) <= sup_norm(m1) + sup_norm(m2) + 1e-12
        assert coeff_norm(m1 + m2) <= coeff_norm(m1) + coeff_norm(m2) + 1e-12


def test_mask_json_roundtrip():
    obj = CHAIKIN.to_dict()
    assert obj == {"base": -1, "coeffs": [0.25, 0.75, 0.75, 0.25]}
    assert Mask.from_dict(obj) == CHAIKIN
