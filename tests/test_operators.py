import numpy as np
import pytest

from subdiv import catalog
from subdiv.errors import ContractionNotFound, EmptyOutput, InvalidParameter, NotConstantReproducing
from subdiv.masks import Mask, difference_mask, symbol_eval
from subdiv.operators import (
    ProductOperator,
    Window,
    apply,
    compose,
    compose_all,
    condition_a_search,
    contraction_scan,
    product_norm,
)
from subdiv.schemes import formula_scheme, stationary_scheme

from conftest import brute_apply, random_cr_mask, random_mask, random_window

CHAIKIN = Mask(-1, (0.25, 0.75, 0.75, 0.25))
Q_CHAIKIN = Mask(0, (0.25, 0.5, 0.25))


def impulse_window(halfwidth=4):
    v = np.zeros(2 * halfwidth + 1)
    v[halfwidth] = 1.0
    return Window(-halfwidth, v)


def test_window_basics():
    w = Window(-2, [1.0, 2.0, 3.0])
    assert w.stop == 1
    assert list(w.indices()) == [-2, -1, 0]
    assert w.value_at(0) == 3.0
    with pytest.raises(IndexError):
        w.value_at(1)
    d = w.diff()
    assert d.start == -1 and list(d.values) == [1.0, 1.0]
    assert w.sup() == 3.0


def test_apply_impulse_replicates_mask():
    out = apply(CHAIKIN, impulse_window())
    for i in range(out.start, out.stop):
        assert out.value_at(i) == pytest.approx(CHAIKIN[i], abs=1e-15)
    # full mask is inside the valid range
    assert out.start <= -1 and out.stop > 2


def test_apply_ones_stays_ones():
    ones = Window(-5, np.ones(11))
    for m in (CHAIKIN, Mask(-1, (0.5, 1.0, 0.5))):
        out = apply(m, ones)
        assert np.allclose(out.values, 1.0, atol=1e-15)


def test_apply_valid_range():
    # window [-3, 3], mask support [-1, 2]: output exactly [-5, 6]
    out = apply(CHAIKIN, impulse_window(3))
    assert out.start == -5 and out.stop - 1 == 6


def test_apply_matches_bruteforce(rng):
    """apply equals the stencil-by-stencil sums at every arity the
    products reach and then some, for masks shorter and longer than the
    arity, up to 40 coefficients."""
    for arity in (2, 3, 4, 8, 16):
        lengths = [1, arity - 1, arity, arity + 1, 40, *rng.integers(1, 41, 15)]
        for n_coeffs in lengths:
            n_coeffs = max(int(n_coeffs), 1)
            m = Mask(int(rng.integers(-5, 5)), tuple(rng.uniform(-1, 1, n_coeffs)))
            least = n_coeffs // arity + 1
            f = random_window(rng, length=int(rng.integers(least, least + 20)))
            got = apply(m, f, arity)
            want = brute_apply(m, f, arity)
            assert got.start == want.start and len(got) == len(want), (arity, n_coeffs)
            assert np.allclose(got.values, want.values, atol=1e-12), (arity, n_coeffs)


def test_apply_short_mask_pads_zeros():
    """The outputs with an empty stencil are +0.0, sign bit clear: the
    refinement pass's one-coefficient stencils reproduce them."""
    out = apply(Mask(0, (1.0,)), Window(0, [1.0, 2.0]), arity=2)
    assert out.start == -1
    assert list(out.values) == [0.0, 1.0, 0.0, 2.0, 0.0]
    assert not np.signbit(out.values).any()
    # two empty stencils at either end, under a negative mask
    out = apply(Mask(0, (-1.0, -2.0)), Window(0, [-0.0, 1.0]), arity=4)
    assert out.start == -2
    assert out.values.tolist() == [0.0] * 6 + [-1.0, -2.0, 0.0, 0.0]
    assert not np.signbit(out.values[[0, 1, -2, -1]]).any()


def test_apply_errors():
    with pytest.raises(EmptyOutput):
        apply(Mask(0, tuple([1.0] * 9)), Window(0, [1.0, 2.0]))
    with pytest.raises(InvalidParameter):
        apply(Mask(), impulse_window())


def test_compose_example():
    op = compose(ProductOperator(Q_CHAIKIN), ProductOperator(Q_CHAIKIN))
    assert op.levels == 2 and op.arity == 4
    assert op.mask.base == 0
    expected = np.array([1, 2, 3, 4, 3, 2, 1]) / 16.0
    assert np.allclose(op.mask.coeffs, expected, atol=1e-15)


def test_compose_symbol_identity(rng):
    for _ in range(30):
        outer, inner = random_mask(rng), random_mask(rng)
        op = compose(ProductOperator(outer), ProductOperator(inner))
        for theta in np.linspace(0.1, 2 * np.pi, 16, endpoint=False):
            z = complex(np.cos(theta), np.sin(theta))
            want = symbol_eval(outer, z) * symbol_eval(inner, z ** 2)
            assert abs(symbol_eval(op.mask, z) - want) <= 1e-10


def test_compose_identity_like(rng):
    inner = random_mask(rng)
    op = compose(ProductOperator(Mask(0, (1.0,))), ProductOperator(inner))
    assert op.arity == 4
    for p, c in enumerate(inner.coeffs):
        assert op.mask[2 * (inner.base + p)] == pytest.approx(c, abs=1e-15)


def test_compose_vs_sequential(rng):
    for _ in range(20):
        b, a = random_mask(rng), random_mask(rng)
        f = random_window(rng, length=40)
        seq = apply(b, apply(a, f))
        one = compose(ProductOperator(b), ProductOperator(a)).apply(f)
        lo = max(seq.start, one.start)
        hi = min(seq.stop, one.stop)
        assert lo < hi
        s = seq.values[lo - seq.start : hi - seq.start]
        o = one.values[lo - one.start : hi - one.start]
        assert np.max(np.abs(s - o)) <= 1e-12


def test_product_norm_examples():
    assert product_norm([Q_CHAIKIN]) == pytest.approx(0.5, abs=1e-15)
    assert product_norm([Q_CHAIKIN, Q_CHAIKIN]) == pytest.approx(0.25, abs=1e-15)
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        s = 2.0 + gamma
        q = Mask(-1, (1 / s, gamma / s, 1 / s))
        assert product_norm([q]) == pytest.approx(max(2.0, gamma) / s, abs=1e-12)
    with pytest.raises(InvalidParameter):
        product_norm([])


def test_norm_attainment(rng):
    """The residue-class norm is the exact operator norm: it is attained by
    the sign pattern of the coefficients in each residue class, and no
    bounded input exceeds it."""
    for _ in range(10):
        masks = [random_mask(rng) for _ in range(int(rng.integers(1, 4)))]
        op = compose_all(masks)
        norm = product_norm(masks)
        arity, mask = op.arity, op.mask
        width = 30
        candidates = [Window(-width, np.sign(rng.uniform(-1, 1, 2 * width + 1)))
                      for _ in range(200)]
        for r in range(arity):
            # input whose stencil signs align with the coefficients of class r
            v = np.zeros(2 * width + 1)
            for j in range(-width, width + 1):
                c = mask[r - arity * j]
                v[j + width] = 1.0 if c >= 0 else -1.0
            candidates.append(Window(-width, v))
        best = max(op.apply(w).sup() for w in candidates)
        assert best <= norm + 1e-12
        assert best == pytest.approx(norm, abs=1e-12)


def test_submultiplicative(rng):
    for _ in range(100):
        l1 = [random_mask(rng) for _ in range(int(rng.integers(1, 3)))]
        l2 = [random_mask(rng) for _ in range(int(rng.integers(1, 3)))]
        assert product_norm(l1 + l2) <= product_norm(l1) * product_norm(l2) + 1e-12


def test_difference_commutation(rng):
    for _ in range(50):
        a = random_cr_mask(rng)
        q = difference_mask(a)
        f = random_window(rng, length=30)
        lhs = apply(a, f).diff()
        rhs = apply(q, f.diff())
        lo = max(lhs.start, rhs.start)
        hi = min(lhs.stop, rhs.stop)
        assert lo < hi
        l = lhs.values[lo - lhs.start : hi - lhs.start]
        r = rhs.values[lo - rhs.start : hi - rhs.start]
        assert np.max(np.abs(l - r)) <= 1e-12


def test_condition_a_search_chaikin():
    w = condition_a_search(catalog.chaikin())
    assert (w.K, w.n) == (0, 1)
    assert w.mu == pytest.approx(0.5, abs=1e-15)
    assert w.window == 1 and not w.windowed


def test_condition_a_search_derham():
    w = condition_a_search(catalog.derham_stationary(1.5))
    assert (w.K, w.n) == (0, 1)
    assert w.mu == pytest.approx(2.0 / 3.5, abs=1e-12)


def test_condition_a_search_nonstationary():
    w = condition_a_search(catalog.derham_nonstationary(2.0, alpha=1.5))
    assert w.windowed and w.n == 1 and w.K == 1
    assert w.mu == pytest.approx(3.5 / 5.5, abs=1e-12)  # largest ratio at level 1


def test_condition_a_search_rejects_perturbed():
    with pytest.raises(NotConstantReproducing) as exc:
        condition_a_search(catalog.perturbed_chaikin())
    assert exc.value.level == 1


def test_condition_a_not_found():
    # constants reproduced, but the difference rule expands
    diverging = stationary_scheme(Mask(0, (2.0, 1.0, -1.0)))
    with pytest.raises(ContractionNotFound) as exc:
        condition_a_search(diverging, n_max=4)
    assert all(mu >= 1.0 for _, _, mu in exc.value.scan)
    assert len(exc.value.scan) == 4


def four_point_drift(k):
    """The 4-point rule with tension 1/16 + 0.2/k: its level-1 difference
    rule expands, so the search's witness is not the first cell."""
    w = 1 / 16 + 0.2 / k
    return Mask(-3, (-w, 0.0, 0.5 + w, 1.0, 0.5 + w, 0.0, -w))


@pytest.mark.parametrize("scheme", [
    pytest.param(catalog.chaikin(), id="chaikin"),
    pytest.param(catalog.derham_nonstationary(2.0, alpha=1.5), id="derham"),
    pytest.param(catalog.derham_nonstationary(2.0, eps=[1.5 / k for k in range(1, 13)], k0=1),
                 id="eps_table"),
    pytest.param(formula_scheme(four_point_drift, k0=1, N=3), id="four_point_drift"),
    pytest.param(stationary_scheme(Mask(0, (2.0, 1.0, -1.0))), id="diverging"),
])
def test_contraction_scan_consistent(scheme):
    """The search returns the first cell of the scan (n outer, K inner)
    with mu < 1, checked over the levels the scheme defines; without one it
    reports the whole scan."""
    n_max, K_max, window = 2, 4, 8
    cells = contraction_scan(scheme, n_max=n_max, K_max=K_max, window=window)
    try:
        w = condition_a_search(scheme, n_max=n_max, K_max=K_max, window=window)
    except ContractionNotFound as exc:
        assert cells and all(mu >= 1.0 for _, _, mu in cells)
        assert exc.scan == cells
        return
    first = next(i for i, (_, _, mu) in enumerate(cells) if mu < 1.0)
    assert cells[first] == (w.n, w.K, w.mu)
    assert all(mu >= 1.0 for _, _, mu in cells[:first])
    if scheme.kind == "stationary":
        assert (w.K, w.window, w.windowed) == (scheme.k0, 1, False)
        return
    last = scheme.k0 + K_max + window + n_max - 1
    if scheme.max_level is not None:
        last = min(last, scheme.max_level)
    starts = [k for k in range(w.K, w.K + window + 1) if k + w.n - 1 <= last]
    assert w.windowed and w.window == len(starts)
    assert w.mu == max(
        product_norm([difference_mask(scheme.mask_at(k + w.n - 1 - j)) for j in range(w.n)])
        for k in starts
    )


@pytest.mark.parametrize("search", [condition_a_search, contraction_scan])
def test_search_refuses_exponential_n_max(search):
    """Products of n rules hold about len(q) * 2**n coefficients: an n_max
    past the memory budget is refused before anything is composed, and the
    default n_max = 8 is admitted."""
    for n_max in (23, 60, 10**9):
        with pytest.raises(InvalidParameter, match="memory budget"):
            search(catalog.chaikin(), n_max=n_max)
    assert search(catalog.chaikin())


def test_condition_a_search_clamps_to_table():
    table = [1.5 / k for k in range(1, 13)]
    scheme = catalog.derham_nonstationary(2.0, eps=table, k0=1)
    w = condition_a_search(scheme, n_max=2, K_max=4, window=64)
    assert w.windowed
    assert w.window <= 12  # cannot check levels the table does not define
    assert w.mu < 1.0
