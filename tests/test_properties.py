"""Property tests of the composition algebra over random constant-
reproducing masks, drawn by hypothesis.

Each mask is (1 + z) times a random polynomial with value 1 at z = 1, so it
reproduces constants.  The runs are derandomized, so the suite draws the
same examples every time.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiv.masks import (
    Mask,
    class_norm,
    coeff_norm,
    stencil,
    stencil_difference,
    sup_norm,
    symbol_eval,
)
from subdiv.operators import (
    ProductOperator,
    Window,
    apply,
    compose,
    compose_all,
    product_norm,
    residue_class_norm,
    runs,
)

derandomized = settings(max_examples=60, deadline=None, derandomize=True, database=None)

EPS = np.finfo(float).eps


@st.composite
def cr_masks(draw) -> Mask:
    head = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    # the last coefficient brings the polynomial's value at 1 to 1
    poly = [*head, 1.0 - sum(head)]
    base = draw(st.integers(-3, 3))
    return Mask(base, tuple(np.convolve(poly, [1.0, 1.0])))


mask_lists = st.lists(cr_masks(), min_size=1, max_size=8)

# Any masks: zero masks, signed zeros inside, long ones (past class_norm's
# loop) and bases far enough apart for disjoint supports.
coefficients = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
any_masks = st.builds(Mask, st.integers(-40, 40), st.lists(coefficients, max_size=48))


def scale(*masks: Mask) -> float:
    """Product of the masks' absolute coefficient sums: a bound on every
    coefficient and symbol value on |z| = 1 of their composition."""
    return float(np.prod([sum(map(abs, m.coeffs)) for m in masks]))


def loop_class_norm(m: Mask, arity: int) -> float:
    """The residue-class sums as a running sum over the coefficients: the
    reference for the vectorized sums, which must match it bit for bit."""
    sums = [0.0] * arity
    for p, c in enumerate(m.coeffs):
        sums[(m.base + p) % arity] += abs(c)
    return max(sums)


def loop_sup_norm(m: Mask) -> float:
    """The even- and odd-index absolute sums as a parity loop: the
    reference for ``sup_norm``."""
    even = odd = 0.0
    for p, c in enumerate(m.coeffs):
        if (m.base + p) % 2 == 0:
            even += abs(c)
        else:
            odd += abs(c)
    return max(even, odd)


def loop_combine(a: Mask, b: Mask, sign: float) -> Mask:
    """Coefficient-wise a + sign*b, aligned by absolute integer index, one
    index at a time: the reference for ``Mask.__add__`` (sign 1) and
    ``Mask.__sub__`` (sign -1)."""
    if a.is_zero:
        return b * sign
    if b.is_zero:
        return a
    lo = min(a.base, b.base)
    hi = max(a.base + len(a) - 1, b.base + len(b) - 1)
    return Mask(lo, tuple(a[i] + sign * b[i] for i in range(lo, hi + 1)))


def bits(m: Mask) -> tuple[int, list[str]]:
    """A mask's base and exact coefficient bits, signed zeros told apart."""
    return m.base, [c.hex() for c in m.coeffs]


@settings(derandomized, max_examples=400)
@given(any_masks)
def test_sup_norm_is_parity_loop(m):
    assert sup_norm(m) == loop_sup_norm(m) == loop_class_norm(m, 2)


@settings(derandomized, max_examples=400)
@given(any_masks, any_masks)
def test_mask_sum_and_difference_are_index_loop(a, b):
    """Bit for bit, except that with a zero-mask operand a zero coefficient
    may come out with the other sign: the loop returned the other operand
    (times the sign) as it was, the kernel adds it to zeros.  Where a sum
    overflows, both give inf, and numpy also warns."""
    with np.errstate(over="ignore"):
        results = ((a + b, 1.0), (a - b, -1.0))
    for got, sign in results:
        want = loop_combine(a, b, sign)
        if a.is_zero or b.is_zero:
            assert got == want
        else:
            assert bits(got) == bits(want)


@derandomized
@given(mask_lists)
def test_product_norm_is_residue_norm_of_composition(masks):
    op = compose_all(masks)
    chained = ProductOperator(masks[-1])
    for m in masks[-2::-1]:
        chained = compose(ProductOperator(m), chained)
    assert op.levels == chained.levels == len(masks)
    assert op.mask == chained.mask
    arity = 2 ** len(masks)
    assert product_norm(masks) == residue_class_norm(op.mask, arity) == loop_class_norm(op.mask, arity)


@derandomized
@given(mask_lists, st.integers(1, 8))
def test_runs_are_level_ordered_products(rules, n):
    """Entry k of runs(rules, n) is the product of rules[k : k + n] with
    rules[k] acting first: compose_all of that run in operator order."""
    got = list(runs(rules, n))
    assert len(got) == max(len(rules) - n + 1, 0)
    for k, (base, coeffs) in enumerate(got):
        assert Mask(base, tuple(map(float, coeffs))) == compose_all(rules[k : k + n][::-1]).mask


@derandomized
@given(mask_lists, mask_lists)
def test_stencil_difference_is_mask_difference(a, b):
    """The aligned stencil difference holds the floats of the per-index
    loop, so its class norm is the norm of the difference mask bit for
    bit."""
    ma, mb = compose_all(a).mask, compose_all(b).mask
    base, diff = stencil_difference(stencil(ma), stencil(mb))
    want = loop_combine(ma, mb, -1.0)
    assert bits(Mask(base, diff)) == bits(want)
    arity = 2 ** max(len(a), len(b))
    assert class_norm((base, diff), arity) == loop_class_norm(want, arity)


@derandomized
@given(cr_masks(), cr_masks(), st.floats(0.0, 2 * np.pi))
def test_compose_symbol_identity(outer, inner, theta):
    z = complex(np.cos(theta), np.sin(theta))
    op = compose(ProductOperator(outer), ProductOperator(inner))
    want = symbol_eval(outer, z) * symbol_eval(inner, z**2)
    terms = len(op.mask) + len(outer) + len(inner)
    assert abs(symbol_eval(op.mask, z) - want) <= terms * EPS * scale(outer, inner)


@derandomized
@given(cr_masks(), cr_masks(), cr_masks())
def test_compose_associative(a, b, c):
    ops = [ProductOperator(m) for m in (a, b, c)]
    left = compose(compose(ops[0], ops[1]), ops[2])
    right = compose(ops[0], compose(ops[1], ops[2]))
    assert left.levels == right.levels == 3
    terms = len(a) * len(b) * len(c)
    assert coeff_norm(left.mask - right.mask) <= terms * EPS * scale(a, b, c)


@derandomized
@given(cr_masks(), cr_masks(), st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=40),
       st.integers(-10, 10))
def test_apply_of_composition_is_apply_of_apply(outer, inner, values, start):
    f = Window(start, values)
    one = compose(ProductOperator(outer), ProductOperator(inner)).apply(f)
    two = apply(outer, apply(inner, f))
    lo, hi = max(one.start, two.start), min(one.stop, two.stop)
    assert lo < hi
    diff = one.span(lo, hi).values - two.span(lo, hi).values
    terms = len(outer) * len(inner)
    assert np.max(np.abs(diff)) <= terms * EPS * scale(outer, inner)
