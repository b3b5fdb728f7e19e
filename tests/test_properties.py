"""Property tests of the composition algebra over random constant-
reproducing masks, drawn by hypothesis.

Each mask is (1 + z) times a random polynomial with value 1 at z = 1, so it
reproduces constants.  The runs are derandomized, so the suite draws the
same examples every time.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiv import operators
from subdiv.errors import InvalidParameter, NotConstantReproducing
from subdiv.masks import (
    NOT_REPRODUCING,
    RULE_OK,
    TOL,
    TRIM_TOL,
    Mask,
    class_norm,
    class_norms,
    coeff_norm,
    difference_mask,
    difference_rows,
    mask_from_difference,
    reproduces_constants,
    row_stencils,
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
from subdiv.refine import RefinementState, _finite, decay_report
from subdiv.schemes import table_scheme

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
# Masks that may no longer reproduce constants: one coefficient moved, by
# up to 1 or by up to TOL, which leaves a remainder past the trim's TRIM_TOL
# on a mask that still reproduces constants.
moved_masks = st.builds(lambda m, d: m + Mask(m.base, (d,)), cr_masks(),
                        st.floats(-1.0, 1.0) | st.floats(-TOL, TOL))

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


def loop_difference_mask(m: Mask) -> Mask:
    """The difference rule as a loop over the mask's coefficients: the
    alternating partial sums q[i] = m[i] - q[i-1], cut at TRIM_TOL at both
    ends and checked by reconstruction.  The reference for
    ``difference_rows``, which must match it bit for bit."""
    if not reproduces_constants(m):
        raise NotConstantReproducing("no difference rule")
    acc, out = 0.0, []
    for c in m.coeffs[:-1]:
        acc = c - acc
        out.append(acc)
    lo, hi = 0, len(out)
    while lo < hi and abs(out[lo]) <= TRIM_TOL:
        lo += 1
    while hi > lo and abs(out[hi - 1]) <= TRIM_TOL:
        hi -= 1
    q = Mask(m.base + lo, tuple(out[lo:hi]))
    assert all(abs(m[i] - (q[i] + q[i - 1])) <= 1e-10 for i in range(m.base, m.base + len(m)))
    return q


def padded(m: Mask, N: int, width: int) -> np.ndarray:
    """The mask's coefficients as a row of ``width`` from index -N."""
    row = np.zeros(width)
    row[N + m.base : N + m.base + len(m)] = m.coeffs
    return row


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
    got = list(runs([stencil(r) for r in rules], n))
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


@derandomized
@given(st.lists(cr_masks() | moved_masks, min_size=1, max_size=8), cr_masks(),
       st.integers(0, 2))
def test_block_rules_are_the_scalar_rules(masks, comparator, pad):
    """On a block of masks with mixed bases and widths, padded to a common
    N, the block kernels give the scalar loops' floats bit for bit: each
    row's difference rule and verdict, the class norms of rules and masks,
    the rules' differences to a comparator's rule and the masks' largest
    coefficient difference to the comparator, and the masks' stencils."""
    N = pad + max(max(-m.base, m.base + len(m) - 1) for m in [*masks, comparator])
    rows = np.array([padded(m, N, 2 * N + 1) for m in masks])
    rules, verdicts = difference_rows(rows)
    assert rules.shape == (len(masks), 2 * N)
    qc = loop_difference_mask(comparator)
    derived = []
    for m, rule, verdict in zip(masks, rules, verdicts):
        try:
            q = loop_difference_mask(m)
        except NotConstantReproducing:
            assert verdict == NOT_REPRODUCING
            continue
        assert verdict == RULE_OK
        assert rule.tobytes() == padded(q, N, 2 * N).tobytes()
        derived.append((rule, q))
    for arity in (2, 4):
        assert class_norms(rows, -N, arity).tolist() == [loop_class_norm(m, arity) for m in masks]
        for rule, q in derived:
            assert class_norms(rule[None], -N, arity)[0] == loop_class_norm(q, arity)
            diff = rule - padded(qc, N, 2 * N)
            want = loop_combine(q, qc, -1.0)
            assert class_norms(diff[None], -N, arity)[0] == loop_class_norm(want, arity)
    largest = np.abs(rows - padded(comparator, N, 2 * N + 1)).max(axis=1)
    assert largest.tolist() == [coeff_norm(loop_combine(m, comparator, -1.0)) for m in masks]
    assert [bits(Mask(*s)) for s in row_stencils(rows, -N)] == list(map(bits, masks))


@derandomized
@given(cr_masks())
def test_difference_round_trip(m):
    """mask_from_difference undoes difference_mask within a few ulps of the
    mask's scale, besides the dust of at most TRIM_TOL that the end trim
    drops from the rule."""
    q = difference_mask(m)
    back = mask_from_difference(q)
    trimmed = len(q) < len(m) - 1
    tol = 8 * EPS * scale(m) + (TRIM_TOL if trimmed else 0.0)
    lo = min(m.base, back.base)
    hi = max(m.base + len(m), back.base + len(back))
    assert all(abs(back[i] - m[i]) <= tol for i in range(lo, hi))


def loop_decay_report(scheme, initial, k_max, certificate=None):
    """decay_report as the loop over whole windows that it was before its
    one depth-first pass: at each level the difference norm, the refined
    window from ``apply``, the difference-rule cross-check over every index
    both differences cover, and the gap to the refined window over every
    fine index of the common span, each checked to be finite.  Returns the
    norms, gaps and certified bounds, or the error and message raised."""
    deltas, gaps = [], []
    w = initial.window
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(initial.level, k_max + 1):
                v = w.values
                deltas.append(_finite(float(np.abs(np.diff(v)).max(initial=0.0)),
                                      "difference norm", k))
                if k < scheme.k0:
                    raise InvalidParameter(
                        f"state level {k} precedes the scheme's start {scheme.k0}")
                new = apply(scheme.mask_at(k), w)
                try:
                    q = scheme.difference_mask_at(k)
                except NotConstantReproducing:
                    q = None
                if q is not None and len(w) >= 2:
                    qb, qt = q.support
                    lo = max(2 * w.start + qt + 1, new.start + 1)
                    hi = min(2 * w.stop + qb, new.stop)
                    err = 0.0
                    if lo < hi:
                        via = apply(q, w.diff())
                        dev = (via.values[lo - via.start : hi - via.start]
                               - np.diff(new.values)[lo - new.start - 1 : hi - new.start - 1])
                        err = float(np.abs(dev).max())
                    err = _finite(err, "difference-rule error", k)
                    if err > TOL and err > TOL * w.sup():
                        raise RuntimeError(
                            f"difference rule disagrees with refined differences "
                            f"by {err!r} at level {k}")
                # fine index i against the coarse interpolant at i / 2
                i = np.arange(max(new.start, 2 * w.start), min(new.stop, 2 * w.stop - 1))
                j = i // 2 - w.start
                fine = new.values[i - new.start]
                even = v[j] - fine
                odd = (v[j] + v[np.minimum(j + 1, len(v) - 1)]) * 0.5 - fine
                gap = np.abs(np.where(i % 2 == 0, even, odd)).max(initial=0.0)
                gaps.append(_finite(float(gap), "interpolant gap", k))
                w = new
    except Exception as exc:
        return type(exc), str(exc)
    ks = range(initial.level, k_max + 1)
    d0 = deltas[0]
    bounds = None
    if certificate is not None:
        bounds = (tuple(certificate.C1 * certificate.mu_hat ** k * d0 for k in ks),
                  tuple(certificate.Gamma * certificate.mu_hat ** k * d0 for k in ks))
    return tuple(deltas), tuple(gaps), bounds


def pipeline_outcome(scheme, initial, k_max, certificate=None):
    try:
        rep = decay_report(scheme, initial, k_max, certificate=certificate)
    except Exception as exc:
        return type(exc), str(exc)
    bounds = None if certificate is None else (rep.delta_bounds, rep.cauchy_bounds)
    return rep.delta_norms, rep.cauchy_norms, bounds


# Masks of every length from 1 to 5, most reproducing constants and some
# moved off it; data heavy in zeros, and runs that start at levels above 0.
run_masks = (cr_masks() | moved_masks
             | st.builds(lambda b, c: Mask(b, (c,)), st.integers(-2, 2), st.floats(-2.0, 2.0)))
run_values = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.just(0.0) | st.floats(-1.0, 1.0), min_size=n, max_size=n))


@settings(derandomized, max_examples=120)
@given(st.integers(0, 3), st.integers(4, 6), st.data())
def test_decay_pipeline_is_whole_window_loop(k0, levels, data):
    """decay_report's one depth-first pass, with blocks of 16 values so that
    every level spans many, gives the loop's norms, gaps and bounds bit for
    bit, or raises its error with its message."""
    masks = data.draw(st.lists(run_masks, min_size=levels + 1, max_size=levels + 1))
    start = data.draw(st.integers(-20, 20))
    values = data.draw(run_values)
    cert = data.draw(st.none() | st.builds(
        lambda c1, mu, gamma: SimpleNamespace(C1=c1, mu_hat=mu, Gamma=gamma),
        st.floats(0.5, 4.0), st.floats(0.1, 0.99), st.floats(0.5, 4.0)))
    N = max([max(-m.base, m.base + len(m) - 1) for m in masks if not m.is_zero] + [1])
    initial = RefinementState(k0, Window(start, values))
    want = loop_decay_report(table_scheme(masks, k0=k0, N=N), initial, k0 + levels, cert)
    with mock.patch.object(operators, "_BLOCK", 16):
        # a fresh scheme, so its level table is read as the pass reads it
        got = pipeline_outcome(table_scheme(masks, k0=k0, N=N), initial, k0 + levels, cert)
    assert got == want
