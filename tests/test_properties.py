"""Property tests of the composition algebra over random constant-
reproducing masks, drawn by hypothesis.

Each mask is (1 + z) times a random polynomial with value 1 at z = 1, so it
reproduces constants.  The runs are derandomized, so the suite draws the
same examples every time.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
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
    compose_coeffs,
    difference_mask,
    difference_rows,
    mask_from_difference,
    product_rows,
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
)
from subdiv.refine import RefinementState, _finite, decay_report, limit_sample, refine_once
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


def runs(rules, n):
    """Yield the stencils of the products of each n consecutive rules,
    given as stencils, in level order: the product of ``rules[k : k + n]``,
    for k = 0, 1, ..., composed afresh for each k, one ``compose_coeffs``
    a factor.  The reference for ``product_rows``."""
    def compose_next(held, rule):
        return compose_coeffs(rule, held, 2)

    return (functools.reduce(compose_next, rules[k : k + n])
            for k in range(len(rules) - n + 1))


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


@st.composite
def long_stencils(draw):
    """``(stencil, arity)``: 33 to 4096 coefficients, past class_norm's
    loop, from a base within about 10**6 of 0, and an arity 2**j for
    j = 1..16.  Some lengths sit one below, at or one past a multiple of
    the arity, and some bases put the stencil's end there.  The
    coefficients are floats within a drawn span of binades, some replaced
    by signed zeros and subnormals."""
    arity = 2 ** draw(st.integers(1, 16))
    near = [n for k in range(1, 4096 // arity + 2) for n in (k * arity - 1, k * arity, k * arity + 1)
            if 33 <= n <= 4096]
    lengths = st.integers(33, 4096)
    length = draw(lengths | st.sampled_from(near) if near else lengths)
    base = draw(st.integers(-10**6, 10**6))
    if draw(st.booleans()):
        base += -(base + length) % arity + draw(st.integers(-1, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1074, 400))
    coeffs = rng.uniform(-2.0, 2.0, length) * 2.0 ** rng.integers(lo, lo + draw(st.integers(1, 60)), length)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1023) * 1.5])
    chosen = rng.random(length) < draw(st.floats(0.0, 1.0))
    coeffs[chosen] = rng.choice(special, chosen.sum())
    return (base, coeffs), arity


@settings(derandomized, max_examples=300)
@given(long_stencils())
def test_long_class_norm_is_loop(case):
    """The class sums of a long stencil, taken as column sums of its
    weights laid out in rows of ``arity``, are the loop's bit for bit."""
    (base, coeffs), arity = case
    want = loop_class_norm(SimpleNamespace(base=base, coeffs=coeffs.tolist()), arity)
    assert class_norm((base, coeffs), arity) == want
    assert class_norm((base, tuple(coeffs.tolist())), arity) == want


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


# Rule rows of up to 12 columns, one coefficient a column drawn across
# binades, with zeros inside and at either end, so that rows of one block
# start and stop at different columns.
rule_rows = st.integers(1, 6).flatmap(lambda N: st.lists(
    st.lists(st.just(0.0) | st.floats(-1e3, 1e3, allow_subnormal=False),
             min_size=2 * N, max_size=2 * N),
    min_size=1, max_size=12))


@settings(derandomized, max_examples=150)
@given(rule_rows, st.integers(1, 6))
# a product's end underflows to zero and is trimmed, which moves the column
# where the next product starts or stops
@example([[1e-200, *np.sqrt(np.arange(2.0, 19.0))]] * 3, 3)
@example([[*np.sqrt(np.arange(18.0, 1.0, -1.0)), 1e-200]] * 3, 3)
def test_product_rows_are_runs(rules, n):
    """Row k of product_rows holds runs' product of rules k to k + n - 1,
    each coefficient bit for bit, so the class norms of its rows are the
    class norms of runs' stencils; the rows padded with zeros, or a block
    cut short, give the same rows."""
    rows_in = np.array(rules)
    N = rows_in.shape[1] // 2
    want = list(runs(row_stencils(rows_in, -N), n))
    base, arity = -N * (2**n - 1), 2**n
    got = product_rows(rows_in, n)
    assert got.shape == (max(len(rules) - n + 1, 0), (2 * N - 1) * (2**n - 1) + 1)
    assert len(got) == len(want)
    for row, p in zip(got, want):
        assert bits(Mask(*row_stencils(row[None], base)[0])) == bits(Mask(*p))
    norms = [class_norm(p, arity) for p in want]
    assert class_norms(got, base, arity).tolist() == norms
    wide = np.zeros((len(rules), 2 * N + 2))
    wide[:, 1:-1] = rows_in
    assert product_rows(wide, n)[:, 2**n - 1 : 1 - 2**n].tobytes() == got.tobytes()
    for cut in range(n, len(rules) + 1):
        assert product_rows(rows_in[:cut], n).tobytes() == got[: cut - n + 1].tobytes()


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


def loop_windows(scheme, initial, depth):
    """The windows of levels initial.level + 1 to ``depth`` as ``apply``
    refines whole windows, or the error and message it raises."""
    windows, w = [], initial.window
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(initial.level, depth):
                w = apply(scheme.mask_at(k), w)
                windows.append((w.start, w.values.view(np.int64).tolist()))
    except Exception as exc:
        return type(exc), str(exc)
    return windows


# Masks of any signs, zeros inside: every coefficient negative, so that
# every product with +0.0 is -0.0, or one end tap alone positive, which a
# partial sum at a level's end leaves out; and 4-point masks, whose end
# taps are negative.
signed_masks = st.builds(
    Mask, st.integers(-3, 2),
    st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0),
             min_size=1, max_size=5))
# A mask with an inf or NaN coefficient, which has no rule to cross-check;
# drawn for the last level only, so that no cross-check reads its NaN.
nonfinite_masks = st.builds(
    lambda m, i, c: Mask(m.base, m.coeffs[:i] + (c,) + m.coeffs[i:]),
    signed_masks, st.integers(0, 5), st.sampled_from([np.inf, -np.inf, np.nan]))
four_point_masks = st.builds(
    lambda w: Mask(-3, (-w, 0.0, 0.5 + w, 1.0, 0.5 + w, 0.0, -w)), st.floats(1e-3, 0.2))
# Data of long +0.0 or -0.0 runs between short runs of other values.
zero_run_values = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, -0.0]), st.integers(1, 60)).map(lambda z: [z[0]] * z[1])
    | st.lists(st.just(-0.0) | st.floats(-1.0, 1.0), min_size=1, max_size=4),
    min_size=1, max_size=6).map(lambda runs: [x for run in runs for x in run])


@settings(derandomized, max_examples=150)
@given(st.integers(0, 2), st.integers(1, 5), st.data())
def test_refined_windows_are_apply_bits(k0, levels, data):
    """refine_once a level at a time and limit_sample in one pass, with
    blocks of 16 values so that a level spans many steps and long +0.0 runs
    fill whole steps, give the values of ``apply`` on whole windows bit for
    bit, signed zeros included, or raise its error with its message."""
    finite = run_masks | signed_masks | four_point_masks
    masks = data.draw(st.lists(finite, min_size=levels - 1, max_size=levels - 1))
    masks.append(data.draw(finite | nonfinite_masks))
    start = data.draw(st.integers(-20, 20))
    values = data.draw(zero_run_values)
    N = max(max(-m.base, m.base + len(m) - 1) for m in masks)
    initial = RefinementState(k0, Window(start, values))
    want = loop_windows(table_scheme(masks, k0=k0, N=N), initial, k0 + levels)
    with mock.patch.object(operators, "_BLOCK", 16):
        scheme = table_scheme(masks, k0=k0, N=N)
        try:
            got, state = [], initial
            for _ in range(levels):
                state = refine_once(state, scheme)
                got.append((state.window.start, state.window.values.view(np.int64).tolist()))
        except Exception as exc:
            got = type(exc), str(exc)
        assert got == want
        try:
            sample = limit_sample(table_scheme(masks, k0=k0, N=N), initial, k0 + levels)
            last = round(sample.xs[0] * 2.0 ** sample.level), sample.values.view(np.int64).tolist()
        except Exception as exc:
            last = type(exc), str(exc)
    assert last == (want[-1] if isinstance(want, list) else want)
