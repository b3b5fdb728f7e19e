"""Finitely supported coefficient masks: symbols, norms, and factorizations,
and the coefficient kernels on stencils and on blocks of rows that every
norm, difference, composition and product of rules runs on.

A mask is a finite list of real coefficients anchored at an integer base
index; everything outside the stored range is zero.  Masks are immutable
values and all operations here are pure functions, so they are safe to
share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotConstantReproducing, NotFactorable

# Tolerance policy.  Every inexact comparison in subdiv uses one of these
# constants, and none of them is a parameter: each one is part of what a
# verdict or a certificate means.
#
# The decision threshold of every inexact test on quantities of size about
# 1: a symbol within TOL of 0 at -1 and of 2 at +1 reproduces constants;
# masks whose coefficients differ by at most TOL are the same rule, and
# mask differences at most TOL count as vanished in a similarity verdict;
# a computed product norm may exceed its transferred bound by TOL; the
# refinement cross-check allows TOL, times the largest value once that
# exceeds 1, since both of its routes round in proportion to the data.
TOL = 1e-12
# A parity-class sum of a mask that passes the TOL test at +-1 is at most
# TOL plus the rounding of the sum; 1/16 of headroom covers the rounding.
_TAIL_TOL = TOL * 1.0625
# Factorizations trim coefficients at or below this threshold: synthetic
# division leaves float dust that would otherwise break canonical form.
TRIM_TOL = 1e-14
# The reconstruction identity re-derived from a factorization must agree
# with the input this tightly, else an index bug is suspected.
_RECONSTRUCT_TOL = 1e-10
# Rounding slack between two routes to the same number of size about 1, a
# few ulps of 1: a similarity tail may step up by this much and still be
# nonincreasing.
ROUND_TOL = 1e-15
# A similarity tail trends down only when its last value sits below its
# first by this relative margin, so rounding on a flat tail reads as flat.
DECAY_MARGIN = 1e-9


def _trimmed(base: int, coeffs: Sequence[float], tol: float) -> tuple[int, Sequence[float]]:
    """The stencil without its end coefficients of absolute value at most
    ``tol``, as a slice of ``coeffs``."""
    lo, hi = 0, len(coeffs)
    while lo < hi and abs(coeffs[lo]) <= tol:
        lo += 1
    while hi > lo and abs(coeffs[hi - 1]) <= tol:
        hi -= 1
    if lo == hi:
        return 0, coeffs[:0]
    return base + lo, coeffs[lo:hi]


def _floats(coeffs: Sequence[float]) -> Sequence[float]:
    """A stencil's coefficients as a sequence of Python numbers."""
    return coeffs.tolist() if isinstance(coeffs, np.ndarray) else tuple(coeffs)


@dataclass(frozen=True)
class Mask:
    """Coefficient ``coeffs[p]`` sits at integer index ``base + p``.

    Canonical form is enforced on construction: leading and trailing exact
    zeros are dropped, so the first and last stored coefficients are nonzero
    unless the mask is the zero mask (empty ``coeffs``).
    """

    base: int = 0
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        base, coeffs = _trimmed(self.base, _floats(self.coeffs), 0.0)
        object.__setattr__(self, "base", int(base))
        object.__setattr__(self, "coeffs", tuple(map(float, coeffs)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[int, int] | None:
        """Inclusive hull (first, last) of the stored coefficients, or None."""
        if self.is_zero:
            return None
        return self.base, self.base + len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> float:
        p = i - self.base
        if 0 <= p < len(self.coeffs):
            return self.coeffs[p]
        return 0.0

    def __add__(self, other: "Mask") -> "Mask":
        lo, x, y = _aligned(stencil(self), stencil(other))
        x += y
        return Mask(lo, x)

    def __sub__(self, other: "Mask") -> "Mask":
        return Mask(*stencil_difference(stencil(self), stencil(other)))

    def __mul__(self, scalar: float) -> "Mask":
        return Mask(self.base, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"base": self.base, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Mask":
        """Rebuild a mask from ``to_dict`` output; a non-finite coefficient,
        which Python's json reads from NaN or Infinity, raises ValueError."""
        coeffs = tuple(float(c) for c in obj["coeffs"])
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"mask coefficients must be finite, got {list(coeffs)!r}")
        return cls(int(obj["base"]), coeffs)


# Mask of the stationary scheme whose limits are piecewise-linear hats;
# the reference every perturbation is measured against.
LINEAR_BSPLINE = Mask(-1, (0.5, 1.0, 0.5))


def stencil(m: Mask) -> tuple[int, Sequence[float]]:
    """A mask as a ``(base, coeffs)`` stencil, the form the coefficient
    kernels below work on.  Stencils hold a mask's tuple or, once composed
    or subtracted, the kernel's array."""
    return m.base, m.coeffs


# Stencils up to this long take their class sums in a Python loop, which
# beats the fixed cost of the numpy calls on one short stencil.  Its hot
# caller is the C1 prefix; the products of a window of start levels take
# ``class_norms`` over blocks of rows instead.
_SHORT_STENCIL = 32


def class_norm(stencil: tuple[int, Sequence[float]], arity: int) -> float:
    """Max over residue classes mod ``arity`` of the absolute coefficient
    sums of a stencil.  A long stencil's weights sit from offset
    ``base % arity`` in rows of ``arity`` columns, one column a class, and
    a column sum adds its rows in order; so the loop and the column sums
    both add the weights of a class in index order, and the +0.0 that pads
    the rows adds nothing: they give the same sums bit for bit.  One class
    takes the loop, since numpy sums a single contiguous column pairwise,
    not in index order."""
    base, coeffs = stencil
    if len(coeffs) > _SHORT_STENCIL and arity > 1:
        offset = base % arity
        stop = offset + len(coeffs)
        weights = np.zeros(-(-stop // arity) * arity)
        np.abs(coeffs, out=weights[offset:stop])
        return float(weights.reshape(-1, arity).sum(axis=0).max())
    sums = [0.0] * arity
    for p, c in enumerate(_floats(coeffs), base):
        sums[p % arity] += abs(c)
    return max(sums)


def class_norms(rows: np.ndarray, base: int, arity: int) -> np.ndarray:
    """``class_norm`` of each row of a block of stencils that all start at
    index ``base``.  Each row's weights sit from offset ``base % arity`` in
    slabs of ``arity`` columns, one column a class, and the slabs are added
    in index order; so each row's sums see the same additions, in the same
    order, as ``class_norm`` of its stencil, and the +0.0 that pads a row
    adds nothing."""
    offset = base % arity
    stop = offset + rows.shape[1]
    weights = np.zeros((len(rows), -(-stop // arity) * arity))
    np.abs(rows, out=weights[:, offset:stop])
    sums = weights[:, :arity].copy()
    for a in range(arity, weights.shape[1], arity):
        sums += weights[:, a : a + arity]
    return sums.max(axis=1)


def row_stencils(rows: np.ndarray, base: int) -> list[tuple[int, np.ndarray]]:
    """The stencils of a block of rows that start at index ``base``, each
    cut to its nonzero coefficients as ``Mask`` cuts them: the stencils of
    the masks the rows hold."""
    nonzero = rows != 0.0
    first = nonzero.argmax(axis=1).tolist()
    stop = (rows.shape[1] - nonzero[:, ::-1].argmax(axis=1)).tolist()
    return [
        (base + a, row[a:b]) if a < b else (0, row[:0])
        for row, a, b in zip(rows, first, stop)
    ]


def _aligned(a, b) -> tuple[int, np.ndarray, np.ndarray]:
    """``(lo, x, y)``: two stencils as arrays from index ``lo`` over the
    hull of both, each +0.0 off its own coefficients, so ``x + y`` and
    ``x - y`` are the per-index sums of the two masks, signed zeros
    included."""
    (a_base, a_c), (b_base, b_c) = a, b
    lo = min(a_base, b_base)
    n = max(a_base + len(a_c), b_base + len(b_c)) - lo
    x, y = np.zeros(n), np.zeros(n)
    x[a_base - lo : a_base - lo + len(a_c)] = a_c
    y[b_base - lo : b_base - lo + len(b_c)] = b_c
    return lo, x, y


def stencil_difference(
    a: tuple[int, Sequence[float]], b: tuple[int, Sequence[float]]
) -> tuple[int, np.ndarray]:
    """Stencil of ``a - b``, aligned by absolute index over the hull of
    both, with exact-zero ends kept."""
    lo, x, y = _aligned(a, b)
    x -= y
    return lo, x


def compose_coeffs(
    outer: tuple[int, Sequence[float]], inner: tuple[int, Sequence[float]], arity: int
) -> tuple[int, np.ndarray]:
    """Stencil of outer(z) * inner(z**arity), the one composition kernel of
    the library, with exact-zero ends trimmed by ``Mask``'s scan."""
    (o_base, o), (i_base, i) = outer, inner
    if not len(o) or not len(i):
        return 0, np.zeros(0)
    up = np.zeros(arity * (len(i) - 1) + 1)
    up[::arity] = i
    # The end coefficients are products of end coefficients, so with
    # trimmed factors the trim stops at once unless a product underflows.
    return _trimmed(o_base + arity * i_base, np.convolve(o, up), 0.0)


def products(rules: Sequence[tuple[int, Sequence[float]]]):
    """The stencils of the products of the first 1, 2, ... arity-2 rules,
    given as stencils, in level order, the first rule acting first, as an
    iterator: each step composes the next level's rule onto the held
    product as the outer factor, q(z) * P(z**2)."""
    return itertools.accumulate(rules, lambda held, rule: compose_coeffs(rule, held, 2))


def product_rows(rules: np.ndarray, n: int) -> np.ndarray:
    """The products of every n consecutive rules of a block of rule rows
    from index -N, in level order: row k holds the rules ``k`` to
    ``k + n - 1``, the first acting first, from index -N * (2**n - 1) over
    (2N - 1) * (2**n - 1) + 1 columns, +0.0 off its coefficients.  Each
    start level's product extends the one before it,
    P_m = q_{k+m-1}(z) * P_{m-1}(z**2), through ``compose_coeffs`` on the
    trimmed stencils, so its coefficients are that kernel's bit for bit."""
    starts = max(len(rules) - n + 1, 0)
    if n == 1:
        return rules[:starts]
    out = np.zeros((starts, (rules.shape[1] - 1) * (2**n - 1) + 1))
    # bases count columns, so a product's base is its first column
    q = row_stencils(rules, 0)
    for k in range(starts):
        product = q[k]
        for rule in q[k + 1 : k + n]:
            product = compose_coeffs(rule, product, 2)
        base, coeffs = product
        out[k, base : base + len(coeffs)] = coeffs
    return out


# Peak bytes per coefficient while a product of n rules of a scheme with
# locality N is composed and its norm taken, counting the product as
# 2N * 2**n coefficients, or while a block of ``product_norms`` is,
# counting the block as at least _PRODUCT_BLOCK coefficients.
# tracemalloc measured about 14 for product_norm of Chaikin's difference
# rule; 64 keeps a margin of over 4x.
_PRODUCT_BYTES = 64
# Coefficients per block of ``product_norms``: 1 MiB of rows, whose norms
# ``class_norms`` takes in one pass over the block.
_PRODUCT_BLOCK = 2**17


def product_bytes(N: int, n: int) -> int:
    """Peak bytes of a product of n rules of a scheme with locality N."""
    return _PRODUCT_BYTES * 2 * N << min(n, 64)


def block_bytes(N: int, n: int) -> int:
    """Peak bytes of a block of ``product_norms`` for a scheme with
    locality N: a block holds at most _PRODUCT_BLOCK coefficients, or one
    product."""
    return max(_PRODUCT_BYTES * _PRODUCT_BLOCK, product_bytes(N, n))


def product_norms(rules: np.ndarray, n: int, minus: np.ndarray | None = None):
    """The class norms at arity 2**n of ``product_rows(rules, n)`` and,
    given product rows ``minus``, those of the products less ``minus`` too,
    as a pair.  The products are composed in blocks of at most
    _PRODUCT_BLOCK coefficients, or one product; each norm is
    ``class_norm`` of its product's stencil, bit for bit."""
    N, starts = rules.shape[1] // 2, max(len(rules) - n + 1, 0)
    base, arity = -N * (2**n - 1), 2**n
    step = max(1, _PRODUCT_BLOCK // ((rules.shape[1] - 1) * (2**n - 1) + 1))
    norms, less = np.empty(starts), np.empty(starts)
    for a in range(0, starts, step):
        rows = product_rows(rules[a : a + step + n - 1], n)
        norms[a : a + len(rows)] = class_norms(rows, base, arity)
        if minus is not None:
            less[a : a + len(rows)] = class_norms(rows - minus, base, arity)
    return norms if minus is None else (norms, less)


def symbol_eval(m: Mask, z: complex) -> complex:
    """Evaluate the mask's Laurent polynomial sum_i m[i] * z**i.

    Returns a float for real z, complex otherwise.  z = 0 is outside the
    domain when the support reaches negative indices.
    """
    total = 0.0 if not isinstance(z, complex) else 0.0 + 0.0j
    for p, c in enumerate(m.coeffs):
        total += c * z ** (m.base + p)
    return total


def sup_norm(m: Mask) -> float:
    """Sup-norm of the subdivision operator with mask m.

    Equals the larger of the even-index and odd-index absolute coefficient
    sums.  Moving the base by one swaps the two classes, so the norm does
    not depend on the base.
    """
    return class_norm(stencil(m), 2)


def coeff_norm(m: Mask) -> float:
    """Sup-norm of the mask as a sequence: max |coefficient|."""
    return max((abs(c) for c in m.coeffs), default=0.0)


def parity_sums(m: Mask) -> tuple[float, float]:
    """(even, odd) plain coefficient sums over the absolute-index parities."""
    even = odd = 0.0
    for p, c in enumerate(m.coeffs):
        if (m.base + p) % 2 == 0:
            even += c
        else:
            odd += c
    return even, odd


def reproduces_constants(m: Mask) -> bool:
    """True iff the symbol vanishes at -1 and equals 2 at +1, within TOL.

    Equivalently: both parity sums equal 1, which is what keeps all-ones
    data invariant under refinement.
    """
    return abs(symbol_eval(m, -1.0)) <= TOL and abs(symbol_eval(m, 1.0) - 2.0) <= TOL


# A row's verdict from ``difference_rows``: its rule is derived, its mask
# does not reproduce constants, or (``REBUILT_AT`` plus the column) the
# rule fails to rebuild the mask at that column.
RULE_OK = 0
NOT_REPRODUCING = 1
REBUILT_AT = 2


def difference_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each symbol of a block of mask rows exactly by (1 + z): the
    rules acting on backward differences, and each row's verdict.

    ``rows`` holds one mask a row from index -N over 2N + 1 columns; the
    rules come as rows from -N over 2N columns, +0.0 off their
    coefficients.  Every step runs one vector operation per column, in
    index order, so each row gets the floats a loop over its own mask
    would: the symbol sums at -1 and +1 of the constant-reproduction test
    (within TOL of 0 and 2), the alternating partial-sum recurrence
    q[i] = m[i] - q[i-1] below the mask's top index, the end trim at
    TRIM_TOL, and the reconstruction m[i] = q[i] + q[i-1], which must hold
    within an internal tolerance (disagreement indicates a bug, not bad
    input).  A row that fails a check keeps its verdict, NOT_REPRODUCING
    or REBUILT_AT plus the first column off; ``rule_failure`` turns it
    into the error to raise.
    """
    levels, width = rows.shape
    at_one = np.zeros(levels)
    rules = np.zeros((levels, width + 1))  # one +0.0 column either side
    with np.errstate(all="ignore"):  # non-finite rows fail like the loop
        for j in range(width):
            col = rows[:, j]
            at_one += col
            np.subtract(col, rules[:, j], out=rules[:, j + 1])
        # The recurrence run through the last column is the symbol at -1
        # up to sign, bit for bit, since fl(c - (-a)) = fl(a + c).
        at_minus_one = np.abs(rules[:, -1])
        rules[:, -1] = 0.0
        verdict = np.where(
            (at_minus_one <= TOL) & (np.abs(at_one - 2.0) <= TOL),
            RULE_OK, NOT_REPRODUCING,
        )
        q = rules[:, 1:-1]
        # the recurrence stops below each mask's top index
        past_top = ~np.logical_or.accumulate(rows[:, :0:-1] != 0.0, axis=1)[:, ::-1]
        q[past_top] = 0.0
        kept = np.abs(q) > TRIM_TOL
        q[~(np.logical_or.accumulate(kept, axis=1)
            & np.logical_or.accumulate(kept[:, ::-1], axis=1)[:, ::-1])] = 0.0
        off = np.abs(rows - (rules[:, 1:] + rules[:, :-1])) > _RECONSTRUCT_TOL
    rebuilt = off.any(axis=1) & (verdict == RULE_OK)
    verdict[rebuilt] = REBUILT_AT + off[rebuilt].argmax(axis=1)
    return q, verdict


def rule_failure(row: np.ndarray, verdict: int) -> Exception:
    """The error that ``difference_rows`` reports for the mask ``row`` with
    this failing verdict."""
    N = len(row) // 2
    if verdict == NOT_REPRODUCING:
        even, odd = parity_sums(Mask(-N, row))
        return NotConstantReproducing(
            f"mask does not reproduce constants (parity sums {even!r}, {odd!r})"
        )
    return RuntimeError(
        f"difference-mask reconstruction failed at index {verdict - REBUILT_AT - N}; "
        "the two division routes disagree"
    )


def difference_mask(m: Mask) -> Mask:
    """Divide the symbol exactly by (1 + z): the mask acting on backward
    differences, derived by ``difference_rows`` on the mask's one row.
    Requires constant reproduction (the division must leave no remainder).
    """
    N = max(-m.base, m.base + len(m) - 1, 0)
    rows = np.zeros((1, 2 * N + 1))
    rows[0, N + m.base : N + m.base + len(m)] = m.coeffs
    rules, verdict = difference_rows(rows)
    if verdict[0] != RULE_OK:
        raise rule_failure(rows[0], verdict[0])
    return Mask(-N, rules[0])


def mask_from_difference(q: Mask) -> Mask:
    """Inverse of difference_mask: multiply the symbol by (1 + z)."""
    if q.is_zero:
        return q
    out = []
    prev = 0.0
    for c in q.coeffs:
        out.append(c + prev)
        prev = c
    out.append(prev)
    return Mask(q.base, tuple(out))


def perturbation_mask(a: Mask) -> Mask:
    """Coefficient-wise difference from the linear B-spline mask, aligned
    by absolute index."""
    return a - LINEAR_BSPLINE


def telescoped_mask(d: Mask) -> Mask:
    """Factor the symbol as d(z) = (1 - z^2) * e(z) and return e.

    e[i] accumulates d over the descending even-spaced tail, so the support
    of e ends two indices before d's.  Both symbol values d(1) and d(-1)
    must vanish within TOL, otherwise the factorization has a remainder.
    """
    if d.is_zero:
        return d
    s1 = symbol_eval(d, 1.0)
    s2 = symbol_eval(d, -1.0)
    if abs(s1) > TOL or abs(s2) > TOL:
        raise NotFactorable(
            f"symbol values at +-1 are {s1!r}, {s2!r}; cannot factor out (1 - z^2)"
        )
    full = []
    for p, c in enumerate(d.coeffs):
        full.append(c + (full[p - 2] if p >= 2 else 0.0))
    # The top two accumulated values are the full parity-class sums, which
    # the symbol conditions force to ~0; they sit outside the provable
    # support and are dropped.
    tail_err = max(abs(v) for v in full[-2:])
    if tail_err > _TAIL_TOL:
        raise RuntimeError(
            f"telescoping residual {tail_err!r} exceeds tolerance despite "
            "symbol preconditions; internal inconsistency"
        )
    e = Mask(*_trimmed(d.base, full[:-2], TRIM_TOL))
    positions = set()
    if d.support:
        positions.update(range(d.support[0], d.support[1] + 1))
    if e.support:
        positions.update(range(e.support[0] + 2, e.support[1] + 3))
    for i in positions:
        if abs(d[i] - (e[i] - e[i - 2])) > _RECONSTRUCT_TOL:
            raise RuntimeError(
                f"telescoping identity failed at index {i}; internal inconsistency"
            )
    return e
