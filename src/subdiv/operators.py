"""Subdivision operators on finite windows: application, composition of
level rules into higher-arity products, operator norms, and the windowed
contraction search."""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ContractionNotFound, EmptyOutput, InvalidParameter
from .masks import (
    Mask, class_norm, class_norms, compose_coeffs, product_rows, row_stencils, stencil,
)


class Window:
    """A finite run of values on consecutive integer indices.

    ``values[0]`` sits at index ``start``.  The array is frozen; windows are
    treated as immutable values throughout the library.
    """

    __slots__ = ("start", "values")

    def __init__(self, start: int, values):
        self.start = int(start)
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("window values must be one-dimensional")
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def _adopt(cls, start: int, arr: np.ndarray) -> "Window":
        """Wrap a 1-D float array that the caller has just computed and holds
        no other reference to, without copying it."""
        w = object.__new__(cls)
        w.start = start
        arr.setflags(write=False)
        w.values = arr
        return w

    @property
    def stop(self) -> int:
        """Exclusive upper index."""
        return self.start + len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)

    def value_at(self, i: int) -> float:
        p = i - self.start
        if not 0 <= p < len(self.values):
            raise IndexError(f"index {i} outside window [{self.start}, {self.stop})")
        return float(self.values[p])

    def span(self, lo: int, hi: int) -> "Window":
        """The sub-window on indices [lo, hi), sharing this window's values."""
        return Window._adopt(lo, self.values[lo - self.start : hi - self.start])

    def diff(self) -> "Window":
        """Backward differences; defined one index later than the values."""
        # np.diff's arithmetic, without its per-call overhead on the
        # block-sized windows of the refinement cross-check
        v = self.values
        return Window._adopt(self.start + 1, np.subtract(v[1:], v[:-1]))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0

    def __repr__(self) -> str:
        return f"Window(start={self.start}, n={len(self.values)})"


# A request whose estimated memory exceeds this many bytes is refused with
# InvalidParameter before it allocates anything (the CLI's exit 3).
MEMORY_BUDGET = 2**30
# Peak bytes per coefficient while a product of n rules of a scheme with
# locality N is composed and its norm taken, counting the product as
# 2N * 2**n coefficients, or while a block of products (``product_blocks``)
# is, counting the block as at least _PRODUCT_BLOCK coefficients.
# tracemalloc measured about 14 for product_norm of Chaikin's difference
# rule; 64 keeps a margin of over 4x.
_PRODUCT_BYTES = 64
# Peak bytes the search holds per scanned level and per unit of n_max,
# besides the level table: up to n_max cells of the scan.  tracemalloc
# measured 115 to 127 for contraction_scan of corner-cutting (N = 2) and
# 4-point (N = 3) rules at n_max = 8 and K_max = 2000 and 8000, once the
# table's entries were taken off.
_LEVEL_BYTES = 160


def check_budget(need: int, request: str) -> int:
    """``need``, the estimated bytes of ``request``; refuses the request
    when they exceed MEMORY_BUDGET."""
    if need > MEMORY_BUDGET:
        raise InvalidParameter(
            f"{request} needs about {need >> 20} MiB, over the "
            f"{MEMORY_BUDGET >> 20} MiB memory budget"
        )
    return need


def product_bytes(N: int, n: int) -> int:
    """Peak bytes of a product of n rules of a scheme with locality N."""
    return _PRODUCT_BYTES * 2 * N << min(n, 64)


# Values per block in the blocked passes over a window: input values in
# ``apply``, indices in the per-level scans of ``refine``.  The only
# window-sized arrays a pass keeps alive are the ones it reads and writes;
# a block's temporaries stay small.  On a 2-vCPU Xeon VM, 2**15 ran a
# level-19 decay_report a little faster than 2**14 or 2**16.
_BLOCK = 2**15
# Coefficients per block of ``product_blocks``: 1 MiB of rows, whose norms
# ``masks.class_norms`` takes in one pass over the block.
_PRODUCT_BLOCK = 2**17


def block_bytes(N: int, n: int) -> int:
    """Peak bytes of a block of ``product_blocks`` for a scheme with
    locality N: a block holds at most _PRODUCT_BLOCK coefficients, or one
    product."""
    return max(_PRODUCT_BYTES * _PRODUCT_BLOCK, product_bytes(N, n))


def product_blocks(rules: np.ndarray, n: int):
    """``masks.product_rows`` of a window of rule rows, yielded block by
    block of consecutive start levels: each block's rows hold at most
    _PRODUCT_BLOCK coefficients, and at least one row."""
    width = (rules.shape[1] - 1) * (2**n - 1) + 1
    step = max(1, _PRODUCT_BLOCK // width)
    for a in range(0, len(rules) - n + 1, step):
        yield product_rows(rules[a : a + step + n - 1], n)


def block_ranges(lo: int, hi: int):
    """Consecutive half-open ranges ``(a, b)`` of at most ``_BLOCK``
    indices that cover ``[lo, hi)``."""
    return ((a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK))


def _valid_pieces(coeffs: np.ndarray, values: np.ndarray, arity: int):
    """Yield the valid output of ``apply`` in consecutive pieces, one per
    block of input values (needs ``len(coeffs) >= arity``).

    Each block is zero-stuffed and convolved on its own, together with the
    ``reach`` input values before it and the one after it.  So an output
    it yields is a full-stencil sum in the block exactly when it is one in
    a whole-window ``np.convolve``, over the same stuffed values, and numpy
    computes such sums bit for bit alike.  The first and the last block end
    at the true ends of the window, where numpy's partial sums match the
    whole-window call as well.
    """
    n, L = len(values), len(coeffs)
    reach = -(-(L - 1) // arity)
    step = max(_BLOCK, reach)
    for a in range(0, n, step):
        b = min(a + step, n)
        first, last = max(a - reach, 0), min(b + 1, n)
        up = np.zeros(arity * (last - first - 1) + 1)
        up[::arity] = values[first:last]
        conv = np.convolve(up, coeffs)
        # conv[q] is the whole-window convolution at arity*first + q, whose
        # valid part runs from L - arity to arity*n.
        lo = arity * a if a else L - arity
        yield conv[lo - arity * first : arity * (b - first)]


def output_span(m: Mask, start: int, stop: int, arity: int = 2) -> tuple[int, int]:
    """The first index and the number of the values ``apply`` makes from a
    window on the indices [start, stop); refuses what ``apply`` refuses."""
    if m.is_zero:
        raise InvalidParameter("cannot apply a zero mask: it has no stencil")
    if arity < 2:
        raise InvalidParameter("arity must be at least 2")
    if stop <= start:
        raise EmptyOutput("empty input window")
    mb, mt = m.support  # type: ignore[misc]
    out_lo = arity * start + mt - arity + 1
    n_out = arity * (stop - 1) + mb + arity - out_lo
    if n_out <= 0:
        need = -(mb - mt - arity + 2) // arity + 1
        raise EmptyOutput(
            f"window of {stop - start} values is too short for mask support "
            f"[{mb}, {mt}] at arity {arity}; need at least {need} values"
        )
    return out_lo, n_out


def apply(m: Mask, f: Window, arity: int = 2) -> Window:
    """Apply the subdivision rule with mask ``m`` to a finite window.

    With dilation ``arity`` = A the output at index i is sum_j m[i - A*j] f[j].
    Only indices whose whole stencil lies inside ``f`` are produced, so the
    valid index range shrinks deterministically; no boundary data is ever
    fabricated.  Raises EmptyOutput when the input is too short for a single
    fully supported value.
    """
    out_lo, n_out = output_span(m, f.start, f.stop, arity)
    coeffs = np.asarray(m.coeffs)
    if len(m) < arity:
        # Mask shorter than the arity: the extreme valid indices have an
        # empty stencil and are zero.
        up = np.zeros(arity * (len(f) - 1) + 1)
        up[::arity] = f.values
        conv = np.convolve(up, coeffs)
        del up
        out = np.zeros(n_out)
        out[arity - len(m) : arity - len(m) + len(conv)] = conv
    elif len(f) <= _BLOCK:
        # one block: keep its piece of the convolution rather than copy it
        (out,) = _valid_pieces(coeffs, f.values, arity)
    else:
        out = np.empty(n_out)
        pos = 0
        for piece in _valid_pieces(coeffs, f.values, arity):
            out[pos : pos + len(piece)] = piece
            pos += len(piece)
    return Window._adopt(out_lo, out)


@dataclass(frozen=True, eq=False)
class ProductOperator:
    """Composition of ``levels`` arity-2 rules collapsed into one stencil
    of arity 2**levels.  For levels = 1 it is the plain rule itself."""

    mask: Mask
    levels: int = 1

    @property
    def arity(self) -> int:
        return 2 ** self.levels

    def apply(self, f: Window) -> Window:
        return apply(self.mask, f, self.arity)


def compose(outer: ProductOperator, inner: ProductOperator) -> ProductOperator:
    """Collapse outer . inner (inner acts first) into one operator.

    The combined symbol is outer(z) * inner(z**A) with A the outer arity;
    arities multiply.
    """
    base, coeffs = compose_coeffs(stencil(outer.mask), stencil(inner.mask), outer.arity)
    return ProductOperator(Mask(base, coeffs), outer.levels + inner.levels)


def residue_class_norm(m: Mask, arity: int) -> float:
    """Max over residue classes mod arity of the absolute coefficient sums.

    This is the sup-norm of the arity-``arity`` operator with stencil m.
    Residues are taken on absolute indices, but moving the base relabels
    the classes cyclically, so the maximum does not depend on the base.
    """
    if arity < 1:
        raise InvalidParameter("arity must be positive")
    return class_norm(stencil(m), arity)


def _compose_next(held, rule):
    """The step of every level-ordered product: the next level's rule
    composed onto the held product as the outer factor, q(z) * P(z**2)."""
    return compose_coeffs(rule, held, 2)


def products(rules: Sequence[tuple[int, Sequence[float]]]):
    """The stencils of the products of the first 1, 2, ... arity-2 rules,
    given as stencils, in level order, the first rule acting first, as an
    iterator."""
    return itertools.accumulate(rules, _compose_next)


def _product(rules: Sequence[tuple[int, Sequence[float]]]) -> tuple[int, Sequence[float]]:
    """Stencil of the product of all the rules, given as stencils, in level
    order."""
    if not rules:
        raise InvalidParameter("empty operator product")
    return functools.reduce(_compose_next, rules)


def compose_all(masks: Sequence[Mask]) -> ProductOperator:
    """Compose arity-2 rules; the LAST mask in the list acts first."""
    base, coeffs = _product([stencil(m) for m in masks[::-1]])
    return ProductOperator(Mask(base, coeffs), len(masks))


def product_norm(masks: Sequence[Mask]) -> float:
    """Sup-norm of the composed operator; the last mask acts first."""
    return class_norm(_product([stencil(m) for m in masks[::-1]]), 2 ** len(masks))


@dataclass(frozen=True)
class ContractionWitness:
    """Evidence that n-fold products of difference rules contract.

    ``mu`` is the maximum product norm over the ``window`` start levels
    actually checked (for witnesses produced by the search), or a certified
    upper bound on those norms (for witnesses produced by transfer from a
    comparator scheme).  ``windowed`` is False only when the scheme is
    stationary and the single computed product makes the sup exact.
    """

    K: int
    n: int
    mu: float
    window: int
    windowed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _contraction_cells(scheme, n_max: int, K_max: int, window: int):
    """Yield the search's ``(n, K, mu, levels_checked)`` cells in contract
    order: product length n outer, start level K inner.

    ``mu`` is the maximum norm of the n-fold difference-rule products
    starting at levels K .. K + window, clamped to the levels the scheme
    defines.  A stationary scheme yields one exact cell per n, with K
    pinned at k0.
    """
    if n_max < 1 or window < 1 or K_max < 0:
        raise InvalidParameter("n_max and window must be >= 1, K_max >= 0")
    k0 = last = scheme.k0
    if scheme.kind != "stationary":
        _, last = scheme.clamp(k0, k0 + K_max + window + n_max - 1)
    scheme.admit(k0, last, f"products of up to {n_max} rules over levels {k0} to {last}",
                 block_bytes(scheme.N, n_max) + _LEVEL_BYTES * n_max * (last - k0 + 1))
    rules = scheme._block(k0, last, rules=True)
    if scheme.kind == "stationary":
        q = row_stencils(rules, -scheme.N)[0]
        for n, p in enumerate(products([q] * n_max), 1):
            yield n, k0, class_norm(p, 2**n), 1
        return

    for n in range(1, n_max + 1):
        base, arity = -scheme.N * (2**n - 1), 2**n
        norms = [norm for rows in product_blocks(rules, n)
                 for norm in class_norms(rows, base, arity).tolist()]
        for K in range(k0, k0 + K_max + 1):
            cell = norms[K - k0 : K - k0 + window + 1]
            if not cell:
                break
            yield n, K, max(cell), len(cell)


def condition_a_search(
    scheme,
    n_max: int = 8,
    K_max: int = 32,
    window: int = 64,
) -> ContractionWitness:
    """Search for a contracting product of difference rules.

    Scans product lengths n = 1..n_max (outer) and start levels
    K = k0..k0+K_max (inner), computing for each pair the maximum product
    norm over start levels k in [K, K + window], and returns the first pair
    whose maximum drops below 1.  Smallest n wins ties, then smallest K;
    the order is part of the contract because n drives the decay-rate
    estimate.  For stationary schemes the product norm does not depend on
    the start level, so a single product per n is exact and the witness is
    not windowed.

    Raises NotConstantReproducing if any scanned level lacks a difference
    rule, and ContractionNotFound (with the scanned table attached) when no
    pair succeeds; the latter is inconclusive, not a disproof.
    """
    scan = []
    for n, K, mu, checked in _contraction_cells(scheme, n_max, K_max, window):
        if mu < 1.0:
            return ContractionWitness(
                K=K, n=n, mu=mu, window=checked,
                windowed=scheme.kind != "stationary",
            )
        scan.append((n, K, mu))
    if scheme.kind == "stationary":
        raise ContractionNotFound(
            f"no product length up to {n_max} contracts", scan=scan
        )
    raise ContractionNotFound(
        f"no (K, n) with n <= {n_max}, K <= {scheme.k0 + K_max} contracts "
        f"over a window of {window}",
        scan=scan,
    )


def contraction_scan(
    scheme,
    n_max: int = 8,
    K_max: int = 32,
    window: int = 64,
) -> list[tuple[int, int, float]]:
    """All (n, K, mu) cells the search would consider, without early exit.

    Stationary schemes report one row per n (K pinned at k0).  Arguments
    the search refuses raise InvalidParameter here too.
    """
    return [
        (n, K, mu)
        for n, K, mu, _ in _contraction_cells(scheme, n_max, K_max, window)
    ]
