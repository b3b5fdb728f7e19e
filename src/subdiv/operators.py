"""Subdivision operators on finite windows: application, composition of
rules into higher-arity products in operator order and their norms, the
memory budget, and the windowed contraction search, which takes its
product norms from ``masks.product_norms``."""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ContractionNotFound, EmptyOutput, InvalidParameter
from .masks import Mask, block_bytes, class_norm, compose_coeffs, product_norms, stencil


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
# Peak bytes the search holds per scanned level and per unit of n_max: up
# to n_max cells of the scan.  tracemalloc measured 115 to 127 for
# contraction_scan of corner-cutting (N = 2) and 4-point (N = 3) rules at
# n_max = 8 and K_max = 2000 and 8000, once the level table's entries were
# taken off, and 1114 a level in all, table included, for derham(2, 1.5)
# at n_max = 8 over 2**17 levels, within the 1280 charged.
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
    up = np.zeros(arity * (len(f) - 1) + 1)
    up[::arity] = f.values
    conv = np.convolve(up, np.asarray(m.coeffs))
    del up
    # conv[q] is the output at index arity * f.start + m.base + q
    lo = len(m) - arity
    if lo >= 0:
        out = conv[lo : lo + n_out]
    else:
        # mask shorter than the arity: the extreme valid indices have an
        # empty stencil and are +0.0
        out = np.zeros(n_out)
        out[-lo : -lo + len(conv)] = conv
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


def compose_all(masks: Sequence[Mask]) -> ProductOperator:
    """Compose arity-2 rules; the LAST mask in the list acts first.  Each
    step composes the next rule onto the held product as the outer factor,
    as ``masks.products`` does."""
    if not masks:
        raise InvalidParameter("empty operator product")
    return functools.reduce(lambda held, rule: compose(rule, held),
                            map(ProductOperator, masks[::-1]))


def product_norm(masks: Sequence[Mask]) -> float:
    """Sup-norm of the composed operator; the last mask acts first."""
    op = compose_all(masks)
    return residue_class_norm(op.mask, op.arity)


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
    pinned at k0: it reads its one level, broadcast, as the n rules of one
    start level.
    """
    if n_max < 1 or window < 1 or K_max < 0:
        raise InvalidParameter("n_max and window must be >= 1, K_max >= 0")
    k0 = last = scheme.k0
    if scheme.kind != "stationary":
        _, last = scheme.clamp(k0, k0 + K_max + window + n_max - 1)
    check_budget(block_bytes(scheme.N, n_max) + _LEVEL_BYTES * n_max * (last - k0 + 1),
                 f"products of up to {n_max} rules over levels {k0} to {last}")
    rules = scheme.rows(k0, last, rules=True)
    for n in range(1, n_max + 1):
        if scheme.kind == "stationary":
            rules = scheme.rows(k0, k0 + n - 1, rules=True)
        norms = product_norms(rules, n).tolist()
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
