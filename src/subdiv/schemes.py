"""Level-indexed subdivision schemes and the convergence machinery:
boundedness estimates, asymptotic-similarity diagnostics, transfer of the
contraction condition from a comparator scheme, and certificates with
explicit error constants."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    NotConstantReproducing,
    SimilarityNotEstablished,
    TailNotReached,
)
from .masks import (
    DECAY_MARGIN, ROUND_TOL, TOL, Mask, block_bytes, class_norm, class_norms, coeff_norm,
    difference_rows, product_bytes, product_norms, product_rows, products, row_stencils,
    rule_failure,
)
from .operators import ContractionWitness, check_budget, condition_a_search

# Explicit compositions are kept exact up to this many factors; longer
# prefixes fall back to a submultiplicative chunked upper bound (the
# composed stencil grows like 2**length and becomes unrepresentable).
_EXACT_PRODUCT_CAP = 16
# The most levels one level table of a scheme spans from its start.  A read
# past it is refused before any level is built, which bounds the time of
# the readers that read from k0 (about 0.1 ms a level) and the memory of a
# table: 152 to 299 bytes a level, table included, for the plain readers
# of derham(2, 1.5) (tracemalloc, 2**17 levels), below 320 MiB at the cap.
MAX_LEVELS = 2**20


class _LevelTable:
    """The rows of consecutive levels from ``start``, each from index -N:
    the masks of the first ``built`` levels (2N + 1 columns) and the
    difference rules (2N columns) and ``difference_rows`` verdicts of the
    first ``derived`` of them.  The arrays grow by doubling, so a table
    read one level at a time copies each row a bounded number of times."""

    __slots__ = ("start", "masks", "rules", "verdicts", "built", "derived")

    def __init__(self, start: int):
        self.start = start
        self.masks = self.rules = self.verdicts = None
        self.built = self.derived = 0

    def _reserve(self, count: int, N: int) -> None:
        held = 0 if self.masks is None else len(self.masks)
        if count <= held:
            return
        cap = max(count, min(2 * held, MAX_LEVELS))
        grown = np.zeros((cap, 2 * N + 1)), np.zeros((cap, 2 * N)), np.zeros(cap, int)
        if held:
            for new, old in zip(grown, (self.masks, self.rules, self.verdicts)):
                new[:held] = old
        self.masks, self.rules, self.verdicts = grown

    def build(self, scheme: "SchemeSpec", last: int) -> None:
        """Build the masks of the rows up to ``last``, in level order: as
        many as the scheme's ``rows_fn`` gives, then one ``mask_fn`` call a
        level, which raises for the level that ``rows_fn`` stopped before.
        A single level, as a table read one level at a time builds them,
        takes ``mask_fn``, which costs less on one level."""
        N = scheme.N
        self._reserve(last + 1, N)
        if scheme.rows_fn is not None and self.built < last:
            rows = scheme.rows_fn(self.start + self.built, self.start + last)
            self.masks[self.built : self.built + len(rows)] = rows
            self.built += len(rows)
        for r in range(self.built, last + 1):
            k = self.start + r
            m = scheme.mask_fn(k)
            sup = m.support
            if sup is not None and (sup[0] < -N or sup[1] > N):
                raise InvalidParameter(
                    f"mask at level {k} has support {sup}, outside [-{N}, {N}]"
                )
            self.masks[r, N + m.base : N + m.base + len(m)] = m.coeffs
            self.built = r + 1

    def derive(self, first: int, last: int, level: int) -> None:
        """Derive the rules of the built rows up to ``last`` not derived yet,
        and raise the error of the first of rows ``first`` to ``last`` whose
        mask has no rule; row ``first`` holds ``level``."""
        if last >= self.derived:
            rows = slice(self.derived, last + 1)
            self.rules[rows], self.verdicts[rows] = difference_rows(self.masks[rows])
            self.derived = last + 1
        failed = np.flatnonzero(self.verdicts[first : last + 1])
        if len(failed):
            r = first + int(failed[0])
            exc = rule_failure(self.masks[r], int(self.verdicts[r]))
            if isinstance(exc, NotConstantReproducing):
                k = level + r - first
                raise NotConstantReproducing(f"level {k}: {exc}", level=k)
            raise exc


@dataclass(frozen=True)
class AnalyticSimilarity:
    """Closed-form knowledge a catalog scheme carries about its own decay
    towards a stationary base mask: whether the per-level perturbation is
    o(1), and whether it is summable."""

    base_mask: Mask
    eps_is_o1: bool
    eps_summable: bool


@dataclass(frozen=True, eq=False)
class SchemeSpec:
    """A level-indexed source of masks.

    ``kind`` is one of "stationary", "table", "formula".  ``mask_fn`` must
    be a pure function of k: each level's mask is built and checked on its
    first read, and held in the scheme's level table together with its
    difference rule once that is derived; a level read again after its
    table was replaced is built again.  Every mask must fit in [-N, N].
    Table schemes are only defined up to ``max_level``.  ``bound_hint``
    asserts a known supremum of the coefficient sup-norms over all levels,
    replacing windowed estimates in the error constants.  ``rows_fn``,
    which the catalog gives where its masks are array operations, maps
    levels lo to hi to the rows from index -N (2N + 1 columns) of their
    masks, bit for bit as ``mask_fn``'s, and stops before the first level
    that ``mask_fn`` refuses.
    """

    kind: str
    k0: int
    N: int
    mask_fn: Callable[[int], Mask] = field(repr=False)
    name: str = ""
    bound_hint: float | None = None
    max_level: int | None = None
    analytic: AnalyticSimilarity | None = None
    descriptor: dict | None = None
    rows_fn: Callable[[int, int], np.ndarray] | None = field(default=None, repr=False)
    # the level table, made on the first read; a stationary scheme holds
    # its one level
    _table: _LevelTable | None = field(init=False, repr=False, default=None)

    def rows(self, lo: int, hi: int, rules: bool = False) -> np.ndarray:
        """The rows of levels lo to hi from index -N: their masks, or their
        difference rules when ``rules``, read-only.

        A level's mask is built on its first read and its rule derived on
        the first read of rules, both then held in the scheme's one level
        table.  A range that starts inside the table or right after it
        reads on from it; any other range starts a table at its first
        level, which replaces the one held, so the levels before it are
        never built.  A read that would make its table span more than
        MAX_LEVELS levels from the table's start (a stationary scheme's
        read: more than MAX_LEVELS levels) is refused with InvalidParameter
        before any level is built, so a scheme holds at most MAX_LEVELS
        levels.  A reading of rules raises for the first level of the
        range, in level order, whose mask cannot be built or has no rule; a
        level that does not reproduce constants raises
        NotConstantReproducing tagged with its level."""
        if hi < lo:
            return np.zeros((0, 2 * self.N + (not rules)))
        for k in (lo, hi):
            if k < self.k0:
                raise InvalidParameter(
                    f"level {k} is below the scheme's starting level {self.k0}"
                )
            if self.max_level is not None and k > self.max_level:
                raise InvalidParameter(
                    f"level {k} is beyond the scheme's table (last level {self.max_level})"
                )
        table = self._table
        if self.kind == "stationary":
            table = table or _LevelTable(self.k0)
            start, first, last = lo, 0, 0
        else:
            if table is None or not table.start <= lo <= table.start + table.built:
                table = _LevelTable(lo)
            start = table.start
            first, last = lo - start, hi - start
        if hi - start >= MAX_LEVELS:
            raise InvalidParameter(
                f"reading levels {lo} to {hi} spans {hi - start + 1} levels from "
                f"level {start}, past the level cap of {MAX_LEVELS} levels"
            )
        object.__setattr__(self, "_table", table)
        if not rules:
            table.build(self, last)
            block = table.masks[first : last + 1]
        else:
            failure = None
            try:
                table.build(self, last)
            except Exception as exc:  # any error of mask_fn, after the rules before it
                failure = exc
            table.derive(first, min(last, table.built - 1), lo)
            if failure is not None:
                raise failure
            block = table.rules[first : last + 1]
        if self.kind == "stationary":
            return np.broadcast_to(block, (hi - lo + 1, block.shape[1]))
        block = block.view()
        block.flags.writeable = False
        return block

    def mask_at(self, k: int) -> Mask:
        return Mask(-self.N, self.rows(k, k)[0])

    def clamp(self, k_lo: int, k_hi: int) -> tuple[int, int]:
        """The part of the level range [k_lo, k_hi] that this scheme
        defines.  Raises InvalidParameter when no level of it is left."""
        k_lo = max(k_lo, self.k0)
        if self.max_level is not None:
            k_hi = min(k_hi, self.max_level)
        if k_hi < k_lo:
            raise InvalidParameter(
                f"level range [{k_lo}, {k_hi}] is empty on this scheme's domain"
            )
        return k_lo, k_hi

    def difference_mask_at(self, k: int) -> Mask:
        """Difference rule of the level-k mask.  A mask that does not
        reproduce constants raises NotConstantReproducing tagged with k."""
        return Mask(-self.N, self.rows(k, k, rules=True)[0])

    def to_dict(self) -> dict:
        if self.descriptor is None:
            raise InvalidParameter(
                "formula scheme has no serializable description; construct it "
                "through the catalog to attach one"
            )
        return dict(self.descriptor)


def _widened(rows: np.ndarray, N: int) -> np.ndarray:
    """Rows of masks or of rules that start at index -n, for n = half their
    width, as rows from index -N >= -n, padded with +0.0."""
    n = rows.shape[1] // 2
    if n == N:
        return rows
    out = np.zeros((len(rows), rows.shape[1] + 2 * (N - n)))
    out[:, N - n : N - n + rows.shape[1]] = rows
    return out


def _default_locality(mask: Mask) -> int:
    sup = mask.support
    if sup is None:
        raise InvalidParameter("cannot infer locality of the zero mask")
    return max(abs(sup[0]), abs(sup[1]))


def stationary_scheme(mask: Mask, N: int | None = None, name: str = "") -> SchemeSpec:
    """Scheme applying the same mask at every level (k0 = 0); its
    ``bound_hint`` is the mask's own coefficient sup-norm, which is exact."""
    if N is None:
        N = _default_locality(mask)
    return SchemeSpec(
        kind="stationary", k0=0, N=N, mask_fn=lambda k: mask, name=name,
        bound_hint=coeff_norm(mask),
        descriptor={"kind": "stationary", "mask": mask.to_dict(), "N": N},
    )


def table_scheme(
    masks: Sequence[Mask],
    k0: int = 0,
    N: int | None = None,
    name: str = "",
) -> SchemeSpec:
    """Scheme reading masks from an explicit per-level table."""
    masks = tuple(masks)
    if not masks:
        raise InvalidParameter("table scheme needs at least one mask")
    if N is None:
        N = max(_default_locality(m) for m in masks)
    hint = max(coeff_norm(m) for m in masks)
    return SchemeSpec(
        kind="table", k0=k0, N=N,
        mask_fn=lambda k: masks[k - k0], name=name,
        bound_hint=hint, max_level=k0 + len(masks) - 1,
        descriptor={
            "kind": "table", "masks": [m.to_dict() for m in masks], "k0": k0, "N": N,
        },
    )


def formula_scheme(
    mask_fn: Callable[[int], Mask],
    k0: int,
    N: int,
    name: str = "",
    bound_hint: float | None = None,
    max_level: int | None = None,
    analytic: AnalyticSimilarity | None = None,
    descriptor: dict | None = None,
) -> SchemeSpec:
    """Scheme whose level-k mask comes from a closed-form rule."""
    return SchemeSpec(
        kind="formula", k0=k0, N=N, mask_fn=mask_fn, name=name,
        bound_hint=bound_hint, max_level=max_level, analytic=analytic,
        descriptor=descriptor,
    )


@dataclass(frozen=True)
class BoundednessReport:
    coeff_sup: float
    operator_sup: float
    from_hint: bool
    k_lo: int
    k_hi: int

    def to_dict(self) -> dict:
        return asdict(self)


def boundedness_estimate(scheme: SchemeSpec, k_range: tuple[int, int]) -> BoundednessReport:
    """Largest coefficient sup-norm and operator sup-norm over the scanned
    levels.  A ``bound_hint`` on the scheme replaces the coefficient scan
    (it asserts the true supremum over all levels, not just the window)."""
    k_lo, k_hi = scheme.clamp(*k_range)
    # every level of a stationary scheme has the same mask
    last = k_lo if scheme.kind == "stationary" else k_hi
    rows = scheme.rows(k_lo, last)
    coeff = float(np.abs(rows).max(initial=0.0))
    op = float(class_norms(rows, -scheme.N, 2).max(initial=0.0))
    if scheme.bound_hint is not None:
        return BoundednessReport(scheme.bound_hint, op, True, k_lo, k_hi)
    return BoundednessReport(coeff, op, False, k_lo, k_hi)


@dataclass(frozen=True)
class SimilarityReport:
    """Windowed diagnostics for mask-difference decay between two schemes.

    ``similar`` is "yes" / "no" / "inconclusive"; ``equivalent`` is
    "summable" / "not-summable-in-window" / "inconclusive".  Verdicts are
    trend tests over the scanned window unless ``analytic`` is True, in
    which case a catalog scheme's closed-form decay flags decided them and
    the numeric table is corroborating evidence.
    """

    ks: tuple[int, ...]
    diffs: tuple[float, ...]
    partial_sums: tuple[float, ...]
    similar: str
    equivalent: str
    decay_fit: tuple[float, float] | None
    analytic: bool
    N: int

    def to_dict(self) -> dict:
        d = asdict(self)
        for old, new in (("ks", "k"), ("diffs", "diff"), ("partial_sums", "partial_sum")):
            d[new] = d.pop(old)
        d["tol"] = TOL
        return d


def _loglog_fit(ks: Sequence[int], vals: Sequence[float]) -> tuple[float, float] | None:
    pts = [(k, v) for k, v in zip(ks, vals) if k > 0 and v > 0]
    if len(pts) < 4:
        return None
    x = np.log([float(p[0]) for p in pts])  # levels past int64 too
    y = np.log([p[1] for p in pts])
    (slope, intercept), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    if rank < 2:  # the logs of late levels round too close to fit a slope
        return None
    return float(np.exp(intercept)), float(slope)


def _analytic_flags(a: SchemeSpec, b: SchemeSpec) -> AnalyticSimilarity | None:
    """a's closed-form decay flags, when b is stationary with a's base mask."""
    if a.analytic is None or b.kind != "stationary" or not a.analytic.eps_is_o1:
        return None
    if coeff_norm(b.mask_at(b.k0) - a.analytic.base_mask) <= TOL:
        return a.analytic
    return None


def _shared_base(a: SchemeSpec, b: SchemeSpec) -> bool:
    """Both schemes decay in closed form to the same stationary base, so
    they are similar to each other by the triangle inequality."""
    return (
        a.analytic is not None
        and b.analytic is not None
        and a.analytic.eps_is_o1
        and b.analytic.eps_is_o1
        and coeff_norm(a.analytic.base_mask - b.analytic.base_mask) <= TOL
    )


def similarity_report(
    a: SchemeSpec,
    b: SchemeSpec,
    k_range: tuple[int, int],
) -> SimilarityReport:
    """Per-level sup differences of the two mask families, with verdicts.

    The numeric 'yes' requires the last quarter of the window to sit below
    TOL and not increase; 'no' requires the differences to stay above TOL
    with no decay trend; anything else is inconclusive, because a finite
    window cannot prove a limit.  Catalog schemes whose perturbation decay
    is known in closed form short-circuit to analytic verdicts.  The range
    is clamped to both schemes' domains, as ``boundedness_estimate`` does.
    """
    k_lo, k_hi = b.clamp(*a.clamp(*k_range))
    if k_hi - k_lo + 1 < 8:
        raise InvalidParameter("similarity window must cover at least 8 levels")
    N = max(a.N, b.N)
    diff = _widened(a.rows(k_lo, k_hi), N) - _widened(b.rows(k_lo, k_hi), N)
    ks = list(range(k_lo, k_hi + 1))
    diffs = np.abs(diff).max(axis=1).tolist()
    psums = list(itertools.accumulate(diffs))

    count = len(ks)
    quarter = max(2, count // 4)
    tail = diffs[-quarter:]
    fit = _loglog_fit(ks[count // 2 :], diffs[count // 2 :])

    # Numeric trend verdicts; closed-form knowledge may override below.
    nonincreasing = all(
        tail[i + 1] <= tail[i] + ROUND_TOL for i in range(len(tail) - 1)
    )
    trending_down = tail[0] > 0 and tail[-1] < tail[0] * (1 - DECAY_MARGIN)
    if max(tail) <= TOL and nonincreasing:
        similar = "yes"
    elif min(diffs) > TOL and not trending_down:
        similar = "no"
    else:
        similar = "inconclusive"
    if psums[-1] - psums[count - quarter] <= TOL:
        equivalent = "summable"
    else:
        octave_from = max(ks[0], (ks[-1] + 1) // 2)
        idx = next(i for i, k in enumerate(ks) if k >= octave_from)
        equivalent = (
            "not-summable-in-window" if psums[-1] - psums[idx] > TOL
            else "inconclusive"
        )

    analytic = False
    flags = _analytic_flags(a, b) or _analytic_flags(b, a)
    if flags is not None:
        similar = "yes"
        equivalent = "summable" if flags.eps_summable else "not-summable-in-window"
        analytic = True
    elif _shared_base(a, b):
        similar = "yes"
        analytic = True
        if a.analytic.eps_summable and b.analytic.eps_summable:
            equivalent = "summable"
        # otherwise the pairwise sums are not determined by the flags;
        # keep the windowed verdict

    return SimilarityReport(
        ks=tuple(ks), diffs=tuple(diffs), partial_sums=tuple(psums),
        similar=similar, equivalent=equivalent, decay_fit=fit,
        analytic=analytic, N=max(a.N, b.N),
    )


def _transfer(
    target: SchemeSpec,
    comparator: SchemeSpec,
    witness_star: ContractionWitness,
    k_range: tuple[int, int],
    mu: float | None,
) -> tuple[ContractionWitness, dict]:
    """The witness and its scan metadata."""
    if comparator.kind != "stationary":
        raise InvalidParameter("comparator must be a stationary scheme")
    mu_star, n = witness_star.mu, witness_star.n
    if not mu_star < 1.0:
        raise InvalidParameter("comparator witness does not contract (mu* >= 1)")
    k_lo, k_hi = comparator.clamp(*target.clamp(*k_range))
    # a product of n rules from level k_hi reads n - 1 levels past it
    k_hi = target.clamp(k_lo, k_hi + n - 1)[1] - (n - 1)
    if k_hi < k_lo:
        raise InvalidParameter("transfer window is empty after clamping to domains")

    stationary_target = target.kind == "stationary"
    if mu is None:
        mu = (1.0 + mu_star) / 2.0
    lo_ok = mu >= mu_star if stationary_target else mu > mu_star
    if not (lo_ok and mu < 1.0):
        raise InvalidParameter(
            f"mu = {mu!r} must lie in ({mu_star!r}, 1) "
            "(closed at the left end only for stationary targets)"
        )
    eps = (mu - mu_star) / 2.0

    N = max(target.N, comparator.N)
    check_budget(block_bytes(N, n), f"a transfer's products of {n} rules")
    # Constant reproduction on every target level from k0, checked before
    # similarity so the failure reported first is the binding one.  The
    # read spans the levels from k0 against the cap, since the C1 prefix
    # reads the levels before the window too.
    rules = target.rows(target.k0, k_hi + n - 1, rules=True)[k_lo - target.k0 :]
    sim = similarity_report(target, comparator, (k_lo, k_hi))
    if sim.similar != "yes":
        raise SimilarityNotEstablished(
            f"similarity verdict over levels [{k_lo}, {k_hi}] was "
            f"'{sim.similar}', not 'yes'"
        )

    # the comparator's one product, its one level read as n rules, and the
    # target's products, as rows from the same index
    c_rules = comparator.rows(comparator.k0, comparator.k0 + n - 1, rules=True)
    c = product_rows(_widened(c_rules, N), n)
    tnorms, diffs = map(np.ndarray.tolist, product_norms(_widened(rules, N), n, minus=c))

    # the level after the last difference above epsilon
    k_tilde = k_lo + max((i + 1 for i, d in enumerate(diffs) if d > eps), default=0)
    if k_tilde > k_hi:
        raise TailNotReached(
            f"product-norm differences never settled below epsilon = {eps!r} "
            f"within levels [{k_lo}, {k_hi}] (last suffix max {diffs[-1]!r})"
        )

    K = max(witness_star.K, k_tilde)
    checked = tnorms[K - k_lo :]
    if checked and max(checked) > mu + TOL:
        raise RuntimeError(
            "transferred bound violated by a computed product norm; "
            "internal inconsistency"
        )
    witness = ContractionWitness(
        K=K, n=n, mu=mu, window=len(checked),
        windowed=not stationary_target,
    )
    meta = {
        "K_tilde": k_tilde,
        "epsilon": eps,
        "k_lo": k_lo,
        "k_hi": k_hi,
        "max_product_norm_checked": max(checked) if checked else None,
        "similar_analytic": sim.analytic,
    }
    return witness, meta


def transfer_condition_a(
    target: SchemeSpec,
    comparator: SchemeSpec,
    witness_star: ContractionWitness,
    k_range: tuple[int, int],
    mu: float | None = None,
) -> ContractionWitness:
    """Carry a stationary comparator's contraction over to an asymptotically
    similar scheme; a level-dependent comparator raises InvalidParameter.

    Picks mu halfway between the comparator's mu* and 1 (overridable), sets
    epsilon to half the gap, and locates the first scanned level from which
    all n-fold product-norm differences stay below epsilon.  The returned
    start level is the larger of that level and the comparator's own.
    Raises SimilarityNotEstablished or TailNotReached when the window does
    not support the transfer; both are inconclusive outcomes.
    """
    return _transfer(target, comparator, witness_star, k_range, mu)[0]


def _c1_prefix(rules: np.ndarray) -> tuple[float, bool]:
    """C1's worst prefix norm and whether it is exact: the largest norm, and
    at least 1, of the products of the first m rules for every m, where
    ``rules`` holds the rows from index -N of the target's difference rules
    in level order from its k0.

    A product of at most ``_EXACT_PRODUCT_CAP`` rules is expanded exactly.
    A longer one is bounded by submultiplicativity over blocks of that many
    levels aligned at k0: the product of the norms of the full blocks before
    it times the exact norm of its partial block.  A block's partial
    products are taken by extension, so each level costs one composition,
    and one block's stencils and product are held at a time.
    """
    cap = _EXACT_PRODUCT_CAP
    best = before = 1.0
    for a in range(0, len(rules), cap):
        qs = row_stencils(rules[a : a + cap], -(rules.shape[1] // 2))
        for j, p in enumerate(products(qs), 1):
            norm = class_norm(p, 2**j)
            best = max(best, before * norm)
        before *= norm
    return best, len(rules) <= cap


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Explicit constants proving geometric convergence of a refinement
    scheme, assembled from a contraction witness.

    mu_hat = mu**(1/n) is the certified per-level decay rate, and ``eta``,
    the rate quoted in the bound, equals it.  The bounds are anchored at
    k_star = K + n - 1, the level from which every n levels contract by mu:
    a level-k difference norm is at most C1 * mu_hat**max(0, k - k_star)
    times the initial one, a level-k interpolant gap at most Gamma times
    the same factor, and the sup-distance to the limit from level
    k >= k_star at most C * mu_hat**(k - k_star) times it.  ``windowed``
    marks certificates whose contraction rests on a finite scanned window
    rather than an exact stationary product.
    """

    mu_star: float
    n: int
    K: int
    k_star: int
    mu: float
    mu_hat: float
    eta: float
    C1: float
    C2: float
    Gamma: float
    C: float
    holder_exponent: float
    provenance: str
    windowed: bool
    meta: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scan"] = d.pop("meta")
        return d

    @classmethod
    def from_dict(cls, obj) -> "ConvergenceCertificate":
        """Rebuild a certificate from ``to_dict`` output read back from a
        file.  Raises ValueError for a non-object, a field of the wrong
        type, a non-finite number, mu_hat outside (0, 1), or a k_star that
        is missing or other than K + n - 1, and KeyError for another
        missing field."""
        if not isinstance(obj, dict):
            raise ValueError("a certificate must be a JSON object")
        scan = obj.get("scan", {})
        if not isinstance(scan, dict):
            raise ValueError(f"certificate field 'scan' must be an object, got {scan!r}")
        if "k_star" not in obj:
            raise ValueError(
                "certificate has no field 'k_star': it was written before "
                "certificates were anchored at K + n - 1, so certify again"
            )
        cert = cls(**{f.name: _field(obj, f.name, f.type) for f in fields(cls)
                      if f.name != "meta"}, meta=dict(scan))
        if cert.k_star != cert.K + cert.n - 1:
            raise ValueError(
                f"certificate k_star = {cert.k_star} is not K + n - 1 = {cert.K + cert.n - 1}"
            )
        if not 0.0 < cert.mu_hat < 1.0:
            raise ValueError(f"certificate mu_hat = {cert.mu_hat!r} is outside (0, 1)")
        return cert


# The Python types of the certificate's JSON fields other than numbers
_JSON_TYPES = {"int": int, "str": str, "bool": bool}


def _field(obj: dict, key: str, kind: str):
    """``obj[key]``, which must be a JSON value of the field type ``kind``
    (a name, under postponed annotations): a finite number, as a float, for
    ``float``."""
    value = obj[key]
    if kind == "float":
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"certificate field {key!r} must be a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, _JSON_TYPES[kind]) or (kind == "int" and isinstance(value, bool)):
        raise ValueError(f"certificate field {key!r} must be a {kind}, got {value!r}")
    return value


def certify_theorem4(
    target: SchemeSpec,
    comparator: SchemeSpec,
    k_range: tuple[int, int] | None = None,
    mu: float | None = None,
    n_max: int = 8,
) -> ConvergenceCertificate:
    """Certify convergence of ``target`` by comparison with a convergent
    stationary ``comparator``.

    Pipeline: find the comparator's exact contraction (mu*, n); check the
    target reproduces constants on the scanned levels and is asymptotically
    similar to the comparator; transfer the contraction (mu defaults to the
    midpoint of (mu*, 1) and must lie in that interval, closed at mu* for a
    stationary target); then assemble the explicit constants, anchored at
    k_star = K + n - 1, where the contraction starts,

        C1    -- the start-up bound: the largest norm, and at least 1, of
                 the products of the target's difference rules from k0 up
                 to each level before k_star,
        C2    -- N * (sup of coefficient sup-norms + 1), from the hat-
                 function telescoping,
        Gamma -- N * C1 * C2, the per-level gap constant,
        C     -- Gamma / (1 - mu_hat), the geometric-series total,

    so that the level-k difference bound is C1 * mu_hat**max(0, k - k_star)
    times the initial differences' norm, plus the Holder exponent
    |log2 mu_hat| of the limit.  The certificate's ``eta``, the rate quoted
    in the bounds, is mu_hat = mu**(1/n).
    """
    if comparator.kind != "stationary":
        raise InvalidParameter("comparator must be a stationary scheme")
    witness_star = condition_a_search(comparator, n_max=n_max)
    mu_star, n = witness_star.mu, witness_star.n
    stationary_target = target.kind == "stationary"

    if k_range is None:
        k_range = (target.k0, target.k0 + 63)
    witness, transfer_meta = _transfer(target, comparator, witness_star, k_range, mu)
    K, mu_used = witness.K, witness.mu
    mu_hat = mu_used ** (1.0 / n)

    # A rate that rounds to 1 leaves no finite constant to certify.
    if mu_hat == 1.0:
        raise InvalidParameter(
            f"mu_hat = mu**(1/n) rounds to 1.0 for mu = {mu_used!r}, n = {n}, "
            "so C = Gamma / (1 - mu_hat) is not finite"
        )
    # Start-up bound: the worst prefix product of the target's difference
    # rules before level k_star, from which the contraction holds.
    k_star = K + n - 1
    check_budget(product_bytes(target.N, min(_EXACT_PRODUCT_CAP, k_star - target.k0)),
                 f"a C1 prefix over levels {target.k0} to {k_star - 1}")
    C1, c1_exact = _c1_prefix(target.rows(target.k0, k_star - 1, rules=True))

    bound = boundedness_estimate(target, (transfer_meta["k_lo"], transfer_meta["k_hi"]))
    C2 = target.N * (bound.coeff_sup + 1.0)
    Gamma = target.N * C1 * C2
    C = Gamma / (1.0 - mu_hat)
    if not all(map(math.isfinite, (C1, Gamma, C))):
        raise InvalidParameter(
            f"certificate constants overflow: C1 = {C1!r}, Gamma = {Gamma!r}, C = {C!r}"
        )
    holder = abs(math.log2(mu_hat))

    meta = {
        **transfer_meta,
        "window": witness.window,
        "sup_from_hint": bound.from_hint,
        "c1_exact": c1_exact,
        "comparator_K": witness_star.K,
        "degenerate": stationary_target and coeff_norm(
            target.mask_at(target.k0) - comparator.mask_at(comparator.k0)) <= TOL,
    }
    return ConvergenceCertificate(
        mu_star=mu_star, n=n, K=K, k_star=k_star, mu=mu_used, mu_hat=mu_hat, eta=mu_hat,
        C1=C1, C2=C2, Gamma=Gamma, C=C, holder_exponent=holder,
        provenance="theorem2" if stationary_target else "theorem4",
        windowed=witness.windowed, meta=meta,
    )
