import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from subdiv import catalog, operators, refine, schemes
from subdiv.errors import (
    InvalidParameter,
    NotConstantReproducing,
    SimilarityNotEstablished,
    TailNotReached,
)
from subdiv.masks import Mask, coeff_norm, difference_mask, difference_rows
from subdiv.operators import compose_all, condition_a_search, product_norm, residue_class_norm
from subdiv.schemes import (
    _EXACT_PRODUCT_CAP,
    AnalyticSimilarity,
    ConvergenceCertificate,
    SchemeSpec,
    _c1_prefix,
    _transfer,
    boundedness_estimate,
    certify_theorem4,
    formula_scheme,
    similarity_report,
    stationary_scheme,
    table_scheme,
    transfer_condition_a,
)

from conftest import random_cr_mask


def test_scheme_domain_checks():
    t = catalog.derham_nonstationary(2.0, eps=[0.5, 0.25, 0.125], k0=1)
    assert t.max_level == 3
    t.mask_at(3)
    with pytest.raises(InvalidParameter):
        t.mask_at(0)
    with pytest.raises(InvalidParameter):
        t.mask_at(4)
    wide = stationary_scheme(Mask(4, (0.25, 0.75, 0.75, 0.25)))
    assert wide.N == 7  # inferred from the support hull


def test_scheme_clamp():
    """clamp cuts a level range to the levels the scheme defines."""
    t = catalog.derham_nonstationary(2.0, eps=[0.5, 0.25, 0.125], k0=1)
    assert t.clamp(0, 10) == (1, 3)
    assert t.clamp(2, 2) == (2, 2)
    assert catalog.chaikin().clamp(-5, 10**9) == (0, 10**9)
    for k_lo, k_hi in ((4, 10), (3, 2), (-5, 0)):
        with pytest.raises(InvalidParameter, match="empty on this scheme's domain"):
            t.clamp(k_lo, k_hi)


def test_support_outside_n_rejected():
    bad = stationary_scheme(Mask(-1, (0.5, 1.0, 0.5)), N=1)
    bad.mask_at(0)

    squeezed = SchemeSpec(kind="stationary", k0=0, N=1,
                          mask_fn=lambda k: Mask(-1, (0.25, 0.75, 0.75, 0.25)))
    with pytest.raises(InvalidParameter):
        squeezed.mask_at(0)


def test_boundedness_examples():
    b = boundedness_estimate(catalog.chaikin(), (0, 8))
    assert b.coeff_sup == pytest.approx(0.75, abs=1e-15)
    assert b.operator_sup == pytest.approx(1.0, abs=1e-15)

    s = catalog.derham_nonstationary(2.0, alpha=2.5)
    b = boundedness_estimate(s, (1, 64))
    g1 = 2.0 + 2.5
    assert b.from_hint
    assert b.coeff_sup == pytest.approx((1 + g1) / (2 + g1), abs=1e-12)

    zeros = table_scheme([Mask(), Mask()], N=1)
    b = boundedness_estimate(zeros, (0, 1))
    assert b.coeff_sup == 0.0 and b.operator_sup == 0.0


def test_boundedness_stationary_reads_one_level(monkeypatch):
    """Every level of a stationary scheme is the same mask, so a long range
    reads only its first level and reports the range as given."""
    c = catalog.chaikin()
    reads = []
    block = type(c)._block

    def counted(self, lo, hi, rules=False):
        reads.append((lo, hi))
        assert hi - lo < 16, "read level after level of a stationary scheme"
        return block(self, lo, hi, rules)

    monkeypatch.setattr(type(c), "_block", counted)
    long = boundedness_estimate(c, (1, 10**9))
    assert reads == [(1, 1)]
    short = boundedness_estimate(c, (1, 16))
    assert long.to_dict() == {**short.to_dict(), "k_hi": 10**9}


def test_boundedness_refuses_range_over_budget():
    """A level-dependent scheme reads and holds every level of the range,
    so a range past the memory budget is refused before the first read."""
    unread = formula_scheme(lambda k: pytest.fail(f"level {k} was read"), k0=1, N=2)
    with pytest.raises(InvalidParameter, match="memory budget"):
        boundedness_estimate(unread, (1, 10**9))
    with pytest.raises(InvalidParameter, match="memory budget"):
        boundedness_estimate(catalog.derham_nonstationary(2.0, alpha=1.5), (1, 10**9))


CHARGED_LEVELS = 2000
SCAN_K_MAX = 500


@pytest.mark.parametrize("read", [
    pytest.param(lambda t, c: similarity_report(t, c, (1, CHARGED_LEVELS)), id="similarity"),
    pytest.param(lambda t, c: boundedness_estimate(t, (1, CHARGED_LEVELS)), id="boundedness"),
    pytest.param(lambda t, c: certify_theorem4(t, c, k_range=(1, CHARGED_LEVELS)), id="certify"),
    pytest.param(lambda t, c: operators.contraction_scan(t, K_max=SCAN_K_MAX), id="scan"),
])
def test_level_charges_cover_what_is_held(read, monkeypatch):
    """Each range reader's up-front charges cover its traced peak, which
    includes the level table entries it leaves with the schemes.  What was
    charged is, summed over the schemes, the largest need each admitted."""
    target = catalog.derham_nonstationary(2.0, alpha=1.5)
    comparator = catalog.derham_stationary(2.0)
    charged = {}
    admit = SchemeSpec.admit

    def recorded(self, lo, hi, request, transient=0):
        need = admit(self, lo, hi, request, transient)
        charged[id(self)] = max(charged.get(id(self), 0), need)
        return need

    monkeypatch.setattr(SchemeSpec, "admit", recorded)
    tracemalloc.start()
    try:
        read(target, comparator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charged and peak <= sum(charged.values())


def reads_recorded(reads: list) -> SchemeSpec:
    """derham(2, 1.5) as a formula scheme whose mask_fn records each level."""
    base = catalog.derham_nonstationary(2.0, alpha=1.5)
    return formula_scheme(lambda k: reads.append(k) or base.mask_fn(k), k0=1, N=base.N)


def test_table_account_refuses_calls_that_add_up(monkeypatch):
    """Admitted calls on one scheme object add up in its table, so the call
    that would take the table past the budget is refused before any level
    of its range is read, and what was admitted stays within the budget."""
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 2**21)
    reads = []
    scheme = reads_recorded(reads)
    per_call = 700
    tracemalloc.start()
    try:
        for call in range(10):
            lo = 1 + call * per_call
            held = len(reads)
            try:
                boundedness_estimate(scheme, (lo, lo + per_call - 1))
            except InvalidParameter as exc:
                assert "memory budget" in str(exc)
                break
            assert tracemalloc.get_traced_memory()[0] <= operators.MEMORY_BUDGET
        else:
            pytest.fail("no call was refused")
    finally:
        tracemalloc.stop()
    assert call >= 2 and len(reads) == held == call * per_call


def test_table_account_admits_held_levels(monkeypatch):
    """Levels already held are not charged twice: reading a range again, or
    a similarity report over the window a certificate has read, is admitted
    without a new read, where a fresh range of the same size is not."""
    certified = catalog.derham_nonstationary(2.0, alpha=1.5)
    comparator = catalog.derham_stationary(2.0)
    cert = certify_theorem4(certified, comparator, k_range=(1, 600))
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 700 * schemes._ENTRY_BYTES)
    reads = []
    scheme = reads_recorded(reads)
    boundedness_estimate(scheme, (1, 600))
    boundedness_estimate(scheme, (1, 600))
    assert reads == list(range(1, 601))
    with pytest.raises(InvalidParameter, match="memory budget"):
        boundedness_estimate(scheme, (601, 1200))
    assert len(reads) == 600
    window = cert.meta["k_lo"], cert.meta["k_hi"]
    assert similarity_report(certified, comparator, window).similar == "yes"


def test_similarity_late_window_reads_only_its_levels():
    """A range that starts past the levels a scheme holds is read on its
    own: a similarity report over levels 500000 to 500063 of a fresh
    formula scheme builds those 64 levels, once each, and no level before
    them."""
    reads = []
    report = similarity_report(reads_recorded(reads), catalog.derham_stationary(2.0),
                               (500000, 500063))
    assert reads == list(range(500000, 500064)) == list(report.ks)


def test_late_window_is_held_and_charged():
    """The latest window a scheme reads past its level table stays with it:
    a later read inside it or right after it builds only the levels it
    lacks, and each read is charged the window's levels outside its range."""
    reads = []
    scheme = reads_recorded(reads)
    similarity_report(scheme, catalog.derham_stationary(2.0), (500000, 500063))
    boundedness_estimate(scheme, (500010, 500099))
    assert reads == list(range(500000, 500100))
    assert scheme.admit(1, 1, "level 1") == schemes._ENTRY_BYTES * (100 + 1)
    assert scheme.admit(500050, 500149, "levels past the window") == (
        schemes._ENTRY_BYTES * (50 + 100))


@pytest.mark.parametrize("read", [
    pytest.param(lambda s: certify_theorem4(s, catalog.chaikin()), id="certify"),
    pytest.param(condition_a_search, id="search"),
])
@pytest.mark.parametrize("first, error", [
    pytest.param("unreproducing", NotConstantReproducing, id="rule-first"),
    pytest.param("too-wide", InvalidParameter, id="support-first"),
])
def test_rule_errors_come_in_level_order(read, first, error):
    """Rules are read from k0 as one block, yet the error raised is the one
    of the first level in level order: a level that does not reproduce
    constants before a mask that breaks its support raises
    NotConstantReproducing tagged with its level, and the other order
    raises the support's InvalidParameter."""
    chaikin = catalog.chaikin().mask_at(0)
    broken = {
        "unreproducing": Mask(-1, (0.3, 0.75, 0.75, 0.25)),
        "too-wide": Mask(-2, (0.1, 0.2, 0.3, 0.3, 0.1, 0.1)),
    }
    second = next(name for name in broken if name != first)
    masks = [chaikin] * 2 + [broken[first], chaikin, broken[second]] + [chaikin] * 60
    with pytest.raises(error) as exc:
        read(table_scheme(masks, N=2))
    assert "level 2" in str(exc.value)
    if error is NotConstantReproducing:
        assert exc.value.level == 2


def test_similarity_refuses_long_stationary_range():
    """Every level of the range is charged, so two stationary schemes, each
    holding one entry, are refused over 10**9 levels before any read."""
    unread = [SchemeSpec(kind="stationary", k0=0, N=2,
                         mask_fn=lambda k: pytest.fail(f"level {k} was read"))
              for _ in range(2)]
    with pytest.raises(InvalidParameter, match="memory budget"):
        similarity_report(catalog.chaikin(), catalog.chaikin(), (0, 10**9))
    with pytest.raises(InvalidParameter, match="memory budget"):
        similarity_report(*unread, (0, 10**9))


def test_similarity_clamps_to_both_domains():
    """The range is clamped like boundedness_estimate's, on both schemes."""
    table = catalog.derham_nonstationary(2.0, eps=[1.5 / k for k in range(1, 13)], k0=1)
    c = catalog.derham_stationary(2.0)
    rep = similarity_report(table, c, (0, 64))
    assert rep.ks == tuple(range(1, 13))
    assert rep.diffs == similarity_report(c, table, (1, 12)).diffs
    with pytest.raises(InvalidParameter, match="empty on this scheme's domain"):
        similarity_report(c, table, (13, 64))


def test_similarity_derham_pair():
    gamma, alpha = 2.0, 1.5
    t = catalog.derham_nonstationary(gamma, alpha=alpha)
    c = catalog.derham_stationary(gamma)
    rep = similarity_report(t, c, (1, 64))
    assert rep.similar == "yes" and rep.analytic
    assert rep.equivalent == "not-summable-in-window"
    for k, diff in zip(rep.ks, rep.diffs):
        eps = alpha / k
        expected = eps / ((2 + gamma + eps) * (2 + gamma))
        assert diff == pytest.approx(expected, abs=1e-12)
    assert rep.diffs[0] == pytest.approx(1.5 / (5.5 * 4.0), abs=1e-12)
    rate, exponent = rep.decay_fit
    assert exponent == pytest.approx(-1.0, abs=0.05)


def test_similarity_identical_scheme():
    c = catalog.chaikin()
    rep = similarity_report(c, c, (0, 8))
    assert not rep.analytic
    assert rep.similar == "yes" and rep.equivalent == "summable"
    assert all(d == 0.0 for d in rep.diffs)


def test_similarity_symmetric_and_transitive():
    a = catalog.derham_nonstationary(2.0, alpha=1.5)
    b = catalog.derham_stationary(2.0)
    fwd = similarity_report(a, b, (1, 32))
    bwd = similarity_report(b, a, (1, 32))
    assert fwd.diffs == bwd.diffs and bwd.similar == "yes"
    c = catalog.derham_nonstationary(2.0, alpha=-0.5)
    ab = similarity_report(a, b, (1, 32)).diffs
    bc = similarity_report(b, c, (1, 32)).diffs
    ac = similarity_report(a, c, (1, 32)).diffs
    for x, y, z in zip(ac, ab, bc):
        assert x <= y + z + 1e-15


def test_similarity_distinct_stationary_is_no():
    rep = similarity_report(catalog.chaikin(), catalog.linear_bspline(), (0, 16))
    assert rep.similar == "no"
    assert rep.equivalent == "not-summable-in-window"


def test_similarity_numeric_without_flags_is_honest():
    # same masks as the analytic family, but via an anonymous eps table
    table = [1.5 / k for k in range(1, 65)]
    t = catalog.derham_nonstationary(2.0, eps=table, k0=1)
    rep = similarity_report(t, catalog.derham_stationary(2.0), (1, 64))
    assert not rep.analytic
    assert rep.similar == "inconclusive"


def test_similarity_shared_base_pair():
    # two drifting families over the same stationary base are similar to
    # each other; their pairwise sums stay a windowed verdict
    a = catalog.derham_nonstationary(2.0, alpha=1.5)
    b = catalog.derham_nonstationary(2.0, alpha=0.5)
    rep = similarity_report(a, b, (1, 64))
    assert rep.similar == "yes" and rep.analytic
    assert rep.equivalent == "not-summable-in-window"
    both_zero = similarity_report(
        catalog.derham_nonstationary(2.0, alpha=0.0),
        catalog.derham_nonstationary(2.0, alpha=0.0),
        (1, 32),
    )
    assert both_zero.equivalent == "summable"


def test_transfer_nonstationary_comparator():
    """A transfer, like a certificate, takes only a stationary comparator;
    the target's own windowed search is the route for a level-dependent
    one."""
    comp = catalog.derham_nonstationary(2.0, alpha=0.5)
    target = catalog.derham_nonstationary(2.0, alpha=1.5)
    wstar = condition_a_search(comp)
    assert wstar.windowed
    with pytest.raises(InvalidParameter, match="comparator must be a stationary scheme"):
        transfer_condition_a(target, comp, wstar, (1, 64))
    own = condition_a_search(target)
    assert own.windowed and (own.K, own.n) == (1, 1)


def test_similarity_window_too_short():
    with pytest.raises(InvalidParameter):
        similarity_report(catalog.chaikin(), catalog.chaikin(), (0, 3))


def test_prop5_sandwich(rng):
    for _ in range(200):
        a, b = random_cr_mask(rng), random_cr_mask(rng)
        bounds = [abs(x) for m in (a, b) for x in m.support]
        n = max(bounds)
        da = coeff_norm(a - b)
        dq = coeff_norm(difference_mask(a) - difference_mask(b))
        assert 0.5 * da <= dq + 1e-12
        assert dq <= 2 * n * da + 1e-12


def test_prop5_iii_product_differences_decay():
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    c = catalog.derham_stationary(2.0)
    qc = difference_mask(c.mask_at(0))
    for p in (0, 1, 2):
        diffs = []
        for k in range(1, 49):
            ops_t = compose_all([difference_mask(t.mask_at(k + p - j)) for j in range(p + 1)])
            ops_c = compose_all([qc] * (p + 1))
            diffs.append(residue_class_norm(ops_t.mask - ops_c.mask, ops_t.arity))
        tail = diffs[len(diffs) * 3 // 4 :]
        assert all(tail[i + 1] <= tail[i] + 1e-15 for i in range(len(tail) - 1))
        assert tail[-1] < diffs[0]


def test_transfer_derham_vs_chaikin():
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    c = catalog.chaikin()
    wstar = condition_a_search(c)
    w = transfer_condition_a(t, c, wstar, (1, 64))
    assert w.mu == pytest.approx(0.75, abs=1e-15)
    assert w.n == 1 and w.windowed
    assert w.K <= 64


def test_transfer_degenerate_same_scheme():
    c = catalog.chaikin()
    wstar = condition_a_search(c)
    w = transfer_condition_a(c, c, wstar, (0, 32))
    assert w.K == 0 and w.mu == pytest.approx(0.75, abs=1e-15)
    assert not w.windowed


def test_transfer_constant_check_comes_first():
    # similarity to chaikin holds, but constants fail first
    pc = catalog.perturbed_chaikin()
    c = catalog.chaikin()
    wstar = condition_a_search(c)
    with pytest.raises(NotConstantReproducing):
        transfer_condition_a(pc, c, wstar, (1, 64))


def test_transfer_tail_not_reached():
    # giant drift keeps product differences above epsilon in this window
    t = catalog.derham_nonstationary(2.0, alpha=1000.0)
    c = catalog.chaikin()
    wstar = condition_a_search(c)
    with pytest.raises(TailNotReached):
        transfer_condition_a(t, c, wstar, (1, 64))


def test_transfer_dissimilar_raises():
    rep = stationary_scheme(Mask(-1, (0.5, 1.0, 0.5)))
    c = catalog.chaikin()
    wstar = condition_a_search(c)
    with pytest.raises(SimilarityNotEstablished):
        transfer_condition_a(rep, c, wstar, (0, 32))


def test_certify_chaikin_default_route():
    c = catalog.chaikin()
    cert = certify_theorem4(c, c)
    assert cert.provenance == "theorem2" and not cert.windowed
    assert cert.mu_star == pytest.approx(0.5, abs=1e-15)
    assert cert.mu_hat == pytest.approx(0.75, abs=1e-15)
    assert cert.C1 == pytest.approx(1.0, abs=1e-15)
    assert cert.C2 == pytest.approx(2 * (0.75 + 1.0), abs=1e-15)
    assert cert.Gamma == pytest.approx(7.0, abs=1e-15)
    assert cert.C == pytest.approx(28.0, abs=1e-15)
    assert cert.holder_exponent == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
    assert cert.meta["degenerate"]


def test_certify_chaikin_mu_override():
    cert = certify_theorem4(catalog.chaikin(), catalog.chaikin(), mu=0.5)
    assert cert.mu_hat == pytest.approx(0.5, abs=1e-15)
    assert cert.holder_exponent == pytest.approx(1.0, abs=1e-15)


def test_certify_derham_15_family():
    t = catalog.derham_nonstationary(1.5, alpha=2.5)
    c = catalog.derham_stationary(1.5)
    cert = certify_theorem4(t, c)
    assert cert.mu_star == pytest.approx(4.0 / 7.0, abs=1e-12)
    assert cert.provenance == "theorem4" and cert.windowed
    assert cert.K <= 64 and cert.n == 1


def test_certificate_internal_consistency():
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    cert = certify_theorem4(t, catalog.chaikin())
    assert cert.C == cert.Gamma / (1.0 - cert.mu_hat)
    assert cert.mu_hat ** cert.n == pytest.approx(cert.mu, abs=1e-12)
    assert cert.eta > cert.mu_star ** (1.0 / cert.n)
    assert all(v > 0 for v in (cert.C1, cert.C2, cert.Gamma, cert.C))


def test_certify_eta_handling():
    """mu is the one rate knob: it must lie in (mu*, 1), closed at mu* for a
    stationary target, and the certificate quotes eta = mu_hat."""
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    c = catalog.chaikin()
    cert = certify_theorem4(t, c, mu=0.9)
    assert cert.n == 1 and cert.mu == 0.9
    assert cert.eta == cert.mu_hat == 0.9
    with pytest.raises(InvalidParameter):
        certify_theorem4(t, c, mu=1.0)
    with pytest.raises(InvalidParameter):
        certify_theorem4(t, c, mu=0.5)  # at mu*, open interval for non-stationary
    with pytest.raises(TypeError):
        certify_theorem4(t, c, eta=0.9)
    # stationary target may ride the exact rate
    cert = certify_theorem4(c, c, mu=0.5)
    assert cert.holder_exponent == pytest.approx(1.0, abs=1e-15)


def test_certify_rejects_perturbed_scheme():
    with pytest.raises(NotConstantReproducing) as exc:
        certify_theorem4(catalog.perturbed_chaikin(), catalog.chaikin())
    assert exc.value.level == 1


def test_certify_tags_prefix_level_below_window():
    # level 0 lies below the scanned window but inside the C1 prefix
    chaikin = catalog.chaikin().mask_at(0)
    bad = Mask(-1, (0.3, 0.75, 0.75, 0.25))
    with pytest.raises(NotConstantReproducing) as exc:
        certify_theorem4(table_scheme([bad] + [chaikin] * 40), catalog.chaikin(),
                         k_range=(3, 40))
    assert exc.value.level == 0


def test_certify_requires_stationary_comparator():
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    with pytest.raises(InvalidParameter):
        certify_theorem4(t, t)


def test_certificate_json_roundtrip():
    cert = certify_theorem4(catalog.chaikin(), catalog.chaikin())
    back = ConvergenceCertificate.from_dict(cert.to_dict())
    assert back == cert or (
        back.C == cert.C and back.K == cert.K and back.mu_hat == cert.mu_hat
    )


def test_certify_stationary_sweep_all_n1():
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        s = catalog.derham_stationary(gamma)
        cert = certify_theorem4(s, s)
        assert cert.n == 1
        assert cert.mu_star == pytest.approx(max(2.0, gamma) / (2.0 + gamma), abs=1e-12)


def tension_mask(w: float) -> Mask:
    return Mask(-3, (-w, 0.0, 0.5 + w, 1.0, 0.5 + w, 0.0, -w))


def tension_scheme(w: float = 0.27, b: float = 0.2):
    """The 4-point rule with tension w + b/k: its stationary limit needs
    products of n = 2 rules to contract.  Its flags say that it decays to
    that limit like b/k."""
    return formula_scheme(
        lambda k: tension_mask(w + b / k), k0=1, N=3,
        analytic=AnalyticSimilarity(tension_mask(w), eps_is_o1=True, eps_summable=False),
    )


def difference_rules(target, stop):
    """The rows from index -N of the target's difference rules on levels
    k0 .. stop - 1, each rebuilt from its own difference mask."""
    rows = np.zeros((stop - target.k0, 2 * target.N))
    for r, k in enumerate(range(target.k0, stop)):
        q = target.difference_mask_at(k)
        rows[r, target.N + q.base : target.N + q.base + len(q)] = q.coeffs
    return rows


def recomposed_c1_prefix(target, stop):
    """The C1 prefix recomposed from scratch for every prefix: exact up to
    the cap, and past it the product of the norms of its blocks of cap
    levels aligned at k0, the oldest first, each block composed afresh."""
    levels, best = [], 1.0
    for level in range(target.k0, stop):
        levels.append(target.difference_mask_at(level))
        norm = 1.0
        for i in range(0, len(levels), _EXACT_PRODUCT_CAP):
            norm *= product_norm(levels[i : i + _EXACT_PRODUCT_CAP][::-1])
        best = max(best, norm)
    return best, len(levels) <= _EXACT_PRODUCT_CAP


@pytest.mark.parametrize("target, stop", [
    *(pytest.param(target, stop, id=f"{stop}-{name}")
      for stop in (1, 10, 16, 17, 18, 35)
      for name, target in (("corner", catalog.derham_nonstationary(1.05, alpha=19.5)),
                           ("tension", tension_scheme()))),
    # its worst prefix, 16 + 2 levels, lies past the first block; chunks of
    # the cap counted from the newest level bounded it by 1487.3 instead
    pytest.param(tension_scheme(0.26, 3.0), 19, id="19-stiff-tension"),
])
def test_c1_prefix_matches_recomposing(target, stop):
    """Extending each block's product gives the recomposing loop's numbers
    exactly, below, at and past the cap and past two blocks."""
    assert _c1_prefix(difference_rules(target, stop)) == recomposed_c1_prefix(target, stop)


def test_c1_prefix_chunks_align_at_k0():
    """The stiff tension item's certificate: its C1 prefix is worst at 18
    levels, the first block times the first two levels after it, so
    k0-aligned blocks give a C1 24% above the newest-first chunks'
    34812196.556231655."""
    target = tension_scheme(0.26, 3.0)
    cert = certify_theorem4(target, stationary_scheme(tension_mask(0.26), N=3), k_range=(1, 256))
    assert (cert.K, cert.n, cert.C1, cert.meta["c1_exact"]) == (172, 2, 43134105.66004175, False)


@pytest.mark.parametrize("gamma, alpha, K, C1", [
    (1.05, 19.5, 43, 3370.1842631892446),
    (1.2, 15.0, 27, 272.12536177896885),
])
def test_c1_pinned_bits(gamma, alpha, K, C1):
    """C1 of the slowest corner-cutting items keeps its pinned bits: the
    exact quotient rounded up to a float."""
    cert = certify_theorem4(catalog.derham_nonstationary(gamma, alpha=alpha),
                            catalog.derham_stationary(gamma), k_range=(1, 256))
    assert (cert.K, cert.C1, cert.meta["c1_exact"]) == (K, C1, False)


def test_c1_rounds_up():
    """With K = n = 1, C1 = 1 / mu_hat.  Rounded to nearest it came out one
    ulp low, so an impulse's level-1 difference norm 1.0 exceeded its bound
    C1 * mu_hat = 0.9999999999999999.  Rounded up, the bounds hold."""
    gamma = 1.8540721346061517
    target = catalog.derham_nonstationary(gamma, alpha=0.7063320684614316)
    cert = certify_theorem4(target, catalog.derham_stationary(gamma), k_range=(1, 64))
    assert (cert.K, cert.n, cert.C1) == (1, 1, 1.316714945080001)
    assert cert.C1 * cert.mu_hat >= 1.0
    report = refine.decay_report(target, refine.impulse(8, level=1), 8, certificate=cert)
    assert report.bounds_hold


def test_c1_prefix_compositions_linear_in_K(monkeypatch):
    """Each block's products are taken by extension: the C1 prefix of the
    K = 43 item costs one kernel composition a level less one a block
    (its first level is a rule, composed with nothing), not (cap - 1) per
    level past the cap (405 here) nor a number growing with K**2 as
    recomposing every prefix did (825)."""
    target = catalog.derham_nonstationary(1.05, alpha=19.5)
    K, n = 43, 1  # its certificate's, pinned by test_c1_pinned_bits
    rules = difference_rules(target, K + n - 1)
    calls = []
    kernel = operators.compose_coeffs

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(operators, "compose_coeffs", counted)
    _c1_prefix(rules)
    levels = K + n - 1 - target.k0
    assert len(calls) == levels - math.ceil(levels / _EXACT_PRODUCT_CAP) == 39
    assert len(calls) <= K


@pytest.mark.parametrize("target, comparator, k_range", [
    pytest.param(catalog.derham_nonstationary(2.0, alpha=1.5), catalog.chaikin(), (1, 64),
                 id="corner"),
    pytest.param(catalog.derham_nonstationary(2.0, alpha=1.5), catalog.chaikin(), (20, 83),
                 id="corner-late"),
    pytest.param(tension_scheme(0.285, 0.22), stationary_scheme(tension_mask(0.285), N=3),
                 (1, 64), id="tension"),
])
def test_certify_reads_each_target_level_once(target, comparator, k_range, monkeypatch):
    """Certification, the contraction search and a level-12 decay report on
    one scheme object build each level's mask once and derive each level's
    difference rule once: every later read comes from the level table."""
    built = {}

    def mask_fn(k):
        assert k not in built, f"level {k} built twice"
        built[k] = target.mask_fn(k)
        return built[k]

    scheme = formula_scheme(mask_fn, k0=target.k0, N=target.N,
                            bound_hint=target.bound_hint, analytic=target.analytic)
    derived = []

    def counted(rows):
        derived.extend(Mask(-(rows.shape[1] // 2), row) for row in rows)
        return difference_rows(rows)

    monkeypatch.setattr(schemes, "difference_rows", counted)
    cert = certify_theorem4(scheme, comparator, k_range=k_range)
    assert cert.K + cert.n - 1 > scheme.k0  # the C1 prefix covers some level
    condition_a_search(scheme)
    refine.decay_report(scheme, refine.impulse(8, level=scheme.k0), 12, certificate=cert)
    # every level read has its rule derived, the comparator's besides
    levels = {m: k for k, m in built.items()}
    assert len(levels) == len(built)  # no two levels share a mask
    assert sorted(levels[m] for m in derived if m in levels) == sorted(built)


def test_transfer_checks_constants_from_k0():
    """The transfer checks constant reproduction from the target's k0, not
    from the window's start, because the C1 prefix rests on those levels."""
    chaikin = catalog.chaikin()
    bad = Mask(-1, (0.3, 0.75, 0.75, 0.25))
    target = table_scheme([bad] + [chaikin.mask_at(0)] * 40, N=2)
    with pytest.raises(NotConstantReproducing) as exc:
        transfer_condition_a(target, chaikin, condition_a_search(chaikin), (3, 40))
    assert exc.value.level == 0


@pytest.mark.parametrize("levels", [20, 24])
def test_certify_refuses_overflowing_constants(levels):
    """Difference rules of norm about 2**51 before the window make Gamma
    (20 levels) or C1 itself (24) overflow: refused, not certified."""
    chaikin = catalog.chaikin()
    huge = Mask(-1, (0.25, 2.0**50, 0.75, 1 - 2.0**50))
    target = table_scheme([huge] * levels + [chaikin.mask_at(0)] * 64, N=2)
    with pytest.raises(InvalidParameter, match="certificate constants overflow"):
        certify_theorem4(target, chaikin, k_range=(levels, levels + 63))


def certification_record() -> list:
    """Certificates at k_range (1, 64) and (1, 256), with the contraction
    scans of both schemes, of corner-cutting pairs (n = 1, K from 1 to 43)
    and 4-point tension pairs (N = 3, n = 2)."""
    pairs = [
        (catalog.derham_nonstationary(g, alpha=a), catalog.derham_stationary(g))
        for g, a in ((1.05, 19.5), (1.3, 4.0), (2.0, 1.5), (3.7, -0.3))
    ] + [
        (tension_scheme(w, b), stationary_scheme(tension_mask(w), N=3))
        for w, b in ((0.265, 0.07), (0.285, 0.22))
    ]
    record = []
    for target, comparator in pairs:
        for k_range in ((1, 64), (1, 256)):
            record.append(certify_theorem4(target, comparator, k_range=k_range).to_dict())
        record.append(operators.contraction_scan(target))
        record.append(operators.contraction_scan(comparator))
    return record


def test_certification_golden_digest():
    """The certificates and scans keep their pinned bits."""
    text = json.dumps(certification_record(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f09ca0f2e93fb7ee4961b97df5db88e687a77fe25bd8c888422ab0f0039601dd"
    )


def test_certification_certificates_digest():
    """The record's certificates alone keep the bits they had when each
    product of n >= 2 rules was composed one start level at a time."""
    certificates = [r for r in certification_record() if isinstance(r, dict)]
    text = json.dumps(certificates, sort_keys=True)
    assert len(certificates) == 12 and hashlib.sha256(text.encode()).hexdigest() == (
        "c6fc35bf8cecba6125de71aa98d1a866e9155698a224447a1232b9fdd51e1dfb"
    )


@pytest.mark.parametrize("target, comparator", [
    pytest.param(catalog.derham_nonstationary(2.0, alpha=a),
                 catalog.derham_nonstationary(2.0, alpha=0.5), id=f"derham-{a}")
    for a in (1.5, -0.4)
] + [
    pytest.param(tension_scheme(0.26, b), tension_scheme(0.26, c), id=f"tension-{b}-{c}")
    for b, c in ((0.25, 0.05), (0.1, 0.2))
])
@pytest.mark.parametrize("k_range", [(1, 64), (1, 256)])
def test_transfer_refuses_level_dependent_comparator(target, comparator, k_range):
    """The level-dependent pairs of the earlier golden record, n = 1 and
    n = 2, are refused before any level is read."""
    witness_star = condition_a_search(comparator)
    with pytest.raises(InvalidParameter, match="comparator must be a stationary scheme"):
        _transfer(target, comparator, witness_star, k_range, None)


def test_transfer_tail_not_reached_n2_pinned():
    """An n = 2 transfer against a stationary comparator runs out of levels
    at (1, 64) and settles at (1, 256), with its earlier bits."""
    target = tension_scheme(0.26, 3.0)
    comparator = stationary_scheme(tension_mask(0.26), N=3)
    witness_star = condition_a_search(comparator)
    assert (witness_star.n, witness_star.windowed) == (2, False)
    with pytest.raises(TailNotReached) as exc:
        _transfer(target, comparator, witness_star, (1, 64), None)
    assert str(exc.value) == (
        "product-norm differences never settled below epsilon = 0.054900000000000004 "
        "within levels [1, 64] (last suffix max 0.15227884615384626)"
    )
    witness, meta = _transfer(target, comparator, witness_star, (1, 256), None)
    assert witness.to_dict() == {"K": 172, "n": 2, "mu": 0.8902, "window": 85, "windowed": True}
    assert meta == {"K_tilde": 172, "epsilon": 0.054900000000000004, "k_lo": 1, "k_hi": 256,
                    "max_product_norm_checked": 0.8352259174620245, "similar_analytic": True}


def test_transfer_refuses_window_emptied_by_tail():
    """A one-level table leaves no start level for an n = 2 product."""
    comparator = stationary_scheme(tension_mask(0.26), N=3)
    witness_star = condition_a_search(comparator)
    assert witness_star.n == 2
    target = table_scheme([tension_mask(0.26)], k0=1, N=3)
    with pytest.raises(InvalidParameter, match="transfer window is empty"):
        _transfer(target, comparator, witness_star, (1, 64), None)
