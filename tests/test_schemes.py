import math

import pytest

from subdiv import catalog
from subdiv.errors import (
    AlignmentMismatch,
    EtaOutOfRange,
    InvalidParameter,
    NotConstantReproducing,
    SimilarityNotEstablished,
    TailNotReached,
)
from subdiv.masks import Mask, coeff_norm, difference_mask
from subdiv.operators import compose_all, condition_a_search, residue_class_norm
from subdiv.schemes import (
    ConvergenceCertificate,
    boundedness_estimate,
    certify_theorem4,
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


def test_support_outside_n_rejected():
    bad = stationary_scheme(Mask(-1, (0.5, 1.0, 0.5)), N=1)
    bad.mask_at(0)
    from subdiv.schemes import SchemeSpec

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


def test_similarity_derham_pair():
    gamma, alpha = 2.0, 1.5
    t = catalog.derham_nonstationary(gamma, alpha=alpha)
    c = catalog.derham_stationary(gamma)
    rep = similarity_report(t, c, (1, 64))
    assert rep.similar == "yes" and rep.analytic
    assert rep.equivalent == "not-summable-in-window"
    for k, diff in rep.per_k_diff:
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
    comp = catalog.derham_nonstationary(2.0, alpha=0.5)
    target = catalog.derham_nonstationary(2.0, alpha=1.5)
    wstar = condition_a_search(comp)
    assert wstar.windowed
    w = transfer_condition_a(target, comp, wstar, (1, 64))
    assert w.mu == pytest.approx((1.0 + wstar.mu) / 2.0, abs=1e-15)
    assert w.windowed and w.K <= 64


def test_similarity_alignment_mismatch():
    off = stationary_scheme(Mask(4, (0.25, 0.75, 0.75, 0.25)))
    with pytest.raises(AlignmentMismatch):
        similarity_report(off, catalog.chaikin(), (0, 8), N=2)


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
    t = catalog.derham_nonstationary(2.0, alpha=1.5)
    c = catalog.chaikin()
    cert = certify_theorem4(t, c, eta=0.9)
    assert cert.mu == pytest.approx(0.9 ** cert.n, abs=1e-15)
    assert cert.eta == 0.9 and cert.mu_hat == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(EtaOutOfRange):
        certify_theorem4(t, c, eta=1.0)
    with pytest.raises(EtaOutOfRange):
        certify_theorem4(t, c, eta=0.5)  # at mu*, open interval for non-stationary
    with pytest.raises(EtaOutOfRange):
        certify_theorem4(t, c, eta=0.6, mu=0.75)  # undercuts mu**(1/n)
    # stationary target may ride the exact rate
    cert = certify_theorem4(c, c, eta=0.5)
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
