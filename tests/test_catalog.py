import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subdiv import catalog
from subdiv.errors import InvalidParameter
from subdiv.masks import Mask, coeff_norm, reproduces_constants, sup_norm


GOLDEN_LEVELS = (1, 2, 5, 17, 64)


def test_linear_bspline_entry():
    s = catalog.linear_bspline()
    m = s.mask_at(0)
    assert m == Mask(-1, (0.5, 1.0, 0.5))
    assert s.N == 1 and s.k0 == 0
    assert reproduces_constants(m)
    assert sup_norm(m) == 1.0


def test_chaikin_entry():
    s = catalog.chaikin()
    m = s.mask_at(0)
    assert m == Mask(-1, (0.25, 0.75, 0.75, 0.25))
    assert s.N == 2
    assert m == catalog.derham_stationary(2.0).mask_at(0)


def test_derham_stationary_golden():
    for gamma in (0.5, 1.0, 1.5, 2.0, 4.0):
        s = catalog.derham_stationary(gamma)
        denom = 2.0 + gamma
        for k in GOLDEN_LEVELS:
            m = s.mask_at(k)
            assert m.base == -1
            assert m.coeffs == (
                1.0 / denom, (1.0 + gamma) / denom, (1.0 + gamma) / denom,
                1.0 / denom,
            )
    with pytest.raises(InvalidParameter):
        catalog.derham_stationary(0.0)
    with pytest.raises(InvalidParameter):
        catalog.derham_stationary(-1.0)


def test_derham_nonstationary_golden():
    gamma, alpha = 2.0, 1.5
    s = catalog.derham_nonstationary(gamma, alpha=alpha)
    for k in GOLDEN_LEVELS:
        gk = gamma + alpha / k
        denom = 2.0 + gk
        m = s.mask_at(k)
        assert m.coeffs == (
            1.0 / denom, (1.0 + gk) / denom, (1.0 + gk) / denom, 1.0 / denom,
        )
    m1 = s.mask_at(1)
    assert m1.coeffs == pytest.approx(
        (1 / 5.5, 4.5 / 5.5, 4.5 / 5.5, 1 / 5.5), abs=1e-15
    )


def test_derham_alpha_zero_is_stationary_bitwise():
    ns = catalog.derham_nonstationary(1.5, alpha=0.0)
    st = catalog.derham_stationary(1.5)
    base = st.mask_at(0)
    for k in GOLDEN_LEVELS:
        assert ns.mask_at(k).coeffs == base.coeffs
    assert ns.analytic.eps_summable


def test_derham_ratio_validation_is_lazy():
    s = catalog.derham_nonstationary(1.5, alpha=-2.0)
    s.mask_at(2)  # ratio 0.5, fine
    with pytest.raises(InvalidParameter):
        s.mask_at(1)  # ratio -0.5
    # ratio exactly zero degenerates to midpoint insertion but stays legal
    z = catalog.derham_nonstationary(1.5, alpha=-1.5)
    assert z.mask_at(1).coeffs == (0.5, 0.5, 0.5, 0.5)


def test_derham_eps_table():
    s = catalog.derham_nonstationary(2.0, eps=[0.5, 0.25], k0=3)
    assert s.k0 == 3 and s.max_level == 4
    assert s.mask_at(3).coeffs[0] == pytest.approx(1.0 / 4.5, abs=1e-15)
    assert s.analytic is None
    with pytest.raises(InvalidParameter):
        catalog.derham_nonstationary(2.0)
    with pytest.raises(InvalidParameter):
        catalog.derham_nonstationary(2.0, alpha=1.0, eps=[0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_derham_non_finite_parameters_refused(bad):
    """NaN passes every ordered test and inf makes NaN weights, so the
    catalog refuses both when it builds a scheme, in gamma, alpha and the
    eps table."""
    for build in (
        lambda: catalog.derham_stationary(bad),
        lambda: catalog.derham_nonstationary(bad, alpha=1.0),
        lambda: catalog.derham_nonstationary(2.0, alpha=bad),
        lambda: catalog.derham_nonstationary(2.0, eps=[0.5, bad]),
    ):
        with pytest.raises(InvalidParameter, match="must be finite"):
            build()


def test_derham_overflowing_ratio_refused():
    # finite parameters whose ratio gamma + alpha / k overflows to inf
    s = catalog.derham_nonstationary(1.7e308, alpha=1.7e308)
    with pytest.raises(InvalidParameter, match="ratio must be finite"):
        s.mask_at(1)


def built_rows(scheme, hi):
    """Build the scheme's levels k0 .. hi as one range: the error of the
    first level refused, the number of levels built and their rows' bits."""
    try:
        scheme.rows(scheme.k0, hi)
        err = None
    except InvalidParameter as exc:
        err = str(exc)
    table = scheme._table
    return err, table.built, table.masks[: table.built].tobytes()


def built_by_loop(scheme, hi):
    """``built_rows`` of the scheme built one ``mask_fn`` call a level."""
    return built_rows(dataclasses.replace(scheme, rows_fn=None), hi)


ROW_LEVELS = 10**4
derham_rows_settings = settings(max_examples=40, deadline=None, derandomize=True,
                                database=None)


@derham_rows_settings
@given(st.floats(1e-3, 1e3) | st.just(1.7e308), st.floats(-1e3, 1e3) | st.just(1.7e308),
       st.integers(1, 10**6))
@example(1.7e308, 1.7e308, 1)
@example(1.5, -700.0, 1)
@example(2.0, 1.5, 2**63 - 5000)
@example(2.0, 1.5, 2**64 - 5000)
def test_derham_rows_are_mask_fn_rows(gamma, alpha, k0):
    """derham's rows over 10**4 levels hold mask_fn's masks bit for bit; a
    ratio refused at the first levels (negative, or overflowing to inf)
    raises mask_fn's message with the same levels built before it.  Levels
    past int64, across 2**63 and 2**64, are built too."""
    s = catalog.derham_nonstationary(gamma, alpha=alpha, k0=k0)
    got = built_rows(s, k0 + ROW_LEVELS - 1)
    assert got == built_by_loop(s, k0 + ROW_LEVELS - 1)
    assert got[0] is None or "corner-cutting ratio must be" in got[0]


@settings(derham_rows_settings, max_examples=24)
@given(st.floats(1e-3, 1e3) | st.just(1e308), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "negative", "huge"]), st.integers(0, ROW_LEVELS - 1))
@example(1e308, 0, "huge", 5000)
@example(2.0, 1, "negative", 7000)
def test_derham_eps_table_rows_are_mask_fn_rows(gamma, seed, bad, at):
    """The same for an eps table of 10**4 levels, with one entry that makes
    the ratio negative or huge (overflowing when gamma is) at any level."""
    eps = np.random.default_rng(seed).uniform(-0.5, 1.0, ROW_LEVELS) * min(gamma, 1e3)
    if bad == "negative":
        eps[at] = -1.5 * gamma
    elif bad == "huge":
        eps[at] = 1e308
    s = catalog.derham_nonstationary(gamma, eps=eps.tolist(), k0=3)
    got = built_rows(s, s.max_level)
    assert got == built_by_loop(s, s.max_level)
    refused = bad == "negative" or (bad == "huge" and gamma == 1e308)
    assert (got[0] is not None, got[1]) == (refused, at if refused else ROW_LEVELS)


def test_derham_bound_hints():
    up = catalog.derham_nonstationary(2.0, alpha=2.5)
    g1 = 4.5
    assert up.bound_hint == pytest.approx((1 + g1) / (2 + g1), abs=1e-15)
    down = catalog.derham_nonstationary(2.0, alpha=-1.0)
    assert down.bound_hint == pytest.approx(0.75, abs=1e-15)  # sup at the limit


def test_perturbed_chaikin_golden():
    s = catalog.perturbed_chaikin()
    assert s.k0 == 1 and s.N == 2
    for k in GOLDEN_LEVELS:
        t = 1.0 / k
        m = s.mask_at(k)
        assert m.base == -1
        assert m.coeffs == (0.25 + t, 0.75 + t, 0.75 + t, 0.25 + t)
        assert not reproduces_constants(m)
    flags = s.analytic
    assert flags.eps_is_o1 and not flags.eps_summable
    assert coeff_norm(flags.base_mask - catalog.chaikin().mask_at(0)) == 0.0
    assert s.bound_hint == 1.75


def test_build_registry():
    assert set(catalog.names()) == {
        "chaikin", "derham", "derham_stationary", "linear_bspline",
        "perturbed_chaikin",
    }
    s = catalog.build("derham_stationary", gamma=1.5)
    assert s.mask_at(0).coeffs[1] == pytest.approx(2.5 / 3.5, abs=1e-15)
    with pytest.raises(InvalidParameter):
        catalog.build("no_such_scheme")


def test_scheme_from_dict_kinds(tmp_path):
    st = catalog.scheme_from_dict(
        {"kind": "stationary", "mask": {"base": -1, "coeffs": [0.5, 1.0, 0.5]}, "N": 1}
    )
    assert st.kind == "stationary" and st.N == 1

    tab = catalog.scheme_from_dict(
        {
            "kind": "table",
            "masks": [{"base": 0, "coeffs": [1.0, 1.0]}, {"base": 0, "coeffs": [0.5, 1.0, 0.5]}],
            "k0": 2,
            "N": 3,
        }
    )
    assert tab.k0 == 2 and tab.max_level == 3

    form = catalog.scheme_from_dict(
        {
            "kind": "formula",
            "name": "derham",
            "params": {"gamma": 2.0, "eps": "alpha_over_k", "alpha": 1.5},
            "k0": 1,
            "N": 2,
        }
    )
    assert form.mask_at(1).coeffs[0] == pytest.approx(1 / 5.5, abs=1e-15)

    with pytest.raises(InvalidParameter):
        catalog.scheme_from_dict({"kind": "mystery"})

    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(form.to_dict()))
    again = catalog.load_scheme(str(path))
    assert again.mask_at(5).coeffs == form.mask_at(5).coeffs


def test_parse_scheme_arg(tmp_path):
    s = catalog.parse_scheme_arg("derham:gamma=2,alpha=1.5")
    assert s.mask_at(1).coeffs[0] == pytest.approx(1 / 5.5, abs=1e-15)
    assert catalog.parse_scheme_arg("chaikin").name == "chaikin"
    with pytest.raises(InvalidParameter):
        catalog.parse_scheme_arg("chaikin:oops")
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": "stationary",
                                "mask": {"base": -1, "coeffs": [0.5, 1.0, 0.5]},
                                "N": 1}))
    assert catalog.parse_scheme_arg(str(path)).N == 1
