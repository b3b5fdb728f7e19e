"""Built-in scheme constructors, with the analytic facts about them
(supremum bounds, perturbation decay) wired in, plus loading of scheme
descriptions from JSON files and compact CLI strings."""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter
from .masks import LINEAR_BSPLINE, Mask
from .schemes import (
    AnalyticSimilarity,
    SchemeSpec,
    formula_scheme,
    stationary_scheme,
    table_scheme,
)

CHAIKIN_MASK = Mask(-1, (0.25, 0.75, 0.75, 0.25))


def linear_bspline() -> SchemeSpec:
    """Midpoint-averaging scheme whose limits are piecewise-linear hats."""
    return stationary_scheme(LINEAR_BSPLINE, N=1, name="linear_bspline")


def chaikin() -> SchemeSpec:
    """Corner cutting at one-quarter / three-quarters of each segment."""
    return stationary_scheme(CHAIKIN_MASK, N=2, name="chaikin")


def _finite(value: float, what: str) -> float:
    """``value``, refused when it is NaN or infinite: NaN passes every
    ordered test, and an infinite ratio makes NaN weights."""
    if not math.isfinite(value):
        raise InvalidParameter(f"{what} must be finite, got {value!r}")
    return value


def _corner_mask(gamma_k: float) -> Mask:
    # Ratio 0 merges the two new points at the segment midpoint; that is a
    # degenerate but well-defined rule, so only negative ratios are refused.
    if gamma_k < 0:
        raise InvalidParameter(
            f"corner-cutting ratio must be nonnegative, got {gamma_k!r}"
        )
    _finite(gamma_k, "corner-cutting ratio")
    s = 2.0 + gamma_k
    return Mask(-1, (1.0 / s, (1.0 + gamma_k) / s, (1.0 + gamma_k) / s, 1.0 / s))


def _corner_rows(gammas: np.ndarray) -> np.ndarray:
    """The rows from index -2 of ``_corner_mask`` of each ratio, by the same
    float operations, up to the first ratio it refuses."""
    bad = np.flatnonzero(~((gammas >= 0) & np.isfinite(gammas)))
    g = gammas[: bad[0]] if len(bad) else gammas
    s = 2.0 + g
    rows = np.zeros((len(g), 5))
    rows[:, 1] = rows[:, 4] = 1.0 / s
    rows[:, 2] = rows[:, 3] = (1.0 + g) / s
    return rows


def derham_stationary(gamma: float) -> SchemeSpec:
    """Corner cutting with segment ratios 1 : gamma : 1 at every level."""
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma!r}")
    _finite(gamma, "gamma")
    return stationary_scheme(
        _corner_mask(gamma), N=2, name=f"derham_stationary(gamma={gamma:g})"
    )


def derham_nonstationary(
    gamma: float,
    alpha: float | None = None,
    eps: Sequence[float] | None = None,
    k0: int = 1,
) -> SchemeSpec:
    """Corner cutting whose ratio drifts with the level: gamma + eps_k.

    Give either ``alpha`` (eps_k = alpha / k, the canonical vanishing but
    non-summable drift) or an explicit ``eps`` table for levels k0, k0+1,
    ...; a table limits the scheme's domain to the table length.  Ratios
    are validated lazily per level.
    """
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma!r}")
    _finite(gamma, "gamma")
    if (alpha is None) == (eps is None):
        raise InvalidParameter("give exactly one of alpha or an eps table")

    if alpha is not None:
        if k0 < 1:
            raise InvalidParameter("alpha/k drift needs a starting level >= 1")
        alpha_f = _finite(float(alpha), "alpha")

        def eps_at(k: int) -> float:
            return alpha_f / k

        def eps_rows(lo: int, hi: int) -> np.ndarray:
            return alpha_f / np.arange(lo, hi + 1)

        sup_gamma = max(gamma, gamma + alpha_f / k0)
        analytic = AnalyticSimilarity(
            base_mask=_corner_mask(gamma),
            eps_is_o1=True,
            eps_summable=(alpha_f == 0.0),
        )
        max_level = None
        descriptor = {
            "kind": "formula",
            "name": "derham",
            "params": {"gamma": gamma, "eps": "alpha_over_k", "alpha": alpha_f},
            "k0": k0,
            "N": 2,
        }
        name = f"derham(gamma={gamma:g}, alpha={alpha_f:g})"
    else:
        table = tuple(_finite(float(e), "eps entry") for e in eps)  # type: ignore[union-attr]
        if not table:
            raise InvalidParameter("eps table must be non-empty")

        def eps_at(k: int) -> float:
            return table[k - k0]

        def eps_rows(lo: int, hi: int) -> np.ndarray:
            return np.array(table[lo - k0 : hi - k0 + 1])

        sup_gamma = max(gamma + e for e in table)
        analytic = None
        max_level = k0 + len(table) - 1
        descriptor = {
            "kind": "formula",
            "name": "derham",
            "params": {"gamma": gamma, "eps": list(table)},
            "k0": k0,
            "N": 2,
        }
        name = f"derham(gamma={gamma:g}, eps table)"

    def rows_fn(lo: int, hi: int) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflowing ratio is refused
            return _corner_rows(gamma + eps_rows(lo, hi))

    return SchemeSpec(
        kind="formula",
        mask_fn=lambda k: _corner_mask(gamma + eps_at(k)),
        rows_fn=rows_fn,
        k0=k0,
        N=2,
        name=name,
        bound_hint=(1.0 + sup_gamma) / (2.0 + sup_gamma),
        max_level=max_level,
        analytic=analytic,
        descriptor=descriptor,
    )


def perturbed_chaikin() -> SchemeSpec:
    """Chaikin weights shifted up by 1/k at every tap.

    The parity sums become 1 + 2/k, so constants are not reproduced at any
    level; the family stays asymptotically similar to plain Chaikin.
    """

    def mask_fn(k: int) -> Mask:
        t = 1.0 / k
        return Mask(-1, (0.25 + t, 0.75 + t, 0.75 + t, 0.25 + t))

    return formula_scheme(
        mask_fn=mask_fn,
        k0=1,
        N=2,
        name="perturbed_chaikin",
        bound_hint=1.75,
        analytic=AnalyticSimilarity(
            base_mask=CHAIKIN_MASK, eps_is_o1=True, eps_summable=False
        ),
        descriptor={
            "kind": "formula",
            "name": "perturbed_chaikin",
            "params": {},
            "k0": 1,
            "N": 2,
        },
    )


_BUILDERS: dict[str, Callable[..., SchemeSpec]] = {
    "linear_bspline": linear_bspline,
    "chaikin": chaikin,
    "derham_stationary": derham_stationary,
    "derham": derham_nonstationary,
    "perturbed_chaikin": perturbed_chaikin,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, **params) -> SchemeSpec:
    """Construct a catalog scheme by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InvalidParameter(
            f"unknown catalog scheme {name!r}; known: {', '.join(names())}"
        ) from None
    return builder(**params)


def scheme_from_dict(obj: dict) -> SchemeSpec:
    """Build a scheme from its JSON description.

    Kinds: {"kind": "stationary", "mask": {...}, "N": ...},
    {"kind": "table", "masks": [...], "k0": ..., "N": ...}, and
    {"kind": "formula", "name": ..., "params": {...}, "k0": ..., "N": ...}.
    Mask literals are {"base": ..., "coeffs": [...]}.
    """
    if not isinstance(obj, dict):
        raise InvalidParameter("a scheme description must be a JSON object")
    kind = obj.get("kind")
    N = None if obj.get("N") is None else int(obj["N"])
    k0 = int(obj.get("k0", 0))
    if kind == "stationary":
        return stationary_scheme(Mask.from_dict(obj["mask"]), N=N)
    if kind == "table":
        return table_scheme([Mask.from_dict(m) for m in obj["masks"]], k0=k0, N=N)
    if kind == "formula":
        params = dict(obj.get("params", {}))
        name = obj["name"]
        if name == "derham":
            eps = params.pop("eps", None)
            if eps == "alpha_over_k":
                pass  # alpha stays in params
            elif eps is not None:
                params["eps"] = eps
                params.pop("alpha", None)
            if "k0" in obj:
                params["k0"] = k0
        return build(name, **params)
    raise InvalidParameter(f"unknown scheme kind {kind!r}")


def load_scheme(path: str) -> SchemeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return scheme_from_dict(json.load(fh))


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_scheme_arg(text: str) -> SchemeSpec:
    """Resolve a CLI scheme argument.

    A path to an existing JSON file loads that description; otherwise the
    argument is a catalog name, optionally followed by parameters, e.g.
    ``derham:gamma=2,alpha=1.5`` or ``derham_stationary:gamma=1.5``.
    """
    if text.endswith(".json") or os.path.exists(text):
        return load_scheme(text)
    name, _, tail = text.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise InvalidParameter(
                    f"malformed scheme parameter {item!r} (expected key=value)"
                )
            params[key.strip()] = _parse_value(value.strip())
    return build(name.strip(), **params)
