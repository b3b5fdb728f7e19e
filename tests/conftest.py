"""Shared oracles for the test suite.

Every oracle here is an independent route to the quantity under test:
polynomial long division instead of the alternating-sum recurrence,
dictionary-based stencil sums instead of the convolution kernel, and the
closed-form quadratic B-spline for limit checks.  ``assert_golden``
compares an output with its committed record under ``tests/golden/``, and
``tension_scheme`` gives the 4-point items that several modules certify.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from subdiv.masks import Mask
from subdiv.operators import Window
from subdiv.schemes import AnalyticSimilarity, formula_scheme


def polydiv_by_1_plus_z(m: Mask) -> Mask:
    """Divide the symbol by (1 + z) via numpy's polynomial long division."""
    desc = list(m.coeffs[::-1])
    quot, rem = np.polydiv(desc, [1.0, 1.0])
    assert np.max(np.abs(rem)) < 1e-9, "division left a remainder"
    return Mask(m.base, tuple(quot[::-1]))


def brute_apply(m: Mask, f: Window, arity: int = 2) -> Window:
    """Stencil-by-stencil evaluation of the subdivision rule."""
    lo, hi = f.start, f.stop - 1
    mb, mt = m.support
    values = {}
    # every index that the valid range can reach, with a margin of one
    for i in range(arity * lo + mb - arity, arity * hi + mt + arity + 1):
        jmin = math.ceil((i - mt) / arity)
        jmax = math.floor((i - mb) / arity)
        if jmin < lo or jmax > hi:
            continue
        values[i] = sum(m[i - arity * j] * f.value_at(j) for j in range(jmin, jmax + 1))
    idx = sorted(values)
    assert idx == list(range(idx[0], idx[-1] + 1))
    return Window(idx[0], [values[i] for i in idx])


def random_window(rng, length: int = 40, lo: int = -20) -> Window:
    return Window(lo, rng.uniform(-1.0, 1.0, length))


def random_mask(rng, max_len: int = 7) -> Mask:
    n = int(rng.integers(1, max_len + 1))
    base = int(rng.integers(-4, 4))
    coeffs = rng.uniform(-1.0, 1.0, n)
    return Mask(base, tuple(coeffs))


def random_cr_mask(rng, max_support: int = 9) -> Mask:
    """Random constant-reproducing mask, built as (1+z) times a random
    polynomial normalized to value 1 at z = 1 (an independent construction,
    not the library's factorization)."""
    n = int(rng.integers(1, max_support))
    base = int(rng.integers(-4, 4))
    coeffs = rng.uniform(-1.0, 1.0, n)
    while abs(coeffs.sum()) < 0.1:
        coeffs = rng.uniform(-1.0, 1.0, n)
    coeffs = coeffs / coeffs.sum()
    lifted = np.convolve(coeffs, [1.0, 1.0])
    return Mask(base, tuple(lifted))


def bspline2(x: float) -> float:
    """The quadratic B-spline supported on [0, 3]."""
    if 0.0 <= x < 1.0:
        return 0.5 * x * x
    if 1.0 <= x < 2.0:
        return 0.5 * (-2.0 * x * x + 6.0 * x - 3.0)
    if 2.0 <= x < 3.0:
        return 0.5 * (3.0 - x) ** 2
    return 0.0


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


GOLDEN = Path(__file__).resolve().parent / "golden"
_MISSING = object()


def _shown(value) -> str:
    if value is _MISSING:
        return "(missing)"
    if isinstance(value, float):
        return f"{value!r} ({value.hex()})"
    return json.dumps(value)[:80]


def json_diffs(got, want, path: str = "$"):
    """Yield ``(path, got, want)`` for every JSON value where ``got`` and
    ``want`` differ, floats bit for bit, members missing on one side
    included."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            yield from json_diffs(got.get(key, _MISSING), want.get(key, _MISSING),
                                  f"{path}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        for i in range(max(len(got), len(want))):
            yield from json_diffs(got[i] if i < len(got) else _MISSING,
                                  want[i] if i < len(want) else _MISSING, f"{path}[{i}]")
    elif type(got) is not type(want) or (
        got.hex() != want.hex() if isinstance(got, float) else got != want
    ):
        yield path, got, want


def assert_golden(text: str, name: str) -> None:
    """``text`` must equal the golden file ``name`` byte for byte.  A
    mismatch fails with each JSON path whose value differs, both values
    and the float.hex of each float."""
    want = (GOLDEN / name).read_bytes().decode("utf-8")
    if text == want:
        return
    lines = [f"{path}: got {_shown(g)}, golden {_shown(w)}"
             for path, g, w in json_diffs(json.loads(text), json.loads(want))]
    pytest.fail(f"output differs from tests/golden/{name}:\n"
                + ("\n".join(lines) or "the same JSON values, other bytes"), pytrace=False)
