"""Exception types shared across the library."""

from __future__ import annotations


class SubdivError(Exception):
    """Base class for all library errors."""


class InvalidParameter(SubdivError):
    """A constructor or query argument is outside its admissible range."""


class NotConstantReproducing(SubdivError):
    """Mask fails the constant-reproduction symbol conditions.

    Carries the offending refinement level when raised while scanning a
    level-dependent scheme (``level is None`` for a bare mask).
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class NotFactorable(SubdivError):
    """Mask cannot be telescoped: symbol values at +1/-1 exceed tolerance."""


class EmptyOutput(SubdivError):
    """Input window is too short to produce any fully supported value."""


class SimilarityNotEstablished(SubdivError):
    """Mask differences did not certify as vanishing over the scanned window."""


class TailNotReached(SubdivError):
    """Product-norm differences never settled below the required margin
    in the scanned window.  Inconclusive, not a disproof."""


class ContractionNotFound(SubdivError):
    """No (K, n) pair in the search range achieved a product norm below 1.

    Inconclusive: convergence is neither proved nor refuted.  ``scan`` holds
    the (n, K, mu) cells that were evaluated.
    """

    def __init__(self, message: str, scan: list[tuple[int, int, float]] | None = None):
        super().__init__(message)
        self.scan = scan or []


class OutOfDomain(SubdivError):
    """Evaluation point lies outside the valid span of a piecewise-linear
    interpolant."""
