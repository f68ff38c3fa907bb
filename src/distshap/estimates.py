"""Result containers and Monte-Carlo control knobs shared by the estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .numerics import check_count

__all__ = ["MCControls", "ValueEstimate", "BoundsResult"]


@dataclass
class MCControls:
    """Per-size early stop of the exact regression sampler.

    ``max_inner`` caps each size's draws; a size stops drawing once its
    running mean's relative change drops to ``rho1``. Every size is summed.
    """

    max_inner: int = 10000
    rho1: float = 0.01

    def __post_init__(self):
        check_count(self.max_inner, 1, "max_inner")
        if not (0.0 < self.rho1 < 1.0):
            raise InvalidParameterError("rho1 must lie in (0, 1)")


@dataclass
class ValueEstimate:
    """A point value with its standard error and convergence metadata.

    For a batch of points ``value`` and ``std_error`` are arrays.
    ``inner_iters_used`` records the draws consumed per summation term (0 for
    terms skipped entirely). The sampled baseline counts its draws that reached
    the utility and those that failed.
    """

    value: float
    std_error: float
    inner_iters_used: list = field(default_factory=list)
    evaluated_draws: int = 0
    failed_draws: int = 0

    def __post_init__(self):
        if not np.all(np.asarray(self.std_error) >= 0):  # NaN fails too
            raise InvalidParameterError("std_error must be nonnegative")


@dataclass
class BoundsResult:
    """A lower/upper value bound pair with the sums that make each side.

    Iterating yields ``(lower, upper)`` so the result unpacks like a tuple.
    Each side is ``(sigma2 * noise - e2 * error) / m``, bit for bit, with its
    own noise sum S and error sum E: the lower side takes S at the lower
    eigenvalue extreme and E at the upper, the upper side the reverse.
    ``skipped_terms`` counts summation indices dropped because the
    concentration deviation reached 1 (the bound is vacuous there). For a
    batch of points the bounds and sums are arrays.
    """

    lower: float
    upper: float
    lower_noise: float
    lower_error: float
    upper_noise: float
    upper_error: float
    skipped_terms: int = 0

    def __iter__(self):
        yield self.lower
        yield self.upper
