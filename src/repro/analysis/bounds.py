"""Theoretical bound calculators collected from across the paper.

These helpers evaluate, for concrete parameters, the space and approximation
formulas the paper states asymptotically: the Theorem 4.1 family of ``F_0``
lower bounds, the Theorem 5.1 sampling upper bound, the Lemma 6.2 net size,
the Lemma 6.4 rounding distortions and the Theorem 6.5 combination, plus the
``N = 2^d`` reparameterisation used in the abstract (an ``N^α``-approximation
in ``N^{H(1/2-α)}`` space).  Benchmarks print these values next to measured
quantities so docs/experiments.md can record "paper vs measured" for every
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidParameterError
from .entropy import binary_entropy, net_size_bound

__all__ = [
    "f0_lower_bound_space",
    "usample_size",
    "rounding_distortion",
    "theorem_6_5_space",
    "theorem_6_5_approximation",
    "abstract_tradeoff",
    "AbstractTradeoffPoint",
]


def f0_lower_bound_space(d: int, k: int) -> float:
    """Space (in summaries / bits up to constants) forced by Theorem 4.1.

    The reduction shows space proportional to ``|B(d, k)| >= (d/k)^k``
    (``2^d / sqrt(2d)`` at ``k = d/2``) is necessary for a ``Q/k``
    approximation.
    """
    if not 1 <= k <= d // 2:
        raise InvalidParameterError(f"k must satisfy 1 <= k <= d/2, got k={k}, d={d}")
    if 2 * k == d:
        return 2.0**d / math.sqrt(2.0 * d)
    return (d / k) ** k


def usample_size(epsilon: float, delta: float) -> float:
    """The Theorem 5.1 sample size ``O(ε^{-2} log(1/δ))`` (with constant 1)."""
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return math.log(1.0 / delta) / (epsilon * epsilon)


def rounding_distortion(
    alpha: float,
    d: int,
    p: float,
    *,
    rounding_cost: int | None = None,
    alphabet_size: int = 2,
) -> float:
    """Lemma 6.4: worst-case multiplicative error of answering on an α-neighbour.

    Rounding ``C`` to ``C'`` changes ``k = |C Δ C'|`` columns, and each
    changed column merges (or splits) up to ``Q`` patterns, so the
    distortion is ``Q^k`` for ``F_0``, ``Q^{k(p-1)}`` for ``p > 1``,
    ``Q^{k(1-p)}`` for ``p < 1`` and 1 for ``p = 1``.  The one home of the
    formula: :mod:`repro.core.rounding` re-exports it for
    :class:`~repro.core.rounding.AlphaNet`, and
    :func:`theorem_6_5_approximation` scales it by ``β``.

    Parameters
    ----------
    alpha:
        Net parameter in ``(0, 1/2)``.
    d:
        Dimensionality of the data.
    p:
        Moment order (``p = 0`` for distinct counting).
    rounding_cost:
        The rounding distance ``k``; defaults to the paper's ``α d``.  A
        concrete net passes its integer worst case
        (:meth:`~repro.core.rounding.AlphaNet.max_rounding_cost`).
    alphabet_size:
        The alphabet ``Q`` of the data; defaults to binary.
    """
    if not 0 < alpha < 0.5:
        raise InvalidParameterError(f"alpha must be in (0, 1/2), got {alpha}")
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if p < 0:
        raise InvalidParameterError(f"p must be non-negative, got {p}")
    if rounding_cost is not None and rounding_cost < 0:
        raise InvalidParameterError(
            f"rounding_cost must be non-negative, got {rounding_cost}"
        )
    if alphabet_size < 2:
        raise InvalidParameterError(
            f"alphabet_size must be >= 2, got {alphabet_size}"
        )
    k = alpha * d if rounding_cost is None else rounding_cost
    base = float(alphabet_size)
    if p == 0:
        return base**k
    if p == 1:
        return 1.0
    if p > 1:
        return base ** (k * (p - 1))
    return base ** (k * (1 - p))


def theorem_6_5_space(d: int, alpha: float, sketch_bits: float = 1.0) -> float:
    """Space of Algorithm 1: ``~O(2^{H(1/2-α)d})`` sketches of ``sketch_bits`` each."""
    return net_size_bound(d, alpha) * sketch_bits


def theorem_6_5_approximation(d: int, alpha: float, p: float, beta: float = 1.0) -> float:
    """Approximation factor of Algorithm 1: ``β · r(α, P)`` (Lemma 6.4)."""
    if beta < 1:
        raise InvalidParameterError(f"beta must be >= 1, got {beta}")
    return beta * rounding_distortion(alpha, d, p)


@dataclass(frozen=True)
class AbstractTradeoffPoint:
    """One point of the abstract's ``N^α`` / ``N^{H(1/2-α)}`` trade-off.

    With ``N = 2^d``: an ``N^α``-approximation is possible in
    ``min(N^{H(1/2-α)}, n)`` space.
    """

    alpha: float
    approximation_exponent: float
    space_exponent: float

    @property
    def approximation_factor_of_n(self) -> str:
        """The approximation written as a power of ``N``."""
        return f"N^{self.approximation_exponent:.3f}"

    @property
    def space_of_n(self) -> str:
        """The space written as a power of ``N``."""
        return f"N^{self.space_exponent:.3f}"


def abstract_tradeoff(alpha: float) -> AbstractTradeoffPoint:
    """The abstract's statement: ``N^α`` approximation in ``N^{H(1/2-α)}`` space."""
    if not 0 < alpha < 0.5:
        raise InvalidParameterError(f"alpha must be in (0, 1/2), got {alpha}")
    return AbstractTradeoffPoint(
        alpha=alpha,
        approximation_exponent=alpha,
        space_exponent=binary_entropy(0.5 - alpha),
    )
