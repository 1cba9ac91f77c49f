"""Hard instances for projected ``F_p`` estimation, ``p ≠ 1`` (Theorem 5.4).

Theorem 5.4 handles the two regimes differently:

* ``p > 1`` reuses the Theorem 5.3 construction verbatim — the projected
  ``F_p`` value itself (not just the heavy-hitter status of ``0_S``) moves by
  more than a constant factor depending on whether ``y ∈ T``; the
  :class:`~repro.lowerbounds.hh_instance.HeavyHitterHardInstance` already
  exposes everything needed, so this module simply wraps it with an
  ``F_p``-threshold decision rule.
* ``0 < p < 1`` uses a leaner encoding: Alice inserts only ``star(T)`` (no
  all-ones block) and Bob queries ``S = supp(y)``.  If ``y ∈ T`` every one of
  the ``2^{εd}`` children of ``y`` appears as a distinct pattern on ``S``,
  so ``F_p ≥ 2^{εd}``; if ``y ∉ T`` all projections are crammed into the few
  patterns supported on ``supp(y') ∩ supp(y)`` (at most ``cd`` ones), and by
  concavity ``F_p`` is maximised when the mass spreads evenly, giving the
  bound of Equation (5) which is ``2^{(1-α)εd}`` for suitable constants.

Bob's rule in both regimes is a threshold on the (estimated) ``F_p`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..coding.random_codes import LowIntersectionCode, build_low_intersection_code
from ..coding.star import star_of_set
from ..coding.words import support
from ..core.dataset import ColumnQuery, Dataset
from ..core.frequency import FrequencyVector
from ..errors import InvalidParameterError
from .hh_instance import HeavyHitterHardInstance, build_heavy_hitter_instance
from .index_problem import IndexInstance

__all__ = [
    "FpInstanceParameters",
    "FpHardInstance",
    "build_fp_instance",
    "equation_5_bound",
]


def equation_5_bound(d: int, epsilon: float, c: float, p: float, code_size: int) -> float:
    """Equation (5): the ``y ∉ T`` upper bound on ``F_p`` for ``p < 1``.

    ``F_p(M) ≤ |C|^p · 2^{εdp} · r^{1-p}`` with ``r ≤ O(d) · 2^{Θ(cd)}`` the
    number of patterns supported on at most ``cd`` of the queried columns.
    The exact finite-``d`` value of ``r`` is used rather than its asymptotic
    form so the bound is meaningful at laptop scale.
    """
    if not 0 < p < 1:
        raise InvalidParameterError(f"p must be in (0, 1), got {p}")
    weight = max(1, round(epsilon * d))
    max_shared = max(0, math.floor(c * d))
    r = sum(math.comb(weight, i) for i in range(0, min(max_shared, weight) + 1))
    return (code_size**p) * (2.0 ** (weight * p)) * (r ** (1.0 - p))


@dataclass(frozen=True)
class FpInstanceParameters:
    """Parameters ``(d, ε, γ, p)`` of a Theorem 5.4 instance (``p < 1`` branch)."""

    d: int
    epsilon: float
    gamma: float
    p: float

    def __post_init__(self) -> None:
        if self.d < 4:
            raise InvalidParameterError(f"d must be >= 4, got {self.d}")
        if not 0 < self.epsilon < 1 / 2:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1/2), got {self.epsilon}"
            )
        if not 0 < self.gamma < self.epsilon:
            raise InvalidParameterError(
                f"gamma must be in (0, epsilon), got {self.gamma}"
            )
        if not 0 < self.p < 1:
            raise InvalidParameterError(
                f"this construction targets 0 < p < 1, got p={self.p}"
            )

    @property
    def weight(self) -> int:
        """Codeword weight ``εd`` (rounded, at least 1)."""
        return max(1, round(self.epsilon * self.d))

    @property
    def intersection_constant(self) -> float:
        """The constant ``c = ε² + γ`` bounding pairwise shared ones."""
        return self.epsilon**2 + self.gamma

    @property
    def fp_if_member(self) -> float:
        """Lower bound on ``F_p`` when ``y ∈ T``: ``2^{εd}``."""
        return 2.0**self.weight

    def fp_if_not_member(self, code_size: int) -> float:
        """Upper bound on ``F_p`` when ``y ∉ T`` (Equation (5), exact form)."""
        return equation_5_bound(
            self.d, self.epsilon, self.intersection_constant, self.p, code_size
        )


@dataclass(frozen=True)
class FpHardInstance:
    """A concrete Theorem 5.4 instance (``p < 1``) with query and ground truth."""

    parameters: FpInstanceParameters
    code: LowIntersectionCode
    index_instance: IndexInstance
    dataset: Dataset
    query: ColumnQuery

    @property
    def answer(self) -> bool:
        """Whether Bob's word is in Alice's set."""
        return self.index_instance.answer

    def frequencies(self) -> FrequencyVector:
        """Exact projected frequency vector on the query."""
        return FrequencyVector.from_dataset(self.dataset, self.query)

    def exact_fp(self) -> float:
        """Exact projected ``F_p(A, S)``."""
        return self.frequencies().frequency_moment(self.parameters.p)

    def decision_threshold(self) -> float:
        """Bob's threshold on the ``F_p`` estimate.

        The member branch always has ``F_p ≥ 2^{εd}`` (every child of ``y``
        contributes at least 1), so half that value is a sound threshold as
        long as the non-member branch stays below it — which the default
        code-size choice in :func:`build_fp_instance` enforces.  The
        Equation (5) bound is also computed (see
        :meth:`FpInstanceParameters.fp_if_not_member`) but is too loose at
        small ``d`` to serve as the threshold itself.
        """
        return 0.5 * self.parameters.fp_if_member

    def decide_from_estimate(self, estimate: float) -> bool:
        """Bob's rule: declare ``y ∈ T`` when the ``F_p`` estimate is large."""
        return estimate >= self.decision_threshold()


def build_fp_instance(
    d: int,
    epsilon: float,
    gamma: float,
    p: float,
    membership: bool,
    code_size: int | None = None,
    membership_probability: float = 0.5,
    seed: int = 0,
) -> FpHardInstance | HeavyHitterHardInstance:
    """Build a Theorem 5.4 hard instance for the given ``p ≠ 1``.

    For ``p > 1`` the Theorem 5.3 instance is returned (its exact ``F_p``
    moves by more than a constant factor with the membership bit); for
    ``0 < p < 1`` the leaner ``star(T)``-only instance is built.
    """
    if p == 1 or p <= 0:
        raise InvalidParameterError(f"Theorem 5.4 requires p > 0, p != 1; got {p}")
    if p > 1:
        return build_heavy_hitter_instance(
            d=d,
            epsilon=epsilon,
            gamma=gamma,
            p=p,
            membership=membership,
            code_size=code_size,
            membership_probability=membership_probability,
            seed=seed,
        )
    parameters = FpInstanceParameters(d=d, epsilon=epsilon, gamma=gamma, p=p)
    if code_size is None:
        # The separation needs |T| * 2^{(cd + (eps d - cd) p)} well below
        # 2^{eps d}; cap the code so the predicted gap is at least ~2x.
        weight = parameters.weight
        shared = math.floor(parameters.intersection_constant * d)
        slack_bits = (weight - shared) * (1.0 - p) - 1.0
        code_size = int(max(4, min(24, 2.0 ** max(slack_bits, 2.0))))
    code = build_low_intersection_code(
        d=d, epsilon=epsilon, gamma=gamma, size=code_size, seed=seed
    )
    index_instance = IndexInstance.random(
        code.words,
        membership_probability=membership_probability,
        force_membership=membership,
        seed=seed + 1,
    )
    rows = star_of_set(
        sorted(index_instance.alice_subset), 2, deduplicate=False
    )
    dataset = Dataset.from_words(rows, alphabet_size=2)
    query = ColumnQuery.of(sorted(support(index_instance.bob_word)), d)
    return FpHardInstance(
        parameters=parameters,
        code=code,
        index_instance=index_instance,
        dataset=dataset,
        query=query,
    )
