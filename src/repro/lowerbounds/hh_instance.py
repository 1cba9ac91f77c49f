"""Hard instances for projected ``ℓ_p`` heavy hitters, ``p > 1`` (Theorem 5.3).

The construction: take a Lemma 3.2 code ``C ⊆ B(d, εd)`` whose distinct
codewords share at most ``(ε² + γ)d`` ones.  Alice holds ``T ⊆ C`` and
builds the array ``A`` by inserting

1. ``2^{εd}`` copies of the all-ones vector ``1_d``, and
2. the binary child words ``star_2(s)`` of every ``s ∈ T``.

Bob holds ``y ∈ C`` and queries the heavy hitters on the *complement*
``S = [d] \\ supp(y)``.  The all-zeros pattern ``0_S``:

* occurs at least ``2^{εd}`` times when ``y ∈ T`` (every child of ``y``
  vanishes on ``S``), making it a constant-``φ`` heavy hitter for any
  ``p > 1`` after the ``F_p`` accounting of the proof;
* occurs at most ``|C| · 2^{(ε² + γ)d}`` times when ``y ∉ T``, which is
  asymptotically negligible against the ``F_p`` mass contributed by the
  ``1_d`` block, so ``0_S`` is *not* a heavy hitter.

Whether ``0_S`` is reported therefore decides Index.  This module builds the
instance, computes the frequency of ``0_S`` and the exact ``F_p`` so the
separation (the heavy-hitter ratio ``f(0_S) / F_p^{1/p}``) can be measured,
and supplies Bob's decision rule for protocol simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coding.random_codes import LowIntersectionCode, build_low_intersection_code
from ..coding.star import star_of_set
from ..coding.words import Word, ones, support
from ..core.dataset import ColumnQuery, Dataset
from ..core.frequency import FrequencyVector
from ..errors import InvalidParameterError
from .index_problem import IndexInstance

__all__ = [
    "HeavyHitterInstanceParameters",
    "HeavyHitterHardInstance",
    "build_heavy_hitter_instance",
]


@dataclass(frozen=True)
class HeavyHitterInstanceParameters:
    """Parameters ``(d, ε, γ, p)`` of a Theorem 5.3 instance."""

    d: int
    epsilon: float
    gamma: float
    p: float

    def __post_init__(self) -> None:
        if self.d < 4:
            raise InvalidParameterError(f"d must be >= 4, got {self.d}")
        if not 0 < self.epsilon < 1 / 3:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1/3), got {self.epsilon}"
            )
        if not 0 < self.gamma <= self.epsilon / 3:
            raise InvalidParameterError(
                f"gamma must be in (0, epsilon/3], got {self.gamma}"
            )
        if self.p <= 1:
            raise InvalidParameterError(
                f"Theorem 5.3 concerns p > 1, got p={self.p}"
            )

    @property
    def weight(self) -> int:
        """Codeword weight ``εd`` (rounded, at least 1)."""
        return max(1, round(self.epsilon * self.d))

    @property
    def ones_block_copies(self) -> int:
        """Number of copies of ``1_d`` Alice inserts, ``2^{εd}``."""
        return 2**self.weight

    @property
    def zero_pattern_count_if_member(self) -> int:
        """Lower bound on ``f(0_S)`` when ``y ∈ T``: ``2^{εd}``."""
        return 2**self.weight

    def zero_pattern_count_if_not_member(self, code_size: int) -> float:
        """Upper bound on ``f(0_S)`` when ``y ∉ T``: ``|C| · 2^{(ε²+γ)d}``."""
        return code_size * 2.0 ** ((self.epsilon**2 + self.gamma) * self.d)


@dataclass(frozen=True)
class HeavyHitterHardInstance:
    """A concrete Theorem 5.3 instance with its query and ground truth."""

    parameters: HeavyHitterInstanceParameters
    code: LowIntersectionCode
    index_instance: IndexInstance
    dataset: Dataset
    query: ColumnQuery

    @property
    def answer(self) -> bool:
        """Whether Bob's word is in Alice's set."""
        return self.index_instance.answer

    @property
    def zero_pattern(self) -> Word:
        """The distinguished pattern ``0_S`` on the queried columns."""
        return (0,) * len(self.query)

    def frequencies(self) -> FrequencyVector:
        """Exact projected frequency vector on the query."""
        return FrequencyVector.from_dataset(self.dataset, self.query)

    def zero_pattern_frequency(self) -> int:
        """Exact frequency of ``0_S`` among the projected rows."""
        return self.frequencies().frequency(self.zero_pattern)

    def heavy_hitter_ratio(self) -> float:
        """The statistic ``f(0_S) / ‖f‖_p`` Bob thresholds on."""
        frequencies = self.frequencies()
        norm = frequencies.lp_norm(self.parameters.p)
        if norm == 0:
            return 0.0
        return frequencies.frequency(self.zero_pattern) / norm

    def phi_threshold(self) -> float:
        """A constant ``φ`` separating the two cases (the proof uses ``1/4``)."""
        return 0.25

    def is_zero_pattern_heavy(self) -> bool:
        """Whether ``0_S`` is a ``φ``-``ℓ_p`` heavy hitter on this instance."""
        return self.heavy_hitter_ratio() >= self.phi_threshold()

    def decide_from_report(self, reported_patterns) -> bool:
        """Bob's rule: answer ``y ∈ T`` iff ``0_S`` was reported."""
        return self.zero_pattern in set(reported_patterns)

    def separation_holds(self) -> bool:
        """Whether the heavy-hitter status of ``0_S`` matches the membership bit."""
        return self.is_zero_pattern_heavy() == self.answer


def build_heavy_hitter_instance(
    d: int,
    epsilon: float,
    gamma: float,
    p: float,
    membership: bool,
    code_size: int | None = None,
    membership_probability: float = 0.5,
    seed: int = 0,
) -> HeavyHitterHardInstance:
    """Build a Theorem 5.3 instance with Bob's membership bit fixed.

    ``code_size`` defaults to a value for which the finite-``d`` separation
    provably holds: the proof needs ``|T| · 2^{(ε²+γ)d} ≪ 2^{εd}``, so the
    default caps the code at a small fraction of ``2^{(ε - ε² - γ)d}``.
    """
    parameters = HeavyHitterInstanceParameters(d=d, epsilon=epsilon, gamma=gamma, p=p)
    if code_size is None:
        headroom = 2.0 ** ((epsilon - epsilon**2 - gamma) * d)
        code_size = int(max(4, min(24, round(0.5 * headroom))))
    code = build_low_intersection_code(
        d=d, epsilon=epsilon, gamma=gamma, size=code_size, seed=seed
    )
    index_instance = IndexInstance.random(
        code.words,
        membership_probability=membership_probability,
        force_membership=membership,
        seed=seed + 1,
    )
    rows: list[Word] = []
    rows.extend([ones(d)] * parameters.ones_block_copies)
    rows.extend(
        star_of_set(sorted(index_instance.alice_subset), 2, deduplicate=False)
    )
    dataset = Dataset.from_words(rows, alphabet_size=2)
    complement = sorted(set(range(d)) - set(support(index_instance.bob_word)))
    if not complement:
        raise InvalidParameterError(
            "Bob's codeword has full support; choose a smaller epsilon"
        )
    query = ColumnQuery.of(complement, d)
    return HeavyHitterHardInstance(
        parameters=parameters,
        code=code,
        index_instance=index_instance,
        dataset=dataset,
        query=query,
    )
