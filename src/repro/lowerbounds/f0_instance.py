"""Hard instances for projected ``F_0`` (Theorem 4.1, Corollaries 4.2–4.4).

Theorem 4.1 builds the instance as follows.  Fix the constant-weight code
``C = B(d, k)`` (weight ``k``, pairwise shared ones at most ``k - 1``) and an
alphabet ``[Q]`` with ``Q > k``.  Alice holds ``T ⊆ C`` and feeds the
algorithm every child word in ``star_Q(T)``.  Bob holds ``y ∈ C`` and
queries ``F_0`` on ``S = supp(y)``:

* if ``y ∈ T`` there are at least ``Q^k`` distinct patterns on ``S``;
* if ``y ∉ T`` there are at most ``k · Q^{k-1}`` of them,

so any algorithm with approximation factor better than ``Q / k`` decides
Index and needs ``Ω(|C|) = 2^{Ω(d)}`` bits.  The corollaries specialise
``k = d/2`` (Corollary 4.2), ``Q = d`` (Corollary 4.3) and reduce the
alphabet to ``[q]`` at the cost of a ``log_q Q`` dimension blow-up
(Corollary 4.4).

This module constructs those instances for concrete ``(d, k, Q)`` and
computes both the theoretical and the realised pattern-count gaps, which is
what the E5 benchmark and the Theorem 4.1 tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..coding.alphabet import AlphabetReduction
from ..coding.binary_codes import ConstantWeightCode, binomial
from ..coding.star import star_of_set
from ..coding.words import support
from ..core.dataset import ColumnQuery, Dataset
from ..core.frequency import FrequencyVector
from ..errors import InvalidParameterError
from .index_problem import IndexInstance

__all__ = ["F0HardInstance", "F0InstanceParameters", "build_f0_instance"]


@dataclass(frozen=True)
class F0InstanceParameters:
    """Parameters ``(d, k, Q)`` of a Theorem 4.1 instance.

    ``k`` is the codeword weight / query size and ``Q`` the alphabet size;
    Theorem 4.1 requires ``Q > k`` and ``k < d / 2`` (Corollary 4.2 allows
    ``k = d/2``).
    """

    d: int
    k: int
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InvalidParameterError(f"d must be >= 2, got {self.d}")
        if not 1 <= self.k <= self.d // 2:
            raise InvalidParameterError(
                f"k must satisfy 1 <= k <= d/2, got k={self.k}, d={self.d}"
            )
        if self.alphabet_size <= self.k:
            raise InvalidParameterError(
                "Theorem 4.1 requires Q > k, got "
                f"Q={self.alphabet_size}, k={self.k}"
            )

    @property
    def approximation_factor(self) -> float:
        """The separation ``Δ = Q / k`` of Equation (3)."""
        return self.alphabet_size / self.k

    @property
    def code_size(self) -> int:
        """``|B(d, k)| = C(d, k)`` — the Index universe size."""
        return binomial(self.d, self.k)

    @property
    def code_size_lower_bound(self) -> float:
        """The bound ``(d/k)^k`` (or ``2^d/sqrt(2d)`` at ``k = d/2``)."""
        if 2 * self.k == self.d:
            return 2.0**self.d / math.sqrt(2.0 * self.d)
        return (self.d / self.k) ** self.k

    @property
    def patterns_if_member(self) -> int:
        """Lower bound ``Q^k`` on the projected ``F_0`` when ``y ∈ T``."""
        return self.alphabet_size**self.k

    @property
    def patterns_if_not_member(self) -> int:
        """Upper bound ``k · Q^{k-1}`` on the projected ``F_0`` when ``y ∉ T``."""
        return self.k * self.alphabet_size ** (self.k - 1)

    def instance_rows_per_codeword(self) -> int:
        """Rows contributed by each codeword Alice holds, ``Q^k``."""
        return self.alphabet_size**self.k

    def theoretical_instance_shape(self) -> tuple[float, int]:
        """The Table 1 instance shape ``((d/k)^k · Q^k rows?, d columns)``.

        Table 1 reports the instance as a ``(d/k)^k × d`` array over ``[Q]``
        for Theorem 4.1 (one row per codeword in the bound-sized code, each
        expanded by ``star_Q``); the first entry here is the row count with
        the full ``star`` expansion included.
        """
        return (self.code_size_lower_bound * self.alphabet_size**self.k, self.d)


@dataclass(frozen=True)
class F0HardInstance:
    """A concrete Theorem 4.1 instance: dataset, query, and ground truth."""

    parameters: F0InstanceParameters
    index_instance: IndexInstance
    dataset: Dataset
    query: ColumnQuery

    @property
    def answer(self) -> bool:
        """Whether Bob's word is in Alice's set (``y ∈ T``)."""
        return self.index_instance.answer

    def exact_f0(self) -> int:
        """The exact projected distinct-pattern count ``F_0(A, S)``."""
        return FrequencyVector.from_dataset(self.dataset, self.query).distinct_patterns()

    def decision_threshold(self) -> float:
        """Bob's threshold: the geometric mean of the two separated counts."""
        return math.sqrt(
            self.parameters.patterns_if_member
            * self.parameters.patterns_if_not_member
        )

    def decide_from_estimate(self, estimate: float) -> bool:
        """Bob's rule: declare ``y ∈ T`` when the estimate clears the threshold."""
        return estimate >= self.decision_threshold()

    def separation_holds(self) -> bool:
        """Whether the exact count falls on the correct side of the bounds."""
        exact = self.exact_f0()
        if self.answer:
            return exact >= self.parameters.patterns_if_member
        return exact <= self.parameters.patterns_if_not_member

    def reduce_alphabet(self, target_alphabet: int) -> "F0HardInstance":
        """Corollary 4.4: re-encode the instance over a smaller alphabet ``[q]``.

        The dataset dimension grows by ``ceil(log_q Q)`` and the column query
        is expanded to the blocks encoding the original columns; the
        distinct-pattern counts (and therefore the separation) are preserved
        because the encoding is injective per symbol.
        """
        reduction = AlphabetReduction(
            source_size=self.parameters.alphabet_size, target_size=target_alphabet
        )
        encoded_rows = [reduction.encode_word(row) for row in self.dataset.iter_rows()]
        encoded_dataset = Dataset.from_words(
            encoded_rows, alphabet_size=target_alphabet
        )
        encoded_query = ColumnQuery.of(
            reduction.expand_columns(self.query.columns), encoded_dataset.n_columns
        )
        return F0HardInstance(
            parameters=self.parameters,
            index_instance=self.index_instance,
            dataset=encoded_dataset,
            query=encoded_query,
        )


def build_f0_instance(
    d: int,
    k: int,
    alphabet_size: int,
    membership: bool,
    code_size: int | None = None,
    membership_probability: float = 0.5,
    seed: int = 0,
) -> F0HardInstance:
    """Build a Theorem 4.1 hard instance with Bob's membership bit fixed.

    Parameters
    ----------
    d, k, alphabet_size:
        Instance parameters (see :class:`F0InstanceParameters`).
    membership:
        Whether Bob's word is placed inside Alice's set (the ``y ∈ T`` case).
    code_size:
        Number of codewords of ``B(d, k)`` to use for the Index universe
        (defaults to the full code when it is small, otherwise a sample of
        256 codewords).  Smaller universes keep the instance laptop-sized
        while preserving the distinguishing gap.
    membership_probability:
        Probability with which each other codeword is placed in Alice's set.
    seed:
        Randomness seed.
    """
    parameters = F0InstanceParameters(d=d, k=k, alphabet_size=alphabet_size)
    full_size = parameters.code_size
    if code_size is None:
        code_size = min(full_size, 256)
    if code_size < 2:
        raise InvalidParameterError(f"code_size must be >= 2, got {code_size}")
    if code_size >= full_size:
        code = ConstantWeightCode.full(d, k)
    else:
        code = ConstantWeightCode.sampled(d, k, count=code_size, seed=seed)
    index_instance = IndexInstance.random(
        code.words,
        membership_probability=membership_probability,
        force_membership=membership,
        seed=seed + 1,
    )
    rows = star_of_set(
        sorted(index_instance.alice_subset), alphabet_size, deduplicate=True
    )
    dataset = Dataset.from_words(rows, alphabet_size=alphabet_size)
    query = ColumnQuery.of(sorted(support(index_instance.bob_word)), d)
    return F0HardInstance(
        parameters=parameters,
        index_instance=index_instance,
        dataset=dataset,
        query=query,
    )
