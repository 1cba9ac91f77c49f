"""α-nets of column subsets and the rounding distortion (Section 6).

Definition 6.1 fixes, for ``α ∈ (0, 1/2)``, the α-net of ``P([d])`` as the
family of subsets whose size is at most ``(1/2 - α) d`` or at least
``(1/2 + α) d``.  Any query ``C`` outside the net can be *rounded* to an
α-neighbour ``C'`` in the net by removing (or adding) ``k = |C Δ C'|``
columns, and Lemma 6.4 bounds the deterministic error ("rounding
distortion") incurred by answering on ``C'`` instead of ``C``.  Over an
alphabet of size ``Q``:

* ``F_0``:  ``r(α, F_0) = Q^k``
* ``F_p``, ``p > 1``:  ``r(α, F_p) = Q^{k (p - 1)}``
* ``F_p``, ``p < 1``:  ``r(α, F_p) = Q^{k (1 - p)}``

(and no distortion at all for ``p = 1``).  The paper's binary statement has
``Q = 2`` and ``k = α d``; a concrete net keeps integer band edges, so its
worst rounding cost :meth:`AlphaNet.max_rounding_cost` can exceed ``α d``,
and the ``shrink``/``grow`` rules can pay more than ``nearest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Literal

from ..analysis.bounds import rounding_distortion
from ..analysis.entropy import binary_entropy, exact_net_size, net_size_bound
from ..errors import InvalidParameterError, QueryError
from .dataset import ColumnQuery

__all__ = ["AlphaNet", "rounding_distortion", "NeighbourRule"]

#: How :meth:`AlphaNet.round_query` picks the α-neighbour for mid-band queries.
NeighbourRule = Literal["nearest", "shrink", "grow"]


@dataclass(frozen=True)
class AlphaNet:
    """The α-net of ``P([d])`` from Definition 6.1.

    Attributes
    ----------
    d:
        Dimensionality; net members are subsets of ``[d]``.
    alpha:
        Net parameter in ``(0, 1/2)``; larger α means a smaller net (more
        space saved) but coarser answers.
    """

    d: int
    alpha: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidParameterError(f"d must be >= 1, got {self.d}")
        if not 0 < self.alpha < 0.5:
            raise InvalidParameterError(
                f"alpha must be in (0, 1/2), got {self.alpha}"
            )

    # -- membership bands ---------------------------------------------------

    @property
    def low_size(self) -> int:
        """Largest subset size in the lower band, ``⌊(1/2 - α) d⌋``."""
        return math.floor((0.5 - self.alpha) * self.d)

    @property
    def high_size(self) -> int:
        """Smallest subset size in the upper band, ``⌈(1/2 + α) d⌉``."""
        return math.ceil((0.5 + self.alpha) * self.d)

    def contains_size(self, size: int) -> bool:
        """Whether subsets of the given size belong to the net."""
        return size <= self.low_size or size >= self.high_size

    def contains(self, query: ColumnQuery) -> bool:
        """Whether the query itself is a net member (no rounding needed)."""
        self._check_query(query)
        return self.contains_size(len(query))

    def _check_query(self, query: ColumnQuery) -> None:
        if query.dimension != self.d:
            raise QueryError(
                f"query dimension {query.dimension} does not match the net's "
                f"dimension {self.d}"
            )

    # -- size accounting ------------------------------------------------------

    def size(self) -> int:
        """Exact number of net members (excluding the empty set)."""
        # The empty set is formally a net member but is useless as a query,
        # so it is excluded from both the enumeration and the count.
        return exact_net_size(self.d, self.alpha) - 1

    def size_bound(self) -> float:
        """The Lemma 6.2 upper bound ``2^{H(1/2 - α) d + 1}``."""
        return net_size_bound(self.d, self.alpha)

    def relative_size(self) -> float:
        """Net size bound relative to the naive ``2^d`` (Figure 1, left pane)."""
        return 2.0 ** (binary_entropy(0.5 - self.alpha) * self.d - self.d)

    # -- enumeration -----------------------------------------------------------

    def members(self, max_members: int | None = None) -> Iterator[ColumnQuery]:
        """Yield every (non-empty) net member as a :class:`ColumnQuery`.

        ``max_members`` guards accidental enumeration of an exponentially
        large net; exceeding it raises :class:`~repro.errors.QueryError`.
        """
        if max_members is not None and self.size() > max_members:
            raise QueryError(
                f"the alpha-net has {self.size()} members, exceeding the guard "
                f"of {max_members}"
            )
        sizes = [s for s in range(1, self.low_size + 1)]
        sizes.extend(range(self.high_size, self.d + 1))
        for size in sizes:
            for columns in combinations(range(self.d), size):
                yield ColumnQuery.of(columns, self.d)

    # -- rounding ---------------------------------------------------------------

    def round_query(
        self, query: ColumnQuery, rule: NeighbourRule = "nearest"
    ) -> ColumnQuery:
        """Return an α-neighbour of ``query`` inside the net.

        If the query is already a net member it is returned unchanged.
        Otherwise at most ``α d`` columns are removed (``shrink``), added
        (``grow``) or whichever is cheaper (``nearest``); removal drops the
        highest-indexed columns and addition inserts the lowest-indexed
        missing columns, so rounding is deterministic.
        """
        self._check_query(query)
        if self.contains(query):
            return query
        size = len(query)
        shrink_cost = size - self.low_size
        grow_cost = self.high_size - size
        if rule == "shrink" or (rule == "nearest" and shrink_cost <= grow_cost):
            if self.low_size < 1:
                # Nothing to shrink to; fall back to growing.
                return self._grow(query)
            return self._shrink(query)
        return self._grow(query)

    def _shrink(self, query: ColumnQuery) -> ColumnQuery:
        keep = list(query.columns)[: self.low_size]
        return ColumnQuery.of(keep, self.d)

    def _grow(self, query: ColumnQuery) -> ColumnQuery:
        columns = set(query.columns)
        for candidate in range(self.d):
            if len(columns) >= self.high_size:
                break
            columns.add(candidate)
        return ColumnQuery.of(columns, self.d)

    def rounding_cost(self, query: ColumnQuery, rule: NeighbourRule = "nearest") -> int:
        """``|C Δ C'|`` for the neighbour the given rule selects (0 if in-net)."""
        neighbour = self.round_query(query, rule)
        return query.symmetric_difference_size(neighbour)

    def max_rounding_cost(self, rule: NeighbourRule = "nearest") -> int:
        """Worst-case ``|C Δ C'|`` under ``rule`` over all query sizes.

        The cost depends on a query's size only, so one representative
        query per mid-band size (``low_size < s < high_size``) goes through
        :meth:`rounding_cost`; the result therefore agrees with
        :meth:`round_query` by construction.
        """
        return max(
            (
                self.rounding_cost(ColumnQuery.of(range(size), self.d), rule)
                for size in range(max(self.low_size + 1, 1), self.high_size)
            ),
            default=0,
        )

    def distortion(
        self, p: float, rule: NeighbourRule = "nearest", alphabet_size: int = 2
    ) -> float:
        """Rounding distortion ``r(α, F_p)`` of Lemma 6.4 for this net.

        Uses the net's worst rounding cost under ``rule`` and data over an
        alphabet of ``alphabet_size`` symbols.
        """
        return rounding_distortion(
            self.alpha,
            self.d,
            p,
            rounding_cost=self.max_rounding_cost(rule),
            alphabet_size=alphabet_size,
        )
